"""The public API of `qnbudget`, pinned by name and by parameter count.

A change to the API shows here as a one-line diff.  Public names are the
package attributes without a leading underscore, submodules excluded; the
parameter count sums `inspect.signature` over the public callables.
"""

import inspect
import types

import qnbudget

PUBLIC_NAMES = [
    "ALPHA_INTERNAL", "ALPHA_NO_INTERNAL", "BASE_CURVES",
    "BlindQuadratureError", "BudgetRequest", "CURVE_CHOICES", "C_LIGHT",
    "CavityMode", "CheckResult", "ConfigError", "DEFAULT_BAND_HZ",
    "DegeneracyError", "FreqTable", "HBAR", "IfoConfig", "InternalSqueeze",
    "LasingThresholdError", "RegimeWarning", "SYMPLECTIC_FORM",
    "ValidationReport", "arccot", "arm_bandwidth", "chi_phase_amp",
    "chi_phase_phase", "config_from_dict", "config_hash", "config_template",
    "config_to_dict", "coupled_susceptibilities", "db_from_r",
    "default_config", "effective_internal_loss", "effective_src_loss",
    "evaluate_curve", "gw_coupling", "homodyne_spectrum", "io_relation",
    "limit_params", "load_config", "loop_matrix", "loss_floor_fdt",
    "loss_limit", "main", "mat2", "mat_inv", "mode_for", "optimal_spectrum",
    "ponderomotive_decompose", "ponderomotive_gain", "ponderomotive_matrix",
    "qcrb_from_spp", "qcrb_lossless", "r_from_db", "random_config",
    "resolve_band", "rotation_matrix", "run_budget", "run_validation",
    "signal_response_ratio", "sql", "squeeze_matrix",
    "taylor_loss_internal", "taylor_loss_no_internal",
    "taylor_qcrb_internal", "taylor_qcrb_no_internal", "total_covariance",
    "value_at",
]

PUBLIC_PARAMETERS = 120


def public_names():
    return sorted(name for name, value in vars(qnbudget).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType))


def parameter_count(obj) -> int:
    try:
        return len(inspect.signature(obj).parameters)
    except ValueError:
        # an exception class that keeps the built-in constructor has no
        # signature to read
        return 0


def test_public_names():
    assert public_names() == PUBLIC_NAMES


def test_public_parameter_count():
    total = sum(parameter_count(getattr(qnbudget, name))
                for name in public_names() if callable(getattr(qnbudget, name)))
    assert total == PUBLIC_PARAMETERS
