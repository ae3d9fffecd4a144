"""Frequency-domain quantum-noise limits of laser interferometers with loss.

The package models a recycled interferometer in the two-photon quadrature
formalism, computes exact signal-referred noise spectra with fixed or
optimal homodyne readout, and provides the closed-form loss-induced limits
together with an independent fluctuation-dissipation cross-check.
"""

__version__ = "0.1.0"

from .config import (DEFAULT_BAND_HZ, FreqTable, IfoConfig, InternalSqueeze,
                     config_from_dict, config_hash, config_template,
                     config_to_dict, default_config, load_config, value_at)
from .constants import C_LIGHT, HBAR
from .errors import (BlindQuadratureError, ConfigError, DegeneracyError,
                     LasingThresholdError, RegimeWarning)
from .fdt import (CavityMode, chi_phase_amp, chi_phase_phase,
                  coupled_susceptibilities, gw_coupling, loss_floor_fdt,
                  mode_for)
from .ifo import (arm_bandwidth, effective_internal_loss, effective_src_loss,
                  homodyne_spectrum, io_relation, loop_matrix,
                  optimal_spectrum, ponderomotive_gain, qcrb_lossless,
                  resolve_band, total_covariance)
from .limits import (ALPHA_INTERNAL, ALPHA_NO_INTERNAL, limit_params,
                     loss_limit, qcrb_from_spp, signal_response_ratio, sql,
                     taylor_loss_internal, taylor_loss_no_internal,
                     taylor_qcrb_internal, taylor_qcrb_no_internal)
from .quadrature import (SYMPLECTIC_FORM, arccot, db_from_r, mat2, mat_inv,
                         ponderomotive_decompose, ponderomotive_matrix,
                         r_from_db, rotation_matrix, squeeze_matrix)
from .curves import BASE_CURVES, CURVE_CHOICES, evaluate_curve
from .validation import (CheckResult, ValidationReport, random_config,
                         run_validation)
from .cli import BudgetRequest, main, run_budget
