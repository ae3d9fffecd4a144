"""Fuzz tests of the command line and the library entry points.

Three kinds of draw, each derandomized with a fixed example budget:

- config documents, the template (lambda0) or the canonical form (omega0)
  with one to three keys set to a hostile JSON value or removed, run
  through `budget` and `validate`;
- argv over `--fmin`, `--fmax`, `--points`, `--curves` and `--seed`;
- direct `BudgetRequest` and `config_from_dict` calls.

Every draw ends in exit code 0, 1, 2 or 3 (a library call in a result, a
ConfigError or a DegeneracyError); no exception escapes `main`; numpy
raises no RuntimeWarning, since warnings are errors; RegimeWarnings are
the only warnings; and stderr is empty or one "config error:" or
"numerical degeneracy:" line that names a key, a curve or a frequency.

The schema-order property sets two fields of a canonical document to
values that each fail alone, and requires the message to name the one
earlier in field order.
"""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qnbudget import (BASE_CURVES, BudgetRequest, ConfigError,
                      DegeneracyError, IfoConfig, RegimeWarning,
                      config_from_dict, config_template, config_to_dict,
                      default_config, run_budget)
from qnbudget.cli import main

PROFILE = settings(deadline=None, derandomize=True, database=None,
                   suppress_health_check=[HealthCheck.too_slow])

FIELDS = [f.name for f in fields(IfoConfig)]
# a key outside the schema, which a document may also hold
UNKNOWN_KEY = "chirp_mass"
# the keys and the request options a message may name
NAMES = (*FIELDS, "lambda0", UNKNOWN_KEY, "fmin", "fmax", "points", "curves",
         "seed", "band_hz", "format")
NAMED = re.compile(
    r"\b(" + "|".join(NAMES) + r")\b"   # a key
    r"|^config: "                        # the document itself
    r"|curve '"                          # a curve
    r"|\d Hz|rad/s"                      # a frequency
    # a failing line of arithmetic on the config's constants, quoted, whose
    # operands are the fields
    r"|`[^`]+`")

CURVES = (*BASE_CURVES, "full_fixed_zeta(0.5)")

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, 25.0, 5e-324, 1e-300, 1e300,
                     1.7e308, 10**400, -10**400]))
table_objects = st.one_of(
    st.builds(lambda f, v: {"f_hz": f, "values": v},
              st.lists(numbers, max_size=3), st.lists(numbers, max_size=3)),
    st.sampled_from([
        {"f_hz": [1.0, 1e4], "values": [0.0, 0.01]},
        {"f_hz": [20.0, 800.0], "values": [0.01, 0.01]},
        {"f_hz": [1.0, 1e4]},
        {"f_hz": [1.0, 1e4], "values": [0.0, 0.0], "x": 0},
        {"f_hz": 1.0, "values": [0.0]},
        {"f_hz": [1e4, 1.0], "values": [0.0, 0.0]},
    ]))
scalars = st.one_of(
    st.none(), st.booleans(), numbers, table_objects,
    st.sampled_from(["", "abc", "none", "fixed", "ponderomotive", "1.0"]))
hostile = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["mode", "r", "theta", "f_hz", "values", "x"]),
        inner, max_size=3),
    max_leaves=6)


@st.composite
def documents(draw):
    doc = draw(st.sampled_from([config_template,
                                lambda: config_to_dict(default_config())]))()
    keys = st.sampled_from([*FIELDS, "lambda0", UNKNOWN_KEY])
    for key in draw(st.lists(keys, min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(hostile)
    return doc


def run(argv):
    """(exit code, stderr) of main(argv), after checking its warnings: a
    numpy RuntimeWarning raises, and any other warning is a RegimeWarning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    assert all(w.category is RegimeWarning for w in caught), \
        [str(w.message) for w in caught]
    return code, err.getvalue()


def check_outcome(code, err):
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert err == ""
        return
    prefix = "config error: " if code == 2 else "numerical degeneracy: "
    assert err.startswith(prefix) and err.endswith("\n")
    assert err.count("\n") == 1, err
    assert NAMED.search(err[len(prefix):]), err


@pytest.fixture(scope="module")
def config_path():
    with tempfile.TemporaryDirectory() as d:
        yield os.path.join(d, "cfg.json")


@settings(PROFILE, max_examples=150)
@given(doc=documents(), curves=st.lists(st.sampled_from(CURVES), min_size=1,
                                        max_size=3))
def test_config_documents(config_path, doc, curves):
    with open(config_path, "w") as fh:
        json.dump(doc, fh)
    check_outcome(*run(["budget", "--config", config_path, "--points", "4",
                        "--curves", ",".join(curves)]))
    check_outcome(*run(["validate", "--config", config_path]))


# band edges up to the largest frequency whose 2 pi f is finite and beyond;
# given as --flag=value, since argparse reads "-1e+300" as an option
edges = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                  st.floats(0.1, 2.8e307),
                  st.sampled_from([0.1, 5.0, 5000.0, 1e160, 2.8e307, 1e308]))
curve_lists = st.lists(
    st.sampled_from([*CURVES, "full_fixed_zeta(1e999)", "full_fixed_zeta(1e)",
                     "bogus", " sql ", ""]), max_size=3).map(",".join)


@st.composite
def argvs(draw):
    if draw(st.booleans()):
        seed = draw(st.integers(-3, 2**70) | st.sampled_from([0, 5, 1285]))
        return ["validate", f"--seed={seed}"]
    argv = ["budget"]
    if draw(st.booleans()):
        argv.append(f"--fmin={draw(edges)!r}")
    if draw(st.booleans()):
        argv.append(f"--fmax={draw(edges)!r}")
    # at most a few thousand points, so that a draw stays quick
    points = draw(st.integers(-3, 3000) | st.sampled_from([10**6 + 1, 10**9]))
    return argv + [f"--points={points}", f"--curves={draw(curve_lists)}"]


@settings(PROFILE, max_examples=150)
@given(argv=argvs())
def test_argv(argv):
    check_outcome(*run(argv))


def library_call(call):
    """call(), whose only errors are ConfigError and DegeneracyError, each
    naming a key, a curve or a frequency; a RuntimeWarning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return call()
        except (ConfigError, DegeneracyError) as exc:
            assert NAMED.search(str(exc)), str(exc)
    return None


bands = st.one_of(st.tuples(edges, edges), st.lists(edges, max_size=3),
                  hostile)
request_kw = st.fixed_dictionaries({}, optional={
    "band_hz": bands,
    "points": st.integers(-3, 64) | st.sampled_from([10**6 + 1]) | hostile,
    "curves": curve_lists | st.lists(st.sampled_from(CURVES)) | hostile,
    "fmt": st.sampled_from(["csv", "json", "yaml"]) | hostile,
})


@settings(PROFILE, max_examples=150)
@given(kw=request_kw)
def test_budget_request_calls(kw):
    req = library_call(lambda: BudgetRequest(config=default_config(), **kw))
    if req is not None and req.points <= 64:
        library_call(lambda: run_budget(req))


@settings(PROFILE, max_examples=150)
@given(doc=documents() | hostile)
def test_config_from_dict_calls(doc):
    cfg = library_call(lambda: config_from_dict(doc))
    if cfg is not None:
        assert config_from_dict(config_to_dict(cfg)) == cfg


def _outside(f):
    """Numbers just outside the interval of field f, if it has ends."""
    lo, hi, ends = f.metadata.get("interval", (-math.inf, math.inf, "()"))
    below = [lo if ends[0] == "(" else lo - 1.0] if math.isfinite(lo) else []
    above = [hi if ends[1] == ")" else hi + 1.0] if math.isfinite(hi) else []
    return below + above


# values that fail in every field, whatever its kind (number, table,
# channels or internal squeeze)
FAIL_ANYWHERE = [math.nan, math.inf, -10**400, "abc", True, None, [],
                 {"f_hz": [1.0]}, {"mode": "bogus"},
                 {"f_hz": [1.0, 1e4], "values": [0.0, math.nan]}]
BAD = {f.name: st.sampled_from(FAIL_ANYWHERE + _outside(f))
       for f in fields(IfoConfig)}


def first_key_error(doc):
    with pytest.raises(ConfigError) as info:
        config_from_dict(doc)
    return str(info.value)


def names_first(message, key):
    return re.match(rf"{re.escape(key)}[:.\[]", message) is not None


@settings(PROFILE, max_examples=200)
@given(data=st.data(),
       pair=st.lists(st.sampled_from(FIELDS), min_size=2, max_size=2,
                     unique=True))
def test_first_bad_key_in_field_order_is_reported(data, pair):
    first, second = sorted(pair, key=FIELDS.index)
    doc = config_to_dict(default_config())
    for key in (first, second):
        doc[key] = data.draw(BAD[key], label=key)
        alone = {**config_to_dict(default_config()), key: doc[key]}
        assert names_first(first_key_error(alone), key)
    assert names_first(first_key_error(doc), first)
