"""The benchmark in qnbench/ can still load and trace the program.

qnbench imports names from qnbudget and wraps the functions its spans.LAYERS
lists; a public name removed from qnbudget would otherwise only show up in a
traced benchmark run or in qnbench's own self-test.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

import qnbudget.ifo
import qnbudget.limits
import qnbudget.validation
from qnbudget import IfoConfig, default_config

QNBENCH = Path(__file__).resolve().parent.parent / "qnbench"
IMPORTING_FILES = ("probe.py", "reference.py", "workloads.py", "selftest.py")


def qnbudget_imports(path):
    """(module, name) for each qnbudget import in a file; name None for a
    plain `import qnbudget.x`."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "qnbudget":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "qnbudget")


@pytest.mark.parametrize("filename", IMPORTING_FILES)
def test_imported_names_exist(filename):
    found = list(qnbudget_imports(QNBENCH / filename))
    assert found
    for module, name in found:
        loaded = importlib.import_module(module)
        assert name is None or hasattr(loaded, name), f"{module}.{name}"


def test_tracer_installs_on_every_layer(monkeypatch):
    # install() looks up every function spans.LAYERS names, in its module
    monkeypatch.syspath_prepend(str(QNBENCH))
    spans = importlib.import_module("spans")
    original = qnbudget.limits.loss_limit
    tracer = spans.Tracer(10)
    try:
        tracer.install()
        assert qnbudget.limits.loss_limit is not original
    finally:
        tracer.uninstall()
    assert qnbudget.limits.loss_limit is original


def test_exact_pipeline_calls_its_public_layers(monkeypatch):
    # the per-layer metrics see the exact pipeline through these public
    # functions; a spectrum that routes around them leaves its layers empty
    monkeypatch.syspath_prepend(str(QNBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer(100)
    try:
        tracer.install()
        with pytest.raises(ValueError):
            qnbudget.ifo.optimal_spectrum(default_config(), -1.0)
    finally:
        tracer.uninstall()
    names = [spans.SPAN_NAMES[i] for i in tracer.name_id]
    chain, i = [], names.index("ifo.effective_internal_loss")
    while i >= 0:
        chain.append(names[i])
        i = tracer.parent[i]
    assert chain == ["ifo.effective_internal_loss", "ifo.io_relation",
                     "ifo.optimal_spectrum"]


def test_validate_solves_the_loop_twice(monkeypatch):
    # optimal_vs_grid with loss_monotonicity, and the Taylor-regime pair,
    # each read one io_relation; no check calls a public spectrum
    monkeypatch.syspath_prepend(str(QNBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer(10_000)
    try:
        tracer.install()
        assert qnbudget.validation.run_validation(default_config(), 7).passed
    finally:
        tracer.uninstall()
    calls = Counter(spans.SPAN_NAMES[i] for i in tracer.name_id)
    assert calls["validation.run_validation"] == 1
    assert calls["ifo.io_relation"] == 2
    for name in ("optimal_spectrum", "homodyne_spectrum", "qcrb_lossless"):
        assert calls[f"ifo.{name}"] == 0, name


def test_validate_copies_the_config_twice(monkeypatch):
    # the raised losses of loss_monotonicity are values, not configs: the
    # only copies left are fdt_vs_loss_limit's arm-only config and the
    # Taylor-regime config, each a new IfoConfig and so a schema walk
    cfg = default_config()
    copies = []
    post_init = IfoConfig.__post_init__

    def spy(self):
        copies.append(self)
        post_init(self)

    monkeypatch.setattr(IfoConfig, "__post_init__", spy)
    assert qnbudget.validation.run_validation(cfg, 7).passed
    assert len(copies) == 2
