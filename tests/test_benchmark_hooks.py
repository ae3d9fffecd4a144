"""The benchmark in qnbench/ can still load and trace the program.

qnbench imports names from qnbudget and wraps the functions its spans.LAYERS
lists; a public name removed from qnbudget would otherwise only show up in a
traced benchmark run or in qnbench's own self-test.
"""

import ast
import importlib
from pathlib import Path

import pytest

import qnbudget.limits

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
