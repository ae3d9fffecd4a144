"""Every pytest.approx in the spectrum tests states its absolute bound.

approx's default abs=1e-12 exceeds every PSD and prefactor the program
computes (1e-46 to 1e-53), so a comparison without abs= passes for any
value: 2e-46 == pytest.approx(1e-46, rel=1e-12) is True.
"""

import ast
from pathlib import Path

import pytest

HERE = Path(__file__).parent


def unbounded_approx_lines(path):
    """Line numbers of the approx(...) calls in path without an abs=."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "approx"
            and not any(k.arg == "abs" for k in node.keywords)]


@pytest.mark.parametrize("name", ["test_ifo.py", "test_limits.py",
                                  "test_fdt.py"])
def test_every_approx_states_abs(name):
    assert unbounded_approx_lines(HERE / name) == []


def test_the_check_sees_a_bare_approx(tmp_path):
    path = tmp_path / "example.py"
    path.write_text("import pytest\n"
                    "assert 2e-46 == pytest.approx(1e-46, rel=1e-12)\n"
                    "assert 1e-46 == pytest.approx(1e-46, rel=1e-12, abs=0.0)\n"
                    "from pytest import approx\n"
                    "assert 1.0 == approx(1.0)\n")
    assert unbounded_approx_lines(path) == [2, 5]
