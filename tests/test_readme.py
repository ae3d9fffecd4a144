"""README's library examples run as documented."""

import re
from pathlib import Path

import numpy as np

from qnbudget.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_examples_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    # README's shell step: qnbudget print-config-template > my_ifo.json
    monkeypatch.chdir(tmp_path)
    assert main(["print-config-template"]) == 0
    (tmp_path / "my_ifo.json").write_text(capsys.readouterr().out)
    # the blocks run in order, the sweep reusing the quickstart's imports
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    for name in ("s_min", "zeta", "floor", "oracle"):
        assert isinstance(scope[name], float), name
    exec(compile(blocks[1], "README.md", "exec"), scope)
    for name in ("f_hz", "s_min", "zeta"):
        assert isinstance(scope[name], np.ndarray), name
        assert scope[name].shape == (500,), name
