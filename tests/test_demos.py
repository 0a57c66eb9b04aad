"""The demos run against the current library API."""

import runpy
from pathlib import Path

from alphatest import METHODS

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_single_panel_demo_prints_every_test(capsys):
    runpy.run_path(str(DEMOS / "test_single_panel.py"), run_name="__main__")
    first_words = {line.split()[0] for line in capsys.readouterr().out.splitlines()
                   if line.strip()}
    assert set(METHODS) <= first_words
