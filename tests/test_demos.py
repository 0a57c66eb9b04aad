"""The demos run against the current library API."""

import runpy
from pathlib import Path

import pytest

from alphatest import METHODS

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def run_demo(name, capsys):
    """The lines `demos/<name>` prints when run as a script."""
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_single_panel_demo_prints_every_test(capsys):
    first_words = {line.split()[0] for line in run_demo("test_single_panel.py", capsys)
                   if line.strip()}
    assert set(METHODS) <= first_words


@pytest.mark.parametrize("name", ["size_table.py", "power_curve.py"])
def test_table_demo_lists_every_method(capsys, name):
    # the size table has a row per method, the power curve a column
    words = {word for line in run_demo(name, capsys) for word in line.split()}
    assert set(METHODS) <= words


def test_null_laws_demo_prints_both_laws(capsys):
    # the centered max against the extreme value law, then the Fisher
    # combination against chi-square(4), each with its KS distance
    lines = run_demo("null_laws.py", capsys)
    assert lines[0].startswith("centered max of 200 squared normals")
    assert any(line.startswith("Fisher combination") for line in lines)
    distances = [float(line.split()[-1]) for line in lines if line.startswith("KS distance")]
    assert len(distances) == 2 and max(distances) < 0.05
