"""Every demo script runs to completion against the current package."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_completes(demo):
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        runpy.run_path(str(demo), run_name="__main__")
    assert printed.getvalue().strip()
