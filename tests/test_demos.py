"""Smoke test: the demos run against the current API.

Demos 01-05 run in-process with stdout captured, about 3 s together on
a 2-core machine, including imports.  Demo 05, about 1 s of it, runs
the shooting, continuation and phase-scan pipeline end to end.
"""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_green_machinery",
                                  "02_equilibria_catalog",
                                  "03_stationary_dipole",
                                  "04_vortex_dynamics",
                                  "05_periodic_superposition"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert out.getvalue().strip()
