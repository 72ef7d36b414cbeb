"""Smoke test: the demos run against the current API.

Demos 01-04 run in-process with stdout captured, about 6 s together on
a 2-core machine.  Demo 05 (about 5 s) is left out: acceptance
criteria 08-10 cover its shooting, continuation and phase-scan pipeline.
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
                                  "04_vortex_dynamics"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert out.getvalue().strip()
