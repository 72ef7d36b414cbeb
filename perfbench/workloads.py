"""Workload inputs and correctness gates.

Each workload turns (seed, operation index, output directory) into an
INI config for `vortexlab.cli.run`, and checks the artifacts the run
wrote.  The program sees only the generated config.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# --- orbit: the reference orbit of figure 1 ---------------------------------

# The anchors come from the on-axis guess.  Newton stays on the axis and
# lands on the closed-form disc dipole, which the pairs' phase-0 guess is
# built for; a jittered guess converges to a rotated dipole and changes
# the orbit found, so the seed does not touch the inputs.
ORBIT_CONFIG = """\
[domain]
kind = disc

[task]
kind = periodic
output_dir = {outdir}
seed = {seed}

[anchors]
strengths = -2, 2
guess = 0.45 0; -0.45 0

[cluster.1]
catalog = pair
params = -1, -1

[cluster.2]
catalog = pair
params = 1, 1

[periodic]
r = 0.1
phases = 0, 0
"""

ORBIT_VORTICES = 4
RESIDUAL_MAX = 1e-10
CLOSURE_MAX = 1e-9
PERIOD_RTOL = 1e-12
DISTANCE_ATOL = 1e-8
GOLDEN = Path("out", "figure1", "orbit_r0.1.json")
GOLDEN_FIELDS = ("period", "distance_to_m")


def load_golden(root: Path) -> dict:
    """Golden fields of the tracked figure-1 orbit, read, never written."""
    doc = json.loads((root / GOLDEN).read_text())
    return {k: doc[k] for k in GOLDEN_FIELDS}


def orbit_config(seed: int, index: int, outdir: str) -> str:
    return ORBIT_CONFIG.format(outdir=outdir, seed=seed)


def check_orbit(outdir: str, golden: dict) -> list:
    """Violations of the orbit gate, empty when the orbit is correct."""
    path = os.path.join(outdir, "orbit_r0.1.json")
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"orbit artifact unreadable: {exc}"]
    try:
        problems = _orbit_problems(doc, golden)
    except (KeyError, TypeError) as exc:
        return [f"orbit artifact lacks a field: {exc!r}"]
    for name in ("traj_r0.1.csv", "traj_r0.1_rescaled.csv"):
        if not os.path.isfile(os.path.join(outdir, name)):
            problems.append(f"{name} missing")
    return problems


def _orbit_problems(doc: dict, golden: dict) -> list:
    problems = []
    if not doc["residual"] <= RESIDUAL_MAX:
        problems.append(f"residual {doc['residual']:.3e} > {RESIDUAL_MAX}")
    if not doc["closure"] <= CLOSURE_MAX:
        problems.append(f"closure {doc['closure']:.3e} > {CLOSURE_MAX}")
    if not math.isclose(doc["period"], golden["period"], rel_tol=PERIOD_RTOL,
                        abs_tol=0.0):
        problems.append(f"period {doc['period']!r} != golden "
                        f"{golden['period']!r}")
    if not abs(doc["distance_to_m"] - golden["distance_to_m"]) <= DISTANCE_ATOL:
        problems.append(f"distance_to_m {doc['distance_to_m']!r} != golden "
                        f"{golden['distance_to_m']!r}")
    return problems


def orbit_newton_iters(outdir: str) -> int:
    with open(os.path.join(outdir, "orbit_r0.1.json")) as fh:
        return int(json.load(fh)["iterations"])


# --- simulate: 32 positive vortices in the unit disc ------------------------

SIM_VORTICES = 32
SIM_T_END = 0.25
WALL_MARGIN = 0.15
MIN_SEPARATION = 0.15
ENERGY_DRIFT_MAX = 1e-9
# The final state must match the benchmark's own integration of the disc
# field (`disc_velocity`, DOP853 at REF_TOL) to FINAL_STATE_ATOL.  The two
# agree to about 2e-10; a vortex moves about 1 by t_end.
REF_TOL = 1e-11
FINAL_STATE_ATOL = 1e-7
# Jittered hexagonal lattice: spacing minus twice the jitter bounds the
# separation from below, and the 32 innermost sites reach radius 0.78.
_LATTICE_SPACING = 0.26
_JITTER = 0.04


def simulate_inputs(seed: int, index: int):
    """(strengths, positions) of operation `index` under `seed`.

    Strengths are positive and stratified over [0.5, 1.5), so the total
    circulation, which sets the rotation rate, is nearly the same for
    every draw.  Positions are the 32 innermost sites of a hexagonal
    lattice, rotated by a random angle and jittered, which keeps the
    wall margin and the minimum separation of every draw, and so its
    step-size needs, close to each other.  Positive strengths only: no
    pair collapses, so no guard event is expected.
    """
    rng = np.random.default_rng([seed, index])
    n = SIM_VORTICES
    strengths = 0.5 + (rng.permutation(n) + rng.random(n)) / n

    h = _LATTICE_SPACING
    ij = np.array([(i, j) for i in range(-6, 7) for j in range(-6, 7)],
                  dtype=float)
    sites = np.column_stack([h * (ij[:, 0] + 0.5 * ij[:, 1]),
                             h * (math.sqrt(3.0) / 2.0) * ij[:, 1]])
    radius = np.hypot(sites[:, 0], sites[:, 1])
    sites = sites[np.lexsort((sites[:, 1], sites[:, 0], radius))][:n]
    angle = rng.uniform(0.0, 2.0 * math.pi)
    c, s = math.cos(angle), math.sin(angle)
    sites = sites @ np.array([[c, s], [-s, c]])
    r = _JITTER * np.sqrt(rng.random(n))
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    positions = sites + np.column_stack([r * np.cos(phi), r * np.sin(phi)])
    if not admissible(positions):
        raise RuntimeError("lattice placement broke its own margins")
    return strengths, positions


def admissible(positions) -> bool:
    """Wall margin and minimum separation hold for every vortex."""
    p = np.asarray(positions, dtype=float)
    if np.max(np.hypot(p[:, 0], p[:, 1])) > 1.0 - WALL_MARGIN:
        return False
    d = np.hypot(*(p[:, None, :] - p[None, :, :]).transpose(2, 0, 1))
    d[np.diag_indices(len(p))] = np.inf
    return bool(d.min() >= MIN_SEPARATION)


def simulate_config(seed: int, index: int, outdir: str) -> str:
    strengths, positions = simulate_inputs(seed, index)
    return "\n".join([
        "[domain]", "kind = disc", "",
        "[task]", "kind = simulate", f"output_dir = {outdir}",
        f"seed = {seed}", "",
        "[vortices]",
        "strengths = " + ", ".join(repr(float(g)) for g in strengths),
        "positions = " + "; ".join(f"{x!r} {y!r}"
                                   for x, y in positions.tolist()),
        "",
        "[simulate]", f"t_end = {SIM_T_END!r}", "",
    ])


def disc_velocity(strengths, positions) -> np.ndarray:
    """Velocities of point vortices in the unit disc, in closed form.

    Each vortex is advected by the others and by the image of every
    vortex, strength -gamma at x/|x|^2.  vortexlab's Hamiltonian sums
    over ordered pairs, so its field is 1/pi, not 1/(2 pi), times the
    Biot-Savart sum.  This is written apart from vortexlab, so that the
    simulate gate checks the program against something it did not
    compute.
    """
    p = np.asarray(positions, dtype=float).reshape(-1, 2)
    gamma = np.asarray(strengths, dtype=float)
    d = p[:, None, :] - p[None, :, :]
    r2 = np.einsum("ijd,ijd->ij", d, d)
    np.fill_diagonal(r2, np.inf)
    images = p / np.einsum("jd,jd->j", p, p)[:, None]
    e = p[:, None, :] - images[None, :, :]
    s2 = np.einsum("ijd,ijd->ij", e, e)
    u = (np.einsum("ij,ijd->id", gamma / r2, d)
         - np.einsum("ij,ijd->id", gamma / s2, e))
    return np.column_stack([-u[:, 1], u[:, 0]]) / math.pi


def reference_final_state(strengths, positions) -> np.ndarray:
    """Positions at SIM_T_END from a DOP853 solve of `disc_velocity`."""
    sol = solve_ivp(
        lambda t, z: disc_velocity(strengths, z).reshape(-1),
        (0.0, SIM_T_END), np.asarray(positions, dtype=float).reshape(-1),
        method="DOP853", rtol=REF_TOL, atol=REF_TOL)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1].reshape(-1, 2)


def check_simulate(outdir: str, seed: int, index: int) -> list:
    """Violations of the simulate gate, empty when the run is correct.

    Besides the program's own energy drift, the final state is compared
    with the benchmark's own integration of the closed-form disc field,
    which catches a flow that conserves the invariants but moves the
    vortices wrongly (not at all, too slowly, backwards).
    """
    try:
        with open(os.path.join(outdir, "simulation.json")) as fh:
            doc = json.load(fh)
        with open(os.path.join(outdir, "trajectory.csv")) as fh:
            rows = sum(1 for _ in fh) - 1
    except (OSError, ValueError) as exc:
        return [f"simulate artifacts unreadable: {exc}"]
    try:
        return _simulate_problems(doc, rows, *simulate_inputs(seed, index))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"simulation.json lacks a field: {exc!r}"]


def _simulate_problems(doc: dict, rows: int, strengths, positions) -> list:
    problems = []
    if doc["t_end"] != SIM_T_END:
        problems.append(f"t_end {doc['t_end']!r} != {SIM_T_END!r}")
    if doc["steps"] < 1 or rows != doc["steps"] + 1:
        problems.append(f"{rows} csv rows for {doc['steps']} steps")
    if not doc["energy_drift"] <= ENERGY_DRIFT_MAX:
        problems.append(f"energy drift {doc['energy_drift']:.3e}")
    final = np.array(doc["final_state"], dtype=float).reshape(-1, 2)
    if final.shape != positions.shape:
        return problems + [f"final state has shape {final.shape}"]
    error = np.max(np.abs(final - reference_final_state(strengths, positions)))
    if not error <= FINAL_STATE_ATOL:
        problems.append(f"final state off the reference by {error:.3e}")
    return problems
