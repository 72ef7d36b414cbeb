import json
from pathlib import Path

import numpy as np
import pytest

import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_simulate_inputs_are_deterministic_per_seed():
    g1, p1 = workloads.simulate_inputs(7, 3)
    g2, p2 = workloads.simulate_inputs(7, 3)
    assert np.array_equal(g1, g2) and np.array_equal(p1, p2)
    g3, p3 = workloads.simulate_inputs(8, 3)
    assert not np.array_equal(p1, p3) and not np.array_equal(g1, g3)
    assert workloads.simulate_config(7, 3, "o") == \
        workloads.simulate_config(7, 3, "o")


@pytest.mark.parametrize("seed", range(0, 200, 7))
def test_every_simulate_placement_is_admissible(seed):
    for index in range(4):
        strengths, positions = workloads.simulate_inputs(seed, index)
        assert positions.shape == (workloads.SIM_VORTICES, 2)
        assert np.all((strengths >= 0.5) & (strengths < 1.5))
        assert workloads.admissible(positions)
        radius = np.hypot(positions[:, 0], positions[:, 1])
        assert radius.max() <= 1.0 - workloads.WALL_MARGIN
        d = np.hypot(*(positions[:, None] - positions[None]).transpose(2, 0, 1))
        assert d[~np.eye(len(d), dtype=bool)].min() >= workloads.MIN_SEPARATION


def test_admissible_rejects_violations():
    ok = np.array([[0.0, 0.0], [0.5, 0.0]])
    assert workloads.admissible(ok)
    assert not workloads.admissible(np.array([[0.0, 0.0], [0.9, 0.0]]))
    assert not workloads.admissible(np.array([[0.0, 0.0], [0.1, 0.0]]))


def test_orbit_gate_accepts_golden_and_rejects_a_wrong_orbit(tmp_path):
    golden = workloads.load_golden(ROOT)
    doc = dict(golden, residual=5.5e-13, closure=6.7e-12)
    (tmp_path / "orbit_r0.1.json").write_text(json.dumps(doc))
    for name in ("traj_r0.1.csv", "traj_r0.1_rescaled.csv"):
        (tmp_path / name).write_text("t\n")
    assert workloads.check_orbit(str(tmp_path), golden) == []

    doc["distance_to_m"] += 1e-6
    doc["residual"] = 1e-8
    (tmp_path / "orbit_r0.1.json").write_text(json.dumps(doc))
    assert len(workloads.check_orbit(str(tmp_path), golden)) == 2

    del doc["closure"]
    (tmp_path / "orbit_r0.1.json").write_text(json.dumps(doc))
    assert len(workloads.check_orbit(str(tmp_path), golden)) == 1
    assert workloads.check_orbit(str(tmp_path / "missing"), golden)


def test_disc_velocity_matches_the_program_field():
    from vortexlab import UnitDisc, VortexSystem

    strengths, positions = workloads.simulate_inputs(5, 0)
    system = VortexSystem(tuple(strengths), (len(strengths),), UnitDisc())
    program = system.vector_field(positions.reshape(-1)).reshape(-1, 2)
    ours = workloads.disc_velocity(strengths, positions)
    assert np.max(np.abs(program - ours)) <= 1e-12 * np.max(np.abs(ours))


def _write_simulation(path, final_state, steps=3):
    doc = {"t_end": workloads.SIM_T_END, "steps": steps,
           "energy_drift": 1e-13,
           "final_state": [float(v) for v in np.ravel(final_state)]}
    (path / "simulation.json").write_text(json.dumps(doc))
    (path / "trajectory.csv").write_text("t\n" + "0\n" * (steps + 1))


def test_simulate_gate_rejects_a_wrong_flow(tmp_path):
    strengths, positions = workloads.simulate_inputs(2, 1)
    reference = workloads.reference_final_state(strengths, positions)
    _write_simulation(tmp_path, reference)
    assert workloads.check_simulate(str(tmp_path), 2, 1) == []

    # vortices left in place, or run backwards, conserve every invariant
    backwards = workloads.reference_final_state(-strengths, positions)
    for wrong in (positions, backwards):
        _write_simulation(tmp_path, wrong)
        problems = workloads.check_simulate(str(tmp_path), 2, 1)
        assert len(problems) == 1 and "reference" in problems[0]
