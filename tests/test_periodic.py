"""Superposed periodic orbits: guesses, shooting, continuation, scans."""

import dataclasses
import io
import json
import os

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from vortexlab import (CollisionError, ConstraintViolationError,
                       ConvergenceError, DomainViolationError,
                       IntegratorSettings, ScaleTooLargeError, SuperpositionSpec,
                       build_initial_guess, cluster_winding_numbers,
                       continue_in_r, distance_to_M, evaluate_point,
                       flow_with_jacobian, integrate, make_equilateral,
                       make_pair, make_trivial, permutation_matrix, perp,
                       rotate_all, scan_phases, shoot, winding_number)
from vortexlab import dynamics, periodic
from vortexlab.periodic import (IDENTIFICATION_TOL, _orbit_distance,
                                _scale_is_admissible)

from conftest import MU, build_figure1_spec, build_thomson3_spec

TWO_PI = 2.0 * np.pi
GOLDEN_ORBIT = os.path.join(os.path.dirname(__file__), os.pardir, "out",
                            "figure1", "orbit_r0.1.json")


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------

def test_cluster_count_must_match_anchor_count(disc, dipole):
    anchors = evaluate_point((-2.0, 2.0), disc, [[MU, 0.0], [-MU, 0.0]])
    with pytest.raises(ConstraintViolationError):
        SuperpositionSpec(anchors, (make_pair(-1.0, -1.0),), disc)


def test_anchors_must_be_critical(disc):
    anchors = evaluate_point((-2.0, 2.0), disc, [[0.3, 0.0], [-0.3, 0.0]])
    assert anchors.gradient_norm > 1e-10
    with pytest.raises(ConstraintViolationError):
        SuperpositionSpec(anchors, (make_pair(-1.0, -1.0), make_pair(1.0, 1.0)),
                          disc, (0.0, 0.0), 0.1)


def test_cluster_strength_sums_must_match_the_anchors(disc):
    anchors = evaluate_point((-2.0, 2.0), disc, [[MU, 0.0], [-MU, 0.0]])
    with pytest.raises(ConstraintViolationError):
        SuperpositionSpec(anchors, (make_pair(1.0, 1.0), make_pair(1.0, 1.0)),
                          disc, (0.0, 0.0), 0.1)


def test_degenerate_clusters_are_rejected(disc):
    anchor = evaluate_point((3.0,), disc, [[0.0, 0.0]])
    with pytest.raises(ConstraintViolationError):
        SuperpositionSpec(anchor, (make_equilateral(1.0, 1.0, 1.0),),
                          disc, (0.0,), 0.1)


def test_phase_vector_length_matches_the_nontrivial_clusters(disc):
    anchors = evaluate_point((-2.0, 2.0), disc, [[MU, 0.0], [-MU, 0.0]])
    clusters = (make_pair(-1.0, -1.0), make_pair(1.0, 1.0))
    with pytest.raises(ConstraintViolationError):
        SuperpositionSpec(anchors, clusters, disc, (0.0,), 0.1)
    with pytest.raises(ConstraintViolationError):
        SuperpositionSpec(anchors, clusters, disc, (0.0, 0.0), -0.1)


def test_spec_layout_properties():
    spec = build_figure1_spec(0.1)
    assert spec.m == 2
    assert spec.l == 2
    assert spec.n == 4
    assert spec.cluster_sizes == (2, 2)
    assert spec.sigma == (0, 1, 2, 3)
    assert spec.order == 1
    assert spec.tau == TWO_PI
    assert spec.period == TWO_PI * 0.01


def test_mixed_trivial_spec_layout(disc):
    anchors = evaluate_point((-2.0, 2.0), disc, [[MU, 0.0], [-MU, 0.0]])
    spec = SuperpositionSpec(anchors, (make_trivial(-2.0), make_pair(0.5, 1.5)),
                             disc, (0.0,), 0.1)
    assert spec.l == 1
    assert spec.nontrivial_indices == (1,)
    assert spec.cluster_sizes == (1, 2)
    assert spec.full_phases().tolist() == [0.0, 0.0]


# ---------------------------------------------------------------------------
# initial guesses
# ---------------------------------------------------------------------------

def test_guess_is_the_unshifted_concatenation_at_zero_phase():
    spec = build_figure1_spec(0.0)
    u0 = build_initial_guess(spec)
    expected = np.concatenate([spec.clusters[0].flat(),
                               spec.clusters[1].flat()])
    assert np.array_equal(u0, expected)


def test_guess_applies_the_phase_shift_per_cluster():
    spec = build_figure1_spec(0.1, phases=(0.7, 1.9))
    u0 = build_initial_guess(spec)
    for k, (eq, theta) in enumerate(zip(spec.clusters, (0.7, 1.9))):
        block = u0[4 * k:4 * k + 4]
        assert np.allclose(block, eq.solution(theta), atol=1e-14)


def test_guess_positions_are_admissible_and_centered_on_the_anchors():
    spec = build_figure1_spec(0.1)
    u0 = build_initial_guess(spec)
    physical = spec.rescaled().to_physical(u0).reshape(4, 2)
    spec.system().validate_state(physical.reshape(-1))
    assert np.allclose(physical[:2].mean(axis=0), [MU, 0.0], atol=1e-12)
    assert np.allclose(physical[2:].mean(axis=0), [-MU, 0.0], atol=1e-12)


def test_overlarge_scale_reports_an_admissibility_estimate():
    spec = build_figure1_spec(1.5)
    with pytest.raises(ScaleTooLargeError) as info:
        build_initial_guess(spec)
    assert 1.2 < info.value.max_admissible < 1.3
    # the same guard protects the shoot entry point
    with pytest.raises(ScaleTooLargeError):
        shoot(spec)


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def test_scale_admissibility_catches_only_package_errors():
    spec = build_figure1_spec(0.1)
    u0 = spec.torus_point()
    assert _scale_is_admissible(spec, u0, 0.1)
    assert not _scale_is_admissible(spec, u0, 5.0)
    # a malformed state is a caller bug, not an inadmissible scale
    with pytest.raises(ValueError):
        _scale_is_admissible(spec, np.zeros(7), 0.1)


def test_shoot_requires_a_positive_scale():
    with pytest.raises(ConstraintViolationError):
        shoot(build_figure1_spec(0.0))


def _guard_gaps(spec, u):
    """(smallest wall clearance, smallest pair distance) of u's
    physical state."""
    p = spec.rescaled().to_physical(u).reshape(-1, 2)
    i, j = np.triu_indices(len(p), 1)
    return (min(spec.domain.boundary_clearance(x) for x in p),
            float(np.min(np.linalg.norm(p[i] - p[j], axis=1))))


@pytest.mark.parametrize("guard, spec, cause, k, shift", [
    ("boundary_margin", build_thomson3_spec(0.3), DomainViolationError,
     0, 3e-6),
    ("collision_tol", build_figure1_spec(0.1), CollisionError, 1, 1.5e-4),
], ids=["boundary_margin", "collision_tol"])
def test_newton_iterate_inside_the_user_thresholds_is_a_convergence_error(
        guard, spec, cause, k, shift):
    # the guess (and its flow, a rigid rotation) clears the threshold;
    # the first Newton step moves a vortex 6e-6 toward the wall (Thomson
    # ring at r = 0.3) or a pair 3e-4 closer (figure 1 at r = 0.1), so
    # it lands inside the threshold and Newton reports the step
    u0 = build_initial_guess(spec)
    threshold = _guard_gaps(spec, u0)[k] - shift
    with pytest.raises(ConvergenceError) as info:
        shoot(spec, settings=IntegratorSettings(**{guard: threshold}))
    assert "left the admissible set" in str(info.value)
    assert info.value.iterations == 1
    assert isinstance(info.value.__cause__, cause)
    assert np.array_equal(info.value.last_iterate, u0)


@pytest.mark.parametrize("check", ["closure", "symmetry"])
def test_closing_check_failures_report_the_newton_iterations(monkeypatch,
                                                             check):
    if check == "closure":
        raw = periodic.integrate

        def nudged(*args, **kwargs):
            traj = raw(*args, **kwargs)
            traj.states[-1] = traj.states[-1] + 1e-6
            return traj

        monkeypatch.setattr(periodic, "integrate", nudged)
    else:
        monkeypatch.setattr(periodic, "_symmetry_defect",
                            lambda spec, traj: 1.0)
    with pytest.raises(ConvergenceError) as info:
        shoot(build_thomson3_spec(0.1))
    assert {"closure": "does not close",
            "symmetry": "twisted symmetry"}[check] in str(info.value)
    # Newton converged (after one step) before the full period was checked
    assert 0 < info.value.iterations < periodic.MAX_SHOOT_ITERATIONS


def test_reference_shoot_reuses_the_last_jacobian_and_trajectory(
        monkeypatch):
    # residuals 4.3e-2, 6.6e-5, then superlinear: the last two iterates
    # (2.5e-9, 2.3e-14) are evaluated by the plain closing integration
    # and step on the second flow's Jacobian, and the accepted iterate's
    # integration is the orbit's trajectory, so none follows Newton
    calls = []
    raw_flow, raw_integrate = periodic.flow_with_jacobian, periodic.integrate

    def counted_flow(*args, **kwargs):
        calls.append(("flow_with_jacobian", None))
        return raw_flow(*args, **kwargs)

    def counted_integrate(*args, **kwargs):
        traj = raw_integrate(*args, **kwargs)
        calls.append(("integrate", traj))
        return traj

    monkeypatch.setattr(periodic, "flow_with_jacobian", counted_flow)
    monkeypatch.setattr(periodic, "integrate", counted_integrate)
    orbit = shoot(build_figure1_spec(0.1))
    assert orbit.iterations == 3
    assert [name for name, _ in calls] == ["flow_with_jacobian"] * 2 \
        + ["integrate"] * 2
    assert orbit.trajectory is calls[-1][1]
    assert orbit.residual <= periodic.SHOOT_TOL


def _traced_shoot(monkeypatch, spec, settings=None, guess=None):
    """shoot(spec, guess, settings) with each flow and closing
    integration recorded as (name, settings, accepted steps, result)."""
    calls, steps = [], [0]
    raw_step = dynamics._step_and_screen

    def counted_step(*args, **kwargs):
        steps[0] += 1
        return raw_step(*args, **kwargs)

    def traced(name, raw):
        def call(*args):
            steps[0] = 0
            out = raw(*args)
            calls.append((name, args[3], steps[0], out))
            return out
        return call

    monkeypatch.setattr(dynamics, "_step_and_screen", counted_step)
    monkeypatch.setattr(periodic, "flow_with_jacobian",
                        traced("flow", periodic.flow_with_jacobian))
    monkeypatch.setattr(periodic, "integrate",
                        traced("integrate", periodic.integrate))
    return shoot(spec, guess, settings), calls


@pytest.mark.parametrize("start", ["torus", "converged"])
def test_only_the_closing_integration_certifies_convergence(
        monkeypatch, thomson3_orbit, start):
    # Thomson-3 from the torus point: the second flow reads 3.8e-10,
    # above SHOOT_TOL, and its Jacobian makes the step; the closing
    # integration of the next iterate converges.  From the converged
    # orbit: the flows' own fixed point is 3.8e-10 away, and the third
    # flow, reading below SHOOT_TOL, hands over to the integration.
    # Either way the orbit's residual is read from its trajectory
    guess, names = {
        "torus": (None, ["flow", "flow", "integrate"]),
        "converged": (thomson3_orbit[0].u0, ["flow"] * 3 + ["integrate"]),
    }[start]
    orbit, calls = _traced_shoot(monkeypatch, build_thomson3_spec(0.1),
                                 guess=guess)
    assert [name for name, *_ in calls] == names
    assert orbit.trajectory is calls[-1][3]
    S = permutation_matrix(orbit.spec.sigma)
    assert orbit.residual == np.linalg.norm(
        S @ orbit.trajectory.sample(TWO_PI) - orbit.u0)
    assert orbit.residual <= periodic.SHOOT_TOL


def test_flows_run_at_a_residual_scaled_tolerance(monkeypatch):
    # both figure-1 flows see rho >= 6.6e-5, so FORCING * rho^2 is
    # capped at 1e-9; the closing integrations keep the default 1e-13.
    # At 1e-13 throughout the flows take 58 + 59 accepted steps
    orbit, calls = _traced_shoot(monkeypatch, build_figure1_spec(0.1))
    flows = [(s, n) for name, s, n, _ in calls if name == "flow"]
    assert [(s.rtol, s.atol) for s, _ in flows] == [(1e-9, 1e-9)] * 2
    assert all(s.rtol == s.atol == 1e-13
               for name, s, *_ in calls if name == "integrate")
    assert sum(n for _, n in flows) <= 45
    assert orbit.iterations == 3
    assert orbit.residual <= periodic.SHOOT_TOL


def test_flow_tolerance_never_falls_below_the_settings(monkeypatch):
    orbit, calls = _traced_shoot(monkeypatch, build_figure1_spec(0.1),
                                 IntegratorSettings(rtol=1e-11, atol=1e-11))
    tols = [tol for name, s, *_ in calls if name == "flow"
            for tol in (s.rtol, s.atol)]
    assert tols and all(1e-11 <= tol <= 1e-9 for tol in tols)
    assert orbit.residual <= periodic.SHOOT_TOL


def test_shooting_jacobian_nulls_are_the_time_shift_and_the_rotation(
        figure1_orbit):
    # J = S W - I at the reference orbit.  The time shift f(u0) and the
    # rotation about the disc center, perp(u0 + anchor_hat / r) in
    # rescaled coordinates, are exact null directions of J that also
    # lie in its range (Hamiltonian Jordan blocks), so appending them as
    # rows leaves a well-conditioned matrix
    orbit, _ = figure1_orbit
    spec, u0 = orbit.spec, orbit.u0
    rs = spec.rescaled()
    _, W = flow_with_jacobian(rs, u0, TWO_PI)
    J = permutation_matrix(spec.sigma) @ W - np.eye(u0.size)
    f_hat = rs.vector_field(u0)
    rot_hat = perp(u0 + rs.anchor_hat / spec.scale)
    nulls = np.array([v / np.linalg.norm(v) for v in (f_hat, rot_hat)])
    U, s, _ = np.linalg.svd(J)
    assert np.all(np.linalg.norm(nulls @ J.T, axis=1) <= 1e-9 * s[0])
    assert np.all(np.abs(nulls @ U[:, -2:]) <= 1e-9)
    bordered = np.linalg.svd(np.vstack([J, nulls]), compute_uv=False)
    assert bordered[-1] / bordered[0] >= 1e-6


def test_reference_orbit_meets_every_tolerance(figure1_orbit):
    orbit, _ = figure1_orbit
    assert orbit.residual <= 1e-10
    assert orbit.closure <= 1e-9
    assert orbit.energy_drift <= 1e-9
    assert orbit.iterations <= 50
    assert orbit.scale == 0.1
    assert orbit.rescaled_period == TWO_PI
    assert orbit.u0.shape == (8,)
    assert orbit.distance_to_m > 0.0


def test_reference_orbit_period_is_exactly_tau_r_squared(figure1_orbit):
    orbit, _ = figure1_orbit
    assert orbit.period == orbit.rescaled_period * orbit.scale**2


def test_reference_orbit_winds_once_per_cluster_with_opposite_signs(
        figure1_orbit):
    orbit, _ = figure1_orbit
    assert cluster_winding_numbers(orbit) == [-1, 1]


def test_reference_orbit_matches_the_tracked_golden_orbit(figure1_orbit):
    orbit, _ = figure1_orbit
    with open(GOLDEN_ORBIT) as fh:
        golden = json.load(fh)
    assert orbit.period == pytest.approx(golden["period"], rel=1e-12)
    assert abs(orbit.distance_to_m - golden["distance_to_m"]) <= 1e-8
    # a periodic orbit is defined modulo a time shift: compare the golden
    # u0 with the nearest point of this orbit over the full period, the
    # best of a grid refined by a bounded search on the offset from it
    tau = orbit.rescaled_period
    traj = orbit.trajectory
    grid = np.linspace(0.0, tau, 4096, endpoint=False)
    k = int(np.argmin(np.max(np.abs(traj.sample(grid) - golden["u0"]),
                             axis=1)))
    h = tau / grid.size

    def gap(ds):
        return np.max(np.abs(traj.sample((grid[k] + ds) % tau) - golden["u0"]))

    best = minimize_scalar(gap, bounds=(-h, h), method="bounded",
                           options={"xatol": 1e-14})
    assert best.fun <= 1e-9
    # the tracked file records the 4 iterations of the unbordered shoot
    assert orbit.iterations == 3
    # each cluster's rigid rotation turns -omega * tau / (2 pi) times
    spec = golden["spec"]
    expected = [-round(c["angular_velocity"] * spec["rescaled_period"] / TWO_PI)
                for c in spec["clusters"] if not c["trivial"]]
    assert cluster_winding_numbers(orbit) == expected


def test_reference_orbit_closes_in_physical_coordinates(figure1_orbit):
    orbit, _ = figure1_orbit
    system = orbit.spec.system()
    z0 = orbit.physical_initial_state()
    traj = integrate(system, z0, (0.0, orbit.period))
    assert np.linalg.norm(traj.final_state - z0) <= 1e-8


def test_choreography_orbit_respects_the_twisted_symmetry(thomson3_orbit):
    orbit, _ = thomson3_orbit
    assert orbit.residual <= 1e-10
    assert orbit.symmetry_defect <= 1e-8
    assert orbit.spec.order == 3
    assert orbit.rescaled_period == pytest.approx(3 * TWO_PI)


def test_orbit_serializes_to_json(figure1_orbit):
    orbit, _ = figure1_orbit
    data = json.loads(json.dumps(orbit.as_dict()))
    assert data["scale"] == 0.1
    assert len(data["u0"]) == 8
    assert data["residual"] <= 1e-10
    assert data["spec"]["phases"] == [0.0, 0.0]
    assert len(data["spec"]["clusters"]) == 2
    assert data["spec"]["domain"] == "unit-disc"


def test_orbit_exports_rescaled_and_physical_trajectories(figure1_orbit):
    orbit, _ = figure1_orbit
    rescaled, physical = io.StringIO(), io.StringIO()
    orbit.trajectory.to_csv(rescaled)
    orbit.physical_trajectory_csv(physical)
    r_lines = rescaled.getvalue().strip().split("\n")
    p_lines = physical.getvalue().strip().split("\n")
    assert r_lines[0] == p_lines[0] == "t,x1,y1,x2,y2,x3,y3,x4,y4,H"
    first = np.array([float(c) for c in p_lines[1].split(",")])
    assert first[0] == 0.0
    assert np.array_equal(first[1:9], orbit.physical_initial_state())
    last = np.array([float(c) for c in p_lines[-1].split(",")])
    assert last[0] == pytest.approx(orbit.period)
    # the batch map gives the floats of the row-by-row map
    rs = orbit.spec.rescaled(orbit.scale)
    _, states, _ = orbit.physical_arrays()
    assert np.array_equal(states, [rs.to_physical(u)
                                   for u in orbit.trajectory.states])


def test_physical_energy_column_matches_the_physical_hamiltonian(
        figure1_orbit):
    orbit, _ = figure1_orbit
    system = orbit.spec.system()
    _, states, energies = orbit.physical_arrays()
    direct = np.array([system.hamiltonian(z) for z in states])
    scale = max(1.0, np.max(np.abs(direct)))
    assert np.max(np.abs(energies - direct)) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# distance to the phase torus
# ---------------------------------------------------------------------------

def test_exact_torus_samples_have_zero_distance():
    spec = build_figure1_spec(0.1)
    ts = np.linspace(0.0, spec.tau, 256, endpoint=False)
    assert distance_to_M(spec, spec.torus_samples(ts)) <= 1e-12


def test_phase_search_recovers_a_shifted_torus_member():
    spec = build_figure1_spec(0.1)
    ts = np.linspace(0.0, spec.tau, 256, endpoint=False)
    # at (0.4, 2.2) a fit through |u|^2 + |z|^2 - 2 hypot(P, Q) cancels
    # to a roundoff floor of 4e-8; (0.7, 1.9) happens to cancel to <= 0
    for phases in ([0.7, 1.9], [0.4, 2.2]):
        shifted = spec.torus_samples(ts, phases=phases)
        assert distance_to_M(spec, shifted) <= 1e-12


def test_off_torus_samples_have_positive_distance():
    spec = build_figure1_spec(0.1)
    ts = np.linspace(0.0, spec.tau, 256, endpoint=False)
    samples = spec.torus_samples(ts)
    samples[:, 0] += 0.01 * np.sin(TWO_PI * ts / spec.tau)
    assert distance_to_M(spec, samples) > 1e-4


@pytest.mark.parametrize("amplitude", [1e-3, 5e-2])
def test_distance_matches_a_brute_force_phase_search(amplitude):
    # smooth periodic perturbation of a shifted torus member
    spec = build_figure1_spec(0.1)
    g = 256
    ts = np.linspace(0.0, spec.tau, g, endpoint=False)
    waves = np.arange(1, 4)[:, None] * (TWO_PI * ts / spec.tau)
    cos_c, sin_c = np.random.default_rng(11).normal(size=(2, 3, 2 * spec.n))
    wobble = np.cos(waves).T @ cos_c + np.sin(waves).T @ sin_c
    samples = spec.torus_samples(ts, phases=[0.7, 1.9]) + amplitude * wobble
    du = periodic._spectral_derivative(samples, spec.tau)

    def mismatch(k, theta):
        # squared discrete H^1 norm of the cluster-k block, by direct norm
        block = slice(4 * k, 4 * k + 4)  # figure 1: two pairs
        z = spec.clusters[k].solution(ts + theta)
        dz = periodic._spectral_derivative(z, spec.tau)
        return spec.tau / g * (np.sum((samples[:, block] - z)**2)
                               + np.sum((du[:, block] - dz)**2))

    total = 0.0
    for k, eq in enumerate(spec.clusters):
        coarse = np.linspace(0.0, eq.period, 64, endpoint=False)
        best = coarse[np.argmin([mismatch(k, t) for t in coarse])]
        h = eq.period / 64
        res = minimize_scalar(lambda t: mismatch(k, t), method="bounded",
                              bounds=(best - h, best + h),
                              options={"xatol": 1e-12})
        total += res.fun
    assert total > 0.0
    assert abs(distance_to_M(spec, samples) - np.sqrt(total)) <= 1e-9


def test_torus_point_matches_the_first_torus_sample():
    spec = build_figure1_spec(0.1, phases=(0.4, 2.2))
    ts = np.array([0.0])
    assert np.allclose(spec.torus_point(), spec.torus_samples(ts)[0],
                       atol=1e-14)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_continuation_distances_decrease_with_the_scale(figure1_continuation):
    orbits, _ = figure1_continuation
    assert [o.scale for o in orbits] == [0.2, 0.1, 0.05]
    dists = [o.distance_to_m for o in orbits]
    assert dists[0] > dists[1] > dists[2] > 0.0


def test_single_entry_continuation_equals_a_direct_shoot(figure1_orbit):
    orbit, _ = figure1_orbit
    only = continue_in_r(build_figure1_spec(0.1), [0.1])
    assert len(only) == 1
    assert np.allclose(only[0].u0, orbit.u0, atol=1e-12)
    assert abs(only[0].distance_to_m - orbit.distance_to_m) <= 1e-12


def test_continuation_rejects_malformed_scale_lists():
    spec = build_figure1_spec(0.1)
    for bad in ([], [0.1, 0.2], [0.1, -0.05], [0.1, 0.1]):
        with pytest.raises(ConstraintViolationError):
            continue_in_r(spec, bad)


def test_continuation_fails_fast_on_an_inadmissible_leading_scale():
    with pytest.raises(ScaleTooLargeError):
        continue_in_r(build_figure1_spec(1.5), [1.5, 0.1])


def test_uneven_pair_continuation_stays_on_the_branch(disc):
    # l = 1 family with an uneven pair.  By the superposition u(r) =
    # theta*Z + O(r^2), so the distance to M over r^2 stays put; an
    # orbit turned about the disc center would read a growing ratio
    anchors = evaluate_point((-2.0, 2.0), disc, [[MU, 0.0], [-MU, 0.0]])
    spec = SuperpositionSpec(anchors,
                             (make_trivial(-2.0), make_pair(0.25, 1.75)),
                             disc, (0.0,), 0.15)
    orbits = continue_in_r(spec, [0.15, 0.1, 0.075, 0.05])

    gaps = [float(np.linalg.norm(a.u0 - b.u0))
            for a, b in zip(orbits, orbits[1:])]
    coarse = float(np.linalg.norm(orbits[0].u0 - orbits[-1].u0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert max(gaps) < coarse

    ratios = [o.distance_to_m / o.scale**2 for o in orbits]
    assert all(abs(q - ratios[0]) <= 0.1 * ratios[0] for q in ratios), ratios


def test_second_figure1_class_continues_down_to_r_0_025():
    # the pi/2 start at r = 0.025, where the relative-phase singular
    # value of S W - I is 2.6e-7 of the largest; every orbit stays on
    # the branch, d/r^2 near 2.2
    spec = build_figure1_spec(0.05, phases=(np.pi / 2, 0.0))
    orbits = continue_in_r(spec, [0.05, 0.035, 0.025])
    for orbit in orbits:
        assert orbit.residual <= 1e-10
        assert abs(orbit.distance_to_m / orbit.scale**2 - 2.2) <= 0.22


# ---------------------------------------------------------------------------
# phase scans
# ---------------------------------------------------------------------------

def test_phase_scan_finds_multiple_orbit_classes(figure1_scan):
    # four starts on [0, pi), the fundamental domain of the first pair's
    # phase; modulo relabelling, figure 1 has two classes on the branch
    result, _ = figure1_scan
    assert result.attempted == 4
    assert result.distinct_count == 2
    assert result.distinct_count == len(result.orbits)
    assert result.failures == []
    for orbit in result.orbits:
        assert orbit.residual <= 1e-10
        assert abs(orbit.distance_to_m / orbit.scale**2 - 2.2) <= 0.22


def test_scan_classes_are_pairwise_separated(figure1_scan):
    result, _ = figure1_scan
    orbits = result.orbits
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            d = _orbit_distance(orbits[i], orbits[j])
            assert d > IDENTIFICATION_TOL, (i, j, d)


def test_time_shifted_replicas_identify_as_the_same_class(figure1_orbit,
                                                          thomson3_orbit):
    # late shifts too: the search runs on the offset from the best grid
    # time, so its tolerance does not grow with the shift
    for (orbit, _), shift in ((figure1_orbit, 1.234), (figure1_orbit, 6.0),
                              (thomson3_orbit, 15.0)):
        replica = dataclasses.replace(orbit,
                                      u0=orbit.trajectory.sample(shift))
        assert _orbit_distance(orbit, replica) <= 1e-10, shift
    # turned about the disc center, at -anchor_hat / r in rescaled
    # coordinates, a replica is the same class; about the origin it is not
    orbit, _ = figure1_orbit
    c = orbit.spec.rescaled().anchor_hat / orbit.scale
    replica = orbit.trajectory.sample(1.234)
    turned = dataclasses.replace(orbit, u0=rotate_all(replica + c, 0.5) - c)
    assert _orbit_distance(orbit, turned) < IDENTIFICATION_TOL
    off_center = dataclasses.replace(orbit, u0=rotate_all(replica, 0.5))
    assert _orbit_distance(orbit, off_center) > 0.1


def test_relabelled_replicas_identify_as_the_same_class(figure1_orbit):
    # swapping the members of either pair, or both, is a symmetry of the
    # equations; the swapped orbit is the same class
    orbit, _ = figure1_orbit
    replica = orbit.trajectory.sample(1.234)
    for pi in [(1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]:
        swapped = dataclasses.replace(
            orbit, u0=permutation_matrix(pi) @ replica)
        assert _orbit_distance(orbit, swapped) <= 1e-10, pi


def test_single_phase_scan_returns_one_orbit():
    result = scan_phases(build_thomson3_spec(0.1))
    assert result.attempted == 1
    assert result.distinct_count == 1
    assert result.failures == []


def test_single_phase_scan_records_a_failed_shot(monkeypatch):
    def stall(*args, **kwargs):
        raise ConvergenceError("stalled", iterations=3, residual=1.0)

    monkeypatch.setattr(periodic, "shoot", stall)
    result = scan_phases(build_thomson3_spec(0.1))
    assert result.attempted == 1
    assert result.orbits == []
    assert result.failures == [((0.0,), "ConvergenceError: stalled")]


# ---------------------------------------------------------------------------
# winding numbers
# ---------------------------------------------------------------------------

def test_winding_number_on_synthetic_loops():
    ts = np.linspace(0.0, TWO_PI, 201)
    ccw = np.column_stack([np.cos(ts), np.sin(ts)])
    cw = np.column_stack([np.cos(ts), -np.sin(ts)])
    double = np.column_stack([np.cos(2 * ts), np.sin(2 * ts)])
    assert winding_number(ccw) == 1
    assert winding_number(cw) == -1
    assert winding_number(double) == 2
