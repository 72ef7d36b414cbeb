"""Superposed periodic orbits: guesses, shooting, continuation, scans."""

import dataclasses
import json
import os

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from vortexlab import (BoundaryEventError, CollisionError,
                       ConstraintViolationError,
                       ConvergenceError, DomainViolationError,
                       IntegratorSettings, PerturbedDisc, ScaleTooLargeError,
                       RescaledSystem, SuperpositionSpec, VortexSystem,
                       build_initial_guess, cluster_winding_numbers,
                       continue_in_r, distance_to_M, evaluate_point,
                       integrate, make_equilateral, make_pair, make_trivial,
                       permutation_matrix, rotate_all, scan_phases, shoot,
                       winding_number)
from vortexlab import dynamics, periodic, systems
from vortexlab.systems import FlowSystem
from vortexlab.periodic import (IDENTIFICATION_TOL, _critical_phases,
                                _orbit_distance, _scale_is_admissible)

from conftest import (MU, build_figure1_spec, build_perturbed_disc_spec,
                      build_three_anchor_spec, build_thomson3_spec)

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


def test_anchors_must_be_critical_on_the_spec_domain(disc):
    # the disc's dipole is critical on the disc (gradient norm below
    # 1e-10) but not on the perturbed disc, where its gradient norm is
    # 0.11; the perturbed disc's own dipole builds
    anchors = evaluate_point((-2.0, 2.0), disc, [[MU, 0.0], [-MU, 0.0]])
    assert anchors.gradient_norm <= 1e-10
    clusters = (make_pair(-1.0, -1.0), make_pair(1.0, 1.0))
    with pytest.raises(ConstraintViolationError, match="perturbed"):
        SuperpositionSpec(anchors, clusters, PerturbedDisc(), (0.0, 0.0), 0.1)
    spec = build_perturbed_disc_spec(0.05)
    assert isinstance(spec.domain, PerturbedDisc)


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
    physical = spec.rescaled.to_physical(u0).reshape(4, 2)
    spec.system.validate_state(physical.reshape(-1))
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


def test_a_spec_builds_its_systems_once(monkeypatch, figure1_orbit):
    # a spec fixes one rescaled system, formed at construction; shooting,
    # the physical state and arrays, the class distance, the critical
    # phases and the scale bisection read it, and build no other
    spec, scan_spec = build_figure1_spec(0.1), build_three_anchor_spec(0.05)
    too_large, built = build_figure1_spec(1.5), []
    for cls in (RescaledSystem, VortexSystem):
        def counted(self, raw=cls.__post_init__, name=cls.__name__):
            built.append(name)
            raw(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    orbit = shoot(spec)
    orbit.physical_initial_state()
    orbit.physical_arrays()
    _orbit_distance(orbit, figure1_orbit[0])
    _critical_phases(scan_spec)
    with pytest.raises(ScaleTooLargeError):
        build_initial_guess(too_large)
    assert built == []
    assert orbit.spec.system is orbit.spec.rescaled.base


@pytest.mark.parametrize("change", [{"scale": 0.05},
                                    {"phases": (np.pi / 2, 0.0)}],
                         ids=["scale", "phases"])
def test_a_replaced_spec_builds_its_own_matching_systems(change):
    spec = build_figure1_spec(0.1)
    new = spec.replace(**change)
    rs = new.rescaled
    assert rs is not spec.rescaled and new.system is rs.base
    assert rs.scale == new.scale
    assert np.array_equal(rs.anchor, new.stationary.positions)
    assert rs.omega == tuple(eq.angular_velocity for eq in new.clusters)
    assert (rs.base.strengths, rs.base.cluster_sizes, rs.domain) == (
        new.strengths, new.cluster_sizes, new.domain)


def _guard_gaps(spec, u):
    """(smallest wall clearance, smallest pair distance) of u's
    physical state."""
    p = spec.rescaled.to_physical(u).reshape(-1, 2)
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
    # the guess (and its torus loop, a rigid rotation) clears the
    # threshold; the first collocation iterate has a sample with a
    # vortex 6e-6 closer to the wall (Thomson ring at r = 0.3) or a pair
    # 3.3e-4 closer (figure 1 at r = 0.1), so it lands inside the
    # threshold and Newton reports the step
    u0 = build_initial_guess(spec)
    threshold = _guard_gaps(spec, u0)[k] - shift
    with pytest.raises(ConvergenceError) as info:
        shoot(spec, settings=IntegratorSettings(**{guard: threshold}))
    assert "left the admissible set" in str(info.value)
    assert info.value.iterations == 1
    assert isinstance(info.value.__cause__, cause)
    assert np.array_equal(info.value.last_iterate, u0)


@pytest.mark.parametrize("guard, spec, cause, threshold", [
    ("boundary_margin", build_thomson3_spec(0.3), DomainViolationError, 0.84),
    ("collision_tol", build_figure1_spec(0.1), CollisionError, 0.09),
], ids=["boundary_margin", "collision_tol"])
def test_a_start_inside_the_user_thresholds_is_the_guards_own_error(
        guard, spec, cause, threshold):
    # the guess clears the default thresholds, but not the user's: the
    # Thomson ring at r = 0.3 has a vortex 0.831 from the wall, figure 1
    # at r = 0.1 a pair 0.0798 apart.  The start loop is screened at the
    # user's thresholds before any Newton step, so the guard's own error
    # is raised at its first sample, as a start state is refused in
    # `integrate`, not a ConvergenceError for a Newton step
    assert _guard_gaps(spec, build_initial_guess(spec))[
        guard == "collision_tol"] < threshold
    with pytest.raises(cause) as info:
        shoot(spec, settings=IntegratorSettings(**{guard: threshold}))
    assert info.value.time == 0.0


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
        # the twisted residual, at t = 0, passes; the defect does not
        monkeypatch.setattr(periodic, "_symmetry_defects",
                            lambda spec, traj: np.array([0.0, 1.0]))
    with pytest.raises(ConvergenceError) as info:
        shoot(build_thomson3_spec(0.1))
    assert {"closure": "does not close",
            "symmetry": "twisted symmetry"}[check] in str(info.value)
    # Newton converged (after one step) before the full period was checked
    assert 0 < info.value.iterations < periodic.MAX_SHOOT_ITERATIONS


def _integrations(monkeypatch) -> list:
    """The list each later periodic.integrate is recorded in, as (name,
    settings, accepted steps, result): the certificate's integration,
    which the orbit does not keep."""
    calls, steps = [], [0]
    raw_step, raw = dynamics._step_and_screen, periodic.integrate

    def counted_step(*args, **kwargs):
        steps[0] += 1
        return raw_step(*args, **kwargs)

    def traced(*args):
        steps[0] = 0
        out = raw(*args)
        calls.append(("integrate", args[3], steps[0], out))
        return out

    monkeypatch.setattr(dynamics, "_step_and_screen", counted_step)
    monkeypatch.setattr(periodic, "integrate", traced)
    return calls


def _traced_shoot(monkeypatch, spec, settings=None, guess=None):
    """(orbit, calls, screens) of shoot(spec, guess, settings): each
    integration recorded in calls (_integrations), and each screening of
    COLLOCATION_SAMPLES[0] states from t = 0 in screens as (states,
    times, collision_tol, boundary_margin)."""
    calls, screens = _integrations(monkeypatch), []
    raw_screen = FlowSystem.screen

    def recorded_screen(self, ys, times, *tols):
        # a certifying step's rows start after t = 0, a collocation's at it
        if len(ys) == periodic.COLLOCATION_SAMPLES[0] and times[0] == 0.0:
            screens.append((np.array(ys), np.array(times), *tols))
        return raw_screen(self, ys, times, *tols)

    monkeypatch.setattr(FlowSystem, "screen", recorded_screen)
    return shoot(spec, guess, settings), calls, screens


TIER1_ORBITS = {
    "figure1": lambda: build_figure1_spec(0.1),
    "figure1-pi/2": lambda: build_figure1_spec(0.1, phases=(np.pi / 2, 0.0)),
    "thomson3": lambda: build_thomson3_spec(0.1),
    "perturbed-disc": lambda: build_perturbed_disc_spec(0.05),
    **{f"three-anchor-{a}-{b}": lambda a=a, b=b: build_three_anchor_spec(
        0.05).replace(phases=(a * np.pi / 2, b * np.pi / 2, 0.0))
       for a in (0, 1) for b in (0, 1)},
}


@pytest.mark.parametrize("case", list(TIER1_ORBITS))
def test_tier1_orbits_make_no_flow_and_one_integration(monkeypatch, case):
    # collocation from the torus: no variational flow, at most 4 Newton
    # evaluations (figure 1 reads 3.8e-2, 2.2e-4, 1.3e-9, 3.0e-15), and
    # one integration at the settings certifies the loop.  Its states
    # stay on the loop: the loop deviation, read in the loop's frame, is
    # their lab distance from the orbit's states to roundoff (6.4e-14 on
    # figure 1, 1.5e-13 on its pi/2 class, 4.2e-14 on Thomson-3, at most
    # 2.8e-14 on the others).  The start loop's samples and each new
    # iterate's are screened once, in the lab frame, at the user's guard
    # thresholds
    settings = IntegratorSettings(collision_tol=2e-8, boundary_margin=2e-3)
    orbit, calls, screens = _traced_shoot(monkeypatch, TIER1_ORBITS[case](),
                                          settings)
    assert [(name, s) for name, s, *_ in calls] == [("integrate", settings)]
    traj = calls[0][3]
    assert orbit.closure == np.linalg.norm(traj.final_state - orbit.u0)
    grid = np.linspace(0.0, orbit.spec.tau, periodic.GRID_SAMPLES,
                       endpoint=False)
    gaps = np.linalg.norm(traj.sample(grid) - orbit.states(grid), axis=1)
    assert orbit.loop_deviation == pytest.approx(gaps.max(), rel=0,
                                                 abs=1e-15)
    assert orbit.loop_deviation <= periodic.CLOSURE_TOL
    assert orbit.residual <= periodic.SHOOT_TOL
    assert len(orbit.residuals) <= 4
    assert orbit.iterations == len(orbit.residuals) - 1
    if case == "figure1":
        assert orbit.iterations == 3
    K = periodic.COLLOCATION_SAMPLES[0]
    assert len(screens) == orbit.iterations + 1
    for states, times, collision_tol, boundary_margin in screens:
        assert states.shape == (K, 2 * orbit.spec.n)
        assert np.array_equal(times, np.linspace(0.0, orbit.spec.tau, K,
                                                 endpoint=False))
        assert (collision_tol, boundary_margin) == (2e-8, 2e-3)
    # the last iterate's sample at t = 0, where frame and lab agree
    assert np.array_equal(screens[-1][0][0], orbit.u0)


def test_each_collocation_evaluation_is_one_order_2_assembly(monkeypatch):
    # the K samples of a Newton evaluation share one field-and-Jacobian
    # assembly, and the certifying integration makes none at order 2:
    # figure 1 at r = 0.1 makes 4, where one call per sample made 100.
    # The spec is built first: evaluating its anchors and certifying its
    # clusters makes 5 of its own
    spec, orders = build_figure1_spec(0.1), []
    raw = systems.assemble_interaction

    def counting_assemble(*args, order=2, **kwargs):
        orders.append(order)
        return raw(*args, order=order, **kwargs)

    monkeypatch.setattr(systems, "assemble_interaction", counting_assemble)
    orbit = shoot(spec)
    assert orders.count(2) == len(orbit.residuals) == 4


@pytest.mark.parametrize("phase", [0.0, np.pi / 2], ids=["0", "pi/2"])
def test_the_finer_collocation_starts_from_the_coarser_loop(monkeypatch,
                                                            phase):
    # at r = 0.2 the 25-sample loop's highest mode is 2e-11, so 49
    # samples follow; started from the 25-sample loop's trigonometric
    # interpolant, their Newton takes one step (3.2e-10, then 6.8e-15 at
    # phase 0), where a restart from the torus took three
    solves, raw = [], periodic.newton

    def recorded(fun, x0, *args, **kwargs):
        x, residuals = raw(fun, x0, *args, **kwargs)
        solves.append((x0.size, residuals))
        return x, residuals

    monkeypatch.setattr(periodic, "newton", recorded)
    orbit = shoot(build_figure1_spec(0.2, phases=(phase, 0.0)))
    n = 2 * orbit.spec.n
    assert [size for size, _ in solves] == [
        K * n for K in periodic.COLLOCATION_SAMPLES]
    assert tuple(solves[-1][1]) == orbit.residuals
    assert orbit.iterations == 1
    assert orbit.residuals[0] <= 1e-9
    assert orbit.residual <= periodic.SHOOT_TOL
    # d/r^2 of either class at r = 0.2, as the continuations read it
    ratio = orbit.distance_to_m / orbit.scale**2
    assert abs(ratio - 2.2) <= 0.22
    assert abs(ratio - {0.0: 2.2056, np.pi / 2: 2.2174}[phase]) <= 1e-4


@pytest.mark.parametrize("case", ["figure1", "thomson3"])
def test_a_certified_guess_is_its_own_orbit(monkeypatch, figure1_orbit,
                                            thomson3_orbit, case):
    # the converged orbit as its own guess: its collocated loop starts
    # the collocation at its own residual (figure 1 at 3.4e-15, Thomson-3
    # at 4.1e-15), so no Newton step is taken, and one integration
    # certifies the loop's u0, the converged u0 bit for bit
    converged = {"figure1": figure1_orbit, "thomson3": thomson3_orbit}[case][0]
    orbit, calls, _ = _traced_shoot(monkeypatch, converged.spec,
                                    guess=converged)
    assert [name for name, *_ in calls] == ["integrate"]
    assert orbit.iterations == 0
    assert np.array_equal(orbit.u0, converged.u0)
    assert orbit.residual <= periodic.SHOOT_TOL


def test_a_finer_certified_guess_is_solved_again_at_the_first_count(
        monkeypatch, figure1_continuation):
    # at r = 0.2 the figure-1 loop has 49 samples.  Given back as its own
    # guess it is resampled at 25 and solved there again, and the
    # 49-sample Newton starts from that loop: one step, and u0 moves by
    # 2e-14
    converged = figure1_continuation[0][0]
    assert len(converged.loop) == periodic.COLLOCATION_SAMPLES[1]
    orbit, calls, _ = _traced_shoot(monkeypatch, converged.spec,
                                    guess=converged)
    assert [name for name, *_ in calls] == ["integrate"]
    assert orbit.iterations <= 1
    assert np.abs(orbit.u0 - converged.u0).max() <= 1e-13
    assert orbit.residual <= periodic.SHOOT_TOL


class _Started(Exception):
    """Raised in place of the collocation's Newton, carrying its start."""


def _first_iterate(monkeypatch, spec, guess=None) -> np.ndarray:
    """Newton's first iterate in shoot(spec, guess), as (K, 2N) samples;
    no Newton step is taken."""
    def started(fun, x0, *args, **kwargs):
        raise _Started(x0.copy())

    monkeypatch.setattr(periodic, "newton", started)
    with pytest.raises(_Started) as info:
        shoot(spec, guess)
    return info.value.args[0].reshape(-1, 2 * spec.n)


@pytest.mark.parametrize("build, scale", [
    (build_figure1_spec, 0.1), (build_thomson3_spec, 0.1),
    (build_three_anchor_spec, 0.05)], ids=["figure1", "thomson3",
                                           "three-anchor"])
def test_the_torus_start_is_the_torus_point_at_every_sample(monkeypatch,
                                                            build, scale):
    # a point of M stands still in the clusters' co-rotating frames, so
    # the collocation starts from the torus point itself at every sample,
    # bit for bit.  The lab torus turned into the frames is up to 1.1e-16
    # away from it (5.6e-17 on figure 1 and at the three-anchor phase
    # origin)
    spec = build(scale)
    K = periodic.COLLOCATION_SAMPLES[0]
    assert np.array_equal(_first_iterate(monkeypatch, spec),
                          np.tile(spec.torus_point(), (K, 1)))


def test_an_orbit_guess_starts_from_its_loop_rescaled_about_the_torus_point(
        monkeypatch, figure1_orbit, figure1_continuation):
    # the guess's loop deviates from the torus point by O(r^2), so its
    # deviation is scaled by (r / r_orbit)^2 in the frames; a loop of
    # another sample count starts the collocation from its interpolant
    assert [len(figure1_orbit[0].loop), len(figure1_continuation[0][0].loop)
            ] == list(periodic.COLLOCATION_SAMPLES)
    for guess, r in ((figure1_orbit[0], 0.07),
                     (figure1_continuation[0][0], 0.1)):
        spec = guess.spec.replace(scale=r)
        p = spec.torus_point()
        loop = p + (spec.scale / guess.scale)**2 * (guess.loop - p)
        K = periodic.COLLOCATION_SAMPLES[0]
        if len(loop) != K:
            loop = periodic._trigonometric_interpolant(loop, spec.tau)(
                np.linspace(0.0, spec.tau, K, endpoint=False))
        assert np.array_equal(_first_iterate(monkeypatch, spec, guess), loop)


def test_shoot_refuses_a_guess_of_another_problem(monkeypatch, figure1_orbit):
    # only None or an orbit of the same problem at some scale starts the
    # collocation.  Unchecked, figure 1's orbit as Thomson-3's guess
    # failed in Trajectory.sample with a ValueError, and the phase-0
    # orbit at r = 0.1 as the pi/2 class's guess at r = 0.05 converged
    # off the branch, at d/r^2 = 23.5.  A bare state is refused too, not
    # silently replaced by the torus
    def forbidden(*args, **kwargs):
        raise AssertionError("integrated or collocated a refused guess")

    orbit = figure1_orbit[0]
    for name in ("integrate", "newton"):
        monkeypatch.setattr(periodic, name, forbidden)
    for spec, guess in (
            (build_thomson3_spec(0.1), orbit),
            (build_figure1_spec(0.05, phases=(np.pi / 2, 0.0)), orbit),
            (orbit.spec, orbit.u0)):
        with pytest.raises(ConstraintViolationError, match="same problem"):
            shoot(spec, guess)


@pytest.mark.parametrize("start", ["torus", "converged"])
def test_only_the_closing_integration_certifies_convergence(
        monkeypatch, thomson3_orbit, start):
    # Thomson-3 from the torus point: collocation (residuals 1.8e-7,
    # 4.6e-15), then one integration of its loop's u0 certifies it.  From
    # the converged orbit the collocation takes no step, and the one
    # integration certifies its u0.  Either way the orbit's residual is
    # read from that integration, |S_sigma phi_{2pi}(u0) - u0| with u0
    # its dense output at t = 0, as the symmetry defect reads it
    guess = {"torus": None, "converged": thomson3_orbit[0]}[start]
    orbit, calls, _ = _traced_shoot(monkeypatch, build_thomson3_spec(0.1),
                                    guess=guess)
    assert [name for name, *_ in calls] == ["integrate"]
    assert orbit.iterations <= 1
    S = permutation_matrix(orbit.spec.sigma)
    start, period = calls[-1][3].sample(np.array([0.0, TWO_PI]))
    assert np.array_equal(start, orbit.u0)
    assert orbit.residual == np.linalg.norm([period @ S.T - start], axis=1)[0]
    assert orbit.residual <= periodic.SHOOT_TOL


@pytest.mark.parametrize("case", ["figure1", "thomson3"])
def test_corotating_frames_cut_the_accepted_steps(monkeypatch, case):
    # in each cluster's co-rotating frame DOP853 resolves only the O(r^2)
    # motion on top of the rigid rotation, and along the collocated loop
    # only the deviation from it.  Accepted steps of the certifying
    # integration at 1e-13: 47 for figure 1 and 49 for Thomson-3 in the
    # lab frame, 32 and 5 in the co-rotating frames, 5 and 4 along the loop
    build = {"figure1": build_figure1_spec, "thomson3": build_thomson3_spec}
    orbit, calls, _ = _traced_shoot(monkeypatch, build[case](0.1))
    assert [name for name, *_ in calls] == ["integrate"]
    assert calls[0][2] <= 8
    assert orbit.residual <= periodic.SHOOT_TOL


@pytest.mark.parametrize("case", ["figure1", "thomson3"])
def test_a_loop_moved_off_its_orbit_fails_its_certificate(
        figure1_orbit, thomson3_orbit, case):
    # the certificate integrates the deviation from the loop's own
    # interpolant, yet it is the same ODE: a loop whose u0 is moved 1e-8
    # along the first coordinate is no orbit, and its twisted residual
    # (9.1e-8 on figure 1, 2.6e-8 on Thomson-3) is the one a plain
    # integration of the moved u0 reads
    orbit = {"figure1": figure1_orbit, "thomson3": thomson3_orbit}[case][0]
    spec, rs, loop = orbit.spec, orbit.spec.rescaled, orbit.loop.copy()
    loop[0, 0] += 1e-8
    with pytest.raises(ConvergenceError, match="twisted residual") as info:
        periodic._certified(spec, loop, IntegratorSettings(),
                            orbit.residuals)
    S = permutation_matrix(spec.sigma)
    plain = integrate(rs, loop[0], (0.0, TWO_PI)).final_state @ S.T - loop[0]
    assert info.value.residual > 1e-8
    assert info.value.residual == pytest.approx(np.linalg.norm(plain),
                                                rel=0, abs=1e-12)
    assert np.array_equal(info.value.last_iterate, loop[0])
    # a loop moved 1e-8 at its sixth sample, u0 kept: the integration
    # from u0 is the orbit's (residual 1.5e-13 on figure 1, 7.3e-13 on
    # Thomson-3), and only the loop deviation, 1.0e-8, sees the move
    loop = orbit.loop.copy()
    loop[5, 0] += 1e-8
    with pytest.raises(ConvergenceError, match="loop deviation") as info:
        periodic._certified(spec, loop, IntegratorSettings(),
                            orbit.residuals)
    assert 0.9e-8 <= info.value.residual <= 1.1e-8
    assert np.array_equal(info.value.last_iterate, orbit.u0)


def test_the_loop_interpolant_starts_at_its_first_sample(rng):
    # the certificate's reference: the trigonometric interpolant of K
    # samples meets them, its derivative is their spectral derivative,
    # and at t = 0 it is the first sample bit for bit, alone or among
    # other times, so the certified trajectory starts at u0 exactly
    K, tau = 25, 3 * TWO_PI
    ts = np.linspace(0.0, tau, K, endpoint=False)
    samples = rng.normal(size=(K, 6))
    p = periodic._trigonometric_interpolant(samples, tau)
    values, slopes = p(ts, derivative=True)
    assert np.abs(values - samples).max() <= 1e-13
    assert np.abs(slopes - periodic._spectral_derivative(samples, tau)
                  ).max() <= 1e-13
    assert np.array_equal(p(0.0), samples[0])
    assert np.array_equal(p(np.array([0.0, 1.0]))[0], samples[0])
    assert np.array_equal(p(0.0, derivative=True)[0], samples[0])


def _screened_times(monkeypatch, certify):
    """(result of certify(), the times FlowSystem.screen read during it,
    in order)."""
    times, raw = [], FlowSystem.screen

    def recorded_screen(self, ys, ts, *tols):
        times.extend(np.atleast_1d(ts))
        return raw(self, ys, ts, *tols)

    monkeypatch.setattr(FlowSystem, "screen", recorded_screen)
    out = certify()
    monkeypatch.setattr(FlowSystem, "screen", raw)
    return out, np.array(times, dtype=float)


@pytest.mark.parametrize("case", list(TIER1_ORBITS))
def test_the_certificate_screens_at_least_the_grid_density(monkeypatch,
                                                          case):
    # along the loop each step is long (5 per period on figure 1), so it
    # is screened at as many points as keep them tau / GRID_SAMPLES apart
    # (8 per step left gaps up to 0.917 on Thomson-3); u0 is screened
    # first, and the last sample is the period's end
    spec = TIER1_ORBITS[case]()
    orbit, calls = shoot(spec), _integrations(monkeypatch)
    _, times = _screened_times(monkeypatch, lambda: periodic._certified(
        spec, orbit.loop, IntegratorSettings(), orbit.residuals))
    traj = calls[-1][3]
    assert times[0] == 0.0 and times[-1] == spec.tau
    assert np.all(np.diff(times) > 0.0)
    assert np.diff(times).max() <= spec.tau / periodic.GRID_SAMPLES * (
        1.0 + 1e-12)
    steps = len(traj.times) - 1
    assert len(times) > max(dynamics.GUARD_SAMPLES * steps,
                            periodic.GRID_SAMPLES)


def test_the_certificate_catches_a_grazing_pass_between_step_samples(
        monkeypatch):
    # figure 1's wall clearance dips at t = 0 and pi, a collocation time,
    # so the loop is shifted by 0.7 to put its dips mid-step.  The
    # certificate's steps follow the loop's error at roundoff: from the
    # shifted states of figure 1's own certificate (3e-14 off the loop)
    # it takes 5 steps with both dips mid-step, from the loop's
    # interpolant 4, one of whose samples falls 0.01 from a dip.  The
    # margin sits halfway between the smallest clearance on the
    # certificate's screening grid and on GUARD_SAMPLES points per step
    # (1.1e-4 apart): eight per step would step over every dip, the finer
    # grid trips the first, and the crossing is refined to where the
    # clearance is the margin
    calls = _integrations(monkeypatch)
    orbit = shoot(build_figure1_spec(0.1))
    spec, rs, tau = orbit.spec, orbit.spec.rescaled, orbit.spec.tau
    ts = np.linspace(0.0, tau, len(orbit.loop), endpoint=False)
    loop = rs.to_frame(ts, calls[0][3].sample((ts + 0.7) % tau))

    def certify(settings):
        return periodic._certified(spec, loop, settings, orbit.residuals)

    _, fine = _screened_times(monkeypatch,
                              lambda: certify(IntegratorSettings()))
    shifted = calls[-1][3]

    def clearance(t):
        p, _, domain = rs.guard_geometry(shifted.sample(t))
        return domain.boundary_clearance(p).min(axis=-1)

    steps = shifted.times
    coarse = np.concatenate([np.linspace(a, b, dynamics.GUARD_SAMPLES + 1)
                             for a, b in zip(steps, steps[1:])])
    lowest_fine, lowest_coarse = clearance(fine).min(), clearance(coarse).min()
    assert lowest_coarse - lowest_fine > 1e-5
    margin = 0.5 * (lowest_fine + lowest_coarse)
    with pytest.raises(BoundaryEventError) as info:
        certify(IntegratorSettings(boundary_margin=margin))
    t_star = info.value.time
    assert 0.0 < t_star < tau
    assert abs(clearance(t_star) - margin) <= 1e-12
    # the first screened time below the margin is the first after t_star
    below = fine[clearance(fine) < margin]
    assert below[0] == fine[fine > t_star][0]
    # at GUARD_SAMPLES per step, as a FlowSystem screens, the same
    # certificate steps over both dips and passes
    raw_init = periodic._LoopFrame.__init__

    def eight_per_step(self, *args):
        raw_init(self, *args)
        self.spacing = np.inf

    monkeypatch.setattr(periodic._LoopFrame, "__init__", eight_per_step)
    assert certify(IntegratorSettings(boundary_margin=margin)).residual <= (
        periodic.SHOOT_TOL)


def test_shooting_jacobian_nulls_are_the_time_shift_and_the_rotation(
        monkeypatch):
    # the collocation Jacobian J = blockdiag(DV_k) - D (x) I at the
    # reference orbit.  Its border rows G, the time shift and the
    # rotation about the disc center, span its right null space, and its
    # border columns C, the energy and angular impulse gradients, its
    # left null space.  Bordered by both, the matrix is well conditioned;
    # with G as its columns too it is singular, since G also lies in J's
    # range (Hamiltonian Jordan blocks)
    newton, last = periodic.newton, {}

    def spy(fun, x, *args, **kwargs):
        x, residuals = newton(fun, x, *args, **kwargs)
        last.update(fun=fun, x=x)
        return x, residuals

    monkeypatch.setattr(periodic, "newton", spy)
    shoot(build_figure1_spec(0.1))
    _, J, G, C = last["fun"](last["x"])
    G, C = (np.array([v / np.linalg.norm(v) for v in B]) for B in (G, C))
    U, s, Vt = np.linalg.svd(J)
    assert np.all(s[-2:] <= 1e-12 * s[0])
    assert np.all(np.linalg.norm(J @ G.T, axis=0) <= 1e-12 * s[0])
    assert np.all(np.linalg.norm(C @ J, axis=1) <= 1e-12 * s[0])
    assert np.allclose(np.linalg.norm(G @ Vt[-2:].T, axis=1), 1.0,
                       rtol=0.0, atol=1e-9)
    assert np.allclose(np.linalg.norm(C @ U[:, -2:], axis=1), 1.0,
                       rtol=0.0, atol=1e-9)

    def conditioning(columns):
        sv = np.linalg.svd(np.block([[J, columns.T], [G, np.zeros((2, 2))]]),
                           compute_uv=False)
        return sv[-1] / sv[0]

    assert conditioning(C) >= 1e-6
    assert conditioning(G) <= 1e-12


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


@pytest.mark.parametrize("case", ["figure1", "thomson3"])
def test_the_energy_drift_and_distance_read_one_uniform_sample(monkeypatch,
                                                               case):
    # the certificate takes 5 (figure 1) and 4 (Thomson-3) steps per
    # period, so its accepted steps alone miss a drift between them
    # (figure 1's read 3.00e-15, its states at GRID_SAMPLES uniform times
    # 3.11e-15).  The drift and distance_to_M read those uniform states;
    # a Trajectory's own drift reads its accepted steps by the same
    # formula
    build = {"figure1": build_figure1_spec, "thomson3": build_thomson3_spec}
    orbit, calls, _ = _traced_shoot(monkeypatch, build[case](0.1))
    traj = calls[0][3]
    grid = np.linspace(0.0, orbit.rescaled_period, periodic.GRID_SAMPLES,
                       endpoint=False)
    samples = traj.sample(grid)
    assert orbit.energy_drift == dynamics.relative_drift(
        orbit.spec.rescaled.hamiltonian(samples))
    assert orbit.distance_to_m == distance_to_M(orbit.spec, samples)
    assert traj.energy_drift() == dynamics.relative_drift(traj.energies)


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
    grid = np.linspace(0.0, tau, 4096, endpoint=False)
    k = int(np.argmin(np.max(np.abs(orbit.states(grid) - golden["u0"]),
                             axis=1)))
    h = tau / grid.size

    def gap(ds):
        return np.max(np.abs(orbit.states((grid[k] + ds) % tau)
                             - golden["u0"]))

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
    system = orbit.spec.system
    z0 = orbit.physical_initial_state()
    traj = integrate(system, z0, (0.0, orbit.period))
    assert np.linalg.norm(traj.final_state - z0) <= 1e-8


def test_choreography_orbit_respects_the_twisted_symmetry(thomson3_orbit):
    orbit, _ = thomson3_orbit
    assert orbit.residual <= 1e-10
    assert orbit.symmetry_defect <= 1e-8
    assert orbit.spec.order == 3
    assert orbit.rescaled_period == pytest.approx(3 * TWO_PI)


def test_symmetry_defect_is_the_twisted_residual_at_the_identity(
        monkeypatch):
    # the defects' first entry, at t = 0, is the twisted residual
    # |S_sigma phi_{2pi}(u0) - u0| and their max the defect; with sigma =
    # id the grid is t = 0 alone, so the two are one number.  A
    # choreography's grid spans [0, tau - 2 pi]
    calls = _integrations(monkeypatch)
    for build, rows in ((build_thomson3_spec, periodic.GRID_SAMPLES + 1),
                        (build_figure1_spec, 1)):
        orbit, shapes = shoot(build(0.1)), []

        class Recorded:
            def sample(self, t, traj=calls[-1][3]):
                shapes.append(np.shape(t))
                return traj.sample(t)

        defects = periodic._symmetry_defects(orbit.spec, Recorded())
        assert shapes == [(rows,), (rows,)]
        assert defects.shape == (rows,)
        assert defects[0] == orbit.residual
        assert defects.max() == orbit.symmetry_defect
    assert orbit.spec.order == 1
    assert orbit.symmetry_defect == orbit.residual


def test_orbit_serializes_to_json(figure1_orbit):
    orbit, _ = figure1_orbit
    data = json.loads(json.dumps(orbit.as_dict()))
    assert data["scale"] == 0.1
    assert len(data["u0"]) == 8
    assert data["residual"] <= 1e-10
    assert data["spec"]["phases"] == [0.0, 0.0]
    assert len(data["spec"]["clusters"]) == 2
    assert data["spec"]["domain"] == "unit-disc"


def test_orbit_exports_rescaled_and_physical_trajectories(figure1_orbit,
                                                          tmp_path):
    # both files hold the orbit's states at its K collocation times of
    # one period, u0 first: the collocated samples turned to the lab
    orbit, _ = figure1_orbit
    rs, K = orbit.spec.rescaled, len(orbit.loop)
    rows = {}
    for name, arrays in (("rescaled", orbit.rescaled_arrays()),
                         ("physical", orbit.physical_arrays())):
        dynamics.write_csv(tmp_path / name, *arrays)
        lines = (tmp_path / name).read_text().strip().split("\n")
        assert lines[0] == "t,x1,y1,x2,y2,x3,y3,x4,y4,H"
        rows[name] = np.array([[float(c) for c in line.split(",")]
                               for line in lines[1:]])
        assert rows[name].shape == (K, 10)
    times = np.linspace(0.0, orbit.rescaled_period, K, endpoint=False)
    assert np.array_equal(rows["rescaled"][:, 0], times)
    assert np.array_equal(rows["rescaled"][:, 1:9], orbit.states(times))
    assert np.abs(rows["rescaled"][:, 1:9]
                  - rs.to_lab(times, orbit.loop)).max() <= 1e-13
    assert np.array_equal(rows["physical"][:, 0], orbit.scale**2 * times)
    assert np.array_equal(rows["physical"][0, 1:9],
                          orbit.physical_initial_state())
    # the batch map gives the floats of the row-by-row map
    assert np.array_equal(rows["physical"][:, 1:9],
                          [rs.to_physical(u) for u in orbit.states(times)])


def test_physical_energy_column_matches_the_physical_hamiltonian(
        figure1_orbit):
    orbit, _ = figure1_orbit
    system = orbit.spec.system
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
    # the pi/2 class, which a warm-started shoot lost at r = 0.15, from
    # r = 0.2 down to 0.025: each later scale starts from the last loop
    # carried to its scale, and d/r^2 falls toward its r -> 0 limit
    scales = [0.2, 0.15, 0.1, 0.07, 0.05, 0.035, 0.025]
    spec = build_figure1_spec(0.2, phases=(np.pi / 2, 0.0))
    orbits = continue_in_r(spec, scales)
    ratios = [orbit.distance_to_m / orbit.scale**2 for orbit in orbits]
    assert [orbit.scale for orbit in orbits] == scales
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    assert np.allclose(ratios, [2.2174, 2.2132, 2.2089, 2.2069, 2.2059,
                                2.2054, 2.2051], rtol=0.0, atol=1e-4)
    for orbit in orbits:
        assert orbit.residual <= 1e-10
        assert len(orbit.residuals) <= 4


# ---------------------------------------------------------------------------
# phase scans
# ---------------------------------------------------------------------------

def test_phase_scan_finds_multiple_orbit_classes(figure1_scan):
    # one shoot per critical point of the reduced functional on [0, pi),
    # the fundamental domain of the first pair's phase: theta = 0 and
    # pi/2; modulo relabelling, figure 1 has two classes on the branch
    result, _ = figure1_scan
    assert result.attempted == 2
    assert result.distinct_count == 2
    assert result.distinct_count == len(result.orbits)
    assert result.failures == []
    for orbit in result.orbits:
        assert orbit.residual <= 1e-10
        assert abs(orbit.distance_to_m / orbit.scale**2 - 2.2) <= 0.22
    by_phase = sorted((o.spec.phases[0], o.distance_to_m / o.scale**2)
                      for o in result.orbits)
    assert np.allclose([d for _, d in by_phase], [2.2055, 2.2089],
                       rtol=0.0, atol=1e-4)


def test_reduced_functional_critical_points_on_figure1():
    # Phi on [0, pi) is cos(2 theta) up to a second mode 1.7e-5 of it:
    # its critical points are theta = 0 and pi/2, and its 8 samples
    # resolve it, so the Nyquist mode is at the samples' rounding level
    spec = build_figure1_spec(0.1)
    phases = sorted(periodic._critical_phases(spec))
    assert np.allclose(phases, [(0.0, 0.0), (np.pi / 2, 0.0)],
                       rtol=0.0, atol=1e-9)
    rs = spec.rescaled
    ts = np.linspace(0.0, spec.tau, periodic.GRID_SAMPLES, endpoint=False)
    thetas = np.arange(periodic.PHI_SAMPLES) * (np.pi / periodic.PHI_SAMPLES)
    phi = np.array([np.mean([rs.coupling(spec.scale * w) for w in
                             spec.torus_samples(ts, (theta, 0.0))])
                    for theta in thetas])
    modes = np.abs(np.fft.rfft(phi - phi.mean()))
    assert modes[1] == modes.max()
    assert modes[-1] <= 1e-8 * modes[1]


def test_perturbed_disc_scan_shoots_once_per_critical_point(
        perturbed_disc_scan):
    # the figure-1 clusters on the perturbed disc at r = 0.05, where the
    # uniform starts at pi/4 and 3pi/4 left the disc: the critical points
    # 0 and pi/2 each give one class on the branch
    result, _ = perturbed_disc_scan
    assert result.attempted == 2
    assert result.failures == []
    assert result.distinct_count == 2
    starts = sorted(orbit.spec.phases for orbit in result.orbits)
    assert np.allclose(starts, [(0.0, 0.0), (np.pi / 2, 0.0)],
                       rtol=0.0, atol=1e-6)
    for orbit in result.orbits:
        assert orbit.residual <= 1e-10
        assert abs(orbit.distance_to_m / orbit.scale**2 - 2.255) <= 0.01


def test_three_anchor_scan_meets_the_lusternik_schnirelmann_bound(
        three_anchor_scan):
    # l = 3, so the free phases range over [0, pi)^2; the reflection of
    # the anchors makes Phi even, so the four points of {0, pi/2}^2 are
    # critical, and the interpolant has no others.  Lusternik-Schnirelmann
    # on T^2 asks for at least 3 classes; each start stays on the branch
    result, _ = three_anchor_scan
    assert result.attempted == 4
    assert result.failures == []
    assert result.distinct_count >= 3
    corners = [(a, b, 0.0) for a in (0.0, np.pi / 2) for b in (0.0, np.pi / 2)]
    for orbit in result.orbits:
        assert orbit.residual <= 1e-10
        assert abs(orbit.distance_to_m / orbit.scale**2 - 5.11) <= 0.05
        assert min(np.abs(np.subtract(orbit.spec.phases, c)).max()
                   for c in corners) <= 1e-9, orbit.spec.phases


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
        replica = dataclasses.replace(orbit, u0=orbit.states(shift))
        assert _orbit_distance(orbit, replica) <= 1e-10, shift
    # turned about the disc center, at -anchor_hat / r in rescaled
    # coordinates, a replica is the same class; about the origin it is not
    orbit, _ = figure1_orbit
    c = orbit.spec.rescaled.anchor_hat / orbit.scale
    replica = orbit.states(1.234)
    turned = dataclasses.replace(orbit, u0=rotate_all(replica + c, 0.5) - c)
    assert _orbit_distance(orbit, turned) < IDENTIFICATION_TOL
    off_center = dataclasses.replace(orbit, u0=rotate_all(replica, 0.5))
    assert _orbit_distance(orbit, off_center) > 0.1


def test_relabelled_replicas_identify_as_the_same_class(figure1_orbit):
    # swapping the members of either pair, or both, is a symmetry of the
    # equations; the swapped orbit is the same class
    orbit, _ = figure1_orbit
    replica = orbit.states(1.234)
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
