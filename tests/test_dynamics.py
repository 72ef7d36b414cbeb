"""Integration driver: accuracy, guards, rescaling; the variational-flow
oracle checked against the driver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from vortexlab import (BoundaryEventError, CollisionError,
                       CollisionEventError, ConstraintViolationError,
                       DomainViolationError, IntegratorSettings,
                       RescaledSystem, VortexSystem, integrate, make_pair,
                       rotate_all)
from vortexlab import dynamics, periodic, systems

from conftest import check_rescaling_equivalence
from oracles import dop853_steps, flow_with_jacobian

TWO_PI = 2.0 * np.pi


@pytest.fixture()
def disc_pair(disc):
    system = VortexSystem((1.0, 0.8), (1, 1), disc)
    z0 = np.array([0.3, 0.1, -0.2, -0.25])
    return system, z0


# ---------------------------------------------------------------------------
# basic trajectories
# ---------------------------------------------------------------------------

def test_single_plane_vortex_is_frozen(plane):
    system = VortexSystem((2.0,), (1,), plane)
    z0 = np.array([0.4, -1.3])
    traj = integrate(system, z0, (0.0, 5.0))
    # the field vanishes identically, so every sample is exactly z0
    assert np.array_equal(traj.states, np.tile(z0, (len(traj.times), 1)))
    assert traj.min_separation == np.inf
    assert np.array_equal(traj.sample(2.5), z0)


def test_corotating_pair_returns_after_one_period(plane):
    eq = make_pair(0.5, 0.5)
    system = VortexSystem((0.5, 0.5), (1, 1), plane)
    traj = integrate(system, eq.flat(), (0.0, TWO_PI))
    assert np.linalg.norm(traj.final_state - eq.flat()) <= 1e-9
    # dense output follows the closed-form rigid rotation
    for t in np.linspace(0.0, TWO_PI, 17):
        ref = rotate_all(eq.flat(), -eq.angular_velocity * t)
        assert np.linalg.norm(traj.sample(t) - ref) <= 1e-9


def test_disc_dipole_anchored_at_the_critical_point_is_constant(disc, dipole):
    system = VortexSystem((1.0, -1.0), (1, 1), disc)
    z0 = dipole.flat()
    traj = integrate(system, z0, (0.0, 10.0))
    assert np.max(np.abs(traj.states - z0[None, :])) <= 1e-10


def test_time_reversal_returns_to_the_start(disc_pair):
    system, z0 = disc_pair
    fwd = integrate(system, z0, (0.0, 2.0))
    back = integrate(system, fwd.final_state, (2.0, 0.0))
    assert np.linalg.norm(back.final_state - z0) <= 1e-8
    assert np.all(np.diff(back.times) < 0.0)
    assert back.sample(1.0) == pytest.approx(fwd.sample(1.0), abs=1e-8)


def test_disc_flow_commutes_with_rotation(disc_pair):
    system, z0 = disc_pair
    theta = 0.7
    rotated = integrate(system, rotate_all(z0, theta), (0.0, 1.5))
    plain = integrate(system, z0, (0.0, 1.5))
    expected = rotate_all(plain.final_state, theta)
    assert np.linalg.norm(rotated.final_state - expected) <= 1e-9


def test_samples_stay_on_the_level_set_without_projection(disc_pair):
    system, z0 = disc_pair
    traj = integrate(system, z0, (0.0, 10.0))
    assert traj.energy_drift() <= 1e-12
    assert traj.min_separation > IntegratorSettings().collision_tol
    # no zero-length step after the stepper reaches the end of the span
    assert traj.t_end == 10.0
    assert np.all(np.diff(traj.times) > 0.0)


def test_degenerate_time_span_yields_a_single_sample(disc_pair):
    system, z0 = disc_pair
    traj = integrate(system, z0, (1.5, 1.5))
    assert len(traj.times) == 1
    assert np.array_equal(traj.final_state, z0)
    assert np.array_equal(traj.sample(1.5), z0)
    assert np.array_equal(traj.sample([1.5, 1.5]), np.tile(z0, (2, 1)))
    with pytest.raises(ValueError):
        traj.sample(1.6)


@pytest.mark.parametrize("span", [(0.0, 1.0), (1.0, 0.0)],
                         ids=["forward", "backward"])
def test_dense_output_reproduces_the_step_samples(disc_pair, span):
    system, z0 = disc_pair
    traj = integrate(system, z0, span)
    assert len(traj.times) > 2
    # every step boundary, in either direction, reads back its sample
    rows = traj.sample(traj.times)
    assert np.max(np.abs(rows - traj.states)) <= 1e-12
    # one batch over shuffled interior and boundary times agrees with
    # the point-by-point reads
    mids = 0.5 * (traj.times[1:] + traj.times[:-1])
    rng = np.random.default_rng(3)
    ts = rng.permutation(np.concatenate([traj.times, mids]))
    batch = traj.sample(ts)
    for t, row in zip(ts, batch):
        assert np.allclose(traj.sample(t), row, rtol=0.0, atol=1e-15)


def test_sample_rejects_times_outside_the_span(disc_pair):
    system, z0 = disc_pair
    traj = integrate(system, z0, (0.0, 1.0))
    with pytest.raises(ValueError):
        traj.sample(1.2)
    grid = np.linspace(0.0, 1.0, 9)
    assert traj.sample(grid).shape == (9, 4)


# ---------------------------------------------------------------------------
# guards
# ---------------------------------------------------------------------------

def test_translating_dipole_trips_the_boundary_guard(disc):
    # a (1, -1) pair away from the critical offsets translates toward
    # the wall; clearance dips to ~0.051 near t = 0.64, so a 0.1 margin
    # must trip on the way in
    system = VortexSystem((1.0, -1.0), (1, 1), disc)
    z0 = np.array([0.5, 0.05, 0.5, -0.05])
    with pytest.raises(BoundaryEventError) as info:
        integrate(system, z0, (0.0, 6.0),
                  IntegratorSettings(boundary_margin=0.1))
    err = info.value
    assert err.index in (0, 1)
    assert 0.0 < err.time < 1.0
    assert "boundary" in str(err)


def test_slip_through_dipoles_trip_the_collision_guard(plane):
    # the tight trailing pair contracts to ~0.20 while passing through
    # the wide one; a 0.3 threshold is valid at t=0 (min sep 0.4) and
    # must trip mid-flight
    system = VortexSystem((1.0, -1.0, 1.0, -1.0), (1, 1, 1, 1), plane)
    z0 = np.array([-1.0, 0.5, -1.0, -0.5, -2.5, 0.2, -2.5, -0.2])
    with pytest.raises(CollisionError) as info:
        integrate(system, z0, (0.0, 25.0),
                  IntegratorSettings(collision_tol=0.3))
    err = info.value
    assert err.pair == (2, 3)
    assert err.time > 0.0
    assert err.distance == pytest.approx(0.3, abs=1e-6)


def test_boundary_event_wins_when_both_guards_trip_on_one_sample(disc):
    # a co-rotating pair near the wall: over the first screening sample
    # both its wall clearance and its separation shrink, so thresholds
    # halfway between the start values and that sample's trip both
    # guards there; the boundary is checked first
    system = VortexSystem((1.0, 1.0), (1, 1), disc)
    z0 = np.array([0.8, 0.05, 0.8, -0.05])
    traj = integrate(system, z0, (0.0, 0.5))
    t1 = traj.times[1] / dynamics.GUARD_SAMPLES

    def gaps(z):
        p = np.reshape(z, (2, 2))
        return (min(disc.boundary_clearance(x) for x in p),
                np.linalg.norm(p[0] - p[1]))

    (c0, d0), (c1, d1) = gaps(z0), gaps(traj.sample(t1))
    assert c1 < c0 and d1 < d0
    with pytest.raises(BoundaryEventError) as info:
        integrate(system, z0, (0.0, 0.5),
                  IntegratorSettings(collision_tol=0.5 * (d0 + d1),
                                     boundary_margin=0.5 * (c0 + c1)))
    assert 0.0 < info.value.time <= t1


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(d=st.floats(0.05, 0.3), offset=st.floats(0.2, 1.5),
       weak=st.floats(1e-3, 1e-2), depth=st.floats(2e-4, 1e-2))
def test_guard_catches_a_grazing_pass_just_below_the_threshold(
        plane, d, offset, weak, depth):
    # a fast (1, -1) dipole of separation d sweeps past a weak vortex
    # offset * d / 2 off its path; the weak vortex is pushed round the
    # dipole's co-moving oval, so the closest approach is one smooth dip
    dipole = np.array([0.0, d / 2, 0.0, -d / 2])
    v = VortexSystem((1.0, -1.0), (1, 1), plane).vector_field(dipole)[:2]
    speed = np.linalg.norm(v)
    ahead, side = v / speed, np.array([-v[1], v[0]]) / speed
    start = np.tile(-1.5 * ahead, 2) + dipole
    z0 = np.concatenate([start, offset * d / 2 * side])
    system = VortexSystem((1.0, -1.0, weak), (1, 1, 1), plane)
    t1 = 3.0 / speed
    traj = integrate(system, z0, (0.0, t1))

    # the true minimum separation of the dense output, on a fine grid
    # and then refined around its smallest grid value
    def separation(t):
        p = traj.sample(np.atleast_1d(t)).reshape(-1, 3, 2)
        gaps = np.linalg.norm(p[:, [0, 0, 1]] - p[:, [1, 2, 2]], axis=2)
        return gaps.min(axis=1)

    grid = np.linspace(0.0, t1, 4001)
    k = int(np.argmin(separation(grid)))
    assert 0 < k < grid.size - 1
    best = minimize_scalar(lambda t: separation(t)[0],
                           bounds=(grid[k - 1], grid[k + 1]),
                           method="bounded", options={"xatol": 1e-14})
    with pytest.raises(CollisionError) as info:
        integrate(system, z0, (0.0, t1),
                  IntegratorSettings(collision_tol=best.fun * (1.0 + depth)))
    assert 2 in info.value.pair


def test_settings_validation():
    for bad in (dict(collision_tol=-1e-9), dict(boundary_margin=-1e-9),
                dict(collision_tol=np.nan), dict(boundary_margin=np.nan),
                dict(collision_tol=np.inf), dict(boundary_margin=np.inf)):
        with pytest.raises(ConstraintViolationError):
            IntegratorSettings(**bad)


@pytest.mark.parametrize("run", [
    lambda system, z0, s: integrate(system, z0, (0.0, 1.0), s),
    lambda system, z0, s: integrate(system, z0, (0.0, -1.0), s),
], ids=["integrate", "integrate-backward"])
def test_start_inside_the_boundary_margin_is_a_domain_violation(disc, run):
    # vortex 0 starts 0.05 from the wall, inside the 0.1 margin: the
    # start is refused, not reported as a crossing at a later time, in
    # either direction
    system = VortexSystem((1.0, -1.0), (1, 1), disc)
    with pytest.raises(DomainViolationError) as info:
        run(system, [0.95, 0.0, -0.5, 0.0],
            IntegratorSettings(boundary_margin=0.1))
    assert type(info.value) is DomainViolationError
    assert info.value.time == 0.0
    assert info.value.index == 0


def test_start_collision_is_refused_and_a_crossing_is_an_event(plane):
    # the slip-through dipoles: the trailing pair starts 0.4 apart and
    # contracts to ~0.20 mid-flight.  Inside a 0.5 threshold the start
    # is refused; a 0.3 threshold is crossed later, an event
    system = VortexSystem((1.0, -1.0, 1.0, -1.0), (1, 1, 1, 1), plane)
    z0 = [-1.0, 0.5, -1.0, -0.5, -2.5, 0.2, -2.5, -0.2]
    with pytest.raises(CollisionError) as start:
        integrate(system, z0, (0.0, 25.0),
                  IntegratorSettings(collision_tol=0.5))
    assert type(start.value) is CollisionError
    assert start.value.time == 0.0
    assert start.value.pair == (2, 3)
    with pytest.raises(CollisionEventError) as event:
        integrate(system, z0, (0.0, 25.0),
                  IntegratorSettings(collision_tol=0.3))
    assert isinstance(event.value, CollisionError)
    assert event.value.pair == (2, 3)
    assert event.value.time > 0.0


def test_initial_state_is_validated(disc):
    system = VortexSystem((1.0, -1.0), (1, 1), disc)
    with pytest.raises(DomainViolationError):
        integrate(system, [1.2, 0.0, -0.5, 0.0], (0.0, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_plane_position_is_a_domain_violation(plane, bad):
    system = VortexSystem((1.0, -1.0), (1, 1), plane)
    with pytest.raises(DomainViolationError) as info:
        system.validate_state([bad, 0.0, -0.5, 0.0])
    assert info.value.index == 0
    with pytest.raises(DomainViolationError):
        integrate(system, [0.5, 0.0, -0.5, bad], (0.0, 1.0))


@pytest.mark.parametrize("run", [
    lambda system, z0, t: integrate(system, z0, (0.0, t)),
    lambda system, z0, t: integrate(system, z0, (t, 0.0)),
], ids=["integrate-end", "integrate-start"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_time_span_is_refused(disc_pair, run, bad):
    system, z0 = disc_pair
    with pytest.raises(ConstraintViolationError, match="must be finite"):
        run(system, z0, bad)


def test_start_with_an_overflowing_field_is_refused(disc):
    # finite strengths whose products overflow: the field at the start
    # is not finite, and DOP853 would never finish its first step
    system = VortexSystem((1e308, 1e308), (1, 1), disc)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConstraintViolationError, match="must be finite"):
            integrate(system, [0.3, 0.1, -0.2, -0.25], (0.0, 1.0))


# ---------------------------------------------------------------------------
# the variational-flow oracle (tests/oracles.py)
# ---------------------------------------------------------------------------

def test_zero_time_flow_is_the_identity(disc_pair):
    system, z0 = disc_pair
    zT, W = flow_with_jacobian(system, z0, 0.0)
    assert np.array_equal(zT, z0)
    assert np.array_equal(W, np.eye(4))


def test_flow_jacobian_matches_forward_differences(disc_pair):
    system, z0 = disc_pair
    zT, W = flow_with_jacobian(system, z0, 1.0)
    h = 1e-6
    cols = []
    for j in range(4):
        zp = z0.copy()
        zp[j] += h
        cols.append((flow_with_jacobian(system, zp, 1.0)[0] - zT) / h)
    fd = np.column_stack(cols)
    assert np.linalg.norm(W - fd) / np.linalg.norm(W) <= 1e-5


def test_flow_jacobian_is_volume_preserving(disc_pair):
    system, z0 = disc_pair
    _, W = flow_with_jacobian(system, z0, 1.0)
    assert abs(np.linalg.det(W) - 1.0) <= 1e-6


def test_flow_map_agrees_with_plain_integration(disc_pair):
    system, z0 = disc_pair
    zT, _ = flow_with_jacobian(system, z0, 1.0)
    traj = integrate(system, z0, (0.0, 1.0))
    assert np.linalg.norm(zT - traj.final_state) <= 1e-9


# ---------------------------------------------------------------------------
# rescaling equivalence
# ---------------------------------------------------------------------------

def test_unit_scale_reduces_to_a_constant_shift(plane):
    base = VortexSystem((1.0, 1.0), (2,), plane)
    rs = RescaledSystem(base, np.array([[0.3, -0.2]]), 1.0)
    dev = check_rescaling_equivalence(rs, [0.5, 0.0, -0.5, 0.0], 2.0)
    assert dev <= 1e-10


def test_rescaling_equivalence_on_the_reference_orbits(figure1_rescaling):
    deviations, _ = figure1_rescaling
    assert set(deviations) == {0.1, 0.05}
    for r, dev in deviations.items():
        assert dev <= 1e-8, r


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_csv_round_trips_exactly(disc_pair, tmp_path):
    system, z0 = disc_pair
    traj = integrate(system, z0, (0.0, 1.0))
    path = tmp_path / "trajectory.csv"
    dynamics.write_csv(path, traj.times, traj.states, traj.energies)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,y1,x2,y2,H"
    assert len(lines) == len(traj.times) + 1
    for k, line in enumerate(lines[1:]):
        cells = [float(c) for c in line.split(",")]
        assert cells[0] == traj.times[k]
        assert np.array_equal(cells[1:5], traj.states[k])
        assert cells[5] == traj.energies[k]


@pytest.mark.parametrize("case", ["figure1", "thomson3"])
def test_flow_map_is_the_physical_flow_mapped_by_the_rescaling(
        case, figure1_spec_builder, thomson3_spec_builder):
    # z = r u + anchor_hat with physical time r^2 t maps the rescaled
    # flow onto the physical one, whatever frame either is integrated
    # in, so Dphi_u = Dphi_z.  Thomson-3's frame ends a third of a turn
    # from its start, so its W is turned back at 2 pi; figure 1's frames
    # end where they started.  Measured at 1e-13: u gaps 1.4e-13 and
    # 2.8e-14, Dphi gaps 3.4e-12 and 3.0e-13, the error of the
    # physical, non-rotating integration (the rescaled flows are 1.7e-15
    # and 1.0e-15 from their own at 1e-15)
    spec = {"figure1": figure1_spec_builder,
            "thomson3": thomson3_spec_builder}[case](0.1)
    rs, u0, r = spec.rescaled, spec.torus_point(), spec.scale
    phi, W = flow_with_jacobian(rs, u0, TWO_PI)
    zT, Wz = flow_with_jacobian(spec.system, rs.to_physical(u0),
                                TWO_PI * r**2)
    assert np.max(np.abs((zT - rs.anchor_hat) / r - phi)) <= 1e-12
    assert np.max(np.abs(Wz - W)) <= 2e-11
    turn = np.max(np.abs(rs.to_frame(TWO_PI, phi) - phi))
    assert turn > 0.1 if case == "thomson3" else turn <= 1e-14


@pytest.mark.parametrize("case", ["figure1", "thomson3"])
def test_screening_never_perturbs_the_step_sequence(
        case, figure1_spec_builder, thomson3_spec_builder):
    # integrate reads scipy's interpolant of each step and never writes
    # into the stepper, so it is bitwise a bare DOP853 loop over one
    # rescaled period, turned back to the lab
    spec = {"figure1": figure1_spec_builder,
            "thomson3": thomson3_spec_builder}[case](0.1)
    rs, u0 = spec.rescaled, spec.torus_point()
    traj = integrate(rs, u0, (0.0, TWO_PI))
    ts, vs = dop853_steps(lambda t, v: rs.vector_field(v, t),
                          rs.to_frame(0.0, u0), TWO_PI)
    assert np.array_equal(traj.times, ts)
    assert np.array_equal(traj.states, rs.to_lab(ts, vs))


def test_integrate_screens_each_sample_once(monkeypatch, disc_pair):
    system, z0 = disc_pair
    rows = []
    raw = systems.FlowSystem.screen

    def counting_screen(self, ys, *args, **kwargs):
        rows.append(len(ys))
        return raw(self, ys, *args, **kwargs)

    monkeypatch.setattr(systems.FlowSystem, "screen", counting_screen)
    traj = integrate(system, z0, (0.0, 1.0))
    steps = len(traj.times) - 1
    assert steps > 0
    # the initial state, then one look per screening sample, each step's
    # samples in one call
    assert sum(rows) == 1 + dynamics.GUARD_SAMPLES * steps
    assert rows == [1] + [dynamics.GUARD_SAMPLES] * steps


@pytest.mark.parametrize("t_end", [TWO_PI, -TWO_PI],
                         ids=["integrate", "integrate-backward"])
def test_long_steps_of_a_flow_system_keep_eight_samples(monkeypatch,
                                                        thomson3_spec_builder,
                                                        t_end):
    # a FlowSystem's spacing is inf, so every step, however long, is
    # screened at GUARD_SAMPLES points: Thomson-3's co-rotating steps
    # over 2 pi, forward or backward, reach 2.5, where its certificate's
    # spacing, tau / 256 = 0.074, takes 35
    spec = thomson3_spec_builder(0.1)
    rs, u0 = spec.rescaled, spec.torus_point()
    rows, spans = [], []
    raw_step, raw_screen = dynamics._step_and_screen, systems.FlowSystem.screen

    def spied_step(system, stepper, *args):
        out = raw_step(system, stepper, *args)
        spans.append(abs(stepper.t - stepper.t_old))
        return out

    def counting_screen(self, ys, *args, **kwargs):
        rows.append(len(ys))
        return raw_screen(self, ys, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_step_and_screen", spied_step)
    monkeypatch.setattr(systems.FlowSystem, "screen", counting_screen)
    integrate(rs, u0, (0.0, t_end))
    assert max(spans) > 6 * spec.tau / periodic.GRID_SAMPLES
    assert rows == [1] + [dynamics.GUARD_SAMPLES] * len(spans)
