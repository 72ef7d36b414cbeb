"""Shared fixtures.

The expensive periodic-orbit artifacts (shooting, continuation, phase
scan) are session-scoped and carry their wall-clock build time, so the
acceptance module can assert runtime budgets no matter which test file
triggered the computation first.
"""

import time

import numpy as np
import pytest

from vortexlab import (
    PerturbedDisc,
    SuperpositionSpec,
    UnitDisc,
    WholePlane,
    continue_in_r,
    disc_dipole,
    evaluate_point,
    find_critical_point,
    integrate,
    make_pair,
    make_thomson,
    scan_phases,
    shoot,
)

MU = float(np.sqrt(np.sqrt(5.0) - 2.0))


@pytest.fixture(scope="session")
def disc():
    return UnitDisc()


@pytest.fixture(scope="session")
def plane():
    return WholePlane()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(scope="session")
def dipole():
    return disc_dipole()


def random_disc_points(rng, n, margin=0.15, min_sep=0.15):
    """n points of the unit disc, pairwise separated, away from the wall."""
    pts = []
    while len(pts) < n:
        p = rng.uniform(-1.0, 1.0, size=2)
        if np.hypot(*p) > 1.0 - margin:
            continue
        if any(np.hypot(*(p - q)) < min_sep for q in pts):
            continue
        pts.append(p)
    return np.array(pts)


def random_plane_points(rng, n, min_sep=0.2, box=1.5):
    pts = []
    while len(pts) < n:
        p = rng.uniform(-box, box, size=2)
        if any(np.hypot(*(p - q)) < min_sep for q in pts):
            continue
        pts.append(p)
    return np.array(pts)


# ---------------------------------------------------------------------------
# reference scenario: two counter-rotating pairs over the disc dipole
# ---------------------------------------------------------------------------

def build_figure1_spec(scale, phases=(0.0, 0.0)):
    disc = UnitDisc()
    anchors = evaluate_point((-2.0, 2.0), disc, [[MU, 0.0], [-MU, 0.0]])
    clusters = (make_pair(-1.0, -1.0), make_pair(1.0, 1.0))
    return SuperpositionSpec(anchors, clusters, disc,
                             phases=tuple(phases), scale=scale)


def build_thomson3_spec(scale, phases=(0.0,)):
    disc = UnitDisc()
    anchors = evaluate_point((1.0,), disc, [[0.0, 0.0]])
    clusters = (make_thomson(3, 1.0 / 3.0),)
    return SuperpositionSpec(anchors, clusters, disc,
                             phases=tuple(phases), scale=scale)


def build_perturbed_disc_spec(scale):
    """The figure-1 clusters on the perturbed disc, whose dipole (found
    from the disc's) sits at (+-0.4734, 0); no symmetry of the domain."""
    domain = PerturbedDisc()
    anchors = find_critical_point((-2.0, 2.0), domain,
                                  [[MU, 0.0], [-MU, 0.0]])
    clusters = (make_pair(-1.0, -1.0), make_pair(1.0, 1.0))
    return SuperpositionSpec(anchors, clusters, domain, phases=(0.0, 0.0),
                             scale=scale)


def build_three_anchor_spec(scale):
    """Strengths 1, -2, 1 at (-0.8091, 0), (0, 0), (0.8091, 0) in the
    disc, each anchor carrying an equal pair: l = 3, two free phases."""
    disc = UnitDisc()
    anchors = find_critical_point((1.0, -2.0, 1.0), disc,
                                  [[-0.8091, 0.0], [0.0, 0.0], [0.8091, 0.0]])
    clusters = (make_pair(0.5, 0.5), make_pair(-1.0, -1.0),
                make_pair(0.5, 0.5))
    return SuperpositionSpec(anchors, clusters, disc,
                             phases=(0.0, 0.0, 0.0), scale=scale)


@pytest.fixture(scope="session")
def figure1_spec_builder():
    return build_figure1_spec


@pytest.fixture(scope="session")
def thomson3_spec_builder():
    return build_thomson3_spec


@pytest.fixture(scope="session")
def figure1_orbit():
    """(orbit, seconds) for the reference scenario at r = 0.1."""
    spec = build_figure1_spec(0.1)
    start = time.perf_counter()
    orbit = shoot(spec)
    return orbit, time.perf_counter() - start


@pytest.fixture(scope="session")
def figure1_continuation():
    """(orbits, seconds) for r = 0.2, 0.1, 0.05 with warm starts."""
    spec = build_figure1_spec(0.2)
    start = time.perf_counter()
    orbits = continue_in_r(spec, [0.2, 0.1, 0.05])
    return orbits, time.perf_counter() - start


@pytest.fixture(scope="session")
def figure1_scan():
    """(scan result, seconds) from the critical points of the reduced
    functional on the fundamental domain."""
    spec = build_figure1_spec(0.1)
    start = time.perf_counter()
    result = scan_phases(spec)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def perturbed_disc_scan():
    """(scan result, seconds) for the figure-1 clusters on the perturbed
    disc at r = 0.05."""
    spec = build_perturbed_disc_spec(0.05)
    start = time.perf_counter()
    result = scan_phases(spec)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def three_anchor_scan():
    """(scan result, seconds) for the three-anchor example at r = 0.05."""
    spec = build_three_anchor_spec(0.05)
    start = time.perf_counter()
    result = scan_phases(spec)
    return result, time.perf_counter() - start


@pytest.fixture(scope="session")
def thomson3_orbit():
    """(orbit, seconds) for the single-anchor choreography at r = 0.1."""
    spec = build_thomson3_spec(0.1)
    start = time.perf_counter()
    orbit = shoot(spec)
    return orbit, time.perf_counter() - start


def check_rescaling_equivalence(rs, u0, t_span: float) -> float:
    """Max deviation between the physical flow and the rescaled flow
    transported back to physical variables.

    Integrates u under rs, in its clusters' co-rotating frames, over
    [0, t_span/r^2] and z under rs.base from r*u0 + anchor_hat over
    [0, t_span], then compares  z(t)  against  r*u(t/r^2) + anchor_hat
    on a shared grid of 257 times.
    """
    r = rs.scale
    traj_u = integrate(rs, u0, (0.0, t_span / r**2))
    traj_z = integrate(rs.base, rs.to_physical(u0), (0.0, t_span))
    grid = np.linspace(0.0, t_span, 257)
    zu = r * traj_u.sample(grid / r**2) + rs.anchor_hat
    return float(np.max(np.linalg.norm(traj_z.sample(grid) - zu, axis=1)))


@pytest.fixture(scope="session")
def figure1_rescaling(figure1_orbit, figure1_continuation):
    """({scale: deviation}, seconds) comparing the physical flow against
    the transported rescaled flow over one period of each orbit."""
    orbits = [figure1_orbit[0], figure1_continuation[0][-1]]
    start = time.perf_counter()
    deviations = {}
    for orbit in orbits:
        deviations[orbit.scale] = check_rescaling_equivalence(
            orbit.spec.rescaled, orbit.u0, orbit.period)
    return deviations, time.perf_counter() - start
