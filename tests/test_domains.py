"""Green's-function machinery: closed forms, derivatives, symmetry."""

import numpy as np
import pytest

from fdtools import fd_gradient, fd_jacobian, rel_error

from vortexlab import (
    CoincidentPointError,
    DomainViolationError,
    PerturbedDisc,
    SymmetryClass,
    UnitDisc,
    WholePlane,
    assemble_interaction,
    make_domain,
)
from vortexlab.domains import BOUNDARY_MARGIN
from vortexlab.linalg import complex_points
from vortexlab.systems import interaction_frame
from conftest import MU, random_disc_points

TWO_PI = 2.0 * np.pi
FOUR_PI = 4.0 * np.pi


def random_pair(rng, margin=0.15, min_sep=0.1):
    return random_disc_points(rng, 2, margin=margin, min_sep=min_sep)


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------

def test_plane_regular_part_vanishes(plane, rng):
    for _ in range(20):
        x, y = rng.uniform(-3, 3, size=(2, 2))
        assert plane.regular_part(x, y) == 0.0
        g1, g2 = plane.grad_regular(x, y)
        assert np.all(g1 == 0.0) and np.all(g2 == 0.0)
        assert np.all(plane.hess_regular(x, y) == 0.0)


def test_plane_symmetry_class(plane, disc):
    assert plane.symmetry is SymmetryClass.PLANE_FULL
    assert disc.symmetry is SymmetryClass.ROTATIONAL
    assert PerturbedDisc().symmetry is SymmetryClass.NONE


def test_disc_regular_part_at_origin(disc):
    assert disc.regular_part(np.zeros(2), np.zeros(2)) == pytest.approx(0.0)


def test_disc_regular_part_closed_form(disc):
    x = np.array([0.5, 0.0])
    # q = |x|^2|y|^2 - 2<x,y> + 1 = 0.0625 - 0.5 + 1 at x = y = (0.5, 0)
    expected = -np.log(0.5625) / FOUR_PI
    assert disc.regular_part(x, x) == pytest.approx(expected, abs=1e-15)


def test_disc_robin_closed_form(disc):
    assert disc.robin(np.zeros(2)) == pytest.approx(0.0)
    x = np.array([0.6, 0.0])
    assert disc.robin(x) == pytest.approx(-np.log(0.64) / TWO_PI, abs=1e-15)
    # h(x) = g(x, x); the two expressions agree to rounding
    assert disc.robin(x) == pytest.approx(disc.regular_part(x, x), abs=1e-15)


def test_plane_green_at_unit_distance(plane):
    assert plane.green(np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(0.0)


def test_green_combines_kernel_and_regular_part(disc, rng):
    for _ in range(20):
        x, y = random_pair(rng)
        expected = -np.log(np.linalg.norm(x - y)) / TWO_PI \
            - disc.regular_part(x, y)
        assert disc.green(x, y) == pytest.approx(expected, abs=1e-15)


def test_green_vanishes_toward_the_wall(disc):
    # q -> |x - y|^2 as |y| -> 1, so G -> 0 linearly in the gap
    x = np.array([0.3, 0.2])
    for ang in (0.1, 2.0, 4.5):
        y = (1.0 - 2e-9) * np.array([np.cos(ang), np.sin(ang)])
        assert abs(disc.green(x, y)) < 1e-8


def test_green_coincident_points_rejected(disc):
    x = np.array([0.2, 0.1])
    with pytest.raises(CoincidentPointError):
        disc.green(x, x)


# ---------------------------------------------------------------------------
# symmetry and invariance
# ---------------------------------------------------------------------------

def test_regular_part_symmetric_in_arguments(disc, rng):
    for _ in range(1000):
        x, y = random_pair(rng, margin=0.05, min_sep=0.0)
        assert abs(disc.regular_part(x, y)
                   - disc.regular_part(y, x)) <= 1e-14


def test_disc_rotational_invariance(disc, rng):
    for _ in range(50):
        x, y = random_pair(rng)
        theta = rng.uniform(0.0, TWO_PI)
        c, s = np.cos(theta), np.sin(theta)
        R = np.array([[c, -s], [s, c]])
        assert abs(disc.regular_part(R @ x, R @ y)
                   - disc.regular_part(x, y)) <= 1e-13


def test_robin_grows_monotonically_toward_wall(disc):
    radii = np.linspace(0.0, 0.99, 40)
    vals = [disc.robin(np.array([r, 0.0])) for r in radii]
    assert np.all(np.diff(vals) > 0.0)
    assert vals[-1] > 2.0 * vals[len(vals) // 2]


def test_cross_hessian_blocks_transpose_under_swap(disc, rng):
    for _ in range(50):
        x, y = random_pair(rng)
        a = disc.hess_regular(x, y)[:2, 2:]
        b = disc.hess_regular(y, x)[:2, 2:]
        assert np.allclose(a, b.T, atol=1e-10)


# ---------------------------------------------------------------------------
# derivatives against finite differences
# ---------------------------------------------------------------------------

def _check_derivatives(domain, x, y):
    both = np.concatenate([x, y])

    def val(v):
        return domain.regular_part(v[:2], v[2:])

    def grad(v):
        g1, g2 = domain.grad_regular(v[:2], v[2:])
        return np.concatenate([g1, g2])

    assert rel_error(grad(both), fd_gradient(val, both)) <= 1e-6
    assert rel_error(domain.hess_regular(x, y),
                     fd_jacobian(grad, both)) <= 1e-6


def test_disc_derivatives_match_finite_differences(disc, rng):
    for _ in range(100):
        x, y = random_pair(rng)
        _check_derivatives(disc, x, y)


def test_disc_derivatives_at_the_reference_pair(disc):
    _check_derivatives(disc, np.array([MU, 0.0]), np.array([-MU, 0.0]))


def test_robin_is_the_regular_part_diagonal(rng):
    # every domain, including the bumped one where the closed-form
    # shortcut does not apply verbatim
    for dom in (WholePlane(), UnitDisc(), PerturbedDisc()):
        for _ in range(25):
            (x,) = random_disc_points(rng, 1)
            assert dom.robin(x) == pytest.approx(dom.regular_part(x, x),
                                                 abs=1e-14)


def test_perturbed_disc_derivatives_and_symmetry(rng):
    dom = PerturbedDisc()
    disc = UnitDisc()
    saw_difference = False
    for _ in range(100):
        x, y = random_pair(rng)
        assert abs(dom.regular_part(x, y) - dom.regular_part(y, x)) <= 1e-14
        if abs(dom.regular_part(x, y) - disc.regular_part(x, y)) > 1e-6:
            saw_difference = True
        _check_derivatives(dom, x, y)
    assert saw_difference  # the bump actually changes the kernel


def test_perturbed_disc_bump_scales_with_epsilon():
    x = np.array([0.3, 0.1])
    y = np.array([-0.2, 0.4])
    base = UnitDisc().regular_part(x, y)
    for eps in (1e-2, 5e-2):
        bump = PerturbedDisc(epsilon=eps).regular_part(x, y) - base
        expected = eps * (x[0] * y[0] + 2 * x[1] * y[1] + x[0] + y[0])
        assert bump == pytest.approx(expected, abs=1e-14)


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------

def test_many_variants_match_scalar_loops(disc, rng):
    # the batched forms return all-pairs tables over (px[i], py[j])
    n, m = 7, 5
    px = random_disc_points(rng, n, min_sep=0.05)
    py = random_disc_points(rng, m, min_sep=0.05)
    vals = disc.regular_part_many(px, py)
    grads = disc.grad_regular_many(px, py)
    h11, h21 = disc.hess_regular_many(px, py)
    assert vals.shape == (n, m)
    assert grads.shape == (n, m, 2)
    assert h11.shape == h21.shape == (n, m, 2, 2)
    for i in range(n):
        for j in range(m):
            full = disc.hess_regular(px[i], py[j])
            assert vals[i, j] == pytest.approx(
                disc.regular_part(px[i], py[j]), abs=1e-14)
            assert np.allclose(grads[i, j],
                               disc.grad_regular(px[i], py[j])[0],
                               atol=1e-13)
            assert np.allclose(h11[i, j], full[:2, :2], atol=1e-12)
            assert np.allclose(h21[i, j], full[:2, 2:], atol=1e-12)


@pytest.mark.parametrize("domain", [UnitDisc(), PerturbedDisc(3e-2),
                                    WholePlane()],
                         ids=["disc", "perturbed-disc", "plane"])
def test_assembled_regular_gradient_is_the_contracted_table(domain, rng):
    # the assembly's regular-part gradient 2 sum_j W_ij d_x g(p_i, p_j),
    # W = -gamma gamma^T, read from the complex coefficients without the
    # (n, n, 2) table, with two points at clearance 1e-6, where terms of
    # size 1/clearance^2 meet; each row must agree to 1e-8 of its norm
    th = rng.uniform(0.0, 2.0 * np.pi, size=2)
    wall = (1.0 - 1e-6) * np.column_stack([np.cos(th), np.sin(th)])
    p = np.vstack([random_disc_points(rng, 5, min_sep=0.05), wall])
    gam = rng.choice([-1.0, 1.0], size=len(p)) * rng.uniform(0.5, 2.0, len(p))
    W = -np.outer(gam, gam)
    want = 2.0 * np.einsum("ij,ija->ia", W, domain.grad_regular_many(p, p))
    # no kernel pair, so D is the regular part's alone
    frame = interaction_frame(gam, np.full(W.shape, False))
    _, D, _ = assemble_interaction(complex_points(p), domain, frame, order=1)
    err = np.linalg.norm(D.conj().view(float).reshape(-1, 2) - want, axis=1)
    assert np.all(err <= 1e-8 * np.linalg.norm(want, axis=1))


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------

def test_interior_margin_enforced(disc, plane):
    disc.check_interior(np.array([0.5, 0.0]))
    with pytest.raises(DomainViolationError):
        disc.check_interior(np.array([1.0 - 1e-12, 0.0]))
    with pytest.raises(DomainViolationError):
        disc.check_interior(np.array([1.5, 0.0]))
    assert disc.contains(np.array([0.9, 0.0]))
    assert not disc.contains(np.array([1.1, 0.0]))
    # membership is the clearance read against the margin, for every
    # domain; non-finite points are never inside
    finite = ([0.0, 0.0], [0.9, 0.0], [1.0 - 1e-12, 0.0], [0.0, -1.1],
              [3.0, 4.0])
    non_finite = ([np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan])
    for domain in (disc, PerturbedDisc(), plane):
        for x in finite + non_finite:
            assert domain.contains(x) == \
                (domain.boundary_clearance(x) > BOUNDARY_MARGIN)
        for x in non_finite:
            assert not domain.contains(x)
    assert plane.contains([3.0, 4.0])


def test_boundary_clearance(disc, plane):
    assert disc.boundary_clearance(np.array([0.25, 0.0])) \
        == pytest.approx(0.75)
    assert plane.boundary_clearance(np.array([100.0, 3.0])) == np.inf
    # a batch of points, (..., 2), reads one clearance per point
    batch = np.array([[[0.25, 0.0], [0.0, 0.5], [np.nan, 0.0]]] * 2)
    for domain in (disc, plane):
        c = domain.boundary_clearance(batch)
        assert c.shape == (2, 3)
        assert np.array_equal(c[1], [domain.boundary_clearance(x)
                                     for x in batch[1]], equal_nan=True)
        assert np.ndim(domain.boundary_clearance(batch[0, 0])) == 0


def test_domain_factory():
    assert isinstance(make_domain("plane"), WholePlane)
    assert isinstance(make_domain("disc"), UnitDisc)
    assert isinstance(make_domain("disk"), UnitDisc)
    pd = make_domain("perturbed-disc")
    assert isinstance(pd, PerturbedDisc)
    assert pd.epsilon == 1e-2
    with pytest.raises(ValueError):
        make_domain("annulus")


def test_regular_part_raises_typed_error_for_nonpositive_q():
    # a clearance that admits points on the circle, where q(x, x) = 0;
    # the check must hold under `python -O` too, so it is not an assert
    disc = UnitDisc()
    disc.boundary_clearance = lambda x: 1.0
    with pytest.raises(DomainViolationError, match="not finite"):
        disc.regular_part([1.0, 0.0], [1.0, 0.0])
