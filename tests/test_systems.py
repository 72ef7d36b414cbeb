"""Interaction energies, their derivatives, and the rescaled system."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fdtools import fd_gradient, fd_jacobian, rel_error
import real_assembly

from vortexlab import (
    CollisionError,
    ConstraintViolationError,
    DomainViolationError,
    PerturbedDisc,
    RelativeEquilibrium,
    RescaledSystem,
    SuperpositionSpec,
    UnitDisc,
    VortexSystem,
    WholePlane,
    assemble_interaction,
    evaluate_point,
    m_gradient,
    m_hamiltonian,
    make_pair,
    make_trivial,
    normalize,
    perp,
    rotate_all,
)
from vortexlab.linalg import complex_points, pairs, real_blocks, state_points
from vortexlab.systems import interaction_frame
from conftest import (MU, build_figure1_spec, build_thomson3_spec,
                      random_disc_points, random_plane_points)

PI = np.pi


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------

def test_zero_strength_rejected():
    with pytest.raises(ConstraintViolationError):
        VortexSystem((1.0, 0.0), (2,))


def test_bad_cluster_layout_rejected():
    with pytest.raises(ConstraintViolationError):
        VortexSystem((1.0, 1.0, 1.0), (2, 2))
    with pytest.raises(ConstraintViolationError):
        VortexSystem((1.0, 1.0), (2, 0))


@pytest.mark.parametrize("build", [
    lambda bad: VortexSystem((bad, 1.0), (2,)),
    lambda bad: RescaledSystem(VortexSystem((1.0, -1.0), (1, 1), UnitDisc()),
                               np.array([[MU, 0.0], [-MU, 0.0]]), bad),
    lambda bad: RescaledSystem(VortexSystem((1.0, -1.0), (1, 1), UnitDisc()),
                               np.array([[MU, 0.0], [-MU, 0.0]]), 0.1,
                               (bad, 0.0)),
    lambda bad: PerturbedDisc(bad),
    lambda bad: RelativeEquilibrium((bad, 1.0), [[0.5, 0], [-0.5, 0]]),
    lambda bad: RelativeEquilibrium((1.0, 1.0), [[bad, 0], [-0.5, 0]]),
    # an angular velocity enters only as normalize's target
    lambda bad: normalize(make_pair(0.5, 0.5), bad),
], ids=["strengths", "scale", "frame-omega", "epsilon",
        "equilibrium-strengths", "equilibrium-positions",
        "angular-velocity"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_number_is_refused_where_it_enters(build, bad):
    with pytest.raises(ConstraintViolationError, match="must be finite"):
        build(bad)


def test_layout_properties():
    sys = VortexSystem((1.0, 2.0, 3.0, -1.0), (2, 2))
    assert sys.n == 4 and sys.n_clusters == 2
    assert np.allclose(sys.cluster_strengths, [3.0, 2.0])
    assert list(sys.cluster_index) == [0, 0, 1, 1]
    assert np.allclose(sys.weights, [1, 1, 2, 2, 3, 3, -1, -1])


# ---------------------------------------------------------------------------
# closed-form values (whole plane)
# ---------------------------------------------------------------------------

def test_plane_pair_energy_closed_form():
    sys = VortexSystem((1.0, 1.0), (2,))
    for d in (0.5, 1.0, 2.0):
        z = np.array([d / 2, 0.0, -d / 2, 0.0])
        assert sys.hamiltonian(z) == pytest.approx(-np.log(d) / PI,
                                                   abs=1e-14)
    # unit separation: the double-counted pair term is exactly zero
    assert sys.hamiltonian(np.array([0.5, 0, -0.5, 0])) == pytest.approx(0.0)


def test_plane_pair_gradient_closed_form(rng):
    sys = VortexSystem((1.0, 1.0), (2,))
    for _ in range(10):
        p = random_plane_points(rng, 2)
        z = p.reshape(-1)
        diff = p[0] - p[1]
        d2 = float(diff @ diff)
        grad = sys.gradient(z)
        assert np.allclose(grad[:2], -diff / (PI * d2), atol=1e-13)
        assert np.allclose(grad[2:], diff / (PI * d2), atol=1e-13)


def test_single_plane_vortex_is_free():
    sys = VortexSystem((2.5,), (1,))
    z = np.array([0.7, -1.3])
    assert sys.hamiltonian(z) == 0.0
    assert np.all(sys.vector_field(z) == 0.0)


def test_disc_energy_matches_anchor_energy():
    # one vortex per cluster: the system energy IS the anchor energy
    disc = UnitDisc()
    sys = VortexSystem((1.0, -1.0), (1, 1), disc)
    z = np.array([MU, 0.0, -MU, 0.0])
    assert sys.hamiltonian(z) == pytest.approx(
        m_hamiltonian((1.0, -1.0), disc, z), abs=1e-14)


# ---------------------------------------------------------------------------
# derivatives against finite differences
# ---------------------------------------------------------------------------

def _fd_state_checks(sys, z):
    assert rel_error(sys.gradient(z), fd_gradient(sys.hamiltonian, z)) <= 1e-6
    hess = sys.hessian(z)
    assert np.allclose(hess, hess.T, atol=1e-12)
    assert rel_error(hess, fd_jacobian(sys.gradient, z)) <= 1e-6
    assert rel_error(sys.field_jacobian(z),
                     fd_jacobian(sys.vector_field, z)) <= 1e-6


def test_disc_derivatives_match_finite_differences(disc, rng):
    sys = VortexSystem((1.0, -0.5, 2.0), (3,), disc)
    for _ in range(100):
        z = random_disc_points(rng, 3).reshape(-1)
        _fd_state_checks(sys, z)


def test_plane_derivatives_match_finite_differences(rng):
    sys = VortexSystem((1.0, 1.0, -0.5), (2, 1))
    for _ in range(100):
        z = random_plane_points(rng, 3).reshape(-1)
        _fd_state_checks(sys, z)


def test_field_is_weighted_quarter_turn_of_gradient(disc, rng):
    # field rows are perp(grad rows) / strength, perp(x, y) = (y, -x)
    sys = VortexSystem((1.0, -2.0), (1, 1), disc)
    for _ in range(20):
        z = random_disc_points(rng, 2).reshape(-1)
        grad = sys.gradient(z)
        field = sys.vector_field(z)
        for i, gam in enumerate(sys.gamma):
            gx, gy = grad[2 * i], grad[2 * i + 1]
            assert field[2 * i] == pytest.approx(gy / gam, abs=1e-14)
            assert field[2 * i + 1] == pytest.approx(-gx / gam, abs=1e-14)


def test_rigid_rotation_field_of_the_reference_pair():
    # strengths (1/2, 1/2) at distance 1/sqrt(pi) rotate with |omega| = 1
    d = 1.0 / np.sqrt(PI)
    sys = VortexSystem((0.5, 0.5), (2,))
    z = np.array([d / 2, 0.0, -d / 2, 0.0])
    omega = -1.0
    h = 1e-7
    dz = (rotate_all(z, -omega * h) - rotate_all(z, omega * h)) / (2.0 * h)
    assert np.allclose(sys.vector_field(z), dz, atol=1e-7)


def test_energy_rotation_invariance_in_disc(disc, rng):
    sys = VortexSystem((1.0, -1.0, 0.5), (3,), disc)
    for _ in range(20):
        z = random_disc_points(rng, 3).reshape(-1)
        theta = rng.uniform(0, 2 * PI)
        assert abs(sys.hamiltonian(rotate_all(z, -theta))
                   - sys.hamiltonian(z)) <= 1e-12


def test_plane_energy_translation_invariance(rng):
    sys = VortexSystem((1.0, 2.0), (2,))
    z = random_plane_points(rng, 2).reshape(-1)
    shift = np.tile(rng.uniform(-1, 1, size=2), 2)
    assert sys.hamiltonian(z + shift) == pytest.approx(sys.hamiltonian(z),
                                                       abs=1e-12)


# ---------------------------------------------------------------------------
# complex assembly against the real einsum assembly it replaced
# ---------------------------------------------------------------------------

ORACLE_DOMAINS = {"plane": WholePlane(), "disc": UnitDisc(),
                  "perturbed": PerturbedDisc(3e-2)}


def _wall_point(rng):
    th = rng.uniform(0.0, 2.0 * PI)
    return (1.0 - 1e-6) * np.array([np.cos(th), np.sin(th)])


def _real_form(parts):
    """(value, real gradient, real Hessian) of a complex assembly's
    (value, D, (L, K)), None where it has None."""
    value, D, LK = parts
    return (value, None if D is None else D.conj().view(float),
            None if LK is None else real_blocks(*LK))


def _oracle_case(case, domain, ref_domain, scale, wall, rng, rows):
    """(complex assembly, reference assembly) of one case drawn by the
    oracle test, over a batch of `rows` states: order -> the batch's
    (value, D, (L, K)) from one call, and order -> each state's (value,
    grad, hess)."""
    def points():
        p = random_disc_points(rng, 5, min_sep=0.05)
        if wall:
            p[:2] = _wall_point(rng), _wall_point(rng)
        return p

    if case in ("generic", "system"):
        p = np.array([points() for _ in range(rows)])
    if case in ("generic", "system"):
        gam = rng.choice([-1.0, 1.0], size=5) * rng.uniform(0.5, 2.0, size=5)
        A = np.outer(gam, gam)
    if case == "generic":
        # a random pair mask with its diagonal set, which must be
        # ignored, and a masked pair whose points coincide
        mask = rng.random((5, 5)) < 0.7
        mask = mask & mask.T | np.eye(5, dtype=bool)
        mask[2, 3] = mask[3, 2] = False
        p[:, 3] = p[:, 2]
        return (lambda k: assemble_interaction(
                    complex_points(p), domain, interaction_frame(gam, mask),
                    order=k),
                lambda k: [real_assembly.assemble_interaction(
                    q, A * mask, -A, ref_domain, k) for q in p])
    if case == "system":
        system = VortexSystem(tuple(gam), (1,) * 5, domain)
        return (lambda k: system._assemble(complex_points(p), k),
                lambda k: [real_assembly.assemble_interaction(
                    q, A, -A, ref_domain, k) for q in p])
    # anchors off the critical point, where the coupling gradient vanishes
    anchor = random_disc_points(rng, 2, margin=0.3, min_sep=0.3)
    rs = RescaledSystem(VortexSystem((-1.0, -1.0, 1.0, 1.0), (2, 2), domain),
                        anchor, scale)
    u = np.array([_pair_cluster_state(rng) for _ in range(rows)])
    A = np.outer(rs.gamma, rs.gamma)
    if wall and scale > 0.0:
        for v in u:
            v[:2] = (_wall_point(rng) - rs.anchor[0]) / scale
    if case == "rescaled":
        return (lambda k: rs._assemble(state_points(u), k),
                lambda k: [real_assembly.assemble_interaction(
                    pairs(v), A, -A, ref_domain, k,
                    frame=real_assembly.real_frame(rs)) for v in u])
    # at r = 0 the coupling's masked intra-cluster pairs coincide
    w = scale * u
    return (lambda k: rs._coupling_parts(w, k),
            lambda k: [real_assembly.assemble_interaction(
                pairs(x) + rs._ahat, A * ~rs._intra, -A, ref_domain, k)
                for x in w])


def _rows_agree(got, want, tol):
    err = np.linalg.norm(got - want, axis=1)
    return bool(np.all(err <= tol * np.linalg.norm(want, axis=1)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(ORACLE_DOMAINS)),
       case=st.sampled_from(["generic", "system", "rescaled", "coupling"]),
       scale=st.sampled_from([0.1, 1e-6, 0.0]), wall=st.booleans(),
       rows=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_complex_assembly_matches_the_real_einsum_assembly(kind, case, scale,
                                                           wall, rows, seed):
    # value, gradient and Hessian at orders 0, 1 and 2 of a batch of
    # states from one call, written out in real form, against the
    # (N, N, 2, 2) einsum assembly of each state (tests/real_assembly.py).
    # With points at wall clearance 1e-6 the reference takes q exactly,
    # and each row must agree to 1e-8 of its norm (measured: 3.5e-10);
    # elsewhere to 1e-12 (measured: 6.0e-15)
    rng = np.random.default_rng(seed)
    domain = ORACLE_DOMAINS[kind]
    tol = 1e-8 if wall else 1e-12
    got, want = _oracle_case(case, domain,
                             real_assembly.real_domain(domain, exact_q=wall),
                             scale, wall, rng, rows)
    values = got(0)[0]
    assert values.shape == (rows,)
    for value, (ref_value, _, _) in zip(values, want(0)):
        assert abs(value - ref_value) <= tol * max(1.0, abs(ref_value))
    for order in (1, 2):
        _, grad, hess = _real_form(got(order))
        assert (hess is None) == (order == 1)
        for row, (_, ref_grad, ref_hess) in enumerate(want(order)):
            assert _rows_agree(grad[row].reshape(-1, 2),
                               ref_grad.reshape(-1, 2), tol)
            if order == 2:
                assert _rows_agree(hess[row], ref_hess, tol)


# ---------------------------------------------------------------------------
# state validation
# ---------------------------------------------------------------------------

def test_validate_state_guards(disc):
    sys = VortexSystem((1.0, -1.0), (1, 1), disc)
    sys.validate_state(np.array([0.3, 0.0, -0.3, 0.0]))
    with pytest.raises(CollisionError):
        sys.validate_state(np.array([0.3, 0.0, 0.3, 1e-12]))
    with pytest.raises(DomainViolationError):
        sys.validate_state(np.array([0.3, 0.0, 1.2, 0.0]))


def _screen_case(kind):
    """A system of four vortices, in two clusters of two where it has
    clusters, with whether it has a wall to clear."""
    if kind in ("disc", "plane"):
        domain = UnitDisc() if kind == "disc" else WholePlane()
        return (VortexSystem((1.0, -0.7, 1.3, 0.5), (1, 1, 1, 1), domain),
                kind == "disc")
    scale = 0.1 if kind == "rescaled" else 0.0
    base = VortexSystem((-1.0, -1.0, 1.0, 1.0), (2, 2), UnitDisc())
    return RescaledSystem(base, [[-0.4, 0.0], [0.4, 0.0]], scale), scale > 0


def _outcome(check):
    try:
        return check(), None
    except (CollisionError, DomainViolationError) as exc:
        return None, exc


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(kind=st.sampled_from(["disc", "plane", "rescaled", "rescaled-r0"]),
       seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 9),
       faults=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 3),
                                 st.sampled_from(["wall", "collision",
                                                  "nan", "inf"])),
                       max_size=3))
def test_batched_screen_matches_one_row_checks(kind, seed, n_rows, faults):
    # the screen of a batch raises what a loop of one-row checks raises
    # first, or returns what they return, and warns about nothing
    system, has_wall = _screen_case(kind)
    rng = np.random.default_rng(seed)
    points = random_disc_points if kind == "disc" else random_plane_points
    ys = np.array([points(rng, 4).reshape(-1) for _ in range(n_rows)])
    if kind == "rescaled-r0":
        # the clusters overlap in every other row, which the mask allows
        ys[::2, 4:] = ys[::2, :4]
    times = np.sort(rng.uniform(0.0, 1.0, n_rows))
    failing = {}  # row -> whether the wall fails there
    # collisions first, so that a later fault on a member is not undone
    for row, k, fault in sorted(faults, key=lambda f: f[2] != "collision"):
        row %= n_rows
        p = ys[row].reshape(4, 2)
        if fault == "wall" and has_wall:
            p[k] = [30.0, 0.0]
        elif fault == "collision":
            i = k - k % 2  # a pair within a cluster
            p[i + 1] = p[i] + [0.0, 1e-12]
        elif fault in ("nan", "inf"):
            p[k, k % 2] = np.nan if fault == "nan" else -np.inf
        else:
            continue
        failing[row] = failing.get(row, False) or fault != "collision"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch, error = _outcome(lambda: system.screen(ys, times))
        loop, first = _outcome(lambda: np.array(
            [system.validate_state(y, t) for y, t in zip(ys, times)]))
    assert type(error) is type(first)
    if not failing:
        assert error is None and np.array_equal(batch, loop)
        return
    row = min(failing)
    assert isinstance(error, DomainViolationError if failing[row]
                      else CollisionError)
    assert error.time == first.time == times[row]
    if failing[row]:
        assert error.index == first.index
    else:
        assert error.pair == first.pair
        assert error.distance == first.distance


def test_min_separation():
    sys = VortexSystem((1.0, 1.0, 1.0), (3,))
    z = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.75])
    assert sys.validate_state(z) == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# rescaled system
# ---------------------------------------------------------------------------

def _figure1_rescaled(scale, anchor=None):
    disc = UnitDisc()
    base = VortexSystem((-1.0, -1.0, 1.0, 1.0), (2, 2), disc)
    if anchor is None:
        anchor = np.array([[MU, 0.0], [-MU, 0.0]])
    return RescaledSystem(base, anchor, scale)


def _pair_cluster_state(rng, radius=0.3):
    """Two centered pair shapes, one per cluster, in u-coordinates."""
    out = []
    for _ in range(2):
        ang = rng.uniform(0, 2 * PI)
        r = radius * (0.5 + rng.uniform(0, 0.5))
        p = r * np.array([np.cos(ang), np.sin(ang)])
        out.extend([p, -p])
    return np.array(out).reshape(-1)


def test_rescaled_constructor_guards(disc):
    base = VortexSystem((-1.0, -1.0, 1.0, 1.0), (2, 2), disc)
    with pytest.raises(ConstraintViolationError):
        RescaledSystem(base, np.zeros((3, 2)), 0.1)
    with pytest.raises(ConstraintViolationError):
        RescaledSystem(base, np.array([[0.3, 0], [-0.3, 0]]), -0.1)
    with pytest.raises(CollisionError):
        RescaledSystem(base, np.array([[0.3, 0], [0.3, 0]]), 0.1)
    with pytest.raises(DomainViolationError):
        RescaledSystem(base, np.array([[0.3, 0], [1.4, 0]]), 0.1)
    with pytest.raises(ConstraintViolationError, match="one per cluster"):
        RescaledSystem(base, np.array([[0.3, 0], [-0.3, 0]]), 0.1, (1.0,))


def test_anchor_hat_and_physical_map():
    rs = _figure1_rescaled(0.1)
    hat = rs.anchor_hat
    assert hat.shape == (8,)
    assert np.allclose(hat, [MU, 0, MU, 0, -MU, 0, -MU, 0])
    u = np.arange(8.0)
    assert np.allclose(rs.to_physical(u), 0.1 * u + hat)


def _skeleton_energy(anchor):
    """Energy of one vortex of each cluster's summed strength at its
    anchor."""
    return m_hamiltonian((-2.0, 2.0), UnitDisc(), np.reshape(anchor, -1))


def test_skeleton_energy_is_summed_strength_anchor_energy(rng):
    # E_r(u) is H(r u + anchor_hat) less the skeleton energy, except
    # that intra-cluster pairs read u_i - u_j: each drops the
    # -(1/2pi) log r that k(r (u_i - u_j)) carries in physical variables
    full = VortexSystem((-1.0, -1.0, 1.0, 1.0), (2, 2), UnitDisc())
    intra_pairs = 2 * (1.0 + 1.0)  # ordered pairs, Gamma_i Gamma_j = 1
    for r in (0.1, 0.05):
        rs = _figure1_rescaled(r)
        skeleton = _skeleton_energy([MU, 0.0, -MU, 0.0])
        for _ in range(5):
            u = _pair_cluster_state(rng)
            expected = (full.hamiltonian(rs.to_physical(u))
                        + intra_pairs * np.log(r) / (2 * PI) - skeleton)
            assert rs.hamiltonian(u) == pytest.approx(expected, abs=1e-12)


def test_coupling_at_zero_equals_skeleton_energy(rng):
    rs = _figure1_rescaled(0.1)
    skeleton = _skeleton_energy(rs.anchor)
    assert abs(rs.coupling(np.zeros(8)) - skeleton) <= 1e-12
    for _ in range(10):
        anchor = random_disc_points(rng, 2, margin=0.25, min_sep=0.4)
        rs = _figure1_rescaled(0.1, anchor)
        assert abs(rs.coupling(np.zeros(8)) - _skeleton_energy(anchor)) <= 1e-12


def test_coupling_gradient_ties_members_to_anchor_gradient(rng):
    # cluster total times the member row of grad F(0) equals the member
    # strength times the anchor-energy gradient row, at any anchor
    for _ in range(10):
        anchor = random_disc_points(rng, 2, margin=0.25, min_sep=0.4)
        rs = _figure1_rescaled(0.1, anchor)
        gF = rs.coupling_grad(np.zeros(8)).reshape(4, 2)
        gH = m_gradient((-2.0, 2.0), UnitDisc(), anchor.reshape(-1))
        gH = gH.reshape(2, 2)
        totals = rs.base.cluster_strengths
        members = rs.base.gamma
        ci = rs.base.cluster_index
        assert np.linalg.norm(gH) > 1e-3  # generic anchors are not critical
        for j in range(4):
            k = ci[j]
            assert np.allclose(totals[k] * gF[j], members[j] * gH[k],
                               atol=1e-10)


def test_coupling_hessian_tiled_action_matches_anchor_hessian(rng):
    from vortexlab import m_hessian

    for trial in range(10):
        anchor = random_disc_points(rng, 2, margin=0.25, min_sep=0.4)
        rs = _figure1_rescaled(0.1, anchor)
        hF = rs.coupling_hess(np.zeros(8))
        hH = m_hessian((-2.0, 2.0), UnitDisc(), anchor.reshape(-1))
        totals = rs.base.cluster_strengths
        members = rs.base.gamma
        ci = rs.base.cluster_index
        sizes = rs.base.cluster_sizes
        for _ in range(2):  # 20 random tilt vectors over the trials
            a = rng.normal(size=4)
            a_hat = np.repeat(a.reshape(2, 2), sizes, axis=0).reshape(-1)
            lhs = (hF @ a_hat).reshape(4, 2)
            rhs = (hH @ a).reshape(2, 2)
            for j in range(4):
                k = ci[j]
                assert np.allclose(totals[k] * lhs[j], members[j] * rhs[k],
                                   atol=1e-9)


def test_rescaled_gradient_identity(rng):
    # grad E_r(u) = r * grad H(r u + anchor_hat)
    full = VortexSystem((-1.0, -1.0, 1.0, 1.0), (2, 2), UnitDisc())
    for r in (0.1, 0.05):
        rs = _figure1_rescaled(r)
        for _ in range(25):
            u = _pair_cluster_state(rng)
            lhs = rs.gradient(u)
            rhs = r * full.gradient(rs.to_physical(u))
            assert np.linalg.norm(lhs - rhs) <= 1e-10


def test_rescaled_derivatives_match_finite_differences(rng):
    rs = _figure1_rescaled(0.1)
    for _ in range(25):
        u = _pair_cluster_state(rng)
        assert rel_error(rs.gradient(u),
                         fd_gradient(rs.rescaled_hamiltonian, u)) <= 1e-6
        assert rel_error(rs.hessian(u),
                         fd_jacobian(rs.gradient, u)) <= 1e-6
        assert rel_error(rs.field_jacobian(u),
                         fd_jacobian(rs.rescaled_field, u)) <= 1e-6


def _split_field_and_jacobian(rs, u):
    """Reference: cluster part on u plus the coupling F at r*u, assembled
    separately, as grad E_r = grad E_clusters(u) + r grad F(r u)."""
    r = rs.scale
    gam = rs.base.gamma
    ci = rs.base.cluster_index
    _, g0, H0 = _real_form(assemble_interaction(
        complex_points(pairs(u)), WholePlane(),
        interaction_frame(gam, ci[:, None] == ci[None, :])))
    grad = g0 + r * rs.coupling_grad(r * u)
    hess = H0 + r**2 * rs.coupling_hess(r * u)
    w = np.repeat(gam, 2)
    return perp(grad) / w, perp(hess.T).T / w[:, None]


@pytest.mark.parametrize("domain", [UnitDisc(), PerturbedDisc()],
                         ids=["disc", "perturbed"])
@pytest.mark.parametrize("scale", [0.1, 1e-3, 1e-6])
def test_fused_field_and_jacobian_match_split_and_fd(rng, domain, scale):
    base = VortexSystem((-1.0, -1.0, 1.0, 1.0), (2, 2), domain)
    rs = RescaledSystem(base, np.array([[MU, 0.0], [-MU, 0.0]]), scale)
    for _ in range(5):
        u = _pair_cluster_state(rng)
        field, jac = rs.field_and_jacobian(u)
        ref_field, ref_jac = _split_field_and_jacobian(rs, u)
        assert rel_error(field, ref_field) <= 1e-13
        assert rel_error(jac, ref_jac) <= 1e-13
        assert np.array_equal(field, rs.rescaled_field(u))
        assert np.array_equal(jac, rs.field_jacobian(u))
        assert rel_error(jac, fd_jacobian(rs.rescaled_field, u)) <= 1e-6
        assert rel_error(rs.gradient(u),
                         fd_gradient(rs.rescaled_hamiltonian, u)) <= 1e-6


# ---------------------------------------------------------------------------
# co-rotating frames
# ---------------------------------------------------------------------------

def _trivial_cluster_spec(scale):
    """A lone vortex (omega 0) and a pair on the disc dipole's anchors."""
    anchors = evaluate_point((-2.0, 2.0), UnitDisc(), [[MU, 0.0], [-MU, 0.0]])
    return SuperpositionSpec(anchors,
                             (make_trivial(-2.0), make_pair(0.5, 1.5)),
                             UnitDisc(), (0.0,), scale)


FRAME_SPECS = {"figure1": build_figure1_spec,
               "thomson3": build_thomson3_spec,
               "trivial": _trivial_cluster_spec}


@pytest.fixture(scope="session")
def frame_cases():
    """(name, scale) -> (rescaled system, torus point, each vortex's
    frame angular velocity read off the clusters, 0 on a trivial one)."""
    cases = {}
    for name, build in FRAME_SPECS.items():
        for scale in (0.1, 0.0):
            spec = build(scale)
            omega = np.repeat([0.0 if eq.is_trivial else eq.angular_velocity
                               for eq in spec.clusters], spec.cluster_sizes)
            cases[name, scale] = spec.rescaled, spec.torus_point(), omega
    return cases


def _turn_by_hand(omega, t):
    """(R, Omega): the real block-diagonal matrices of multiplying each
    vortex's complex point by exp(i omega t) and by i omega."""
    n = omega.size
    c, s = np.cos(omega * t), np.sin(omega * t)
    R, Omega = np.zeros((2 * n, 2 * n)), np.zeros((2 * n, 2 * n))
    for i in range(n):
        R[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[c[i], -s[i]], [s[i], c[i]]]
        Omega[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[0.0, -omega[i]],
                                                   [omega[i], 0.0]]
    return R, Omega


@settings(derandomize=True, database=None, max_examples=90, deadline=None)
@given(case=st.sampled_from(sorted(FRAME_SPECS)), t=st.floats(-40.0, 40.0),
       seed=st.integers(0, 2**32 - 1))
def test_corotating_field_is_the_lab_assembly_turned_by_hand(frame_cases,
                                                             case, t, seed):
    # v = exp(i omega t) u per vortex: V(t, v) = R f(R^T v) + Omega v and
    # DV = R J R^T + Omega, with f and J the lab field and Jacobian
    rs, u0, omega = frame_cases[case, 0.1]
    # a whole number of turns (t = 0 among them) would hide a wrong sign
    assume(np.max(np.abs(np.sin(omega * t / 2.0))) > 0.1)
    v = u0 + 0.05 * np.random.default_rng(seed).standard_normal(u0.size)
    R, Omega = _turn_by_hand(omega, t)
    u = R.T @ v
    field, jac = rs.field_and_jacobian(v, t)
    assert rel_error(field, R @ rs.vector_field(u) + Omega @ v) <= 1e-13
    assert rel_error(jac, R @ rs.field_jacobian(u) @ R.T + Omega) <= 1e-13
    assert np.array_equal(field, rs.vector_field(v, t))
    assert np.array_equal(jac, rs.field_jacobian(v, t))
    assert np.max(np.abs(rs.to_lab(t, v) - u)) <= 1e-15
    assert np.max(np.abs(rs.to_frame(t, u) - v)) <= 1e-15


@pytest.mark.parametrize("case", sorted(FRAME_SPECS))
def test_rigidly_rotating_clusters_rest_in_their_frames(frame_cases, case):
    # at r = 0 each cluster's rigid motion solves the decoupled system
    # exactly, so its co-rotating state is at rest; a drift i omega v of
    # the wrong sign reads 2 |omega u| instead (the oracle test above
    # ties the turn's sign to the drift's)
    rs, u0, omega = frame_cases[case, 0.0]
    assert np.any(omega != 0.0)
    for t in (0.0, 0.3, 2.0, -5.0):
        assert np.max(np.abs(rs.vector_field(u0, t))) <= 1e-13


@pytest.mark.parametrize("case", sorted(FRAME_SPECS))
def test_to_lab_turns_each_vortex_by_minus_its_frame_angle(frame_cases,
                                                           case):
    rs, u0, omega = frame_cases[case, 0.1]
    vs = u0 + 0.05 * np.random.default_rng(2).standard_normal((5, u0.size))
    ts = np.linspace(-3.0, 7.0, 5)
    assert np.array_equal(rs.to_lab(0.7, vs[0]),
                          rotate_all(vs[0], -omega * 0.7))
    assert np.array_equal(rs.to_lab(ts, vs),
                          rotate_all(vs, -np.multiply.outer(ts, omega)))


def test_a_system_without_rotation_reads_the_same_field_at_any_time(disc,
                                                                    rng):
    system = VortexSystem((1.0, -0.5, 2.0), (1, 1, 1), disc)
    z = random_disc_points(rng, 3).reshape(-1)
    field, jac = system.field_and_jacobian(z)
    for t in (0.0, 1.7):
        assert np.array_equal(system.vector_field(z, t), field)
        assert np.array_equal(system.field_jacobian(z, t), jac)
        assert system.to_lab(t, z) is z and system.to_frame(t, z) is z


# ---------------------------------------------------------------------------
# batches of states
# ---------------------------------------------------------------------------

def _batch_case(domain, which, states):
    """(system, its states) for the batch tests: figure 1's two pairs on
    their anchors at r = 0.1, as the plain system at the physical states
    of the rescaled states `states`, (..., 8), or as the rescaled system
    without or with co-rotating frames."""
    base = VortexSystem((-1.0, -1.0, 1.0, 1.0), (2, 2), domain)
    anchor = np.array([[MU, 0.0], [-MU, 0.0]])
    if which == "plain":
        return base, 0.1 * states + np.repeat(anchor, 2, axis=0).reshape(-1)
    omega = (-1.3, 0.7) if which == "rotating" else None
    return RescaledSystem(base, anchor, 0.1, omega), states


def _row_by_row(f, ys, *per_row):
    """f of each state of the batch ys alone, with its own entries of
    the arrays per_row, stacked back into the batch's shape."""
    lead = ys.shape[:-1]
    rows = zip(ys.reshape(-1, ys.shape[-1]),
               *(np.reshape(a, -1) for a in per_row))
    out = [f(*args) for args in rows]
    if isinstance(out[0], tuple):
        return tuple(np.reshape(part, (*lead, *np.shape(part[0])))
                     for part in map(np.array, zip(*out)))
    out = np.array(out)
    return out.reshape(*lead, *out.shape[1:])


def _bitwise_equal(got, want):
    """Equal shapes and bits, part by part for a tuple."""
    if isinstance(want, tuple):
        return len(got) == len(want) and all(map(np.array_equal, got, want))
    return np.array_equal(got, want)


@pytest.mark.parametrize("kind", sorted(ORACLE_DOMAINS))
@pytest.mark.parametrize("which", ["plain", "rescaled", "rotating"])
@pytest.mark.parametrize("lead", [(1,), (2, 3)], ids=["one", "2x3"])
def test_a_batch_of_states_equals_its_rows(rng, kind, which, lead):
    # one assembly over a batch reads each state bit for bit as a call
    # on that state alone does, for every quantity and at one time per
    # state or one for all
    states = np.array([_pair_cluster_state(rng) for _ in range(np.prod(lead))])
    system, ys = _batch_case(ORACLE_DOMAINS[kind], which,
                             states.reshape(*lead, -1))
    ts = rng.uniform(-5.0, 5.0, size=lead)
    for f in (system.hamiltonian, system.gradient, system.hessian,
              system.gradient_and_hessian):
        assert _bitwise_equal(f(ys), _row_by_row(f, ys))
    for f in (system.vector_field, system.field_and_jacobian):
        assert _bitwise_equal(f(ys, ts), _row_by_row(f, ys, ts))
        assert _bitwise_equal(f(ys, 0.7),
                              _row_by_row(f, ys, np.full(lead, 0.7)))
    if which != "plain":
        w = 0.1 * ys
        for f in (system.coupling, system.coupling_grad,
                  system.coupling_hess):
            assert _bitwise_equal(f(w), _row_by_row(f, w))


def test_thirty_two_disc_vortices_assemble_alike_in_every_form(rng):
    # the shape of the benchmark's simulate task, 32 positive vortices in
    # the unit disc, where the pair tables' matrix-vector products may
    # take other BLAS kernels than at N <= 5: a 2 x 3 batch equals its
    # rows bit for bit, the field is the field of field_and_jacobian bit
    # for bit, and the einsum oracle agrees to 1e-12 of each row's norm
    # (measured over 10 seeds: 2e-16 value, 3e-15 gradient, 5e-15 Hessian)
    gam = rng.permutation(0.5 + (np.arange(32) + rng.random(32)) / 32)
    system = VortexSystem(tuple(gam), (32,), UnitDisc())
    ys = np.array([random_disc_points(rng, 32, min_sep=0.05).reshape(-1)
                   for _ in range(6)]).reshape(2, 3, 64)
    for f in (system.hamiltonian, system.gradient, system.hessian,
              system.vector_field, system.field_and_jacobian):
        assert _bitwise_equal(f(ys), _row_by_row(f, ys))
    assert np.array_equal(system.vector_field(ys),
                          system.field_and_jacobian(ys)[0])
    A, ref_domain = np.outer(gam, gam), real_assembly.RealDisc()
    for y in ys.reshape(6, 64):
        value = real_assembly.assemble_interaction(pairs(y), A, -A,
                                                   ref_domain, 0)[0]
        _, grad, hess = real_assembly.assemble_interaction(pairs(y), A, -A,
                                                           ref_domain, 2)
        assert abs(system.hamiltonian(y) - value) <= 1e-12 * abs(value)
        assert _rows_agree(system.gradient(y).reshape(-1, 2),
                           grad.reshape(-1, 2), 1e-12)
        assert _rows_agree(system.hessian(y), hess, 1e-12)


def test_zero_scale_decouples_clusters(rng):
    rs = _figure1_rescaled(0.0)
    neg = VortexSystem((-1.0, -1.0), (2,))
    pos = VortexSystem((1.0, 1.0), (2,))
    for _ in range(10):
        u = _pair_cluster_state(rng)
        assert rs.rescaled_hamiltonian(u) == pytest.approx(
            neg.hamiltonian(u[:4]) + pos.hamiltonian(u[4:]), abs=1e-12)
        field = rs.rescaled_field(u)
        assert np.allclose(field[:4], neg.vector_field(u[:4]), atol=1e-13)
        assert np.allclose(field[4:], pos.vector_field(u[4:]), atol=1e-13)


def test_zero_scale_allows_intercluster_overlap():
    rs = _figure1_rescaled(0.0)
    # both clusters hold the same shape; only intra-cluster collisions count
    u = np.array([0.2, 0.0, -0.2, 0.0, 0.2, 0.0, -0.2, 0.0])
    rs.validate_state(u)
    with pytest.raises(CollisionError):
        rs.validate_state(np.array([0.2, 0.0, 0.2, 0.0,
                                    0.2, 0.0, -0.2, 0.0]))


def test_positive_scale_validates_physical_state():
    rs = _figure1_rescaled(0.1)
    rs.validate_state(np.array([0.2, 0.0, -0.2, 0.0, 0.2, 0.0, -0.2, 0.0]))
    # u large enough to push members outside the disc at r = 0.1
    with pytest.raises(DomainViolationError):
        rs.validate_state(np.array([6.0, 0.0, -0.2, 0.0,
                                    0.2, 0.0, -0.2, 0.0]))


@pytest.mark.parametrize("scale", [0.0, 0.1])
def test_state_length_must_match_the_system(scale):
    rs = _figure1_rescaled(scale)
    for system in (rs.base, rs):
        with pytest.raises(ConstraintViolationError):
            system.validate_state(np.array([0.2, 0.0, -0.2, 0.0, 0.1, 0.1]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_zero_scale_rejects_a_non_finite_guarded_state(bad):
    # at r = 0 there is no wall to clear, and a NaN pair distance is no
    # closest pair, so only the finiteness of the positions catches it
    rs = RescaledSystem(VortexSystem((1.0, 1.0, 1.0), (3,)), [[0.0, 0.0]], 0.0)
    assert rs.validate_state([0.0, 0.0, 1.0, 0.0, 0.0, 1.0]) == 1.0
    with pytest.raises(DomainViolationError) as info:
        rs.validate_state([0.0, 0.0, bad, 0.0, 0.0, 1.0])
    assert info.value.index == 1
