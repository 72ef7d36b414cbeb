"""Critical-point search and classification of the anchor energy."""

import json

import numpy as np
import pytest

from vortexlab import (Classification, CollisionError,
                       ConstraintViolationError, ConvergenceError,
                       DomainViolationError, PerturbedDisc, WholePlane,
                       aligned_distance, classify, evaluate_point,
                       find_critical_point, m_gradient, m_hamiltonian,
                       m_hessian, rotate_all)
from vortexlab import stationary, systems
from vortexlab.domains import SymmetryClass
from vortexlab.stationary import (DIPOLE_OFFSET, _classify_kernel,
                                  kernel_generators)

from conftest import MU


def closed_form_dipole_hessian() -> np.ndarray:
    # frozen closed form for the dipole curvature matrix; the entries
    # reduce to one another through the quartic the offset satisfies
    m2 = MU * MU
    a = (-6.0 * m2 + 1.0) / (26.0 * m2 - 6.0)
    b = (4.0 * m2 - 1.0) / (26.0 * m2 - 6.0)
    c = (m2 + 1.0) / (20.0 * m2 - 4.0)
    d = (3.0 * m2 - 1.0) / (20.0 * m2 - 4.0)
    return np.array([
        [a, 0.0, c, 0.0],
        [0.0, b, 0.0, d],
        [c, 0.0, a, 0.0],
        [0.0, d, 0.0, b],
    ]) / np.pi


# ---------------------------------------------------------------------------
# the disc dipole in closed form
# ---------------------------------------------------------------------------

def test_dipole_offset_satisfies_its_quartic():
    assert DIPOLE_OFFSET == MU
    assert abs(MU ** 4 - (1.0 - 4.0 * MU * MU)) <= 1e-15


def test_dipole_is_critical(dipole, disc):
    assert dipole.strengths == (1.0, -1.0)
    assert np.array_equal(dipole.positions, [[MU, 0.0], [-MU, 0.0]])
    assert dipole.gradient_norm <= 1e-12
    gn = np.linalg.norm(m_gradient((1.0, -1.0), disc, dipole.positions))
    assert gn <= 1e-12


def test_dipole_hessian_matches_the_closed_form(dipole):
    expected = closed_form_dipole_hessian()
    assert np.max(np.abs(dipole.hessian - expected)) <= 1e-10


def test_dipole_hessian_column_identity(dipole):
    m2 = MU * MU
    lhs = (4.0 * m2 - 1.0) / (26.0 * m2 - 6.0)
    rhs = (3.0 * m2 - 1.0) / (20.0 * m2 - 4.0)
    assert abs(lhs - rhs) <= 1e-12
    # consequence: the second and fourth columns coincide
    assert np.max(np.abs(dipole.hessian[:, 1] - dipole.hessian[:, 3])) <= 1e-12


def test_dipole_kernel_is_the_rotation_mode(dipole):
    v = np.array([0.0, -MU, 0.0, MU])
    assert np.linalg.norm(dipole.hessian @ v) <= 1e-12
    assert dipole.kernel_dimension == 1
    assert dipole.classification is Classification.ROTATIONAL
    assert dipole.classification.value == "RotationalII"


def test_rotated_dipole_stays_critical(dipole, disc):
    for theta in np.linspace(0.0, 2.0 * np.pi, 11):
        pts = rotate_all(dipole.flat(), theta)
        gn = np.linalg.norm(m_gradient((1.0, -1.0), disc, pts))
        assert gn <= 1e-10, theta


# ---------------------------------------------------------------------------
# anchor energy specializations
# ---------------------------------------------------------------------------

def test_single_vortex_energy_is_a_negative_multiple_of_robin(disc):
    # one vortex has no pair interaction, only the self term
    for p in ([0.0, 0.0], [0.5, 0.0], [0.0, -0.8], [0.3, 0.4]):
        val = m_hamiltonian((2.0,), disc, [p])
        assert val == pytest.approx(-4.0 * disc.robin(p), abs=1e-14)
    # the self term is smallest at the center, so the center is the
    # lone critical point of the single-vortex energy
    assert disc.robin([0.0, 0.0]) == 0.0
    assert all(disc.robin(p) > 0.0
               for p in ([0.5, 0.0], [0.0, -0.8], [0.3, 0.4]))


def test_plane_pair_energy_has_no_critical_point(rng):
    plane = WholePlane()
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0, (2, 2))
        d = np.linalg.norm(a[0] - a[1])
        if d < 0.05:
            continue
        val = m_hamiltonian((1.0, 1.0), plane, a)
        assert val == pytest.approx(-np.log(d) / np.pi, abs=1e-12)
        gn = np.linalg.norm(m_gradient((1.0, 1.0), plane, a))
        assert gn == pytest.approx(np.sqrt(2.0) / (np.pi * d), rel=1e-10)
        assert gn > 0.0


# ---------------------------------------------------------------------------
# Newton search
# ---------------------------------------------------------------------------

def test_newton_recovers_the_dipole_from_the_reference_guess(dipole, disc):
    sp = find_critical_point((1.0, -1.0), disc,
                             [[0.45, 0.05], [-0.5, -0.03]])
    assert sp.gradient_norm <= 1e-10
    assert len(sp.residuals) <= 20
    assert aligned_distance(sp.flat(), dipole.flat()) <= 1e-9
    assert sp.classification is Classification.ROTATIONAL


def test_newton_recovers_the_dipole_from_seeded_perturbations(dipole, disc):
    rng = np.random.default_rng(7)
    for _ in range(5):
        guess = dipole.flat() + rng.uniform(-0.05, 0.05, 4)
        sp = find_critical_point((1.0, -1.0), disc, guess)
        assert aligned_distance(sp.flat(), dipole.flat()) <= 1e-9


def test_newton_convergence_is_quadratic(disc):
    gnorms = find_critical_point((1.0, -1.0), disc,
                                 [[0.45, 0.05], [-0.5, -0.03]]).residuals
    assert len(gnorms) >= 4
    # ratio e_{n+1} / e_n^2 stays bounded over the last three steps
    ratios = [gnorms[i + 1] / gnorms[i] ** 2 for i in range(len(gnorms) - 3,
                                                            len(gnorms) - 1)]
    ratios.append(gnorms[-1] / gnorms[-2] ** 2)
    assert all(r < 100.0 for r in ratios[-3:]), ratios


def test_newton_single_vortex_converges_to_the_center(disc):
    sp = find_critical_point((1.0,), disc, [[0.3, 0.2]])
    assert np.linalg.norm(sp.positions) <= 1e-10
    assert sp.classification is Classification.NONDEGENERATE
    assert sp.kernel_dimension == 0


def test_same_sign_pair_terminates_with_a_definite_outcome(disc):
    # no critical point is promised for a co-rotating pair; the contract
    # is only that the search either converges or reports divergence
    try:
        sp = find_critical_point((1.0, 1.0), disc, [[0.4, 0.0], [-0.4, 0.0]])
    except ConvergenceError as exc:
        assert exc.iterations >= 1
        assert np.asarray(exc.last_iterate).shape == (4,)
        assert np.all(np.isfinite(exc.last_iterate))
    else:
        assert sp.gradient_norm <= 1e-10


def test_exhausted_iteration_budget_reports_the_last_iterate(disc,
                                                            monkeypatch):
    monkeypatch.setattr(stationary, "MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError) as info:
        find_critical_point((1.0, -1.0), disc, [[0.45, 0.05], [-0.5, -0.03]])
    err = info.value
    assert err.iterations == 2
    assert 1e-10 < err.residual < 1e-2
    assert np.asarray(err.last_iterate).shape == (4,)


def count_assemblies(monkeypatch):
    """Orders of the assemble_interaction calls made from now on."""
    orders = []
    real = systems.assemble_interaction

    def counting(*args, **kwargs):
        orders.append(kwargs.get("order", 2))
        return real(*args, **kwargs)

    monkeypatch.setattr(systems, "assemble_interaction", counting)
    return orders


def test_one_order_two_assembly_per_evaluated_iterate(disc, monkeypatch):
    # the figure-1 anchors from the on-axis guess: the converged Hessian
    # is the one the last Newton evaluation assembled, not a new one
    strengths, guess = (-2.0, 2.0), [[0.45, 0.0], [-0.45, 0.0]]
    orders = count_assemblies(monkeypatch)
    sp = find_critical_point(strengths, disc, guess)
    assert len(sp.residuals) == 4
    assert orders == [2] * len(sp.residuals)
    assert np.array_equal(sp.hessian, m_hessian(strengths, disc, sp.flat()))

    orders.clear()
    again = evaluate_point(strengths, disc, sp.positions)
    assert orders == [2]
    assert np.array_equal(again.hessian, sp.hessian)


def test_newton_guess_must_be_admissible(disc):
    with pytest.raises(DomainViolationError):
        find_critical_point((1.0, -1.0), disc, [[1.2, 0.0], [-0.5, 0.0]])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_evaluate_point_does_not_enforce_criticality(disc):
    sp = evaluate_point((1.0, -1.0), disc, [[0.3, 0.1], [-0.2, -0.4]])
    assert sp.gradient_norm > 1e-10
    assert sp.hessian.shape == (4, 4)


@pytest.mark.parametrize("positions, error", [
    ([[np.nan, 0.0], [-0.5, 0.0]], DomainViolationError),
    ([[1.2, 0.0], [-0.5, 0.0]], DomainViolationError),
    ([[0.3, 0.1], [0.3, 0.1]], CollisionError),
], ids=["nan", "outside", "coincident"])
def test_evaluate_point_refuses_inadmissible_positions(disc, positions, error):
    # unchecked, NaN and coincident positions end in an SVD that does not
    # converge, and a point outside the disc is evaluated as if inside
    with pytest.raises(error):
        evaluate_point((1.0, -1.0), disc, positions)


def test_classify_rejects_noncritical_points(disc):
    sp = evaluate_point((1.0, -1.0), disc, [[0.3, 0.1], [-0.2, -0.4]])
    with pytest.raises(ConstraintViolationError):
        classify(sp, disc)


def test_dipole_classifies_as_rotational(dipole, disc):
    assert classify(dipole, disc) is Classification.ROTATIONAL


def test_perturbed_disc_critical_point_is_nondegenerate():
    # breaking the rotational symmetry removes the forced kernel
    domain = PerturbedDisc()
    sp = find_critical_point((1.0, -1.0), domain,
                             [[0.45, 0.05], [-0.5, -0.03]])
    assert sp.gradient_norm <= 1e-10
    assert sp.kernel_dimension == 0
    assert sp.classification is Classification.NONDEGENERATE
    # the bump moved the critical point off the symmetric offsets
    assert abs(abs(sp.positions[0, 0]) - MU) > 1e-3


def test_plane_collinear_triple_with_zero_interaction_sum_is_unclassified():
    # strengths (1, 1, -1/2) at (-1,0), (1,0), (0,0): the pairwise
    # strength products sum to zero and every gradient term cancels
    plane = WholePlane()
    strengths = (1.0, 1.0, -0.5)
    pts = [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    sp = evaluate_point(strengths, plane, pts)
    assert sp.gradient_norm <= 1e-14
    assert sp.kernel_dimension >= 4
    assert sp.classification is Classification.UNCLASSIFIED


class StripSurrogate(WholePlane):
    """Stub with a translation symmetry and g == 0; geometry never queried."""

    symmetry = SymmetryClass.TRANSLATIONAL
    translation_direction = (0.6, 0.8)
    name = "strip-surrogate"


def test_translational_kernel_generator_is_the_tiled_direction():
    domain = StripSurrogate()
    pts = np.array([0.1, 0.2, -0.3, 0.4])
    gens = kernel_generators(domain, pts)
    assert len(gens) == 1
    assert gens[0] == pytest.approx(np.tile([0.6, 0.8], 2))


def test_translational_classification_branch():
    domain = StripSurrogate()
    pts = np.array([0.1, 0.2, -0.3, 0.4])
    basis = (np.tile([0.6, 0.8], 2) / np.sqrt(2.0)).reshape(-1, 1)
    assert _classify_kernel(domain, pts, 1, basis) \
        is Classification.TRANSLATIONAL
    # a one-dimensional kernel along anything else stays unclassified
    off = (np.tile([-0.8, 0.6], 2) / np.sqrt(2.0)).reshape(-1, 1)
    assert _classify_kernel(domain, pts, 1, off) \
        is Classification.UNCLASSIFIED


def test_plane_classification_branch_requires_exactly_three_modes():
    # no shipped plane kernel produces a three-dimensional kernel; the
    # branch exists for modified radial interactions, so exercise it on
    # a synthetic basis built from the symmetry generators
    plane = WholePlane()
    pts = np.array([-1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    gens = kernel_generators(plane, pts)
    assert len(gens) == 3
    q, _ = np.linalg.qr(np.column_stack(gens))
    assert _classify_kernel(plane, pts, 3, q) is Classification.PLANE
    scaling = pts / np.linalg.norm(pts)
    scaling -= q @ (q.T @ scaling)
    scaling /= np.linalg.norm(scaling)
    wide = np.column_stack([q, scaling])
    assert _classify_kernel(plane, pts, 4, wide) \
        is Classification.UNCLASSIFIED


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_stationary_point_serializes_to_json(dipole):
    blob = json.dumps(dipole.as_dict())
    data = json.loads(blob)
    assert data["classification"] == "RotationalII"
    assert data["kernel_dimension"] == 1
    assert np.asarray(data["hessian"]).shape == (4, 4)
    assert np.array_equal(data["positions"], [[MU, 0.0], [-MU, 0.0]])
    assert data["strengths"] == [1.0, -1.0]
