"""Rotating-cluster catalog and its nondegeneracy certification."""

import json
import warnings

import numpy as np
import pytest

from vortexlab import (
    ConstraintViolationError,
    NotEquilibriumError,
    RelativeEquilibrium,
    ZeroTotalStrengthError,
    certify,
    flow_with_jacobian,
    from_catalog,
    from_positions,
    make_collinear_hermite,
    make_equilateral,
    make_pair,
    make_thomson,
    make_trivial,
    monodromy,
    normalize,
    permutation_matrix,
)

PI = np.pi


# ---------------------------------------------------------------------------
# catalog geometry
# ---------------------------------------------------------------------------

def test_pair_equal_strengths():
    eq = make_pair(0.5, 0.5)
    d = 1.0 / np.sqrt(PI)
    assert np.allclose(eq.positions, [[d / 2, 0.0], [-d / 2, 0.0]])
    assert eq.angular_velocity == pytest.approx(-1.0, abs=1e-12)
    assert eq.permutation == (0, 1)
    assert eq.order == 1
    assert eq.period == pytest.approx(2 * PI)
    assert eq.residual() <= 1e-12
    gam = np.asarray(eq.strengths)[:, None]  # center of vorticity at 0
    assert np.allclose((gam * eq.positions).sum(axis=0) / gam.sum(), 0.0,
                       atol=1e-15)


def test_pair_uneven_strengths_split_by_vorticity():
    eq = make_pair(2.0, 1.0)
    r1 = np.linalg.norm(eq.positions[0])
    r2 = np.linalg.norm(eq.positions[1])
    assert r1 / r2 == pytest.approx(0.5, abs=1e-13)
    assert eq.residual() <= 1e-12
    gam = np.asarray(eq.strengths)[:, None]  # center of vorticity at 0
    assert np.allclose((gam * eq.positions).sum(axis=0) / gam.sum(), 0.0,
                       atol=1e-14)


def test_pair_negative_total_reverses_rotation():
    eq = make_pair(1.0, -2.0)
    assert eq.angular_velocity == pytest.approx(1.0, abs=1e-12)
    assert eq.residual() <= 1e-12


def test_pair_zero_total_rejected():
    with pytest.raises(ZeroTotalStrengthError):
        make_pair(1.0, -1.0)


def test_solution_quarter_turn_is_counterclockwise():
    # omega = -1 here; the motion runs counterclockwise in real time
    eq = make_pair(0.5, 0.5)
    d = 1.0 / np.sqrt(PI)
    z = eq.solution(PI / 2)
    assert np.allclose(z[:2], [0.0, d / 2], atol=1e-12)
    assert np.allclose(eq.solution(eq.period), eq.flat(), atol=1e-12)


def test_triangle_geometry():
    eq = make_equilateral(2.0, 1.0, 1.0)
    s = np.sqrt(4.0 / PI)
    p = eq.positions
    for i in range(3):
        gap = np.linalg.norm(p[i] - p[(i + 1) % 3])
        assert gap == pytest.approx(s, abs=1e-12)
    assert abs(eq.angular_velocity) == pytest.approx(1.0, abs=1e-12)
    assert eq.residual() <= 1e-12
    gam = np.asarray(eq.strengths)[:, None]  # center of vorticity at 0
    assert np.allclose((gam * eq.positions).sum(axis=0) / gam.sum(), 0.0,
                       atol=1e-13)


def test_triangle_zero_total_rejected():
    with pytest.raises(ZeroTotalStrengthError):
        make_equilateral(1.0, 1.0, -2.0)


def test_thomson_polygon():
    eq = make_thomson(3, 1.0 / 3.0)
    assert eq.permutation in ((1, 2, 0), (2, 0, 1))
    assert eq.order == 3
    assert eq.angular_velocity == pytest.approx(-1.0 / 3.0, abs=1e-13)
    radii = np.linalg.norm(eq.positions, axis=1)
    assert np.allclose(radii, np.sqrt(1.0 / PI), atol=1e-13)
    assert eq.residual() <= 1e-12


def test_thomson_shift_symmetry():
    # advancing one base period permutes the vertices: S z(t + 2pi) = z(t)
    for n in (3, 4):
        eq = make_thomson(n, 1.0 / n)
        S = permutation_matrix(eq.permutation)
        for t in np.linspace(0.0, 4 * PI, 9):
            assert np.allclose(S @ eq.solution(t + 2 * PI), eq.solution(t),
                               atol=1e-12)


@pytest.mark.parametrize("eq, shifts, perms", [
    (make_pair(-1.0, -1.0), (0, 1), [(0, 1), (1, 0)]),
    (make_pair(1.0, 2.0), (0,), [(0, 1)]),
    (make_equilateral(1.0, 2.0, 3.0), (0,), [(0, 1, 2)]),
    (make_thomson(3, 1.0 / 3.0), (0, 2, 4), None),
    (make_collinear_hermite(3, 1.0), (0, 1), [(0, 1, 2), (2, 1, 0)]),
    (make_collinear_hermite(4, 1.0), (0, 1), [(0, 1, 2, 3), (3, 2, 1, 0)]),
    (make_trivial(2.0), (0,), [(0,)]),
], ids=["pair-equal", "pair-uneven", "equilateral", "thomson3", "hermite3",
        "hermite4", "trivial"])
def test_relabelling_table(eq, shifts, perms):
    # shifts in units of pi; each entry satisfies S_pi Z(t + shift) = Z(t)
    table = eq.relabellings
    assert np.allclose([s for s, _ in table], PI * np.array(shifts),
                       rtol=0, atol=1e-12)
    if perms is None:  # the thomson shifts are sigma's powers
        sigma = eq.permutation
        perms = [tuple(range(3)), sigma, tuple(sigma[i] for i in sigma)]
    assert [pi for _, pi in table] == perms
    for shift, pi in table:
        S = permutation_matrix(pi)
        for t in (0.0, 0.7, 2.5):
            assert np.allclose(S @ eq.solution(t + shift), eq.solution(t),
                               rtol=0, atol=1e-12)


def test_thomson_two_gon_is_the_pair_up_to_rotation():
    from vortexlab import aligned_distance

    th = normalize(make_thomson(2, 0.5), -1.0)
    pair = make_pair(0.5, 0.5)
    assert th.permutation == (1, 0)
    assert aligned_distance(th.flat(), pair.flat()) <= 1e-12


def test_hermite_roots_and_scaling():
    eq2 = make_collinear_hermite(2, 1.0)
    lam = np.sqrt(1.0 / PI)
    xs = np.sort(eq2.positions[:, 0])
    assert np.allclose(xs, lam * np.array([-1, 1]) / np.sqrt(2), atol=1e-12)
    assert np.allclose(eq2.positions[:, 1], 0.0)
    # the two-root line coincides with the equal-strength pair
    assert np.allclose(np.sort(make_pair(1.0, 1.0).positions[:, 0]), xs,
                       atol=1e-12)

    eq3 = make_collinear_hermite(3, 1.0)
    xs = np.sort(eq3.positions[:, 0])
    assert np.allclose(xs, lam * np.array([-np.sqrt(1.5), 0.0,
                                           np.sqrt(1.5)]), atol=1e-12)
    assert eq3.residual() <= 1e-12


def test_hermite_large_n_residual_and_guard():
    assert make_collinear_hermite(5, 1.0).residual() <= 1e-10
    with pytest.raises(ConstraintViolationError):
        make_collinear_hermite(21, 1.0)


def test_trivial_cluster():
    eq = make_trivial(2.0)
    assert eq.is_trivial
    assert eq.n == 1
    assert eq.angular_velocity == 0.0
    assert eq.period == np.inf
    assert np.allclose(eq.positions, 0.0)


def test_one_vortex_at_the_origin_is_refused_before_the_projection():
    # M z = 0 leaves omega 0/0; the refusal names the trivial cluster
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConstraintViolationError, match="make_trivial"):
            from_positions((1.0,), [[0.0, 0.0]], (0,))


def test_constructor_guards():
    with pytest.raises(ConstraintViolationError):
        RelativeEquilibrium((1.0, 2.0), np.zeros((2, 2)), -1.0, (1, 0))
    with pytest.raises(ConstraintViolationError):
        RelativeEquilibrium((1.0, 1.0), np.zeros((3, 2)), -1.0, (0, 1))
    with pytest.raises(ConstraintViolationError):
        RelativeEquilibrium((1.0, 1.0), np.zeros((2, 2)), -1.0, (0, 0))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_scales_by_angular_velocity_ratio():
    eq = make_pair(0.5, 0.5)
    slow = normalize(eq, -0.25)
    assert slow.angular_velocity == pytest.approx(-0.25, abs=1e-13)
    assert np.allclose(slow.positions, 2.0 * eq.positions, atol=1e-13)
    assert slow.residual() <= 1e-12

    again = normalize(slow, -1.0)
    assert np.allclose(again.positions, eq.positions, atol=1e-14)


def test_normalize_is_identity_at_the_target():
    eq = make_thomson(3, 1.0 / 3.0)
    same = normalize(eq, -1.0 / 3.0)
    assert np.allclose(same.positions, eq.positions, atol=1e-14)
    assert same.residual() <= 1e-12


def test_normalize_cannot_flip_rotation_direction():
    eq = make_pair(0.5, 0.5)  # omega = -1; scaling preserves the sign
    with pytest.raises(ConstraintViolationError):
        normalize(eq, 1.0)


def test_normalize_rejects_stationary_cluster():
    with pytest.raises(ConstraintViolationError):
        normalize(make_trivial(1.0), -1.0)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

NONDEGENERATE_ROWS = [
    make_pair(0.5, 0.5),
    make_pair(2.0, 1.0),
    make_pair(1.0, -2.0),
    make_equilateral(2.0, 1.0, 1.0),
    make_collinear_hermite(2, 1.0),
    make_collinear_hermite(3, 1.0),
]


@pytest.mark.parametrize("eq", NONDEGENERATE_ROWS,
                         ids=["pair-half", "pair-21", "pair-1m2",
                              "triangle-211", "hermite-2", "hermite-3"])
def test_identity_symmetry_nondegenerate_rows(eq):
    report = certify(eq)
    assert report.periodic_solution_count == 3
    assert report.symmetric_count == 3
    assert report.unit_multiplier_count == 4
    assert report.twisted_unit_multiplier_count == 4
    assert report.nondegenerate
    assert report.sigma_nondegenerate
    assert report.residual <= 1e-10


def test_certify_thomson_choreographies():
    for n in (3, 4):
        report = certify(make_thomson(n, 1.0 / n))
        # the full-period kernel picks up the choreography modes
        assert report.symmetric_count == 3
        assert report.twisted_unit_multiplier_count == 4
        assert report.sigma_nondegenerate
        assert not report.nondegenerate  # sigma is not the identity
        assert report.periodic_solution_count >= 3


def test_certify_thomson_two_gon():
    report = certify(make_thomson(2, 0.5))
    assert report.symmetric_count == 3
    assert report.sigma_nondegenerate


def test_certify_degenerate_triangles():
    # vanishing pair-product sum: extra unit Floquet multipliers appear
    report = certify(make_equilateral(1.0, 1.0, -0.5))
    assert report.periodic_solution_count == 3
    assert report.unit_multiplier_count == 6
    assert not report.nondegenerate
    assert not report.sigma_nondegenerate

    # all-equal strengths: the other degenerate branch
    report = certify(make_equilateral(1.0, 1.0, 1.0))
    assert report.periodic_solution_count > 3
    assert not report.nondegenerate


def test_certify_trivial_rejected():
    with pytest.raises(ConstraintViolationError):
        certify(make_trivial(1.0))


def test_certify_requires_unit_speed_orbit():
    slow = normalize(make_pair(0.5, 0.5), -0.25)
    with pytest.raises(ConstraintViolationError):
        certify(slow)


def test_certify_rejects_non_equilibrium():
    eq = make_pair(0.5, 0.5)
    bad = RelativeEquilibrium(eq.strengths, eq.positions * 1.1, -1.0,
                              eq.permutation)
    with pytest.raises(NotEquilibriumError):
        certify(bad)
    # coincident members make the residual NaN, which must not pass
    coincident = RelativeEquilibrium(eq.strengths, [[0.3, 0.0], [0.3, 0.0]],
                                     -1.0, eq.permutation)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NotEquilibriumError, match="residual nan"):
            certify(coincident)


def test_report_serializes_to_json():
    report = certify(make_pair(0.5, 0.5))
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["periodic_solution_count"] == 3
    assert payload["nondegenerate"] is True
    assert payload["order"] == 1
    assert len(payload["singular_values"]) == 4  # one per state coordinate


def test_counts_never_fall_below_symmetry_minimum():
    rows = NONDEGENERATE_ROWS + [make_thomson(3, 1 / 3),
                                 make_thomson(4, 1 / 4),
                                 make_equilateral(1, 1, -0.5)]
    for eq in rows:
        report = certify(eq)
        assert report.periodic_solution_count >= 3
        assert report.symmetric_count <= report.periodic_solution_count


def test_triangle_sweep_flags_match_the_interaction_predicate():
    # strongly hyperbolic triangles blow up the monodromy norm; certify's
    # cutoff, capped at 1e-2, must not swallow order-one singular values
    # (samples stay within the range double precision can resolve, norm
    # well below 1e12)
    samples = [
        (2.0, 1.0, 1.0), (1.0, 2.0, 3.0), (3.0, -1.0, -1.0),
        (1.0, 1.0, 0.5), (1.0, 1.0, -0.3), (1.0, 1.0, 2.5),
        (0.5, 0.5, 2.0), (1.0, -0.25, -0.25), (2.0, -0.5, 1.0),
        (1.5, 1.0, 0.75), (1.0, 1.0, -0.8), (2.0, 3.0, -1.0),
        (1.0, 1.0, 1.0), (0.5, 0.5, 0.5), (2.0, 2.0, 2.0),
        (1.0, 1.0, -0.5), (2.0, 2.0, -1.0), (3.0, 1.0, -0.75),
        (-1.0, -1.0, -1.0), (4.0, 4.0, -2.0),
    ]
    assert len(samples) == 20
    for g1, g2, g3 in samples:
        eq = make_equilateral(g1, g2, g3)
        norm = np.linalg.norm(monodromy(eq, 2 * PI), 2)
        assert norm < 1e12
        report = certify(eq)
        L = g1 * g2 + g1 * g3 + g2 * g3
        S = g1 * g1 + g2 * g2 + g3 * g3
        expected = (L != 0.0) and (L != S)
        assert report.nondegenerate == expected, (g1, g2, g3, L, S)


# ---------------------------------------------------------------------------
# monodromy cross-validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eq", [make_pair(0.5, 0.5), make_thomson(3, 1 / 3)],
                         ids=["pair", "thomson-3"])
def test_monodromy_matches_direct_integration(eq):
    sys = eq.system
    t = 2 * PI
    _, W = flow_with_jacobian(sys, eq.flat(), t)
    assert np.max(np.abs(W - monodromy(eq, t))) <= 1e-8


# ---------------------------------------------------------------------------
# catalog lookup
# ---------------------------------------------------------------------------

def test_from_catalog_dispatch():
    pair = from_catalog("pair", 0.5, 0.5)
    assert np.allclose(pair.positions, make_pair(0.5, 0.5).positions)
    tri = from_catalog("equilateral", 2, 1, 1)
    assert tri.n == 3
    th = from_catalog("thomson", 3.0, 1 / 3)  # first parameter is a count
    assert th.n == 3 and th.order == 3
    he = from_catalog("hermite", 4, 1.0)
    assert he.n == 4
    with pytest.raises(KeyError):
        from_catalog("heptagon", 7)
