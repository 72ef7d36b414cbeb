"""Shared planar helpers: the rotation fit, the Newton driver and the
package exports."""

import numpy as np
import pytest

import vortexlab
from vortexlab import (CollisionError, ConstraintViolationError,
                       ConvergenceError, DomainViolationError,
                       aligned_distance, rotate_all)
from vortexlab.linalg import newton


@pytest.mark.parametrize("batched", ["a", "b", "both"])
def test_batched_aligned_distance_equals_row_by_row_calls(batched):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 8))
    b = rotate_all(a, rng.uniform(0.0, 2 * np.pi, size=(6, 1))) \
        + 1e-2 * rng.normal(size=(6, 8))
    if batched == "a":
        b = b[0]
    elif batched == "b":
        a = a[0]
    rows = np.broadcast_arrays(a, b)
    expected = [aligned_distance(x, y) for x, y in zip(*rows)]
    assert np.array_equal(aligned_distance(a, b), expected)


N_VORTICES = 4


def _turned_by_hand(z, theta):
    """cos(theta) z - sin(theta) perp(z), perp(x, y) = (y, -x), with
    theta broadcast against the vortices, (..., N), and each vortex's
    angle applied to both of its coordinates."""
    shape = np.broadcast_shapes(np.shape(theta), z.shape[:-1] + (N_VORTICES,))
    th = np.repeat(np.broadcast_to(theta, shape), 2, axis=-1)
    quarter = np.empty_like(z)
    quarter[..., 0::2] = z[..., 1::2]
    quarter[..., 1::2] = -z[..., 0::2]
    return np.cos(th) * z - np.sin(th) * quarter


# k = N rows, so an angle per row shaped (k,) would read as one per vortex
@pytest.mark.parametrize("z_shape", [(2 * N_VORTICES,),
                                     (N_VORTICES, 2 * N_VORTICES)],
                         ids=["state", "batch"])
@pytest.mark.parametrize("theta_shape", [(), (N_VORTICES,), (N_VORTICES, 1),
                                         (N_VORTICES, N_VORTICES)],
                         ids=["scalar", "per-vortex", "per-row", "both"])
def test_rotate_all_turns_each_vortex_by_its_angle(z_shape, theta_shape):
    rng = np.random.default_rng(11)
    z = rng.uniform(-1.0, 1.0, size=z_shape)
    theta = rng.uniform(-2 * np.pi, 2 * np.pi, size=theta_shape)
    turned, expected = rotate_all(z, theta), _turned_by_hand(z, theta)
    assert turned.shape == expected.shape
    assert np.max(np.abs(turned - expected)) <= 1e-15


def test_exports_resolve_and_are_unique():
    names = vortexlab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(vortexlab, n)] == []


# ---------------------------------------------------------------------------
# the Newton driver, on F(x) = x^2 - c
# ---------------------------------------------------------------------------

def square_minus(c, calls=None):
    def fun(x):
        if calls is not None:
            calls.append(x.copy())
        return x**2 - c, np.diag(2.0 * x), (), ()
    return fun


def accept(x):
    pass


def test_newton_records_one_residual_per_evaluated_iterate():
    calls, checked = [], []
    x, residuals = newton(square_minus(2.0, calls), np.array([1.0]),
                          checked.append, tol=1e-14, max_iterations=20)
    assert x == pytest.approx([np.sqrt(2.0)], abs=1e-14)
    assert len(residuals) == len(calls) == len(checked) + 1
    assert residuals[-1] <= 1e-14 < residuals[-2]
    assert residuals == [abs(v[0]**2 - 2.0) for v in calls]


@pytest.mark.parametrize("budget", [0, 5])
def test_newton_reports_an_exhausted_budget(budget):
    # x^2 + 1 has no real root
    with pytest.raises(ConvergenceError, match="no convergence") as info:
        newton(square_minus(-1.0), np.array([0.5]), accept, tol=1e-12,
               max_iterations=budget)
    err = info.value
    assert err.iterations == budget
    assert err.residual == pytest.approx(err.last_iterate[0]**2 + 1.0)


@pytest.mark.parametrize("event", [DomainViolationError, CollisionError])
def test_newton_turns_an_inadmissible_step_into_a_convergence_error(event):
    def reject(x):
        raise event("outside")

    x0 = np.array([1.0])
    with pytest.raises(ConvergenceError,
                       match="iterate left the admissible set after 1 steps"
                       ) as info:
        newton(square_minus(2.0), x0, reject, tol=1e-12, max_iterations=10)
    err = info.value
    assert err.iterations == 1
    assert np.array_equal(err.last_iterate, x0)
    assert err.residual == 1.0
    assert isinstance(err.__cause__, event)


def test_newton_keeps_the_step_on_its_constraint_rows():
    # F = x0 + x1 - 1 on the 1 x 2 Jacobian (1, 1), bordered by the row
    # (1, 0) and no column: the square step from 0 keeps x0 fixed and
    # lands on (0, 1), not on the minimum-norm solution (0.5, 0.5)
    J = np.array([[1.0, 1.0]])
    x, residuals = newton(
        lambda x: (np.array([x[0] + x[1] - 1.0]), J, [[1.0, 0.0]], ()),
        np.zeros(2), accept, tol=1e-12, max_iterations=1)
    assert x == pytest.approx([0.0, 1.0], abs=1e-15)
    assert residuals == pytest.approx([1.0, 0.0], abs=1e-15)


def test_newton_rejects_a_negative_budget():
    calls = []
    with pytest.raises(ConstraintViolationError, match="max_iterations"):
        newton(square_minus(2.0, calls), np.array([1.0]), accept, tol=1e-12,
               max_iterations=-1)
    assert calls == []


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_newton_rejects_a_tolerance_that_is_not_finite(tol):
    calls = []
    with pytest.raises(ConstraintViolationError, match="tol must be finite"):
        newton(square_minus(2.0, calls), np.array([1.0]), accept, tol=tol,
               max_iterations=10)
    assert calls == []


def test_newton_borders_a_symmetric_jacobian_with_rows_and_columns():
    # the gradient F = (|x|^2 - 1) x of (|x|^2 - 1)^2 / 4, whose Hessian
    # is singular along the rotation perp(x) on the unit circle: bordered
    # by perp(x) as row and column, every step is radial, so Newton ends
    # on the circle at the start's angle.  Rows alone make a matrix that
    # is not square, a caller's error
    def fun(x, columns=True):
        rotation = [np.array([x[1], -x[0]])]
        return ((x @ x - 1.0) * x,
                (x @ x - 1.0) * np.eye(2) + 2.0 * np.outer(x, x),
                rotation, rotation if columns else ())

    x0 = np.array([1.5, 0.5])
    x, residuals = newton(fun, x0, accept, tol=1e-14, max_iterations=20)
    assert x == pytest.approx(x0 / np.linalg.norm(x0), abs=1e-15)
    assert residuals[-1] <= 1e-14 < residuals[-2]
    with pytest.raises(ValueError, match="square"):
        newton(lambda x: fun(x, columns=False), x0, accept, tol=1e-14,
               max_iterations=20)


def test_newton_reports_a_singular_matrix():
    x0 = np.array([1.0, 2.0])
    with pytest.raises(ConvergenceError, match="singular Newton matrix "
                       "after 0 steps") as info:
        newton(lambda x: (x, np.zeros((2, 2)), (), ()), x0, accept,
               tol=1e-12, max_iterations=10)
    err = info.value
    assert err.iterations == 0
    assert np.array_equal(err.last_iterate, x0)
    assert err.residual == np.linalg.norm(x0)


@pytest.mark.parametrize("where, value", [("J", np.nan), ("J", np.inf),
                                          ("F", np.nan)])
def test_newton_refuses_a_non_finite_residual_or_matrix(where, value):
    # the first step is admissible; the second iterate's residual or
    # Jacobian holds one non-finite entry, and no step is taken from it
    def fun(x):
        F, J = x**2 - 2.0, np.diag(2.0 * x)
        if not np.array_equal(x, x0):
            {"F": F, "J": J}[where].flat[0] = value
        return F, J, (), ()

    x0 = np.array([1.0, 1.5])
    checked = []
    with pytest.raises(ConvergenceError, match="non-finite Newton residual "
                       "or matrix after 1 steps") as info:
        newton(fun, x0, checked.append, tol=1e-12, max_iterations=10)
    err = info.value
    assert err.iterations == 1 and len(checked) == 1
    assert np.array_equal(err.last_iterate, checked[0])
    assert np.array_equal(err.residual, np.linalg.norm(fun(checked[0])[0]),
                          equal_nan=True)


def test_newton_without_residual_takes_one_full_step_per_iterate():
    # no residual-only evaluation: every iterate is one fun call and one
    # full solve on that call's Jacobian
    calls = []
    x, residuals = newton(square_minus(2.0, calls), np.array([1.0]), accept,
                          tol=1e-14, max_iterations=20)
    expected = [np.array([1.0])]
    while abs(expected[-1][0]**2 - 2.0) > 1e-14:
        y = expected[-1]
        expected.append(y + np.linalg.solve(np.diag(2.0 * y), -(y**2 - 2.0)))
    assert len(calls) == len(expected)
    assert all(np.array_equal(y, e) for y, e in zip(calls, expected))
    assert np.array_equal(x, expected[-1])
    assert residuals == [abs(e[0]**2 - 2.0) for e in expected]
