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
        return x**2 - c, np.diag(2.0 * x)
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
    # F = x0 + x1 - 1 with the row (1, 0) appended to J, F padded with
    # a zero by newton: the step from 0 keeps x0 fixed and lands on
    # (0, 1), not on the minimum-norm solution (0.5, 0.5) of the
    # unbordered problem
    J = np.array([[1.0, 1.0], [1.0, 0.0]])
    x, residuals = newton(lambda x: (np.array([x[0] + x[1] - 1.0]), J),
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


# ---------------------------------------------------------------------------
# Jacobian reuse once Newton is superlinear
# ---------------------------------------------------------------------------

def logged(F, J, log):
    """fun and residual of one problem, each logging (kind, x) per call."""
    def fun(x):
        log.append(("fun", x.copy()))
        return F(x), J(x)

    def residual(x):
        log.append(("residual", x.copy()))
        return F(x)
    return fun, residual


def test_newton_accepts_a_superlinear_iterate_without_calling_fun():
    # x^2 - 2 from 1: residuals 1, 0.25, 6.9e-3, 6.0e-6 (superlinear), ...
    log = []
    fun, residual = logged(lambda x: x**2 - 2.0, lambda x: np.diag(2.0 * x),
                           log)
    x, residuals = newton(fun, np.array([1.0]), accept, tol=1e-14,
                          max_iterations=20, residual=residual)
    assert x == pytest.approx([np.sqrt(2.0)], abs=1e-15)
    assert [kind for kind, _ in log] == ["fun"] * 4 + ["residual"] * 2
    assert residuals[3] <= 1e-2 * residuals[2]
    assert len(residuals) == len(log)
    # the accepted iterate is evaluated once, by residual
    assert log[-1][0] == "residual" and np.array_equal(log[-1][1], x)
    assert not any(kind == "fun" and np.array_equal(y, x) for kind, y in log)
    # the stale steps reuse the Jacobian of the last fun call
    x4 = log[3][1] - (log[3][1]**2 - 2.0) / (2.0 * log[3][1])
    assert np.array_equal(log[4][1], x4)
    assert np.array_equal(log[5][1], x4 - (x4**2 - 2.0) / (2.0 * log[3][1]))


def test_newton_calls_fun_where_a_stale_step_fails_to_contract():
    # the first component converges quadratically; the second has a
    # double root, so Newton halves it, and once the first has converged
    # the residual shrinks by 4 per step: too slow for a stale Jacobian
    log = []
    fun, residual = logged(lambda x: np.array([x[0]**2 - 2.0, x[1]**2]),
                           lambda x: np.diag(2.0 * x), log)
    x, residuals = newton(fun, np.array([1.0, 1e-2]), accept, tol=1e-12,
                          max_iterations=30, residual=residual)
    kinds = [kind for kind, _ in log]
    assert kinds[:6] == ["fun"] * 4 + ["residual", "fun"]
    assert np.array_equal(log[4][1], log[5][1])
    assert "residual" not in kinds[6:]
    # one residual per iterate: fun's replaces the stale one
    assert len(residuals) == len(log) - 1
    x4 = log[5][1]
    assert residuals[4] == np.linalg.norm([x4[0]**2 - 2.0, x4[1]**2])
    assert residuals[-1] <= 1e-12 and x[1] == 1e-2 / 2**(len(residuals) - 1)


def test_newton_without_residual_takes_one_full_step_per_iterate():
    log = []
    fun, _ = logged(lambda x: x**2 - 2.0, lambda x: np.diag(2.0 * x), log)
    x, residuals = newton(fun, np.array([1.0]), accept, tol=1e-14,
                          max_iterations=20)
    expected = [np.array([1.0])]
    while abs(expected[-1][0]**2 - 2.0) > 1e-14:
        y = expected[-1]
        expected.append(y + np.linalg.lstsq(np.diag(2.0 * y),
                                            -(y**2 - 2.0))[0])
    assert [kind for kind, _ in log] == ["fun"] * len(expected)
    assert all(np.array_equal(y, e) for (_, y), e in zip(log, expected))
    assert np.array_equal(x, expected[-1])
    assert residuals == [abs(e[0]**2 - 2.0) for e in expected]
