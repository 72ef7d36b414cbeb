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
    b = rotate_all(a, rng.uniform(0.0, 2 * np.pi, size=6)) \
        + 1e-2 * rng.normal(size=(6, 8))
    if batched == "a":
        b = b[0]
    elif batched == "b":
        a = a[0]
    rows = np.broadcast_arrays(a, b)
    expected = [aligned_distance(x, y) for x, y in zip(*rows)]
    assert np.array_equal(aligned_distance(a, b), expected)


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
                          checked.append, tol=1e-14, max_iterations=20,
                          rel_threshold=1e-12)
    assert x == pytest.approx([np.sqrt(2.0)], abs=1e-14)
    assert len(residuals) == len(calls) == len(checked) + 1
    assert residuals[-1] <= 1e-14 < residuals[-2]
    assert residuals == [abs(v[0]**2 - 2.0) for v in calls]


@pytest.mark.parametrize("budget", [0, 5])
def test_newton_reports_an_exhausted_budget(budget):
    # x^2 + 1 has no real root
    with pytest.raises(ConvergenceError, match="no convergence") as info:
        newton(square_minus(-1.0), np.array([0.5]), accept, tol=1e-12,
               max_iterations=budget, rel_threshold=1e-12)
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
        newton(square_minus(2.0), x0, reject, tol=1e-12, max_iterations=10,
               rel_threshold=1e-12)
    err = info.value
    assert err.iterations == 1
    assert np.array_equal(err.last_iterate, x0)
    assert err.residual == 1.0
    assert isinstance(err.__cause__, event)


def test_newton_drops_the_multipliers_of_a_bordered_jacobian():
    # F = (x - t, 0) with the step bordered orthogonal to c = (1, 1): the
    # step from 0 is the projection (0.5, -0.5) of t = (1, 0), and the
    # bordered solve's third entry, the multiplier 0.5, is not applied
    t, c = np.array([1.0, 0.0]), np.array([1.0, 1.0])
    J = np.block([[np.eye(2), c[:, None]], [c[None, :], np.zeros((1, 1))]])
    with pytest.raises(ConvergenceError) as info:
        newton(lambda x: (np.append(x - t, 0.0), J), np.zeros(2), accept,
               tol=1e-12, max_iterations=1, rel_threshold=1e-12)
    assert info.value.iterations == 1
    assert info.value.last_iterate == pytest.approx([0.5, -0.5], abs=1e-15)


def test_newton_rejects_a_negative_budget():
    calls = []
    with pytest.raises(ConstraintViolationError, match="max_iterations"):
        newton(square_minus(2.0, calls), np.array([1.0]), accept, tol=1e-12,
               max_iterations=-1, rel_threshold=1e-12)
    assert calls == []
