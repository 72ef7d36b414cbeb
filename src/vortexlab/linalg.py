"""Small linear-algebra helpers shared across the package.

Convention: planar states are flat float64 vectors (x1, y1, x2, y2, ...).
The symplectic rotation used throughout is the clockwise quarter turn
perp(x, y) = (y, -x); exp(theta * perp) rotates every pair clockwise by
theta.  All catalog angular velocities are expressed against this
generator, so a positive physical (counterclockwise) rotation rate shows
up as a negative angular velocity.

perp is the only quarter turn and rotate_all (with spin, its flow form)
the only rotation; matrices of either are built by applying them to
columns.  aligned_distance is the only rotation fit: it compares states,
or batches of states, up to one global rotation.  newton is the only
Newton loop, shared by the anchor search and shooting; a caller borders
its least-squares steps with rows (the generators of its symmetries),
never with columns.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import (CollisionError, ConstraintViolationError,
                     ConvergenceError, DomainViolationError)

TWO_PI = 2.0 * np.pi


def as_state(z) -> np.ndarray:
    """Coerce to a flat float64 state vector of even length."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size % 2:
        raise ValueError(f"state length must be even, got {z.size}")
    return z


def pairs(z: np.ndarray) -> np.ndarray:
    """View a flat state as an (N, 2) array of positions."""
    return as_state(z).reshape(-1, 2)


def perp(z) -> np.ndarray:
    """Blockwise clockwise quarter turn: (x, y) -> (y, -x)."""
    p = pairs(z)
    out = np.empty_like(p)
    out[:, 0] = p[:, 1]
    out[:, 1] = -p[:, 0]
    return out.reshape(np.shape(np.asarray(z)))


def rotate_all(z, theta) -> np.ndarray:
    """Rotate every (x, y) pair counterclockwise by theta:
    cos(theta) z - sin(theta) perp(z).

    theta broadcasts against the leading axes of z: a scalar turns a
    state or every row of a (..., 2N) batch; an array of angles gives a
    flat state one rotated copy per angle, stacked along the angles'
    shape, and a batch one angle per row.
    """
    z = np.asarray(z, dtype=float)
    th = np.asarray(theta, dtype=float)[..., None]
    return np.cos(th) * z - np.sin(th) * perp(z)


def spin(z, omega: float, t) -> np.ndarray:
    """Rigid rotation flow exp(omega*t*perp) applied to a state.

    With the clockwise generator, spin(z, omega, t) is a counterclockwise
    rotation by -omega*t; an array of times stacks as in rotate_all.
    """
    return rotate_all(z, -omega * np.asarray(t, dtype=float))


def closest_pair(p: np.ndarray, mask=None):
    """(distances, pairs) of the closest pair of each set of points in
    p, (..., N, 2): distances (...), a scalar for one set, and index
    pairs (..., 2).

    mask: optional (N, N) boolean array of the pairs to consider.  A set
    with no allowed pair reads distance inf.
    """
    n = p.shape[-2]
    # per coordinate: differencing (..., N, N, 2) is several times slower
    dx, dy = (x[..., :, None] - x[..., None, :] for x in np.moveaxis(p, -1, 0))
    d2 = (dx * dx + dy * dy).reshape(*p.shape[:-2], n * n)
    skip = np.eye(n, dtype=bool) | (False if mask is None else ~mask)
    d2[..., skip.ravel()] = np.inf
    k = np.argmin(d2, axis=-1)
    return np.sqrt(np.min(d2, axis=-1))[()], np.stack(np.divmod(k, n), -1)


def permutation_matrix(sigma) -> np.ndarray:
    """2N x 2N matrix of the action w -> (w_{sigma^{-1}(1)}, ...).

    `sigma` maps index i to sigma[i] (0-based).  Row block j of the result
    picks position block sigma^{-1}(j) of the input.
    """
    sigma = list(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {sigma}")
    S = np.zeros((2 * n, 2 * n))
    # (Sw)_j = w_{sigma^{-1}(j)}: block (j, i) is the identity iff j = sigma(i)
    for i, j in enumerate(sigma):
        S[2 * j: 2 * j + 2, 2 * i: 2 * i + 2] = np.eye(2)
    return S


def permutation_order(sigma) -> int:
    """Least common multiple of the cycle lengths of sigma."""
    sigma = list(sigma)
    seen = [False] * len(sigma)
    order = 1
    for start in range(len(sigma)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = sigma[i]
            length += 1
        order = order * length // gcd(order, length)
    return order


#: a residual at most this share of the one before marks the superlinear
#: phase, and a step on the previous Jacobian must contract by as much
SUPERLINEAR_CONTRACTION = 1e-2


def newton(fun, x, check, *, tol, max_iterations, residual=None):
    """Newton iteration on (F, J) = fun(x) until |F| <= tol; returns x
    and the residual |F| of every evaluated iterate.

    The step is lstsq(J, -F) at numpy's default rcond, with F padded by
    zeros to J's row count: a caller keeps the step off a direction,
    such as a symmetry generator, by appending it as a row to J.
    ConvergenceError, carrying the last admissible iterate, reports an
    exhausted budget or a new iterate that check rejects with
    DomainViolationError or CollisionError.

    residual, optional, returns the F of fun(x) alone.  Once the newest
    residual is at most SUPERLINEAR_CONTRACTION times the one before, the
    iterates' F comes from residual and the step reuses the previous J
    (a chord step; Kelley, Solving Nonlinear Equations with Newton's
    Method, 2003).  fun runs again at an iterate whose F from residual
    has neither converged nor contracted by that factor, and its F is
    that iterate's residual.  Without residual every iterate calls fun
    once.
    """
    if max_iterations < 0:
        raise ConstraintViolationError(
            f"max_iterations must be >= 0, got {max_iterations}")
    if not np.isfinite(tol):
        raise ConstraintViolationError(f"tol must be finite, got {tol}")
    residuals = []
    for iteration in range(max_iterations + 1):
        chord = (residual is not None and len(residuals) >= 2
                 and residuals[-1] <= SUPERLINEAR_CONTRACTION * residuals[-2])
        if chord:
            F = residual(x)
            norm = float(np.linalg.norm(F))
            chord = norm <= max(tol, SUPERLINEAR_CONTRACTION * residuals[-1])
        if not chord:
            F, J = fun(x)
            norm = float(np.linalg.norm(F))
        residuals.append(norm)
        if residuals[-1] <= tol:
            return x, residuals
        if iteration == max_iterations:
            raise ConvergenceError(
                f"no convergence in {max_iterations} iterations "
                f"(residual {residuals[-1]:.3e})", iterations=max_iterations,
                last_iterate=x, residual=residuals[-1])
        x_new = x + np.linalg.lstsq(J, np.pad(-F, (0, len(J) - F.size)))[0]
        try:
            check(x_new)
        except (DomainViolationError, CollisionError) as exc:
            raise ConvergenceError(
                f"iterate left the admissible set after {iteration + 1} "
                f"steps: {exc}", iterations=iteration + 1, last_iterate=x,
                residual=residuals[-1]) from exc
        x = x_new


def aligned_distance(a, b):
    """Min over theta of ||rotate_all(a, theta) - b||_2: the distance of
    two states up to one global rotation.

    a and b are (..., 2N) arrays whose leading axes broadcast; the result
    has one distance per leading index (a scalar for two flat states).
    The optimal angle is arctan2(<ccw quarter turn of a, b>, <a, b>); the
    distance is then the norm of the aligned difference, not the root of
    the closed form |a|^2 + |b|^2 - 2 hypot of those two products, which
    cancels to a roundoff floor near zero.
    """
    a = np.asarray(a, dtype=float)
    theta = np.arctan2(-np.sum(perp(a) * b, axis=-1), np.sum(a * b, axis=-1))
    return np.linalg.norm(rotate_all(a, theta) - b, axis=-1)
