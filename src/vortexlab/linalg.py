"""Small linear-algebra helpers shared across the package.

Convention: planar states are flat float64 vectors (x1, y1, x2, y2, ...),
whose complex points are x1 + i y1, x2 + i y2, ....  The symplectic
quarter turn used throughout is the clockwise perp(x, y) = (y, -x);
exp(theta * perp) rotates every pair clockwise by theta.  All catalog
angular velocities are expressed against this generator, so a positive
physical (counterclockwise) rotation rate shows up as a negative angular
velocity, and a rigid rotation at angular velocity omega turns a state
by the angle -omega * t.

perp is the only quarter turn; its matrix is built by applying it to
columns.  rotate_all is the only turn of states: each vortex's complex
point times exp(i theta), with one angle for all of them or one per
vortex, and as many copies as rows of angles.  The co-rotating frames
of `systems` read its core, _turn, with factors they form themselves.
state_points is the one complex view of states (..., 2N): _turn reads
it, and so does every energy of `systems`, on one state or a batch.
aligned_distance is the only rotation fit: it compares states, or
batches of states, up to one global rotation.  newton is the only
Newton loop, shared by the anchor search, the phase scan and the
collocation of periodic orbits, with one step rule: a square solve of
the Jacobian bordered by rows (the directions the step must not take)
and columns (the directions the residual may take), multipliers
dropped.
"""

from __future__ import annotations

from math import lcm

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

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


def complex_points(p) -> np.ndarray:
    """Positions (..., 2) as complex points x1 + i x2, (...)."""
    return np.ascontiguousarray(p, dtype=float).view(complex)[..., 0]


def state_points(z) -> np.ndarray:
    """The complex points (..., N) of the states z, (..., 2N)."""
    return np.ascontiguousarray(z, dtype=float).view(complex)


def real_blocks(L, K) -> np.ndarray:
    """The real (..., 2n, 2m) matrices of complex (..., n, m) derivatives
    L and K, whose leading axes broadcast.

    D_i = d_1 f_i - i d_2 f_i is the complex form of the gradient of a
    real f_i, and L = dD/d(conj z), K = dD/dz over the complex points z_j.
    Block (i, j) is the real derivative of (d_1 f_i, d_2 f_i) in z_j,
    v -> conj(L) v + conj(K) conj(v): with P = L + K and M = L - K,
    [[Re P, Im M], [-Im P, Re M]].
    """
    P, M = L + K, L - K
    *lead, n, m = P.shape
    out = np.empty((*lead, 2 * n, 2 * m))
    out[..., 0::2, 0::2] = P.real
    out[..., 0::2, 1::2] = M.imag
    np.negative(P.imag, out=out[..., 1::2, 0::2])
    out[..., 1::2, 1::2] = M.real
    return out


def perp(z) -> np.ndarray:
    """Blockwise clockwise quarter turn: (x, y) -> (y, -x)."""
    p = pairs(z)
    out = np.empty_like(p)
    out[:, 0] = p[:, 1]
    out[:, 1] = -p[:, 0]
    return out.reshape(np.shape(np.asarray(z)))


def rotate_all(z, theta) -> np.ndarray:
    """The states z, (..., 2N), with every vortex turned counterclockwise
    by theta: its complex point times exp(i theta).

    theta broadcasts against the complex points, (..., N): a scalar
    turns every vortex alike, (N,) each vortex by its own angle, (k, 1)
    makes k turned copies of a flat state (or turns each of k rows by
    its own angle), and (k, N) does both.
    """
    return _turn(z, np.exp(1j * np.asarray(theta, dtype=float)))


def _turn(z, factor) -> np.ndarray:
    """The states z, (..., 2N), with their complex points times the unit
    factors `factor`, which broadcast against (..., N)."""
    return (state_points(z) * factor).view(float)


def closest_pair(p: np.ndarray, mask=None):
    """(distances, pairs) of the closest pair of each set of points in
    p, (..., N, 2): distances (...), a scalar for one set, and index
    pairs (..., 2).

    mask: optional (N, N) boolean array of the pairs to consider.  A set
    with no allowed pair reads distance inf.
    """
    n = p.shape[-2]
    # as complex points: differencing (..., N, N, 2) is several times slower
    z = complex_points(p)
    d = (z[..., :, None] - z[..., None, :]).reshape(*p.shape[:-2], n * n)
    d2 = np.square(d.real) + np.square(d.imag)
    d2[..., ::n + 1] = np.inf
    if mask is not None:
        d2[..., ~mask.ravel()] = np.inf
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
    sigma, seen, order = list(sigma), set(), 1
    for start in range(len(sigma)):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i, length = sigma[i], length + 1
        order = lcm(order, length or 1)
    return order


def newton(fun, x, check, *, tol, max_iterations):
    """Newton iteration on (F, J, G, C) = fun(x) until |F| <= tol;
    returns x and the residual |F| of every evaluated iterate.

    Each step solves the square system [[J, C^T], [G, 0]] (dx, mu) =
    (-F, 0) and drops the multipliers mu.  The rows G keep the step off
    directions J leaves free, such as the generators of a symmetry; the
    columns C take up the part of F that J cannot reach, such as the
    gradients of first integrals, or the generators themselves when J is
    symmetric.  G holds vectors like x, C vectors like F, as many as
    make the matrix square; either may be empty.

    One dense LAPACK LU factors the matrix: an orbit's collocation
    matrix is about 200 rows wide and 18% nonzero, but SuperLU's factors
    of it fill to about 95% under every column ordering, and with the CSC
    assembly a step took 1.8 ms against 0.46 ms dense (2-core Xeon).
    np.block assembles the matrix C-ordered, so its transpose is
    Fortran-ordered and dgetrf factors it in place; dgetrs solves with
    the transposed factors.

    ConvergenceError, carrying the last admissible iterate, reports an
    exhausted budget, a non-finite residual or matrix, an exactly
    singular matrix, or a new iterate that check rejects with
    DomainViolationError or CollisionError.  A matrix that is not square
    is the caller's error, a ValueError.
    """
    if max_iterations < 0:
        raise ConstraintViolationError(
            f"max_iterations must be >= 0, got {max_iterations}")
    if not np.isfinite(tol):
        raise ConstraintViolationError(f"tol must be finite, got {tol}")
    residuals = []
    for iteration in range(max_iterations + 1):
        F, J, G, C = fun(x)
        residuals.append(float(np.linalg.norm(F)))
        if residuals[-1] <= tol:
            return x, residuals
        failure = dict(last_iterate=x, residual=residuals[-1])
        if iteration == max_iterations:
            raise ConvergenceError(
                f"no convergence in {max_iterations} iterations "
                f"(residual {residuals[-1]:.3e})", iterations=iteration,
                **failure)
        G, C = np.reshape(G, (-1, x.size)), np.reshape(C, (-1, F.size))
        A = np.block([[J, C.T], [G, np.zeros((len(G), len(C)))]])
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"Newton matrix must be square, got {A.shape}")
        if not (np.isfinite(F).all() and np.isfinite(A).all()):
            raise ConvergenceError(
                f"non-finite Newton residual or matrix after {iteration} "
                "steps", iterations=iteration, **failure)
        lu, pivots, info = dgetrf(A.T, overwrite_a=True)
        if info > 0:  # an exactly zero pivot
            raise ConvergenceError(
                f"singular Newton matrix after {iteration} steps",
                iterations=iteration, **failure)
        step = dgetrs(lu, pivots, np.concatenate([-F, np.zeros(len(G))]),
                      trans=1)[0]
        x_new = x + step[:x.size]
        try:
            check(x_new)
        except (DomainViolationError, CollisionError) as exc:
            raise ConvergenceError(
                f"iterate left the admissible set after {iteration + 1} "
                f"steps: {exc}", iterations=iteration + 1, **failure) from exc
        x = x_new


def aligned_distance(a, b):
    """Min over theta of ||rotate_all(a, theta) - b||_2: the distance of
    two states up to one global rotation.

    a and b are (..., 2N) arrays whose leading axes broadcast; the result
    has one distance per leading index (a scalar for two flat states).
    The optimal angle is arg sum conj(a) b over the complex points; the
    distance is then the norm of the aligned difference, not the root of
    the closed form |a|^2 + |b|^2 - 2 |sum conj(a) b|, which cancels to a
    roundoff floor near zero.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    theta = np.angle(np.sum(a.view(complex).conj() * b.view(complex), axis=-1))
    return np.linalg.norm(rotate_all(a, theta[..., None]) - b, axis=-1)
