"""The real-coordinate energy assembly that the complex form replaced,
kept verbatim as a test oracle.

`assemble_interaction` below forms the pair differences as (N, N, 2)
arrays and the Hessian blocks as (N, N, 2, 2) arrays with einsum; its
domains (`RealPlane`, `RealDisc`, `RealPerturbedDisc`) write g and its
derivatives in real coordinates from q(x, y) = |x|^2 |y|^2 - 2 <x, y> + 1.
`real_domain` gives the reference twin of a package domain and
`real_frame` the (N, N, 2) frame of a RescaledSystem.

Near the wall q cancels: on a self pair at clearance 1e-6 it is about
4e-12, formed from terms of size 1, so the float form loses about 1e-4
of it.  `real_domain(..., exact_q=True)` evaluates q alone in exact
rational arithmetic, rounded once, and keeps everything else as it was.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from vortexlab import Domain, PerturbedDisc, UnitDisc, WholePlane

FOUR_PI = 4.0 * np.pi
TWO_PI = 2.0 * np.pi


def assemble_interaction(positions, A, B=None, domain: Domain | None = None,
                         order: int = 2, frame=None):
    """Evaluate the generic pairwise energy or its derivatives.

    positions: (N, 2).  A: (N, N) symmetric, diagonal ignored.  B: (N, N)
    symmetric or None; requires `domain` for its regular part g.  order:
    0 value, 1 gradient, 2 gradient and Hessian.  Returns (value, grad,
    hess) with None for what was not requested: the value, and with it g
    itself, is only evaluated at order 0.

    frame: None, or (S, C, s, b) to evaluate the energy in affine
    variables x = positions.  The kernel then reads the pair differences
    S_ij (x_i - x_j) + C_ij, the regular part reads the points s*x + b,
    and derivatives are taken with respect to x.
    """
    p = np.asarray(positions, dtype=float)
    n = p.shape[0]

    diff = p[:, None, :] - p[None, :, :]
    S = s = 1.0
    if frame is not None:
        S, C, s, b = frame
        diff = S[:, :, None] * diff + C
        p = s * p + b
    d2 = np.einsum("ijd,ijd->ij", diff, diff)
    Aoff = np.array(A, dtype=float)
    np.fill_diagonal(Aoff, 0.0)
    # the kernel is only read where A is nonzero; pad the rest (diagonal,
    # masked-out pairs, possibly coincident) to keep log/division finite
    d2s = np.where(Aoff != 0.0, d2, 1.0)
    use_g = B is not None
    if use_g:
        B = np.asarray(B, dtype=float)

    value = grad = hess = None
    if order == 0:
        value = float(np.sum(Aoff * (-0.5 * np.log(d2s) / TWO_PI)))
        if use_g:
            value += float(np.sum(B * domain.regular_part_many(p, p)))

    # derivatives in x carry the chain factor S per kernel pair, s for g;
    # 2 sum_j W_ij d_x k(x_i, x_j) with d_x k = -diff / (2 pi d2)
    if order >= 1:
        grad = np.einsum("ij,ija->ia", Aoff * S / d2s, diff) / -np.pi
        if use_g:
            grad = grad + 2.0 * domain.grad_regular_many(p, p, weights=s * B)
        grad = grad.reshape(-1)

    if order >= 2:
        A2 = Aoff * S * S
        I2 = np.eye(2)
        dd = d2s[:, :, None, None]
        k11 = -(I2 / dd - 2.0 * np.einsum("ija,ijb->ijab", diff, diff)
                / dd**2) / TWO_PI
        # d_y d_x k = -d_x^2 k for the log kernel
        blocks = 2.0 * (-k11) * A2[:, :, None, None]
        diag = 2.0 * np.einsum("ij,ijab->iab", A2, k11)
        if use_g:
            g11, g21 = domain.hess_regular_many(p, p)
            B2 = s * s * B
            Boff = np.where(~np.eye(n, dtype=bool), B2, 0.0)
            blocks = blocks + 2.0 * g21 * Boff[:, :, None, None]
            diag = diag + 2.0 * np.einsum("ij,ijab->iab", Boff, g11)
            # self term B_ii g(x_i, x_i): full derivative of x -> g(x, x)
            bdiag = np.diagonal(B2)
            ii = np.arange(n)
            diag = diag + 2.0 * bdiag[:, None, None] * (g11[ii, ii] + g21[ii, ii])
        blocks[np.arange(n), np.arange(n)] = diag
        hess = blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)

    return value, grad, hess


class RealPlane:
    def regular_part_many(self, px, py):
        px, py = np.atleast_2d(px), np.atleast_2d(py)
        return np.zeros((px.shape[0], py.shape[0]))

    def grad_regular_many(self, px, py, weights=None):
        px, py = np.atleast_2d(px), np.atleast_2d(py)
        m = () if weights is not None else (py.shape[0],)
        return np.zeros((px.shape[0], *m, 2))

    def hess_regular_many(self, px, py):
        px, py = np.atleast_2d(px), np.atleast_2d(py)
        z = np.zeros((px.shape[0], py.shape[0], 2, 2))
        return z, z.copy()


class RealDisc:
    # -- vectorized all-pairs forms ------------------------------------
    def regular_part_many(self, px, py):
        px, py = np.atleast_2d(px), np.atleast_2d(py)
        q = self._q_many(px, py)
        return -np.log(q) / FOUR_PI

    @staticmethod
    def _q_many(px, py):
        r2x = np.einsum("id,id->i", px, px)
        r2y = np.einsum("jd,jd->j", py, py)
        dots = px @ py.T
        return np.multiply.outer(r2x, r2y) - 2.0 * dots + 1.0

    def grad_regular_many(self, px, py, weights=None):
        px, py = np.atleast_2d(px), np.atleast_2d(py)
        q = self._q_many(px, py)
        r2y = np.einsum("jd,jd->j", py, py)
        if weights is not None:
            V = weights / q
            return -(px * (V @ r2y)[:, None] - V @ py) / TWO_PI
        # qx[i,j] = 2|y_j|^2 x_i - 2 y_j
        qx = 2.0 * r2y[None, :, None] * px[:, None, :] - 2.0 * py[None, :, :]
        return -qx / (FOUR_PI * q[:, :, None])

    def hess_regular_many(self, px, py):
        px, py = np.atleast_2d(px), np.atleast_2d(py)
        q = self._q_many(px, py)
        r2x = np.einsum("id,id->i", px, px)
        r2y = np.einsum("jd,jd->j", py, py)
        qx = 2.0 * r2y[None, :, None] * px[:, None, :] - 2.0 * py[None, :, :]
        qy = 2.0 * r2x[:, None, None] * py[None, :, :] - 2.0 * px[:, None, :]
        I2 = np.eye(2)
        qq = q[:, :, None, None]
        h11 = -(2.0 * r2y[None, :, None, None] * I2 / qq
                - np.einsum("ija,ijb->ijab", qx, qx) / qq**2) / FOUR_PI
        xyT = np.einsum("ia,jb->ijab", px, py)
        h21 = -((4.0 * xyT - 2.0 * I2) / qq
                - np.einsum("ija,ijb->ijab", qx, qy) / qq**2) / FOUR_PI
        return h11, h21


class RealPerturbedDisc(RealDisc):
    def __init__(self, epsilon):
        self.epsilon = epsilon

    def _bump(self, px, py):
        """The bump over all pairs; its derivatives are added below."""
        return self.epsilon * (
            np.multiply.outer(px[:, 0], py[:, 0])
            + 2.0 * np.multiply.outer(px[:, 1], py[:, 1])
            + px[:, 0][:, None] + py[:, 0][None, :]
        )

    def regular_part_many(self, px, py):
        px, py = np.atleast_2d(px), np.atleast_2d(py)
        return super().regular_part_many(px, py) + self._bump(px, py)

    def grad_regular_many(self, px, py, weights=None):
        py = np.atleast_2d(py)
        bump = self.epsilon * np.column_stack([py[:, 0] + 1.0, 2.0 * py[:, 1]])
        disc = super().grad_regular_many(px, py, weights)
        return disc + (weights @ bump if weights is not None else bump[None])

    def hess_regular_many(self, px, py):
        h11, h21 = super().hess_regular_many(px, py)
        return h11, h21 + self.epsilon * np.diag([1.0, 2.0])


def exact_q_many(px, py):
    """q over all pairs in exact rational arithmetic, rounded once."""
    def exact(points):
        return [[Fraction(float(c)) for c in point] for point in points]

    return np.array([[float((x1 * x1 + x2 * x2) * (y1 * y1 + y2 * y2)
                            - 2 * (x1 * y1 + x2 * y2) + 1)
                      for y1, y2 in exact(py)] for x1, x2 in exact(px)])


class ExactQDisc(RealDisc):
    _q_many = staticmethod(exact_q_many)


class ExactQPerturbedDisc(RealPerturbedDisc):
    _q_many = staticmethod(exact_q_many)


def real_domain(domain, exact_q=False):
    """The reference twin of a package domain."""
    if isinstance(domain, PerturbedDisc):
        twin = ExactQPerturbedDisc if exact_q else RealPerturbedDisc
        return twin(domain.epsilon)
    if isinstance(domain, UnitDisc):
        return ExactQDisc() if exact_q else RealDisc()
    assert isinstance(domain, WholePlane)
    return RealPlane()


def real_frame(rs):
    """The frame (S, C, s, b) of a RescaledSystem with real (N, N, 2)
    pair offsets C and (N, 2) points b."""
    ahat = rs.anchor_hat.reshape(-1, 2)
    return (rs._frame[0], ahat[:, None, :] - ahat[None, :, :], rs.scale,
            ahat)
