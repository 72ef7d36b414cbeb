"""Planar domains and their Green's-function machinery.

A Domain supplies the regular part g(x, y) of the hydrodynamic Green's
function, the full two-point function

    G(x, y) = -(1/2pi) * log|x - y| - g(x, y),

and the boundary self-interaction term h(x) = g(x, x), together with
first and second derivatives of g in closed form.  Shipped domains:

* WholePlane      g == 0, invariant under all rigid motions and scaling.
* UnitDisc        Dirichlet disc: g(x,y) = -(1/4pi) log(|x|^2|y|^2 - 2<x,y> + 1).
* PerturbedDisc   UnitDisc regular part plus a small symmetric polynomial
                  bump; breaks the rotational symmetry, keeping g smooth
                  and symmetric.  Test fixture for the nondegenerate
                  stationary-point branch.

Everything is analytic; finite differences appear only in the tests.
Derivative layout: grad_regular returns (d_x g, d_y g) as two 2-vectors;
hess_regular returns the 4x4 matrix [[d_x^2 g, d_y d_x g],
[d_x d_y g, d_y^2 g]] in (x1, x2, y1, y2) coordinates.

The all-pairs forms (suffix _many), which evaluate all pairs of two
position arrays at once, are the implementation: each domain writes g
and its derivatives only there, and the scalar forms regular_part,
grad_regular and hess_regular read their entries from them (g is
symmetric, so the y-derivatives are x-derivatives with the arguments
swapped).  The dynamics and shooting hot loops call the _many forms,
the field with grad_regular_many contracted by its coefficients
(`weights`).  Each domain writes its boundary geometry once, in
boundary_clearance, which reads a batch of points in one call.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod

import numpy as np

from .errors import ConstraintViolationError, DomainViolationError

FOUR_PI = 4.0 * np.pi
TWO_PI = 2.0 * np.pi
#: default clearance at or below which a point is not admissible
BOUNDARY_MARGIN = 1e-9


class SymmetryClass(enum.Enum):
    NONE = "none"
    ROTATIONAL = "rotational"
    TRANSLATIONAL = "translational"
    PLANE_FULL = "plane-full"


class Domain(ABC):
    """Interface for a planar domain with a symmetric C^2 regular part."""

    symmetry: SymmetryClass = SymmetryClass.NONE
    #: unit 2-vector for TRANSLATIONAL symmetry, else None
    translation_direction = None
    name: str = "domain"

    # -- membership ----------------------------------------------------
    @abstractmethod
    def boundary_clearance(self, x):
        """Clearance to the boundary of each point of x, (..., 2) ->
        (...); a non-finite point's clearance fails every margin."""

    def contains(self, x) -> bool:
        """True if x clears the boundary by more than BOUNDARY_MARGIN."""
        return bool(self.boundary_clearance(x) > BOUNDARY_MARGIN)

    def check_interior(self, x):
        if not self.contains(x):
            raise DomainViolationError(
                f"position {np.asarray(x)} is not interior to {self.name}")

    # -- regular part, all-pairs: the implementation ---------------------
    @abstractmethod
    def regular_part_many(self, px, py) -> np.ndarray:
        """(n, m) array of g(px[i], py[j])."""

    @abstractmethod
    def grad_regular_many(self, px, py, weights=None) -> np.ndarray:
        """(n, m, 2) array of d_x g(px[i], py[j]); with (n, m) weights
        W, the (n, 2) contraction sum_j W_ij d_x g(px[i], py[j])."""

    @abstractmethod
    def hess_regular_many(self, px, py):
        """Pair of (n, m, 2, 2) arrays: d_x^2 g and d_y d_x g."""

    # -- regular part, scalar: read from the all-pairs forms -------------
    # g is symmetric, so derivatives in y are x-derivatives with the
    # arguments swapped: entry [1, 0] over the points (x, y).
    def regular_part(self, x, y) -> float:
        """g(x, y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        self.check_interior(x)
        self.check_interior(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = float(self.regular_part_many(x, y)[0, 0])
        if not np.isfinite(g):
            raise DomainViolationError(f"g(x, y) = {g} is not finite at {x}, {y}")
        return g

    def grad_regular(self, x, y):
        """(d_x g, d_y g), each a 2-vector."""
        p = np.array([x, y], dtype=float)
        grads = self.grad_regular_many(p, p)
        return grads[0, 1], grads[1, 0]

    def hess_regular(self, x, y) -> np.ndarray:
        """4x4 second-derivative block matrix of g at (x, y)."""
        p = np.array([x, y], dtype=float)
        h11, h21 = self.hess_regular_many(p, p)
        H = np.empty((4, 4))
        H[:2, :2] = h11[0, 1]
        H[:2, 2:] = h21[0, 1]
        H[2:, :2] = h21[0, 1].T
        H[2:, 2:] = h11[1, 0]
        return H

    # -- derived quantities ---------------------------------------------
    def green(self, x, y) -> float:
        """G(x, y) = -(1/2pi) log|x-y| - g(x, y); x != y required."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.linalg.norm(x - y)
        if d == 0.0:
            from .errors import CoincidentPointError

            raise CoincidentPointError("green() requires x != y")
        self.check_interior(x)
        self.check_interior(y)
        return -np.log(d) / TWO_PI - self.regular_part(x, y)

    def robin(self, x) -> float:
        """h(x) = g(x, x)."""
        return self.regular_part(x, x)


class WholePlane(Domain):
    symmetry = SymmetryClass.PLANE_FULL
    name = "plane"

    def boundary_clearance(self, x):
        return np.where(np.isfinite(x).all(axis=-1), np.inf, np.nan)[()]

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


class UnitDisc(Domain):
    """Dirichlet Green's function of the open unit disc.

    With q(x, y) = |x|^2 |y|^2 - 2 <x, y> + 1 (strictly positive for
    interior points):

        g(x, y) = -(1/4pi) log q
        h(x)    = -(1/2pi) log(1 - |x|^2)

    Derivatives follow from d_x q = 2|y|^2 x - 2y.
    """

    symmetry = SymmetryClass.ROTATIONAL
    name = "unit-disc"

    def boundary_clearance(self, x):
        return 1.0 - np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def robin(self, x) -> float:
        # closed form: q(x, x) = (1 - |x|^2)^2 loses digits near the wall
        # (relative error 2.5e-7 at |x| = 1 - 1e-6)
        x = np.asarray(x, dtype=float)
        self.check_interior(x)
        return -np.log(1.0 - float(x @ x)) / TWO_PI

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


class PerturbedDisc(UnitDisc):
    """Unit disc with a small symmetric polynomial bump added to g.

    bump(x, y) = eps * (x1*y1 + 2*x2*y2 + x1 + y1)

    The bump is symmetric under swapping x and y and smooth, so it is an
    admissible regular part, but it has no rotational invariance: generic
    critical points of the resulting renormalized energy are isolated and
    nondegenerate, which is exactly what the classification tests need.
    """

    symmetry = SymmetryClass.NONE
    name = "perturbed-disc"

    def __init__(self, epsilon: float = 1e-2):
        self.epsilon = float(epsilon)
        if not np.isfinite(self.epsilon):
            raise ConstraintViolationError("epsilon must be finite")

    def _bump(self, px, py):
        """The bump over all pairs; its derivatives are added below."""
        return self.epsilon * (
            np.multiply.outer(px[:, 0], py[:, 0])
            + 2.0 * np.multiply.outer(px[:, 1], py[:, 1])
            + px[:, 0][:, None] + py[:, 0][None, :]
        )

    def robin(self, x) -> float:
        # the inherited closed form misses the bump diagonal
        p = np.atleast_2d(np.asarray(x, dtype=float))
        return super().robin(x) + float(self._bump(p, p)[0, 0])

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


def make_domain(kind: str, **kwargs) -> Domain:
    """Factory keyed by the CLI's domain names; a keyword the kind does
    not take (epsilon belongs to the perturbed disc) is a ValueError."""
    kind = kind.strip().lower()
    if kind in ("perturbed-disc", "perturbed-disk"):
        return PerturbedDisc(**kwargs)
    if kind in ("plane", "whole-plane", "wholeplane", "r2"):
        domain = WholePlane
    elif kind in ("disc", "disk", "unit-disc", "unit-disk"):
        domain = UnitDisc
    else:
        raise ValueError(f"unknown domain kind: {kind!r}")
    if kwargs:
        raise ValueError(f"{', '.join(kwargs)} is not a parameter of "
                         f"domain kind {kind!r}")
    return domain()
