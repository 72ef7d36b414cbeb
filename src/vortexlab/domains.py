"""Planar domains and their Green's-function machinery.

A Domain supplies the regular part g(x, y) of the hydrodynamic Green's
function, the full two-point function

    G(x, y) = -(1/2pi) * log|x - y| - g(x, y),

and the boundary self-interaction term h(x) = g(x, x), together with
first and second derivatives of g in closed form.  Shipped domains:

* WholePlane      g == 0, invariant under all rigid motions and scaling.
* UnitDisc        Dirichlet disc: g(x, y) = -(1/2pi) log|1 - x conj(y)|.
* PerturbedDisc   UnitDisc regular part plus a small symmetric polynomial
                  bump; breaks the rotational symmetry, keeping g smooth
                  and symmetric.  Test fixture for the nondegenerate
                  stationary-point branch.

Everything is analytic; finite differences appear only in the tests.

Points are read as complex numbers x = x1 + i x2, and each domain
writes g and its derivatives once, in complex form, in
`regular_coefficients` over all pairs of two point arrays, or of two
batches of them along leading axes: g itself, and with the Wirtinger
derivatives d/dx = (d_x1 - i d_x2)/2 and d/d(conj x),

    G_x = d_x1 g - i d_x2 g,  G_xx = dG_x/dx,  G_xy = dG_x/dy,
    G_xyb = dG_x/d(conj y).

g is harmonic in x, so dG_x/d(conj x) = 0.  For the disc, with
m = 1/(1 - x conj(y)): G_x = conj(y) m/2pi, G_xx = conj(y)^2 m^2/2pi,
G_xyb = m^2/2pi and G_xy = 0.  The gradient of g in x is conj(G_x),
and each real 2x2 derivative block is v -> alpha v + beta conj(v)
(`linalg.real_blocks`): d_x^2 g has beta = conj(G_xx), d_y d_x g has
alpha = conj(G_xyb) and beta = conj(G_xy).

The energy assembly (`systems.assemble_interaction`) contracts these
coefficients directly: every energy weighs the pair (x_i, x_j) by
Gamma_i Gamma_j, so each table is contracted with the strengths in one
matrix-vector product over its last axis.  The scalar forms
regular_part, grad_regular and hess_regular read the same
coefficients, over the two points (x, y), after checking that both are
interior: the entry at (x, y) gives the x-derivatives and, g being
symmetric, the entry at (y, x) the y-derivatives; green and robin read
regular_part, so all five refuse a point on or outside the wall, or a
non-finite one, alike.  Derivative layout: grad_regular returns
(d_x g, d_y g) as two 2-vectors; hess_regular returns the 4x4 matrix
[[d_x^2 g, d_y d_x g], [d_x d_y g, d_y^2 g]] in (x1, x2, y1, y2)
coordinates.  Each domain writes its boundary geometry once, in
boundary_clearance, which reads a batch of points in one call.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod

import numpy as np

from .errors import (CoincidentPointError, ConstraintViolationError,
                     DomainViolationError)
from .linalg import TWO_PI, complex_points, real_blocks

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

    # -- regular part in complex form: the implementation ---------------
    @abstractmethod
    def regular_coefficients(self, zx, zy, order: int):
        """g over all pairs (zx[..., i], zy[..., j]) of the complex
        points zx, (..., n), and zy, (..., m), whose leading axes
        broadcast: at order 0 the real table g; at order 1 G_x; at order
        2 the tuple (G_x, G_xx, G_xy, G_xyb).  Each is a (..., n, m)
        array or one that broadcasts to it: a scalar, or (n, m) when
        the coefficient does not depend on the points."""

    # -- regular part at two points: read from the coefficients ---------
    def _pair_coefficients(self, x, y, order):
        """regular_coefficients over the points z = (x, y), each
        broadcast to (2, 2): entry [0, 1] is at (x, y), and g is
        symmetric, so entry [1, 0] gives the y-derivatives."""
        self.check_interior(x)
        self.check_interior(y)
        z = complex_points(np.array([x, y], dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            c = self.regular_coefficients(z, z, order)
        c = [np.broadcast_to(t, (2, 2)) for t in (c if order == 2 else [c])]
        if not all(np.isfinite(t).all() for t in c):
            raise DomainViolationError(f"g is not finite at {x}, {y}")
        return c

    def regular_part(self, x, y) -> float:
        """g(x, y)."""
        (g,) = self._pair_coefficients(x, y, 0)
        return float(g[0, 1])

    def grad_regular(self, x, y):
        """(d_x g, d_y g), each a 2-vector."""
        (gx,) = self._pair_coefficients(x, y, 1)
        grads = np.stack([gx.real, -gx.imag], axis=-1)
        return grads[0, 1], grads[1, 0]

    def hess_regular(self, x, y) -> np.ndarray:
        """4x4 second-derivative block matrix of g at (x, y)."""
        _, gxx, gxy, gxyb = self._pair_coefficients(x, y, 2)
        # d_x^2 g on the diagonal (g is harmonic in x), d_y d_x g off it
        off = ~np.eye(2, dtype=bool)
        H = real_blocks(np.where(off, gxyb, 0.0),
                        np.where(off, gxy, gxx[:, ::-1]))
        H[2:, :2] = H[:2, 2:].T
        return H

    # -- derived quantities ---------------------------------------------
    def green(self, x, y) -> float:
        """G(x, y) = -(1/2pi) log|x-y| - g(x, y); x != y required."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.linalg.norm(x - y)
        if d == 0.0:
            raise CoincidentPointError("green() requires x != y")
        return -np.log(d) / TWO_PI - self.regular_part(x, y)

    def robin(self, x) -> float:
        """h(x) = g(x, x)."""
        return self.regular_part(x, x)


class WholePlane(Domain):
    symmetry = SymmetryClass.PLANE_FULL
    name = "plane"

    def boundary_clearance(self, x):
        return np.where(np.isfinite(x).all(axis=-1), np.inf, np.nan)[()]

    def regular_coefficients(self, zx, zy, order):
        return 0.0 if order < 2 else (0.0, 0.0, 0.0, 0.0)


class UnitDisc(Domain):
    """Dirichlet Green's function of the open unit disc.

    In complex form, with 1 - x conj(y) nonzero for interior points:

        g(x, y) = -(1/2pi) log|1 - x conj(y)|
        h(x)    = -(1/2pi) log(1 - |x|^2)

    and g = Re F with F holomorphic in x and in conj(y), so its
    coefficients are F's derivatives (see the module docstring).
    """

    symmetry = SymmetryClass.ROTATIONAL
    name = "unit-disc"

    def boundary_clearance(self, x):
        return 1.0 - np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def regular_coefficients(self, zx, zy, order):
        # on a self pair q = 1 - |x|^2 keeps full relative precision near
        # the wall; its square, expanded in real coordinates, cancels there
        yc = zy.conj()[..., None, :]
        q = -zx[..., :, None] * yc
        q += 1.0
        if order == 0:
            return np.log(np.abs(q)) / -TWO_PI
        gx = (yc / TWO_PI) / q
        if order == 1:
            return gx
        return gx, TWO_PI * gx * gx, 0.0, 1.0 / (TWO_PI * q * q)


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

    def regular_coefficients(self, zx, zy, order):
        disc = super().regular_coefficients(zx, zy, order)
        eps = self.epsilon
        if order == 0:
            x, y = zx[..., :, None], zy[..., None, :]
            return disc + eps * (x.real * y.real + 2.0 * x.imag * y.imag
                                 + x.real + y.real)
        # G_x = eps (y1 + 1 - 2i y2) = eps (1 + 1.5 conj(y) - 0.5 y): the
        # real block d_y d_x bump = eps diag(1, 2) is 1.5 eps conformal
        # plus -0.5 eps anticonformal
        bump = eps * (1.0 + 1.5 * zy.conj() - 0.5 * zy)[..., None, :]
        if order == 1:
            return disc + bump
        gx, gxx, gxy, gxyb = disc
        return gx + bump, gxx, gxy - 0.5 * eps, gxyb + 1.5 * eps


def make_domain(kind: str) -> Domain:
    """Factory keyed by the CLI's domain names; the perturbed disc takes
    its default bump amplitude (PerturbedDisc(epsilon) sets another)."""
    kind = kind.strip().lower()
    if kind in ("perturbed-disc", "perturbed-disk"):
        return PerturbedDisc()
    if kind in ("plane", "whole-plane", "wholeplane", "r2"):
        return WholePlane()
    if kind in ("disc", "disk", "unit-disc", "unit-disk"):
        return UnitDisc()
    raise ValueError(f"unknown domain kind: {kind!r}")
