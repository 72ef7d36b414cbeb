"""Vortex systems and every energy the package needs.

All interaction energies here share one algebraic shape,

    E(x) = sum_{i != j} A_ij * k(x_i, x_j) + sum_{i, j} B_ij * g(x_i, x_j),

where k(x, y) = -(1/2pi) log|x - y| is the whole-plane kernel and g is a
domain's regular part.  The double sums run over ordered pairs, so each
unordered pair is counted twice; no factor of 2 ever appears inside k or
g.  Choosing the coefficient matrices recovers:

* full Hamiltonian H:      A = Gamma Gamma^T (off-diagonal), B = -Gamma Gamma^T (full);
  the diagonal of B supplies the -Gamma_i^2 h(x_i) self terms since h(x) = g(x, x).
* cluster energy:          A = Gamma Gamma^T on intra-cluster off-diagonal pairs,
  B = 0, evaluated with the plane kernel regardless of the ambient domain.
* coupling term F:         positions shifted by the anchor, A on cross-cluster
  pairs, B = -Gamma Gamma^T (full).
* rescaled energy E_r:     the full Hamiltonian's coefficients, read in the
  rescaled system's frame (see RescaledSystem), so one assembly gives the
  value, or the field together with its Jacobian.

`assemble_interaction` evaluates the value or the gradient/Hessian of that
shape in closed form (no finite differences anywhere outside the tests).

Both systems derive from FlowSystem, which writes the energy and its
derivatives, the vector field and its Jacobian, and the admissibility
check (`validate_state`, for start states, Newton iterates and
screening samples alike) once, on each subclass's `_assemble(y, order)`,
energy offset `_offset` and `guard_geometry`.  RescaledSystem routes
`hamiltonian` and `vector_field` through `rescaled_hamiltonian` and
`rescaled_field`, which keep their names (with `rescaled_field_jacobian`)
because the benchmark's tracer counts calls to them.

States are flat float64 vectors (x1, y1, ..., xN, yN).  The equations of
motion are  M ż = P ∇H(z)  with M = diag(Gamma_i I_2) and P the blockwise
clockwise quarter turn, so ż_i = perp(∇_{z_i} H) / Gamma_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domains import BOUNDARY_MARGIN, Domain, WholePlane
from .errors import (CollisionError, ConstraintViolationError,
                     DomainViolationError)
from .linalg import TWO_PI, as_state, closest_pair, pairs

COLLISION_TOL = 1e-8


# ---------------------------------------------------------------------------
# generic assembly
# ---------------------------------------------------------------------------

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
    A = np.asarray(A, dtype=float)
    off = ~np.eye(n, dtype=bool)

    diff = p[:, None, :] - p[None, :, :]
    S = s = 1.0
    if frame is not None:
        S, C, s, b = frame
        diff = S[:, :, None] * diff + C
        p = s * p + b
    d2 = np.einsum("ijd,ijd->ij", diff, diff)
    Aoff = np.where(off, A, 0.0)
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

    # derivatives in x carry the chain factor S per kernel pair, s for g
    if order >= 1:
        k1 = -diff / (TWO_PI * d2s[:, :, None])  # d_x k at (x_i, x_j)
        grad = 2.0 * np.einsum("ij,ija->ia", Aoff * S, k1)
        if use_g:
            g1 = domain.grad_regular_many(p, p)
            grad = grad + 2.0 * np.einsum("ij,ija->ia", s * B, g1)
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
            Boff = np.where(off, B2, 0.0)
            blocks = blocks + 2.0 * g21 * Boff[:, :, None, None]
            diag = diag + 2.0 * np.einsum("ij,ijab->iab", Boff, g11)
            # self term B_ii g(x_i, x_i): full derivative of x -> g(x, x)
            bdiag = np.diagonal(B2)
            ii = np.arange(n)
            diag = diag + 2.0 * bdiag[:, None, None] * (g11[ii, ii] + g21[ii, ii])
        blocks[np.arange(n), np.arange(n)] = diag
        hess = blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)

    return value, grad, hess


def _weighted_perp_rows(mat: np.ndarray, strengths: np.ndarray) -> np.ndarray:
    """Rows of M^{-1} P applied to a (2N,) vector or a (2N, k) matrix."""
    n = strengths.size
    H = mat.reshape(n, 2, -1)
    out = np.empty_like(H)
    out[:, 0, :] = H[:, 1, :]
    out[:, 1, :] = -H[:, 0, :]
    out /= strengths[:, None, None]
    return out.reshape(mat.shape)


# ---------------------------------------------------------------------------
# the surface both systems share
# ---------------------------------------------------------------------------

class FlowSystem:
    """Energy, flow and admissibility of a vortex system in its own
    coordinates.  A subclass provides n, gamma, domain,
    `_assemble(y, order)`, `_offset` and `guard_geometry(y)` ->
    (positions to guard, pair mask or None, check_boundary).
    """

    _offset = 0.0

    def validate_state(self, y, time=None, collision_tol: float = COLLISION_TOL,
                       boundary_margin: float = BOUNDARY_MARGIN) -> float:
        """Raise DomainViolationError for a guarded position that is not
        finite or within boundary_margin of the wall, then CollisionError
        for a guarded pair within collision_tol; else return the closest
        guarded separation."""
        y = as_state(y)
        if y.size != 2 * self.n:
            raise ConstraintViolationError(
                f"state has {y.size // 2} positions, system has {self.n}")
        p, mask, check_boundary = self.guard_geometry(y)
        if check_boundary:
            # one call per vortex (perfbench counts them)
            clearance = [self.domain.boundary_clearance(x) for x in p]
        else:
            # no wall to clear, but closest_pair skips a NaN distance, so a
            # non-finite position fails here
            clearance = np.where(np.isfinite(p).all(axis=1), np.inf, np.nan)
        k = int(np.argmin(clearance))  # argmin picks a NaN
        if not clearance[k] > boundary_margin:
            raise DomainViolationError(
                f"vortex {k} at {p[k]} is not interior to {self.domain.name} "
                f"(clearance {clearance[k]:.3e}, margin {boundary_margin:.1e})",
                index=k, time=time)
        d, pair = closest_pair(p, mask)
        if d <= collision_tol:
            raise CollisionError(
                f"vortices {pair[0]} and {pair[1]} are {d:.3e} apart "
                f"(tolerance {collision_tol:.1e})",
                pair=pair, distance=d, time=time)
        return d

    # -- energy --------------------------------------------------------------
    def hamiltonian(self, y) -> float:
        return self._assemble(y, 0)[0] - self._offset

    def gradient(self, y) -> np.ndarray:
        return self._assemble(y, 1)[1]

    def hessian(self, y) -> np.ndarray:
        return self._assemble(y, 2)[2]

    def gradient_and_hessian(self, y):
        """(gradient, Hessian) of the energy from one order-2 assembly."""
        _, g, H = self._assemble(y, 2)
        return g, H

    # -- flow ----------------------------------------------------------------
    def vector_field(self, y) -> np.ndarray:
        return _weighted_perp_rows(self.gradient(y), self.gamma)

    def field_jacobian(self, y) -> np.ndarray:
        return _weighted_perp_rows(self.hessian(y), self.gamma)

    def field_and_jacobian(self, y):
        """(vector field, its Jacobian) from one order-2 assembly."""
        g, H = self.gradient_and_hessian(y)
        return (_weighted_perp_rows(g, self.gamma),
                _weighted_perp_rows(H, self.gamma))


# ---------------------------------------------------------------------------
# vortex system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VortexSystem(FlowSystem):
    """N point vortices with a cluster layout on a domain.

    strengths: length-N nonzero reals.  cluster_sizes: partition of N in
    the flattened ordering.  The trivial layout (1, ..., 1) makes every
    vortex its own cluster (used for skeleton energies).
    """

    strengths: tuple
    cluster_sizes: tuple
    domain: Domain = field(default_factory=WholePlane)

    def __post_init__(self):
        gam = np.asarray(self.strengths, dtype=float)
        if gam.ndim != 1 or gam.size == 0:
            raise ConstraintViolationError("strengths must be a flat nonempty list")
        if np.any(gam == 0.0):
            raise ConstraintViolationError("every vortex strength must be nonzero")
        sizes = tuple(int(s) for s in self.cluster_sizes)
        if any(s < 1 for s in sizes) or sum(sizes) != gam.size:
            raise ConstraintViolationError(
                f"cluster sizes {sizes} do not partition {gam.size} vortices")
        object.__setattr__(self, "strengths", tuple(float(x) for x in gam))
        object.__setattr__(self, "cluster_sizes", sizes)

    # -- derived layout --------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.strengths)

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_sizes)

    @property
    def gamma(self) -> np.ndarray:
        return np.asarray(self.strengths)

    @property
    def cluster_strengths(self) -> np.ndarray:
        """Per-cluster strength sums."""
        members = np.split(self.gamma, np.cumsum(self.cluster_sizes)[:-1])
        return np.array([g.sum() for g in members])

    @property
    def cluster_index(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_clusters), self.cluster_sizes)

    @property
    def weights(self) -> np.ndarray:
        """Diagonal of M as a flat (2N,) vector."""
        return np.repeat(self.gamma, 2)

    def _coeff(self) -> np.ndarray:
        return np.outer(self.gamma, self.gamma)

    def _assemble(self, z, order: int):
        A = self._coeff()
        return assemble_interaction(pairs(z), A, -A, self.domain, order=order)

    def guard_geometry(self, z):
        """(positions to guard, pair mask or None, check_boundary)."""
        return pairs(z), None, True


# ---------------------------------------------------------------------------
# rescaled system
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RescaledSystem(FlowSystem):
    """Cluster-relative coordinates u around a stationary anchor.

    Physical positions are  z = r*u + anchor_hat, where anchor_hat repeats
    each cluster's anchor for its members.  The governing energy is

        E_r(u) = E_clusters(u) + F(r*u) - E_skeleton(anchor)

    whose gradient satisfies  grad E_r(u) = r * grad H(r*u + anchor_hat),
    so trajectories map to physical ones by z(t) = r*u(t/r^2) + anchor_hat.
    E_skeleton, the energy of one vortex of the summed strength per
    cluster at the anchor, is the `_offset` fixed at construction.

    Coefficients, masks and anchor offsets are fixed at construction.
    Each energy, gradient or Hessian is one assembly in the frame
    u -> (pair differences, physical points): cross-cluster pairs read
    r*(u_i - u_j) + (anchor_hat_i - anchor_hat_j) and the regular part g
    reads r*u + anchor_hat.  Intra-cluster pairs read u_i - u_j, i.e.
    r*(u_i - u_j) with the factor r divided out of the log kernel's
    derivatives; they keep full relative precision at small r, and r = 0
    is the decoupled limit.
    """

    base: VortexSystem
    anchor: np.ndarray
    scale: float

    def __post_init__(self):
        a = np.asarray(self.anchor, dtype=float).reshape(-1, 2)
        if a.shape[0] != self.base.n_clusters:
            raise ConstraintViolationError(
                f"anchor has {a.shape[0]} points, system has "
                f"{self.base.n_clusters} clusters")
        if self.scale < 0.0:
            raise ConstraintViolationError("scale r must be >= 0")
        sk = VortexSystem(tuple(self.base.cluster_strengths),
                          (1,) * self.base.n_clusters, self.base.domain)
        sk.validate_state(a)
        r = float(self.scale)
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "scale", r)
        ci = self.base.cluster_index
        intra = ci[:, None] == ci[None, :]
        A = self.base._coeff()
        ahat = np.repeat(a, self.base.cluster_sizes, axis=0)
        frame = (np.where(intra, 1.0, r), ahat[:, None, :] - ahat[None, :, :],
                 r, ahat)
        ahat.flags.writeable = False
        for name, value in (("_offset", sk.hamiltonian(a.reshape(-1))),
                            ("_intra", intra), ("_A", A),
                            ("_A_cross", np.where(intra, 0.0, A)),
                            ("_ahat", ahat), ("_frame", frame)):
            object.__setattr__(self, name, value)

    # -- layout helpers ----------------------------------------------------
    @property
    def domain(self) -> Domain:
        return self.base.domain

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def gamma(self) -> np.ndarray:
        return self.base.gamma

    @property
    def anchor_hat(self) -> np.ndarray:
        """Flat (2N,) vector repeating each anchor for its cluster."""
        return self._ahat.reshape(-1)

    def to_physical(self, u) -> np.ndarray:
        return self.scale * as_state(u) + self.anchor_hat

    # -- coupling term F -----------------------------------------------------
    def _coupling_parts(self, w, order: int):
        return assemble_interaction(pairs(w) + self._ahat, self._A_cross,
                                    -self._A, self.domain, order=order)

    def coupling(self, w) -> float:
        return self._coupling_parts(w, 0)[0]

    def coupling_grad(self, w) -> np.ndarray:
        return self._coupling_parts(w, 1)[1]

    def coupling_hess(self, w) -> np.ndarray:
        return self._coupling_parts(w, 2)[2]

    # -- rescaled energy E_r and its flow --------------------------------------
    def _assemble(self, u, order: int):
        return assemble_interaction(pairs(u), self._A, -self._A, self.domain,
                                    order=order, frame=self._frame)

    # the benchmark's tracer wraps these three names, so the energy and
    # the field the integrators call go through them
    def rescaled_hamiltonian(self, u) -> float:
        return super().hamiltonian(u)

    def rescaled_field(self, u) -> np.ndarray:
        return super().vector_field(u)

    def rescaled_field_jacobian(self, u) -> np.ndarray:
        return super().field_jacobian(u)

    def hamiltonian(self, u) -> float:
        return self.rescaled_hamiltonian(u)

    def vector_field(self, u) -> np.ndarray:
        return self.rescaled_field(u)

    # -- validation ------------------------------------------------------------
    def guard_geometry(self, u):
        """(positions to guard, pair mask or None, check_boundary): the
        physical state for r > 0; at r = 0 the intra-cluster pairs of u."""
        if self.scale > 0.0:
            return pairs(self.to_physical(u)), None, True
        return pairs(u), self._intra, False
