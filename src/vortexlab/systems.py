"""Vortex systems and every energy the package needs.

All interaction energies here share one algebraic shape,

    E(x) = sum_{i != j, read} Gamma_i Gamma_j k(x_i, x_j)
           - sum_{i, j} Gamma_i Gamma_j g(x_i, x_j),

where k(x, y) = -(1/2pi) log|x - y| is the whole-plane kernel, g is a
domain's regular part, and the kernel's sum runs over the pairs a
frame reads.  The double sums run over ordered pairs, so each
unordered pair is counted twice; no factor of 2 ever appears inside k
or g.  Choosing the pairs and the frame recovers:

* full Hamiltonian H:      every pair; the diagonal of the regular sum
  supplies the -Gamma_i^2 h(x_i) self terms since h(x) = g(x, x).
* coupling term F:         positions shifted by the anchor, the kernel
  on cross-cluster pairs only.
* rescaled energy E_r:     the full Hamiltonian's pairs, read in the
  rescaled system's frame (see RescaledSystem), so one assembly gives the
  value, or the field together with its Jacobian.

Every coefficient is Gamma_i Gamma_j, a table of rank one, so the
assembly contracts each pair table with the strengths in one
matrix-vector product; `interaction_frame` folds the strengths, and
the constants of the kernel and of the frame, into the vectors it
contracts with, once per system.

`assemble_interaction` evaluates the value or the gradient/Hessian of that
shape in closed form (no finite differences anywhere outside the tests).
It has one form: complex points in, a complex gradient entry per vortex
and the Hessian's two complex (N, N) matrices out, read in an affine
frame that each system forms once, at construction (RescaledSystem
holds two, for E_r and for F).  The points are (..., N): leading axes
are a batch of states, each assembled as it would be alone, bit for
bit, and a single state has no leading axis.  So every energy, field
and Jacobian below reads states (..., 2N) and returns one result per
state; the integrators call them one state at a time, as DOP853's
stages follow one another, while the collocation of a periodic orbit
and the samples of Phi (`periodic`) make one call on all their states.

Both systems derive from FlowSystem, which writes the energy and its
derivatives, the vector field and its Jacobian, and the admissibility
check once, on each subclass's energy frame, energy offset `_offset`
and `guard_geometry`; a gradient or Hessian is put in real form only
where one is returned.  The check, `screen`, takes a step's screening
samples in one call; `validate_state`, for start states and
Newton iterates, is its one-row case.  RescaledSystem routes
`hamiltonian` and `vector_field` through `rescaled_hamiltonian` and
`rescaled_field`, which keep their names because the benchmark's tracer
counts calls to them; its Jacobian is FlowSystem's `field_jacobian`.

States are flat float64 vectors (x1, y1, ..., xN, yN).  The equations of
motion are  M ż = P ∇H(z)  with M = diag(Gamma_i I_2) and P the blockwise
clockwise quarter turn, so ż_i = perp(∇_{z_i} H) / Gamma_i.  In complex
form that is the field c o conj(D): D the gradient's complex form from
the assembly, c = -i/Gamma one factor per vortex, and the Jacobian is
`real_blocks` of L and K scaled by conj(c) = i/Gamma on the rows.

The integrators advance each vortex in a co-rotating frame: v = exp(i
omega t) u, omega the angular velocity of its cluster's frame
(RescaledSystem's `omega`; 0 in VortexSystem, whose v is u).  The field
of v, V(t, v) = exp(i omega t) F(exp(-i omega t) v) + i omega v, is the
same expression with c turned by exp(i omega t) and the drift added
(FlowSystem._flow); `to_lab` turns co-rotating states back.  A superposed
orbit's clusters rotate almost rigidly, so in their own frames only the
O(r^2) motion on top of the rotation is left to resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .domains import BOUNDARY_MARGIN, Domain, WholePlane
from .errors import (CollisionError, ConstraintViolationError,
                     DomainViolationError)
from .linalg import (TWO_PI, _turn, as_state, closest_pair, complex_points,
                     real_blocks, state_points)

COLLISION_TOL = 1e-8


# ---------------------------------------------------------------------------
# generic assembly
# ---------------------------------------------------------------------------

def kernel_offsets(mask, C=0j) -> np.ndarray:
    """A frame's complex pair offsets C, (N, N), set to inf on the pairs
    the kernel does not read: the diagonal and the pairs where the
    boolean (N, N) mask is False.  Their pair difference is inf, so its
    reciprocal reads 0."""
    return np.where(mask & ~np.eye(len(mask), dtype=bool), C, np.inf)


def interaction_frame(gamma, mask, S=1.0, C=0j, s=1.0, b=0.0):
    """The frame of an energy, formed once and read by
    assemble_interaction: the tuple (S, C, C/S, s, b, Gamma, -Gamma/pi,
    -2 s Gamma, -Gamma Gamma^T/pi, -2 s^2 Gamma Gamma^T).

    The kernel reads the pair differences S_ij (z_i - z_j) + C_ij on the
    pairs the boolean (N, N) mask marks, the regular part the points
    s*z + b, and every pair's coefficient is Gamma_i Gamma_j, Gamma the
    (N,) float strengths.  The rest folds the strengths and the
    constants into the vectors and tables the pair tables are contracted
    with.  C/S is inf where the kernel does not read a pair or S is 0,
    so 1 / (z_i - z_j + C_ij/S_ij) is S_ij / w_ij on every pair.
    """
    C = kernel_offsets(mask, C)
    with np.errstate(divide="ignore", invalid="ignore"):
        CS = np.where(np.isfinite(C) & (S != 0.0), C / S, np.inf)
    a, c = gamma / -np.pi, -2.0 * s * gamma
    return (S, C, CS, s, b, gamma, a.astype(complex), c.astype(complex),
            np.outer(gamma, a), np.outer(s * c, gamma))


def _contract(t, v):
    """sum_j t_ij v_j over a pair table t, (..., N, N), or over the
    constant table a scalar t stands for."""
    return t @ v if np.ndim(t) else t * v.sum()


def assemble_interaction(z, domain: Domain, frame, order: int = 2):
    """Evaluate the pairwise energy or its derivatives.

    z: the complex points x1 + i x2, (..., N): one state, or a batch of
    states along the leading axes, each assembled alone.  order: 0
    value, 1 gradient, 2 gradient and Hessian.  Returns (value, D, (L,
    K)) with None for what was not requested: the value, and with it g
    itself, is only evaluated at order 0.

    frame: from `interaction_frame`, the affine frame in which the
    energy is read, with its strengths folded in.  The kernel reads the
    complex pair differences w_ij = S_ij (z_i - z_j) + C_ij on the pairs
    its mask marks, the regular part reads the points p = s*z + b, and
    derivatives are taken with respect to z.  Every coefficient is
    Gamma_i Gamma_j, so each pair table is contracted with the strengths
    by one matrix-vector product over the last axis: the kernel's table
    E = S/w, and the regular part's G_x, give D, and the value is
    Gamma . (log|w| @ (-Gamma/2pi) - g @ Gamma).

    Everything is in complex form (see `domains`): the kernel
    -(1/2pi) log|w| has G_x = -1/(2pi w); the gradient's complex form
    D_i = d_1 E - i d_2 E is (..., N), and its derivatives L = dD/d(conj
    z) and K = dD/dz are (..., N, N); `linalg.real_blocks` writes them
    out as the real Hessian.  L may come back (N, N), the same for every
    state, when the domain's G_xyb does not depend on the points.  The
    value is (...,).  Orders 1 and 2 form D alike, and pair sums run
    over the last axis, so each state's numbers depend neither on the
    order nor on the batch it is in.
    """
    S, C, CS, s, b, gamma, a, c, P, Q = frame
    w = z[..., :, None] - z[..., None, :]
    p = s * z + b

    if order == 0:
        logs = np.log(np.abs(S * w + C))
        logs[np.isposinf(logs)] = 0.0  # pairs the kernel does not read
        g = domain.regular_coefficients(p, p, 0)
        value = logs @ (gamma / -TWO_PI) - _contract(g, gamma)
        # a sum: a product would read a batch's rows as one matrix, and
        # need not add each row up as it would alone
        return (value * gamma).sum(axis=-1), None, None

    # D_i = Gamma_i sum_j (E_ij (-Gamma_j/pi) + G_x(p_i, p_j) (-2 s Gamma_j)),
    # each ordered pair twice, with E = S/w the kernel's pair table
    w += CS
    E = np.reciprocal(w, out=w)
    coef = domain.regular_coefficients(p, p, order)
    D = gamma * (E @ a + _contract(coef if order == 1 else coef[0], c))
    if order == 1:
        return None, D, None

    # K: the kernel's Gamma_i Gamma_j E_ij^2 / -pi off the diagonal and
    # minus its row sums on it, Q G_xy and, summed on the diagonal,
    # Q G_xx; L: Q G_xyb (Q = -2 s^2 Gamma Gamma^T).  The self term
    # -Gamma_i^2 g(x_i, x_i) puts G_xy and G_xyb on the diagonal too.
    E *= E
    K = E * P
    _, gxx, gxy, gxyb = coef
    K += Q * gxy
    diag = K.reshape(*K.shape[:-2], -1)[..., ::z.shape[-1] + 1]
    diag += gamma * (_contract(gxx, s * c) - E @ a)
    return None, D, (Q * gxyb, K)


# ---------------------------------------------------------------------------
# the surface both systems share
# ---------------------------------------------------------------------------

class FlowSystem:
    """Energy, flow and admissibility of a vortex system in its own
    coordinates.  A subclass provides n, gamma, domain, the energy's
    `_frame`, formed once (see interaction_frame), `_offset`, `_ig` (the
    (N,) factors i/Gamma) and `guard_geometry(ys)` -> (positions to
    guard, (..., N, 2), pair mask or None, the domain whose wall they
    clear); a subclass that integrates in co-rotating frames sets
    `_rotating` and `_iomega`, i times each vortex's frame angular
    velocity, (N,).  For the integrators, `first_step` is the stepper's
    first step (None: DOP853's own choice from the start state and its
    field) and `spacing` the widest time between two screened states
    (inf: dynamics.GUARD_SAMPLES per step).
    """

    _offset = 0.0
    _rotating = False
    first_step = None
    spacing = np.inf

    def screen(self, ys, times, collision_tol: float = COLLISION_TOL,
               boundary_margin: float = BOUNDARY_MARGIN) -> np.ndarray:
        """Check the (k, 2N) states ys, taken at the k times, row by row
        in order: a row fails with DomainViolationError for a guarded
        position that is not finite or within boundary_margin of the
        wall, else with CollisionError for a guarded pair within
        collision_tol.  Raise the first failing row's error; else return
        each row's closest guarded separation, (k,)."""
        ys = np.asarray(ys, dtype=float)
        if ys.shape[-1] != 2 * self.n:
            raise ConstraintViolationError(
                f"state has {ys.shape[-1] // 2} positions, system has {self.n}")
        p, mask, domain = self.guard_geometry(ys)
        clearance = domain.boundary_clearance(p)
        # NaN compares False, so a non-finite position fails the wall
        wall = ~(clearance > boundary_margin).all(axis=1)
        m = int(np.argmax(wall)) if wall.any() else len(ys)
        # rows past the first wall failure may hold non-finite positions
        d, pair = closest_pair(p[:m], mask)
        hit = np.flatnonzero(d <= collision_tol)
        if hit.size:
            r = hit[0]
            i, j = pair[r].tolist()
            raise CollisionError(
                f"vortices {i} and {j} are {d[r]:.3e} apart "
                f"(tolerance {collision_tol:.1e})",
                pair=(i, j), distance=float(d[r]), time=times[r])
        if m < len(ys):
            k = int(np.argmin(clearance[m]))  # argmin picks a NaN
            raise DomainViolationError(
                f"vortex {k} at {p[m, k]} is not interior to {self.domain.name} "
                f"(clearance {clearance[m, k]:.3e}, margin "
                f"{boundary_margin:.1e})", index=k, time=times[m])
        return d

    def validate_state(self, y, time=None, collision_tol: float = COLLISION_TOL,
                       boundary_margin: float = BOUNDARY_MARGIN) -> float:
        """The one-row case of screen: check the state y, raise its
        error, else return its closest guarded separation."""
        return float(self.screen(as_state(y)[None], [time], collision_tol,
                                 boundary_margin)[0])

    # -- energy --------------------------------------------------------------
    def _assemble(self, u, order: int):
        """The energy's assembly at the complex points u, (..., N)."""
        return assemble_interaction(u, self.domain, self._frame,
                                    order=order)

    # each reads the states y, (..., 2N), and returns one result per state
    def hamiltonian(self, y):
        return self._assemble(state_points(y), 0)[0] - self._offset

    def gradient(self, y) -> np.ndarray:
        return self._assemble(state_points(y), 1)[1].conj().view(float)

    def hessian(self, y) -> np.ndarray:
        return real_blocks(*self._assemble(state_points(y), 2)[2])

    def gradient_and_hessian(self, y):
        """(gradient, Hessian) of the energy from one order-2 assembly."""
        _, D, LK = self._assemble(state_points(y), 2)
        return D.conj().view(float), real_blocks(*LK)

    # -- flow ----------------------------------------------------------------
    def vector_field(self, y, t=None) -> np.ndarray:
        """The field F(y) of the states y, (..., 2N); with times t, a
        scalar or one per state, the field V(t, y) of the co-rotating
        states y at t (see `to_lab`), which is F(y) when the system does
        not rotate."""
        return self._flow(y, t, 1)

    def field_jacobian(self, y, t=None) -> np.ndarray:
        """The Jacobian of vector_field(y, t) in y."""
        return self._flow(y, t, 2)[1]

    def field_and_jacobian(self, y, t=None):
        """(vector field, its Jacobian) from one order-2 assembly."""
        return self._flow(y, t, 2)

    def _flow(self, y, t, order: int):
        """The field at order 1, (field, Jacobian) at order 2, of the
        states y, (..., 2N), at the times t: None, a scalar or (...,),
        one per state.  One assembly serves the whole batch; the fields
        are (..., 2N) and the Jacobians (..., 2N, 2N).

        In complex form the field is c o conj(D), D the energy
        gradient's complex form and c = -i/Gamma per vortex: u' =
        perp(grad H)/Gamma.  A co-rotating state v = y at time t is the
        state u = b v, b = exp(-i omega t) per vortex, and its field is
        V = conj(ig D(u)) + i omega v with ig = (i/Gamma) b, so c turns
        with the frame.  The Jacobian, in the form of `real_blocks`,
        scales the energy's L and K by ig on the rows and by conj(b)
        and b on the columns, with -i omega on L's diagonal.
        """
        turned = t is not None and self._rotating
        u, ig = state_points(y), self._ig
        if turned:
            b = np.exp(-self._iomega * np.asarray(t)[..., None])
            v, u = u, b * u
            ig = ig * b
        _, D, LK = self._assemble(u, order)
        field = np.conj(ig * D)
        if turned:
            field += self._iomega * v
        field = field.view(float)
        if order == 1:
            return field
        L, K = LK
        ig = ig[..., :, None]
        if not turned:
            return field, real_blocks(ig * L, ig * K)
        L = ig * L * b.conj()[..., None, :]
        L.reshape(*L.shape[:-2], -1)[..., ::len(self._ig) + 1] -= self._iomega
        return field, real_blocks(L, ig * K * b[..., None, :])

    # -- co-rotating frames --------------------------------------------------
    def to_lab(self, t, vs) -> np.ndarray:
        """The states u = exp(-i omega t) v, per vortex, of the
        co-rotating states vs, (..., 2N), at the times t: a scalar, or
        one per leading index of vs.  omega is each vortex's frame
        angular velocity, so u is linalg.rotate_all(vs, -omega t), and a
        cluster rotating rigidly at its own angular velocity
        (RelativeEquilibrium.solution) has a constant v.  vs itself when
        the system does not rotate."""
        if not self._rotating:
            return vs
        return _turn(vs, np.exp(np.multiply.outer(-np.asarray(t, dtype=float),
                                                  self._iomega)))

    def to_frame(self, t, us) -> np.ndarray:
        """The inverse of to_lab: co-rotating states of the states us."""
        return self.to_lab(-np.asarray(t, dtype=float), us)


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
        if not np.all(np.isfinite(gam)):
            raise ConstraintViolationError("vortex strengths must be finite")
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

    # gamma and _frame are read on every field call, so each is formed once
    @cached_property
    def gamma(self) -> np.ndarray:
        gam = np.array(self.strengths)
        gam.flags.writeable = False
        return gam

    @cached_property
    def _frame(self):
        return interaction_frame(self.gamma, np.full((self.n, self.n), True))

    @cached_property
    def _ig(self) -> np.ndarray:
        return 1j / self.gamma

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

    def guard_geometry(self, zs):
        """(positions to guard, pair mask or None, domain to clear) of
        the states zs, (..., 2N)."""
        return np.reshape(zs, (*np.shape(zs)[:-1], -1, 2)), None, self.domain


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

    The pair mask and both frames are formed once, at construction.
    Each energy, gradient or Hessian is one assembly in the frame
    u -> (pair differences, physical points): cross-cluster pairs read
    r*(u_i - u_j) + (anchor_hat_i - anchor_hat_j) and the regular part g
    reads r*u + anchor_hat.  Intra-cluster pairs read u_i - u_j, i.e.
    r*(u_i - u_j) with the factor r divided out of the log kernel's
    derivatives; they keep full relative precision at small r, and r = 0
    is the decoupled limit.  F is read at w = r*u in a second frame,
    which adds anchor_hat to w.

    omega, one angular velocity per cluster (None: all 0), sets each
    cluster's co-rotating frame, in which the integrators advance the
    state (`FlowSystem.to_lab`): with each cluster's own relative-
    equilibrium angular velocity, v stays within O(r^2) of its start
    along a superposed orbit.  It changes no energy and no lab-frame
    field.
    """

    base: VortexSystem
    anchor: np.ndarray
    scale: float
    omega: tuple | None = None

    def __post_init__(self):
        m = self.base.n_clusters
        a = np.asarray(self.anchor, dtype=float).reshape(-1, 2)
        if a.shape[0] != m:
            raise ConstraintViolationError(
                f"anchor has {a.shape[0]} points, system has {m} clusters")
        if not 0.0 <= self.scale < np.inf:
            raise ConstraintViolationError("scale r must be finite and >= 0")
        omega = np.zeros(m) if self.omega is None else np.asarray(
            self.omega, dtype=float)
        if omega.shape != (m,) or not np.isfinite(omega).all():
            raise ConstraintViolationError(
                f"omega {self.omega} for {m} clusters: frame angular "
                "velocities must be finite, one per cluster")
        sk = VortexSystem(tuple(self.base.cluster_strengths),
                          (1,) * self.base.n_clusters, self.base.domain)
        sk.validate_state(a)
        r = float(self.scale)
        object.__setattr__(self, "anchor", a)
        object.__setattr__(self, "scale", r)
        object.__setattr__(self, "omega", tuple(float(w) for w in omega))
        ci, gam = self.base.cluster_index, self.base.gamma
        intra = ci[:, None] == ci[None, :]
        ahat = np.repeat(a, self.base.cluster_sizes, axis=0)
        zhat = complex_points(ahat)
        dzhat = np.subtract.outer(zhat, zhat)
        ahat.flags.writeable = False
        for name, value in (("_offset", sk.hamiltonian(a.reshape(-1))),
                            ("_intra", intra), ("_ahat", ahat),
                            ("_frame", interaction_frame(
                                gam, np.full_like(intra, True),
                                np.where(intra, 1.0, r), dzhat, r, zhat)),
                            ("_coupling_frame", interaction_frame(
                                gam, ~intra, 1.0, dzhat, 1.0, zhat)),
                            ("_ig", self.base._ig),
                            ("_iomega", 1j * np.repeat(
                                omega, self.base.cluster_sizes)),
                            ("_rotating", bool(omega.any()))):
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
        return assemble_interaction(state_points(w), self.domain,
                                    self._coupling_frame, order=order)

    def coupling(self, w):
        return self._coupling_parts(w, 0)[0]

    def coupling_grad(self, w) -> np.ndarray:
        return self._coupling_parts(w, 1)[1].conj().view(float)

    def coupling_hess(self, w) -> np.ndarray:
        return real_blocks(*self._coupling_parts(w, 2)[2])

    # -- rescaled energy E_r and its flow --------------------------------------
    # the benchmark's tracer wraps these two names, so the energy and
    # the field the integrators call go through them
    def rescaled_hamiltonian(self, u):
        return super().hamiltonian(u)

    def rescaled_field(self, u, t=None) -> np.ndarray:
        return super().vector_field(u, t)

    def hamiltonian(self, u):
        return self.rescaled_hamiltonian(u)

    def vector_field(self, u, t=None) -> np.ndarray:
        return self.rescaled_field(u, t)

    # -- validation ------------------------------------------------------------
    def guard_geometry(self, us):
        """(positions to guard, pair mask or None, domain to clear) of
        the states us, (..., 2N): the physical states for r > 0; at r = 0
        u's intra-cluster pairs, with no wall but finite."""
        shape = (*np.shape(us)[:-1], -1, 2)
        if self.scale > 0.0:
            z = self.scale * np.asarray(us) + self.anchor_hat
            return z.reshape(shape), None, self.domain
        return np.reshape(us, shape), self._intra, WholePlane()
