"""Catalog of rigidly rotating whole-plane configurations and their
certification.

A relative equilibrium is a configuration z with  grad H(z) = omega*M z
and center of vorticity at the origin; the trajectory is the rigid
rotation Z(t) = exp(omega*t*perp) z.  A RelativeEquilibrium is built
from strengths and positions alone: omega is projected from them, and
sigma, with sigma*Z(. + 2*pi) = Z, is the relabelling of identical
vortices at shift 2*pi in the table of time shifts that relabel the
cluster (the identity when 2*pi is none of them).  Catalog constructors
return configurations normalized so that the symmetry-twisted period is
2*pi: |omega| = 1 for plain configurations, |omega| = 1/ord(sigma) for
the cyclic polygon.

Certification counts independent periodic solutions of the linearized
equation along Z(t).  In the co-rotating frame the linearization is the
constant-coefficient system  v' = A v  with

    A = M^{-1} P hess H(z) - omega * P,      P = blockwise quarter turn,

so the time-t fundamental matrix of the original linearization is
Phi_t = exp(omega*t*perp) expm(t*A).  Reported quantities:

* periodic_solution_count  = dim ker(Phi_tau - I), tau = 2*pi*ord(sigma)
  (the full rotation period; equals the plain 2*pi monodromy whenever
  sigma is the identity).
* symmetric_count          = dim ker(S_sigma Phi_{2pi} - I), the number of
  solutions with the twisted periodicity  sigma*w(.+2pi) = w.
* unit_multiplier_count / twisted_unit_multiplier_count: the algebraic
  multiplicity of the Floquet multiplier 1 (eigenvalues within
  MULTIPLIER_TOL of 1).  Rotation invariance forces a defective 2x2
  block on span{z, perp z} in every case, so the structural minimum is
  4 (two translations, the rotation mode, and its generalized partner).
  A configuration can carry extra unit multipliers without extra
  periodic solutions when the excess sits in a longer defective chain;
  such configurations are degenerate for continuation purposes even
  though the kernel count stays at 3.  The flags therefore require both
  the minimal kernel and the minimal algebraic multiplicity.  omega*tau
  is a whole turn, so Phi_tau = expm(tau*A) and its multipliers are
  exp(tau*lambda) over the eigenvalues lambda of A; the twisted ones of
  a nontrivial symmetry are the eigenvalues of S_sigma Phi_{2pi}.

Kernel dimensions count the singular values of (Phi - I) at or below
min(KERNEL_TOL * ||Phi||, MULTIPLIER_TOL).  The relative cutoff follows
the roundoff of Phi; the cap keeps strongly hyperbolic configurations
(collinear roots with 4 or 5 vortices, ||Phi|| up to 4e10) from
counting order-one singular values as zero.  Above ||Phi|| =
MAX_MONODROMY_NORM (1e12) double precision no longer resolves the unit
multipliers (hermite(6) reads 2 of the structural 4), and certify
refuses the configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import hermite as _hermite
from scipy.linalg import expm

from .domains import WholePlane
from .errors import (ConstraintViolationError, NotEquilibriumError,
                     ZeroTotalStrengthError)
from .linalg import (TWO_PI, complex_points, pairs, permutation_matrix,
                     permutation_order, perp, rotate_all)
from .systems import VortexSystem

RESIDUAL_TOL = 1e-10
MULTIPLIER_TOL = 1e-2
KERNEL_TOL = 1e-6
MAX_MONODROMY_NORM = 1e12
STRENGTH_TOL = 1e-13
#: relabelled positions match within this share of the cluster radius
RELABEL_TOL = 1e-9
#: sigma's shift matches 2*pi, and certify's |omega| * ord(sigma) matches
#: 1, within this share
TWIST_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RelativeEquilibrium:
    """A rigidly rotating configuration: its strengths and positions.

    The constructor projects omega, the least-squares solution of
    grad H(z) = omega * M z, and refuses positions whose residual
    exceeds RESIDUAL_TOL, so every instance rotates rigidly.  A single
    vortex is the trivial cluster: omega = 0, at the origin.  A
    configuration of several vortices with M z = 0 has no rotation to
    project and is refused.  sigma (`permutation`) is derived from the
    positions too; positions are read-only, so neither goes stale.
    """

    strengths: tuple
    positions: np.ndarray  # (N, 2)
    angular_velocity: float = field(init=False)

    def __post_init__(self):
        positions = np.array(self.positions, dtype=float).reshape(-1, 2)
        positions.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "strengths",
                           tuple(float(g) for g in self.strengths))
        if positions.shape[0] != self.n:
            raise ConstraintViolationError("strengths/positions length mismatch")
        if not np.isfinite(positions).all():
            raise ConstraintViolationError("positions must be finite")
        sys, z = self.system, self.flat()
        mz = sys.weights * z
        if self.is_trivial and mz.any():
            raise ConstraintViolationError(
                "a single vortex is the trivial cluster, at the origin")
        if not self.is_trivial and mz @ mz == 0.0:
            raise ConstraintViolationError(
                "positions with M z = 0 fix no angular velocity; a single "
                "vortex at its anchor is make_trivial(gamma)")
        omega = (0.0 if self.is_trivial
                 else float((sys.gradient(z) @ mz) / (mz @ mz)))
        object.__setattr__(self, "angular_velocity", omega)
        res = self.residual()
        if not res <= RESIDUAL_TOL:
            raise NotEquilibriumError(
                f"configuration misses the rigid-rotation condition "
                f"(residual {res:.2e})")

    # -- derived -----------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.strengths)

    @cached_property
    def permutation(self) -> tuple:
        """sigma, 0-based images: the relabelling at shift 2*pi modulo
        the period, so S_sigma Z(t + 2*pi) = Z(t); the identity when 2*pi
        is no shift of the table."""
        period = self.period
        for shift, pi in self.relabellings:
            gap = abs(shift - TWO_PI % period)
            if min(gap, period - gap) <= TWIST_TOL * period:
                return pi
        return tuple(range(self.n))

    @property
    def order(self) -> int:
        return permutation_order(self.permutation)

    @cached_property
    def relabellings(self) -> tuple:
        """(shift, pi) of each strength-preserving permutation pi with
        S_pi Z(t + shift) = Z(t), S_pi as in permutation_matrix; sigma is
        the entry at shift 2*pi.

        Each is a turn of z onto itself, so the table is a cyclic group:
        its shifts are the multiples of period / len(table), in
        increasing order from the identity at 0.  A cluster that does not
        rotate has the identity only.
        """
        p, n = self.positions, self.n
        if self.angular_velocity == 0.0:
            return ((0.0, tuple(range(n))),)
        w = complex_points(p)
        radii, angles = np.abs(w), np.angle(w)
        tol = RELABEL_TOL * radii.max()
        gam = np.asarray(self.strengths)
        other = np.abs(gam[:, None] - gam[None, :]) > STRENGTH_TOL
        a = int(np.argmax(radii))
        found = []
        for j in np.flatnonzero(~other[a] & (np.abs(radii - radii[a]) <= tol)):
            alpha = angles[j] - angles[a]
            # the turn by alpha carries vortex i onto vortex pi[i]
            turned = pairs(rotate_all(self.flat(), alpha))
            gaps = np.linalg.norm(turned[:, None] - p[None], axis=-1)
            gaps[other] = np.inf
            pi = np.argmin(gaps, axis=1)
            if gaps[np.arange(n), pi].max() <= tol:
                found.append(((-alpha / self.angular_velocity) % self.period,
                              tuple(int(i) for i in pi)))
        step = self.period / len(found)
        return tuple((k * step, pi) for k, (_, pi) in enumerate(sorted(found)))

    @property
    def period(self) -> float:
        """Full rotation period 2*pi/|omega| (inf for a trivial cluster)."""
        if self.angular_velocity == 0.0:
            return np.inf
        return TWO_PI / abs(self.angular_velocity)

    @property
    def is_trivial(self) -> bool:
        """Single-vortex placeholder cluster (no internal motion)."""
        return self.n == 1

    @cached_property
    def system(self) -> VortexSystem:
        return VortexSystem(self.strengths, (self.n,), WholePlane())

    def flat(self) -> np.ndarray:
        return self.positions.reshape(-1)

    def solution(self, t) -> np.ndarray:
        """The rigid rotation Z(t), the turn by -omega * t, as a flat
        state (one row per time of an array t)."""
        theta = -self.angular_velocity * np.asarray(t, dtype=float)
        return rotate_all(self.flat(), theta[..., None])

    def residual(self) -> float:
        z = self.flat()
        sys = self.system
        return float(np.linalg.norm(
            sys.gradient(z) - self.angular_velocity * sys.weights * z))


def make_trivial(gamma: float) -> RelativeEquilibrium:
    """Single-vortex placeholder cluster: sits at its anchor, no
    internal rotation.  Not certifiable; superposition specs treat it
    as a zero block."""
    return RelativeEquilibrium((gamma,), np.zeros((1, 2)))


def make_pair(gamma1: float, gamma2: float) -> RelativeEquilibrium:
    """Two vortices on the x-axis about their center of vorticity,
    scaled to |omega| = 1."""
    total = gamma1 + gamma2
    if total == 0.0:
        raise ZeroTotalStrengthError(
            "a zero-sum pair translates instead of rotating about a center")
    d = np.sqrt(abs(total) / np.pi)
    positions = np.array([[d * gamma2 / total, 0.0],
                          [-d * gamma1 / total, 0.0]])
    return RelativeEquilibrium((gamma1, gamma2), positions)


def make_equilateral(gamma1: float, gamma2: float,
                     gamma3: float) -> RelativeEquilibrium:
    """Equilateral triangle about the center of vorticity, |omega| = 1.
    Built for any nonzero total strength; whether the configuration is
    degenerate is the certifier's business."""
    total = gamma1 + gamma2 + gamma3
    if total == 0.0:
        raise ZeroTotalStrengthError("zero total strength: no rotation center")
    s = np.sqrt(abs(total) / np.pi)
    verts = np.array([[0.0, 0.0], [s, 0.0], [0.5 * s, 0.5 * np.sqrt(3.0) * s]])
    gam = np.array([gamma1, gamma2, gamma3])
    center = (gam[:, None] * verts).sum(axis=0) / total
    return RelativeEquilibrium((gamma1, gamma2, gamma3), verts - center)


def make_thomson(n: int, gamma: float) -> RelativeEquilibrium:
    """n identical vortices on a regular n-gon.

    Scaled so |omega| = 1/n: one 2*pi time unit advances the rotation by
    exactly one polygon step, so sigma is the cyclic shift of the
    vertices, a twisted period: sigma*Z(. + 2*pi) = Z.
    """
    n = int(n)
    if n < 2:
        raise ConstraintViolationError("polygon needs at least 2 vortices")
    # omega = -gamma (n-1) / (2 pi R^2); |omega| = 1/n fixes R
    radius = np.sqrt(n * (n - 1) * abs(gamma) / (2.0 * np.pi))
    angles = TWO_PI * np.arange(n) / n
    positions = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return RelativeEquilibrium((gamma,) * n, positions)


def make_collinear_hermite(n: int, gamma: float) -> RelativeEquilibrium:
    """n identical vortices at the roots of the degree-n Hermite
    polynomial on the x-axis, scaled to |omega| = 1.

    Roots come from the companion-matrix eigenvalues of the recurrence
    basis (numpy.polynomial.hermite), reliable for n <= 20.
    """
    n = int(n)
    if n < 2:
        raise ConstraintViolationError("need at least 2 vortices")
    if n > 20:
        raise ConstraintViolationError("root finding unvalidated for n > 20")
    roots = np.sort(_hermite.hermroots([0.0] * n + [1.0]))
    # the true root set is antisymmetric; enforcing that on the computed
    # roots kills spurious last-ulp asymmetry, which the strongly
    # hyperbolic directions of these configurations would amplify
    roots = 0.5 * (roots - roots[::-1])
    lam = np.sqrt(abs(gamma) / np.pi)  # unscaled omega is -gamma/pi
    positions = np.zeros((n, 2))
    positions[:, 0] = lam * roots
    return RelativeEquilibrium((gamma,) * n, positions)


def normalize(eq: RelativeEquilibrium, target_omega: float) -> RelativeEquilibrium:
    """Rescale positions by lambda = sqrt(|omega|/|target|) so the new
    angular velocity is target_omega.

    The rotation direction is intrinsic (fixed by the strengths): a
    reflection of the configuration conjugates the flow to its time
    reversal and leaves omega unchanged, so a sign-mismatched target is
    an error, not a reflection.
    """
    if eq.angular_velocity == 0.0:
        raise ConstraintViolationError("cannot normalize omega = 0")
    if not (np.isfinite(target_omega) and target_omega != 0.0):
        raise ConstraintViolationError(
            "target omega must be finite and nonzero")
    if target_omega * eq.angular_velocity < 0.0:
        raise ConstraintViolationError(
            f"rotation direction is fixed by the strengths "
            f"(omega = {eq.angular_velocity:+.3e}); cannot reach "
            f"target {target_omega:+.3e}")
    lam = np.sqrt(abs(eq.angular_velocity) / abs(target_omega))
    return RelativeEquilibrium(eq.strengths, lam * eq.positions)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass
class CertificationReport:
    periodic_solution_count: int
    symmetric_count: int
    unit_multiplier_count: int
    twisted_unit_multiplier_count: int
    nondegenerate: bool
    sigma_nondegenerate: bool
    angular_velocity: float
    residual: float
    order: int
    period: float
    singular_values: list = field(default_factory=list)
    twisted_singular_values: list = field(default_factory=list)
    kernel_tol: float = KERNEL_TOL
    multiplier_tol: float = MULTIPLIER_TOL

    def as_dict(self) -> dict:
        return asdict(self)


def rotating_frame_matrix(eq: RelativeEquilibrium) -> np.ndarray:
    """Constant matrix A of the co-rotating linearization v' = A v."""
    # P, the matrix of perp, is perp applied to the columns of I
    P = perp(np.eye(2 * eq.n)).T
    return eq.system.field_jacobian(eq.flat()) - eq.angular_velocity * P


def monodromy(eq: RelativeEquilibrium, t: float) -> np.ndarray:
    """Fundamental matrix Phi_t of the linearization along Z(.)."""
    # the rigid rotation exp(omega*t*perp), applied to each column
    return rotate_all(expm(t * rotating_frame_matrix(eq)).T,
                      -eq.angular_velocity * t).T


def _kernel_dim(phi: np.ndarray):
    """dim ker(phi - I): singular values at or below
    min(KERNEL_TOL * ||phi||_2, MULTIPLIER_TOL)."""
    norm = np.linalg.norm(phi, 2)
    if not norm <= MAX_MONODROMY_NORM:
        raise ConstraintViolationError(
            f"monodromy norm {norm:.2e} exceeds {MAX_MONODROMY_NORM:.0e}: "
            f"double precision cannot resolve its unit multipliers")
    sv = np.linalg.svd(phi - np.eye(phi.shape[0]), compute_uv=False)
    return int((sv <= min(KERNEL_TOL * norm, MULTIPLIER_TOL)).sum()), sv


def certify(eq: RelativeEquilibrium) -> CertificationReport:
    """Count periodic solutions of the linearization and report the
    degeneracy structure; see the module docstring for the semantics."""
    if eq.is_trivial:
        raise ConstraintViolationError(
            "single-vortex placeholder clusters are not certifiable")
    order = eq.order
    scaling = abs(eq.angular_velocity) * order
    if abs(scaling - 1.0) > TWIST_TOL:
        raise ConstraintViolationError(
            f"certification expects |omega| * ord(sigma) = 1 (twisted period "
            f"2*pi), got {scaling:.6g}: normalize() the configuration, or "
            f"scale the custom positions by {np.sqrt(scaling):.6g}")

    tau = TWO_PI * order
    A = rotating_frame_matrix(eq)
    phi_tau = monodromy(eq, tau)
    phi_2pi = phi_tau if order == 1 else monodromy(eq, TWO_PI)
    S = permutation_matrix(eq.permutation)
    twisted = S @ phi_2pi

    full_count, sv_full = _kernel_dim(phi_tau)
    tw_count, sv_tw = _kernel_dim(twisted)

    # eig(Phi_tau) would scatter the defective pair at 1 by about
    # sqrt(eps ||Phi||), 1e-2 at ||Phi|| = 4e10; eig(A) does not
    ev_full = np.exp(tau * np.linalg.eigvals(A))
    ev_tw = ev_full if order == 1 else np.linalg.eigvals(twisted)
    alg_full = int((np.abs(ev_full - 1.0) <= MULTIPLIER_TOL).sum())
    alg_tw = int((np.abs(ev_tw - 1.0) <= MULTIPLIER_TOL).sum())

    is_id = eq.permutation == tuple(range(eq.n))
    return CertificationReport(
        periodic_solution_count=full_count,
        symmetric_count=tw_count,
        unit_multiplier_count=alg_full,
        twisted_unit_multiplier_count=alg_tw,
        nondegenerate=bool(is_id and full_count == 3 and alg_full == 4),
        sigma_nondegenerate=bool(tw_count == 3 and alg_tw == 4),
        angular_velocity=eq.angular_velocity,
        residual=eq.residual(),
        order=order,
        period=tau,
        singular_values=[float(s) for s in np.sort(sv_full)],
        twisted_singular_values=[float(s) for s in np.sort(sv_tw)],
    )


_CATALOG = {
    "pair": (make_pair, 2),
    "equilateral": (make_equilateral, 3),
    "thomson": (make_thomson, 2),
    "hermite": (make_collinear_hermite, 2),
}


def from_catalog(name: str, *params) -> RelativeEquilibrium:
    """Build a catalog configuration by name.

    pair g1 g2 | equilateral g1 g2 g3 | thomson n g | hermite n g
    """
    key = name.strip().lower()
    if key not in _CATALOG:
        raise KeyError(f"unknown catalog name {name!r}; "
                       f"choose from {sorted(_CATALOG)}")
    maker, argc = _CATALOG[key]
    if len(params) != argc:
        raise TypeError(f"{key} expects {argc} parameters, got {len(params)}")
    if key in ("thomson", "hermite"):
        count = int(round(float(params[0])))
        return maker(count, float(params[1]))
    return maker(*[float(p) for p in params])
