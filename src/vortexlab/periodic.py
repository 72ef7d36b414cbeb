"""Superposed periodic orbits near a stationary anchor configuration.

A superposition places one rigidly rotating cluster at each anchor of a
stationary configuration, shrunk by a scale r; in cluster-relative
coordinates u the candidate loops live on the phase torus

    M = { (Z^1(. + theta_1), ..., Z^m(. + theta_m)) : theta in R^l },

one phase per nontrivial cluster.  For small r the rescaled system has
genuine periodic orbits close to M.  This module assembles torus points
as initial guesses, polishes them to orbits by collocation in the
clusters' co-rotating frames, continues the family in r, scans phases
for distinct orbit classes from the critical points of the reduced
functional Phi (the period mean of the coupling energy on M), and
measures the discrete H^1 distance to M.

A relabelling of identical vortices that equals a time shift of a
cluster's rigid motion moves its phase by that shift, so the scan
samples Phi on each free phase's fundamental domain only and tells
orbit classes apart modulo the relabellings as well.

Points of M are built in one place, SuperpositionSpec.torus_samples,
on the cluster blocks the spec lays out once.  Orbits are compared up
to rotation by one fit, linalg.aligned_distance: a phase of one
cluster is a global rotation of its block, so the distance to M is one
rotation fit per cluster.

All orbits are computed in rescaled coordinates, where the period is
the r-independent tau = 2*pi*ord(sigma); the physical orbit is recovered
as z(t) = r*u(t/r^2) + anchor_hat with period T = tau*r^2 exactly.  Each
cluster is followed in its co-rotating frame (SuperpositionSpec.rescaled),
where only the O(r^2) motion on top of its rigid rotation is left: along
an orbit near M the co-rotating loop v(t) is nearly constant, and its
Fourier modes reach roundoff by about the twelfth.  Everything this
module returns, trajectories included, is in u.

shoot finds an orbit by trigonometric collocation: Newton (linalg.newton)
on K samples v_k of the co-rotating loop at t_k = k tau / K, with
residual V(t_k, v_k) - (D v)_k, D the Fourier differentiation matrix of
_spectral_derivative.  It starts from a loop in the same frames: the
torus point u0 = (theta*Z)(0) alone, since a point of M stands still
there, or a converged orbit's loop at another scale, its deviation from
that point rescaled.  The Jacobian blockdiag(DV_k) - D (x) I has null
directions along the time shift and the domain's symmetries (the
rotation about the center of a disc).  Each is a border row of the
square Newton matrix (the phase conditions of Doedel, Keller and
Kernevez, Int. J. Bifurcation and Chaos 1, 1991), and each border column
is the gradient of the first integral it generates, the energy and the
angular impulse (Munoz-Almaraz, Freire, Galan, Doedel and
Vanderbauwhede, Physica D 181, 2003); the multipliers are dropped.  No
variational flow is made.  One integration over tau of the loop's state
at t = 0 then certifies the orbit: its twisted residual

    S_sigma phi_{2pi}(u0) - u0

(S_sigma the block permutation; plain tau-periodicity when sigma = id),
closure and symmetry defect are checked, and it is the orbit's
trajectory, sampled once at GRID_SAMPLES uniform times for the energy
drift and the distance to M.  It integrates the same ODE in the frame
of the collocated loop (_LoopFrame): only the deviation of the
co-rotating state from the loop's trigonometric interpolant is stepped
(Encke's method; Battin, Astrodynamics, ch. 10), so DOP853's steps are
set by that deviation, not by the loop's own motion: 5 steps per
figure-1 period, against 32 for the co-rotating state itself.  Orbit
classes are told apart modulo the same symmetries.

A residual <= SHOOT_TOL means an orbit only at dynamics.TOLERANCE,
the one tolerance every integration runs at: at 1e-10 a closing
integration reads 2.9e-11 where one at 1e-13 reads 1.3e-9 from the same
u0.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .domains import Domain, SymmetryClass
from .dynamics import (IntegratorSettings, Trajectory, integrate,
                       relative_drift)
from .equilibria import RelativeEquilibrium, certify
from .errors import (ConstraintViolationError, ConvergenceError,
                     ScaleTooLargeError, VortexError)
from .linalg import (TWO_PI, aligned_distance, permutation_matrix, newton,
                     permutation_order, perp, rotate_all)
from .stationary import (GRADIENT_TOL, StationaryPoint, kernel_generators,
                         m_gradient)
from .systems import RescaledSystem, VortexSystem

SHOOT_TOL = 1e-10
MAX_SHOOT_ITERATIONS = 50
#: collocation samples per period, tried in turn: 2k + 1 for the modes
#: up to k = 12, 24.  Odd, so every mode has a derivative on the grid
#: (an even count's Nyquist mode has none and is left undetermined); the
#: loop's modes reach roundoff by the 12th on figure 1 (4e-15 at r = 0.1)
#: and by the 24th at r = 0.2 (2e-11 at the 12th, 1e-17 at the 24th)
COLLOCATION_SAMPLES = (25, 49)
#: collocation residual at which Newton stops, and the largest highest
#: mode of a loop its samples resolve: a loop's integration can read
#: several times either (1.2e-10 from a residual of 4.6e-11 on figure 1),
#: and one more quadratic step costs less than an integration that fails
COLLOCATION_TOL = 1e-2 * SHOOT_TOL
CLOSURE_TOL = 1e-9
SYMMETRY_DEFECT_TOL = 1e-8
IDENTIFICATION_TOL = 1e-6
#: samples of the reduced functional per free phase, uniform on its
#: fundamental domain
PHI_SAMPLES = 8
#: times of Phi's period mean: on the figure-1, perturbed-disc and
#: three-anchor scans its critical points agree with those from 256 times
#: within 4e-10 (within 7e-10 at 16 times), at an eighth of the cost
PHI_TIMES = 32
STRENGTH_MATCH_TOL = 1e-12
GRID_SAMPLES = 256
#: the certifying integration's first step, as a share of the period:
#: from its zero start deviation DOP853's own first step is 1e-4, and its
#: steps grow at most tenfold each.  No tier-1 orbit rejects tau / 8, and
#: they take 4 (Thomson-3) to 5 (figure 1) steps, against 6 from tau / K
FIRST_STEP_SHARE = 1 / 8


# ---------------------------------------------------------------------------
# describing a superposed orbit problem
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SuperpositionSpec:
    """Anchors, clusters, phases, and scale of one superposition ansatz.

    Validation happens at construction: the anchors must be critical on
    the spec's own domain, cluster strength sums must match their anchor
    strengths, every nontrivial cluster must pass certification with its
    twisted-nondegeneracy flag set, and the phase vector carries one
    entry per nontrivial cluster.  The cluster layout
    is formed there too: `blocks` (the slice of each cluster's
    coordinates in a flat state), `strengths`, `positions` (the
    clusters' positions stacked into one flat state), `angular_velocities`
    (each vortex's cluster's, (N,)), `sigma` (the clusters' permutations
    combined blockwise), and `relabellings` (each combination of the
    clusters' relabelling tables, combined the same way, the identity
    first).  The one system the spec fixes is formed there as well:
    `rescaled`, the RescaledSystem at the spec's scale, integrated in
    each cluster's co-rotating frame (trivial clusters do not turn), and
    `system`, its base VortexSystem of all N vortices.  Every reader
    takes these; `replace` builds a new spec, and with it new systems.
    """

    stationary: StationaryPoint
    clusters: tuple  # one RelativeEquilibrium per anchor
    domain: Domain
    phases: tuple = ()
    scale: float = 0.0

    def __post_init__(self):
        self.clusters = tuple(self.clusters)
        m = self.stationary.m
        if len(self.clusters) != m:
            raise ConstraintViolationError(
                f"{len(self.clusters)} clusters for {m} anchors")
        grad = np.linalg.norm(m_gradient(self.stationary.strengths,
                                         self.domain, self.stationary.flat()))
        if grad > GRADIENT_TOL:
            raise ConstraintViolationError(
                f"anchors must form a critical point on {self.domain.name} "
                f"(gradient norm {grad:.2e})")
        for k, (eq, gam) in enumerate(zip(self.clusters,
                                          self.stationary.strengths)):
            if not isinstance(eq, RelativeEquilibrium):
                raise ConstraintViolationError(
                    f"cluster {k} is not a relative equilibrium")
            if gam == 0.0:
                raise ConstraintViolationError(f"anchor {k} strength is zero")
            total = sum(eq.strengths)
            if abs(total - gam) > STRENGTH_MATCH_TOL:
                raise ConstraintViolationError(
                    f"cluster {k} strengths sum to {total!r}, anchor "
                    f"carries {gam!r}")
        offsets = list(accumulate((eq.n for eq in self.clusters), initial=0))
        self.blocks = tuple(slice(2 * a, 2 * b)
                            for a, b in zip(offsets, offsets[1:]))
        self.strengths = tuple(g for eq in self.clusters for g in eq.strengths)
        self.positions = np.concatenate([eq.flat() for eq in self.clusters])
        self.angular_velocities = np.repeat(
            [eq.angular_velocity for eq in self.clusters], self.cluster_sizes)
        self.sigma = tuple(a + i for a, eq in zip(offsets, self.clusters)
                           for i in eq.permutation)
        self.relabellings = tuple(
            tuple(a + i for a, (_, pi) in zip(offsets, choice) for i in pi)
            for choice in product(*(eq.relabellings for eq in self.clusters)))
        for k in self.nontrivial_indices:
            report = certify(self.clusters[k])
            if not report.sigma_nondegenerate:
                raise ConstraintViolationError(
                    f"cluster {k} fails twisted nondegeneracy "
                    f"(symmetric count {report.symmetric_count}, "
                    f"unit multiplier count "
                    f"{report.twisted_unit_multiplier_count})")
        self.phases = tuple(float(t) for t in self.phases)
        if len(self.phases) != self.l or not np.isfinite(self.phases).all():
            raise ConstraintViolationError(
                f"phases {self.phases} for {self.l} nontrivial clusters: "
                "need one finite phase per cluster")
        self.scale = float(self.scale)
        if not 0.0 <= self.scale < np.inf:
            raise ConstraintViolationError("scale must be finite and >= 0")
        self.rescaled = RescaledSystem(
            VortexSystem(self.strengths, self.cluster_sizes, self.domain),
            self.stationary.positions, self.scale,
            tuple(eq.angular_velocity for eq in self.clusters))
        self.system = self.rescaled.base

    # -- layout -------------------------------------------------------------
    @property
    def m(self) -> int:
        return self.stationary.m

    @property
    def nontrivial_indices(self) -> tuple:
        return tuple(k for k, eq in enumerate(self.clusters)
                     if not eq.is_trivial)

    @property
    def l(self) -> int:
        return len(self.nontrivial_indices)

    @property
    def cluster_sizes(self) -> tuple:
        return tuple(eq.n for eq in self.clusters)

    @property
    def n(self) -> int:
        return sum(self.cluster_sizes)

    @property
    def order(self) -> int:
        return permutation_order(self.sigma)

    @property
    def tau(self) -> float:
        """Rescaled full period 2*pi*ord(sigma)."""
        return TWO_PI * self.order

    @property
    def period(self) -> float:
        """Physical period T = tau * r^2."""
        return self.tau * self.scale**2

    def full_phases(self) -> np.ndarray:
        """Phase per cluster, zeros on trivial ones."""
        out = np.zeros(self.m)
        out[list(self.nontrivial_indices)] = self.phases
        return out

    def torus_samples(self, times, phases=None) -> np.ndarray:
        """(len(times), 2N) samples of the superposed rigid motions
        (Z^1(t + theta_1), ..., Z^m(t + theta_m)), the points of M: the
        stacked positions with vortex v turned by -omega_v (t + theta_v).

        `phases` holds one phase per cluster (default: the spec's phases,
        zero on trivial clusters), or phase vectors (..., m) whose
        leading axes broadcast against times' shape: phases (P, 1, m)
        give (P, len(times), 2N).  A trivial cluster sits at the origin
        and does not rotate, so its block stays zero.
        """
        full = self.full_phases() if phases is None else np.asarray(phases)
        t = (np.asarray(times, dtype=float)[..., None]
             + np.repeat(full, self.cluster_sizes, axis=-1))
        return rotate_all(self.positions, -self.angular_velocities * t)

    def torus_point(self, phases=None) -> np.ndarray:
        """The loop value (theta*Z)(0) as a flat rescaled state."""
        return self.torus_samples([0.0], phases)[0]

    def replace(self, **changes) -> "SuperpositionSpec":
        return dataclasses.replace(self, **changes)

    def describe(self) -> dict:
        """JSON-ready echo of the problem description."""
        return {
            "anchors": self.stationary.positions.tolist(),
            "anchor_strengths": [float(g) for g in self.stationary.strengths],
            "domain": self.domain.name,
            "clusters": [
                {
                    "strengths": [float(g) for g in eq.strengths],
                    "angular_velocity": float(eq.angular_velocity),
                    "permutation": list(eq.permutation),
                    "trivial": eq.is_trivial,
                }
                for eq in self.clusters
            ],
            "phases": list(self.phases),
            "scale": self.scale,
            "order": self.order,
            "rescaled_period": self.tau,
        }


# ---------------------------------------------------------------------------
# guess assembly
# ---------------------------------------------------------------------------

def _scale_is_admissible(spec: SuperpositionSpec, u0, r: float) -> bool:
    """Whether u0 is admissible at the scale r > 0: whether its physical
    state r*u0 + anchor_hat clears spec.system's guards, as
    RescaledSystem.guard_geometry reads u0 at that scale."""
    try:
        spec.system.validate_state(r * u0 + spec.rescaled.anchor_hat)
        return True
    except VortexError:
        return False


def build_initial_guess(spec: SuperpositionSpec) -> np.ndarray:
    """Rescaled initial state u0 = (theta*Z)(0) at the given phases: the
    torus point, constant in the clusters' co-rotating frames, and the
    one-sample start loop shoot collocates from when its guess is None.

    Checks that u0 is admissible in spec.rescaled, at the spec's scale;
    if not, raises ScaleTooLargeError carrying a bisection estimate of
    the largest admissible scale.
    """
    u0 = spec.torus_point()
    try:
        spec.rescaled.validate_state(u0)
    except VortexError as exc:
        lo, hi = 0.0, spec.scale  # bisection
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            lo, hi = ((mid, hi) if _scale_is_admissible(spec, u0, mid)
                      else (lo, mid))
        raise ScaleTooLargeError(
            f"scale {spec.scale} places the superposed state outside the "
            f"admissible set (largest admissible scale est. {lo:.6g})",
            max_admissible=lo) from exc
    return u0


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass
class PeriodicOrbit:
    """A certified orbit of spec.rescaled, in u (see _certified).

    u0 is the state at t = 0, the first of the collocated samples
    `loop`, and `trajectory` the certifying integration, whose states are
    u0 and each accepted step.  residual, closure and symmetry_defect are
    the certificate's checks; iterations are the Newton steps at the
    accepted sample count, and `residuals` their collocation residuals.
    energy_drift (dynamics.relative_drift of the rescaled energy) and
    distance_to_m (distance_to_M) read one sample of the trajectory at
    GRID_SAMPLES uniform times of the period, so a drift between
    accepted steps is seen too.
    """

    spec: SuperpositionSpec = field(repr=False)
    u0: np.ndarray
    residual: float
    closure: float
    symmetry_defect: float
    energy_drift: float
    distance_to_m: float
    iterations: int
    trajectory: Trajectory = field(repr=False)
    residuals: tuple  # collocation residual of each Newton iterate
    loop: np.ndarray = field(repr=False)  # collocated v_k, (K, 2N), u0 first

    @property
    def scale(self) -> float:
        return self.spec.scale

    @property
    def rescaled_period(self) -> float:
        return self.spec.tau

    @property
    def period(self) -> float:
        return self.spec.period

    def physical_initial_state(self) -> np.ndarray:
        return self.spec.rescaled.to_physical(self.u0)

    def physical_arrays(self):
        """(times, states, energies) of the orbit in physical variables.

        H(r u + anchor_hat) - E_r(u) is one constant along the orbit
        (grad E_r(u) = r grad H(r u + anchor_hat)), so the energies are
        the recorded E_r shifted by that constant, taken at u0.
        """
        times = self.scale**2 * self.trajectory.times
        states = (self.scale * self.trajectory.states
                  + self.spec.rescaled.anchor_hat)
        energies = self.trajectory.energies
        shift = self.spec.system.hamiltonian(states[0]) - energies[0]
        return times, states, energies + shift

    def physical_trajectory_csv(self, target):
        times, states, energies = self.physical_arrays()
        Trajectory(times, states, energies,
                   self.trajectory.min_separation).to_csv(target)

    def as_dict(self) -> dict:
        return {
            "spec": self.spec.describe(),
            "u0": [float(v) for v in self.u0],
            "physical_u0": [float(v) for v in self.physical_initial_state()],
            "scale": float(self.scale),
            "rescaled_period": float(self.rescaled_period),
            "period": float(self.period),
            "residual": float(self.residual),
            "closure": float(self.closure),
            "symmetry_defect": float(self.symmetry_defect),
            "energy_drift": float(self.energy_drift),
            "distance_to_m": float(self.distance_to_m),
            "iterations": int(self.iterations),
        }


def _symmetry_defects(spec: SuperpositionSpec, traj: Trajectory):
    """|| S_sigma u(t + 2*pi) - u(t) || on a grid of [0, tau - 2*pi],
    t = 0 alone with the identity symmetry.  The first, at t = 0, is the
    twisted residual |S_sigma phi_{2pi}(u0) - u0|, and their max the
    symmetry defect."""
    S = permutation_matrix(spec.sigma)
    grid = (np.zeros(1) if spec.order == 1
            else np.linspace(0.0, spec.tau - TWO_PI, GRID_SAMPLES + 1))
    defects = traj.sample(grid + TWO_PI) @ S.T - traj.sample(grid)
    return np.linalg.norm(defects, axis=1)


class _LoopFrame:
    """rs followed along a collocated loop (Encke's method): the state
    the integrators step is the deviation w = v - v_r(t) of rs's
    co-rotating state v from the reference v_r(t) = u0 + v_c(t) - v_c(0),
    v_c the trigonometric interpolant of the loop's samples, (K, 2N), and
    u0 = loop[0].  Its field is V(t, v_r + w) - v_r'(t), so w stays as
    small as the loop's error and the steps grow.  w(0) = 0, the state
    read at t = 0 is u0 bit for bit, and the first step is
    FIRST_STEP_SHARE * tau.  Energies and guards are rs's, on the states
    to_lab returns, screened at least GRID_SAMPLES times per period tau
    (`spacing`)."""

    def __init__(self, rs: RescaledSystem, loop, tau: float):
        self.rs, self.n = rs, rs.n
        self.first_step = FIRST_STEP_SHARE * tau
        self.spacing = tau / GRID_SAMPLES
        self.screen, self.guard_geometry = rs.screen, rs.guard_geometry
        self.validate_state, self.hamiltonian = (rs.validate_state,
                                                 rs.hamiltonian)
        self._reference = _trigonometric_interpolant(loop, tau)

    def vector_field(self, w, t):
        v, dv = self._reference(t, derivative=True)
        return self.rs.vector_field(v + w, t) - dv

    def to_lab(self, t, ws) -> np.ndarray:
        return self.rs.to_lab(t, self._reference(t) + ws)

    def to_frame(self, t, us) -> np.ndarray:
        return self.rs.to_frame(t, us) - self._reference(t)


def _certified(spec: SuperpositionSpec, loop, settings: IntegratorSettings,
               residuals) -> PeriodicOrbit:
    """The orbit through u0 = loop[0], the first of the collocated
    samples `loop`, once one integration over tau passes every check:
    the twisted residual |S_sigma phi_{2pi}(u0) - u0|, the closure and
    the symmetry defect, both twisted terms read from the dense output
    by one `_symmetry_defects` (so with the identity symmetry the defect
    is the residual); else ConvergenceError.  The integration steps the
    deviation from the loop (_LoopFrame), and every check reads the
    states it gives back, so a loop that is no orbit fails as it would
    in any frame.  `residuals` are the collocation residuals that led to
    the loop.  Once certified, the trajectory is sampled once at
    GRID_SAMPLES uniform times of [0, tau); the energy drift and
    distance_to_M read those samples, the energies from one batched
    hamiltonian call."""
    u0, tau = loop[0], spec.tau
    traj = integrate(_LoopFrame(spec.rescaled, loop, tau), u0, (0.0, tau),
                     settings)
    defects = _symmetry_defects(spec, traj)
    residual, defect = float(defects[0]), float(defects.max())
    closure = float(np.linalg.norm(traj.final_state - u0))
    iterations = len(residuals) - 1
    for value, tol, what in (
            (residual, SHOOT_TOL, "twisted residual"),
            (closure, CLOSURE_TOL, "the full period does not close: closure"),
            (defect, SYMMETRY_DEFECT_TOL, "twisted symmetry defect")):
        if value > tol:
            raise ConvergenceError(f"{what} {value:.3e}", last_iterate=u0,
                                   iterations=iterations, residual=value)
    samples = traj.sample(np.linspace(0.0, tau, GRID_SAMPLES, endpoint=False))
    return PeriodicOrbit(
        spec=spec, u0=u0, residual=residual, closure=closure,
        symmetry_defect=defect,
        energy_drift=relative_drift(spec.rescaled.hamiltonian(samples)),
        distance_to_m=distance_to_M(spec, samples), iterations=iterations,
        trajectory=traj, residuals=tuple(residuals), loop=loop)


def _collocated_orbit(spec: SuperpositionSpec, loop,
                      settings: IntegratorSettings) -> PeriodicOrbit:
    """The orbit collocated from `loop`, an odd number of samples, (J, 2N),
    of a loop in the clusters' co-rotating frames at t_j = j tau / J, and
    certified by one integration of its u0.

    linalg.newton solves for the loop's co-rotating samples v_k at t_k =
    k tau / K, K = COLLOCATION_SAMPLES[0], or the next count while the
    converged loop's highest mode exceeds COLLOCATION_TOL.  At each K it
    starts from `loop` resampled at the t_k: its own samples when it has
    K, else its trigonometric interpolant (_trigonometric_interpolant),
    which repeats a single sample, a constant loop, bit for bit.  The
    converged samples are then the loop the next K starts from.  u0 is
    v_0, where the frames agree with the lab.  The residual is
    V(t_k, v_k) - (D v)_k, D the Fourier differentiation matrix, and the
    Jacobian blockdiag(DV_k) - D (x) I: each evaluation takes V and DV
    at all K samples from one batched field_and_jacobian call, and adds
    DV's blocks to a copy of -D (x) I, formed once per K.  Its rows G are
    the time shift, the lab field turned into the frames, V_k - i omega
    v_k, and the domain's kernel_generators about u + anchor_hat / r
    turned likewise; its columns are the gradients of the first integrals
    those generate, Gamma perp(G): the energy and, on a rotational
    domain, the angular impulse.  With G as the columns the matrix is
    singular (Hamiltonian Jordan blocks).  The start's samples and each
    iterate's are screened in the lab frame at the settings' thresholds,
    so a start inside them raises the guard's own error, as a start
    state does in `integrate`.
    """
    rs = spec.rescaled
    n, center = 2 * spec.n, rs.anchor_hat / spec.scale
    for K in COLLOCATION_SAMPLES:
        ts = np.linspace(0.0, spec.tau, K, endpoint=False)
        v0 = (loop if len(loop) == K
              else _trigonometric_interpolant(loop, spec.tau)(ts))
        D = _spectral_derivative(np.eye(K), spec.tau)
        minus_d = np.kron(-D, np.eye(n))

        def residual_and_bordered_jacobian(x):
            v = x.reshape(K, n)
            (V, DV), J = rs.field_and_jacobian(v, ts), minus_d.copy()
            J.reshape(K, n, K, n)[np.arange(K), :, np.arange(K)] += DV
            shift = V.view(complex) - 1j * spec.angular_velocities * v.view(
                complex)
            G = [shift.view(float).reshape(-1)] + [
                rs.to_frame(ts, g.reshape(K, n)).reshape(-1) for g in
                kernel_generators(spec.domain, rs.to_lab(ts, v) + center)]
            return (V - D @ v).reshape(-1), J, G, [
                np.tile(np.repeat(rs.gamma, 2), K) * perp(g) for g in G]

        def admissible(x):
            rs.screen(rs.to_lab(ts, x.reshape(K, n)), ts,
                      settings.collision_tol, settings.boundary_margin)

        admissible(v0.reshape(-1))
        try:
            x, residuals = newton(
                residual_and_bordered_jacobian, v0.reshape(-1), admissible,
                tol=COLLOCATION_TOL, max_iterations=MAX_SHOOT_ITERATIONS)
        except ConvergenceError as exc:
            exc.last_iterate = exc.last_iterate[:n]  # its u0
            raise
        loop = x.reshape(K, n)
        highest = np.abs(np.fft.fft(loop, axis=0)[K // 2]).max() / K
        if highest <= COLLOCATION_TOL:
            return _certified(spec, loop, settings, residuals)
    raise ConvergenceError(
        f"{K} samples do not resolve the loop (highest mode {highest:.3e})",
        iterations=len(residuals) - 1, last_iterate=loop[0], residual=highest)


def shoot(spec: SuperpositionSpec, guess=None,
          settings: Optional[IntegratorSettings] = None) -> PeriodicOrbit:
    """Polish a guess into a periodic orbit of the rescaled flow by
    trigonometric collocation, and certify it by one integration.

    The unknowns are K samples of the loop in its clusters' co-rotating
    frames over the full period tau, where an orbit near M is nearly
    constant (_collocated_orbit); the orbit's iterations are the Newton
    steps of the accepted K, which is COLLOCATION_SAMPLES[0] unless the
    converged loop's highest mode exceeds COLLOCATION_TOL.  The start is
    a loop in those frames.  When guess is None it is the torus point p =
    build_initial_guess(spec), one sample: a point of M is constant in
    the frames.  A PeriodicOrbit of the same problem (its
    spec.describe() equal to spec's but for the scale) gives the loop
    p + (r / r_orbit)^2 (guess.loop - p), its collocated loop's
    deviation from p scaled as the superposition's deviation, O(r^2).
    So a converged orbit of COLLOCATION_SAMPLES[0] samples, given back as
    its own guess, starts at its own residual, takes no Newton step and
    is certified with its u0 bit for bit.  One of COLLOCATION_SAMPLES[1]
    samples is resampled at the first count and solved there again, and
    the finer Newton starts from that loop: figure 1 at r = 0.2 takes one
    step, and its u0 moves by 2e-14.  Any other guess raises
    ConstraintViolationError before any integration.

    The loop's state at t = 0 is u0, and one integration over tau, of
    the deviation from the loop's trigonometric interpolant, certifies
    it: the twisted residual |S_sigma phi_{2pi}(u0) - u0| must be <=
    SHOOT_TOL, the full-period closure <= CLOSURE_TOL and, for nontrivial
    sigma, the symmetry defect <= SYMMETRY_DEFECT_TOL.  That integration
    is the orbit's trajectory: its states at u0 and at each accepted
    step (6 on figure 1), and dense output in between; the orbit's
    energy drift and distance to M read it at GRID_SAMPLES uniform times
    of the period (see PeriodicOrbit).  Each failure is a
    ConvergenceError; there is no other solver to fall back on.  The
    start loop and every collocation iterate meet the settings' guard
    thresholds: a start inside them raises CollisionError or
    DomainViolationError, an iterate ConvergenceError.
    """
    if spec.scale <= 0.0:
        raise ConstraintViolationError("shooting requires scale > 0")
    settings = settings or IntegratorSettings()
    if guess is None:
        return _collocated_orbit(spec, build_initial_guess(spec)[None],
                                 settings)
    if not isinstance(guess, PeriodicOrbit) or dict(
            guess.spec.describe(), scale=spec.scale) != spec.describe():
        raise ConstraintViolationError(
            "the guess must be None or an orbit of the same problem")
    p = spec.torus_point()
    return _collocated_orbit(
        spec, p + (spec.scale / guess.scale)**2 * (guess.loop - p), settings)


# ---------------------------------------------------------------------------
# distance to the phase torus
# ---------------------------------------------------------------------------

def _trigonometric_interpolant(samples: np.ndarray, period: float):
    """The trigonometric interpolant p of an odd number K = 2M + 1 of
    uniformly spaced periodic samples, (K, n), from t = 0.

    Returns a function of times t, a scalar or (k,), that gives p(t),
    (n,) or (k, n), and with derivative=True (p(t), p'(t)), both from
    one table of phase factors e^{i w_j t}, j = 1..M.  With c_j the
    samples' Fourier coefficients, p = samples[0] + 2 Re sum_j c_j
    (e^{i w_j t} - 1), so p(0) is samples[0] bit for bit.
    """
    g = samples.shape[0]
    iw = 1j * np.arange(1, g // 2 + 1) * (TWO_PI / period)
    c = 2.0 * np.fft.rfft(samples, axis=0)[1:] / g
    dc = iw[:, None] * c

    def at(t, derivative=False):
        waves = np.exp(np.multiply.outer(t, iw))
        p = samples[0] + ((waves - 1.0) @ c).real
        return (p, (waves @ dc).real) if derivative else p
    return at


def _spectral_derivative(samples: np.ndarray, period: float) -> np.ndarray:
    """Time derivative of uniformly spaced periodic samples by FFT."""
    g = samples.shape[0]
    freqs = np.fft.fftfreq(g, d=1.0 / g)  # integer wave numbers
    factor = 1j * freqs * (TWO_PI / period)
    spec_hat = np.fft.fft(samples, axis=0)
    return np.real(np.fft.ifft(factor[:, None] * spec_hat, axis=0))


def distance_to_M(spec: SuperpositionSpec, u) -> float:
    """Discrete H^1 distance from a periodic loop to the phase torus.

    `u` is a (g, 2N) array of the loop's states in u, sampled uniformly
    on [0, tau) from t = 0 (a certified orbit passes its trajectory's
    GRID_SAMPLES samples).  Derivatives are spectral, the quadrature is
    the periodic trapezoid rule.  A cluster's phase enters only as one
    global rotation of its block of the torus samples, so each cluster's
    phase minimum is the rotation fit `aligned_distance` of its stacked
    (z, z') samples at zero phase to the stacked (u, u').
    """
    samples = np.asarray(u, dtype=float)
    g, tau = len(samples), spec.tau
    ts = np.linspace(0.0, tau, g, endpoint=False)

    def h1(w):  # values and spectral derivatives, stacked along time
        return np.concatenate([w, _spectral_derivative(w, tau)])

    u_h1, z_h1 = h1(samples), h1(spec.torus_samples(ts, np.zeros(spec.m)))
    total = sum(aligned_distance(z_h1[:, b].reshape(-1),
                                 u_h1[:, b].reshape(-1))**2
                for b in spec.blocks)
    return float(np.sqrt(tau / g * total))


# ---------------------------------------------------------------------------
# continuation and phase scans
# ---------------------------------------------------------------------------

def continue_in_r(spec: SuperpositionSpec, r_list,
                  settings: Optional[IntegratorSettings] = None) -> list:
    """Shoot along a descending list of scales, each orbit after the
    first started from the one before (see shoot).  Returns the orbits
    in r_list order."""
    rs = [float(r) for r in r_list]
    if not rs:
        raise ConstraintViolationError("r_list is empty")
    if any(r <= 0.0 for r in rs):
        raise ConstraintViolationError("scales must be positive")
    if any(a <= b for a, b in zip(rs, rs[1:])):
        raise ConstraintViolationError("r_list must be strictly decreasing")

    orbits = []
    for r in rs:
        try:
            orbits.append(shoot(spec.replace(scale=r),
                                orbits[-1] if orbits else None, settings))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"continuation failed at r = {r}: {exc}",
                iterations=exc.iterations, last_iterate=exc.last_iterate,
                residual=exc.residual) from exc
    return orbits


def _orbit_distance(a: PeriodicOrbit, b: PeriodicOrbit) -> float:
    """min over time shift, relabelling of identical vortices (the
    spec's relabellings), and on a rotational domain the rotation about
    its center (at -anchor_hat / r in u; exact for any anchors), of the
    distance between orbit a and the initial point of orbit b.  The
    shift and relabelling are the best of a grid; the shift is refined
    on the offset from it."""
    tau = a.rescaled_period
    c = a.spec.rescaled.anchor_hat / a.scale
    relabelled = np.array([permutation_matrix(pi) @ b.u0
                           for pi in a.spec.relabellings])

    def dists(times, targets):  # (len(times), len(targets))
        s = a.trajectory.sample(np.atleast_1d(times) % tau)[:, None]
        if a.spec.domain.symmetry == SymmetryClass.ROTATIONAL:
            return aligned_distance(s + c, targets + c)
        return np.linalg.norm(s - targets, axis=-1)

    grid = np.linspace(0.0, tau, 512, endpoint=False)
    grid_dists = dists(grid, relabelled)
    k, j = np.unravel_index(np.argmin(grid_dists), grid_dists.shape)
    h = tau / 512
    res = minimize_scalar(lambda dt: dists(grid[k] + dt, relabelled[j])[0, 0],
                          bounds=(-h, h), method="bounded",
                          options={"xatol": 1e-12})
    return float(min(res.fun, grid_dists[k, j]))


@dataclass
class PhaseScanResult:
    orbits: list
    failures: list  # (phases, error message) pairs
    attempted: int

    @property
    def distinct_count(self) -> int:
        return len(self.orbits)


def _critical_phases(spec: SuperpositionSpec) -> list:
    """The critical points of Phi on the free phases' fundamental domain,
    as phase vectors whose pinned last phase is 0: one linalg.newton on
    the gradient of Phi's trigonometric interpolant from each of its
    PHI_SAMPLES samples per free phase, each the mean of the coupling
    over PHI_TIMES times of the period (all the samples' states in one
    coupling call), converged at SHOOT_TOL of the gradient's bound.  A
    seed whose Newton fails adds none, and points within
    IDENTIFICATION_TOL modulo the domain are one."""
    free = list(spec.nontrivial_indices[:-1])
    period = np.array([spec.clusters[k].period
                       / len(spec.clusters[k].relabellings) for k in free])
    index = np.indices((PHI_SAMPLES,) * len(free)).reshape(len(free), -1).T
    grid = index * (period / PHI_SAMPLES)
    phases = grid @ np.eye(spec.m)[free]  # zero on the other clusters
    ts = np.linspace(0.0, spec.tau, PHI_TIMES, endpoint=False)
    values = spec.rescaled.coupling(spec.scale * spec.torus_samples(
        ts, phases[:, None])).mean(axis=-1)
    coef = np.fft.fftn((values - values.mean()).reshape(
        (PHI_SAMPLES,) * len(free))).reshape(-1) / len(grid)
    waves = (np.fft.fftfreq(PHI_SAMPLES, 1.0 / PHI_SAMPLES)[index]
             * (TWO_PI / period))

    def gradient_and_hessian(theta):
        modes = coef * np.exp(1j * (waves @ theta))
        return ((1j * modes @ waves).real, -((waves.T * modes) @ waves).real,
                (), ())

    tol, found = SHOOT_TOL * np.abs(coef) @ np.abs(waves).sum(1), []
    for seed in grid:
        try:
            theta, _ = newton(gradient_and_hessian, seed, lambda _: None,
                              tol=tol, max_iterations=MAX_SHOOT_ITERATIONS)
        except ConvergenceError:
            continue
        # into the cell centred on the samples: a point at 0 stays at 0
        theta = theta - period * np.floor(theta / period + 0.5 / PHI_SAMPLES)
        if all(np.abs((theta - t + period / 2) % period - period / 2).max()
               > IDENTIFICATION_TOL for t in found):
            found.append(theta)
    return [tuple(float(t) for t in theta) + (0.0,) for theta in found]


def scan_phases(spec: SuperpositionSpec,
                settings: Optional[IntegratorSettings] = None
                ) -> PhaseScanResult:
    """Shoot once from each critical point of the reduced functional Phi
    on the (l-1)-torus and cluster the orbits into distinct classes.

    The last nontrivial cluster's phase is pinned to zero (a synchronous
    shift moves all phases together, so only relative phases label orbit
    classes).  Relabelling cluster k by its table entry at shift s moves
    its phase by s, so each free phase ranges over [0, P_k / s_k), P_k
    the cluster's period and s_k the length of its table.  Two orbits
    are identified when, after optimizing the time shift, the relabelling
    (and, on a rotational domain, the rotation about its center), they
    are within IDENTIFICATION_TOL of each other.  With at most one
    nontrivial cluster the one start is the spec's own phases.  A shot
    that fails with a VortexError is recorded in the result, not raised;
    any other exception propagates.
    """
    phase_vectors = [spec.phases] if spec.l <= 1 else _critical_phases(spec)
    classes, failures = [], []
    for pv in phase_vectors:
        try:
            orbit = shoot(spec.replace(phases=pv), None, settings)
        except VortexError as exc:
            failures.append((pv, f"{type(exc).__name__}: {exc}"))
            continue
        if all(_orbit_distance(rep, orbit) > IDENTIFICATION_TOL
               for rep in classes):
            classes.append(orbit)
    return PhaseScanResult(classes, failures, len(phase_vectors))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def winding_number(samples: np.ndarray) -> int:
    """Signed full turns of a planar vector over one closed period.

    `samples` is (n, 2) tracing the vector through the period; the last
    sample may duplicate the first.
    """
    p = np.asarray(samples, dtype=float)
    angles = np.unwrap(np.arctan2(p[:, 1], p[:, 0]))
    turns = (angles[-1] - angles[0]) / TWO_PI
    return int(np.rint(turns))


def cluster_winding_numbers(orbit: PeriodicOrbit) -> list:
    """Winding of each nontrivial cluster's first relative separation
    vector (member 1 minus member 0) over the full rescaled period."""
    spec = orbit.spec
    ts = np.linspace(0.0, orbit.rescaled_period, 2 * GRID_SAMPLES + 1)
    samples = orbit.trajectory.sample(ts)
    blocks = [samples[:, spec.blocks[k]] for k in spec.nontrivial_indices]
    return [winding_number(b[:, 2:4] - b[:, :2]) for b in blocks]
