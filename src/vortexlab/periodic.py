"""Superposed periodic orbits near a stationary anchor configuration.

A superposition places one rigidly rotating cluster at each anchor of a
stationary configuration, shrunk by a scale r; in cluster-relative
coordinates u the candidate loops live on the phase torus

    M = { (Z^1(. + theta_1), ..., Z^m(. + theta_m)) : theta in R^l },

one phase per nontrivial cluster.  For small r the rescaled system has
genuine periodic orbits close to M.  This module assembles torus points
as initial guesses, polishes them to orbits by symmetry-reduced
shooting, continues the family in r, scans phases for distinct orbit
classes, and measures the discrete H^1 distance to M.

A relabelling of identical vortices that equals a time shift of a
cluster's rigid motion moves its phase by that shift, so the scan starts
on each free phase's fundamental domain only and tells orbit classes
apart modulo the relabellings as well.

Points of M are built in one place, SuperpositionSpec.torus_samples,
on the cluster blocks the spec lays out once.  Orbits are compared up
to rotation by one fit, linalg.aligned_distance: a phase of one
cluster is a global rotation of its block, so the distance to M is one
rotation fit per cluster.

All shooting happens in rescaled coordinates, where the period is the
r-independent  tau = 2*pi*ord(sigma); the physical orbit is recovered as
z(t) = r*u(t/r^2) + anchor_hat with period T = tau*r^2 exactly.  The
integrators advance each cluster in its co-rotating frame
(SuperpositionSpec.rescaled), where only the O(r^2) motion on top of
its rigid rotation is left to resolve; everything this module reads,
trajectories and flow maps, is in u.

The shooting unknown is the loop's initial state only; the period is
prescribed, and the twisted boundary condition

    S_sigma phi_{2pi}(u0) - u0 = 0

(S_sigma the block permutation; plain tau-periodicity when sigma = id)
removes the sigma-related degeneracy.  The Newton matrix still has null
directions along the time shift f(u0) and the domain's symmetries (the
rotation about the center of a disc); each is appended to it as a row
(the phase condition of Doedel, Keller and Kernevez, Int. J. Bifurcation
and Chaos 1, 1991), as in the anchor search, and orbit classes are told
apart modulo the same symmetries.  The iteration is linalg.newton; its
Jacobians come from the variational flow.  Once Newton is superlinear,
its residuals come from the orbit's closing integration and its steps
reuse the last Jacobian, so the accepted iterate's integration is the
orbit's trajectory and no flow is repeated.

Newton is inexact (Dembo, Eisenstat and Steihaug, Inexact Newton
methods, SIAM J. Numer. Anal. 19, 1982): a step needs F and J only to
a fraction of |F|, so each variational flow runs at rtol =
max(settings.rtol, min(FLOW_TOL_CAP, FORCING * rho^2)), and atol
likewise never below settings.atol, rho the residual norm Newton
evaluated last (infinite before the first): the tolerance tightens to
the settings' own as Newton converges.  Only a closing integration,
always at the settings' tolerance, certifies convergence: a flow whose
residual reads <= max(SHOOT_TOL, HANDOVER * its own rtol), which is as
far as its own accuracy can tell, hands Newton the closing
integration's residual instead.

A residual <= SHOOT_TOL means an orbit only at the tolerance the
acceptance criteria are built on, IntegratorSettings()'s rtol = atol =
1e-13: at 1e-10 a closing integration reads 2.9e-11 where one at 1e-13
reads 1.3e-9 from the same u0.  So shoot, continue_in_r and
scan_phases refuse settings looser than the default with a
ConstraintViolationError before they integrate; tighter ones are used
as given.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import accumulate, product
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .domains import Domain, SymmetryClass
from .dynamics import IntegratorSettings, Trajectory, flow_with_jacobian, integrate
from .equilibria import RelativeEquilibrium, certify
from .errors import (ConstraintViolationError, ConvergenceError,
                     ScaleTooLargeError, VortexError)
from .linalg import (TWO_PI, aligned_distance, as_state, permutation_matrix,
                     newton, permutation_order, rotate_all)
from .stationary import GRADIENT_TOL, StationaryPoint, kernel_generators
from .systems import RescaledSystem, VortexSystem

SHOOT_TOL = 1e-10
#: inexact-Newton tolerance of shoot's variational flows (see shoot)
FLOW_TOL_CAP = 1e-9
FORCING = 1e-3
#: a flow reading <= HANDOVER times its own rtol has met its own accuracy
HANDOVER = 10
MAX_SHOOT_ITERATIONS = 50
CLOSURE_TOL = 1e-9
SYMMETRY_DEFECT_TOL = 1e-8
IDENTIFICATION_TOL = 1e-6
#: scan starts per free phase, uniform on its fundamental domain
PHASE_STARTS = 4
STRENGTH_MATCH_TOL = 1e-12
GRID_SAMPLES = 256


# ---------------------------------------------------------------------------
# describing a superposed orbit problem
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class SuperpositionSpec:
    """Anchors, clusters, phases, and scale of one superposition ansatz.

    Validation happens at construction: cluster strength sums must match
    their anchor strengths, every nontrivial cluster must pass
    certification with its twisted-nondegeneracy flag set, and the phase
    vector carries one entry per nontrivial cluster.  The cluster layout
    is formed there too: `blocks` (the slice of each cluster's
    coordinates in a flat state), `strengths`, `positions` (the
    clusters' positions stacked into one flat state), `angular_velocities`
    (each vortex's cluster's, (N,)), `sigma` (the clusters' permutations
    combined blockwise), and `relabellings` (each combination of the
    clusters' relabelling tables, combined the same way, the identity
    first).
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
        if self.stationary.gradient_norm > GRADIENT_TOL:
            raise ConstraintViolationError(
                "anchors must form a critical point "
                f"(gradient norm {self.stationary.gradient_norm:.2e})")
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

    def system(self) -> VortexSystem:
        return VortexSystem(self.strengths, self.cluster_sizes, self.domain)

    def rescaled(self) -> RescaledSystem:
        """The rescaled system at the spec's scale, integrated in each
        cluster's co-rotating frame (trivial clusters do not turn)."""
        return RescaledSystem(self.system(), self.stationary.positions,
                              self.scale,
                              tuple(eq.angular_velocity
                                    for eq in self.clusters))

    def full_phases(self) -> np.ndarray:
        """Phase per cluster, zeros on trivial ones."""
        out = np.zeros(self.m)
        for theta, k in zip(self.phases, self.nontrivial_indices):
            out[k] = theta
        return out

    def torus_samples(self, times, phases=None) -> np.ndarray:
        """(len(times), 2N) samples of the superposed rigid motions
        (Z^1(t + theta_1), ..., Z^m(t + theta_m)), the points of M: the
        stacked positions with vortex v turned by -omega_v (t + theta_v).

        `phases` holds one phase per cluster (default: the spec's phases,
        zero on trivial clusters).  A trivial cluster sits at the origin
        and does not rotate, so its block stays zero.
        """
        full = self.full_phases() if phases is None else np.asarray(phases)
        t = np.add.outer(np.asarray(times, dtype=float),
                         np.repeat(full, self.cluster_sizes))
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
    try:
        RescaledSystem(spec.system(), spec.stationary.positions,
                       r).validate_state(u0)
        return True
    except VortexError:
        return False


def _max_admissible_scale(spec: SuperpositionSpec, u0, r_bad: float) -> float:
    lo, hi = 0.0, float(r_bad)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        if _scale_is_admissible(spec, u0, mid):
            lo = mid
        else:
            hi = mid
    return lo


def build_initial_guess(spec: SuperpositionSpec) -> np.ndarray:
    """Rescaled initial state u0 = (theta*Z)(0) at the given phases.

    Checks that the corresponding physical state is admissible at the
    spec's scale; if not, raises ScaleTooLargeError carrying a bisection
    estimate of the largest admissible scale.
    """
    u0 = spec.torus_point()
    if not _scale_is_admissible(spec, u0, spec.scale):
        est = _max_admissible_scale(spec, u0, spec.scale)
        raise ScaleTooLargeError(
            f"scale {spec.scale} places the superposed state outside the "
            f"admissible set (largest admissible scale est. {est:.6g})",
            max_admissible=est)
    return u0


# ---------------------------------------------------------------------------
# orbits
# ---------------------------------------------------------------------------

@dataclass
class PeriodicOrbit:
    spec: SuperpositionSpec = field(repr=False)
    u0: np.ndarray
    residual: float
    closure: float
    symmetry_defect: float
    energy_drift: float
    distance_to_m: float
    iterations: int
    trajectory: Trajectory = field(repr=False)
    residuals: tuple  # twisted residual of each Newton iterate

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
        return self.spec.rescaled().to_physical(self.u0)

    def physical_arrays(self):
        """(times, states, energies) of the orbit in physical variables.

        H(r u + anchor_hat) - E_r(u) is one constant along the orbit
        (grad E_r(u) = r grad H(r u + anchor_hat)), so the energies are
        the recorded E_r shifted by that constant, taken at u0.
        """
        times = self.scale**2 * self.trajectory.times
        states = (self.scale * self.trajectory.states
                  + self.spec.rescaled().anchor_hat)
        energies = self.trajectory.energies
        shift = self.spec.system().hamiltonian(states[0]) - energies[0]
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


def _symmetry_defect(spec: SuperpositionSpec, traj: Trajectory) -> float:
    """max over a grid of || S_sigma u(t + 2*pi) - u(t) ||."""
    S = permutation_matrix(spec.sigma)
    span = spec.tau - TWO_PI
    if span <= 0.0:
        # identity symmetry: the defect degenerates to the plain closure
        return float(np.linalg.norm(S @ traj.sample(TWO_PI) - traj.sample(0.0)))
    grid = np.linspace(0.0, span, GRID_SAMPLES + 1)
    defects = traj.sample(grid + TWO_PI) @ S.T - traj.sample(grid)
    return float(np.max(np.linalg.norm(defects, axis=1)))


def _certifying(settings: Optional[IntegratorSettings]
                ) -> IntegratorSettings:
    """settings, or IntegratorSettings() when None; refused when its rtol
    or atol is looser than the default's, at which alone a residual
    <= SHOOT_TOL certifies an orbit."""
    default = IntegratorSettings()
    settings = settings or default
    if settings.rtol > default.rtol or settings.atol > default.atol:
        raise ConstraintViolationError(
            f"shoot certifies orbits at rtol, atol <= {default.rtol:g}, "
            f"{default.atol:g}; got {settings.rtol:g}, {settings.atol:g}")
    return settings


def shoot(spec: SuperpositionSpec, u0_guess=None,
          settings: Optional[IntegratorSettings] = None) -> PeriodicOrbit:
    """Newton-polish a guess into a periodic orbit of the rescaled flow.

    Solves S_sigma phi_{2pi}(u0) = u0 by linalg.newton; the linear steps
    are least-squares solves with S_sigma Dphi - I bordered by the rows
    f(u0) and the domain's kernel_generators at the physical state, so
    the steps do not drift along the time shift or a symmetry of the
    domain.  Converged when the twisted residual is <= 1e-10; the
    returned orbit additionally satisfies full-period closure <= 1e-9
    and, for nontrivial sigma, symmetry defect <= 1e-8, both enforced,
    not just reported.  Every iterate meets the settings' guard
    thresholds.

    Newton's residual-only evaluations integrate over the full period
    tau at the settings' tolerance and read phi_{2pi} there: the final
    state when tau = 2pi, the dense output otherwise.  Only such an
    integration certifies convergence, and the accepted iterate's is the
    orbit's trajectory and its residual.  The variational flows, which
    give Newton its Jacobians, run at the inexact-Newton tolerance
    max(settings.rtol, min(FLOW_TOL_CAP, FORCING * rho^2)), rho the
    last residual norm (Dembo, Eisenstat and Steihaug, 1982), and atol
    likewise never below settings.atol; a flow whose residual reads
    <= max(SHOOT_TOL, HANDOVER * its rtol) returns the closing
    integration's residual instead.

    Settings whose rtol or atol is looser than IntegratorSettings()'s
    raise ConstraintViolationError before any integration: the
    certificate holds only at the default tolerance or a tighter one.
    """
    if spec.scale <= 0.0:
        raise ConstraintViolationError("shooting requires scale > 0")
    settings = _certifying(settings)
    rs = spec.rescaled()
    u0 = build_initial_guess(spec) if u0_guess is None else as_state(u0_guess).copy()
    S = permutation_matrix(spec.sigma)

    def admissible(u):
        rs.validate_state(u, None, settings.collision_tol,
                          settings.boundary_margin)

    last = [np.inf]  # norm of the residual Newton evaluated last
    closing = [None]  # trajectory of the last closing integration

    def closing_residual(u):
        traj = integrate(rs, u, (0.0, spec.tau), settings)
        closing[0] = traj
        uT = traj.final_state if spec.order == 1 else traj.sample(TWO_PI)
        F = S @ uT - u
        last[0] = float(np.linalg.norm(F))
        return F

    def twisted_residual(u):
        eps = min(FLOW_TOL_CAP, FORCING * last[0]**2)
        flow = dataclasses.replace(settings, rtol=max(settings.rtol, eps),
                                   atol=max(settings.atol, eps))
        uT, W = flow_with_jacobian(rs, u, TWO_PI, flow)
        F = S @ uT - u
        last[0] = float(np.linalg.norm(F))
        if last[0] <= max(SHOOT_TOL, HANDOVER * flow.rtol):
            F = closing_residual(u)
        # the time shift's generator is the field of u, not the
        # co-rotating field of the frames
        return F, np.vstack(
            [S @ W - np.eye(u.size), rs.vector_field(u),
             *kernel_generators(spec.domain, rs.to_physical(u))])

    u0, residuals = newton(twisted_residual, u0, admissible,
                           tol=SHOOT_TOL, max_iterations=MAX_SHOOT_ITERATIONS,
                           residual=closing_residual)
    iterations = len(residuals) - 1
    traj = closing[0]
    closure = float(np.linalg.norm(traj.final_state - u0))
    if closure > CLOSURE_TOL:
        raise ConvergenceError(
            f"twisted residual converged but the full period does not "
            f"close (closure {closure:.3e})", iterations=iterations,
            last_iterate=u0, residual=closure)
    defect = _symmetry_defect(spec, traj)
    if spec.order > 1 and defect > SYMMETRY_DEFECT_TOL:
        raise ConvergenceError(
            f"orbit violates the twisted symmetry (defect {defect:.3e})",
            iterations=iterations, last_iterate=u0, residual=defect)

    dist = distance_to_M(spec, traj)
    return PeriodicOrbit(
        spec=spec,
        u0=u0,
        residual=residuals[-1],
        closure=closure,
        symmetry_defect=defect,
        energy_drift=traj.energy_drift(),
        distance_to_m=dist,
        iterations=iterations,
        trajectory=traj,
        residuals=tuple(residuals),
    )


# ---------------------------------------------------------------------------
# distance to the phase torus
# ---------------------------------------------------------------------------

def _spectral_derivative(samples: np.ndarray, period: float) -> np.ndarray:
    """Time derivative of uniformly spaced periodic samples by FFT."""
    g = samples.shape[0]
    freqs = np.fft.fftfreq(g, d=1.0 / g)  # integer wave numbers
    factor = 1j * freqs * (TWO_PI / period)
    spec_hat = np.fft.fft(samples, axis=0)
    return np.real(np.fft.ifft(factor[:, None] * spec_hat, axis=0))


def distance_to_M(spec: SuperpositionSpec, u) -> float:
    """Discrete H^1 distance from a periodic loop to the phase torus.

    `u` is a Trajectory over one rescaled period or a (g, 2N) array
    sampled uniformly on [0, tau).  Derivatives are spectral, the
    quadrature is the periodic trapezoid rule.  A cluster's phase enters
    only as one global rotation of its block of the torus samples, so
    each cluster's phase minimum is the rotation fit `aligned_distance`
    of its stacked (z, z') samples at zero phase to the stacked (u, u').
    """
    tau = spec.tau
    if isinstance(u, Trajectory):
        u = u.sample(np.linspace(0.0, tau, GRID_SAMPLES, endpoint=False))
    samples = np.asarray(u, dtype=float)
    g = samples.shape[0]
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
    """Shoot along a descending list of scales, warm-starting each orbit
    from the previous one.  Returns the orbits in r_list order.  Settings
    looser than the default are refused as shoot refuses them."""
    rs = [float(r) for r in r_list]
    if not rs:
        raise ConstraintViolationError("r_list is empty")
    if any(r <= 0.0 for r in rs):
        raise ConstraintViolationError("scales must be positive")
    if any(a <= b for a, b in zip(rs, rs[1:])):
        raise ConstraintViolationError("r_list must be strictly decreasing")

    orbits = []
    guess = None
    for r in rs:
        sub = spec.replace(scale=r)
        try:
            orbits.append(shoot(sub, guess, settings))
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"continuation failed at r = {r}: {exc}",
                iterations=exc.iterations, last_iterate=exc.last_iterate,
                residual=exc.residual) from exc
        guess = orbits[-1].u0
    return orbits


def _orbit_distance(a: PeriodicOrbit, b: PeriodicOrbit) -> float:
    """min over time shift, relabelling of identical vortices (the
    spec's relabellings), and on a rotational domain the rotation about
    its center (at -anchor_hat / r in u; exact for any anchors), of the
    distance between orbit a and the initial point of orbit b.  The
    shift and relabelling are the best of a grid; the shift is refined
    on the offset from it."""
    tau = a.rescaled_period
    c = a.spec.rescaled().anchor_hat / a.scale
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


def scan_phases(spec: SuperpositionSpec,
                settings: Optional[IntegratorSettings] = None
                ) -> PhaseScanResult:
    """Shoot from relative-phase guesses on the fundamental domain of the
    (l-1)-torus and cluster the converged orbits into distinct classes.

    The last nontrivial cluster's phase is pinned to zero (a synchronous
    shift moves all phases together, so only relative phases label orbit
    classes).  Relabelling cluster k by its table entry at shift s moves
    its phase by s, so each free phase takes PHASE_STARTS uniform starts
    on [0, P_k / s_k), P_k the cluster's period and s_k the length of its
    table.  Two orbits are identified when, after optimizing the time
    shift, the relabelling (and, on a rotational domain, the rotation
    about its center), they are within IDENTIFICATION_TOL of each other.
    With at most one nontrivial cluster there is no relative phase, and
    the one start is the spec's own phases.  The starts are shot one
    after another; a shot that fails with a VortexError is recorded in
    the result, not raised, and any other exception propagates.
    Settings looser than the default, which shoot refuses, raise that
    ConstraintViolationError before the first shot.
    """
    if spec.l <= 1:
        phase_vectors = [spec.phases]
    else:
        domains = [spec.clusters[k].period
                   / len(spec.clusters[k].relabellings)
                   for k in spec.nontrivial_indices[:-1]]
        axes = [np.arange(PHASE_STARTS) * (d / PHASE_STARTS) for d in domains]
        phase_vectors = [tuple(float(t) for t in free) + (0.0,)
                         for free in product(*axes)]

    _certifying(settings)
    classes = []
    failures = []
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
    out = []
    for k in spec.nontrivial_indices:
        block = samples[:, spec.blocks[k]]
        out.append(winding_number(block[:, 2:4] - block[:, :2]))
    return out
