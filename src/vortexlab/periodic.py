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

All shooting happens in rescaled coordinates, where the period is the
r-independent  tau = 2*pi*ord(sigma); the physical orbit is recovered as
z(t) = r*u(t/r^2) + anchor_hat with period T = tau*r^2 exactly.

The shooting unknown is the loop's initial state only; the period is
prescribed, and the twisted boundary condition

    S_sigma phi_{2pi}(u0) - u0 = 0

(S_sigma the block permutation; plain tau-periodicity when sigma = id)
removes the sigma-related degeneracy.  The remaining null directions of
the Newton matrix (time shift; global rotation when the domain allows
it) are handled by a truncated-SVD pseudo-inverse rather than bordered
constraints, so the rank structure can vary with the domain without
code changes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .domains import Domain, SymmetryClass
from .dynamics import IntegratorSettings, Trajectory, flow_with_jacobian, integrate
from .equilibria import RelativeEquilibrium, certify
from .errors import (ConstraintViolationError, ConvergenceError,
                     ScaleTooLargeError, VortexError)
from .linalg import (TWO_PI, aligned_distance, as_state, permutation_matrix,
                     permutation_order, perp, spin, truncated_svd_solve)
from .stationary import GRADIENT_TOL, StationaryPoint
from .systems import RescaledSystem, VortexSystem

SHOOT_TOL = 1e-10
MAX_SHOOT_ITERATIONS = 50
JACOBIAN_SVD_THRESHOLD = 1e-6
CLOSURE_TOL = 1e-9
SYMMETRY_DEFECT_TOL = 1e-8
IDENTIFICATION_TOL = 1e-6
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
    vector carries one entry per nontrivial cluster.
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
        self._reports = {}
        for k in self.nontrivial_indices:
            report = certify(self.clusters[k])
            if not report.sigma_nondegenerate:
                raise ConstraintViolationError(
                    f"cluster {k} fails twisted nondegeneracy "
                    f"(symmetric count {report.symmetric_count}, "
                    f"unit multiplier count "
                    f"{report.twisted_unit_multiplier_count})")
            self._reports[k] = report
        self.phases = tuple(float(t) for t in self.phases)
        if len(self.phases) != self.l:
            raise ConstraintViolationError(
                f"{len(self.phases)} phases for {self.l} nontrivial clusters")
        self.scale = float(self.scale)
        if self.scale < 0.0:
            raise ConstraintViolationError("scale must be >= 0")

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
    def strengths(self) -> tuple:
        out = []
        for eq in self.clusters:
            out.extend(eq.strengths)
        return tuple(out)

    @property
    def sigma(self) -> tuple:
        """Combined permutation on all vortices (blockwise)."""
        out = []
        offset = 0
        for eq in self.clusters:
            out.extend(offset + np.asarray(eq.permutation, dtype=int))
            offset += eq.n
        return tuple(int(i) for i in out)

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

    def rescaled(self, scale: Optional[float] = None) -> RescaledSystem:
        r = self.scale if scale is None else float(scale)
        return RescaledSystem(self.system(), self.stationary.positions, r)

    def full_phases(self) -> np.ndarray:
        """Phase per cluster, zeros on trivial ones."""
        out = np.zeros(self.m)
        for theta, k in zip(self.phases, self.nontrivial_indices):
            out[k] = theta
        return out

    def torus_point(self, phases=None) -> np.ndarray:
        """The loop value (theta*Z)(0) as a flat rescaled state."""
        full = self.full_phases() if phases is None else np.asarray(phases)
        blocks = []
        for k, eq in enumerate(self.clusters):
            if eq.is_trivial:
                blocks.append(np.zeros(2))
            else:
                blocks.append(spin(eq.flat(), eq.angular_velocity, full[k]))
        return np.concatenate(blocks)

    def torus_samples(self, times, phases=None) -> np.ndarray:
        """(len(times), 2N) samples of the superposed rigid motions."""
        full = self.full_phases() if phases is None else np.asarray(phases)
        times = np.asarray(times, dtype=float)
        cols = []
        for k, eq in enumerate(self.clusters):
            if eq.is_trivial:
                cols.append(np.zeros((times.size, 2)))
            else:
                cols.append(spin(eq.flat(), eq.angular_velocity,
                                 times + full[k]))
        return np.concatenate(cols, axis=1)

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
        spec.rescaled(r).validate_state(u0)
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
    scale: float
    rescaled_period: float
    period: float
    residual: float
    closure: float
    symmetry_defect: float
    energy_drift: float
    distance_to_m: float
    iterations: int
    trajectory: Trajectory = field(repr=False)

    def physical_initial_state(self) -> np.ndarray:
        return self.spec.rescaled(self.scale).to_physical(self.u0)

    def physical_arrays(self):
        """(times, states, energies) of the orbit in physical variables."""
        rs = self.spec.rescaled(self.scale)
        sys = self.spec.system()
        times = self.scale**2 * self.trajectory.times
        states = np.array([rs.to_physical(u) for u in self.trajectory.states])
        energies = np.array([sys.hamiltonian(z) for z in states])
        return times, states, energies

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
    defects = traj.sample_many(grid + TWO_PI) @ S.T - traj.sample_many(grid)
    return float(np.max(np.linalg.norm(defects, axis=1)))


def shoot(spec: SuperpositionSpec, u0_guess=None,
          settings: Optional[IntegratorSettings] = None) -> PeriodicOrbit:
    """Newton-polish a guess into a periodic orbit of the rescaled flow.

    Solves S_sigma phi_{2pi}(u0) = u0 by Newton-Gauss iteration; the
    linear steps use a truncated-SVD pseudo-inverse (relative threshold
    1e-6) of S_sigma Dphi - I.  Converged when the twisted residual is
    <= 1e-10; the returned orbit additionally satisfies full-period
    closure <= 1e-9 and, for nontrivial sigma, symmetry defect <= 1e-8,
    both enforced, not just reported.
    """
    if spec.scale <= 0.0:
        raise ConstraintViolationError("shooting requires scale > 0")
    settings = settings or IntegratorSettings()
    rs = spec.rescaled()
    u0 = build_initial_guess(spec) if u0_guess is None else as_state(u0_guess).copy()
    rs.validate_state(u0)
    S = permutation_matrix(spec.sigma)
    n2 = u0.size
    identity = np.eye(n2)

    residual = np.inf
    for iteration in range(MAX_SHOOT_ITERATIONS + 1):
        uT, W = flow_with_jacobian(rs, u0, TWO_PI, settings)
        R = S @ uT - u0
        residual = float(np.linalg.norm(R))
        if residual <= SHOOT_TOL:
            break
        if iteration == MAX_SHOOT_ITERATIONS:
            raise ConvergenceError(
                f"shooting stalled after {MAX_SHOOT_ITERATIONS} iterations "
                f"(residual {residual:.3e})",
                iterations=MAX_SHOOT_ITERATIONS, last_iterate=u0,
                residual=residual)
        J = S @ W - identity
        step, rank = truncated_svd_solve(J, -R,
                                         rel_threshold=JACOBIAN_SVD_THRESHOLD)
        if rank == 0:
            raise ConvergenceError(
                "shooting Jacobian is effectively rank zero; the guess is "
                "too far from any orbit", iterations=iteration,
                last_iterate=u0, residual=residual)
        u0 = u0 + step
        rs.validate_state(u0)

    traj = integrate(rs, u0, (0.0, spec.tau), settings)
    closure = float(np.linalg.norm(traj.final_state - u0))
    if closure > CLOSURE_TOL:
        raise ConvergenceError(
            f"twisted residual converged but the full period does not "
            f"close (closure {closure:.3e})", iterations=iteration,
            last_iterate=u0, residual=closure)
    defect = _symmetry_defect(spec, traj)
    if spec.order > 1 and defect > SYMMETRY_DEFECT_TOL:
        raise ConvergenceError(
            f"orbit violates the twisted symmetry (defect {defect:.3e})",
            iterations=iteration, last_iterate=u0, residual=defect)

    dist = distance_to_M(spec, traj)
    return PeriodicOrbit(
        spec=spec,
        u0=u0,
        scale=spec.scale,
        rescaled_period=spec.tau,
        period=spec.period,
        residual=residual,
        closure=closure,
        symmetry_defect=defect,
        energy_drift=traj.energy_drift(),
        distance_to_m=dist,
        iterations=iteration,
        trajectory=traj,
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


def distance_to_M(spec: SuperpositionSpec, u,
                  n_samples: int = GRID_SAMPLES) -> float:
    """Discrete H^1 distance from a periodic loop to the phase torus.

    `u` is a Trajectory over one rescaled period or an (n_samples, 2N)
    array sampled uniformly on [0, tau).  Derivatives are spectral, the
    quadrature is the periodic trapezoid rule.  The phase minimization
    is closed-form per cluster: the objective depends on a cluster's
    phase only through a global rotation of its block, so the optimum is
    a two-coefficient Fourier fit, exact up to roundoff.
    """
    tau = spec.tau
    if isinstance(u, Trajectory):
        ts = np.linspace(0.0, tau, int(n_samples), endpoint=False)
        samples = u.sample_many(ts)
    else:
        samples = np.asarray(u, dtype=float)
    g = samples.shape[0]
    ts = np.linspace(0.0, tau, g, endpoint=False)
    du = _spectral_derivative(samples, tau)
    weight = tau / g

    # cluster block columns
    blocks = []
    start = 0
    for size in spec.cluster_sizes:
        blocks.append(slice(2 * start, 2 * (start + size)))
        start += size

    total = 0.0
    for k, eq in enumerate(spec.clusters):
        sl = blocks[k]
        uk, duk = samples[:, sl], du[:, sl]
        if eq.is_trivial:
            zk = np.zeros_like(uk)
        else:
            zk = spin(eq.flat(), eq.angular_velocity, ts)
        dzk = _spectral_derivative(zk, tau)

        # a phase theta rotates the block by a = -omega*theta, and the
        # mismatch is c0 - 2(P cos a + Q sin a), minimized at hypot(P, Q);
        # Q pairs u with the quarter turn of z, whose sign hypot ignores
        P = float(np.sum(uk * zk) + np.sum(duk * dzk))
        Q = float(np.sum(uk * perp(zk)) + np.sum(duk * perp(dzk)))
        const = float(np.sum(uk**2) + np.sum(duk**2)
                      + np.sum(zk**2) + np.sum(dzk**2))
        total += max(weight * (const - 2.0 * np.hypot(P, Q)), 0.0)

    return float(np.sqrt(max(total, 0.0)))


# ---------------------------------------------------------------------------
# continuation and phase scans
# ---------------------------------------------------------------------------

def continue_in_r(spec: SuperpositionSpec, r_list,
                  settings: Optional[IntegratorSettings] = None) -> list:
    """Shoot along a descending list of scales, warm-starting each orbit
    from the previous one.  Returns the orbits in r_list order."""
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


def _orbit_distance(a: PeriodicOrbit, b: PeriodicOrbit,
                    allow_rotation: bool) -> float:
    """min over time shift (and admissible global rotation) of the
    distance between orbit a and the initial point of orbit b."""
    tau = a.rescaled_period
    grid = np.linspace(0.0, tau, 512, endpoint=False)
    samples = a.trajectory.sample_many(grid)

    if allow_rotation:
        dists = np.array([aligned_distance(s, b.u0) for s in samples])
    else:
        dists = np.linalg.norm(samples - b.u0[None, :], axis=1)
    k = int(np.argmin(dists))

    def point_dist(t):
        s = a.trajectory.sample(t % tau)
        if allow_rotation:
            return aligned_distance(s, b.u0)
        return float(np.linalg.norm(s - b.u0))

    h = tau / 512
    res = minimize_scalar(point_dist,
                          bracket=None,
                          bounds=(grid[k] - h, grid[k] + h),
                          method="bounded",
                          options={"xatol": 1e-12})
    return float(min(res.fun, dists[k]))


def _rotation_allowed(spec: SuperpositionSpec) -> bool:
    """Global rotation of u is an exact symmetry only when the domain is
    rotationally invariant and every anchor sits at the center."""
    if spec.domain.symmetry != SymmetryClass.ROTATIONAL:
        return False
    return bool(np.max(np.abs(spec.stationary.positions)) < 1e-14)


@dataclass
class PhaseScanResult:
    orbits: list
    failures: list  # (phases, error message) pairs
    attempted: int

    @property
    def distinct_count(self) -> int:
        return len(self.orbits)


def scan_phases(spec: SuperpositionSpec, grid_size: int = 8,
                settings: Optional[IntegratorSettings] = None
                ) -> PhaseScanResult:
    """Shoot from relative-phase guesses on a uniform (l-1)-torus grid
    and cluster the converged orbits into distinct classes.

    The last nontrivial cluster's phase is pinned to zero (a synchronous
    shift moves all phases together, so only relative phases label orbit
    classes).  Two orbits are identified when, after optimizing the time
    shift (and the global rotation, when that is an exact symmetry),
    they are within 1e-6 of each other.  The starts are shot one after
    another; a shot that fails with a VortexError is recorded in the
    result, not raised, and any other exception propagates.
    """
    if spec.l <= 1:
        orbit = shoot(spec, None, settings)
        return PhaseScanResult([orbit], [], 1)

    grid_size = int(grid_size)
    if grid_size < 1:
        raise ConstraintViolationError("grid_size must be >= 1")

    free = spec.l - 1
    nontrivial = spec.nontrivial_indices
    periods = [spec.clusters[k].period for k in nontrivial[:-1]]
    axes = [np.arange(grid_size) * (p / grid_size) for p in periods]
    mesh = np.meshgrid(*axes, indexing="ij")
    phase_vectors = [tuple(float(m[idx]) for m in mesh) + (0.0,)
                     for idx in np.ndindex(*([grid_size] * free))]

    allow_rot = _rotation_allowed(spec)
    classes = []
    failures = []
    for pv in phase_vectors:
        try:
            orbit = shoot(spec.replace(phases=pv), None, settings)
        except VortexError as exc:
            failures.append((pv, f"{type(exc).__name__}: {exc}"))
            continue
        if all(_orbit_distance(rep, orbit, allow_rot) > IDENTIFICATION_TOL
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


def cluster_winding_numbers(orbit: PeriodicOrbit, n_samples: int = 512) -> list:
    """Winding of each nontrivial cluster's first relative separation
    vector (member 1 minus member 0) over the full rescaled period."""
    spec = orbit.spec
    ts = np.linspace(0.0, orbit.rescaled_period, int(n_samples) + 1)
    samples = orbit.trajectory.sample_many(ts)
    out = []
    start = 0
    for eq in spec.clusters:
        if not eq.is_trivial:
            if eq.n >= 2:
                base = 2 * start
                rel = (samples[:, base + 2:base + 4]
                       - samples[:, base:base + 2])
                out.append(winding_number(rel))
            else:
                out.append(0)
        start += eq.n
    return out
