"""Adaptive time integration for vortex systems, plain and rescaled.

The stepper is Dormand and Prince's DOP853 (scipy's; Hairer, Norsett
and Wanner, Solving ODEs I, II.5-6): an 8th-order embedded 8(5,3) pair,
whose error estimate combines its 5th- and 3rd-order companions, with a
7th-order dense interpolant.  This module owns the driver loop so that
every accepted step is screened for collisions and boundary approach on
the interpolant before it is committed.  integrate and
flow_with_jacobian share one step-and-screen helper: one evaluation of
the interpolant per step gives the screening grid, whose samples the
system's screen checks in one call, in time order, at the settings'
thresholds; the initial state gets the same check from validate_state,
its one-row case.  A guard tripped on a sample is refined to its
crossing time by root bracketing and raised as a typed event carrying
the time and the offending pair or vortex.  One builder,
_base_dense_output, forms every step's interpolant from the system's
vector field: on the whole state for integrate, whose Trajectory joins
them through scipy's OdeSolution, and on the base state alone for
flow_with_jacobian, whose extra stages then take the field only.

The stepper advances the co-rotating state v of systems.FlowSystem
(v = exp(i omega t) u per vortex, omega its cluster frame's angular
velocity; v = u for a VortexSystem), whose field V(t, v) depends on t.
Everything the integrators hand back reads u: screening samples,
Trajectory's states, energies and dense output, and flow_with_jacobian's
(phi, Dphi), turned back at t_end.

Orbit-level work should integrate the rescaled system, whose period is
O(1); the plain system covers the same orbit only with a step-size
spread of order r^2.  The integrators are written against
systems.FlowSystem, the base class of both.

The default tolerance is rtol = atol = 1e-13.  DOP853's error estimate
is sharp, so its global error sits close to the requested tolerance,
where a 5(4) pair's pessimistic estimate buys an order of magnitude
more accuracy than asked for.  At 1e-12 the flow-map monodromy of a
hermite(3) cluster (entries near 3e4) is 4e-8 from the closed form; at
1e-13 it is 1e-9.  The figure-1 reference orbit takes 32 steps per
period at 1e-13 in its clusters' co-rotating frames, where DOP853
resolves only the O(r^2) motion on top of the rigid rotation (47 in the
lab frame, whatever r is; RK45 took 385 at 1e-12), and Thomson-3's
takes 5 (49).

No structural energy conservation: drift is recorded, not corrected.
At the default tolerance it stays near roundoff (3e-14 over ten time
units for a disc pair), so every integration runs one stepper from
start to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.integrate._ivp.rk import Dop853DenseOutput
from scipy.optimize import brentq

from .errors import (BoundaryEventError, CollisionError,
                     CollisionEventError, ConstraintViolationError,
                     ConvergenceError, DomainViolationError)
from .domains import BOUNDARY_MARGIN
from .linalg import as_state
from .systems import COLLISION_TOL, FlowSystem, RescaledSystem

#: dense-output screening points per accepted step
GUARD_SAMPLES = 8


@dataclass
class IntegratorSettings:
    """Tolerances and guard thresholds of one integration.

    The default rtol = atol = 1e-13 is the tolerance the acceptance
    criteria are built on, and the one the CLI always uses:
    periodic.shoot certifies orbits only at it or a tighter one and
    refuses looser settings.  integrate and flow_with_jacobian take any
    finite positive tolerance.
    """

    rtol: float = 1e-13
    atol: float = 1e-13
    collision_tol: float = COLLISION_TOL
    boundary_margin: float = BOUNDARY_MARGIN

    def __post_init__(self):
        # every test is written to fail on NaN
        if not (0.0 < self.rtol < np.inf and 0.0 < self.atol < np.inf):
            raise ConstraintViolationError("tolerances must be finite and > 0")
        if not all(0.0 <= v < np.inf
                   for v in (self.collision_tol, self.boundary_margin)):
            raise ConstraintViolationError("guards must be finite and >= 0")


def _stepper(fun, t0: float, y0, t_bound: float,
             settings: IntegratorSettings):
    # a non-finite time or right-hand side makes a NaN first step, from
    # which step() never returns
    if not (np.isfinite(t0) and np.isfinite(t_bound)):
        raise ConstraintViolationError(
            f"time span ({t0}, {t_bound}) must be finite")
    stepper = DOP853(fun, t0, y0, t_bound=t_bound, rtol=settings.rtol,
                     atol=settings.atol)
    if not np.all(np.isfinite(stepper.f)):
        raise ConstraintViolationError(
            f"the right-hand side at t = {t0:.9g} must be finite")
    return stepper


def _refine_and_raise(system, state, t_ok, t_bad, exc, settings):
    """Raise exc as an event, its crossing bracketed in (t_ok, t_bad]."""
    collision = isinstance(exc, CollisionError)
    tol = settings.collision_tol if collision else settings.boundary_margin

    def gap(t):
        p, _, domain = system.guard_geometry(state(t))
        if collision:
            return float(np.linalg.norm(p[exc.pair[0]] - p[exc.pair[1]]))
        return float(np.min(domain.boundary_clearance(p)))

    t_star = float(t_bad)
    if gap(t_ok) > tol > gap(t_bad):
        t_star = float(brentq(lambda t: gap(t) - tol, t_ok, t_bad,
                              xtol=1e-14, rtol=1e-14))

    if collision:
        i, j = exc.pair
        raise CollisionEventError(
            f"vortices {i} and {j} collide at t = {t_star:.9g}",
            pair=(i, j), distance=gap(t_star), time=t_star)
    raise BoundaryEventError(
        f"vortex {exc.index} reaches the boundary at t = {t_star:.9g}",
        index=exc.index, time=t_star)


def _base_dense_output(stepper, field, d: int):
    """The DOP853 interpolant of stepper's last step, for the first d
    components only (Hairer, Norsett and Wanner, Solving ODEs I, II.6).

    The first d components of a stage depend on the first d of its
    argument only, so field(t, y), the right-hand side of those
    components, evaluates the three extra stages on d components, at
    their times t_old + C_EXTRA h.  With d the whole state this is
    scipy's dense_output().  The stepper's stages are read, never
    written, so its step sequence does not change.
    """
    h = stepper.h_previous
    y_old = stepper.y_old[:d]
    start = len(stepper.K_extended) - len(stepper.A_EXTRA)
    K = np.empty((len(stepper.K_extended), d))
    K[:start] = stepper.K_extended[:start, :d]
    for s, (a, c) in enumerate(zip(stepper.A_EXTRA, stepper.C_EXTRA),
                               start=start):
        K[s] = field(stepper.t_old + c * h,
                     y_old + np.dot(K[:s].T, a[:s]) * h)
    # the same coefficients as DOP853._dense_output_impl
    delta_y = stepper.y[:d] - y_old
    F = np.empty((3 + len(stepper.D), d))
    F[0] = delta_y
    F[1] = h * K[0] - delta_y
    F[2] = 2 * delta_y - h * (stepper.f[:d] + K[0])
    F[3:] = h * np.dot(stepper.D, K)
    return Dop853DenseOutput(stepper.t_old, stepper.t, y_old, F)


def _step_and_screen(system: FlowSystem, stepper, d: int,
                     settings: IntegratorSettings, what: str):
    """Take one step and screen its interpolant of the first d
    components, the co-rotating state whose right-hand side is
    system.vector_field(v, t), on GUARD_SAMPLES points, turned back to
    the system's states (system.to_lab), before the step is committed.

    Returns (interpolant of v, smallest guarded separation on the
    grid); raises ConvergenceError when the stepper fails and the
    refined event when a guard trips.
    """
    message = stepper.step()
    if stepper.status == "failed":
        raise ConvergenceError(
            f"{what} failed at t = {stepper.t:.9g}: {message}",
            iterations=stepper.nfev, last_iterate=stepper.y[:d].copy(),
            residual=np.nan)
    interp = _base_dense_output(
        stepper, lambda t, v: system.vector_field(v, t), d)
    times = np.linspace(stepper.t_old, stepper.t, GUARD_SAMPLES + 1)
    try:
        seps = system.screen(system.to_lab(times[1:], interp(times[1:]).T),
                             times[1:], settings.collision_tol,
                             settings.boundary_margin)
    except (CollisionError, DomainViolationError) as exc:
        # bracket the crossing between the failing sample and the one before
        k = int(np.flatnonzero(times == exc.time)[0])
        _refine_and_raise(system, lambda t: system.to_lab(t, interp(t)),
                          *times[k - 1:k + 1], exc, settings)
    return interp, float(np.min(seps))


@dataclass
class Trajectory:
    """Accepted-step samples of one integration, with dense output.

    times are in integration order (decreasing for a backward run).
    states are the system's states, never co-rotating ones; energies
    are recorded at them; min_separation is the smallest guarded pair
    distance seen on the screening grid.  _dense maps times to states
    through the steps' interpolants (None when there are no steps).
    """

    times: np.ndarray
    states: np.ndarray  # (n_samples, dim)
    energies: np.ndarray
    min_separation: float
    _dense: Optional[Callable] = field(default=None, repr=False)

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def energy_drift(self) -> float:
        """max |H(t) - H(0)| / max(1, |H(0)|) over the samples."""
        h0 = self.energies[0]
        return float(np.max(np.abs(self.energies - h0)) / max(1.0, abs(h0)))

    def sample(self, t) -> np.ndarray:
        """Dense-output state at t: (dim,) for a scalar time, one row per
        time, (k, dim), for an array; the times that fall in one step
        are evaluated together."""
        t = np.asarray(t, dtype=float)
        lo, hi = sorted((self.t0, self.t_end))
        if not np.all((lo - 1e-12 <= t) & (t <= hi + 1e-12)):
            raise ValueError(f"t = {t} outside [{lo}, {hi}]")
        if self._dense is None:
            return np.tile(self.states[0], t.shape + (1,))
        return self._dense(t)

    def to_csv(self, target):
        """Write `t,x1,y1,...,H` rows with round-trip float formatting."""
        n = self.states.shape[1] // 2
        header = "t," + ",".join(f"x{i+1},y{i+1}" for i in range(n)) + ",H"
        lines = [header]
        for t, z, h in zip(self.times, self.states, self.energies):
            cells = [repr(float(t))]
            cells += [repr(float(v)) for v in z]
            cells.append(repr(float(h)))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        if hasattr(target, "write"):
            target.write(text)
        else:
            with open(target, "w") as fh:
                fh.write(text)


def integrate(system: FlowSystem, z0, t_span,
              settings: Optional[IntegratorSettings] = None) -> Trajectory:
    """Integrate from z0 over t_span = (t0, t1); t1 < t0 runs backward.

    The stepper advances the co-rotating state of system.to_frame, and
    the trajectory reads the system's states.

    Raises CollisionError / DomainViolationError when z0 is not
    admissible, CollisionEventError / BoundaryEventError when a guard
    trips (time and offender attached), ConvergenceError on step-size
    underflow.
    """
    settings = settings or IntegratorSettings()
    y0 = as_state(z0).copy()
    t0, t1 = (float(t_span[0]), float(t_span[1]))
    min_sep = system.validate_state(y0, t0, settings.collision_tol,
                                    settings.boundary_margin)

    times = [t0]
    states = [y0.copy()]
    energies = [system.hamiltonian(y0)]
    segments = []

    if t1 == t0:
        return Trajectory(np.array(times), np.array(states),
                          np.array(energies), float(min_sep))

    def field(t, v):
        return system.vector_field(v, t)

    stepper = _stepper(field, t0, system.to_frame(t0, y0), t1, settings)
    while stepper.status == "running":
        interp, sep = _step_and_screen(system, stepper, y0.size, settings,
                                       "integrator")
        min_sep = min(min_sep, sep)
        times.append(stepper.t)
        # scipy replaces stepper.y each step, never writes into it
        states.append(system.to_lab(stepper.t, stepper.y))
        energies.append(system.hamiltonian(states[-1]))
        segments.append(interp)

    dense = OdeSolution(times, segments, alt_segment=True)
    return Trajectory(np.array(times), np.array(states), np.array(energies),
                      float(min_sep),
                      lambda t: system.to_lab(t, dense(t).T))


def flow_with_jacobian(system: FlowSystem, z0, t_end: float,
                       settings: Optional[IntegratorSettings] = None):
    """Flow map and its state derivative at time t_end.

    Co-integrates the matrix variational equation W' = DV(t, v(t)) W,
    W(0) = I, of the co-rotating state v (system.to_frame, v = z at
    t = 0) through one shared step sequence with it, so the pair
    (phi_t(z0), Dphi_t(z0)) is internally consistent; both are turned
    back to the system's states at t_end.  Each right-hand side takes
    the field and its Jacobian from one assembly.  The steps are
    screened on the interpolant of the base state alone
    (_base_dense_output), whose extra stages take the field only.
    """
    settings = settings or IntegratorSettings()
    y0 = as_state(z0).copy()
    d = y0.size
    system.validate_state(y0, 0.0, settings.collision_tol,
                          settings.boundary_margin)
    if t_end == 0.0:
        return y0, np.eye(d)

    def rhs(t, aug):
        f, J = system.field_and_jacobian(aug[:d], t)
        return np.concatenate([f, (J @ aug[d:].reshape(d, d)).reshape(-1)])

    aug0 = np.concatenate([y0, np.eye(d).reshape(-1)])
    stepper = _stepper(rhs, 0.0, aug0, float(t_end), settings)

    while stepper.status == "running":
        _step_and_screen(system, stepper, d, settings,
                         "variational integration")

    # the turn is linear, so it turns each column of W as it turns v
    zT = system.to_lab(t_end, stepper.y[:d])
    WT = system.to_lab(t_end, stepper.y[d:].reshape(d, d).T).T
    return zT, WT


def check_rescaling_equivalence(rs: RescaledSystem, u0, t_span: float,
                                settings: Optional[IntegratorSettings] = None
                                ) -> float:
    """Max deviation between the physical flow and the rescaled flow
    transported back to physical variables.

    Integrates u under rs, in its clusters' co-rotating frames, over
    [0, t_span/r^2] and z under rs.base from r*u0 + anchor_hat over
    [0, t_span], then compares  z(t)  against  r*u(t/r^2) + anchor_hat
    on a shared grid.
    """
    r = rs.scale
    if r <= 0.0:
        raise ConstraintViolationError("equivalence check needs r > 0")
    u0 = as_state(u0)
    z0 = rs.to_physical(u0)
    traj_u = integrate(rs, u0, (0.0, float(t_span) / r**2), settings)
    traj_z = integrate(rs.base, z0, (0.0, float(t_span)), settings)
    ahat = rs.anchor_hat
    grid = np.linspace(0.0, float(t_span), 257)
    zu = r * traj_u.sample(grid / r**2) + ahat
    return float(np.max(np.linalg.norm(traj_z.sample(grid) - zu, axis=1)))
