"""Adaptive time integration for vortex systems, plain and rescaled.

The stepper is Dormand and Prince's DOP853 (scipy's; Hairer, Norsett
and Wanner, Solving ODEs I, II.5-6): an 8th-order embedded 8(5,3) pair,
whose error estimate combines its 5th- and 3rd-order companions, with a
7th-order dense interpolant.  This module owns the driver loop so that
every accepted step is screened for collisions and boundary approach on
the interpolant before it is committed.  integrate takes each step
through one step-and-screen helper: one evaluation of scipy's own
interpolant (DOP853.dense_output) per step gives the screening grid,
whose samples the system's screen checks in one call, in time order, at
the settings' thresholds; the initial state gets the same check from
validate_state, its one-row case.  The grid has GUARD_SAMPLES points
per step, or more where the system's `spacing` asks for them (a
FlowSystem's is inf).  A guard tripped on a sample is refined to its
crossing time by root bracketing and raised as a typed event carrying
the time and the offending pair or vortex.  Trajectory joins the
steps' interpolants through scipy's OdeSolution.  write_csv writes
rows of times, states and energies, whoever formed them.

The stepper advances the co-rotating state v of systems.FlowSystem
(v = exp(i omega t) u per vortex, omega its cluster frame's angular
velocity; v = u for a VortexSystem), whose field V(t, v) depends on t.
Everything integrate hands back reads u: screening samples, and
Trajectory's states, energies and dense output.

Orbit-level work should integrate the rescaled system, whose period is
O(1); the plain system covers the same orbit only with a step-size
spread of order r^2.  integrate is written against
systems.FlowSystem, the base class of both, and uses only its surface,
which periodic's collocated-loop frame presents too.

DOP853 runs at rtol = atol = TOLERANCE = 1e-13, the tolerance the
acceptance criteria are built on.  Its error estimate is sharp, so its
global error sits close to the tolerance: at 1e-12 a direct
integration of a hermite(3) cluster's variational equation over one
turn (entries near 3e4) is 4e-8 from its closed-form monodromy; at
1e-13 it is 1e-9.  Over one period of the figure-1 reference orbit
DOP853 takes 47 steps in the lab frame, whatever r is, and 32 in its
clusters' co-rotating frames, where it resolves only the O(r^2) motion
on top of the rigid rotation; Thomson-3's takes 49 and 5.  The
certificate in periodic steps only the deviation from the orbit's
collocated loop, and takes 5 and 4.

No structural energy conservation: drift is recorded, not corrected.
At TOLERANCE it stays near roundoff (3e-14 over ten time units for a
disc pair), so every integration runs one stepper from start to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import DOP853, OdeSolution
from scipy.optimize import brentq

from .errors import (BoundaryEventError, CollisionError,
                     CollisionEventError, ConstraintViolationError,
                     ConvergenceError, DomainViolationError)
from .domains import BOUNDARY_MARGIN
from .linalg import as_state
from .systems import COLLISION_TOL, FlowSystem

#: dense-output screening points per accepted step
GUARD_SAMPLES = 8
#: DOP853's rtol and atol
TOLERANCE = 1e-13


@dataclass
class IntegratorSettings:
    """Guard thresholds of one integration."""

    collision_tol: float = COLLISION_TOL
    boundary_margin: float = BOUNDARY_MARGIN

    def __post_init__(self):
        # every test is written to fail on NaN
        if not all(0.0 <= v < np.inf
                   for v in (self.collision_tol, self.boundary_margin)):
            raise ConstraintViolationError("guards must be finite and >= 0")


def relative_drift(energies) -> float:
    """max |H(t) - H(0)| / max(1, |H(0)|) over energies H(t) in time
    order, H(0) the first."""
    h0 = energies[0]
    return float(np.max(np.abs(energies - h0)) / max(1.0, abs(h0)))


def _stepper(fun, t0: float, y0, t_bound: float, first_step=None):
    # a non-finite time or right-hand side makes a NaN first step, from
    # which step() never returns
    if not (np.isfinite(t0) and np.isfinite(t_bound)):
        raise ConstraintViolationError(
            f"time span ({t0}, {t_bound}) must be finite")
    stepper = DOP853(fun, t0, y0, t_bound=t_bound, rtol=TOLERANCE,
                     atol=TOLERANCE, first_step=first_step)
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


def _step_and_screen(system: FlowSystem, stepper,
                     settings: IntegratorSettings):
    """Take one step and screen scipy's interpolant of it, the
    co-rotating state whose right-hand side is system.vector_field(v, t),
    turned back to the system's states (system.to_lab), before the step
    is committed: on GUARD_SAMPLES evenly spaced points, or on more
    where the step is longer than GUARD_SAMPLES * system.spacing, so
    that no two are further apart.

    Returns (the step's interpolant, smallest guarded separation on the
    grid); raises ConvergenceError when the stepper fails and the
    refined event when a guard trips.
    """
    message = stepper.step()
    if stepper.status == "failed":
        raise ConvergenceError(
            f"integrator failed at t = {stepper.t:.9g}: {message}",
            iterations=stepper.nfev, last_iterate=stepper.y.copy(),
            residual=np.nan)
    interp = stepper.dense_output()

    def state(t):
        return system.to_lab(t, interp(t).T)

    h = abs(stepper.t - stepper.t_old)
    samples = max(GUARD_SAMPLES, math.ceil(h / system.spacing))
    times = np.linspace(stepper.t_old, stepper.t, samples + 1)
    try:
        seps = system.screen(state(times[1:]), times[1:],
                             settings.collision_tol, settings.boundary_margin)
    except (CollisionError, DomainViolationError) as exc:
        # bracket the crossing between the failing sample and the one before
        k = int(np.flatnonzero(times == exc.time)[0])
        _refine_and_raise(system, state, *times[k - 1:k + 1], exc, settings)
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
        """relative_drift of the energies at the accepted steps."""
        return relative_drift(self.energies)

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


def write_csv(target, times, states, energies):
    """Write `t,x1,y1,...,H` rows, one per time, to the path target,
    with round-trip float formatting."""
    n = np.shape(states)[1] // 2
    header = "t," + ",".join(f"x{i+1},y{i+1}" for i in range(n)) + ",H"
    rows = np.column_stack((times, states, energies)).tolist()
    with open(target, "w") as fh:
        fh.write("\n".join([header] + [",".join(map(repr, row))
                                       for row in rows]) + "\n")


def integrate(system: FlowSystem, z0, t_span,
              settings: Optional[IntegratorSettings] = None) -> Trajectory:
    """Integrate from z0 over t_span = (t0, t1); t1 < t0 runs backward.

    The stepper advances the co-rotating state of system.to_frame, its
    first step system.first_step (None: DOP853's own), and the
    trajectory reads the system's states.

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

    stepper = _stepper(field, t0, system.to_frame(t0, y0), t1,
                       system.first_step)
    while stepper.status == "running":
        interp, sep = _step_and_screen(system, stepper, settings)
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
