"""Span tracing around vortexlab's public names, applied from outside.

A `Tracer` replaces each name in `TARGETS` (a module function as its
callers import it, or a class method) with a wrapper that records one
span per call: id, parent id, layer name, start, end, thread, operation
and an optional value read from the result.  Parent stacks are kept per
thread, so spans opened on pool threads never become children of spans
on the calling thread.  Spans stay in memory; `summarize` derives the
per-layer metrics from them after the run.

A target that a later version of the package removes or renames is
reported in `Tracer.absent` instead of failing the run, and the metrics
built on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict, namedtuple


def _trajectory_steps(traj) -> int:
    return len(traj.times) - 1


# (span name, module, attribute path, probe of the result or None).
# Module functions are wrapped under the name their callers import, so a
# call from inside the defining module through another name is not seen.
TARGETS = (
    ("cli.run", "vortexlab.cli", "run", None),
    ("stationary.find_critical_point", "vortexlab.cli",
     "find_critical_point", None),
    ("equilibria.certify", "vortexlab.periodic", "certify", None),
    ("periodic.shoot", "vortexlab.cli", "shoot", None),
    ("periodic.distance_to_M", "vortexlab.periodic", "distance_to_M", None),
    ("dynamics.flow_with_jacobian", "vortexlab.periodic",
     "flow_with_jacobian", None),
    ("dynamics.integrate", "vortexlab.cli", "integrate", _trajectory_steps),
    ("dynamics.integrate", "vortexlab.periodic", "integrate",
     _trajectory_steps),
    ("systems.rhs", "vortexlab.systems", "VortexSystem.vector_field", None),
    ("systems.rhs", "vortexlab.systems", "RescaledSystem.rescaled_field",
     None),
    ("systems.jac", "vortexlab.systems", "VortexSystem.field_jacobian", None),
    ("systems.jac", "vortexlab.systems",
     "RescaledSystem.rescaled_field_jacobian", None),
    ("systems.energy", "vortexlab.systems", "VortexSystem.hamiltonian", None),
    ("systems.energy", "vortexlab.systems",
     "RescaledSystem.rescaled_hamiltonian", None),
    ("systems.assemble", "vortexlab.systems", "assemble_interaction", None),
    ("domains.kernel", "vortexlab.domains", "UnitDisc.regular_part_many",
     None),
    ("domains.kernel", "vortexlab.domains", "UnitDisc.grad_regular_many",
     None),
    ("domains.kernel", "vortexlab.domains", "UnitDisc.hess_regular_many",
     None),
    ("domains.boundary_clearance", "vortexlab.domains",
     "UnitDisc.boundary_clearance", None),
)

# Per-layer metrics in the order they are reported.  Counts and times
# are per traced operation.
PER_LAYER = (
    ("cli.self_s", "s"),
    ("cli.artifact_bytes", "bytes"),
    ("stationary.find_critical_point.s", "s"),
    ("equilibria.certify.calls", "count"),
    ("equilibria.certify.s", "s"),
    ("periodic.shoot.calls", "count"),
    ("periodic.shoot.s", "s"),
    ("periodic.newton_iters", "count"),
    ("periodic.distance_to_M.calls", "count"),
    ("periodic.distance_to_M.s", "s"),
    ("dynamics.flow_with_jacobian.calls", "count"),
    ("dynamics.flow_with_jacobian.s", "s"),
    ("dynamics.flow_with_jacobian.self_s", "s"),
    ("dynamics.integrate.calls", "count"),
    ("dynamics.integrate.s", "s"),
    ("dynamics.integrate.self_s", "s"),
    ("dynamics.steps", "count"),
    ("dynamics.rhs_per_step", "count"),
    ("dynamics.guard_samples", "count"),
    ("systems.rhs.calls", "count"),
    ("systems.jac.calls", "count"),
    ("systems.self_s", "s"),
    ("systems.rhs_jac_us", "us"),
    ("systems.assemble.calls", "count"),
    ("systems.assemble_per_rhs", "count"),
    ("systems.energy.calls", "count"),
    ("systems.energy.s", "s"),
    ("domains.kernel.calls", "count"),
    ("domains.kernel.s", "s"),
    ("domains.boundary_clearance.calls", "count"),
    ("domains.boundary_clearance.s", "s"),
    ("trace.overhead_share", "share"),
)


# One recorded call; the wrapper appends plain tuples in this layout.
# parent is 0 for a span with no parent on its thread.
Span = namedtuple("Span", "sid parent name t0 t1 thread op value")


class Tracer:
    """Installs span wrappers on `targets` while used as a context."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.absent = []
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore = []

    def __enter__(self):
        for name, module, path, probe in self.targets:
            try:
                self._install(name, module, path, probe)
            except (ImportError, AttributeError) as exc:
                entry = f"{module}.{path}: {type(exc).__name__}"
                if entry not in self.absent:
                    self.absent.append(entry)
        return self

    def __exit__(self, *exc):
        while self._restore:
            self._restore.pop()()
        return False

    def _install(self, name, module, path, probe):
        *owner_path, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in owner_path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self.wrap(name, raw.__func__, probe))
        elif callable(raw):
            wrapped = self.wrap(name, raw, probe)
        else:
            raise AttributeError(f"{path} is not callable")
        own = attr in vars(owner)
        setattr(owner, attr, wrapped)
        if own:
            self._restore.append(lambda: setattr(owner, attr, raw))
        else:
            self._restore.append(lambda: delattr(owner, attr))

    def wrap(self, name, fn, probe=None):
        spans, local, ids = self.spans, self._local, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            value = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    try:
                        value = probe(result)
                    except (AttributeError, TypeError):
                        value = 0
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, ident(), self.op,
                              value))

        return traced


def _covered(intervals, lo, hi) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """sid -> duration minus the part of it that child spans cover.

    `spans` are `Span` records.  Children overlapping each other (from
    pool threads that inherit no parent here, or from nested wrappers)
    are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.t0, s.t1))
    return {s.sid: (s.t1 - s.t0) - _covered(children.get(s.sid, ()),
                                            s.t0, s.t1)
            for s in spans}


def _nearest_ancestor(span, by_id, prefix):
    parent = by_id.get(span.parent)
    while parent is not None and not parent.name.startswith(prefix):
        parent = by_id.get(parent.parent)
    return parent


def summarize(spans, n_ops: int, n_vortices: int, extra: dict) -> dict:
    """Per-layer metrics per traced operation.

    `extra` carries what the spans cannot see: `cli.artifact_bytes`,
    `periodic.newton_iters` and `trace.overhead_share`.
    """
    spans = [Span._make(s) for s in spans]
    own = self_times(spans)
    by_id = {s.sid: s for s in spans}
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    values = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.t1 - s.t0
        self_s[s.name] += own[s.sid]
        values[s.name] += s.value
    rhs_in_integrate = 0
    for s in spans:
        if s.name == "systems.rhs":
            anc = _nearest_ancestor(s, by_id, "dynamics.")
            if anc is not None and anc.name == "dynamics.integrate":
                rhs_in_integrate += 1

    n = max(n_ops, 1)
    steps = values["dynamics.integrate"]
    m = dict(extra)
    m["cli.self_s"] = self_s["cli.run"] / n
    for name in ("stationary.find_critical_point", "equilibria.certify",
                 "periodic.shoot", "periodic.distance_to_M",
                 "dynamics.flow_with_jacobian", "dynamics.integrate",
                 "systems.rhs", "systems.jac", "systems.assemble",
                 "systems.energy", "domains.kernel",
                 "domains.boundary_clearance"):
        m[f"{name}.calls"] = calls[name] / n
        m[f"{name}.s"] = total[name] / n
        m[f"{name}.self_s"] = self_s[name] / n
    m["dynamics.steps"] = steps / n
    m["dynamics.rhs_per_step"] = rhs_in_integrate / steps if steps else 0.0
    m["dynamics.guard_samples"] = (calls["domains.boundary_clearance"]
                                   / max(n_vortices, 1) / n)
    m["systems.self_s"] = sum(v for k, v in self_s.items()
                              if k.startswith("systems.")) / n
    rhs, jac = calls["systems.rhs"], calls["systems.jac"]
    m["systems.rhs_jac_us"] = (1e6 * (total["systems.rhs"] / rhs
                                      + total["systems.jac"] / jac)
                               if rhs and jac else 0.0)
    m["systems.assemble_per_rhs"] = (calls["systems.assemble"] / rhs
                                     if rhs else 0.0)
    return {key: float(m.get(key, 0.0)) for key, _ in PER_LAYER}
