import threading

import numpy as np
import pytest

import spans
from spans import Span, Tracer, self_times


def _span(sid, parent, t0, t1, thread=1, name="x"):
    return Span(sid, parent, name, t0, t1, thread, 0, 0)


def test_self_time_subtracts_union_of_children():
    tree = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 3.0, 6.0),   # overlaps its sibling: [1, 6] counted once
        _span(4, 2, 2.0, 3.0),
    ]
    own = self_times(tree)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_self_time_ignores_overlapping_spans_of_another_thread():
    tree = [
        _span(1, 0, 0.0, 10.0, thread=1),
        _span(2, 1, 1.0, 4.0, thread=1),
        # thread 2 runs at the same time; its spans have their own parents
        _span(3, 0, 0.5, 8.0, thread=2),
        _span(4, 3, 2.0, 9.0, thread=2),  # outlives its parent: clipped
    ]
    own = self_times(tree)
    assert own == pytest.approx({1: 7.0, 2: 3.0, 3: 1.5, 4: 7.0})


def test_wrapped_calls_keep_parents_per_thread():
    tracer = Tracer(targets=())
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.wrap("inner", lambda: barrier.wait())
    outer = tracer.wrap("outer", lambda: inner())
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)

    recorded = [Span._make(s) for s in tracer.spans]
    by_id = {s.sid: s for s in recorded}
    inners = [s for s in recorded if s.name == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s.parent]
        assert parent.name == "outer" and parent.thread == s.thread
    assert all(by_id[s.sid].parent == 0 for s in recorded
               if s.name == "outer")
    own = self_times(recorded)
    for s in recorded:
        assert 0.0 <= own[s.sid] <= s.t1 - s.t0


class _Host:
    def method(self):
        return "method"

    @staticmethod
    def static():
        return "static"


class _Child(_Host):
    pass


def test_tracer_reports_absent_names_and_restores_present_ones():
    original_method = _Host.__dict__["method"]
    original_static = _Host.__dict__["static"]
    module = __name__
    targets = (
        ("host.method", module, "_Host.method", None),
        ("host.static", module, "_Host.static", None),
        ("child.method", module, "_Child.method", None),
        ("gone", module, "_Host.renamed_away", None),
        ("gone", module, "_Missing.method", None),
        ("gone", "no_such_module_here", "f", None),
    )
    with Tracer(targets) as tracer:
        assert _Host().method() == "method"
        assert _Host.static() == "static"
        assert _Child().method() == "method"
    assert sorted(s[2] for s in tracer.spans) == [
        "child.method", "host.method", "host.method", "host.static"]
    assert len(tracer.absent) == 3
    assert _Host.__dict__["method"] is original_method
    assert _Host.__dict__["static"] is original_static
    assert "method" not in vars(_Child)


def test_summarize_on_a_traced_integration():
    from vortexlab import IntegratorSettings, UnitDisc, VortexSystem
    from vortexlab import dynamics

    system = VortexSystem((1.0, 1.0, 1.0), (3,), UnitDisc())
    z0 = np.array([0.3, 0.0, -0.15, 0.26, -0.15, -0.26])
    targets = tuple(t for t in spans.TARGETS if t[1] != "vortexlab.cli")
    targets += (("dynamics.integrate", "vortexlab.dynamics", "integrate",
                 spans._trajectory_steps),)
    with Tracer(targets) as tracer:
        traj = dynamics.integrate(system, z0, (0.0, 0.05),
                                  IntegratorSettings(rtol=1e-9, atol=1e-9))
    assert not hasattr(VortexSystem.vector_field, "__wrapped__")
    m = spans.summarize(tracer.spans, 1, 3, {})
    steps = len(traj.times) - 1
    assert m["dynamics.integrate.calls"] == 1
    assert m["dynamics.steps"] == steps
    assert m["dynamics.guard_samples"] == 8 * steps
    assert m["systems.rhs.calls"] >= 6 * steps
    assert 6.0 <= m["dynamics.rhs_per_step"] < 7.0
    assert m["systems.jac.calls"] == 0 and m["systems.rhs_jac_us"] == 0.0
    assert 0.0 < m["dynamics.integrate.self_s"] < m["dynamics.integrate.s"]
    assert set(m) == {name for name, _ in spans.PER_LAYER}
