"""The benchmark's span tracer finds every name it wraps."""

import types
from pathlib import Path

from vortexlab import RescaledSystem, VortexSystem
from vortexlab.systems import FlowSystem

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    # compiled from the source text, so nothing is written beside it
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_name_is_present_and_restored():
    spans = _load_spans()
    with spans.Tracer() as tracer:
        assert VortexSystem.vector_field is not FlowSystem.vector_field
    assert tracer.absent == []
    # names inherited from FlowSystem are wrapped on the subclass and
    # removed from it again on exit
    assert "vector_field" not in vars(VortexSystem)
    assert VortexSystem.hamiltonian is FlowSystem.hamiltonian
    assert "rescaled_field" in vars(RescaledSystem)
