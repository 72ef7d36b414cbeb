"""The benchmark's span tracer finds every name it wraps but the three
retired real tables of the regular part and the two tracer aliases that
no call reached."""

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
    # the real all-pairs tables are gone from the package (the scalar
    # forms read the complex coefficients, which the tracer does not
    # wrap), and so are periodic's variational flow and the rescaled
    # Jacobian's alias, which nothing called; every other target must
    # still be found
    assert tracer.absent == [
        "vortexlab.periodic.flow_with_jacobian: AttributeError",
        "vortexlab.systems.RescaledSystem.rescaled_field_jacobian: "
        "AttributeError"] + [
        f"vortexlab.domains.UnitDisc.{name}: AttributeError"
        for name in ("regular_part_many", "grad_regular_many",
                     "hess_regular_many")]
    # names inherited from FlowSystem are wrapped on the subclass and
    # removed from it again on exit
    assert "vector_field" not in vars(VortexSystem)
    assert VortexSystem.hamiltonian is FlowSystem.hamiltonian
    assert "rescaled_field" in vars(RescaledSystem)
