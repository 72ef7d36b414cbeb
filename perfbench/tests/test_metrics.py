import json
import re
from pathlib import Path

import run
import spans

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_metric_names_and_units_use_the_allowed_characters():
    metrics = list(run.END_TO_END) + list(spans.PER_LAYER)
    for name, unit in metrics:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    names = [name for name, _ in metrics]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(spans.PER_LAYER)
    workload_names = [w["name"] for w in BENCHMARK["workloads"]]
    assert all(NAME.fullmatch(n) for n in workload_names)
    assert workload_names == list(run.WORKLOADS)
