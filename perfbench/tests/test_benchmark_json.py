import json
from pathlib import Path

from perfbench import run, workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match_their_definitions():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


def test_declared_metrics_are_the_ones_the_result_line_carries():
    reported = [(n, u) for n, u in run.END_TO_END if n != "fail_ratio"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == reported
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
