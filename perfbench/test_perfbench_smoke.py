"""Smoke test of the benchmark harness: toy scale on case9, one pass, one cold
start, traced.  Collected by the tier-1 command; writes only under tmp_path."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import stats
from perfbench.tracing import waterfall
from perfbench.workloads import Answer, check_answers
from repro.parallel import Scenario, ScenarioOutcome, ScenarioSet, SweepResult

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module", params=["warm118_b16", "async14_mix"])
def toy_run(request, tmp_path_factory):
    """(result line, run record) of one traced toy invocation."""
    tmp = tmp_path_factory.mktemp("perfbench")
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", request.param, "--toy",
            "--trace", "1", "--probes", "1", "--seed", "3", "--scratch", str(tmp),
            "--out", str(tmp / "run.jsonl"),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return (
        json.loads(proc.stdout.strip().splitlines()[-1]),
        json.loads((tmp / "run.jsonl").read_text().splitlines()[-1]),
    )


def test_contract_is_within_the_schema_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8 and 1 <= CONTRACT["run_seconds"] <= 60
    names = [m["name"] for family in ("workloads", "end_to_end", "per_layer") for m in CONTRACT[family]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"] for w in CONTRACT["workloads"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 <= metric["bound"] <= 0.25
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(
        UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    )
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_result_line_and_metric_names_match_the_contract(toy_run):
    result, record = toy_run
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and isinstance(result["failed"], int)
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    # --trace 1 prints every per-layer metric; the record also carries the
    # end-to-end family, so both directions of the name check run once.
    for family, values in (("per_layer", result["metrics"]), ("end_to_end", record["end_to_end"])):
        assert set(values) == {m["name"] for m in CONTRACT[family]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and isinstance(metric["value"], (int, float)), name
    assert all(v > 0 for v in record["end_to_end"].values())
    assert {"nproc", "cpu_model", "blas", "blas_threads", "numpy", "scipy", "python", "git_commit",
            "seed", "calib_ms"} <= set(record["machine"])


def test_span_children_fit_inside_their_parents(toy_run):
    _, record = toy_run
    spans = record["spans"]
    assert any(s["name"] == "request" for s in spans)
    eps = 1e-6
    used = {}
    for span in spans:
        assert span["end"] >= span["start"]
        for parent_id in span["parents"]:
            parent = spans[parent_id]
            assert parent["start"] - eps <= span["start"] and span["end"] <= parent["end"] + eps, span
            used[parent_id] = used.get(parent_id, 0.0) + span["end"] - span["start"]
        # The spans of one request share its identifier; a coalesced flush
        # carries its own and is tied to its riders through ``parents``.
        if span["parents"] and span["name"] != "engine.serve":
            assert span["request"] == spans[span["parents"][0]]["request"]
    for parent_id, seconds in used.items():
        assert seconds <= spans[parent_id]["end"] - spans[parent_id]["start"] + eps
    # Self times are a partition: they sum to the wall of the request spans.
    wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "request")
    assert sum(waterfall(spans).values()) == pytest.approx(wall, rel=1e-6)
    assert sum(record["waterfall"].values()) == pytest.approx(wall, rel=1e-6)


def _answer(ids_sent, ids_back):
    request = ScenarioSet("case9", [Scenario(i, [1.0], [0.0]) for i in ids_sent], n_bus=1)
    sweep = SweepResult("case9", 1)
    sweep.outcomes.extend(ScenarioOutcome(i, True, 5, 1.0, 0.01) for i in ids_back)
    return Answer(request, 0.01, sweep)


def test_dropped_duplicated_and_refused_scenarios_are_failed_ops():
    assert check_answers([_answer([0, 1, 2], [0, 1, 2])])[:2] == (3, 0)
    assert check_answers([_answer([0, 1, 2], [0, 2])])[:2] == (3, 1)  # id 1 never came back
    assert check_answers([_answer([0, 1, 2], [0, 1, 1, 2])])[:2] == (3, 1)  # id 1 came back twice
    assert check_answers([_answer([0, 1], [0, 1, 7])])[:2] == (2, 1)  # an id nobody sent
    refused = _answer([0, 1], [])
    refused.sweep = None
    assert check_answers([refused])[:2] == (2, 2)


def test_verdict_follows_the_stated_bound_and_flags_noisy_sides():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(steady, [v * 1.02 for v in steady], "lower", 0.10) == "ok"
    assert stats.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10) == "worse"
    assert stats.verdict(steady, [v * 1.20 for v in steady], "higher", 0.10) == "better"
    noisy = [80.0, 100.0, 120.0, 90.0, 125.0]
    assert stats.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    assert stats.spread(steady) == pytest.approx(1.5 / 100.0)  # statistics.quantiles: 99.25 / 100 / 100.75
