"""Tests of the benchmark itself: tracing, determinism, client-side checks.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
Each case runs the workload in a child process, so tracing wrappers and
planted faults never leak into the test process.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from typing import Any, Dict, List

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.tracer import LAYER_MAP  # noqa: E402

#: a run this short still completes dozens of requests on every workload
TINY_S = 0.3

#: drops the service-side reverse rewrite (ROADMAP item 2's planted break):
#: replies leave the edge with the instance's real address and port
TRANSPARENCY_BREAK = """
import repro.openflow.actions as actions
original = actions._apply_fields
def broken(frame, pending):
    return original(frame, {k: v for k, v in pending.items()
                            if k not in ("ipv4_src", "tcp_src")})
actions._apply_fields = broken
"""


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def measure(mode: str, workload: str, seed: int, seconds: float = TINY_S,
            spans: str = "", prelude: str = "") -> Dict[str, Any]:
    """``perfbench.child.measure`` in a fresh interpreter, after ``prelude``."""
    code = (f"{prelude}\nimport json\nfrom perfbench.child import measure\n"
            f"print(json.dumps(measure({mode!r}, {workload!r}, {seed}, {seconds}, "
            f"{spans!r} or None)))")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                            capture_output=True, text=True, timeout=300, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_layer_map_names_existing_functions() -> None:
    for module_name, path, layer in LAYER_MAP:
        owner: Any = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner) or isinstance(owner, property), (module_name, path)
        assert f"{layer}.self_share" in {name for name, _, _ in PER_LAYER}, layer


def test_benchmark_json_matches_metric_tables() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    from perfbench.run import WORKLOADS
    from perfbench.workloads import WORKLOADS as CLASSES

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(CLASSES)


def _check_nesting(spans: List[Dict[str, Any]]) -> int:
    """Children lie inside their parent and siblings do not overlap."""
    by_key = {(s["process"], s["id"]): s for s in spans}
    children = defaultdict(list)
    checked = 0
    for span in spans:
        assert span["start"] <= span["end"]
        parent = by_key.get((span["process"], span["parent"]))
        if parent is None:
            continue
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"], span
        children[(span["process"], span["parent"])].append(span)
        checked += 1
    for siblings in children.values():
        siblings.sort(key=lambda s: s["start"])
        for left, right in zip(siblings, siblings[1:]):
            assert left["end"] <= right["start"], (left, right)
    return checked


@pytest.mark.parametrize("workload", ["oneshot_scale", "sharded_ingress"])
def test_traced_spans_nest_and_shares_sum_to_one(workload: str, tmp_path: Any) -> None:
    spans_path = str(tmp_path / "spans.jsonl")
    result = measure("traced", workload, seed=3, spans=spans_path)
    with open(spans_path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert _check_nesting(spans) > 1000
    assert any(s["client"] for s in spans)
    metrics = result["per_layer"]
    assert set(metrics) == {name for name, _, _ in PER_LAYER} - {"bench.trace_overhead"}
    shares = [value for name, value in metrics.items()
              if name.endswith("self_share") or name == "bench.unattributed_share"]
    assert all(value >= 0 for value in shares)
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert result["processes"] == (3 if workload == "sharded_ingress" else 1)


def test_same_seed_same_digest_other_seed_other_schedule() -> None:
    from perfbench.workloads import WORKLOADS

    for cls in WORKLOADS.values():
        assert cls(5, TINY_S).schedule_summary() == cls(5, TINY_S).schedule_summary()
        assert cls(5, TINY_S).schedule_summary() != cls(6, TINY_S).schedule_summary()
    first = measure("timed", "warm_fastpath", seed=5)
    again = measure("timed", "warm_fastpath", seed=5)
    other = measure("timed", "warm_fastpath", seed=6)
    assert first["digest"] == again["digest"]
    assert first["sim_p99_ms"] == again["sim_p99_ms"]
    assert other["digest"] != first["digest"]


def test_traced_run_simulates_exactly_what_the_timed_run_does() -> None:
    timed = measure("timed", "remiss_churn", seed=2)
    traced = measure("traced", "remiss_churn", seed=2)
    assert traced["digest"] == timed["digest"]
    assert timed["problems"] == [] and timed["failed"] == 0
    assert traced["per_layer"]["core.registry.writes"] > 0


@pytest.mark.parametrize("workload", ["oneshot_scale", "warm_fastpath"])
def test_transparency_break_counts_as_failures(workload: str) -> None:
    clean = measure("timed", workload, seed=4)
    assert clean["failed"] == 0 and clean["problems"] == []
    broken = measure("timed", workload, seed=4, prelude=TRANSPARENCY_BREAK)
    assert broken["failed"] > 0
    if workload == "oneshot_scale":
        # ClientBank matches replies on destination only: the probe is what
        # notices the wrong source.
        assert broken["mismatched"] > 0


def test_run_exits_nonzero_without_program_source(tmp_path: Any) -> None:
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "correct" not in result.stdout


def test_cli_reports_every_end_to_end_metric() -> None:
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oneshot_scale",
         "--seed", "7", "--seconds", str(TINY_S), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert [name for name in last["metrics"]] == [name for name, _, _ in END_TO_END]
    assert all(m["value"] > 0 for m in last["metrics"].values())
