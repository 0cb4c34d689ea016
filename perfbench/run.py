"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measurement happens in a fresh child
process (:mod:`perfbench.child`), so one workload's peak RSS cannot mask
another's and the timed run never carries tracing wrappers:

* ``--trace 0`` runs the workload once, timed, then sets it up three times
  on its own; it prints the end-to-end metrics, with ``setup_s`` the median
  of those set-ups;
* ``--trace 1`` runs it once timed and once traced, both on half the work
  (same seed and size, so the same simulation), and prints the per-layer
  metrics, including ``bench.trace_overhead``; the kept spans go to
  ``.perfbench/trace-<workload>-seed<N>.jsonl``.

Human-readable lines come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402

WORKLOADS = ("oneshot_scale", "warm_fastpath", "remiss_churn", "sharded_ingress")

#: set-up-only children per ``--trace 0`` run (``setup_s`` is their median)
SETUP_SAMPLES = 3

#: share of ``--seconds`` worth of work in each of the two traced-mode
#: runs, so a traced-mode run takes about as long as a timed one
TRACE_WORK = 0.5

#: the whole run must end within this many seconds
DEADLINE_S = 170.0


class ChildError(RuntimeError):
    """A measurement process failed or ran out of time."""


def run_child(args: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``python -m perfbench.child ARGS`` and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    process = subprocess.Popen(
        [sys.executable, "-m", "perfbench.child", *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildError(f"child {args[:2]} ran past the deadline") from None
    if process.returncode != 0:
        raise ChildError(f"child {args[:2]} exited {process.returncode}:\n{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def _git(*args: str) -> str:
    result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                            timeout=20, check=True)
    return result.stdout.strip()


def provenance() -> Dict[str, Any]:
    """Commit, dirty flag and core count, for the digest line."""
    commit, dirty = "none", "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = _git("rev-parse", "--short=12", "HEAD")
            dirty = "true" if _git("status", "--porcelain") else "false"
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "dirty": dirty, "nproc": len(os.sched_getaffinity(0))}


def end_to_end(timed: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "us_per_frame": timed["us_per_frame"],
        "cpu_us_per_frame": timed["cpu_us_per_frame"],
        "peak_rss_mb": timed["peak_rss_mb"],
        "ok_share": 1.0 - timed["failed"] / timed["attempted"],
        "sim_p50_ms": timed["sim_p50_ms"],
        "sim_p99_ms": timed["sim_p99_ms"],
    }


def output_checks(results: List[Dict[str, Any]]) -> List[str]:
    """Every reason the run's outputs are wrong (empty when correct)."""
    problems: List[str] = []
    for result in results:
        tag = f"{result['workload']} seed {result['seed']}"
        problems += [f"{tag}: {problem}" for problem in result["problems"]]
        if result["attempted"] < 1 or result["frames"] < 1:
            problems.append(f"{tag}: no requests or no forwarded frames")
        if result["failed"]:
            problems.append(f"{tag}: {result['failed']} of {result['attempted']} "
                            f"requests failed ({result['mismatched']} saw a reply "
                            f"from an address other than the service's)")
    digests = {result["digest"] for result in results}
    if len(digests) > 1:
        problems.append(f"the same seed simulated differently: digests {sorted(digests)}")
    return problems


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {os.path.join(ROOT, 'src', 'repro')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    seconds = args.seconds * (TRACE_WORK if args.trace else 1.0)
    child_args = [args.workload, str(args.seed), repr(seconds)]
    try:
        timed = run_child(["timed", *child_args], deadline)
        if args.trace:
            os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
            spans = os.path.join(ROOT, ".perfbench",
                                 f"trace-{args.workload}-seed{args.seed}.jsonl")
            traced = run_child(["traced", *child_args, spans], deadline)
            results = [timed, traced]
            metrics = dict(traced["per_layer"])
            metrics["bench.trace_overhead"] = traced["run_s"] / timed["run_s"] - 1.0
            expected = PER_LAYER
        else:
            setups = [run_child(["setup", *child_args], deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES)]
            results = [timed]
            metrics = end_to_end(timed, setups)
            expected = END_TO_END
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    problems = output_checks(results)
    missing = [name for name, _, _ in expected if name not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    if not all(math.isfinite(value) for value in metrics.values()):
        problems.append("a metric is not a finite number")

    info = provenance()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} digest={timed['digest']} commit={info['commit']} "
          f"dirty={info['dirty']} nproc={info['nproc']}")
    print(f"  attempted={timed['attempted']} failed={timed['failed']} "
          f"failed_share={timed['failed'] / timed['attempted']:.6f} "
          f"frames={timed['frames']} run_s={timed['run_s']:.3f} "
          f"raw_us_per_frame={timed['raw_us_per_frame']:.3f}")
    for name, _, _ in expected:
        print(f"  {name:<52} {metrics[name]:>14.6g} {UNITS[name]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]}
                    for name, _, _ in expected}}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
