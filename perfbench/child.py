"""One measurement in a fresh process; prints one JSON object as its last line.

``python3 -m perfbench.child MODE WORKLOAD SEED SECONDS`` with ``MODE``:

* ``timed`` — set up, run and check with no tracing: wall and CPU time of
  the run, peak RSS (self + children, read before the untimed checks), the
  simulated outcome and its digest;
* ``setup`` — set up only, for a ``setup_s`` sample (at the nominal host
  speed, like the per-frame costs: scaled by speed probes around it);
* ``traced`` — the same run with every :data:`~perfbench.tracer.LAYER_MAP`
  function wrapped; reports per-layer metrics and writes the kept spans to
  ``SPANS_PATH`` if given.

Run by :mod:`perfbench.run`, from the root of the checkout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from typing import Any, Dict, List, Optional


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(mode: str, name: str, seed: int, seconds: float,
            spans_path: Optional[str] = None) -> Dict[str, Any]:
    # Importing the workloads loads the whole program, before anything is
    # timed: set-up time is the cost of building a scenario, not of imports.
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds)
    if mode == "setup":
        from perfbench.workloads import PROBE_NOMINAL_S, speed_probe

        before = speed_probe()
        started = time.perf_counter()
        workload.setup_only()
        raw_setup_s = time.perf_counter() - started
        speed = PROBE_NOMINAL_S / ((before + speed_probe()) / 2)
        return {"setup_s": raw_setup_s * speed, "raw_setup_s": raw_setup_s}

    tracer = None
    if mode == "traced":
        from perfbench.tracer import Tracer, install_worker_hooks

        tracer = Tracer()
        tracer.install()
        install_worker_hooks(tracer)
        workload.harness = tracer.harness
        workload.probe_speed = False
        tracer.begin("setup")
        if hasattr(workload, "on_built"):
            workload.on_built = lambda: tracer.begin("run")
            workload.on_epochs_done = tracer.end

    workload.setup()
    if tracer is not None and not hasattr(workload, "on_built"):
        tracer.begin("run")
    workload.run()
    if tracer is not None:
        tracer.end()
    run_s = workload.run_seconds()
    peak_rss_mb = _peak_rss_mb()
    problems = workload.quiesce()
    outcome = workload.outcome()
    from perfbench.metrics import latency_quantiles

    p50, p99 = latency_quantiles(list(outcome.latencies))
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "seconds": seconds,
        "digest": outcome.digest(), "problems": problems,
        "attempted": outcome.attempted, "ok": outcome.ok,
        "failed": outcome.failed, "mismatched": outcome.mismatched,
        "frames": outcome.frames, "run_s": run_s,
        **workload.frame_costs(outcome.frames), "peak_rss_mb": peak_rss_mb,
        "sim_p50_ms": p50, "sim_p99_ms": p99,
        "counters": outcome.counters,
    }
    if tracer is not None:
        from perfbench.metrics import per_layer
        from perfbench.tracer import write_spans

        per_process: List[Dict[str, Any]] = [tracer.export()]
        for domain in getattr(getattr(workload, "lockstep", None), "outcomes", []):
            shipped = domain.result.get("perfbench_trace")
            if shipped is not None:
                per_process.append(shipped)
        result["per_layer"] = per_layer(per_process, outcome.counters,
                                        outcome.frames, outcome.attempted)
        result["processes"] = len(per_process)
        if spans_path:
            result["spans_written"] = write_spans(spans_path, per_process)
    return result


def main(argv: List[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    spans_path = argv[4] if len(argv) > 4 else None
    print(json.dumps(measure(mode, name, seed, seconds, spans_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
