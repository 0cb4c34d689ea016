"""Metric names, units and the per-layer formulas.

Each per-layer metric's comment names the end-to-end metric it should move
and the workload where it should move ("flat" = no change predicted).
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Tuple

from perfbench.tracer import (
    HARNESS,
    LAYERS,
    calls_of,
    hits_of,
    layer_self_s,
    mean_us,
    merge_windows,
)

#: (name, unit, better) of every end-to-end metric (``--trace 0``)
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("us_per_frame", "us", "lower"),
    ("cpu_us_per_frame", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_share", "ratio", "higher"),
    ("sim_p50_ms", "ms", "lower"),
    ("sim_p99_ms", "ms", "lower"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # -> us_per_frame; most on warm_fastpath and oneshot_scale
    ("simcore.loop.events_per_frame", "count/frame", "lower"),
    ("simcore.loop.self_share", "ratio", "lower"),
    # generator bodies (clients, dispatch, deployment) run in process steps
    ("simcore.process.self_share", "ratio", "lower"),
    # -> us_per_frame on all workloads
    ("netsim.link.transmits_per_frame", "count/frame", "lower"),
    ("netsim.link.self_share", "ratio", "lower"),
    ("netsim.packet.wire_bytes_per_frame", "count/frame", "lower"),
    ("netsim.packet.self_share", "ratio", "lower"),
    # -> us_per_frame on warm_fastpath and remiss_churn; flat on oneshot_scale
    ("netsim.host.frames_per_request", "count/request", "lower"),
    ("netsim.host.self_share", "ratio", "lower"),
    # -> us_per_frame on warm_fastpath
    ("openflow.switch.self_share", "ratio", "lower"),
    ("openflow.switch.microflow_hit_rate", "ratio", "higher"),
    ("openflow.actions.self_share", "ratio", "lower"),
    # shape guard: ~0.1 on oneshot_scale and remiss_churn, ~0 on warm_fastpath
    ("openflow.switch.packet_in_share", "ratio", "lower"),
    # -> us_per_frame on oneshot_scale and remiss_churn
    ("openflow.flowtable.self_share", "ratio", "lower"),
    ("openflow.flowtable.lookups_per_frame", "count/frame", "lower"),
    ("openflow.flowtable.lookup_us", "us", "lower"),
    # -> us_per_frame on oneshot_scale; flat on warm_fastpath
    ("openflow.flowtable.installs_per_packet_in", "count/packet_in", "lower"),
    ("openflow.flowtable.removals_per_packet_in", "count/packet_in", "lower"),
    ("openflow.flowtable.install_us", "us", "lower"),
    ("openflow.match.self_share", "ratio", "lower"),
    ("openflow.match.built_per_packet_in", "count/packet_in", "lower"),
    ("openflow.channel.self_share", "ratio", "lower"),
    ("openflow.channel.msgs_per_packet_in", "count/packet_in", "lower"),
    ("ryuapp.manager.self_share", "ratio", "lower"),
    ("core.controller.self_share", "ratio", "lower"),
    ("core.controller.packet_in_us", "us", "lower"),
    ("core.dispatcher.self_share", "ratio", "lower"),
    ("core.dispatcher.dispatch_us", "us", "lower"),
    # -> us_per_frame on remiss_churn
    ("core.controller.plan_hit_rate", "ratio", "higher"),
    ("core.controller.memo_revalidations_per_packet_in", "count/packet_in", "lower"),
    ("core.controller.memo_invalidations", "count", "lower"),
    ("core.controller.memo_flushes", "count", "lower"),
    ("core.flowmemory.self_share", "ratio", "lower"),
    ("core.flowmemory.hit_rate", "ratio", "higher"),
    # -> us_per_frame and setup_s on remiss_churn; flat elsewhere
    ("core.registry.self_share", "ratio", "lower"),
    ("core.registry.writes", "count", "lower"),
    ("core.registry.write_us", "us", "lower"),
    ("core.registry.lookup_us", "us", "lower"),
    ("core.trie.self_share", "ratio", "lower"),
    # -> setup_s on all workloads
    ("core.deployment.self_share", "ratio", "lower"),
    ("core.deployment.setup_share", "ratio", "lower"),
    # -> us_per_frame on oneshot_scale and sharded_ingress
    ("workloads.scale.self_share", "ratio", "lower"),
    # -> us_per_frame and cpu_us_per_frame on sharded_ingress
    ("simcore.domains.self_share", "ratio", "lower"),
    ("simcore.domains.epochs", "count", "lower"),
    ("simcore.domains.envelopes_per_epoch", "count/epoch", "lower"),
    ("simcore.domains.advance_us", "us", "lower"),
    # -> setup_s on sharded_ingress
    ("simcore.domains.build_s", "s", "lower"),
    # the benchmark's own callbacks, time outside any span, tracing cost
    ("bench.harness_self_share", "ratio", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def latency_quantiles(latencies: List[float]) -> Tuple[float, float]:
    """Median and 99th percentile (ms) of simulated response times; NaN
    (which fails the output checks) with fewer than two samples."""
    if len(latencies) < 2:
        return math.nan, math.nan
    cuts = statistics.quantiles(latencies, n=100)
    return cuts[49] * 1000.0, cuts[98] * 1000.0


def per_layer(per_process: List[Dict[str, Any]], counters: Dict[str, float],
              frames: int, requests: int) -> Dict[str, float]:
    """Per-layer metrics (all but ``bench.trace_overhead``) of a traced run.

    ``per_process`` holds each process's finished tracer windows, parent
    first; shares divide by the summed wall time of the processes' windows.
    """
    run = merge_windows(per_process, "run")
    setup = merge_windows(per_process, "setup")
    wall = run["wall_s"]
    selfs = layer_self_s(run)
    packet_ins = counters.get("switch_packet_ins", 0)
    out: Dict[str, float] = {}
    for layer in LAYERS:
        if layer != HARNESS:
            out[f"{layer}.self_share"] = _ratio(selfs[layer], wall)
    out["bench.harness_self_share"] = _ratio(selfs[HARNESS], wall)
    out["bench.unattributed_share"] = _ratio(wall - run["top_s"], wall)
    mf_hits = counters.get("microflow_hits", 0)
    mf_all = mf_hits + counters.get("microflow_misses", 0)
    plan_hits = counters.get("slow_path_plan_hits", 0)
    plan_all = plan_hits + counters.get("slow_path_plan_misses", 0)
    epochs = calls_of(run, "ProcessExecutor.advance")
    out.update({
        "simcore.loop.events_per_frame": _ratio(counters.get("events", 0), frames),
        "netsim.link.transmits_per_frame": _ratio(calls_of(run, "Link.transmit"), frames),
        "netsim.packet.wire_bytes_per_frame": _ratio(
            calls_of(run, "EthernetFrame.wire_bytes"), frames),
        "netsim.host.frames_per_request": _ratio(calls_of(run, "Host.on_frame"), requests),
        "openflow.switch.microflow_hit_rate": _ratio(mf_hits, mf_all),
        "openflow.switch.packet_in_share": _ratio(
            packet_ins, calls_of(run, "OpenFlowSwitch.on_frame")),
        "openflow.flowtable.lookups_per_frame": _ratio(
            calls_of(run, "FlowTable.lookup"), frames),
        "openflow.flowtable.lookup_us": mean_us(run, "FlowTable.lookup"),
        "openflow.flowtable.installs_per_packet_in": _ratio(
            calls_of(run, "FlowTable.install"), packet_ins),
        "openflow.flowtable.removals_per_packet_in": _ratio(
            calls_of(run, "FlowTable._remove_entry"), packet_ins),
        "openflow.flowtable.install_us": mean_us(run, "FlowTable.install"),
        "openflow.match.built_per_packet_in": _ratio(
            calls_of(run, "Match.__init__"), packet_ins),
        "openflow.channel.msgs_per_packet_in": _ratio(
            calls_of(run, "ControlChannel.to_controller", "ControlChannel.to_switch"),
            packet_ins),
        "core.controller.packet_in_us": mean_us(
            run, "TransparentEdgeController.on_packet_in"),
        "core.dispatcher.dispatch_us": mean_us(run, "Dispatcher.dispatch"),
        "core.controller.plan_hit_rate": _ratio(plan_hits, plan_all),
        "core.controller.memo_revalidations_per_packet_in": _ratio(
            counters.get("memo_revalidations", 0), packet_ins),
        "core.controller.memo_invalidations": counters.get("memo_invalidations", 0),
        "core.controller.memo_flushes": counters.get("memo_flushes", 0),
        "core.flowmemory.hit_rate": _ratio(hits_of(run, "FlowMemory.lookup"),
                                           calls_of(run, "FlowMemory.lookup")),
        "core.registry.writes": calls_of(run, "ServiceRegistry.register_service",
                                         "ServiceRegistry.deregister"),
        "core.registry.write_us": mean_us(run, "ServiceRegistry.register_service",
                                          "ServiceRegistry.deregister"),
        "core.registry.lookup_us": mean_us(run, "ServiceRegistry.lookup_prefix"),
        "core.deployment.setup_share": _ratio(layer_self_s(setup)["core.deployment"],
                                              setup["wall_s"]),
        "simcore.domains.epochs": epochs,
        "simcore.domains.envelopes_per_epoch": _ratio(counters.get("envelopes", 0), epochs),
        "simcore.domains.advance_us": mean_us(run, "ProcessExecutor.advance"),
        "simcore.domains.build_s": mean_us(setup, "ProcessExecutor.build") / 1e6,
    })
    return out
