"""Span tracing around the program's layers, from the benchmark's side.

:data:`LAYER_MAP` is the one table that names, for every wrapped function,
the layer its time belongs to. :meth:`Tracer.install` replaces each of them
(on its class or module, and on every module that imported it by name) with
a wrapper that records a span: function, layer, start, end, parent span and
the client address of the frame it handles. Self time is a span's duration
minus its children's; a layer's self time is the sum over its spans. The
wrappers also count calls and keep each function's inclusive time, and a
few count hits (calls that returned something other than ``None``).

Aggregates cover every call; raw spans are kept in memory up to a cap and
written out when the run ends. Time is accounted in *windows* (``setup``,
``run``): a window's wall time splits exactly into the self time of each
layer plus the time outside any span (``unattributed``).

Spans are recorded only in the traced run. The timed run installs nothing
here, so its numbers carry no tracing cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer): every function the benchmark wraps
LAYER_MAP: Tuple[Tuple[str, str, str], ...] = (
    ("repro.simcore.loop", "Simulator.run", "simcore.loop"),
    ("repro.simcore.loop", "Simulator.schedule", "simcore.loop"),
    ("repro.simcore.process", "Process._step_send", "simcore.process"),
    ("repro.simcore.process", "Process._step_throw", "simcore.process"),
    ("repro.netsim.link", "Link.transmit", "netsim.link"),
    ("repro.netsim.link", "Link._deliver", "netsim.link"),
    ("repro.netsim.packet", "EthernetFrame.wire_bytes", "netsim.packet"),
    ("repro.netsim.packet", "EthernetFrame.__init__", "netsim.packet"),
    ("repro.netsim.packet", "IPv4Packet.__init__", "netsim.packet"),
    ("repro.netsim.packet", "TCPSegment.__init__", "netsim.packet"),
    ("repro.netsim.packet", "EthernetFrame.rewrite_headers", "netsim.packet"),
    ("repro.netsim.host", "Host.on_frame", "netsim.host"),
    ("repro.netsim.host", "Host.send_ip", "netsim.host"),
    ("repro.netsim.host", "Host.connect", "netsim.host"),
    ("repro.workloads.scale", "ClientBank.on_frame", "workloads.scale"),
    ("repro.workloads.scale", "ClientBank._launch_next", "workloads.scale"),
    ("repro.openflow.switch", "OpenFlowSwitch.on_frame", "openflow.switch"),
    ("repro.openflow.switch", "OpenFlowSwitch.on_controller_message", "openflow.switch"),
    ("repro.openflow.switch", "OpenFlowSwitch._send_packet_in", "openflow.switch"),
    ("repro.openflow.match", "extract_fields", "openflow.match"),
    ("repro.openflow.match", "Match.__init__", "openflow.match"),
    ("repro.openflow.match", "Match.matches", "openflow.match"),
    ("repro.openflow.flowtable", "FlowTable.lookup", "openflow.flowtable"),
    ("repro.openflow.flowtable", "FlowTable.install", "openflow.flowtable"),
    ("repro.openflow.flowtable", "FlowTable._remove_entry", "openflow.flowtable"),
    ("repro.openflow.flowtable", "FlowTable._idle_check", "openflow.flowtable"),
    ("repro.openflow.actions", "apply_actions_multi", "openflow.actions"),
    ("repro.openflow.channel", "ControlChannel.to_controller", "openflow.channel"),
    ("repro.openflow.channel", "ControlChannel.to_switch", "openflow.channel"),
    ("repro.openflow.channel", "ControlChannel._deliver_up", "openflow.channel"),
    ("repro.openflow.channel", "ControlChannel._deliver_down", "openflow.channel"),
    ("repro.ryuapp.manager", "AppManager.on_switch_message", "ryuapp.manager"),
    ("repro.ryuapp.manager", "AppManager._pump", "ryuapp.manager"),
    ("repro.core.controller", "TransparentEdgeController.on_packet_in", "core.controller"),
    ("repro.core.controller", "TransparentEdgeController._install_and_release",
     "core.controller"),
    ("repro.core.controller", "TransparentEdgeController.on_flow_removed", "core.controller"),
    ("repro.core.dispatcher", "Dispatcher.dispatch", "core.dispatcher"),
    ("repro.core.flowmemory", "FlowMemory.lookup", "core.flowmemory"),
    ("repro.core.flowmemory", "FlowMemory.remember", "core.flowmemory"),
    ("repro.core.registry", "ServiceRegistry.register_service", "core.registry"),
    ("repro.core.registry", "ServiceRegistry.deregister", "core.registry"),
    ("repro.core.registry", "ServiceRegistry.lookup_prefix", "core.registry"),
    ("repro.core.registry", "ServiceRegistry.generation_of", "core.registry"),
    ("repro.core.trie", "PrefixTrie.insert", "core.trie"),
    ("repro.core.trie", "PrefixTrie.remove", "core.trie"),
    ("repro.core.trie", "PrefixTrie.lookup", "core.trie"),
    ("repro.core.trie", "PrefixTrie.covering_fingerprint", "core.trie"),
    ("repro.core.deployment", "DeploymentEngine.ensure_available", "core.deployment"),
    ("repro.simcore.domains.lockstep", "ProcessExecutor.build", "simcore.domains"),
    ("repro.simcore.domains.lockstep", "ProcessExecutor.advance", "simcore.domains"),
    ("repro.simcore.domains.lockstep", "DomainRuntime.advance", "simcore.domains"),
    ("repro.simcore.domains.lockstep", "encode_envelopes", "simcore.domains"),
    ("repro.simcore.domains.lockstep", "decode_envelopes", "simcore.domains"),
    ("repro.simcore.domains.gateway", "DomainGateway.on_frame", "simcore.domains"),
    ("repro.simcore.domains.gateway", "DomainGateway.inject", "simcore.domains"),
)

#: the benchmark's own callbacks scheduled into the simulation
HARNESS = "bench.harness"

#: functions whose non-``None`` results are counted as hits
COUNT_HITS = frozenset({"FlowMemory.lookup"})

#: raw spans kept per process (aggregates cover every call regardless)
SPAN_CAP = 50_000

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    [layer for _, _, layer in LAYER_MAP] + [HARNESS]))
FUNCTIONS: Tuple[str, ...] = tuple(path for _, path, _ in LAYER_MAP) + (HARNESS,)


def client_of(frame: Any) -> int:
    """The client end of a TCP frame (the side with the ephemeral port), as
    an integer address; 0 for frames that are not TCP over IPv4."""
    packet = frame.payload
    segment = getattr(packet, "payload", None)
    src_port = getattr(segment, "src_port", None)
    if src_port is None:
        return 0
    return (packet.src if src_port > segment.dst_port else packet.dst).value


class Tracer:
    """Wraps the functions of :data:`LAYER_MAP` and accounts their time."""

    def __init__(self) -> None:
        self._frame_type: Optional[type] = None
        #: open spans: [child time, span id, client]
        self.stack: List[List[Any]] = []
        self.next_id = 1
        self._reset()
        #: finished windows: phase -> aggregate (see :meth:`export`)
        self.windows: Dict[str, Dict[str, Any]] = {}
        self._phase: Optional[str] = None
        self._window_start = 0.0

    def _reset(self) -> None:
        n_fn = len(FUNCTIONS)
        self.self_s = [0.0] * n_fn
        self.incl_s = [0.0] * n_fn
        self.calls = [0] * n_fn
        self.hits = [0] * n_fn
        #: top-level span time (everything else in a window is unattributed)
        self.top = 0.0
        self.spans: List[Tuple[int, float, float, int, int, int]] = []

    # ------------------------------------------------------------ windows

    def begin(self, phase: str) -> None:
        """Close the open window (if any) and start accounting ``phase``."""
        self.end()
        self._reset()
        self._phase = phase
        self._window_start = perf_counter()

    def end(self) -> None:
        """Close the open window; a no-op when none is open."""
        if self._phase is None:
            return
        wall = perf_counter() - self._window_start
        self.windows[self._phase] = {
            "wall_s": wall, "top_s": self.top,
            "self_s": list(self.self_s), "incl_s": list(self.incl_s),
            "calls": list(self.calls), "hits": list(self.hits),
            "spans": self.spans}
        self._phase = None

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn: Callable, index: int) -> Callable:
        tracer = self
        count_hits = FUNCTIONS[index] in COUNT_HITS
        frame_type = self._frame_type
        # a constructor's first argument is the object not yet built
        first = 1 if FUNCTIONS[index].endswith(".__init__") else 0

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer.stack
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            client = 0
            if stack:
                parent = stack[-1]
                parent_id, client = parent[1], parent[2]
            else:
                parent_id = 0
            for arg in args[first:]:
                if type(arg) is frame_type:
                    client = client_of(arg)
                    break
            entry = [0.0, span_id, client]
            stack.append(entry)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                # The aggregates may have been swapped by a window change
                # while this span was open; always account into the live ones.
                tracer.self_s[index] += duration - entry[0]
                tracer.incl_s[index] += duration
                tracer.calls[index] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.top += duration
                spans = tracer.spans
                if len(spans) < SPAN_CAP:
                    spans.append((index, start, end, span_id, parent_id, client))
            if count_hits and result is not None:
                tracer.hits[index] += 1
            return result

        return traced

    def harness(self, fn: Callable) -> Callable:
        """Wrap one of the benchmark's own callbacks as a harness span."""
        return self._wrap(fn, FUNCTIONS.index(HARNESS))

    def install(self) -> None:
        """Wrap every function of :data:`LAYER_MAP` (once per process)."""
        from repro.netsim.packet import EthernetFrame

        self._frame_type = EthernetFrame
        for index, (module_name, path, _) in enumerate(LAYER_MAP):
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr] if owner_name else getattr(module, attr)
            if isinstance(original, property):
                getter = self._wrap(original.fget, index)
                replacement: Any = property(getter, original.fset, original.fdel,
                                            original.__doc__)
            else:
                replacement = self._wrap(original, index)
            setattr(owner, attr, replacement)
            if not owner_name:
                _rebind_everywhere(original, replacement)

    # ------------------------------------------------------------ results

    def export(self) -> Dict[str, Any]:
        """Finished windows as plain data (picklable across processes)."""
        self.end()
        return dict(self.windows)


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module that imported ``original`` by
    name at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# ---------------------------------------------------------------------------
# Domain worker processes
# ---------------------------------------------------------------------------


def install_worker_hooks(tracer: Tracer) -> None:
    """Trace domain workers too: each forked worker starts a ``setup``
    window, switches to ``run`` at its first epoch, and ships its windows
    back with its first finalized domain outcome."""
    from repro.simcore.domains import lockstep

    worker_main = lockstep._domain_worker_main
    advance = lockstep.DomainRuntime.advance
    finalize = lockstep.DomainRuntime.finalize
    state = {"in_worker": False, "running": False, "shipped": False}

    def traced_worker_main(*args: Any) -> None:
        # Forked inside the parent's open spans: start from a clean slate.
        tracer.stack.clear()
        tracer.windows = {}
        state.update(in_worker=True, running=False, shipped=False)
        tracer.begin("setup")
        worker_main(*args)

    def first_advance(self: Any, *args: Any) -> Any:
        if state["in_worker"] and not state["running"]:
            state["running"] = True
            tracer.begin("run")
        return advance(self, *args)

    def shipping_finalize(self: Any) -> Any:
        if state["in_worker"]:
            tracer.end()
        outcome = finalize(self)
        if state["in_worker"] and not state["shipped"]:
            state["shipped"] = True
            outcome.result["perfbench_trace"] = tracer.export()
        return outcome

    lockstep._domain_worker_main = traced_worker_main
    lockstep.DomainRuntime.advance = functools.wraps(advance)(first_advance)
    lockstep.DomainRuntime.finalize = functools.wraps(finalize)(shipping_finalize)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def merge_windows(per_process: List[Dict[str, Any]], phase: str) -> Dict[str, Any]:
    """Sum one phase's window over processes (parent first, then workers)."""
    n_fn = len(FUNCTIONS)
    total: Dict[str, Any] = {"wall_s": 0.0, "top_s": 0.0, "self_s": [0.0] * n_fn,
                             "incl_s": [0.0] * n_fn, "calls": [0] * n_fn,
                             "hits": [0] * n_fn, "processes": 0}
    for windows in per_process:
        window = windows.get(phase)
        if window is None:
            continue
        total["processes"] += 1
        total["wall_s"] += window["wall_s"]
        total["top_s"] += window["top_s"]
        for key in ("self_s", "incl_s", "calls", "hits"):
            total[key] = [a + b for a, b in zip(total[key], window[key])]
    return total


def layer_self_s(window: Dict[str, Any]) -> Dict[str, float]:
    """Self time per layer of a merged window."""
    out = {layer: 0.0 for layer in LAYERS}
    for index, seconds in enumerate(window["self_s"]):
        out[_layer_of(index)] += seconds
    return out


def _layer_of(index: int) -> str:
    return HARNESS if index == len(LAYER_MAP) else LAYER_MAP[index][2]


def calls_of(window: Dict[str, Any], *paths: str) -> int:
    return sum(window["calls"][FUNCTIONS.index(path)] for path in paths)


def hits_of(window: Dict[str, Any], path: str) -> int:
    return window["hits"][FUNCTIONS.index(path)]


def mean_us(window: Dict[str, Any], *paths: str) -> float:
    """Mean inclusive time per call, in µs, over ``paths`` (0 if never called)."""
    calls = calls_of(window, *paths)
    if not calls:
        return 0.0
    seconds = sum(window["incl_s"][FUNCTIONS.index(path)] for path in paths)
    return seconds / calls * 1e6


def write_spans(path: str, per_process: List[Dict[str, Any]]) -> int:
    """Write every kept span as one JSON line; returns the count written."""
    written = 0
    with open(path, "w", encoding="utf-8") as handle:
        for process, windows in enumerate(per_process):
            for phase, window in windows.items():
                for index, start, end, span_id, parent_id, client in window["spans"]:
                    handle.write(json.dumps({
                        "process": process, "phase": phase,
                        "name": FUNCTIONS[index], "layer": _layer_of(index),
                        "start": start, "end": end, "id": span_id,
                        "parent": parent_id, "client": client}) + "\n")
                    written += 1
    return written
