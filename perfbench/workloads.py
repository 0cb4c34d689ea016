"""The benchmark's four workloads.

Each workload turns ``(seed, seconds)`` into a fixed amount of simulated
work: the seed generates the inputs (testbed seed, start offsets, client
address slice, registry contents and churn script), and ``seconds`` sizes
the run through a per-workload rate calibrated so that the timed phase
takes roughly that long on a 2-core x86 box. The same ``(seed, seconds)``
therefore always simulates the same thing, whichever commit runs it, and
host time is the cost of simulating it.

A workload has three phases, driven by :mod:`perfbench.child`:

* ``setup()`` — build, warm-up and registry preload (``setup_only()`` is
  what a ``setup_s`` sample times);
* ``run()`` — the timed phase;
* ``quiesce()`` — untimed output checks; returns a list of problems.

``outcome()`` then reports what the timed phase did, in counts and
simulated latencies, and ``frame_costs()`` what it cost per frame.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
from array import array
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Optional

from repro.experiments.domains import (
    A7_N_DOMAINS,
    CROSS_LATENCY_S,
    WARMUP_S,
    build_ingress_domain,
)
from repro.experiments.topologies import build_testbed
from repro.metrics import perf
from repro.metrics.perf import PerfCounters
from repro.netsim.packet import IP_PROTO_TCP, HTTPRequest
from repro.simcore.domains import DomainPartition, LockstepCoordinator, ProcessExecutor
from repro.verify import verify_testbed
from repro.workloads.cloudprefix import (
    apply_churn_op,
    bulk_register,
    churn_schedule,
    synth_cloud_prefixes,
    synth_service_ids,
)
from repro.workloads.loadgen import ClosedLoopGenerator, OpenLoopGenerator
from repro.workloads.scale import ClientBank, attach_client_bank, run_client_bank

#: worker processes of the sharded workload (the box it was sized on has 2 cores)
SHARDED_WORKERS = 2

#: controller counters whose run-phase deltas feed the digest and metrics
CONTROLLER_STATS = ("packet_ins", "service_dispatches", "slow_path_plan_hits",
                    "slow_path_plan_misses")

#: additive perf counters (the derived hit rate is computed from them)
PERF_FIELDS = tuple(PerfCounters.__dataclass_fields__)


@dataclass
class Outcome:
    """What one timed phase did, in counts and simulated latencies."""

    attempted: int = 0
    ok: int = 0
    #: requests that did not complete successfully (errors, aborts, unfinished)
    unsuccessful: int = 0
    #: conversations that received a reply from an address or port other
    #: than the dialled service (a transparency break seen at the client)
    mismatched: int = 0
    #: switch-forwarded frames, summed over switches
    frames: int = 0
    #: simulated response times (s) of the successful requests
    latencies: array = field(default_factory=lambda: array("d"))
    #: run-phase deltas of program counters (controller stats, perf, events)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        """Failed requests: unsuccessful plus transparency mismatches."""
        return min(self.attempted, self.unsuccessful + self.mismatched)

    def digest(self) -> str:
        """Hash of the simulated outcome: identical for identical simulations."""
        h = hashlib.sha256()
        for key in ("attempted", "ok", "unsuccessful", "mismatched", "frames"):
            h.update(f"{key}={getattr(self, key)};".encode())
        for key in ("packet_ins", "service_dispatches", "events"):
            h.update(f"{key}={int(self.counters.get(key, 0))};".encode())
        h.update(self.latencies.tobytes())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Client-side probes on ClientBank
# ---------------------------------------------------------------------------


class BankProbe:
    """What one ClientBank's clients saw, recorded at the client side."""

    def __init__(self) -> None:
        #: serials of conversations that got a reply from the wrong source
        self.mismatched: set = set()
        self.latencies = array("d")


def probe_bank(bank: ClientBank) -> None:
    """Check transparency where the client sits, and keep exact latencies.

    Wraps this bank's ``on_frame``, which matches replies on destination
    only: any reply whose (IPv4 src, TCP src port) is not the dialled
    (``service_addr``, ``service_port``) marks its conversation as failed.
    Latencies are copied from the bank's success hook, because its
    streaming aggregate only keeps a histogram.
    """
    probe = bank.perfbench_probe = BankProbe()
    on_frame, record_success = bank.on_frame, bank._record_success

    def checked_on_frame(port_no: int, frame: Any) -> None:
        packet = frame.ipv4
        if packet is not None and packet.proto == IP_PROTO_TCP:
            conv = bank._active.get(packet.dst)
            if conv is not None and (packet.src != bank.service_addr
                                     or packet.payload.src_port != bank.service_port):
                probe.mismatched.add(conv.serial)
        on_frame(port_no, frame)

    def recorded_success(conv: Any, timing: Any) -> None:
        probe.latencies.append(timing.time_total)
        record_success(conv, timing)

    bank.on_frame = checked_on_frame
    bank._record_success = recorded_success


def bank_outcome(banks: List[ClientBank]) -> Outcome:
    out = Outcome()
    for bank in banks:
        probe = bank.perfbench_probe
        out.attempted += bank.launched
        out.ok += bank.result.ok_count
        out.mismatched += len(probe.mismatched)
        out.latencies.extend(probe.latencies)
    out.unsuccessful = out.attempted - out.ok
    return out


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _counter_snapshot(tb: Any, with_perf: bool = True) -> Dict[str, float]:
    snap: Dict[str, float] = {key: tb.controller.stats[key] for key in CONTROLLER_STATS}
    if with_perf:
        counters = perf.snapshot()
        snap.update({name: getattr(counters, name) for name in PERF_FIELDS})
    snap["events"] = tb.sim.events_executed
    snap["switch_packet_ins"] = tb.switch.packet_ins
    snap["frames"] = tb.switch.tx_frames
    return snap


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _warm_service(tb: Any) -> Any:
    svc = tb.register_catalog_service("nginx")
    warm = tb.engine.ensure_available(tb.clusters["docker-egs"], svc)
    tb.run(until=tb.sim.now + 60.0)
    if not (warm.done and warm.exception is None):
        raise RuntimeError("service warm-up did not finish")
    return svc


def _quiesce_checks(tb: Any, idle_s: float, warmup_failures: int = 0) -> List[str]:
    """Let flows idle out, then verify the data plane and the flow audit."""
    tb.run(until=tb.sim.now + idle_s)
    problems = []
    if warmup_failures:
        problems.append(f"{warmup_failures} warm-up request(s) failed")
    violations = verify_testbed(tb).violations
    if violations:
        problems.append(f"verify_testbed: {len(violations)} violation(s), "
                        f"first: {violations[0]}")
    stale = tb.controller.audit_stale_service_flows()
    if stale:
        problems.append(f"audit_stale_service_flows: {stale} stale flow(s)")
    return problems


#: the speed probe's time on the 2-core x86 box the workloads were sized on,
#: when that box runs at full speed; per-frame costs are reported at it
PROBE_NOMINAL_S = 0.002


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now (about 2 ms).

    Shared hosts change speed by up to 2x within a second and by ~25%
    from one run to the next, for all code alike. Timing this loop next to
    each measured chunk gives the host's speed at that moment, so a cost
    can be reported at the nominal speed instead of whatever speed the
    host happened to run at.
    """
    counts: Dict[int, int] = {}
    started = time.perf_counter()
    for i in range(20_000):
        counts[i & 255] = counts.get(i & 255, 0) + i
    return time.perf_counter() - started


class ChunkClock:
    """Times each ``testbed.run`` call of the timed phase.

    Installed on the testbed instance, so code that advances the
    simulation in chunks (``run_client_bank``, the workloads' own loops)
    gets wall time, CPU time and switch-forwarded frames per chunk, with a
    :func:`speed_probe` before the first chunk and after each one (outside
    the timed chunks; off in traced runs).
    """

    def __init__(self, tb: Any, probe: bool = True) -> None:
        self.tb = tb
        self._run = tb.run
        self.probe = probe
        #: (wall s, cpu s, frames) per chunk
        self.chunks: List[tuple] = []
        #: probe times: probes[i] and probes[i + 1] bracket chunk i
        self.probes: List[float] = [speed_probe()] if probe else []
        tb.run = self

    def __call__(self, until: Optional[float] = None) -> float:
        frames = self.tb.switch.tx_frames
        cpu = time.process_time()
        started = time.perf_counter()
        now = self._run(until)
        self.chunks.append((time.perf_counter() - started, time.process_time() - cpu,
                            self.tb.switch.tx_frames - frames))
        if self.probe:
            self.probes.append(speed_probe())
        return now

    def stop(self) -> None:
        del self.tb.run

    def run_until(self, end: float, chunk_s: float) -> None:
        while self.tb.sim.now < end:
            self(until=min(end, self.tb.sim.now + chunk_s))


class _LatencyRecorder:
    """Wraps a ``LoadResult.record`` to keep each successful latency."""

    def __init__(self, result: Any) -> None:
        self.latencies = array("d")
        self._record = result.record
        result.record = self

    def __call__(self, timing: Any) -> None:
        if timing is not None and timing.ok:
            self.latencies.append(timing.time_total)
        self._record(timing)


def _failed_fetches(processes: List[Any]) -> int:
    return sum(1 for p in processes if not (p.done and p.result.ok))


def _drain(tb: Any, result: Any, limit_s: float) -> None:
    """Run until every issued request finished (or ``limit_s`` passed)."""
    deadline = tb.sim.now + limit_s
    while result.completed_count < result.issued and tb.sim.now < deadline:
        tb.run(until=min(deadline, tb.sim.now + 0.05))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: a seeded, seconds-sized simulation with three phases."""

    name = ""
    #: simulated work per requested host second (see the subclasses)
    rate = 0.0

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.rng = Random(f"perfbench:{self.name}:{seed}")
        #: callable the tracer sets to wrap the benchmark's own callbacks
        self.harness: Callable[[Callable], Callable] = lambda fn: fn
        #: time speed probes around the measured chunks (off when tracing)
        self.probe_speed = True

    def schedule_summary(self) -> List[Any]:
        """The seed-generated inputs, for the determinism test."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def setup_only(self) -> None:
        """Set up without running (a set-up time sample)."""
        self.setup()

    def quiesce(self) -> List[str]:
        return []

    def outcome(self) -> Outcome:
        raise NotImplementedError

    def run_seconds(self) -> float:
        """Wall time of the simulation in the timed phase (probes excluded)."""
        return sum(wall for wall, _, _ in self.clock.chunks)

    def frame_costs(self, frames: int) -> Dict[str, float]:
        """Cost per switch-forwarded frame of the timed phase, in µs: the
        median over chunks of wall and CPU time, as measured (``raw_``) and
        at the nominal host speed (each chunk scaled by the probes around
        it)."""
        clock = self.clock
        raw, wall_us, cpu_us = [], [], []
        for (wall, cpu, n), before, after in zip(clock.chunks, clock.probes,
                                                clock.probes[1:]):
            if n:
                scale = PROBE_NOMINAL_S / ((before + after) / 2)
                raw.append(wall / n * 1e6)
                wall_us.append(wall / n * 1e6 * scale)
                cpu_us.append(cpu / n * 1e6 * scale)
        if not raw:  # traced runs do not probe
            return {}
        return {"raw_us_per_frame": statistics.median(raw),
                "us_per_frame": statistics.median(wall_us),
                "cpu_us_per_frame": statistics.median(cpu_us)}


def think_time(rng: Random, mean_s: float) -> float:
    """A seeded think time, uniform in [0.5, 1.5] x ``mean_s``.

    Uniform rather than exponential: the realized load then varies little
    from seed to seed, so simulated latency is a steady metric."""
    return rng.uniform(0.5 * mean_s, 1.5 * mean_s)


def think_between_conversations(bank: ClientBank, mean_s: float, rng: Random) -> None:
    """Make ``bank``'s slots pause for a seeded think time between
    conversations (the bank's own launch logic is unchanged).

    Without the pause the window saturates the controller and every
    conversation waits exactly ``window`` controller service times, so the
    simulated latency would not depend on the inputs at all.
    """

    def finish_closed(conv: Any) -> None:
        bank._active.pop(conv.ip, None)
        bank.sim.schedule(think_time(rng, mean_s), bank._launch_next)

    bank._finish_closed = finish_closed


class OneshotScale(Workload):
    """A6 shape: a closed-loop ClientBank (window 64) where every
    conversation is a new client, so every request pays packet-in, dispatch,
    flow installs and an idle expiry."""

    name = "oneshot_scale"
    window = 64
    think_mean_s = 0.012
    #: conversations per host second (≈1.4 ms of host time each)
    rate = 700.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.clients = max(self.window, int(seconds * self.rate))
        self.spacing_s = self.rng.uniform(0.0002, 0.001)
        self.client_base = self.rng.randrange(1 << 16)
        self.think_seed = self.rng.randrange(1 << 30)

    def schedule_summary(self) -> List[Any]:
        think = Random(self.think_seed)
        return [self.clients, self.spacing_s, self.client_base,
                [think_time(think, self.think_mean_s) for _ in range(8)]]

    def setup(self) -> None:
        tb = build_testbed(seed=self.seed, n_clients=1, cluster_types=("docker",),
                           switch_idle_timeout_s=0.5, memory_idle_timeout_s=2.0)
        svc = _warm_service(tb)
        self.bank = attach_client_bank(tb, svc, n_clients=self.clients,
                                       window=self.window, client_base=self.client_base)
        think_between_conversations(self.bank, self.think_mean_s, Random(self.think_seed))
        probe_bank(self.bank)
        self.tb = tb
        self._before = _counter_snapshot(tb)

    def run(self) -> None:
        self.clock = ChunkClock(self.tb, self.probe_speed)
        run_client_bank(self.tb, self.bank, spacing_s=self.spacing_s, chunk_s=0.01)
        self.clock.stop()
        self._after = _counter_snapshot(self.tb)

    def quiesce(self) -> List[str]:
        return _quiesce_checks(self.tb, idle_s=5.0)

    def outcome(self) -> Outcome:
        out = bank_outcome([self.bank])
        out.counters = _delta(self._after, self._before)
        out.frames = int(out.counters["frames"])
        return out


class ThinkingClosedLoop(ClosedLoopGenerator):
    """A closed loop whose users pause for a seeded think time (per-user
    streams) instead of a constant one."""

    def __init__(self, *args: Any, think_seed: int, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.think_seed = think_seed

    def _user_loop(self, user: int, deadline: float) -> Any:
        sim = self.testbed.sim
        client = self.testbed.client(user % len(self.testbed.timed_clients))
        think = Random(f"{self.think_seed}:{user}")
        addr, port = self.service.service_id.addr, self.service.service_id.port
        while sim.now < deadline:
            process = client.fetch(addr, port)
            self.result.issued += 1
            timing = yield process
            self.result.record(timing)
            yield sim.timeout(think_time(think, self.think_time_s))


class WarmFastpath(Workload):
    """16 testbed Hosts in a closed loop against one warm service whose
    flows stay installed: the switch fast path and the Host TCP stack."""

    name = "warm_fastpath"
    users = 16
    #: mean think time. With no pause the 16 users saturate the
    #: single-worker instance and every response takes exactly 16 times its
    #: CPU time, whatever the seed; at this mean it runs ~70% busy.
    think_mean_s = 0.0025
    #: simulated seconds per host second
    rate = 0.3

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.duration_s = seconds * self.rate
        self.think_seed = self.rng.randrange(1 << 30)
        self.offsets = [self.rng.uniform(0.0, 0.002) for _ in range(self.users)]

    def schedule_summary(self) -> List[Any]:
        think = Random(f"{self.think_seed}:0")
        return [self.duration_s, *self.offsets,
                [think_time(think, self.think_mean_s) for _ in range(8)]]

    def setup(self) -> None:
        tb = build_testbed(seed=self.seed, n_clients=self.users,
                           cluster_types=("docker",))
        svc = _warm_service(tb)
        # One request per client installs its flows; after this the loop
        # should not need the controller.
        warmups = [tb.client(i).fetch(svc.service_id.addr, svc.service_id.port)
                   for i in range(self.users)]
        tb.run(until=tb.sim.now + 1.0)
        self.warmup_failures = _failed_fetches(warmups)
        self.tb, self.svc = tb, svc
        self._before = _counter_snapshot(tb)

    def run(self) -> None:
        tb = self.tb
        gen = ThinkingClosedLoop(tb, self.svc, users=self.users,
                                 think_time_s=self.think_mean_s, keep_timings=False,
                                 think_seed=self.think_seed)
        self.recorder = _LatencyRecorder(gen.result)
        deadline = tb.sim.now + self.duration_s

        def start_user(user: int) -> None:
            tb.sim.spawn(gen._user_loop(user, deadline), name=f"user-{user}")

        for user, offset in enumerate(self.offsets):
            tb.sim.schedule(offset, self.harness(start_user), user)
        self.clock = ChunkClock(tb, self.probe_speed)
        self.clock.run_until(deadline, chunk_s=0.01)
        _drain(tb, gen.result, limit_s=5.0)
        self.clock.stop()
        self.result = gen.result
        self._after = _counter_snapshot(tb)

    def quiesce(self) -> List[str]:
        return _quiesce_checks(self.tb, idle_s=12.0, warmup_failures=self.warmup_failures)

    def outcome(self) -> Outcome:
        return _host_outcome(self.result, self.recorder, self._after, self._before)


def _host_outcome(result: Any, recorder: _LatencyRecorder,
                  after: Dict[str, float], before: Dict[str, float]) -> Outcome:
    out = Outcome(attempted=result.issued, ok=result.ok_count,
                  latencies=recorder.latencies)
    out.unsuccessful = out.attempted - out.ok
    out.counters = _delta(after, before)
    out.frames = int(out.counters["frames"])
    return out


class SeededRequests:
    """Request shapes for ``fetch_service``: single-segment POSTs whose body
    size is drawn per request from a seeded stream.

    On the re-miss path every request otherwise takes the same simulated
    time, so the median latency would not depend on the inputs at all.
    """

    def __init__(self, seed: int) -> None:
        self.rng = Random(seed)

    def make_request(self) -> tuple:
        # 200-1200 body bytes plus headers: always one TCP segment
        request = HTTPRequest(method="POST", path="/",
                              body_bytes=self.rng.randint(200, 1200))
        return request, request.wire_bytes


class RemissChurn(Workload):
    """64 Hosts with Poisson requests spaced past the 0.5 s switch idle
    timeout (FlowMemory keeps 60 s), so requests re-miss into a plan-memo
    hit and a reinstall, while ~20k cloud-prefix services churn."""

    name = "remiss_churn"
    users = 64
    rate_rps = 100.0
    services = 20_000
    churn_per_s = 200
    churn_tick_s = 0.05
    #: simulated seconds per host second (≈100 requests per simulated second)
    rate = 7.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.duration_s = seconds * self.rate
        self.loadgen_seed = self.rng.randrange(1 << 30)
        self.registry_seed = self.rng.randrange(1 << 30)
        self.request_seed = self.rng.randrange(1 << 30)

    def schedule_summary(self) -> List[Any]:
        sizes = SeededRequests(self.request_seed)
        return [self.duration_s, self.loadgen_seed, self.registry_seed,
                [sizes.make_request()[1] for _ in range(8)]]

    def setup(self) -> None:
        tb = build_testbed(seed=self.seed, n_clients=self.users,
                           cluster_types=("docker",), switch_idle_timeout_s=0.5,
                           memory_idle_timeout_s=60.0)
        svc = _warm_service(tb)
        prefixes = synth_cloud_prefixes(seed=self.registry_seed,
                                        count=self.services // 64)
        ids = synth_service_ids(self.registry_seed + 1, self.services, prefixes,
                                udp_share=0.25)
        bulk_register(tb.registry, ids)
        self.background = ids
        ops = int(self.duration_s * self.churn_per_s) + self.churn_per_s
        self.script = churn_schedule(self.registry_seed + 2, ids, ops)
        # First request per client pays the dispatch; the timed phase then
        # sees re-misses that FlowMemory and the plan memo answer.
        warmups = [tb.client(i).fetch(svc.service_id.addr, svc.service_id.port)
                   for i in range(self.users)]
        tb.run(until=tb.sim.now + 1.0)
        self.warmup_failures = _failed_fetches(warmups)
        self.tb, self.svc = tb, svc
        self._before = _counter_snapshot(tb)

    def run(self) -> None:
        tb = self.tb
        registry = tb.registry
        script = self.script
        batch = int(self.churn_per_s * self.churn_tick_s)
        state = {"applied": 0}
        end = tb.sim.now + self.duration_s

        def churn_tick() -> None:
            for _ in range(batch):
                op, sid = script[state["applied"]]
                apply_churn_op(registry, op, sid)
                state["applied"] += 1
            if tb.sim.now + self.churn_tick_s < end:
                tb.sim.schedule(self.churn_tick_s, tick)

        tick = self.harness(churn_tick)
        tb.sim.schedule(self.churn_tick_s, tick)
        gen = OpenLoopGenerator(tb, self.svc, behavior=SeededRequests(self.request_seed),
                                rate_rps=self.rate_rps, poisson=True,
                                seed=self.loadgen_seed, keep_timings=False)
        self.recorder = _LatencyRecorder(gen.result)
        gen.start(self.duration_s)
        self.clock = ChunkClock(tb, self.probe_speed)
        self.clock.run_until(end, chunk_s=0.2)
        _drain(tb, gen.result, limit_s=5.0)
        self.clock.stop()
        self.result = gen.result
        self._after = _counter_snapshot(tb)

    def quiesce(self) -> List[str]:
        # The verifier enumerates header-space classes per registered
        # service (minutes and gigabytes at 20k); the background services
        # never carry traffic or flows, so they leave before it runs.
        registry = self.tb.registry
        for sid in self.background:
            if sid in registry:
                registry.deregister(sid)
        return _quiesce_checks(self.tb, idle_s=2.0, warmup_failures=self.warmup_failures)

    def outcome(self) -> Outcome:
        return _host_outcome(self.result, self.recorder, self._after, self._before)


# ---------------------------------------------------------------------------
# Sharded ingress: the A7 partition on worker processes
# ---------------------------------------------------------------------------


def _proc_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process, from /proc (Linux)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def build_thinking_domain(domain_id: int, n_domains: int, seed: int,
                          think_mean_s: float, probe_speed: bool,
                          **kwargs: Any) -> Any:
    """Build one A7 ingress domain, with both banks thinking between
    conversations (seeded per domain and bank) and probed.

    The domain lives in a worker process, so its ``finalize()`` result also
    carries what the probes saw, its run-phase counter deltas and, in timed
    runs, per-epoch costs; the first domain of each worker also times a
    :func:`speed_probe` before each epoch, for that worker's core.
    """
    model = build_ingress_domain(domain_id, n_domains, seed, **kwargs)
    banks = (model.local_bank, model.remote_bank)
    for index, bank in enumerate(banks):
        think_between_conversations(bank, think_mean_s, Random(f"{seed}:{index}"))
        probe_bank(bank)
    before = _counter_snapshot(model.tb, with_perf=False)
    #: per epoch: probe time (first domain of each worker only), this
    #: domain's simulation CPU time and its switch-forwarded frames
    epochs: Dict[str, List[float]] = {"probes": [], "cpu": [], "frames": []}
    if probe_speed:
        run = model.sim.run
        switch = model.tb.switch
        first_in_worker = domain_id < SHARDED_WORKERS  # domains go round-robin

        def measured_run(until: Optional[float] = None) -> float:
            if first_in_worker:
                epochs["probes"].append(speed_probe())
            frames, cpu = switch.tx_frames, time.process_time()
            now = run(until)
            epochs["cpu"].append(time.process_time() - cpu)
            epochs["frames"].append(switch.tx_frames - frames)
            return now

        model.sim.run = measured_run
    finalize = model.finalize

    def finalize_with_probes() -> Dict[str, Any]:
        result = finalize()
        out = bank_outcome(list(banks))
        result["perfbench"] = {
            "attempted": out.attempted, "ok": out.ok, "mismatched": out.mismatched,
            "latencies": out.latencies.tobytes(), "epochs": epochs,
            "counters": _delta(_counter_snapshot(model.tb, with_perf=False), before)}
        return result

    model.finalize = finalize_with_probes
    return model


class ShardedIngress(Workload):
    """The A7 partition (4 ring-coupled ingress domains, local and remote
    ClientBanks) on worker processes under conservative lockstep."""

    name = "sharded_ingress"
    think_mean_s = 0.012
    #: local clients per domain per host second
    rate = 130.0

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.clients_local = max(20, int(seconds * self.rate))
        self.clients_remote = max(8, self.clients_local // 3)
        self.stagger = self.rng.randrange(5, 16)
        self.partition_seed = self.rng.randrange(1 << 30)
        #: wall time of each epoch of the last ``run()``
        self.epoch_walls: List[float] = []
        self.epochs_cpu_s = 0.0
        #: hooks the tracer sets: called when the build ends / the epochs end
        self.on_built: Callable[[], None] = lambda: None
        self.on_epochs_done: Callable[[], None] = lambda: None

    def schedule_summary(self) -> List[Any]:
        return [self.clients_local, self.clients_remote, self.stagger,
                self.partition_seed]

    def _partition(self) -> Any:
        """``build_domain_partition``'s A7 partition, with thinking banks."""
        return DomainPartition.per_ingress(
            build_thinking_domain, n_domains=A7_N_DOMAINS,
            root_seed=self.partition_seed, lookahead_s=CROSS_LATENCY_S, t0=WARMUP_S,
            common_kwargs={"clients_local": self.clients_local,
                           "clients_remote": self.clients_remote, "window": 32,
                           "stagger": self.stagger, "think_mean_s": self.think_mean_s,
                           "probe_speed": self.probe_speed})

    def setup(self) -> None:
        """Nothing: the lockstep API builds and runs in one call, so a
        ``setup_s`` sample times :meth:`setup_only` instead."""

    def setup_only(self) -> None:
        """Build and close the workers: the set-up cost of a run."""
        executor = ProcessExecutor(self._partition(), SHARDED_WORKERS)
        try:
            executor.build()
        finally:
            executor.close()

    def run(self) -> None:
        workload = self
        cpu_mark: List[float] = []

        class TimedExecutor(ProcessExecutor):
            def build(self) -> Dict[int, float]:
                nows = super().build()
                workload.on_built()
                cpu_mark.append(self._cpu())
                return nows

            def advance(self, epoch_end: float, inbound: Any) -> Any:
                started = time.perf_counter()
                result = super().advance(epoch_end, inbound)
                workload.epoch_walls.append(time.perf_counter() - started)
                return result

            def finalize(self) -> List[Any]:
                workload.epochs_cpu_s = self._cpu() - cpu_mark[0]
                workload.on_epochs_done()
                return super().finalize()

            def _cpu(self) -> float:
                return time.process_time() + sum(
                    _proc_cpu_s(process.pid) for process, _, _ in self._workers)

        class TimedCoordinator(LockstepCoordinator):
            def _executor(self) -> Any:
                return TimedExecutor(self.partition, self.processes)

        self.lockstep = TimedCoordinator(self._partition(),
                                         processes=SHARDED_WORKERS).run()

    def _epochs(self) -> List[Dict[str, List[float]]]:
        return [domain.result["perfbench"]["epochs"] for domain in self.lockstep.outcomes]

    def run_seconds(self) -> float:
        """Epoch-loop wall time, without the workers' probes."""
        per_worker = [epochs["probes"] for epochs in self._epochs() if epochs["probes"]]
        probe_s = sum(max(epoch) for epoch in zip(*per_worker)) if per_worker else 0.0
        return sum(self.epoch_walls) - probe_s

    def frame_costs(self, frames: int) -> Dict[str, float]:
        """Epoch-loop wall and CPU time (parent plus workers) per frame, as
        measured and at the nominal host speed.

        An epoch ends when the slower worker does, so its wall time (probes
        taken out) is scaled by the slower worker's probe; ``us_per_frame``
        is the median over epochs. Each domain's simulation CPU time is
        scaled by its own worker's probe, per epoch; the rest (parent,
        codec, pipes) by the median probe.
        """
        domains = self._epochs()
        if not domains[0]["cpu"]:  # traced runs do not measure epochs
            return {}
        probes = [domains[worker]["probes"] for worker in range(SHARDED_WORKERS)]
        frames_per_epoch = [sum(epoch) for epoch in zip(*(d["frames"] for d in domains))]
        raw_wall = 0.0
        per_epoch_us = []
        for wall, slowest, n in zip(self.epoch_walls, map(max, zip(*probes)),
                                    frames_per_epoch):
            raw_wall += wall - slowest
            if n:
                per_epoch_us.append((wall - slowest) * PROBE_NOMINAL_S / slowest / n * 1e6)
        all_probes = [probe for worker in probes for probe in worker]
        sim_cpu = nominal_cpu = 0.0
        for domain_id, domain in enumerate(domains):
            for cpu, probe in zip(domain["cpu"], probes[domain_id % SHARDED_WORKERS]):
                sim_cpu += cpu
                nominal_cpu += cpu * PROBE_NOMINAL_S / probe
        other_cpu = self.epochs_cpu_s - sum(all_probes) - sim_cpu
        nominal_cpu += other_cpu * PROBE_NOMINAL_S / statistics.median(all_probes)
        return {"raw_us_per_frame": raw_wall / frames * 1e6,
                "us_per_frame": statistics.median(per_epoch_us),
                "cpu_us_per_frame": nominal_cpu / frames * 1e6}

    def outcome(self) -> Outcome:
        out = Outcome()
        counters: Dict[str, float] = {}
        for domain in self.lockstep.outcomes:  # domain-id order
            probe = domain.result["perfbench"]
            out.attempted += probe["attempted"]
            out.ok += probe["ok"]
            out.mismatched += probe["mismatched"]
            latencies = array("d")
            latencies.frombytes(probe["latencies"])
            out.latencies.extend(latencies)
            for key, value in probe["counters"].items():
                counters[key] = counters.get(key, 0) + value
        out.unsuccessful = out.attempted - out.ok
        # Perf counters are process-global, so each domain's own delta is
        # the one the lockstep runtime measured around its work.
        total_perf = self.lockstep.total_perf
        for name in PERF_FIELDS:
            counters[name] = getattr(total_perf, name)
        counters["epochs"] = self.lockstep.epochs
        counters["envelopes"] = self.lockstep.envelopes_exchanged
        out.counters = counters
        out.frames = int(counters["frames"])
        return out


WORKLOADS: Dict[str, type] = {cls.name: cls for cls in
                              (OneshotScale, WarmFastpath, RemissChurn, ShardedIngress)}
