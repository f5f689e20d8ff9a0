"""The benchmark's four workloads, driven through the simulator's public API.

Each workload splits one repetition into three phases:

- ``setup(seed, on_ready)``: build the deployment and settle it.  It calls
  ``on_ready(beds, networks)`` the moment the first simulated request is
  due; the timed phase starts there.
- ``run(state)``: the timed phase -- load plus drain.
- ``outcome(state)``: after timing, read results, evaluate the
  correctness gate and compute the outcome digest.

``scale`` shrinks the simulated durations for the benchmark's smoke test.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.chaos.library import get_scenario
from repro.chaos.scenario import ScenarioEngine
from repro.experiments.harness import Testbed, TestbedConfig
from repro.obs import OBS
from repro.obs.sketch import QuantileSketch
from repro.shard import (
    ScaleShardWorld,
    ScaleWorldConfig,
    ShardedRunner,
    make_scale_plan,
)
from repro.workload.clients import OpenLoopGenerator
from repro.workload.trace import DiurnalConfig

# (due, end, status, body bytes, ok) per request, simulated seconds
Request = Tuple[float, float, Optional[int], int, bool]
# called with the world's testbeds and networks when set-up is done
OnReady = Callable[[List[Testbed], list], None]


@dataclass
class Outcome:
    """What one repetition produced, read after the timed phase."""

    requests: List[Request]
    attempted: int
    failed: int
    digest: str
    gates: List[Tuple[str, bool, str]]
    tx_packets: int
    counts: Dict[str, float] = field(default_factory=dict)
    lateness_s: float = 0.0  # worst generator lateness vs its schedule

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.gates)


def program_counts(beds: List[Testbed], networks: List[object]) -> Dict[str, float]:
    """Work counts read from the program's own registries and result
    objects.  Counters are cumulative; callers take deltas over the timed
    phase."""

    def counter(registry, name: str) -> int:
        c = registry.counters.get(name)
        return c.value if c is not None else 0

    out: Dict[str, float] = {
        "net.tx_pkts": 0, "net.dropped_pkts": 0,
        "core.instance.flows_opened": 0, "core.instance.flows_recovered": 0,
        "core.instance.recovery_miss": 0,
        "core.controller.failures_detected": 0,
        "kvstore.ops": 0, "kvstore.ok_ops": 0, "kvstore.timeouts": 0,
        "kvstore.retries": 0, "http.requests": 0,
    }
    for net in networks:
        out["net.tx_pkts"] += counter(net.metrics, "tx_packets")
        out["net.dropped_pkts"] += (counter(net.metrics, "lost_packets")
                                    + counter(net.metrics, "no_route"))
        for host in net.hosts():
            out["net.dropped_pkts"] += counter(host.metrics, "rx_dropped_failed")
    for bed in beds:
        out["http.requests"] += sum(b.requests_served
                                    for b in bed.backends.values())
        if bed.yoda is None:
            continue
        for inst in bed.yoda.instances:
            for name in ("flows_opened", "flows_recovered", "recovery_miss"):
                out[f"core.instance.{name}"] += counter(inst.metrics, name)
            kv = inst.tcpstore.kv.metrics
            for name, c in kv.counters.items():
                if name.endswith("_issued"):
                    out["kvstore.ops"] += c.value
                elif name.endswith("_ok"):
                    out["kvstore.ok_ops"] += c.value
            out["kvstore.timeouts"] += counter(kv, "timeouts")
            out["kvstore.retries"] += counter(kv, "retries")
        ctl = bed.yoda.controller.metrics
        out["core.controller.failures_detected"] += (
            counter(ctl, "instance_failures_detected")
            + counter(ctl, "kv_failures_detected"))
    return out


def storage_a_p50_ms(beds: List[Testbed]) -> float:
    """Median simulated wait for the SYN-time TCPStore write (the write
    that must finish before the SYN-ACK), merged over every instance."""
    merged = QuantileSketch()
    for bed in beds:
        for inst in (bed.yoda.instances if bed.yoda is not None else []):
            hist = inst.metrics.histograms.get("storage_a_latency")
            if hist is not None and hist.count:
                merged.merge(hist.sketch)
    return merged.quantile(0.5) * 1e3 if merged.count else 0.0


def request_digest(requests: List[Request]) -> str:
    h = hashlib.sha256()
    for due, end, status, nbytes, _ in requests:
        h.update(f"{due!r} {end!r} {status} {nbytes}\n".encode())
    return h.hexdigest()


def issued_requests(results) -> List[Request]:
    """Fetch results as requests timed from when each was issued, in
    issue order."""
    ordered = sorted(results, key=lambda r: (r.started_at, r.finished_at, r.path))
    return [(r.started_at, r.finished_at, r.status,
             len(r.response.body) if r.response is not None else 0, r.ok)
            for r in ordered]


def peak_outstanding(requests: List[Request], lo: float, hi: float) -> int:
    """Most requests in flight at any instant of [lo, hi)."""
    marks = sorted([(r[0], 1) for r in requests]
                   + [(r[1], -1) for r in requests])
    live = peak = 0
    for t, step in marks:
        live += step
        if lo <= t < hi:
            peak = max(peak, live)
    return peak


# ---------------------------------------------------------------------------
# open loop: short-flows and bulk-flows
# ---------------------------------------------------------------------------

class OpenLoop:
    """Single-object GETs at a fixed simulated rate, one connection per
    request, through the default stateful-dispatch Testbed."""

    def __init__(self, name: str, object_bytes: int, rate: float,
                 load_s: float, drain_s: float, scale: float = 1.0):
        self.name = name
        self.object_bytes = object_bytes
        self.rate = rate
        self.load_s = load_s * scale
        self.drain_s = drain_s

    def setup(self, seed: int, on_ready: OnReady) -> dict:
        bed = Testbed(TestbedConfig(
            seed=seed, corpus="flat", flat_object_bytes=self.object_bytes,
            flat_object_count=50,
        ))
        gen = OpenLoopGenerator(
            bed.client_stacks[0], bed.loop, bed.target(), self.rate,
            path_fn=bed.website.random_object,
        )
        state = {"bed": bed, "gen": gen, "t0": bed.loop.now()}
        on_ready([bed], [bed.network])
        gen.start()  # the first request is due now
        return state

    def run(self, state: dict) -> None:
        bed, gen = state["bed"], state["gen"]
        bed.run(self.load_s)
        gen.stop()
        bed.run(self.drain_s)

    def outcome(self, state: dict) -> Outcome:
        bed, gen, t0 = state["bed"], state["gen"], state["t0"]
        results = sorted(gen.results, key=lambda r: r.started_at)
        size_of = bed.corpus.site.size_of
        requests: List[Request] = []
        lateness = 0.0
        wrong = []
        for i, r in enumerate(results):
            due = t0 + i / self.rate
            lateness = max(lateness, abs(r.started_at - due))
            body = len(r.response.body) if r.response is not None else 0
            requests.append((due, r.finished_at, r.status, body, r.ok))
            if not (r.ok and r.status == 200 and body == size_of(r.path)):
                wrong.append(r)
        half = t0 + self.load_s / 2
        early = peak_outstanding(requests, t0, half)
        late = peak_outstanding(requests, half, t0 + self.load_s)
        gates = [
            ("all issued requests completed", len(results) == gen.issued,
             f"{len(results)}/{gen.issued}"),
            ("every fetch 200 with the object's byte count", not wrong,
             f"{len(wrong)} wrong"),
            ("no backlog growth", late <= 2 * early + 2,
             f"peak in flight {early} first half, {late} second half"),
            ("generator lateness 0", lateness < 1e-6, f"{lateness:.3g} s"),
        ]
        return Outcome(
            requests=requests, attempted=gen.issued,
            failed=gen.issued - sum(1 for r in requests if r[4]),
            digest=request_digest(requests), gates=gates,
            tx_packets=bed.network.metrics.counter("tx_packets").value,
            lateness_s=lateness,
        )

    def setup_only(self, seed: int) -> None:
        self.setup(seed, lambda beds, networks: None)


# ---------------------------------------------------------------------------
# failover-audited: the double-crash chaos scenario, fully audited
# ---------------------------------------------------------------------------

class _PrebuiltEngine(ScenarioEngine):
    """A ScenarioEngine whose ``run`` reuses the testbed ``build`` already
    made, so building is set-up and not part of the timed phase."""

    def build(self) -> Testbed:
        if self.bed is None:
            super().build()
            bed = self.bed
            closed_loop = bed.closed_loop

            def capture(*args, **kwargs):
                self.processes = closed_loop(*args, **kwargs)
                return self.processes

            bed.closed_loop = capture
        return self.bed


class Failover:
    """Closed-loop browsers, an instance and a store replica crashing
    100 ms apart, every invariant monitor attached, obs plane on."""

    name = "failover-audited"
    # the scenario's own 12 s load + 8 s drain, halved, so several
    # repetitions fit one run; both crashes and the store's revival at
    # 7.1 s still fall inside it
    duration = 6.0
    drain = 4.0

    def __init__(self, scale: float = 1.0):
        self.duration *= scale

    def setup(self, seed: int, on_ready: OnReady) -> dict:
        scenario = dataclasses.replace(
            get_scenario("double-crash"), duration=self.duration,
            drain=self.drain)
        OBS.enable()
        engine = _PrebuiltEngine(scenario, seed=seed)
        bed = engine.build()
        on_ready([bed], [bed.network])  # run() starts the browsers at once
        return {"engine": engine}

    def run(self, state: dict) -> None:
        try:
            state["result"] = state["engine"].run()
        finally:
            state["obs_spans"] = len(OBS.tracer.spans) + OBS.tracer.dropped
            OBS.disable()

    def outcome(self, state: dict) -> Outcome:
        engine, result = state["engine"], state["result"]
        requests = issued_requests(
            fr for p in engine.processes for fr in p.object_results())
        failed_verdicts = [v.invariant for v in result.verdicts if not v.ok]
        gates = [
            ("every invariant verdict passes", not failed_verdicts,
             ", ".join(failed_verdicts) or f"{len(result.verdicts)} pass"),
            ("0 broken pages", result.broken_pages == 0,
             f"{result.broken_pages} broken of {result.pages_loaded}"),
            ("pages served", result.pages_loaded > 0,
             f"{result.pages_loaded} pages"),
        ]
        return Outcome(
            requests=requests, attempted=len(requests),
            failed=sum(1 for r in requests if not r[4]),
            digest=result.trace_digest, gates=gates,
            tx_packets=engine.bed.network.metrics.counter("tx_packets").value,
            counts={"obs.spans": state["obs_spans"]},
        )

    def setup_only(self, seed: int) -> None:
        try:
            self.setup(seed, lambda beds, networks: None)
        finally:
            OBS.disable()


# ---------------------------------------------------------------------------
# sharded-cells: the multi-cell diurnal scale world, 2 shards inline
# ---------------------------------------------------------------------------

class Sharded:
    """Four namespaced cells under a compressed diurnal day, cut across
    two shards and run inline through the barrier engine."""

    name = "sharded-cells"
    num_shards = 2
    num_cells = 4
    sim_seconds = 24.0  # one compressed day
    sim_fraction = 2e-3  # of the modeled request rate actually issued

    def __init__(self, scale: float = 1.0):
        self.sim_seconds *= scale

    def _config(self, seed: int) -> ScaleWorldConfig:
        return ScaleWorldConfig(
            seed=seed, num_cells=self.num_cells, num_shards=self.num_shards,
            diurnal=DiurnalConfig(seed=seed, sim_seconds=self.sim_seconds,
                                  sim_fraction=self.sim_fraction))

    def setup(self, seed: int, on_ready: OnReady) -> dict:
        cfg = self._config(seed)
        plan = make_scale_plan(cfg)
        worlds: Dict[int, ScaleShardWorld] = {}

        def build(shard_index: int, plan_) -> ScaleShardWorld:
            # the runner builds every shard before the first window; the
            # last build ends set-up (each world's load is due from there)
            world = worlds[shard_index] = ScaleShardWorld(shard_index, plan_, cfg)
            if len(worlds) == plan_.num_shards:
                on_ready([b for w in worlds.values() for b in w.beds.values()],
                         [w.network for w in worlds.values()])
            return world

        runner = ShardedRunner(plan, build, mode="inline")
        return {"runner": runner, "worlds": worlds}

    def run(self, state: dict) -> None:
        state["result"] = state["runner"].run(self.sim_seconds)

    def outcome(self, state: dict) -> Outcome:
        result = state["result"]
        requests = issued_requests(
            r for w in state["worlds"].values() for g in w.generators
            for r in g.results)
        stats = result.per_shard
        issued = sum(int(s["fetches_issued"]) for s in stats)
        failed = sum(int(s["fetches_failed"]) for s in stats)
        gates = [
            ("fetches_failed == 0", failed == 0, f"{failed} failed"),
            ("cross_shard_packets > 0", result.cross_shard_packets > 0,
             f"{result.cross_shard_packets} crossed"),
        ]
        return Outcome(
            requests=requests, attempted=issued, failed=failed,
            digest=result.digest, gates=gates,
            tx_packets=result.total_tx_packets,
            counts={"shard.windows": result.windows_run,
                    "shard.cross_pkts": result.cross_shard_packets},
        )

    def setup_only(self, seed: int) -> None:
        cfg = self._config(seed)
        plan = make_scale_plan(cfg)
        for i in range(plan.num_shards):
            ScaleShardWorld(i, plan, cfg)


def make(name: str, scale: float = 1.0):
    """The named workload; ``scale`` < 1 shortens its simulated load."""
    if name == "short-flows":
        return OpenLoop(name, object_bytes=1_000, rate=200.0, load_s=5.0,
                        drain_s=2.0, scale=scale)
    if name == "bulk-flows":
        return OpenLoop(name, object_bytes=400_000, rate=10.0, load_s=6.0,
                        drain_s=3.0, scale=scale)
    if name == "failover-audited":
        return Failover(scale=scale)
    if name == "sharded-cells":
        return Sharded(scale=scale)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("short-flows", "bulk-flows", "failover-audited", "sharded-cells")
