#!/usr/bin/env python3
"""The repository benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload short-flows --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures with tracing off: it sets the workload
up in fresh processes a few times (``setup_s`` is the median), then repeats
the workload in this process until ``--seconds`` of host time have passed,
and reports the median of each host metric over the repetitions.  Every
repetition replays the same seed, so every simulated metric and the
outcome digest must agree across them; a disagreement, or any failed
correctness gate, reports a failure instead of numbers.

With ``--trace 1`` the run alternates untraced and traced repetitions and
reports per-layer self time and call counts from the traced repetition
with the median traced wall time, plus the tracing overhead (median traced
wall over median untraced wall).  Spans are kept in memory and written to
``.perfbench/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 3
TAIL_MIN_BEYOND = 10  # samples that must lie beyond the tail percentile


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="host seconds of repetitions to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink simulated load (the smoke test uses < 1)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # child: set up, say ready, exit
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def probe_setup(args: argparse.Namespace) -> float:
    """Host seconds from spawning a fresh interpreter to the first
    simulated request being due: imports, build and settle."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", repr(args.scale), "--setup-probe"]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def run_rep(workload, seed: int, tracer=None) -> Dict[str, object]:
    """One repetition: set up, time load + drain, read the outcome."""
    from workloads import program_counts, storage_a_p50_ms

    gc.collect()
    ready: Dict[str, object] = {}

    def on_ready(beds, networks) -> None:
        ready["beds"], ready["networks"] = beds, networks
        ready["before"] = program_counts(beds, networks)
        ready["t"] = time.perf_counter()
        if tracer is not None:
            tracer.reset(ready["t"])

    if tracer is not None:
        tracer.install()
    try:
        state = workload.setup(seed, on_ready)
        workload.run(state)
        ended = time.perf_counter()
        if tracer is not None:
            tracer.stop(ended)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = ended - ready["t"]
    outcome = workload.outcome(state)
    after = program_counts(ready["beds"], ready["networks"])
    counts = {k: after[k] - ready["before"][k] for k in after}
    counts["core.tcpstore.storage_a_p50_ms"] = storage_a_p50_ms(ready["beds"])
    counts.update(outcome.counts)
    return {"wall": wall, "outcome": outcome, "counts": counts}


def tail(latencies_ms: List[float]):
    """(percentile, value) of the highest percentile with at least
    TAIL_MIN_BEYOND samples beyond it: the sorted sample at rank
    n - TAIL_MIN_BEYOND.  Too few samples gives (None, None)."""
    n = len(latencies_ms)
    if n <= TAIL_MIN_BEYOND:
        return None, None
    return (100.0 * (n - TAIL_MIN_BEYOND) / n,
            latencies_ms[n - TAIL_MIN_BEYOND - 1])


def simulated(outcome) -> Dict[str, object]:
    """The simulated metrics of one repetition (identical across reps)."""
    lat = sorted((end - due) * 1e3 for due, end, _, _, ok in outcome.requests
                 if ok)
    pct, tail_ms = tail(lat)
    return {
        "req_p50_ms": statistics.median(lat) if lat else None,
        "req_tail_ms": tail_ms,
        "req_tail_pct": pct,
        "req_samples": len(lat),
        "fail_frac": outcome.failed / max(1, outcome.attempted),
        "generator_lateness_s": outcome.lateness_s,
        "digest": outcome.digest,
    }


def machine() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version()}


def median_rep(reps: List[Dict[str, object]]) -> Dict[str, object]:
    """The repetition whose wall time is the (lower) median."""
    ordered = sorted(reps, key=lambda r: r["wall"])
    return ordered[(len(ordered) - 1) // 2]


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # measure this checkout's simulator, never an installed copy
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from layers import LayerTracer
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator: {exc}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, scale=args.scale)

    if args.setup_probe:
        workload.setup_only(args.seed)
        print("ready", flush=True)
        return 0

    setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
    plain: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    started = time.perf_counter()
    while True:
        plain.append(run_rep(workload, args.seed))
        if args.trace:
            tracer = LayerTracer()
            rep = run_rep(workload, args.seed, tracer)
            rep["tracer"] = tracer
            traced.append(rep)
        if time.perf_counter() - started >= args.seconds:
            break
    reps = plain + traced

    first = reps[0]["outcome"]
    sim = simulated(first)
    gates = list(first.gates)
    gates.append((f"more than {TAIL_MIN_BEYOND} completed requests, so the "
                  "tail is defined", sim["req_tail_pct"] is not None,
                  f"{sim['req_samples']} completed"))
    agree = all(simulated(r["outcome"]) == sim
                and r["counts"] == reps[0]["counts"] for r in reps)
    gates.append(("same seed, same outcome (digest, simulated metrics, "
                  "counts) on every repetition", agree,
                  f"{len(reps)} repetitions, digest {sim['digest'][:16]}"))
    correct = all(ok for _, ok, _ in gates)

    walls = [r["wall"] for r in plain]
    context = dict(machine(), seed=args.seed, workload=args.workload,
                   trace=args.trace, seconds=args.seconds,
                   repetitions=len(plain), traced_repetitions=len(traced),
                   walls=walls)
    print(json.dumps({"context": context}))
    for name, ok, detail in gates:
        print(f"gate {'PASS' if ok else 'FAIL'}: {name} ({detail})")
    metrics: Dict[str, tuple] = {}
    if correct:  # a failed gate reports the failure, not numbers
        end_to_end = {
            "wall_s": (statistics.median(walls), "s"),
            "sim_pkts_per_s": (statistics.median(
                r["outcome"].tx_packets / r["wall"] for r in plain), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "req_p50_ms": (sim["req_p50_ms"], "ms"),
            "req_tail_ms": (sim["req_tail_ms"], "ms"),
            "fail_frac": (sim["fail_frac"], "ratio"),
        }
        for name, (value, unit) in end_to_end.items():
            print(f"e2e {name} = {value!r} {unit}")
        print(f"tail percentile p{sim['req_tail_pct']:.2f} over "
              f"{sim['req_samples']} requests; generator lateness "
              f"{sim['generator_lateness_s']!r} s")
        if args.trace:
            metrics = layer_metrics(reps[0]["counts"], traced, walls)
            write_spans(args, median_rep(traced)["tracer"])
        else:
            # fail_frac is 0 whenever the gates pass (a failed request
            # fails them), so it travels as attempted/failed instead
            metrics = {k: v for k, v in end_to_end.items() if k != "fail_frac"}
    result = {
        "correct": correct,
        "attempted": first.attempted,
        "failed": first.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(dict(result, context=context), indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def layer_metrics(counts: Dict[str, float], traced: List[Dict[str, object]],
                  untraced_walls: List[float]) -> Dict[str, tuple]:
    """Per-layer metrics from the median traced repetition."""
    rep = median_rep(traced)
    tracer = rep["tracer"]
    wall = rep["wall"]
    layers = tracer.layer_totals()
    unattributed = tracer.unattributed_s
    out: Dict[str, tuple] = {}
    print(f"{'layer':<16} {'self_s':>9} {'share':>7} {'calls':>9}")
    for name, (self_s, calls) in layers.items():
        out[f"{name}.self_s"] = (self_s, "s")
        out[f"{name}.calls"] = (calls, "count")
        print(f"{name:<16} {self_s:9.4f} {self_s / wall:7.1%} {calls:9d}")
    print(f"{'unattributed':<16} {unattributed:9.4f} {unattributed / wall:7.1%}")
    out["unattributed.self_s"] = (unattributed, "s")
    taps = sum(tracer.tap_records)
    from layers import LAYER_INDEX
    kv_ok = counts["kvstore.ok_ops"] / counts["kvstore.ops"] \
        if counts["kvstore.ops"] else 1.0
    out.update({
        "sim.events": (tracer.events[0], "count"),
        "net.tx_pkts": (counts["net.tx_pkts"], "count"),
        "net.dropped_pkts": (counts["net.dropped_pkts"], "count"),
        "net.tap_records": (taps, "count"),
        "tcp.retransmits": (sum(c.retransmit_count for c in tracer.connections),
                            "count"),
        "l4lb.syn_dispatches": (tracer.syn_dispatches[0], "count"),
        "l4lb.est_dispatches": (tracer.est_dispatches[0], "count"),
        "core.instance.flows_opened": (counts["core.instance.flows_opened"],
                                       "count"),
        "core.instance.flows_recovered": (
            counts["core.instance.flows_recovered"], "count"),
        "core.instance.recovery_miss": (counts["core.instance.recovery_miss"],
                                        "count"),
        "core.tcpstore.storage_a_p50_ms": (
            counts["core.tcpstore.storage_a_p50_ms"], "ms"),
        "core.controller.failures_detected": (
            counts["core.controller.failures_detected"], "count"),
        "kvstore.ops": (counts["kvstore.ops"], "count"),
        "kvstore.timeouts": (counts["kvstore.timeouts"], "count"),
        "kvstore.retries": (counts["kvstore.retries"], "count"),
        "kvstore.ok_ratio": (kv_ok, "ratio"),
        "http.requests": (counts["http.requests"], "count"),
        "chaos.records": (tracer.tap_records[LAYER_INDEX["chaos"]], "count"),
        "obs.spans": (counts.get("obs.spans", 0), "count"),
        "shard.windows": (counts.get("shard.windows", 0), "count"),
        "shard.cross_pkts": (counts.get("shard.cross_pkts", 0), "count"),
        "shard.wire_s": (tracer.self_s[LAYER_INDEX["shard.wire"]], "s"),
        "trace.traced_wall_s": (wall, "s"),
        "trace.overhead": (statistics.median(r["wall"] for r in traced)
                           / statistics.median(untraced_walls), "x"),
    })
    print(f"traced wall {wall:.4f} s = layer self times + unattributed; "
          f"tracing overhead {out['trace.overhead'][0]:.2f}x")
    return out


def write_spans(args: argparse.Namespace, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for row in tracer.span_rows():
            fh.write(json.dumps(row) + "\n")


if __name__ == "__main__":
    sys.exit(main())
