#!/usr/bin/env python3
"""mdflow benchmark: one workload per run, from the root of a checkout.

    python3 bench/run.py --workload batch-pipe --seed 1 --seconds 20 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it reports the per-layer metrics from spans recorded around the
calls into each layer (see spans.py).  Every output is checked against
mdflow.oracle.  Human-readable lines and a run record (validity: code
hash, nproc, Python, seed, generator lateness) come first; the last line of
standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program is imported from ./src of the checkout; without it the run
exits with status 2 before measuring anything.  Spans, per-layer details
and run records are written under ./.bench_out.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: set-up probes per untraced run, each a fresh process; with the run's own
#: set-up they give the median set-up time
SETUP_PROBES = 6
#: an open-loop run whose generator sent its 99th-percentile task later
#: than this is marked invalid: it measured the generator, not the program
MAX_LATENESS_P99_MS = 5.0

#: spans written to the JSONL file per traced run (all are analysed)
MAX_JSONL_SPANS = 200_000

WORKLOAD_NAMES = ("batch-pipe", "remote-farm", "open-farm", "workflow-diamond")
#: workloads run on one CPU (see pin_to_one_cpu)
ONE_CPU = ("workflow-diamond",)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def rss_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def cpu_ticks() -> list[int]:
    with open("/proc/stat", encoding="ascii") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def setup_probes(workload: str, n: int) -> list[float]:
    """Set-up time of `n` fresh processes (see probe.py), one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), workload],
                              cwd=str(ROOT), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def pin_to_one_cpu(workload: str) -> None:
    """Run this process, and the set-up probes it starts, on one CPU when
    the workload is in ONE_CPU.

    workflow-diamond runs three threads that take turns holding the
    interpreter lock, so it uses one CPU at a time anyway.  On two CPUs
    each hand-off of the lock wakes a thread on the other one, the host
    took more CPU time from the machine, and the rate fell into slow
    spells of several seconds.  batch-pipe and remote-farm held their
    bounds at least as well on two CPUs as on one, and open-farm's
    workers mostly sleep, so they run free.  Figures are in
    bench/README.md."""
    if workload in ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def plain_run(args, t0: float, probes: list[float]):
    """End-to-end metrics, tracing off."""
    import workloads
    from spans import pct

    w = workloads.WORKLOADS[args.workload](args.seed)
    try:
        w.setup()
        w.submit_first()
        setup_s = time.perf_counter() - t0
        gc.collect()
        rss_setup = rss_mb()
        # memory after the same fixed work on every commit, before the timed
        # phase, whose task count (and so what the pool and the benchmark
        # keep per task) grows with throughput
        fixed = w.run(count=w.memory_tasks)
        gc.collect()
        rss_fixed = rss_mb()
        phase = w.run(seconds=args.seconds)
        attempted, failed = w.check()
    finally:
        w.close()
    setups = probes + [setup_s]
    metrics = {
        "tasks_per_s": median(phase.rates),
        "latency_p50_ms": median(phase.latencies) * 1e3,
        "submit_us_p50": median(phase.submits) * 1e6,
        "rss_fixed_work_mb": rss_fixed,
        "setup_s": median(setups),
    }
    details = {
        "tasks_per_s": f"median of {len(phase.rates)} samples "
                       f"(per batch on batch-pipe, else per second), "
                       f"{phase.done} tasks in {phase.end - phase.start:.1f} s",
        "latency": f"p50 {metrics['latency_p50_ms']:.3f} ms, "
                   f"p99 {pct(phase.latencies, 0.99) * 1e3:.3f} ms, n={len(phase.latencies)}",
        "submit": f"p50 {metrics['submit_us_p50']:.2f} us, "
                  f"p99 {pct(phase.submits, 0.99) * 1e6:.2f} us, n={len(phase.submits)}",
        "rss": f"{rss_setup:.1f} MB after set-up, {rss_fixed:.1f} MB after "
               f"{fixed.done} more tasks (+{rss_fixed - rss_setup:.1f} MB)",
        "setup_s": f"median of {len(setups)}: "
                   + ", ".join(f"{s:.4f}" for s in sorted(setups)),
    }
    phase.setups = setups
    return metrics, details, phase, attempted, failed


def traced_run(args):
    """Per-layer metrics.  The run is split in two equal phases on the same
    set-up, untraced then traced, whose rates give the tracing overhead;
    then a short phase under tracemalloc gives the bytes the pool retains
    per task."""
    import workloads
    from spans import Tracer, summarize, timing

    tracer = Tracer()
    w = workloads.WORKLOADS[args.workload](args.seed)
    try:
        tracer.install()
        try:
            w.setup()
            w.submit_first()
        finally:
            tracer.uninstall()
        setup_spans = tracer.take()
        remote = isinstance(w, workloads.RemoteFarm)
        # the base of remote_efficiency uses a payload of the mean size;
        # a small int gives the bare wire round trip
        raw_rtt = w.raw_rtt_s([0] * 128) if remote else []
        raw_rtt_int = w.raw_rtt_s(7) if remote else []
        half = args.seconds / 2
        base = w.run(seconds=half)
        tracer.install()
        try:
            traced = w.run(seconds=half, sample_live=True)
        finally:
            tracer.uninstall()
        # calls already inside a shim when it was removed end later; keep
        # only the traced phase's own
        spans = [s for s in tracer.take() if s[2] >= traced.start]

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            kept = w.run(count=w.retention_tasks)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        attempted, failed = w.check()
    finally:
        w.close()

    program = [tracemalloc.Filter(True, str(SRC / "mdflow" / "*"))]
    retained = sum(d.size_diff for d in after.filter_traces(program).compare_to(
        before.filter_traces(program), "filename"))

    metrics, details = summarize(spans, tracer.threads, traced.end - traced.start,
                                 traced.done)
    compile_us = sum(s[3] - s[2] for s in setup_spans if s[1].startswith("compiler.")) * 1e6
    untraced_tps, traced_tps = median(base.rates), median(traced.rates)
    rtt = timing(raw_rtt, 1e6)
    connections = getattr(w, "connections", 0)
    base_tps = connections / (rtt["p50"] / 1e6) if raw_rtt else 0.0
    metrics.update({
        "compiler.compile_us": compile_us,
        "taskpool.live_graphs_max": traced.live_max,
        "taskpool.retained_bytes_per_task": retained / max(kept.done, 1),
        "protocol.raw_rtt_us": rtt["p50"],
        "protocol.remote_efficiency": untraced_tps / base_tps if base_tps else 0.0,
        "manager.reconfigurations": traced.counts.get("reconfigurations", 0),
        "manager.escalations": traced.counts.get("escalations", 0),
        "trace.overhead_share": 1.0 - traced_tps / untraced_tps if untraced_tps else 0.0,
    })
    details.update({
        "tasks_per_s": {"untraced": untraced_tps, "traced": traced_tps},
        "protocol.raw_rtt_us": rtt,
        "protocol.raw_rtt_us_small_int": timing(raw_rtt_int, 1e6),
        "protocol.remote_efficiency_base_tasks_per_s": base_tps,
        "retention": {"tasks": kept.done, "bytes": retained},
    })
    OUT.mkdir(exist_ok=True)
    kept_spans = (setup_spans + spans)[:MAX_JSONL_SPANS]
    details["spans_written"] = len(kept_spans)
    tracer.write_jsonl(OUT / f"{args.workload}.spans.jsonl", kept_spans)
    with open(OUT / f"{args.workload}.layers.json", "w", encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "details": details}, fh, indent=2)
    return metrics, details, traced, attempted, failed


def run_record(args, phase, failed: int, attempted: int, ticks: list[int]) -> dict:
    """Validity of the run, kept with its result.  `ticks` are the CPU time
    counters of /proc/stat spent during the run."""
    from spans import pct

    lateness_p99_ms = pct(phase.lateness, 0.99) * 1e3 if phase.lateness else None
    problems = []
    if lateness_p99_ms is not None and lateness_p99_ms > MAX_LATENESS_P99_MS:
        problems.append(f"generator fell behind: lateness p99 {lateness_p99_ms:.2f} ms")
    if args.workload == "open-farm" and phase.counts != {"reconfigurations": 2, "escalations": 0}:
        problems.append(f"manager did not follow the script: {phase.counts}")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "arrivals_held_by_manager": phase.held,
        "trace": args.trace, "commit": git_commit(), "src_sha256": src_digest(),
        "nproc": os.cpu_count(), "cpus_used": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "generator_lateness_p99_ms": lateness_p99_ms,
        # share of CPU time the hypervisor gave to other machines
        "cpu_steal_share": ticks[7] / max(sum(ticks), 1) if len(ticks) > 7 else None,
        "failed_share": failed / max(attempted, 1),
        "setup_samples_s": phase.setups,
        "valid": not problems, "problems": problems,
        "time": time.time(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mdflow" / "__init__.py").is_file():
        print(f"no mdflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu(args.workload)
    ticks = cpu_ticks()
    if args.trace:
        metrics, details, phase, attempted, failed = traced_run(args)
    else:
        probes = setup_probes(args.workload, SETUP_PROBES)
        t0 = time.perf_counter()
        metrics, details, phase, attempted, failed = plain_run(args, t0, probes)

    for key, value in details.items():
        print(f"# {key}: {value if isinstance(value, str) else json.dumps(value)}")
    ticks = [b - a for a, b in zip(ticks, cpu_ticks())]
    record = run_record(args, phase, failed, attempted, ticks)
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"run_record": record, "metrics": metrics}) + "\n")
    print(json.dumps({"run_record": record}))
    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in units[kind]}
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
