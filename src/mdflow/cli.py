"""Command line entry points.

    mdflow run --program 'farm(seq:f)' --tasks 100 --workers local:4 ...
    mdflow worker --port 7000
    mdflow bench-grain --grains 3,70,200 --workers 1..8 --out grain.csv
    mdflow bench-adapt --config adapt.cfg
    mdflow oracle --program 'pipe(seq:f,seq:g)' --in tasks.json --out results.json

`run` turns its flags into `key = value` pairs and `bench-adapt` reads them
from its config file; both build their config with
`ExperimentConfig.from_pairs`, so the two share one key list.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
import threading

from .harness import (
    EXIT_INFRA,
    ExperimentConfig,
    bench_adapt,
    bench_grain,
    grain_csv,
    parse_config_file,
    run_experiment,
    run_oracle,
)
from .ops import default_registry
from .protocol import WorkerServer


def _parse_range(spec: str) -> list[int]:
    values = []
    for part in spec.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            values.extend(range(int(lo), int(hi) + 1))
        elif part:
            values.append(int(part))
    return values


def _script_lines(path: str, key: str) -> list[tuple[str, str]]:
    return [pair for pair in parse_config_file(path) if pair[0] == key] if path else []


def cmd_run(args: argparse.Namespace) -> int:
    pairs = [("program", args.program), ("tasks", str(args.tasks)),
             ("grain", str(args.grain)), ("comm", str(args.comm)),
             ("workers", args.workers), ("spares", args.spares),
             ("contract", args.contract), ("normalize", str(args.normalize))]
    pairs += _script_lines(args.faults, "kill") + _script_lines(args.overload, "overload")
    try:
        report = run_experiment(ExperimentConfig.from_pairs(pairs))
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_INFRA
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    print(f"emitted {report.emitted}/{report.tasks} in {report.completion_ms:.0f} ms"
          + (f", efficiency {report.efficiency:.3f}" if report.efficiency else ""))
    return report.exit_code


def cmd_worker(args: argparse.Namespace) -> int:
    registry = default_registry(args.grain)
    try:
        server = WorkerServer(registry, host=args.host, port=args.port)
    except OSError as exc:
        print(f"bind failed: {exc}", file=sys.stderr)
        return EXIT_INFRA
    done = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: done.set())
    print(f"worker listening on {server.host}:{server.port}")
    server.start()
    done.wait()
    server.stop()  # drains per-connection work, then exits
    return 0


def cmd_bench_grain(args: argparse.Namespace) -> int:
    grains = [float(g) for g in args.grains.split(",")]
    workers = _parse_range(args.workers)
    rows = bench_grain(grains, workers, tasks=args.tasks, comm_delay_ms=args.comm)
    csv = grain_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
    else:
        print(csv, end="")
    return 0


#: bench-adapt's defaults where they differ from ExperimentConfig's
_ADAPT_DEFAULTS = [("tasks", "1000"), ("workers", "local:2"), ("spares", "local:4")]


def cmd_bench_adapt(args: argparse.Namespace) -> int:
    pairs = parse_config_file(args.config)
    report = bench_adapt(ExperimentConfig.from_pairs(_ADAPT_DEFAULTS + pairs))
    doc = {
        "throughput_series": report.throughput_series,
        "worker_series": report.worker_series,
        "reconfigurations": report.reconfigurations,
        "escalations": report.escalations,
        "emitted": report.emitted,
    }
    out = dict(pairs).get("out", args.out)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    print(f"emitted {report.emitted}, reconfigurations {len(report.reconfigurations)}, "
          f"escalations {len(report.escalations)}")
    return 2 if report.escalations else 0


def cmd_oracle(args: argparse.Namespace) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        inputs = json.load(fh)
    results = run_oracle(args.program, inputs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in sorted(results.items())}, fh, indent=2)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mdflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="compile and run a program on a worker pool")
    p.add_argument("--program", required=True)
    p.add_argument("--tasks", type=int, default=100)
    p.add_argument("--grain", type=float, default=0.0, help="compute ms per task")
    p.add_argument("--comm", type=float, default=0.0, help="injected dispatch delay ms")
    p.add_argument("--workers", default="local:2")
    p.add_argument("--spares", default="", help="manager recruitment reserve")
    p.add_argument("--contract", default="")
    p.add_argument("--normalize", action="store_true")
    p.add_argument("--faults", default="", help="fault script file")
    p.add_argument("--overload", default="", help="overload script file")
    p.add_argument("--out", default="", help="report JSON path")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("worker", help="start a remote worker daemon")
    p.add_argument("--host", default="0.0.0.0")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--grain", type=float, default=0.0)
    p.set_defaults(fn=cmd_worker)

    p = sub.add_parser("bench-grain", help="grain/efficiency sweep, CSV output")
    p.add_argument("--grains", default="3,70,200")
    p.add_argument("--workers", default="1..8")
    p.add_argument("--tasks", type=int, default=1000)
    p.add_argument("--comm", type=float, default=1.0)
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_bench_grain)

    p = sub.add_parser("bench-adapt", help="self-optimization scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_bench_adapt)

    p = sub.add_parser("oracle", help="sequential oracle evaluation")
    p.add_argument("--program", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_oracle)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
