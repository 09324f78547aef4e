"""Command line entry points.

    mdflow run --program 'farm(seq:f)' --tasks 100 --workers local:4 ...
    mdflow worker --port 7000
    mdflow bench-grain --grains 3,70,200 --workers 1..8 --out grain.csv
    mdflow bench-adapt --config adapt.cfg
    mdflow oracle --program 'pipe(seq:f,seq:g)' --in tasks.json --out results.json

`run` and `bench-adapt` read their defaults, then their `--config` file,
then the flags given, as `key = value` pairs with one key list
(`ExperimentConfig.from_pairs`).  Both run the program's normal form
(`compiler.normalize`): the same results, fewer dispatches per task, and
both write one report, `RunReport.to_json()`, and exit with its code.  A
file, config or program a command cannot use (an unknown key, a bad or
out-of-range value) exits 3 with one line on stderr, for a run before any
worker is recruited.
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
    RunReport,
    bench_adapt,
    bench_grain,
    grain_csv,
    parse_config_file,
    run_experiment,
    run_oracle,
)
from .core import MdfError
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


def _load_config(args: argparse.Namespace, defaults: list[tuple[str, str]],
                 flags: tuple[str, ...]) -> tuple[ExperimentConfig, str]:
    """The config and the report path (key `out`) from `defaults`, the
    `--config` file's pairs, then each of `flags` given; later ones win."""
    pairs = defaults + (parse_config_file(args.config) if args.config else [])
    pairs += [(key, getattr(args, key)) for key in flags if getattr(args, key) is not None]
    out = [value for key, value in pairs if key == "out"]
    if None in out:
        raise ValueError("no '=' after out")
    config = ExperimentConfig.from_pairs([pair for pair in pairs if pair[0] != "out"])
    return config, out[-1] if out else ""


#: run's defaults where they differ from ExperimentConfig's, and its flags,
#: each named after the key it sets
_RUN_DEFAULTS = [("workers", "local:2")]
_RUN_FLAGS = ("program", "tasks", "grain", "comm", "workers", "spares", "contract", "out")


def _finish(report: RunReport, out: str) -> int:
    """Write the report to `out` (when given), print its summary and return
    its exit code."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    reconfigurations = sum(e["kind"] in ("add_worker", "remove_worker") for e in report.events)
    print(f"emitted {report.emitted}/{report.tasks} in {report.completion_ms:.0f} ms"
          + (f", efficiency {report.efficiency:.3f}" if report.efficiency else "")
          + f", reconfigurations {reconfigurations}"
          + (", escalated" if report.escalated else ""))
    return report.exit_code


def cmd_run(args: argparse.Namespace) -> int:
    config, out = _load_config(args, _RUN_DEFAULTS, _RUN_FLAGS)
    return _finish(run_experiment(config), out)


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
    server.stop()  # closes the listener and every open connection
    return 0


def cmd_bench_grain(args: argparse.Namespace) -> int:
    grains = [float(g) for g in args.grains.split(",")]
    workers = _parse_range(args.workers)
    # a grain of 0 has no efficiency to report, and a row with no worker never drains
    if not all(grain > 0 for grain in grains):
        raise ValueError(f"every grain must be greater than 0: {args.grains}")
    if not all(count >= 1 for count in workers):
        raise ValueError(f"every worker count must be at least 1: {args.workers}")
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
    config, out = _load_config(args, _ADAPT_DEFAULTS, ("out",))
    return _finish(bench_adapt(config), out)


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
    p.add_argument("--config", help="key = value file; a flag given overrides its key")
    p.add_argument("--program")
    p.add_argument("--tasks")
    p.add_argument("--grain", help="compute ms per task")
    p.add_argument("--comm", help="injected dispatch delay ms")
    p.add_argument("--workers", help="initial worker specs (default local:2)")
    p.add_argument("--spares", help="manager recruitment reserve")
    p.add_argument("--contract")
    p.add_argument("--out", help="report JSON path")
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
    p.add_argument("--out", help="report JSON path; overrides the file's out")
    p.set_defaults(fn=cmd_bench_adapt)

    p = sub.add_parser("oracle", help="sequential oracle evaluation")
    p.add_argument("--program", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, MdfError) as exc:
        # a file, config or program the command cannot use: one line, exit 3
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
