#!/usr/bin/env python3
"""Compare a parent and a change on the benchmark, in alternating pairs.

    python3 bench/compare.py run PARENT_DIR CHANGE_DIR [--pairs 10] [--out pairs.jsonl]
    python3 bench/compare.py report pairs.jsonl

`run` runs each workload once on each side per pair, alternating which
side goes first, with a fresh seed per pair shared by both sides.  Each
side runs the benchmark from its own checkout root (a change that claims a
gain does not edit the benchmark, so the code is the same).  Results go to
a JSONL file, one line per run, and are then reported.

`report` gives, per workload and end-to-end metric: each side's median and
quartiles, the share of all pairs run that the change won (ties count for
neither; a pair whose change run was left out counts as lost), the
relative difference of the medians, and a verdict:

    regression    the change failed more outputs than the parent on this
                  workload (summed over its runs), or its median is worse
                  by more than the metric's bound
    unresolved    a side's quartile spread is wider than the metric's bound,
                  and not every change run beats every parent run
    gain          at least 10 pairs, the change won at least 9 in 10 of
                  them, and the medians differ by more than the parent's
                  quartile spread
    within bound  otherwise
    not gated     `tasks_per_s` on an open-loop workload, where it is the
                  seeded arrival rate, not the program's

Runs that did not finish, were marked invalid or whose outputs failed the
oracle are left out of the medians and counted; their `failed` and
`attempted` still count.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_one(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(root), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])["run_record"]}


def cmd_run(args, bench: dict) -> list[dict]:
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    records = []
    with open(args.out, "a", encoding="utf-8") as fh:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    rec = {"pair": pair, "side": side, "workload": workload, "seed": seed,
                           **run_one(sides[side], workload, seed, args.seconds)}
                    fh.write(json.dumps(rec) + "\n")
                    fh.flush()
                    records.append(rec)
                    print(f"pair {pair} {workload} {side}: "
                          f"{'ok' if 'result' in rec else rec['error']}", file=sys.stderr)
    return records


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


#: workloads whose rate is set by the seeded arrivals, not by the program
OPEN_LOOP = {"open-farm"}


def report(records: list[dict], bench: dict) -> list[dict]:
    usable: dict[tuple[str, str], dict[int, dict]] = {}
    dropped: dict[tuple[str, str], int] = {}
    failed: dict[tuple[str, str], list[int]] = {}
    pairs_run: dict[str, set[int]] = {}
    for rec in records:
        key = (rec["workload"], rec["side"])
        pairs_run.setdefault(rec["workload"], set()).add(rec["pair"])
        res, run = rec.get("result"), rec.get("record")
        counts = failed.setdefault(key, [0, 0])
        if res is not None:
            counts[0] += res["failed"]
            counts[1] += res["attempted"]
        if res is None or not res["correct"] or not run["valid"]:
            dropped[key] = dropped.get(key, 0) + 1
            continue
        usable.setdefault(key, {})[rec["pair"]] = res["metrics"]

    rows = []
    for workload in sorted(pairs_run):
        parent = usable.get((workload, "parent"), {})
        change = usable.get((workload, "change"), {})
        p_failed, _ = failed.get((workload, "parent"), [0, 0])
        c_failed, _ = failed.get((workload, "change"), [0, 0])
        n_pairs = len(pairs_run[workload])
        for m in bench["end_to_end"]:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            p = [r[name]["value"] for r in parent.values()]
            c = [r[name]["value"] for r in change.values()]
            if not p or not c:
                rows.append({"workload": workload, "metric": name, "verdict":
                             "regression" if c_failed > p_failed or not c else "unresolved",
                             "failed": {"parent": p_failed, "change": c_failed}})
                continue
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)

            def better(a: float, b: float) -> bool:
                return a > b if higher else a < b

            wins = sum(better(change[i][name]["value"], parent[i][name]["value"])
                       for i in set(parent) & set(change))
            share = wins / n_pairs
            worse_by = (pm - cm) / pm if higher else (cm - pm) / pm
            spread = max((p3 - p1) / pm, (c3 - c1) / cm)
            every_run_better = better(min(c), max(p)) if higher else better(max(c), min(p))
            if name == "tasks_per_s" and workload in OPEN_LOOP:
                verdict = "not gated"
            elif c_failed > p_failed or worse_by > bound:
                verdict = "regression"
            elif spread > bound and not every_run_better:
                verdict = "unresolved"
            elif n_pairs >= 10 and share >= 0.9 and abs(cm - pm) > (p3 - p1):
                verdict = "gain"
            else:
                verdict = "within bound"
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"], "bound": bound,
                "parent": {"median": pm, "q1": p1, "q3": p3, "n": len(p)},
                "change": {"median": cm, "q1": c1, "q3": c3, "n": len(c)},
                "change_won_share": share, "pairs": n_pairs,
                "relative_change": (cm - pm) / pm, "spread": spread,
                "failed": {"parent": p_failed, "change": c_failed}, "verdict": verdict,
            })
    for r in rows:
        if "parent" not in r:
            print(f"{r['workload']:17s} {r['metric']:17s} no usable runs on a side  "
                  f"{r['verdict']}")
            continue
        print(f"{r['workload']:17s} {r['metric']:17s} "
              f"parent {r['parent']['median']:10.4g} [{r['parent']['q1']:.4g}, {r['parent']['q3']:.4g}]  "
              f"change {r['change']['median']:10.4g} [{r['change']['q1']:.4g}, {r['change']['q3']:.4g}]  "
              f"won {r['change_won_share']:4.0%} of {r['pairs']}  "
              f"{r['relative_change']:+7.2%}  bound {r['bound']:.0%}  {r['verdict']}")
    for (workload, side), (n_failed, n_attempted) in sorted(failed.items()):
        print(f"{workload} {side}: {n_failed} of {n_attempted} outputs failed, "
              f"{dropped.get((workload, side), 0)} runs left out")
    print(json.dumps({"rows": rows, "failed": {f"{w}/{s}": v for (w, s), v in failed.items()},
                      "dropped": {f"{w}/{s}": n for (w, s), n in dropped.items()}}))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="parent/change comparison in alternating pairs")
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("parent")
    r.add_argument("change")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1000)
    r.add_argument("--workloads", default="")
    r.add_argument("--out", default="pairs.jsonl")
    rep = sub.add_parser("report")
    rep.add_argument("file")
    args = p.parse_args(argv)
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    if args.command == "run":
        args.seconds = bench["run_seconds"]
        records = cmd_run(args, bench)
    else:
        with open(args.file, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    report(records, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
