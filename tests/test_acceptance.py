"""End-to-end acceptance suite.

Each test checks one acceptance criterion at its stated tolerance and
prints one pass/fail line (run with `pytest tests/test_acceptance.py -v -s`
to see the lines as they complete).
"""
import collections
import random
import sys
import time

import pytest

from mdflow import codec
from mdflow.compiler import Farm, Pipe, Seq, compile_skeleton, normalize
from mdflow.core import canonical_renumber, dump
from mdflow.harness import ExperimentConfig, bench_adapt, run_experiment, run_oracle
from mdflow.manager import Manager, Plan, QoSContract, Throughput, eval_expr
from mdflow.ops import default_registry
from mdflow.oracle import eval_graph
from mdflow.protocol import WorkerClient, WorkerServer
from mdflow.runtime import OpcodeManifestMismatch, Runtime
from mdflow.taskpool import TaskPool
from mdflow.workflow import WorkflowEngine

from conftest import random_skeleton


def report(num: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}",
          file=sys.stderr, flush=True)
    assert ok, f"criterion {num} ({name}) failed"


# -- 1. compiler golden test ---------------------------------------------------

def test_criterion_01_compiler_golden():
    g = compile_skeleton(Pipe(Farm(Seq("f")), Farm(Seq("g"))))
    text = dump(canonical_renumber(g))
    ok = text == "1 1 f [_] -> [(1,2,1)]\n2 1 g [_] -> [OUT]\n"
    report(1, "compiler golden dump", ok)


# -- 2. normal-form equivalence --------------------------------------------------

def test_criterion_02_normal_form_equivalence():
    rng = random.Random(2024)
    reg = default_registry()
    t0 = time.monotonic()
    ok = True
    for _ in range(200):
        s = random_skeleton(rng, 6)
        g1 = compile_skeleton(s)
        g2 = compile_skeleton(normalize(s))
        stream = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(0, 64))]
        out1 = collections.Counter(eval_graph(g1, x, reg) for x in stream)
        out2 = collections.Counter(eval_graph(g2, x, reg) for x in stream)
        if out1 != out2:
            ok = False
            break
    elapsed = time.monotonic() - t0
    report(2, "normal-form equivalence", ok and elapsed < 60)


# -- 3. grain/efficiency reproduction -------------------------------------------

def _efficiency(grain_ms: float, workers: int, tasks: int = 1000) -> float:
    config = ExperimentConfig(program="farm(seq:work)", tasks=tasks,
                              grain_ms=grain_ms, comm_delay_ms=1.0,
                              workers=["local"] * workers)
    rep = run_experiment(config)
    assert rep.emitted == tasks
    return rep.efficiency


def test_criterion_03_grain_efficiency_bands():
    t0 = time.monotonic()
    eps = 0.03  # timer-noise tolerance on monotonicity
    fine = {w: _efficiency(3.0, w) for w in (1, 2, 4, 8)}
    coarse = {w: _efficiency(200.0, w) for w in (4, 8)}
    elapsed = time.monotonic() - t0
    fine_series = [fine[w] for w in (1, 2, 4, 8)]
    coarse_series = [coarse[w] for w in (4, 8)]
    checks = {
        "coarse grain near ideal at 8 workers": coarse[8] >= 0.90,
        "fine grain poor at 4 workers": fine[4] <= 0.75,
        "fine grain poor at 8 workers": fine[8] <= 0.75,
        "fine grain non-increasing": all(
            b <= a + eps for a, b in zip(fine_series, fine_series[1:])),
        "coarse grain non-increasing": all(
            b <= a + eps for a, b in zip(coarse_series, coarse_series[1:])),
        "under 10 minutes": elapsed < 600,
    }
    print(f"  grain=3: {fine}  grain=200: {coarse}  ({elapsed:.0f}s)",
          file=sys.stderr, flush=True)
    report(3, "grain/efficiency bands", all(checks.values()))
    assert all(checks.values()), checks


# -- 4. fault tolerance ----------------------------------------------------------

def test_criterion_04_fault_tolerance():
    program = "pipe(farm(seq:f),farm(seq:g))"
    tasks, workers, grain = 1000, 8, 15.0
    expected_s = tasks * 2 * grain / 1000.0 / workers
    config = ExperimentConfig(
        program=program, tasks=tasks, grain_ms=grain, workers=["local"] * workers,
        fault_script=[(0.25 * expected_s, 0), (0.50 * expected_s, 1)],
        drain_timeout_s=300.0)
    t0 = time.monotonic()
    rep = run_experiment(config)
    elapsed = time.monotonic() - t0
    oracle = run_oracle(program, list(range(tasks)))
    ok = (rep.emitted == tasks and rep.failures == 0
          and rep.results == oracle and elapsed < 300)
    report(4, "fault tolerance", ok)


# -- 5. self-optimization --------------------------------------------------------

def test_criterion_05_self_optimization():
    tick_s, overload_t = 1.0, 16.0
    config = ExperimentConfig(
        program="farm(seq:work)", tasks=400, grain_ms=3000.0,
        workers=["local"] * 6, spare_workers=["local"] * 4,
        contract=Throughput(1.5), window_s=10.0, tick_s=tick_s,
        contract_delay_s=12.0, run_duration_s=70.0,
        overload_script=[(overload_t, i, 4.0) for i in range(3)])
    rep = bench_adapt(config)

    ticks = [e for e in rep.events if e["kind"] == "tick"]
    violations = [e for e in rep.events if e["kind"] == "violation"]
    adds = [e for e in rep.events if e["kind"] == "add_worker"]
    below = [e for e in ticks if e["detail"]["bindings"]["throughput"] <= 1.5]

    detected_fast = bool(below) and bool(violations) and \
        violations[0]["ts"] - below[0]["ts"] <= 2 * tick_s + 0.5
    acted = len(adds) >= 1
    # measured throughput re-crosses the contract threshold within 60 s of
    # the overload and stays there at the end of the run
    recross = [t for t, rate, _ in rep.samples
               if t > overload_t and rate > 1.5 and
               any(t2 < t and r2 <= 1.5 for t2, r2, _ in rep.samples
                   if t2 > overload_t)]
    recovered = bool(recross) and recross[0] - overload_t <= 60.0
    # zero reconfigurations while satisfied: every add_worker happens inside
    # a violation episode (the latest tick before it was unsatisfied)
    quiet_when_satisfied = all(
        [t for t in ticks if t["ts"] <= e["ts"]] and
        not [t for t in ticks if t["ts"] <= e["ts"]][-1]["detail"]["satisfied"]
        for e in adds)
    no_escalation = not rep.escalated
    checks = {"detected within 2 ticks": detected_fast, "add_worker fired": acted,
              "recovered within 60s": recovered,
              "no reconfig while satisfied": quiet_when_satisfied,
              "no escalation": no_escalation}
    print(f"  adds={len(adds)} violations={len(violations)} checks={checks}",
          file=sys.stderr, flush=True)
    report(5, "self-optimization", all(checks.values()))
    assert all(checks.values()), checks


# -- 6. add_worker protocol conformance ------------------------------------------

def test_criterion_06_add_worker_protocol():
    reg = default_registry(grain_ms=5.0)
    pool = TaskPool()
    runtime = Runtime(pool, reg)
    for _ in range(2):
        runtime.recruit("local")
    runtime.start()
    mgr = Manager(runtime, pool, recruit_specs=["local"])
    template = compile_skeleton(Farm(Seq("work")))
    for i in range(300):
        pool.submit_task(template, codec.encode(i))
    time.sleep(0.2)  # dispatches flowing
    mgr.add_worker(1)
    time.sleep(0.2)
    pool.wait_quiescent(30)
    runtime.shutdown()

    phases = [e for e in mgr.events.entries()
              if e["kind"] in ("stop", "new", "bind", "restart")]
    order_ok = [e["kind"] for e in phases] == ["stop", "new", "bind", "restart"]
    pause_ts = next(e["detail"]["pause_ts"] for e in phases if e["kind"] == "stop")
    resume_ts = next(e["detail"]["resume_ts"] for e in phases if e["kind"] == "restart")
    # one instruction per graph and no kills: one dispatch per record
    dispatches = [r.dispatch_ts for r in pool.results]
    inside = [t for t in dispatches if pause_ts < t < resume_ts]
    report(6, "add_worker protocol", len(dispatches) == 300 and order_ok
           and not inside and resume_ts > pause_ts)


# -- 7. plan selection oracle -----------------------------------------------------

def test_criterion_07_plan_selection_oracle():
    rng = random.Random(7)
    pool = TaskPool()
    runtime = Runtime(pool, default_registry())
    mgr = Manager(runtime, pool)
    var_pool = ["a", "b", "c", "throughput"]
    t0 = time.monotonic()
    escalation_cases = 0
    for _ in range(500):
        variables = rng.sample(var_pool, rng.randint(1, 3))
        v1 = rng.choice(variables)
        v2 = rng.choice(variables)
        predicate = rng.choice([
            f"{v1} > {rng.uniform(-2, 2):.3f}",
            f"{v1} + {v2} >= {rng.uniform(-2, 2):.3f}",
            f"min({v1}, {v2}) > {rng.uniform(-2, 2):.3f}",
            f"abs({v1}) <= {rng.uniform(0, 3):.3f}",
        ])
        contract = QoSContract(tuple(variables), predicate)
        bindings = {v: rng.uniform(-3, 3) for v in variables}
        plans = []
        for i in range(rng.randint(0, 6)):
            overrides = {v: rng.uniform(-3, 3)
                         for v in rng.sample(variables, rng.randint(0, len(variables)))}
            k = rng.randint(0, 4)
            actions = (("add_worker", k),) if k else (("rebind", 0),)
            plans.append(Plan(f"plan{i}", actions, lambda b, o=overrides: dict(o)))

        best, verdicts = mgr.select_plan(plans, bindings, contract)

        # independent brute force over forecast-overridden bindings
        expected = None
        expected_verdicts = []
        for plan in plans:
            updated = dict(bindings)
            updated.update(plan.forecast(bindings))
            valid = bool(eval_expr(predicate, updated))
            expected_verdicts.append((plan.name, valid))
            if valid and (expected is None or plan.added_workers < expected.added_workers):
                expected = plan
        if expected is None:
            escalation_cases += 1
        assert verdicts == expected_verdicts
        assert (best.name if best else None) == (expected.name if expected else None)
    elapsed = time.monotonic() - t0
    runtime.shutdown()
    report(7, "plan selection oracle",
           elapsed < 30 and escalation_cases > 0)


# -- 8. workflow diamond ----------------------------------------------------------

def test_criterion_08_workflow_diamond():
    reg = default_registry()
    reg.register("g1", lambda x: x + 1, cost_ms=500.0)
    reg.register("g2", lambda x: x * 2, cost_ms=500.0)
    pool = TaskPool()
    runtime = Runtime(pool, reg)
    for _ in range(2):
        runtime.recruit("local")
    runtime.start()
    engine = WorkflowEngine(pool, reg)

    x = 5
    t0 = time.monotonic()
    f = engine.submit("split2", [x])
    a = engine.submit("g1", [f.part(0)])
    b = engine.submit("g2", [f.part(1)])
    h = engine.submit("add2", [a, b])
    value = h.get_value(8)
    elapsed = time.monotonic() - t0
    runtime.shutdown()

    expected = (x + 1) + ((x + 1) * 2)  # g1(F[0]) + g2(F[1])
    # pool seq 0 is split2, 1 and 2 are the g1 and g2 calls, 3 is add2
    spans = {r.seq: (r.dispatch_ts, r.complete_ts) for r in pool.results}
    (a0, a1), (b0, b1) = spans[1], spans[2]
    overlap = max(a0, b0) < min(a1, b1)
    print(f"  elapsed={elapsed:.3f}s overlap={overlap}", file=sys.stderr, flush=True)
    report(8, "workflow diamond", value == expected and overlap and elapsed < 1.6)


# -- 9. submission overhead budget -------------------------------------------------

def test_criterion_09_submission_overhead():
    reg = default_registry()
    pool = TaskPool()
    runtime = Runtime(pool, reg)
    for _ in range(2):
        runtime.recruit("local")
    runtime.start()
    engine = WorkflowEngine(pool, reg)
    futures, lat = [], []
    for i in range(10_000):
        t0 = time.perf_counter()
        futures.append(engine.submit("identity", [i]))
        lat.append(time.perf_counter() - t0)
    for fut in futures[-1:]:
        fut.get_value(60)
    pool.wait_quiescent(60)
    runtime.shutdown()
    lat.sort()
    median_ms = lat[len(lat) // 2] * 1000.0
    print(f"  median submit bookkeeping: {median_ms:.4f} ms", file=sys.stderr,
          flush=True)
    report(9, "submission overhead", median_ms < 1.0)


# -- 10. wire-protocol round trip ---------------------------------------------------

def test_criterion_10_wire_round_trip():
    rng = random.Random(10)
    server = WorkerServer(default_registry()).start()
    client = WorkerClient(server.host, server.port)
    failures = 0
    t0 = time.monotonic()
    for i in range(1000):
        value = [i, rng.random(), "s" * rng.randint(0, 20),
                 bytes(rng.randrange(256) for _ in range(rng.randint(0, 32)))]
        payload = codec.encode(value)
        try:
            out = client.execute("echo", [payload], deadline_s=5.0)
        except Exception:
            failures += 1
            continue
        if out != [payload]:
            failures += 1
    elapsed = time.monotonic() - t0
    client.close()

    mismatch_rejected = False
    try:
        runtime = Runtime(TaskPool(), default_registry(),
                          required_opcodes=["unpublished_op"])
        runtime.recruit((server.host, server.port))
    except OpcodeManifestMismatch:
        mismatch_rejected = True
    server.stop()
    report(10, "wire-protocol round trip",
           failures == 0 and mismatch_rejected and elapsed < 30)
