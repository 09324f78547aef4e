"""Contracts, measures, plan selection, reconfiguration, control loop."""
import random

import pytest

from mdflow import codec
from mdflow.compiler import Seq, compile_skeleton
from mdflow.manager import (
    ContractExpressionError,
    Manager,
    ParDegree,
    Plan,
    QoSContract,
    RecruitmentFailed,
    SensorUnavailable,
    Throughput,
    UnmonitorableVariable,
    WouldEmptyPool,
    eval_expr,
    expr_variables,
    linear_scaling_plans,
    parse_contract,
)
from mdflow.ops import default_registry
from mdflow.runtime import Runtime
from mdflow.taskpool import TaskPool


def make_manager(n_workers=1, spares=(), plans=None, start=True):
    pool = TaskPool()
    runtime = Runtime(pool, default_registry())
    for _ in range(n_workers):
        runtime.recruit("local")
    if start:
        runtime.start()
    mgr = Manager(runtime, pool, recruit_specs=list(spares), plans=plans)
    return mgr, runtime, pool


# -- contract parsing and expressions ----------------------------------------

def test_parse_contract_forms():
    assert parse_contract("pardegree:8") == ParDegree(8)
    assert parse_contract("throughput:1.5") == Throughput(1.5)
    qos = parse_contract("qos: V=throughput; E=throughput>1.5")
    assert qos == QoSContract(("throughput",), "throughput>1.5")


def test_parse_contract_rejects_garbage():
    with pytest.raises(ContractExpressionError):
        parse_contract("speed:9000")
    with pytest.raises(ContractExpressionError):
        parse_contract("qos: V=a")


def test_expr_variables_and_eval():
    assert expr_variables("min(a, b) > c + 1") == {"a", "b", "c"}
    assert eval_expr("min(a, b) > c + 1", {"a": 5, "b": 4, "c": 2}) is True
    assert eval_expr("abs(x) >= 2", {"x": -3}) is True


def test_expr_rejects_unsafe_constructs():
    for bad in ["__import__('os')", "a.b", "open('/etc/passwd')", "[x for x in y]",
                "lambda: 1"]:
        with pytest.raises(ContractExpressionError):
            expr_variables(bad)


# -- set_contract / get_measure ----------------------------------------------

def test_set_contract_throughput_accepted():
    mgr, runtime, _ = make_manager(start=False)
    mgr.set_contract(Throughput(1.5))
    assert mgr.contract == Throughput(1.5)
    runtime.shutdown()


def test_set_contract_unmonitorable_variable():
    mgr, runtime, _ = make_manager(start=False)
    with pytest.raises(UnmonitorableVariable):
        mgr.set_contract(QoSContract(("FPS",), "latency > 3"))
    with pytest.raises(UnmonitorableVariable):
        mgr.set_contract(QoSContract(("FPS",), "FPS > 3"))  # FPS not a measure
    runtime.shutdown()


def test_get_measure_harmonization():
    mgr, runtime, _ = make_manager(start=False)
    mgr.register_measure("load", lambda: [0.4, 0.4, 0.4])
    assert mgr.get_measure("load") == pytest.approx(0.4)
    runtime.shutdown()


def test_get_measure_unregistered():
    mgr, runtime, _ = make_manager(start=False)
    with pytest.raises(SensorUnavailable):
        mgr.get_measure("latency")
    runtime.shutdown()


def test_throughput_measure_counts_emissions():
    mgr, runtime, pool = make_manager(n_workers=1)
    t = compile_skeleton(Seq("identity"))
    for i in range(20):
        pool.submit_task(t, codec.encode(i))
    assert pool.wait_quiescent(5)
    assert mgr.get_measure("throughput") == pytest.approx(20 / mgr.window_s)
    runtime.shutdown()


# -- check_contract -----------------------------------------------------------

def test_check_throughput():
    mgr, runtime, _ = make_manager(start=False)
    assert mgr.check_contract({"throughput": 3.5}, Throughput(1.5))[0] is True
    assert mgr.check_contract({"throughput": 1.2}, Throughput(1.5))[0] is False
    assert mgr.check_contract({"throughput": 1.5}, Throughput(1.5))[0] is False
    runtime.shutdown()


def test_check_pardegree_best_effort():
    mgr, runtime, _ = make_manager(n_workers=4, start=False)
    assert mgr.check_contract({"workers": 4}, ParDegree(4))[0] is True
    # 10 requested with only 4 recruitable: best-effort target is 4
    assert mgr.check_contract({"workers": 4}, ParDegree(10))[0] is True
    assert mgr.check_contract({"workers": 2}, ParDegree(4))[0] is False
    runtime.shutdown()


def test_check_qos_predicate():
    mgr, runtime, _ = make_manager(start=False)
    c = QoSContract(("throughput", "workers"), "throughput > 1.5 or workers >= 8")
    assert mgr.check_contract({"throughput": 1.0, "workers": 8}, c)[0] is True
    assert mgr.check_contract({"throughput": 1.0, "workers": 2}, c)[0] is False
    runtime.shutdown()


# -- select_plan --------------------------------------------------------------

def test_select_plan_linear_forecast():
    mgr, runtime, _ = make_manager(start=False)
    plans = linear_scaling_plans(max_add=2)
    bindings = {"throughput": 1.2, "workers": 4}
    best, verdicts = mgr.select_plan(plans, bindings, Throughput(1.5))
    # add(1): 1.2*5/4 = 1.5, not strictly greater; add(2): 1.2*6/4 = 1.8 > 1.5
    assert dict(verdicts) == {"add(1)": False, "add(2)": True}
    assert best.name == "add(2)"
    runtime.shutdown()


def test_select_plan_prefers_fewest_added_workers():
    mgr, runtime, _ = make_manager(start=False)
    plans = linear_scaling_plans(max_add=4)
    best, _ = mgr.select_plan(plans, {"throughput": 1.2, "workers": 2},
                              Throughput(1.5))
    assert best.name == "add(1)"  # 1.2*3/2 = 1.8 > 1.5, smallest k wins
    runtime.shutdown()


def test_select_plan_none_when_all_invalid():
    mgr, runtime, _ = make_manager(start=False)
    plans = linear_scaling_plans(max_add=2)
    best, verdicts = mgr.select_plan(plans, {"throughput": 0.1, "workers": 4},
                                     Throughput(1.5))
    assert best is None
    assert all(not ok for _, ok in verdicts)
    runtime.shutdown()


def test_select_plan_tie_breaks_first_declared():
    mgr, runtime, _ = make_manager(start=False)
    mk = lambda name: Plan(name, (("add_worker", 1),),
                           lambda b: {"throughput": 99.0})
    best, _ = mgr.select_plan([mk("first"), mk("second")],
                              {"throughput": 0.0, "workers": 1}, Throughput(1.5))
    assert best.name == "first"
    runtime.shutdown()


def test_select_plan_matches_brute_force_small():
    rng = random.Random(11)
    mgr, runtime, _ = make_manager(start=False)
    contract = QoSContract(("t", "w"), "t > 2.0")
    for _ in range(50):
        bindings = {"t": rng.uniform(0, 4), "w": rng.randint(1, 8)}
        plans = []
        for i in range(rng.randint(0, 5)):
            forecast_t = rng.uniform(0, 4)
            k = rng.randint(0, 3)
            plans.append(Plan(f"p{i}", (("add_worker", k),),
                              lambda b, ft=forecast_t: {"t": ft}))
        best, verdicts = mgr.select_plan(plans, bindings, contract)
        # independent brute force
        valid = [p for p in plans if p.forecast(bindings)["t"] > 2.0]
        expected = min(valid, key=lambda p: p.added_workers, default=None)
        assert (best.name if best else None) == (expected.name if expected else None)
        assert len(verdicts) == len(plans)
    runtime.shutdown()


# -- add_worker / remove_worker ----------------------------------------------

def test_add_worker_phase_order_and_count():
    mgr, runtime, _ = make_manager(n_workers=2, spares=["local"])
    assert mgr.add_worker(1) == 1
    assert runtime.active_count() == 3
    kinds = [e["kind"] for e in mgr.events.entries()
             if e["kind"] in ("stop", "new", "bind", "restart")]
    assert kinds == ["stop", "new", "bind", "restart"]
    runtime.shutdown()


def test_add_worker_no_resources():
    mgr, runtime, _ = make_manager(n_workers=2, spares=[])
    with pytest.raises(RecruitmentFailed) as exc_info:
        mgr.add_worker(1)
    assert exc_info.value.recruited == 0
    assert runtime.active_count() == 2  # pool unchanged
    runtime.shutdown()


def test_add_worker_partial_recruitment_keeps_gains():
    mgr, runtime, _ = make_manager(n_workers=1, spares=["local"])
    with pytest.raises(RecruitmentFailed) as exc_info:
        mgr.add_worker(3)
    assert exc_info.value.recruited == 1
    assert runtime.active_count() == 2
    runtime.shutdown()


def test_remove_worker():
    mgr, runtime, _ = make_manager(n_workers=3)
    assert mgr.remove_worker(1) == 1
    assert runtime.active_count() == 2
    with pytest.raises(WouldEmptyPool):
        mgr.remove_worker(2)
    runtime.shutdown()


def test_removed_workers_return_to_spares():
    mgr, runtime, _ = make_manager(n_workers=3)
    mgr.remove_worker(1)
    assert mgr.add_worker(1) == 1  # the freed spec is recruitable again
    assert runtime.active_count() == 3
    runtime.shutdown()


# -- control_tick -------------------------------------------------------------

def scripted_manager(throughput_values, spares=("local",), plans=None):
    """Manager whose throughput measure replays a scripted series."""
    mgr, runtime, pool = make_manager(n_workers=2, spares=list(spares), plans=plans)
    script = {"values": list(throughput_values), "pos": 0}

    def collector():
        i = min(script["pos"], len(script["values"]) - 1)
        script["pos"] += 1
        return [script["values"][i]]

    mgr.register_measure("throughput", collector)
    return mgr, runtime


def test_tick_satisfied_no_action():
    mgr, runtime = scripted_manager([3.5, 3.5, 3.5])
    mgr.set_contract(Throughput(1.5))
    for _ in range(3):
        mgr.control_tick()
    assert mgr.events.entries("add_worker") == []
    assert mgr.events.entries("violation") == []
    runtime.shutdown()


def test_tick_violation_acts_once_per_episode():
    mgr, runtime = scripted_manager([1.2] * 6, spares=["local", "local"])
    mgr.set_contract(Throughput(1.5))
    for _ in range(6):
        mgr.control_tick()
    # one violation episode -> exactly one reconfiguration despite 6 bad ticks
    assert len(mgr.events.entries("add_worker")) == 1
    assert len(mgr.events.entries("violation")) == 1
    runtime.shutdown()


def test_tick_new_episode_after_recovery():
    mgr, runtime = scripted_manager([1.2, 3.0, 3.0, 3.0, 1.2, 1.2],
                                    spares=["local", "local"])
    mgr.set_contract(Throughput(1.5))
    for _ in range(6):
        mgr.control_tick()
    assert len(mgr.events.entries("violation")) == 2
    assert len(mgr.events.entries("add_worker")) == 2
    runtime.shutdown()


def test_tick_escalates_when_no_plan_valid():
    # forecasts can never cross the bar: no spares and a hopeless plan set
    hopeless = [Plan("noop", (("rebind", 0),), lambda b: {})]
    mgr, runtime = scripted_manager([0.1] * 4, spares=[], plans=hopeless)
    seen = []
    mgr.escalation_cb = seen.append
    mgr.set_contract(Throughput(1.5))
    for _ in range(4):
        mgr.control_tick()
    assert len(mgr.escalations) == 1  # once per episode
    assert len(seen) == 1
    assert seen[0].contract == Throughput(1.5)
    runtime.shutdown()


def test_pardegree_enforcement_scales_up_and_down():
    mgr, runtime, _ = make_manager(n_workers=1, spares=["local", "local", "local"])
    mgr.set_contract(ParDegree(3))
    mgr.control_tick()
    assert runtime.active_count() == 3
    for _ in range(3):
        mgr.control_tick()  # satisfied ticks drain the cooldown
    mgr.set_contract(ParDegree(2))
    mgr.control_tick()
    assert runtime.active_count() == 2
    runtime.shutdown()


def test_pardegree_best_effort_degrades():
    mgr, runtime, _ = make_manager(n_workers=2, spares=["local"])
    mgr.set_contract(ParDegree(10))  # accepted: best-effort degree is 3
    mgr.control_tick()
    assert runtime.active_count() == 3
    ok, _ = mgr.check_contract({"workers": 3}, ParDegree(10))
    assert ok
    runtime.shutdown()
