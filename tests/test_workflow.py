"""Futures frontend: submission, readiness, DAGs, streams, workflow files."""
import random
import time

import pytest

from mdflow.core import ArityMismatch, UnknownOpcode
from mdflow.ops import default_registry
from mdflow.oracle import eval_workflow
from mdflow.runtime import Runtime
from mdflow.taskpool import TaskPool
from mdflow.workflow import (
    Future,
    FutureTimeout,
    UpstreamFailed,
    WorkflowEngine,
    WorkflowFileError,
    load_workflow,
)


@pytest.fixture
def engine():
    reg = default_registry()
    reg.register("boom", lambda x: 1 // 0)
    reg.register("slow", lambda x: time.sleep(0.3) or x, cost_ms=0.0)
    pool = TaskPool()
    runtime = Runtime(pool, reg, required_opcodes=[])
    for _ in range(2):
        runtime.recruit("local")
    runtime.start()
    eng = WorkflowEngine(pool, reg)
    yield eng
    runtime.shutdown()


def test_submit_identity(engine):
    assert engine.submit("identity", [42]).get_value(5) == 42


def test_submit_returns_pending_future(engine):
    fut = engine.submit("slow", [1])
    assert not fut.is_ready()  # returned before the opcode executed
    assert fut.get_value(5) == 1
    assert fut.is_ready()


def test_is_ready_never_flips_back(engine):
    fut = engine.submit("identity", [7])
    fut.get_value(5)
    for _ in range(50):
        assert fut.is_ready()


def test_get_value_repeated_calls_identical(engine):
    fut = engine.submit("inc", [1])
    assert fut.get_value(5) == fut.get_value(5) == 2


def test_get_value_timeout():
    fut = Future()
    with pytest.raises(FutureTimeout):
        fut.get_value(0.01)


def test_unknown_opcode(engine):
    with pytest.raises(UnknownOpcode):
        engine.submit("nope", [1])


def test_arity_mismatch(engine):
    with pytest.raises(ArityMismatch):
        engine.submit("add2", [1])


def test_diamond_dag(engine):
    x, y = 5, 3
    res_f = engine.submit("split2", [x])          # F(x) = (x, x+1)
    g1 = engine.submit("inc", [res_f.part(0)])    # G1 = F(x)[0] + 1
    g2 = engine.submit("add2", [res_f.part(1), y])
    h = engine.submit("add2", [g1, g2])
    assert h.get_value(10) == (x + 1) + (x + 1 + y)


def test_dependency_chain_of_ten(engine):
    fut = engine.submit("identity", [99])
    for _ in range(10):
        fut = engine.submit("identity", [fut])
    assert fut.get_value(10) == 99


def test_upstream_failure_propagates(engine):
    bad = engine.submit("boom", [1])
    dependent = engine.submit("inc", [bad])
    with pytest.raises(UpstreamFailed):
        dependent.get_value(10)
    with pytest.raises(UpstreamFailed):
        bad.get_value(10)


def test_part_out_of_range_fails(engine):
    f = engine.submit("split2", [1])
    with pytest.raises(UpstreamFailed):
        f.part(7).get_value(10)


DIAMOND = [
    {"name": "F", "opcode": "split2", "args": ["$input"]},
    {"name": "G1", "opcode": "inc", "args": ["$F.0"]},
    {"name": "G2", "opcode": "double", "args": ["$F.1"]},
    {"name": "H", "opcode": "add2", "args": ["$G1", "$G2"]},
]


def test_run_stream_matches_oracle(engine):
    reg = default_registry()
    wf = load_workflow(DIAMOND)
    inputs = list(range(100))
    results = engine.run_stream(wf, inputs, window=8, timeout=30)
    assert len(results) == 100
    for r in results:
        assert r.error is None
        assert r.value == eval_workflow(DIAMOND, inputs[r.seq], reg)


def test_run_stream_empty(engine):
    assert engine.run_stream(load_workflow(DIAMOND), [], timeout=5) == []


def test_run_stream_window_one(engine):
    results = engine.run_stream(load_workflow(DIAMOND), [1, 2, 3], window=1,
                                timeout=10)
    assert [r.seq for r in results] == [0, 1, 2]
    with pytest.raises(ValueError):
        engine.run_stream(load_workflow(DIAMOND), [1], window=0)


def test_load_workflow_from_file(tmp_path, engine):
    import json
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(DIAMOND))
    wf = load_workflow(str(path))
    assert wf(engine, 10).get_value(10) == (10 + 1) + (11 * 2)


def test_load_workflow_validation():
    with pytest.raises(WorkflowFileError):
        load_workflow([])
    with pytest.raises(WorkflowFileError):
        load_workflow([{"name": "a", "opcode": "inc"}])  # missing args
    with pytest.raises(WorkflowFileError):
        load_workflow([{"name": "a", "opcode": "inc", "args": ["$b"]}])
    with pytest.raises(WorkflowFileError):
        load_workflow([
            {"name": "a", "opcode": "inc", "args": ["$input"]},
            {"name": "a", "opcode": "inc", "args": ["$input"]},
        ])


def random_dag(rng, registry):
    """A random workflow description of at most 12 nodes."""
    unary = ["inc", "double", "identity", "f", "g"]
    nodes = []
    names = ["input"]
    for i in range(rng.randint(1, 12)):
        name = f"n{i}"
        if len(names) >= 2 and rng.random() < 0.4:
            args = [f"${rng.choice(names)}", f"${rng.choice(names)}"]
            nodes.append({"name": name, "opcode": "add2", "args": args})
        else:
            nodes.append({"name": name, "opcode": rng.choice(unary),
                          "args": [f"${rng.choice(names)}"]})
        names.append(name)
    return nodes


def test_random_dags_match_topological_oracle(engine):
    reg = default_registry()
    rng = random.Random(5)
    for _ in range(60):
        nodes = random_dag(rng, reg)
        wf = load_workflow(nodes)
        task = rng.randint(-100, 100)
        assert wf(engine, task).get_value(15) == eval_workflow(nodes, task, reg)


def test_future_hears_completion_that_beats_submit_call_return():
    reg = default_registry()
    pool = TaskPool()
    eng = WorkflowEngine(pool, reg)
    submit_call = pool.submit_call

    def fastest_worker(*args, **kwargs):
        # the graph is fetched, executed and emitted before submit_call returns
        gid = submit_call(*args, **kwargs)
        got, instr = pool.fetch_fireable(0.1)
        outputs = reg.run_encoded(instr.opcode, instr.inputs)
        pool.complete(got, instr.id, outputs)
        return gid

    pool.submit_call = fastest_worker
    assert eng.submit("inc", [1]).get_value(0.5) == 2
