"""Futures frontend: submission, readiness, DAGs, streams, workflow files."""
import random
import sys
import threading
import time

import pytest

from mdflow import codec
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
    fut = engine.submit("identity", [[1, "a"]])
    first = fut.get_value(5)
    assert first == [1, "a"]
    assert fut.get_value(5) is first  # the value is decoded once


def test_get_value_timeout():
    fut = Future()
    with pytest.raises(FutureTimeout):
        fut.get_value(0.01)
    fut._settle(5)  # a settle after a timed-out wait is still seen
    assert fut.get_value(0) == 5


# -- the Future itself: a flag, a callback list, an Event only for waiters ---

def test_blocked_get_value_wakes_when_another_thread_settles():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch often, to hit the event's creation
    try:
        for i in range(500):
            fut = Future()
            settler = threading.Thread(target=fut._settle, args=(i,))
            settler.start()
            assert fut.get_value(5) == i
            settler.join(5)
            assert not settler.is_alive()
    finally:
        sys.setswitchinterval(interval)


def test_callback_registered_after_settle_runs_at_once():
    fut = Future()
    fut._settle(3)
    seen = []
    fut._on_done(seen.append)
    assert seen == [fut]


def test_each_callback_runs_exactly_once():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(200):
            fut = Future()
            calls = []
            registrar = threading.Thread(target=lambda: [
                fut._on_done(lambda f, k=k: calls.append(k)) for k in range(20)])
            registrar.start()
            fut._settle(1)
            fut._settle(2)  # ignored: the first settle wins
            registrar.join(5)
            assert not registrar.is_alive()
            assert sorted(calls) == list(range(20))
            assert fut.get_value(0) == 1
    finally:
        sys.setswitchinterval(interval)


def test_future_of_bytes_that_do_not_decode_fails_alone():
    reg = default_registry()
    run_encoded = reg.run_encoded

    def garbling(name, payloads, slowdown=1.0):
        return [b"garbage"] if name == "echo" else run_encoded(name, payloads, slowdown)

    reg.run_encoded = garbling
    pool = TaskPool()
    runtime = Runtime(pool, reg, required_opcodes=[])
    runtime.recruit("local")
    runtime.start()
    try:
        eng = WorkflowEngine(pool, reg)
        bad = eng.submit("echo", [1])
        # whole: the bytes go on undecoded and the worker's decode fails;
        # part: decoding them in the completing worker's callback fails
        whole = eng.submit("inc", [bad])
        part = eng.submit("inc", [bad.part(0)])
        with pytest.raises(UpstreamFailed):
            whole.get_value(5)
        with pytest.raises(UpstreamFailed):
            part.get_value(5)
        with pytest.raises(codec.CodecError):
            bad.get_value(5)
        # the completing worker is still serving
        assert eng.submit("inc", [1]).get_value(5) == 2
        assert runtime.active_count() == 1
    finally:
        runtime.shutdown()


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


def traceback_length(fut: Future) -> int:
    try:
        fut.get_value(10)
    except (UpstreamFailed, codec.CodecError) as exc:
        n, tb = 0, exc.__traceback__
        while tb is not None:
            n, tb = n + 1, tb.tb_next
        return n
    raise AssertionError("the future did not fail")


def test_failed_future_traceback_does_not_grow(engine):
    failed = engine.submit("boom", [1])
    undecodable = Future()
    undecodable._settle(encoded=b"X")
    for fut in (failed, undecodable):
        first = traceback_length(fut)
        assert [traceback_length(fut) for _ in range(5)] == [first] * 5
        # two threads reading one failed future each see a chain of the same
        # length, however their reads interleave
        start = threading.Barrier(2)
        seen: list[int] = []

        def reader() -> None:
            start.wait()
            seen.extend(traceback_length(fut) for _ in range(200))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == [first] * 400
        assert traceback_length(fut) == first


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


@pytest.mark.parametrize("nodes", [
    [{"name": "a", "opcode": "inc", "args": ["$input.x"]}],
    [{"name": "a", "opcode": "split2", "args": ["$input"]},
     {"name": "b", "opcode": "inc", "args": ["$a.zero"]}],
    [{"name": "a", "opcode": "split2", "args": ["$input"]},
     {"name": "b", "opcode": "inc", "args": ["$a.-1"]}],
    [{"name": "a", "opcode": "split2", "args": ["$input"]},
     {"name": "b", "opcode": "inc", "args": ["$a."]}],
], ids=["input_x", "a_zero", "a_minus_1", "a_empty"])
def test_load_workflow_rejects_a_part_that_is_not_a_non_negative_integer(nodes):
    with pytest.raises(WorkflowFileError, match="not a non-negative integer"):
        load_workflow(nodes)


@pytest.mark.parametrize("nodes", [
    [1], [{"name": "a", "opcode": "inc", "args": "$input"}],
    [{"name": ["a"], "opcode": "inc", "args": []}],
], ids=["not_an_object", "args_not_a_list", "name_not_a_string"])
def test_load_workflow_rejects_a_malformed_node(nodes):
    with pytest.raises(WorkflowFileError, match="node needs"):
        load_workflow(nodes)


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


# -- bytes stay bytes between calls ------------------------------------------

def run_by_hand(pool, reg):
    """Execute every fireable instruction on the calling thread."""
    while (item := pool.fetch_fireable(0)) is not None:
        gid, instr = item
        pool.complete(gid, instr.id, reg.run_encoded(instr.opcode, instr.inputs))


def test_whole_future_argument_is_the_producers_bytes():
    reg = default_registry()
    pool = TaskPool()
    eng = WorkflowEngine(pool, reg)
    producer = eng.submit("identity", [[1, 2]])
    run_by_hand(pool, reg)
    [record] = pool.results
    sent = []
    submit_call = pool.submit_call
    pool.submit_call = lambda opcode, payloads, **kw: (
        sent.append(payloads), submit_call(opcode, payloads, **kw))[1]
    eng.submit("identity", [producer])
    assert sent[0][0] is record.value


def test_unencodable_literal_raises_from_submit_and_submits_nothing():
    reg = default_registry()
    pool = TaskPool()
    eng = WorkflowEngine(pool, reg)
    dep = Future()
    with pytest.raises(codec.CodecError):
        eng.submit("identity", [object()])
    with pytest.raises(codec.CodecError):
        eng.submit("add2", [dep, object()])
    dep._settle(1)
    assert pool.metrics()["submitted"] == 0


def test_codec_calls_for_one_diamond(monkeypatch):
    reg = default_registry()
    pool = TaskPool()
    runtime = Runtime(pool, reg, required_opcodes=[])
    runtime.recruit("local")
    runtime.start()
    expected = reg.run("add2", [reg.run("f", [5])[0], reg.run("g", [6])[0]])[0]
    calls = {"encode": 0, "decode": 0}

    def counting(name):
        fn = getattr(codec, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(codec, "encode", counting("encode"))
    monkeypatch.setattr(codec, "decode", counting("decode"))
    try:
        eng = WorkflowEngine(pool, reg)
        s = eng.submit("split2", [5])
        a = eng.submit("f", [s.part(0)])
        b = eng.submit("g", [s.part(1)])
        assert eng.submit("add2", [a, b]).get_value(5) == expected
        assert pool.wait_quiescent(5)
    finally:
        runtime.shutdown()
    # encodes: the literal, split2's two outputs and their vector, the two
    # parts, f, g and add2.  Decodes: split2's input and two outputs, s once
    # for both parts, f, g, add2's two inputs and the result.  a and b go to
    # add2 as the bytes f and g emitted.
    assert calls == {"encode": 9, "decode": 9}
