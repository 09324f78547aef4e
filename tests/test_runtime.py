"""Worker control loops: scheduling, balance, faults, stop."""
import threading
import time

import pytest

from mdflow import codec
from mdflow.compiler import Farm, Pipe, Seq, compile_skeleton
from mdflow.core import parse_dump, validate_graph
from mdflow.ops import default_registry
from mdflow.oracle import eval_skeleton
from mdflow.runtime import BadState, Runtime, Unreachable
from mdflow.taskpool import TaskPool


def make_runtime(n_workers=1, grain_ms=0.0, comm_delay_ms=0.0, registry=None):
    registry = registry or default_registry(grain_ms)
    pool = TaskPool()
    runtime = Runtime(pool, registry, comm_delay_ms=comm_delay_ms)
    descs = [runtime.recruit("local") for _ in range(n_workers)]
    runtime.start()
    return pool, runtime, descs, registry


def test_identity_pipeline_single_worker():
    pool, runtime, _, _ = make_runtime(1)
    t = compile_skeleton(Seq("identity"))
    for i in range(10):
        pool.submit_task(t, codec.encode(i))
    assert pool.wait_quiescent(10)
    assert sorted(codec.decode(r.value) for r in pool.results) == list(range(10))
    runtime.shutdown()


def test_auto_scheduling_balance():
    pool, runtime, descs, _ = make_runtime(4, grain_ms=2.0)
    t = compile_skeleton(Farm(Seq("work")))
    for i in range(160):
        pool.submit_task(t, codec.encode(i))
    assert pool.wait_quiescent(30)
    runtime.shutdown()
    counts = [d.completed for d in descs]
    assert sum(counts) >= 160  # at-least-once
    assert max(counts) <= 2 * min(counts)


def test_worker_killed_mid_run_work_rescheduled():
    pool, runtime, descs, reg = make_runtime(4, grain_ms=2.0)
    s = Farm(Seq("f"))
    t = compile_skeleton(s)
    for i in range(100):
        pool.submit_task(t, codec.encode(i))
    time.sleep(0.05)
    runtime.kill_worker(descs[0])
    assert pool.wait_quiescent(30)
    runtime.shutdown()
    assert len(pool.results) == 100
    got = {r.seq: codec.decode(r.value) for r in pool.results}
    assert got == {i: eval_skeleton(s, i, reg) for i in range(100)}
    assert descs[0].state == "failed"


def test_all_but_one_killed_still_completes():
    pool, runtime, descs, _ = make_runtime(3, grain_ms=1.0)
    t = compile_skeleton(Seq("inc"))
    for i in range(60):
        pool.submit_task(t, codec.encode(i))
    runtime.kill_worker(descs[0])
    runtime.kill_worker(descs[1])
    assert pool.wait_quiescent(30)
    runtime.shutdown()
    assert sorted(codec.decode(r.value) for r in pool.results) == \
        [i + 1 for i in range(60)]


def test_stop_worker_drains_then_idles():
    pool, runtime, descs, _ = make_runtime(1, grain_ms=50.0)
    t = compile_skeleton(Seq("work"))
    pool.submit_task(t, codec.encode(1))
    time.sleep(0.02)  # let the worker pick it up
    runtime.stop_worker(descs[0])
    assert descs[0].state == "stopped"
    assert len(pool.results) == 1  # in-flight instruction finished first
    runtime.shutdown()


def test_restart_requires_stopped_state():
    pool, runtime, descs, _ = make_runtime(1)
    runtime.kill_worker(descs[0])
    t = compile_skeleton(Seq("inc"))
    pool.submit_task(t, codec.encode(1))
    deadline = time.monotonic() + 5
    while descs[0].state != "failed" and time.monotonic() < deadline:
        time.sleep(0.01)
    with pytest.raises(BadState):
        runtime.stop_worker(descs[0])  # failed workers cannot be stopped
    runtime.shutdown()


def test_recruit_local_starts_idle():
    pool = TaskPool()
    runtime = Runtime(pool, default_registry())
    desc = runtime.recruit("local")
    assert desc.state == "idle" and desc.kind == "local"
    assert runtime.active_count() == 1
    runtime.shutdown()


def test_recruit_unreachable_remote():
    pool = TaskPool()
    runtime = Runtime(pool, default_registry())
    with pytest.raises(Unreachable):
        runtime.recruit(("127.0.0.1", 1))  # nothing listens on port 1


def test_deterministic_opcode_fault_fails_graph_not_worker():
    reg = default_registry()
    reg.register("boom", lambda x: 1 // 0)
    pool, runtime, descs, _ = make_runtime(1, registry=reg)
    t = compile_skeleton(Seq("boom"))
    pool.submit_task(t, codec.encode(1))
    assert pool.wait_quiescent(5)
    assert pool.results[0].error is not None
    # the worker survived the fault and still executes
    pool.submit_task(compile_skeleton(Seq("inc")), codec.encode(1))
    assert pool.wait_quiescent(5)
    assert codec.decode(pool.results[1].value) == 2
    assert descs[0].state != "failed"
    runtime.shutdown()


def test_output_count_mismatch_fails_graph_not_worker():
    # split3 yields three outputs for an instruction with two dests
    bad = parse_dump("1 _ split3 [_] -> [(_,2,1),(_,2,2)]\n2 _ add2 [_,_] -> [OUT]\n")
    pool, runtime, descs, _ = make_runtime(1)
    pool.submit_task(bad, codec.encode(1))
    pool.submit_task(compile_skeleton(Seq("inc")), codec.encode(1))
    assert pool.wait_quiescent(5)
    deadline = time.monotonic() + 2
    while descs[0].state != "idle" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert descs[0].state == "idle" and descs[0]._thread.is_alive()
    runtime.shutdown()
    errors = [r for r in pool.results if r.error is not None]
    assert len(pool.results) == 2 and [r.seq for r in errors] == [0]
    assert "3 outputs for 2 dests" in errors[0].error
    assert codec.decode(pool.results[1].value) == 2


def test_wiring_fault_in_complete_fails_graph_not_worker():
    # the OUT token retires the graph before the second token is routed
    early_out = parse_dump("1 _ split2 [_] -> [OUT,(_,2,1)]\n2 _ inc [_,_] -> [(_,2,2)]\n")
    bad_slot = parse_dump("1 _ inc [_] -> [(_,2,2)]\n2 _ inc [_] -> [OUT]\n")
    assert validate_graph(early_out) == ["MixedOutput(1)"]
    assert validate_graph(bad_slot) == ["BadSlot(1)"]
    pool, runtime, descs, _ = make_runtime(1)
    for i in range(3):
        pool.submit_task(early_out, codec.encode(i))
    pool.submit_task(bad_slot, codec.encode(3))
    pool.submit_task(compile_skeleton(Seq("inc")), codec.encode(4))
    assert pool.wait_quiescent(5)
    runtime.shutdown()
    assert descs[0].state == "stopped"
    values = {r.seq: codec.decode(r.value) for r in pool.results if r.error is None}
    assert values == {0: 0, 1: 1, 2: 2, 4: 5}
    errors = [r for r in pool.results if r.error is not None]
    assert [r.seq for r in errors] == [3] and "slot 2 of 1" in errors[0].error


def test_comm_delay_serializes_on_shared_link():
    pool, runtime, _, _ = make_runtime(4, grain_ms=0.0, comm_delay_ms=5.0)
    t = compile_skeleton(Seq("work"))
    t0 = time.monotonic()
    for i in range(20):
        pool.submit_task(t, codec.encode(i))
    assert pool.wait_quiescent(10)
    elapsed = time.monotonic() - t0
    runtime.shutdown()
    # 20 dispatches x 5 ms over one exclusive link, regardless of 4 workers
    assert elapsed >= 0.1


def test_worker_stats_recorded():
    pool, runtime, descs, _ = make_runtime(1, grain_ms=5.0)
    t = compile_skeleton(Seq("work"))
    for i in range(5):
        pool.submit_task(t, codec.encode(i))
    assert pool.wait_quiescent(10)
    runtime.shutdown()
    assert descs[0].completed == 5
    assert descs[0].busy_ms >= 25.0


@pytest.mark.parametrize("poison", ["no_such_op", "unencodable"])
def test_poison_instruction_fails_its_graph_not_the_workers(poison):
    reg = default_registry()
    reg.register("unencodable", lambda x: {x})  # the codec has no set type
    pool, runtime, descs, _ = make_runtime(4, registry=reg)
    good, bad = compile_skeleton(Farm(Seq("f"))), compile_skeleton(Farm(Seq(poison)))
    for i in range(10):
        pool.submit_task(good, codec.encode(i))
        if i == 4:
            pool.submit_task(bad, codec.encode(i))
    assert pool.wait_quiescent(10)
    runtime.shutdown()
    errors = [r for r in pool.results if r.error is not None]
    assert len(pool.results) == 11 and len(errors) == 1
    assert errors[0].seq == 5
    assert all(d.state == "stopped" for d in descs)  # none failed


MALFORMED_PAYLOADS = [
    b"I\x01\x00\x00\x00x",                    # int body not decimal
    b"S\x01\x00\x00\x00\xff",                 # str body not UTF-8
    b"M\x01\x00\x00\x00L\x00\x00\x00\x00N",  # unhashable dict key
]


@pytest.mark.parametrize("payload", MALFORMED_PAYLOADS, ids=["int", "utf8", "key"])
def test_malformed_payload_fails_its_graph_not_the_workers(payload):
    pool, runtime, descs, _ = make_runtime(2)
    t = compile_skeleton(Farm(Seq("f")))
    pool.submit_task(t, payload)
    pool.submit_task(t, codec.encode(1))
    assert pool.wait_quiescent(5)
    assert all(d.state != "failed" and d._thread.is_alive() for d in descs)
    runtime.shutdown()
    errors = [r for r in pool.results if r.error is not None]
    assert [r.seq for r in errors] == [0]
    assert {r.seq: codec.decode(r.value) for r in pool.results if r.error is None} == {1: 2}


class FailGraphThenDie:
    """Executor whose instruction's graph is failed by a sibling instruction
    just before the worker itself dies."""

    def __init__(self, pool):
        self.pool = pool

    def execute(self, desc, instr):
        self.pool.fail_graph(instr.gid, "sibling fault")
        raise RuntimeError("worker lost")

    def close(self):
        pass


def test_worker_failing_on_retired_graph_ends_failed():
    failures = []
    pool = TaskPool()
    runtime = Runtime(pool, default_registry(), failure_cb=lambda d, e: failures.append(e))
    desc = runtime.recruit("local")
    desc._executor = FailGraphThenDie(pool)
    runtime.start()
    pool.submit_task(compile_skeleton(Seq("inc")), codec.encode(1))
    desc._thread.join(5)
    assert not desc._thread.is_alive()
    assert desc.state == "failed"
    assert [str(e) for e in failures] == ["worker lost"]
    assert pool.results[0].error == "sibling fault"
    runtime.shutdown()


def test_failure_callback_error_reaches_the_thread_hook(monkeypatch):
    seen = []
    monkeypatch.setattr(threading, "excepthook", lambda args: seen.append(args.exc_value))

    def failure_cb(desc, exc):
        raise RuntimeError(f"callback for worker {desc.wid}")

    pool = TaskPool()
    runtime = Runtime(pool, default_registry(grain_ms=2.0), failure_cb=failure_cb)
    descs = [runtime.recruit("local") for _ in range(2)]
    runtime.start()
    s = Farm(Seq("f"))
    t = compile_skeleton(s)
    for i in range(100):
        pool.submit_task(t, codec.encode(i))
    time.sleep(0.05)
    runtime.kill_worker(descs[0])
    assert pool.wait_quiescent(30)
    descs[0]._thread.join(5)
    assert not descs[0]._thread.is_alive()
    runtime.shutdown()
    got = {r.seq: codec.decode(r.value) for r in pool.results}
    assert got == {i: eval_skeleton(s, i, default_registry()) for i in range(100)}
    assert descs[0].state == "failed" and descs[1].state == "stopped"
    assert [str(e) for e in seen] == [f"callback for worker {descs[0].wid}"]


# -- local batches --------------------------------------------------------

def record_batches(pool):
    """Wrap the pool's fetch_batch: returns (calls, sizes by thread) lists
    that fill as the control loops fetch."""
    fetch, calls, sizes = pool.fetch_batch, [], {}

    def fetch_batch(timeout, limit):
        batch = fetch(timeout, limit)
        calls.append(len(batch))
        if batch:
            sizes.setdefault(threading.get_ident(), []).append(len(batch))
        return batch

    pool.fetch_batch = fetch_batch
    return calls, sizes


class KillMidBatch:
    """Executor that kills its worker after the k-th instruction of the first
    batch it is given that has instructions left after the (k + 1)-th."""

    def __init__(self, inner, sizes, k):
        self.inner, self.sizes, self.k = inner, sizes, k
        self.batches = self.ran = 0  # batches fetched; instructions run of the last
        self.killed_in = None  # size of the batch the kill landed in

    def execute(self, desc, instr):
        outputs = self.inner.execute(desc, instr)  # raises once killed
        mine = self.sizes[threading.get_ident()]
        if len(mine) != self.batches:  # the first instruction of a new batch
            self.batches, self.ran = len(mine), 0
        self.ran += 1
        if self.killed_in is None and self.ran == self.k and mine[-1] > self.k + 1:
            self.killed_in = mine[-1]
            desc._killed.set()
        return outputs

    def close(self):
        self.inner.close()


def test_worker_killed_mid_batch_requeues_the_rest_and_emits_once():
    s = Pipe(Farm(Seq("f")), Farm(Seq("g")))
    t = compile_skeleton(s)
    pool, reg = TaskPool(), default_registry()
    _, sizes = record_batches(pool)
    runtime = Runtime(pool, reg)
    victim, other = runtime.recruit("local"), runtime.recruit("local")
    killer = victim._executor = KillMidBatch(victim._executor, sizes, k=3)
    pool.pause_dispatch()  # a backlog, so batches grow past k + 1
    for i in range(2000):
        pool.submit_task(t, codec.encode(i))
    runtime.start()
    pool.resume_dispatch()
    assert pool.wait_quiescent(30)
    victim._thread.join(5)
    runtime.shutdown()
    assert killer.killed_in is not None and killer.killed_in > 4
    assert victim.state == "failed" and other.state == "stopped"
    assert sorted(r.seq for r in pool.results) == list(range(2000))
    got = {r.seq: codec.decode(r.value) for r in pool.results}
    assert got == {i: eval_skeleton(s, i, reg) for i in range(2000)}


def test_local_fetch_at_5ms_grain_takes_one_instruction():
    registry = default_registry(grain_ms=5.0)
    pool = TaskPool()
    _, sizes = record_batches(pool)
    runtime = Runtime(pool, registry)
    for _ in range(2):
        runtime.recruit("local")
    runtime.start()
    t = compile_skeleton(Farm(Seq("work")))
    for i in range(40):
        pool.submit_task(t, codec.encode(i))
    assert pool.wait_quiescent(30)
    runtime.shutdown()
    fetched = [n for per_thread in sizes.values() for n in per_thread]
    assert sum(fetched) == 40 and max(fetched) == 1


def test_local_fetch_at_zero_grain_takes_batches():
    pool = TaskPool()
    calls, _ = record_batches(pool)
    runtime = Runtime(pool, default_registry())
    desc = runtime.recruit("local")
    t = compile_skeleton(Seq("f"))
    pool.pause_dispatch()
    for i in range(2000):
        pool.submit_task(t, codec.encode(i))
    runtime.start()
    pool.resume_dispatch()
    assert pool.wait_quiescent(30)
    runtime.shutdown()
    assert desc.completed == 2000 and sum(calls) == 2000
    assert len(calls) < 2000 // 4
