"""Task pool: instantiation, token routing, FIFO dispatch, dedup, metrics."""
import gc
import threading
import time
import tracemalloc

import pytest

from mdflow import codec
from mdflow.compiler import Farm, Pipe, Seq, compile_skeleton
from mdflow.core import is_fireable, parse_dump
from mdflow.ops import default_registry
from mdflow.runtime import Runtime
from mdflow.taskpool import NotInFlight, PoolClosed, TaskPool


@pytest.fixture
def fg_template():
    # renumbered so instruction 1 is f (the input) and instruction 2 is g
    from mdflow.core import NoId, canonical_renumber
    return canonical_renumber(
        compile_skeleton(Pipe(Farm(Seq("f")), Farm(Seq("g")))), gid=NoId)


@pytest.fixture
def pool():
    return TaskPool()


def test_submit_task_stores_input_token(pool, fg_template):
    gid = pool.submit_task(fg_template, codec.encode(10))
    graph = pool._graphs[gid].graph
    assert graph.gid == gid
    assert is_fireable(graph.instructions[graph.input_id])
    assert not is_fireable(graph.instructions[2])
    assert pool.pending_count() == 1


def test_submit_single_instruction_immediately_fireable(pool):
    t = compile_skeleton(Seq("f"))
    gid = pool.submit_task(t, codec.encode(1))
    got = pool.fetch_fireable(0.1)
    assert got is not None and got[0] == gid


def test_submit_after_close(pool, fg_template):
    pool.close()
    with pytest.raises(PoolClosed):
        pool.submit_task(fg_template, codec.encode(1))


def test_deliver_external_emits_and_retires(pool):
    t = compile_skeleton(Seq("f"))
    gid = pool.submit_task(t, codec.encode(1))
    _, instr = pool.fetch_fireable(0.1)
    assert pool.complete(gid, instr.id, [codec.encode(2)])
    assert pool.pending_count() == 0
    assert len(pool.results) == 1
    assert codec.decode(pool.results[0].value) == 2
    assert pool.results[0].seq == 0


def test_deliver_internal_makes_fireable(pool, fg_template):
    gid = pool.submit_task(fg_template, codec.encode(10))
    _, instr = pool.fetch_fireable(0.1)  # instruction 1 routes to (gid, 2, 1)
    pool.complete(gid, instr.id, [codec.encode(11)])
    got = pool.fetch_fireable(0.1)
    assert got is not None
    assert got[1].id == 2 and got[1].opcode == "g"
    assert got[1].inputs == [codec.encode(11)]


def test_fetch_fifo_order(pool):
    t = compile_skeleton(Seq("f"))
    a = pool.submit_task(t, codec.encode(1))
    b = pool.submit_task(t, codec.encode(2))
    assert pool.fetch_fireable(0.1)[0] == a
    assert pool.fetch_fireable(0.1)[0] == b


def test_fetch_timeout_returns_none(pool):
    import time
    t0 = time.monotonic()
    assert pool.fetch_fireable(0.01) is None
    assert time.monotonic() - t0 >= 0.01


def test_concurrent_fetchers_get_each_instruction_once(pool):
    t = compile_skeleton(Seq("f"))
    for i in range(100):
        pool.submit_task(t, codec.encode(i))
    seen = []
    lock = threading.Lock()

    def fetcher():
        while True:
            got = pool.fetch_fireable(0.05)
            if got is None:
                return
            with lock:
                seen.append(got[0])

    threads = [threading.Thread(target=fetcher) for _ in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert sorted(seen) == list(range(1, 101))  # each gid exactly once


def test_requeue_returns_to_head(pool):
    t = compile_skeleton(Seq("f"))
    a = pool.submit_task(t, codec.encode(1))
    pool.submit_task(t, codec.encode(2))
    gid, instr = pool.fetch_fireable(0.1)
    assert gid == a
    pool.requeue(gid, instr.id)
    assert pool.fetch_fireable(0.1)[0] == a  # retry priority


def test_requeue_not_in_flight(pool):
    t = compile_skeleton(Seq("f"))
    gid = pool.submit_task(t, codec.encode(1))
    with pytest.raises(NotInFlight):
        pool.requeue(gid, 1)
    gid2, instr = pool.fetch_fireable(0.1)
    pool.complete(gid2, instr.id, [codec.encode(0)])
    with pytest.raises(NotInFlight):
        pool.requeue(gid2, instr.id)


def test_duplicate_completion_deduplicated(pool):
    t = compile_skeleton(Seq("f"))
    gid = pool.submit_task(t, codec.encode(1))
    _, instr = pool.fetch_fireable(0.1)
    assert pool.complete(gid, instr.id, [codec.encode(2)]) is True
    assert pool.complete(gid, instr.id, [codec.encode(99)]) is False
    assert len(pool.results) == 1
    assert codec.decode(pool.results[0].value) == 2


def test_requeued_then_completed_twice_emits_once(pool):
    t = compile_skeleton(Seq("f"))
    gid = pool.submit_task(t, codec.encode(1))
    _, instr = pool.fetch_fireable(0.1)
    pool.requeue(gid, instr.id)
    pool.fetch_fireable(0.1)
    assert pool.complete(gid, instr.id, [codec.encode(2)]) is True
    # the "slow failed worker" returning late
    assert pool.complete(gid, instr.id, [codec.encode(3)]) is False
    assert len(pool.results) == 1


def test_late_completion_of_requeued_instruction_is_not_dispatched_again(pool, fg_template):
    gid = pool.submit_task(fg_template, codec.encode(1))
    _, instr = pool.fetch_fireable(0.1)
    pool.requeue(gid, instr.id)
    # the original worker was only slow: it completes after the requeue
    assert pool.complete(gid, instr.id, [codec.encode(2)]) is True
    got = pool.fetch_fireable(0.1)
    assert got is not None and got[1].id == 2  # g, not f a second time
    pool.complete(gid, 2, [codec.encode(4)])
    assert pool.fetch_fireable(0.01) is None
    assert len(pool.results) == 1


def test_fail_graph_emits_error_record(pool, fg_template):
    gid = pool.submit_task(fg_template, codec.encode(1))
    pool.fetch_fireable(0.1)
    pool.fail_graph(gid, "opcode blew up")
    assert pool.pending_count() == 0
    assert pool.results[0].error == "opcode blew up"
    assert pool.fetch_fireable(0.01) is None  # queue cleared


def test_conservation_and_metrics(pool):
    t = compile_skeleton(Seq("f"))
    for i in range(5):
        pool.submit_task(t, codec.encode(i))
    for _ in range(3):
        gid, instr = pool.fetch_fireable(0.1)
        pool.complete(gid, instr.id, [codec.encode(0)])
    m = pool.metrics()
    assert set(m) == {"submitted", "emitted", "in_flight", "fireable",
                      "live_graphs"}
    assert m["submitted"] == 5 and m["emitted"] == 3
    assert m["submitted"] == m["emitted"] + m["live_graphs"]


def _emit(pool, template, n):
    for i in range(n):
        pool.submit_task(template, codec.encode(i))
        gid, instr = pool.fetch_fireable(0.1)
        pool.complete(gid, instr.id, [codec.encode(i)])


def test_throughput_counts_only_emissions_inside_the_window(pool):
    t = compile_skeleton(Seq("f"))
    _emit(pool, t, 7)
    time.sleep(0.25)  # the first group falls out of a 0.2 s window
    _emit(pool, t, 3)
    assert pool.throughput(0.2) == pytest.approx(3 / 0.2)
    assert pool.throughput(10.0) == pytest.approx(10 / 10.0)


def test_retained_memory_per_emitted_task_is_small(fg_template):
    """After quiescence the pool keeps one slotted ResultRecord per task,
    whatever the number of instructions each task ran."""
    pool = TaskPool()
    runtime = Runtime(pool, default_registry())
    runtime.recruit("local")
    runtime.start()
    try:
        for i in range(200):  # warm-up: first-use allocations
            pool.submit_task(fg_template, codec.encode(i))
        assert pool.wait_quiescent(30)
        tasks = 5000
        payloads = [codec.encode(i) for i in range(tasks)]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for p in payloads:
                pool.submit_task(fg_template, p)
            assert pool.wait_quiescent(60)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    finally:
        runtime.shutdown()
    retained = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert len(pool.results) == 200 + tasks
    assert retained / tasks <= 400, f"{retained / tasks:.0f} B retained per task"


def test_pause_blocks_dispatch(pool):
    t = compile_skeleton(Seq("f"))
    pool.submit_task(t, codec.encode(1))
    pool.pause_dispatch()
    assert pool.fetch_fireable(0.05) is None
    pool.resume_dispatch()
    assert pool.fetch_fireable(0.1) is not None


def test_multi_output_behind_single_dest_wraps_vector(pool):
    gid = pool.submit_call("split2", [codec.encode(7)])
    _, instr = pool.fetch_fireable(0.1)
    pool.complete(gid, instr.id, [codec.encode(7), codec.encode(8)])
    assert codec.decode(pool.results[0].value) == [7, 8]



def test_multi_output_that_does_not_decode_fails_the_graph(pool):
    gid = pool.submit_call("split2", [codec.encode(7)])
    _, instr = pool.fetch_fireable(0.1)
    assert pool.complete(gid, instr.id, [b"garbage", codec.encode(2)])
    assert pool.wait_quiescent(1.0)
    [record] = pool.results
    assert record.value is None and "instruction 1" in record.error

def test_result_timestamps_ordered(pool):
    t = compile_skeleton(Seq("f"))
    gid = pool.submit_task(t, codec.encode(1))
    _, instr = pool.fetch_fireable(0.1)
    pool.complete(gid, instr.id, [codec.encode(0)])
    r = pool.results[0]
    assert r.complete_ts >= r.dispatch_ts


# -- batches --------------------------------------------------------------

def test_fetch_batch_is_fifo_and_takes_at_most_limit(pool):
    t = compile_skeleton(Seq("f"))
    gids = [pool.submit_task(t, codec.encode(i)) for i in range(5)]
    first = pool.fetch_batch(0.1, 3)
    assert [gid for gid, _ in first] == gids[:3]
    assert [gid for gid, _ in pool.fetch_batch(0.1, 3)] == gids[3:]
    assert pool.metrics()["in_flight"] == 5


def test_fetch_batch_does_not_wait_to_fill(pool):
    t = compile_skeleton(Seq("f"))
    for i in range(3):
        pool.submit_task(t, codec.encode(i))
    t0 = time.monotonic()
    assert len(pool.fetch_batch(5.0, 8)) == 3
    assert time.monotonic() - t0 < 1.0


def test_fetch_batch_while_paused_is_empty_after_the_timeout(pool):
    pool.submit_task(compile_skeleton(Seq("f")), codec.encode(1))
    pool.pause_dispatch()
    t0 = time.monotonic()
    assert pool.fetch_batch(0.05, 8) == []
    assert time.monotonic() - t0 >= 0.05
    pool.resume_dispatch()
    assert len(pool.fetch_batch(0.1, 8)) == 1


def test_fetch_batch_skips_stale_keys(pool):
    t = compile_skeleton(Seq("f"))
    a, b, c = (pool.submit_task(t, codec.encode(i)) for i in range(3))
    pool.fail_graph(b, "gone")  # b's queue key is now stale
    assert [gid for gid, _ in pool.fetch_batch(0.1, 8)] == [a, c]


def test_complete_batch_duplicate_returns_nothing_new(pool):
    gid = pool.submit_task(compile_skeleton(Seq("f")), codec.encode(1))
    [(_, instr)] = pool.fetch_batch(0.1, 8)
    done = [(gid, instr.id, [codec.encode(2)]), (gid, instr.id, [codec.encode(3)])]
    assert pool.complete_batch(done) == [True, False]
    assert pool.complete_batch(done[:1]) == [False]
    assert [codec.decode(r.value) for r in pool.results] == [2]


def test_complete_batch_wiring_fault_fails_only_its_graph(pool):
    bad_slot = parse_dump("1 _ inc [_] -> [(_,2,2)]\n2 _ inc [_] -> [OUT]\n")
    bad = pool.submit_task(bad_slot, codec.encode(1))
    good = pool.submit_task(compile_skeleton(Seq("f")), codec.encode(1))
    batch = pool.fetch_batch(0.1, 8)
    assert pool.complete_batch([(gid, instr.id, [codec.encode(2)])
                                for gid, instr in batch]) == [True, True]
    records = {r.gid: r for r in pool.results}
    assert "slot 2 of 1" in records[bad].error
    assert records[good].error is None and codec.decode(records[good].value) == 2
    assert pool.pending_count() == 0


def test_complete_batch_wakes_a_fetcher_per_instruction_it_made_fireable(pool, fg_template):
    for i in range(2):
        pool.submit_task(fg_template, codec.encode(i))
    batch = pool.fetch_batch(0.1, 8)
    got, waited = [], []

    def fetcher():
        t0 = time.monotonic()
        got.append(pool.fetch_fireable(5.0))
        waited.append(time.monotonic() - t0)

    threads = [threading.Thread(target=fetcher) for _ in range(2)]
    for th in threads:
        th.start()
    time.sleep(0.05)  # both block on the empty queue
    pool.complete_batch([(gid, instr.id, [codec.encode(0)]) for gid, instr in batch])
    for th in threads:
        th.join(5.0)
        assert not th.is_alive()
    assert sorted((gid, instr.id) for gid, instr in got) == [(gid, 2) for gid, _ in batch]
    assert max(waited) < 2.0


def test_complete_batch_retiring_the_last_graph_wakes_wait_quiescent(pool):
    t = compile_skeleton(Seq("f"))
    for i in range(2):
        pool.submit_task(t, codec.encode(i))
    batch = pool.fetch_batch(0.1, 8)
    returned = []
    waiter = threading.Thread(
        target=lambda: returned.append((pool.wait_quiescent(5.0), time.monotonic())))
    waiter.start()
    time.sleep(0.05)  # the waiter is inside its first 0.25 s wait
    done_at = time.monotonic()
    pool.complete_batch([(gid, instr.id, [codec.encode(0)]) for gid, instr in batch])
    waiter.join(5.0)
    assert not waiter.is_alive()
    [(quiet, at)] = returned
    assert quiet and at - done_at < 0.15
