"""Pipelined remote execution: up to PIPELINE_DEPTH EXECs in flight per
connection, replies completed in order by a reader thread, and the whole
window requeued when the connection is lost."""
import contextlib
import socket
import sys
import threading
import time
from collections import Counter

import pytest

from mdflow import codec
from mdflow import runtime as runtime_mod
from mdflow.compiler import Farm, Pipe, Seq, compile_skeleton
from mdflow.manager import Manager
from mdflow.ops import default_registry
from mdflow.oracle import eval_skeleton
from mdflow.protocol import (
    READY,
    RESULT,
    FrameReader,
    ProtocolError,
    RemoteFailure,
    WorkerClient,
    WorkerServer,
    decode_exec,
    encode_manifest,
    encode_payload_list,
    send_frame,
)
from mdflow.runtime import PIPELINE_DEPTH, Runtime
from mdflow.taskpool import TaskPool

GRAIN_MS = 5.0


class InFlight:
    """EXECs sent and not yet answered, per WorkerClient."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.per_client: Counter = Counter()
        self.max = 0

    @property
    def now(self) -> int:
        with self._lock:
            return sum(self.per_client.values())

    def add(self, client, n: int) -> None:
        with self._lock:
            self.per_client[id(client)] += n
            self.max = max(self.max, self.per_client[id(client)])


@pytest.fixture
def in_flight(monkeypatch):
    spy = InFlight()
    send_exec, read_reply = WorkerClient.send_exec, WorkerClient.read_reply

    def counted_send(self, opcode, payloads):
        req_id = send_exec(self, opcode, payloads)
        spy.add(self, 1)
        return req_id

    def counted_read(self, req_id, *args):
        try:
            return read_reply(self, req_id, *args)
        finally:
            spy.add(self, -1)

    monkeypatch.setattr(WorkerClient, "send_exec", counted_send)
    monkeypatch.setattr(WorkerClient, "read_reply", counted_read)
    return spy


def count_requeues(pool: TaskPool) -> list:
    """Record every requeue on `pool`; returns the list of (gid, iid)."""
    requeued = []
    requeue = pool.requeue

    def counted(gid, iid):
        requeued.append((gid, iid))
        requeue(gid, iid)

    pool.requeue = counted
    return requeued


def wait_until(cond, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not cond():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def assert_oracle_exactly_once(pool, skeleton, registry, n):
    assert Counter(r.seq for r in pool.results) == Counter(range(n))
    assert [r for r in pool.results if r.error is not None] == []
    assert {r.seq: codec.decode(r.value) for r in pool.results} == \
        {i: eval_skeleton(skeleton, i, registry) for i in range(n)}


@pytest.mark.parametrize("depth", [1, 16])
def test_oracle_holds_at_any_pipeline_depth(depth, monkeypatch, in_flight):
    monkeypatch.setattr(runtime_mod, "PIPELINE_DEPTH", depth)
    reg = default_registry()
    srv = WorkerServer(reg).start()
    pool = TaskPool()
    runtime = Runtime(pool, reg)
    descs = [runtime.recruit((srv.host, srv.port)) for _ in range(2)]
    s = Pipe(Farm(Seq("f")), Farm(Seq("g")))
    t = compile_skeleton(s)
    for i in range(300):
        pool.submit_task(t, codec.encode(i))
    runtime.start()
    try:
        assert pool.wait_quiescent(30)
    finally:
        runtime.shutdown()
        srv.stop()
    assert_oracle_exactly_once(pool, s, reg, 300)
    assert in_flight.max <= depth
    assert all(d.state == "stopped" for d in descs)


def test_opcode_fault_mid_window_fails_only_its_graph(in_flight):
    reg = default_registry(GRAIN_MS)
    reg.register("boom", lambda x: 1 // 0)
    srv = WorkerServer(reg).start()
    pool = TaskPool()
    runtime = Runtime(pool, reg)
    desc = runtime.recruit((srv.host, srv.port))
    good, bad = compile_skeleton(Seq("f")), compile_skeleton(Seq("boom"))
    for i in range(20):
        pool.submit_task(bad if i == 8 else good, codec.encode(i))
    runtime.start()
    try:
        assert pool.wait_quiescent(10)
    finally:
        runtime.shutdown()
        srv.stop()
    assert in_flight.max == PIPELINE_DEPTH  # the fault sat in a full window
    errors = [r for r in pool.results if r.error is not None]
    assert [r.seq for r in errors] == [8] and errors[0].error.startswith("boom:")
    assert {r.seq: codec.decode(r.value) for r in pool.results if r.error is None} == \
        {i: i + 1 for i in range(20) if i != 8}
    assert desc.state == "stopped"  # the one connection served every reply


@pytest.mark.parametrize("how", ["daemon_stopped", "worker_killed"])
def test_losing_a_full_window_requeues_it_and_fails_the_worker_once(how, in_flight):
    reg = default_registry(GRAIN_MS)
    srv = WorkerServer(reg).start()
    failures = []
    pool = TaskPool()
    requeued = count_requeues(pool)
    runtime = Runtime(pool, reg, failure_cb=lambda d, e: failures.append(d))
    remote = runtime.recruit((srv.host, srv.port))
    local = runtime.recruit("local")
    s = Farm(Seq("f"))
    t = compile_skeleton(s)
    for i in range(60):
        pool.submit_task(t, codec.encode(i))
    runtime.start()
    try:
        wait_until(lambda: in_flight.now >= PIPELINE_DEPTH)
        if how == "daemon_stopped":
            srv.stop()
        else:
            runtime.kill_worker(remote)
        assert pool.wait_quiescent(30)
        remote._thread.join(5)
        assert not remote._thread.is_alive()
    finally:
        runtime.shutdown()
        srv.stop()
    assert_oracle_exactly_once(pool, s, reg, 60)
    assert len(requeued) >= 1
    assert remote.state == "failed" and local.state == "stopped"
    assert failures == [remote]


@pytest.mark.parametrize("reply", ["out_of_order", "none", "half_a_frame"])
def test_a_bad_reply_requeues_the_window_and_fails_the_worker(reply, monkeypatch):
    monkeypatch.setattr(runtime_mod, "REMOTE_DEADLINE_S", 0.3)
    listener = socket.create_server(("127.0.0.1", 0))
    window = 4
    all_sent = threading.Event()

    def fake_daemon():
        conn, _ = listener.accept()
        with conn:
            frames = FrameReader(conn)
            frames.next()  # HELLO
            send_frame(conn, READY, encode_manifest([("inc", 1, 1)]))
            ids = [decode_exec(frames.next()[1])[0] for _ in range(window)]
            all_sent.set()
            if reply == "out_of_order":  # the second request answered first
                send_frame(conn, RESULT, encode_payload_list(ids[1], [codec.encode(0)]))
            elif reply == "half_a_frame":  # the first reply, cut short
                body = encode_payload_list(ids[0], [codec.encode(1)])
                conn.sendall((len(body) + 1).to_bytes(4, "little") + bytes([RESULT]))
            with contextlib.suppress(OSError):
                conn.recv(1)  # until the client closes

    daemon = threading.Thread(target=fake_daemon, daemon=True)
    daemon.start()
    failures = []
    reg = default_registry()
    pool = TaskPool()
    requeued = count_requeues(pool)
    runtime = Runtime(pool, reg, failure_cb=lambda d, e: failures.append(e))
    s = Seq("inc")
    t = compile_skeleton(s)
    gids = [pool.submit_task(t, codec.encode(i)) for i in range(window)]
    remote = runtime.recruit(listener.getsockname())
    try:
        runtime.start_worker(remote)
        assert all_sent.wait(5)
        runtime.start_worker(runtime.recruit("local"))
        assert pool.wait_quiescent(10)
        remote._thread.join(5)
        assert not remote._thread.is_alive()
    finally:
        runtime.shutdown()
        daemon.join(5)
        listener.close()
    assert not daemon.is_alive()
    assert remote.state == "failed" and remote.completed == 0
    expected = ProtocolError if reply == "out_of_order" else RemoteFailure
    assert len(failures) == 1 and isinstance(failures[0], expected)
    # the whole window; the sender may also requeue one it fetched again
    # before it saw the loss
    assert set(requeued) == {(gid, 1) for gid in gids}
    assert_oracle_exactly_once(pool, s, reg, window)


def test_a_deadline_runs_from_when_the_daemon_starts_the_request(monkeypatch, in_flight):
    """The daemon serves a full window in turn, so its last EXEC is answered
    after about PIPELINE_DEPTH x the opcode's cost, well past the deadline
    floor.  Only the request's own service time counts toward its deadline,
    and toward the worker's busy time."""
    monkeypatch.setattr(runtime_mod, "REMOTE_DEADLINE_S", 0.5)
    reg = default_registry(60.0)
    srv = WorkerServer(reg).start()
    failures = []
    pool = TaskPool()
    runtime = Runtime(pool, reg, failure_cb=lambda d, e: failures.append(e))
    desc = runtime.recruit((srv.host, srv.port))
    s = Farm(Seq("f"))
    t = compile_skeleton(s)
    for i in range(24):
        pool.submit_task(t, codec.encode(i))
    t0 = time.monotonic()
    runtime.start()
    try:
        assert pool.wait_quiescent(10)
        wall_ms = (time.monotonic() - t0) * 1000.0
    finally:
        runtime.shutdown()
        srv.stop()
    assert failures == [] and desc.state == "stopped"
    assert in_flight.max == PIPELINE_DEPTH
    assert_oracle_exactly_once(pool, s, reg, 24)
    assert desc.completed == 24 and 24 * 30.0 <= desc.busy_ms <= wall_ms


def test_manager_removes_a_remote_worker_with_a_full_window(in_flight):
    reg = default_registry(GRAIN_MS)
    srv = WorkerServer(reg).start()
    pool = TaskPool()
    requeued = count_requeues(pool)
    runtime = Runtime(pool, reg)
    runtime.recruit("local")
    remote = runtime.recruit((srv.host, srv.port))
    manager = Manager(runtime, pool)
    s = Farm(Seq("f"))
    t = compile_skeleton(s)
    for i in range(80):
        pool.submit_task(t, codec.encode(i))
    runtime.start()
    try:
        wait_until(lambda: in_flight.now >= PIPELINE_DEPTH)
        assert manager.remove_worker(1) == 1  # the last recruited: the remote one
        assert remote.state == "stopped" and remote.wid not in runtime.workers
        assert in_flight.now == 0  # drained, not dropped
        assert pool.wait_quiescent(30)
    finally:
        runtime.shutdown()
        srv.stop()
    assert requeued == []
    assert remote.completed >= PIPELINE_DEPTH
    assert_oracle_exactly_once(pool, s, reg, 80)


def test_pipelined_workers_under_fast_thread_switching():
    """More connections than cores, threads switched every 10 us, and one
    worker killed mid-run: a lost update between a sender and its reader
    would lose or duplicate a task."""
    reg = default_registry()
    srv = WorkerServer(reg).start()
    pool = TaskPool()
    runtime = Runtime(pool, reg)
    descs = [runtime.recruit((srv.host, srv.port)) for _ in range(4)]
    s = Pipe(Farm(Seq("f")), Farm(Seq("g")))
    t = compile_skeleton(s)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for i in range(500):
            pool.submit_task(t, codec.encode(i))
        runtime.start()
        wait_until(lambda: len(pool.results) >= 100, timeout=30)
        runtime.kill_worker(descs[0])
        assert pool.wait_quiescent(60)
    finally:
        sys.setswitchinterval(switch)
        runtime.shutdown()
        srv.stop()
    assert_oracle_exactly_once(pool, s, reg, 500)
    assert descs[0].state == "failed"
    assert all(d.state == "stopped" for d in descs[1:])
