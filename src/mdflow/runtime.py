"""The distributed macro data-flow interpreter.

One control loop per recruited worker fetches fireable instructions from
the task pool and has them executed.  A local worker's loop takes a batch
of about LOCAL_BATCH_S of work, sized by the execution time it measured for
its last batch, executes it in process and delivers the output tokens of
the whole batch under one hold of the pool lock.  A remote worker's
loop is a sender: it keeps up to PIPELINE_DEPTH EXECs in flight on the
worker's connection, and a reader thread per connection takes the replies
in order and delivers them.  A worker failure requeues every instruction it
has in flight and marks the worker failed; surviving loops pick the work
up, so execution is at-least-once while emission stays exactly-once (the
pool deduplicates).
"""
from __future__ import annotations

import contextlib
import itertools
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .core import (
    DETERMINISTIC_FAULTS,
    MdfError,
    MdfInstruction,
    OpcodeRegistry,
    manifest_supports,
)
from .protocol import WorkerClient
from .taskpool import NotInFlight, TaskPool

WorkerSpec = Union[str, tuple[str, int]]

#: floor of a remote dispatch's deadline (seconds)
REMOTE_DEADLINE_S = 10.0

#: EXECs a remote worker keeps in flight on its connection
PIPELINE_DEPTH = 16

#: measured execution time a local worker's batch aims at (seconds), and the
#: most instructions one batch takes
LOCAL_BATCH_S = 0.001
LOCAL_BATCH_MAX = 64


class Unreachable(MdfError):
    pass


class OpcodeManifestMismatch(MdfError):
    pass


class BadState(MdfError):
    pass


class WorkerKilled(MdfError):
    """Simulated worker death (fault-injection hook)."""


@dataclass
class WorkerDescriptor:
    wid: int
    kind: str  # "local" | "remote"
    address: Optional[tuple[str, int]] = None
    state: str = "idle"  # idle | busy | stopped | failed
    completed: int = 0
    busy_ms: float = 0.0
    #: execution-time multiplier, used to simulate external overload
    slowdown: float = 1.0

    def __post_init__(self) -> None:
        self._stop = threading.Event()
        self._killed = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._executor = None


class LocalExecutor:
    """In-process executor; the opcode's synthetic cost is scaled by the
    descriptor's slowdown factor."""

    def __init__(self, registry: OpcodeRegistry) -> None:
        self.registry = registry

    def execute(self, desc: WorkerDescriptor, instr: MdfInstruction) -> list[bytes]:
        outputs = self.registry.run_encoded(
            instr.opcode, instr.inputs, desc.slowdown)
        if desc._killed.is_set():
            raise WorkerKilled(f"worker {desc.wid} died mid-instruction")
        return outputs

    def close(self) -> None:
        pass


class RemoteExecutor:
    """Executor backed by a remote worker daemon over the wire protocol.

    A remote worker's loop pipelines through `send` and `read`.  The daemon
    serves a connection in turn, so it starts a request no earlier than its
    send or the previous reply, whichever is later: that is when the
    request's deadline, max(REMOTE_DEADLINE_S, 8 x rolling mean service
    time), and its service time start.  Waiting behind earlier requests in
    the window counts toward neither.  Transport loss or a missed deadline
    surfaces as RemoteFailure and an opcode fault as OpcodeError.
    `execute`, one blocking round trip, has no caller in mdflow.
    """

    def __init__(self, host: str, port: int) -> None:
        try:
            self.client = WorkerClient(host, port)
        except (OSError, ConnectionError) as exc:
            raise Unreachable(f"{host}:{port}: {exc}") from exc
        # a send blocks until written or until `close`; `read` bounds each
        # reply by its own deadline
        self.client.sock.settimeout(None)
        self._durations: deque[float] = deque(maxlen=64)
        self._last_reply = 0.0

    @property
    def manifest(self) -> list[tuple[str, int, int]]:
        return self.client.manifest

    def _deadline(self) -> float:
        if not self._durations:
            return REMOTE_DEADLINE_S
        return max(REMOTE_DEADLINE_S, 8.0 * statistics.fmean(self._durations))

    def send(self, instr: MdfInstruction) -> int:
        """Send `instr`'s EXEC; its request id."""
        return self.client.send_exec(instr.opcode, instr.inputs)

    def read(self, req_id: int, sent_at: float) -> tuple[list[bytes], float]:
        """Read the reply to `req_id`, the oldest EXEC in flight, sent at
        `sent_at`; its outputs and its service time in seconds."""
        start = max(sent_at, self._last_reply)
        try:
            outputs = self.client.read_reply(
                req_id, max(start + self._deadline() - time.monotonic(), 0.0))
        finally:
            self._last_reply = time.monotonic()
        service = self._last_reply - start
        self._durations.append(service)
        return outputs, service

    def execute(self, desc: WorkerDescriptor, instr: MdfInstruction) -> list[bytes]:
        if desc._killed.is_set():
            raise WorkerKilled(f"worker {desc.wid} died mid-instruction")
        return self.read(self.send(instr), time.monotonic())[0]

    def close(self) -> None:
        self.client.close()


class _Window:
    """The EXECs in flight on one remote connection, oldest first, shared by
    the worker's sender and its reply reader."""

    def __init__(self) -> None:
        self.cond = threading.Condition()
        #: (req_id, gid, instr, sent_at) per EXEC sent
        self.sent: deque[tuple[int, int, MdfInstruction, float]] = deque()
        #: the connection is gone and the window was requeued
        self.lost = False
        #: the sender has stopped: the reader exits once the window is empty
        self.closing = False


class Runtime:
    """Worker pool plus per-worker control loops over a shared task pool."""

    def __init__(self, pool: TaskPool, registry: OpcodeRegistry,
                 comm_delay_ms: float = 0.0,
                 required_opcodes: Optional[list[str]] = None,
                 failure_cb: Optional[Callable[[WorkerDescriptor, Exception], None]] = None
                 ) -> None:
        self.pool = pool
        self.registry = registry
        self.comm_delay_ms = comm_delay_ms
        self.required_opcodes = list(required_opcodes or [])
        self.failure_cb = failure_cb
        self._wid = itertools.count(1)
        self._lock = threading.Lock()
        self.workers: dict[int, WorkerDescriptor] = {}
        # the dispatch path (send task + retrieve result) occupies a shared
        # link exclusively, like the master's network interface: this is what
        # makes low-grain programs stop scaling with more workers
        self._link = threading.Lock()

    # -- membership ---------------------------------------------------------

    def recruit(self, spec: WorkerSpec) -> WorkerDescriptor:
        """Add a worker in idle state.  spec is "local" or a (host, port)
        address; `harness.parse_workers` reads the text forms."""
        if spec == "local":
            executor = LocalExecutor(self.registry)
            desc = WorkerDescriptor(next(self._wid), "local")
        else:
            host, port = spec
            executor = RemoteExecutor(host, port)
            names = {name for name, _, _ in executor.manifest}
            missing = [op for op in self.required_opcodes
                       if not manifest_supports(names, op)]
            if missing:
                executor.close()
                raise OpcodeManifestMismatch(f"{host}:{port} missing opcodes {missing}")
            desc = WorkerDescriptor(next(self._wid), "remote", address=(host, port))
        desc._executor = executor
        with self._lock:
            self.workers[desc.wid] = desc
        return desc

    def start_worker(self, desc: WorkerDescriptor) -> None:
        if desc.state != "idle":
            raise BadState(f"worker {desc.wid} is {desc.state}")
        loop = self._remote_loop if desc.kind == "remote" else self._control_loop
        desc._thread = threading.Thread(target=loop, args=(desc,),
                                        daemon=True, name=f"mdflow-ctl-{desc.wid}")
        desc._thread.start()

    def start(self) -> None:
        """Start every recruited worker that has not been started yet."""
        with self._lock:
            descs = [d for d in self.workers.values()
                     if d.state == "idle" and d._thread is None]
        for desc in descs:
            self.start_worker(desc)

    def stop_worker(self, desc: WorkerDescriptor, timeout: float = 30.0) -> None:
        """Drain: finish the instructions in flight, then idle out of rotation."""
        if desc.state == "failed":
            raise BadState(f"worker {desc.wid} has failed")
        desc._stop.set()
        if desc._thread is not None:
            desc._thread.join(timeout=timeout)
        if desc.state != "failed":
            desc.state = "stopped"

    def kill_worker(self, desc: WorkerDescriptor) -> None:
        """Simulate sudden worker death: the instructions in flight (or the
        next one) fail and are requeued elsewhere."""
        desc._killed.set()

    def remove_worker(self, desc: WorkerDescriptor) -> None:
        with self._lock:
            self.workers.pop(desc.wid, None)
        if desc._executor is not None:
            desc._executor.close()

    def active_workers(self) -> list[WorkerDescriptor]:
        with self._lock:
            return [d for d in self.workers.values() if d.state in ("idle", "busy")]

    def active_count(self) -> int:
        return len(self.active_workers())

    def shutdown(self, timeout: float = 30.0) -> None:
        with self._lock:
            descs = list(self.workers.values())
        for desc in descs:
            desc._stop.set()
        for desc in descs:
            if desc._thread is not None:
                desc._thread.join(timeout=timeout)
            if desc._executor is not None:
                desc._executor.close()

    # -- the control loops ---------------------------------------------------

    def _control_loop(self, desc: WorkerDescriptor) -> None:
        """A local worker's loop.  The first batch is one instruction; each
        later one is sized so that it holds about LOCAL_BATCH_S of the
        execution time per instruction that the last batch measured."""
        pool, limit = self.pool, 1
        while not desc._stop.is_set():
            if desc._killed.is_set():
                self._fail(desc, WorkerKilled(f"worker {desc.wid} died"))
                return
            batch = pool.fetch_batch(0.05, limit)
            if not batch:
                continue
            desc.state = "busy"
            done: list[tuple[int, int, list[bytes]]] = []
            t0 = time.monotonic()
            for i, (gid, instr) in enumerate(batch):
                try:
                    if self.comm_delay_ms > 0:
                        self._use_link()
                    done.append((gid, instr.id, desc._executor.execute(desc, instr)))
                except DETERMINISTIC_FAULTS as exc:
                    pool.fail_graph(gid, str(exc))
                except Exception as exc:
                    self._complete_batch(desc, done, time.monotonic() - t0)
                    for gid, instr in reversed(batch[i:]):  # the oldest ends up first
                        with contextlib.suppress(NotInFlight):  # a sibling failed the graph
                            pool.requeue(gid, instr.id)
                    self._fail(desc, exc)
                    return
            busy_s = time.monotonic() - t0
            self._complete_batch(desc, done, busy_s)
            per_instruction_s = max(busy_s, 1e-9) / len(batch)
            limit = max(1, min(LOCAL_BATCH_MAX, int(LOCAL_BATCH_S / per_instruction_s)))
            desc.state = "idle"
        desc.state = "stopped"

    def _complete_batch(self, desc: WorkerDescriptor,
                        done: list[tuple[int, int, list[bytes]]], busy_s: float) -> None:
        """Complete a local batch's executed instructions and count them, with
        `busy_s`, toward the worker's statistics."""
        self.pool.complete_batch(done)
        desc.completed += len(done)
        desc.busy_ms += busy_s * 1000.0

    def _remote_loop(self, desc: WorkerDescriptor) -> None:
        """A remote worker's sender: keep up to PIPELINE_DEPTH EXECs in flight
        while `_read_replies`, on a thread of its own, completes them."""
        pool, executor, window = self.pool, desc._executor, _Window()
        reader = threading.Thread(target=self._read_replies, args=(desc, window),
                                  daemon=True, name=f"mdflow-reader-{desc.wid}")
        reader.start()
        try:
            while not desc._stop.is_set() and not window.lost:
                if desc._killed.is_set():
                    self._lose(desc, window, WorkerKilled(f"worker {desc.wid} died"))
                    return
                with window.cond:
                    if len(window.sent) >= PIPELINE_DEPTH:
                        window.cond.wait(0.05)
                        continue
                item = pool.fetch_fireable(0.05)
                if item is None:
                    continue
                gid, instr = item
                try:
                    if self.comm_delay_ms > 0:
                        self._use_link()
                    sent_at = time.monotonic()
                    req_id = executor.send(instr)
                except Exception as exc:
                    with contextlib.suppress(NotInFlight):
                        pool.requeue(gid, instr.id)
                    self._lose(desc, window, exc)
                    return
                with window.cond:
                    if not window.lost:
                        window.sent.append((req_id, gid, instr, sent_at))
                        desc.state = "busy"
                        window.cond.notify_all()
                        continue
                # the reader lost the connection while this EXEC was sent
                with contextlib.suppress(NotInFlight):
                    pool.requeue(gid, instr.id)
        finally:
            with window.cond:
                window.closing = True
                window.cond.notify_all()
            reader.join()
        if not window.lost:
            desc.state = "stopped"

    def _read_replies(self, desc: WorkerDescriptor, window: _Window) -> None:
        """A remote worker's reader: the daemon answers in send order, so each
        reply must answer the oldest EXEC in flight, within the deadline that
        `RemoteExecutor.read` sets."""
        executor = desc._executor
        try:
            while True:
                with window.cond:
                    while not (window.sent or window.closing or window.lost):
                        window.cond.wait()
                    if window.lost or not window.sent:
                        return
                    req_id, gid, instr, sent_at = window.sent[0]
                try:
                    outcome, busy_s = executor.read(req_id, sent_at)
                except DETERMINISTIC_FAULTS as exc:
                    outcome, busy_s = exc, 0.0
                with window.cond:
                    if window.lost:  # requeued with the window
                        return
                    window.sent.popleft()
                    if not window.sent:
                        desc.state = "idle"
                    window.cond.notify_all()
                self._finish(desc, gid, instr.id, outcome, busy_s)
        except Exception as exc:  # the connection is lost, or delivery broke
            self._lose(desc, window, exc)

    def _lose(self, desc: WorkerDescriptor, window: _Window, exc: Exception) -> None:
        """A remote worker's connection is gone: requeue every EXEC in flight,
        close the connection and fail the worker, once."""
        with window.cond:
            if window.lost:
                return
            window.lost = True
            sent = list(window.sent)
            window.sent.clear()
            window.cond.notify_all()
        for _, gid, instr, _ in reversed(sent):  # the oldest ends up first
            with contextlib.suppress(NotInFlight):  # a sibling failed the graph
                self.pool.requeue(gid, instr.id)
        desc._executor.close()
        self._fail(desc, exc)

    def _use_link(self) -> None:
        """Hold the shared link for one dispatch's communication delay."""
        with self._link:
            time.sleep(self.comm_delay_ms / 1000.0)

    def _finish(self, desc: WorkerDescriptor, gid: int, iid: int,
                outcome: Union[list[bytes], Exception], busy_s: float) -> None:
        """Apply the fault policy to one remote execution's outcome: its
        outputs, or the deterministic fault it raised.  Outputs complete the
        instruction and count `busy_s` as the worker's busy time; a
        deterministic fault fails the instruction's graph and keeps the
        worker (`complete` does the same for a wiring fault)."""
        if isinstance(outcome, Exception):
            self.pool.fail_graph(gid, str(outcome))
            return
        self.pool.complete(gid, iid, outcome)
        desc.completed += 1
        desc.busy_ms += busy_s * 1000.0

    def _fail(self, desc: WorkerDescriptor, exc: Exception) -> None:
        """Mark a worker failed, once its work in flight is requeued, and tell
        `failure_cb`.  An exception from the callback ends the worker's
        thread, so `threading.excepthook` reports it."""
        desc.state = "failed"
        if self.failure_cb is not None:
            self.failure_cb(desc, exc)
