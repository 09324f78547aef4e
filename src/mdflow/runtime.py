"""The distributed macro data-flow interpreter.

One control loop per recruited worker: fetch a fireable instruction from
the task pool, execute it (in process or on a remote daemon over the wire
protocol), and deliver the output tokens.  A worker failure requeues the
in-flight instruction and marks the worker failed; surviving loops pick the
work up, so execution is at-least-once while emission stays exactly-once
(the pool deduplicates).
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
    OpcodeError,
    OpcodeRegistry,
    manifest_supports,
)
from .protocol import OPCODE_FAULT_PREFIX, RemoteFailure, WorkerClient
from .taskpool import NotInFlight, TaskPool

WorkerSpec = Union[str, tuple[str, int]]

#: floor of a remote dispatch's deadline (seconds)
REMOTE_DEADLINE_S = 10.0


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

    kind = "local"

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

    The per-dispatch deadline is max(REMOTE_DEADLINE_S, 8 x rolling mean
    instruction duration); transport loss surfaces as RemoteFailure.
    """

    kind = "remote"

    def __init__(self, host: str, port: int) -> None:
        try:
            self.client = WorkerClient(host, port)
        except (OSError, ConnectionError) as exc:
            raise Unreachable(f"{host}:{port}: {exc}") from exc
        self._durations: deque[float] = deque(maxlen=64)

    @property
    def manifest(self) -> list[tuple[str, int, int]]:
        return self.client.manifest

    def _deadline(self) -> float:
        if not self._durations:
            return REMOTE_DEADLINE_S
        return max(REMOTE_DEADLINE_S, 8.0 * statistics.fmean(self._durations))

    def execute(self, desc: WorkerDescriptor, instr: MdfInstruction) -> list[bytes]:
        if desc._killed.is_set():
            raise WorkerKilled(f"worker {desc.wid} died mid-instruction")
        t0 = time.monotonic()
        try:
            outputs = self.client.execute(
                instr.opcode, instr.inputs, self._deadline())
        except RemoteFailure as exc:
            if str(exc).startswith(OPCODE_FAULT_PREFIX):
                raise OpcodeError(str(exc)[len(OPCODE_FAULT_PREFIX):]) from exc
            raise
        self._durations.append(time.monotonic() - t0)
        return outputs

    def close(self) -> None:
        self.client.close()


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
        if desc._thread is not None and desc._thread.is_alive():
            return
        desc._stop.clear()
        desc._thread = threading.Thread(target=self._control_loop, args=(desc,),
                                        daemon=True, name=f"mdflow-ctl-{desc.wid}")
        desc._thread.start()

    def start(self) -> None:
        with self._lock:
            descs = [d for d in self.workers.values() if d.state == "idle"]
        for desc in descs:
            if desc._thread is None or not desc._thread.is_alive():
                self.start_worker(desc)

    def stop_worker(self, desc: WorkerDescriptor, timeout: float = 30.0) -> None:
        """Drain: finish the in-flight instruction, then idle out of rotation."""
        if desc.state == "failed":
            raise BadState(f"worker {desc.wid} has failed")
        desc._stop.set()
        if desc._thread is not None:
            desc._thread.join(timeout=timeout)
        if desc.state != "failed":
            desc.state = "stopped"

    def restart_worker(self, desc: WorkerDescriptor) -> None:
        if desc.state != "stopped":
            raise BadState(f"worker {desc.wid} is {desc.state}, not stopped")
        desc.state = "idle"
        self.start_worker(desc)

    def kill_worker(self, desc: WorkerDescriptor) -> None:
        """Simulate sudden worker death: the current (or next) instruction
        fails and is requeued elsewhere."""
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

    # -- the control loop ---------------------------------------------------

    def _control_loop(self, desc: WorkerDescriptor) -> None:
        pool = self.pool
        while not desc._stop.is_set():
            if desc._killed.is_set():
                self._fail(desc, WorkerKilled(f"worker {desc.wid} died"))
                return
            item = pool.fetch_fireable(0.05)
            if item is None:
                continue
            gid, instr = item
            desc.state = "busy"
            t0 = time.monotonic()
            try:
                if self.comm_delay_ms > 0:
                    with self._link:
                        time.sleep(self.comm_delay_ms / 1000.0)
                outputs = desc._executor.execute(desc, instr)
            except DETERMINISTIC_FAULTS as exc:
                # the instruction is at fault: fail its graph, keep the worker
                pool.fail_graph(gid, str(exc))
                desc.state = "idle"
                continue
            except Exception as exc:
                with contextlib.suppress(NotInFlight):  # a sibling failed the graph
                    pool.requeue(gid, instr.id)
                self._fail(desc, exc)
                return
            pool.complete(gid, instr.id, outputs)
            desc.completed += 1
            desc.busy_ms += (time.monotonic() - t0) * 1000.0
            desc.state = "idle"
        desc.state = "stopped"

    def _fail(self, desc: WorkerDescriptor, exc: Exception) -> None:
        desc.state = "failed"
        if self.failure_cb is not None:
            try:
                self.failure_cb(desc, exc)
            except Exception:
                pass
