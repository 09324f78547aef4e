"""The instruction repository and matching unit.

One graph instance is created per submitted stream item.  The pool routes
result tokens to waiting instructions, keeps a FIFO queue of fireable
instructions for the worker control loops, and emits external outputs as
ResultRecords.  Execution is at-least-once (a requeued instruction may run
twice) but emission is exactly-once: completions are deduplicated by
per-instruction marks that live in the graph's record and go with it when
the graph retires.

Waiters are woken once per hold of the pool lock: the code under the lock
only counts what it made ready, and the public method that took the lock
wakes one waiter per new queue entry, or every waiter if a graph retired,
as it lets the lock go.  A batch of completions therefore wakes once.
"""
from __future__ import annotations

import bisect
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import codec
from .core import (
    OUT,
    Dest,
    MdfError,
    MdfGraph,
    MdfInstruction,
    instantiate,
    is_fireable,
    make_instruction,
    store_token,
)

# Instruction states in a live graph's record; an instruction with no state
# is still waiting for tokens.
QUEUED, IN_FLIGHT, DONE = "queued", "in_flight", "done"


class PoolClosed(MdfError):
    pass


class UnknownGraph(MdfError):
    pass


class NotInFlight(MdfError):
    pass


@dataclass(slots=True)
class ResultRecord:
    """One emitted result, the pool's only record of an emission: seq is the
    submission sequence number."""

    seq: int
    gid: int
    value: Optional[bytes]
    dispatch_ts: float
    complete_ts: float
    error: Optional[str] = None


@dataclass(slots=True)
class _Live:
    """Everything the pool keeps about one live graph; retirement drops it."""

    graph: MdfGraph
    seq: int
    on_emit: Optional[Callable[[ResultRecord], None]] = None
    #: iid -> QUEUED | IN_FLIGHT | DONE
    state: dict[int, str] = field(default_factory=dict)
    #: iid -> time of its latest dispatch
    dispatched: dict[int, float] = field(default_factory=dict)


class TaskPool:
    """Shared, internally synchronized repository of live graphs.

    Many producers (submitters, token deliverers) and many consumers
    (worker control loops) operate concurrently; token storage, the
    fireability check and enqueueing are atomic per instruction.  Each
    method that changes the queue or retires graphs wakes waiters once, in
    `_wake`, before it releases the lock.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._graphs: dict[int, _Live] = {}
        #: (gid, iid) of fireable instructions; a key whose instruction is no
        #: longer QUEUED (its graph retired, or it completed late) is skipped
        self._queue: deque[tuple[int, int]] = deque()
        #: queue entries made, and whether a graph retired, since the last
        #: `_wake`
        self._enqueued = 0
        self._retired = False
        self._gids = itertools.count(1)
        self._submitted = 0
        self._closed = False
        self._paused = False
        self._sinks: list[Callable[[ResultRecord], None]] = []
        #: every emission in complete_ts order (appended under the lock)
        self.results: list[ResultRecord] = []

    # -- submission ---------------------------------------------------------

    def add_sink(self, sink: Callable[[ResultRecord], None]) -> None:
        with self._cond:
            self._sinks.append(sink)

    def submit_task(self, template: MdfGraph, payload: bytes) -> int:
        """Instantiate the template with a fresh gid; the task appears as the
        input token of the graph's input instruction."""
        with self._cond:
            graph = instantiate(template, next(self._gids))
            instr = graph.instructions[graph.input_id]
            store_token(instr, 1, payload)
            gid = self._register(graph, instr)
            self._wake()
            return gid

    def submit_call(self, opcode: str, payloads: list[bytes],
                    on_emit: Optional[Callable[[ResultRecord], None]] = None) -> int:
        """Submit an already-fireable single-instruction graph (the workflow
        matching unit path).  `on_emit` receives the graph's ResultRecord,
        under the pool lock, before the sinks do."""
        with self._cond:
            gid = next(self._gids)
            instr = make_instruction(1, gid, opcode, len(payloads), [OUT])
            for slot, p in enumerate(payloads, start=1):
                store_token(instr, slot, p)
            self._register(MdfGraph({1: instr}, 1, gid=gid), instr, on_emit)
            self._wake()
            return gid

    def _register(self, graph: MdfGraph, first: MdfInstruction,
                  on_emit: Optional[Callable[[ResultRecord], None]] = None) -> int:
        """Give a new graph its record and queue its input instruction."""
        if self._closed:
            raise PoolClosed("pool closed")
        live = self._graphs[graph.gid] = _Live(graph, self._submitted, on_emit)
        self._submitted += 1
        self._maybe_enqueue(graph.gid, live, first)
        return graph.gid

    def _maybe_enqueue(self, gid: int, live: _Live, instr: MdfInstruction) -> None:
        if instr.id not in live.state and is_fireable(instr):
            live.state[instr.id] = QUEUED
            self._queue.append((gid, instr.id))
            self._enqueued += 1

    def _wake(self) -> None:
        """Wake the waiters for what this hold of the lock made ready: every
        waiter if a graph retired (`wait_quiescent` waits too), else one per
        new queue entry.  Called under the lock, once per public method."""
        if self._retired:
            self._cond.notify_all()
        elif self._enqueued:
            self._cond.notify(self._enqueued)
        self._enqueued, self._retired = 0, False

    def close(self) -> None:
        with self._cond:
            self._closed = True

    # -- token routing ------------------------------------------------------

    def _deliver(self, gid: int, dest: Dest, value: bytes, producer: int) -> None:
        """Route one token: external Dest emits a ResultRecord and retires the
        graph; an internal Dest stores the token and may make its target
        fireable.  `producer` is the instruction that computed the value (used
        for dispatch timing on emission)."""
        live = self._graphs.get(gid)
        if live is None:
            raise UnknownGraph(f"graph {gid} is not live")
        if dest.is_external:
            self._retire(gid, value, producer)
            return
        instr = live.graph.instructions.get(dest.instr_id)
        if instr is None:
            raise UnknownGraph(f"graph {gid} has no instruction {dest.instr_id}")
        store_token(instr, dest.slot, value)
        self._maybe_enqueue(gid, live, instr)

    def _retire(self, gid: int, value: Optional[bytes], producer: Optional[int],
                error: Optional[str] = None) -> None:
        now = time.time()
        live = self._graphs.pop(gid)
        record = ResultRecord(live.seq, gid, value, live.dispatched.get(producer, now),
                              now, error)
        self.results.append(record)
        if live.on_emit is not None:
            live.on_emit(record)
        for sink in self._sinks:
            sink(record)
        self._retired = True

    def complete(self, gid: int, iid: int, outputs: list[bytes]) -> bool:
        """Record a finished execution and deliver its outputs atomically: a
        batch of one (`complete_batch`)."""
        return self.complete_batch([(gid, iid, outputs)])[0]

    def complete_batch(self, items: list[tuple[int, int, list[bytes]]]) -> list[bool]:
        """Complete each `(gid, iid, outputs)` in turn under one hold of the
        lock, waking waiters once at its end; one flag per item.

        An item's flag is False (and it delivers nothing) for a duplicate: a
        second completion of a requeued instruction, or a completion arriving
        after the graph retired.  An output count that fits neither the dests
        nor a single dest, outputs that do not decode where a single dest
        needs them re-encoded, or a token its dest cannot take fail the
        item's graph, and the batch goes on: the instruction is at fault."""
        with self._cond:
            try:
                return [self._complete(gid, iid, outputs) for gid, iid, outputs in items]
            finally:
                self._wake()

    def _complete(self, gid: int, iid: int, outputs: list[bytes]) -> bool:
        live = self._graphs.get(gid)
        if live is None or live.state.get(iid) == DONE:
            return False
        live.state[iid] = DONE
        dests = live.graph.instructions[iid].dests
        if len(outputs) != len(dests):
            if len(dests) != 1:
                self._retire(gid, None, iid, error=(
                    f"instruction {iid}: {len(outputs)} outputs for {len(dests)} dests"))
                return True
            # multi-output opcode behind a single destination: the token
            # carries the whole output vector
            try:
                outputs = [codec.encode([codec.decode(o) for o in outputs])]
            except codec.CodecError as exc:
                self._retire(gid, None, iid, error=f"instruction {iid}: {exc}")
                return True
        try:
            for dest, value in zip(dests, outputs):
                self._deliver(gid, dest, value, iid)
        except MdfError as exc:  # a wiring fault
            if gid in self._graphs:
                self._retire(gid, None, None, error=str(exc))
        return True

    def fail_graph(self, gid: int, message: str) -> None:
        """Retire a graph with a failure record (deterministic opcode fault)."""
        with self._cond:
            if gid in self._graphs:
                self._retire(gid, None, None, error=message)
                self._wake()

    # -- worker-facing ------------------------------------------------------

    def fetch_fireable(self, timeout: float) -> Optional[tuple[int, MdfInstruction]]:
        """Oldest enqueued fireable instruction, marked in-flight; None after
        the timeout with an empty (or paused) queue.  A batch of one."""
        batch = self.fetch_batch(timeout, 1)
        return batch[0] if batch else None

    def fetch_batch(self, timeout: float, limit: int) -> list[tuple[int, MdfInstruction]]:
        """Up to `limit` of the oldest enqueued fireable instructions as
        `(gid, instr)`, oldest first, each marked in-flight with one dispatch
        time.  Waits only for the first: a short queue gives a short batch.
        [] after the timeout with an empty (or paused) queue."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if not self._paused and self._queue:
                    queue, graphs, batch = self._queue, self._graphs, []
                    now = time.time()
                    while queue and len(batch) < limit:
                        gid, iid = queue.popleft()
                        live = graphs.get(gid)
                        if live is None or live.state[iid] != QUEUED:
                            continue
                        live.state[iid] = IN_FLIGHT
                        live.dispatched[iid] = now
                        # no copy: a fireable instruction's slots are full for good
                        batch.append((gid, live.graph.instructions[iid]))
                    if batch:
                        return batch
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)

    def requeue(self, gid: int, iid: int) -> None:
        """Return an in-flight instruction to the queue head (retry priority)."""
        with self._cond:
            live = self._graphs.get(gid)
            if live is None or live.state.get(iid) != IN_FLIGHT:
                raise NotInFlight(f"instruction {(gid, iid)} is not in flight")
            live.state[iid] = QUEUED
            self._queue.appendleft((gid, iid))
            self._cond.notify()

    def pause_dispatch(self) -> float:
        """Stop handing out fireable instructions; returns the pause timestamp."""
        with self._cond:
            self._paused = True
            return time.time()

    def resume_dispatch(self) -> float:
        with self._cond:
            self._paused = False
            self._cond.notify_all()
            return time.time()

    # -- introspection ------------------------------------------------------

    def pending_count(self) -> int:
        with self._cond:
            return len(self._graphs)

    def wait_quiescent(self, timeout: float) -> bool:
        """Block until all submitted tasks have been emitted."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._graphs:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.25))
            return True

    def throughput(self, window_s: float) -> float:
        """Emissions per second over the trailing window."""
        cutoff = time.time() - window_s
        with self._cond:
            first = bisect.bisect_left(self.results, cutoff, key=lambda r: r.complete_ts)
            return (len(self.results) - first) / window_s

    def metrics(self) -> dict[str, Any]:
        with self._cond:
            states = [s for live in self._graphs.values() for s in live.state.values()]
            return {
                "submitted": self._submitted,
                "emitted": len(self.results),
                "in_flight": states.count(IN_FLIGHT),
                "fireable": states.count(QUEUED),
                "live_graphs": len(self._graphs),
            }
