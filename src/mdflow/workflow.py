"""Futures-based workflow frontend.

Each submitted call becomes one already-fireable single-instruction graph
in the task pool; the returned Future completes when that graph's external
output is emitted.  Arguments may themselves be pending Futures: dispatch
is event-driven, triggered by the completion of the last pending
dependency, so no control flow blocks while waiting.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from . import codec
from .core import ArityMismatch, MdfError, OpcodeRegistry
from .taskpool import ResultRecord, TaskPool


class UpstreamFailed(MdfError):
    pass


class FutureTimeout(MdfError):
    pass


class WorkflowFileError(MdfError):
    pass


class Future:
    """Placeholder for an asynchronous result: pending -> ready exactly once."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._value: Any = None
        self._error: Optional[Exception] = None
        self._callbacks: list[Callable[["Future"], None]] = []

    def is_ready(self) -> bool:
        return self._event.is_set()

    def get_value(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise FutureTimeout(f"future not ready after {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value

    def _settle(self, value: Any, error: Optional[Exception] = None) -> None:
        """Make the future ready with a value, or with an error when one is
        given; the first settle wins and later ones are ignored."""
        with self._lock:
            if self._event.is_set():
                return
            self._value, self._error = value, error
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(self)

    def _on_done(self, cb: Callable[["Future"], None]) -> None:
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(cb)
                return
        cb(self)

    def part(self, index: int) -> "Future":
        """Derived future addressing one component of a multi-output result."""
        child = Future()

        def propagate(parent: "Future") -> None:
            if parent._error is not None:
                child._settle(None, UpstreamFailed(str(parent._error)))
                return
            try:
                child._settle(parent._value[index])
            except (TypeError, IndexError, KeyError) as exc:
                child._settle(None, UpstreamFailed(f"part {index}: {exc}"))

        self._on_done(propagate)
        return child


class WorkflowEngine:
    """Turns compute calls into fireable instructions over a shared pool."""

    def __init__(self, pool: TaskPool, registry: OpcodeRegistry) -> None:
        self.pool = pool
        self.registry = registry

    def submit(self, opcode: str, args: Sequence[Any]) -> Future:
        """Submit a computation whose args may be payloads or Futures.

        Returns immediately with a pending Future; the instruction is
        dispatched once every Future argument is ready."""
        op = self.registry.resolve(opcode)  # raises UnknownOpcode
        if len(args) != op.in_arity:
            raise ArityMismatch(f"{opcode}: expected {op.in_arity} args, got {len(args)}")
        result = Future()
        resolved: list[Any] = list(args)
        pending: list[tuple[int, Future]] = [
            (i, a) for i, a in enumerate(args) if isinstance(a, Future)]
        state = {"remaining": len(pending)}
        state_lock = threading.Lock()

        def on_emit(record: ResultRecord) -> None:
            if record.error is not None:
                result._settle(None, UpstreamFailed(record.error))
            else:
                result._settle(codec.decode(record.value))

        def try_dispatch() -> None:
            # the graph carries on_emit from birth: no completion can miss it
            self.pool.submit_call(opcode, [codec.encode(v) for v in resolved],
                                  on_emit=on_emit)

        def on_dep_done(i: int, dep: Future) -> None:
            if dep._error is not None:
                # a failed dependency never counts down, so nothing dispatches
                result._settle(None, UpstreamFailed(str(dep._error)))
                return
            resolved[i] = dep._value
            with state_lock:
                state["remaining"] -= 1
                last = state["remaining"] == 0
            if last:
                try_dispatch()

        if not pending:
            try_dispatch()
        for i, dep in pending:
            dep._on_done(lambda d, _i=i: on_dep_done(_i, d))
        return result

    # -- stream of workflow instances ----------------------------------------

    def run_stream(self, workflow: Callable[["WorkflowEngine", Any], Any],
                   inputs: Iterable[Any], window: int = 8,
                   timeout: Optional[float] = None) -> list["StreamResult"]:
        """Launch one workflow instance per input, at most `window` in
        flight; results come back tagged with their input seq."""
        if window < 1:
            raise ValueError("window must be >= 1")
        results: dict[int, StreamResult] = {}
        gate = threading.BoundedSemaphore(window)
        threads: list[threading.Thread] = []

        def run_one(seq: int, task: Any) -> None:
            try:
                out = workflow(self, task)
                if isinstance(out, Future):
                    out = out.get_value(timeout)
                results[seq] = StreamResult(seq, value=out)
            except Exception as exc:
                results[seq] = StreamResult(seq, error=exc)
            finally:
                gate.release()

        count = 0
        for seq, task in enumerate(inputs):
            gate.acquire()
            t = threading.Thread(target=run_one, args=(seq, task), daemon=True)
            t.start()
            threads.append(t)
            count += 1
        for t in threads:
            t.join()
        return [results[i] for i in range(count)]


@dataclass
class StreamResult:
    seq: int
    value: Any = None
    error: Optional[Exception] = None


# ---------------------------------------------------------------------------
# Workflow description files: JSON list of nodes
#   {"name": ..., "opcode": ..., "args": [literal | "$node" | "$node.k"]}
# "$input" refers to the stream item; the last node is the workflow result.

def load_workflow(source: Union[str, list]) -> Callable[[WorkflowEngine, Any], Future]:
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            nodes = json.load(fh)
    else:
        nodes = source
    if not isinstance(nodes, list) or not nodes:
        raise WorkflowFileError("workflow file must be a non-empty JSON list")
    seen = {"input"}
    for node in nodes:
        for key in ("name", "opcode", "args"):
            if key not in node:
                raise WorkflowFileError(f"node missing {key!r}: {node}")
        if node["name"] in seen:
            raise WorkflowFileError(f"duplicate node name {node['name']!r}")
        for arg in node["args"]:
            if isinstance(arg, str) and arg.startswith("$"):
                ref = arg[1:].split(".", 1)[0]
                if ref not in seen:
                    raise WorkflowFileError(
                        f"node {node['name']!r} references {ref!r} before definition")
        seen.add(node["name"])

    def run(engine: WorkflowEngine, task: Any) -> Future:
        futures: dict[str, Future] = {}

        def resolve(arg: Any) -> Any:
            if not (isinstance(arg, str) and arg.startswith("$")):
                return arg
            ref = arg[1:]
            name, _, part = ref.partition(".")
            if name == "input":
                return task if not part else task[int(part)]
            fut = futures[name]
            return fut.part(int(part)) if part else fut

        for node in nodes:
            futures[node["name"]] = engine.submit(
                node["opcode"], [resolve(a) for a in node["args"]])
        return futures[nodes[-1]["name"]]

    return run
