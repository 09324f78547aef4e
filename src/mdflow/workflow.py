"""Futures-based workflow frontend.

Each submitted call becomes one already-fireable single-instruction graph
in the task pool; the returned Future completes when that graph's external
output is emitted.  Arguments may themselves be pending Futures: dispatch
is event-driven, triggered by the completion of the last pending
dependency, so no control flow blocks while waiting.

Values cross the pool encoded.  Literal arguments are encoded once, when
`submit` is called.  A Future carries the bytes its producer emitted: a
dependent call receives them as they are, and the value is decoded lazily,
at most once, when `get_value` or `part` first needs it.
"""
from __future__ import annotations

import copy
import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from . import codec
from .core import ArityMismatch, MdfError, OpcodeRegistry
from .taskpool import ResultRecord, TaskPool


#: a Future's value before its producer's bytes are decoded
_UNDECODED = object()


class UpstreamFailed(MdfError):
    pass


class FutureTimeout(MdfError):
    pass


class WorkflowFileError(MdfError):
    pass


class Future:
    """Placeholder for an asynchronous result: pending -> ready exactly once.

    A future settled from an emitted ResultRecord keeps the producer's
    encoded bytes and decodes them at most once, when `get_value` or `part`
    first needs the value; a dependent call receives those bytes unchanged.
    A `threading.Event` is made only for a `get_value` that has to block."""

    __slots__ = ("_lock", "_ready", "_event", "_callbacks", "_encoded", "_value", "_error")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ready = False
        self._event: Optional[threading.Event] = None
        self._callbacks: list[Callable[["Future"], None]] = []
        #: the producer's bytes, or the encoding made for a dependent call
        self._encoded: Optional[bytes] = None
        self._value: Any = _UNDECODED
        self._error: Optional[Exception] = None

    def is_ready(self) -> bool:
        return self._ready

    def get_value(self, timeout: Optional[float] = None) -> Any:
        if not self._ready:
            with self._lock:
                if not self._ready and self._event is None:
                    self._event = threading.Event()
                # None only when the future is ready; else _settle sets it
                event = self._event
            if event is not None and not event.wait(timeout):
                raise FutureTimeout(f"future not ready after {timeout}s")
        return self._result()

    def _result(self) -> Any:
        """The settled value, decoded on first use; raises the future's
        error, or the CodecError of bytes that do not decode."""
        if self._value is _UNDECODED and self._error is None:
            with self._lock:
                if self._value is _UNDECODED and self._error is None:
                    try:
                        self._value = codec.decode(self._encoded)
                    except codec.CodecError as exc:
                        self._error = exc
        if self._error is not None:
            # a copy per call: raising the stored exception itself would add
            # this call's frames to its one __traceback__, every call and in
            # every thread that reads the future
            raise copy.copy(self._error).with_traceback(self._error.__traceback__)
        return self._value

    def _payload(self) -> bytes:
        """The value as a dependent call's argument: the producer's bytes
        when there are any (a part's value is encoded here)."""
        if self._encoded is None:
            self._encoded = codec.encode(self._value)
        return self._encoded

    def _settle(self, value: Any = _UNDECODED, error: Optional[Exception] = None,
                encoded: Optional[bytes] = None) -> None:
        """Make the future ready with a value, the producer's bytes or an
        error; the first settle wins and later ones are ignored."""
        with self._lock:
            if self._ready:
                return
            self._value, self._encoded, self._error = value, encoded, error
            self._ready = True
            callbacks, self._callbacks = self._callbacks, []
            if self._event is not None:
                self._event.set()
        for cb in callbacks:
            cb(self)

    def _on_done(self, cb: Callable[["Future"], None]) -> None:
        with self._lock:
            if not self._ready:
                self._callbacks.append(cb)
                return
        cb(self)

    def part(self, index: int) -> "Future":
        """Derived future addressing one component of a multi-output result."""
        child = Future()

        def propagate(parent: "Future") -> None:
            try:
                value = parent._result()[index]
            except (MdfError, codec.CodecError) as exc:
                child._settle(error=UpstreamFailed(str(exc)))
            except (TypeError, IndexError, KeyError) as exc:
                child._settle(error=UpstreamFailed(f"part {index}: {exc}"))
            else:
                child._settle(value)

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
        dispatched once every Future argument is ready.  Literal args are
        encoded here, so one that cannot be encoded raises CodecError and
        nothing is submitted."""
        op = self.registry.resolve(opcode)  # raises UnknownOpcode
        if len(args) != op.in_arity:
            raise ArityMismatch(f"{opcode}: expected {op.in_arity} args, got {len(args)}")
        result = Future()
        payloads: list[Optional[bytes]] = []
        pending: list[tuple[int, Future]] = []
        for i, arg in enumerate(args):
            if isinstance(arg, Future):
                pending.append((i, arg))
                payloads.append(None)
            else:
                payloads.append(codec.encode(arg))

        def on_emit(record: ResultRecord) -> None:
            if record.error is not None:
                result._settle(error=UpstreamFailed(record.error))
            else:
                result._settle(encoded=record.value)

        def try_dispatch() -> None:
            # the graph carries on_emit from birth: no completion can miss it
            self.pool.submit_call(opcode, payloads, on_emit=on_emit)

        if not pending:
            try_dispatch()
            return result
        remaining = len(pending)
        count_lock = threading.Lock()

        def on_dep_done(i: int, dep: Future) -> None:
            nonlocal remaining
            if dep._error is not None:
                # a failed dependency never counts down, so nothing dispatches
                result._settle(error=UpstreamFailed(str(dep._error)))
                return
            payloads[i] = dep._payload()
            with count_lock:
                remaining -= 1
                last = remaining == 0
            if last:
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

def read_workflow(source: Union[str, list]) -> list[dict]:
    """A workflow description's nodes, from a JSON file path or a list;
    WorkflowFileError unless each node has a new name, an opcode and args,
    and each `$name.k` names `input` or an earlier node and a part k >= 0."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            nodes = json.load(fh)
    else:
        nodes = source
    if not isinstance(nodes, list) or not nodes:
        raise WorkflowFileError("workflow file must be a non-empty JSON list")
    seen = {"input"}
    for node in nodes:
        if not (isinstance(node, dict) and isinstance(node.get("name"), str)
                and isinstance(node.get("opcode"), str)
                and isinstance(node.get("args"), list)):
            raise WorkflowFileError(
                f"node needs a string name and opcode and a list of args: {node!r}")
        if node["name"] in seen:
            raise WorkflowFileError(f"duplicate node name {node['name']!r}")
        for arg in node["args"]:
            if isinstance(arg, str) and arg.startswith("$"):
                ref, dot, part = arg[1:].partition(".")
                if ref not in seen:
                    raise WorkflowFileError(
                        f"node {node['name']!r} references {ref!r} before definition")
                if dot and not (part.isascii() and part.isdigit()):
                    raise WorkflowFileError(f"node {node['name']!r}: part of {arg!r}"
                                            " is not a non-negative integer")
        seen.add(node["name"])
    return nodes


def load_workflow(source: Union[str, list]) -> Callable[[WorkflowEngine, Any], Future]:
    """Runner of a description (`read_workflow`): one item -> last node's Future."""
    nodes = read_workflow(source)

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
