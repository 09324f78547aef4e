"""The application/autonomic manager.

Accepts a performance contract (fixed parallelism degree, minimum
throughput, or a <measures, predicate> QoS pair), monitors measures over
sliding windows, and when the contract breaks evaluates pre-defined
reconfiguration plans: each plan is an action list plus a forecast formula
predicting measure values after the actions.  A plan is valid if the
forecast-updated bindings satisfy the contract; among valid plans the one
adding the fewest workers runs.  If no plan is valid an escalation event is
raised to the registered callback.

Policies are best effort: a parallelism degree larger than the recruitable
resources degrades to whatever can be recruited, down to one local worker.
"""
from __future__ import annotations

import ast
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from .core import MdfError
from .runtime import Runtime, WorkerSpec
from .taskpool import TaskPool


class UnmonitorableVariable(MdfError):
    pass


class SensorUnavailable(MdfError):
    pass


class RecruitmentFailed(MdfError):
    def __init__(self, requested: int, recruited: int):
        super().__init__(f"recruited {recruited} of {requested} workers")
        self.requested = requested
        self.recruited = recruited


class WouldEmptyPool(MdfError):
    pass


class ContractExpressionError(MdfError):
    pass


# ---------------------------------------------------------------------------
# Contracts

@dataclass(frozen=True)
class ParDegree:
    n: int


@dataclass(frozen=True)
class Throughput:
    """Minimum sustained rate in tasks per second (strict: measured > rate)."""

    rate: float


@dataclass(frozen=True)
class QoSContract:
    """<V, E>: measure names and a predicate expression over them."""

    variables: tuple[str, ...]
    predicate: str


Contract = Union[ParDegree, Throughput, QoSContract]

_ALLOWED_FUNCS = {"min": min, "max": max, "abs": abs}
_ALLOWED_NODES = (
    ast.Expression, ast.BoolOp, ast.BinOp, ast.UnaryOp, ast.Compare, ast.Call,
    ast.Name, ast.Constant, ast.IfExp, ast.Load, ast.And, ast.Or, ast.Not,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.USub, ast.UAdd, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE,
    ast.Tuple, ast.List,
)


def expr_variables(expr: str) -> set[str]:
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ContractExpressionError(f"bad expression {expr!r}: {exc}") from exc
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ContractExpressionError(
                f"disallowed construct {type(node).__name__} in {expr!r}")
        if isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_FUNCS):
                raise ContractExpressionError(f"disallowed call in {expr!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_FUNCS:
            names.add(node.id)
    return names


def eval_expr(expr: str, bindings: Mapping[str, Any]) -> Any:
    expr_variables(expr)  # re-validate shape
    env = dict(_ALLOWED_FUNCS)
    env.update(bindings)
    return eval(compile(ast.parse(expr, mode="eval"), "<contract>", "eval"),
                {"__builtins__": {}}, env)


def contract_variables(c: Contract) -> set[str]:
    if isinstance(c, ParDegree):
        return {"workers"}
    if isinstance(c, Throughput):
        return {"throughput"}
    return set(c.variables)


def parse_contract(text: str) -> Contract:
    """Parse the textual contract form: ``pardegree:8``, ``throughput:1.5``
    or ``qos: V=a,b; E=a>b``."""
    text = text.strip()
    if text.startswith("pardegree:"):
        return ParDegree(int(text.split(":", 1)[1]))
    if text.startswith("throughput:"):
        return Throughput(float(text.split(":", 1)[1]))
    if text.startswith("qos:"):
        body = text[4:]
        variables: tuple[str, ...] = ()
        predicate = ""
        for part in body.split(";"):
            part = part.strip()
            if part.startswith("V="):
                variables = tuple(v.strip() for v in part[2:].split(",") if v.strip())
            elif part.startswith("E="):
                predicate = part[2:].strip()
        if not variables or not predicate:
            raise ContractExpressionError(f"malformed qos contract: {text!r}")
        return QoSContract(variables, predicate)
    raise ContractExpressionError(f"unrecognized contract: {text!r}")


# ---------------------------------------------------------------------------
# Plans

@dataclass(frozen=True)
class Plan:
    """An ordered action list plus a forecast over a subset of the contract
    variables.  Actions are ("add_worker", k) and ("remove_worker", k); any
    other action, such as ("rebind", 0), is logged as an event of its name."""

    name: str
    actions: tuple[tuple[str, int], ...]
    forecast: Callable[[Mapping[str, Any]], Mapping[str, Any]]

    @property
    def added_workers(self) -> int:
        return sum(k for action, k in self.actions if action == "add_worker")


def linear_scaling_plans(max_add: int = 4) -> list[Plan]:
    """Farm plans add_worker(1..max_add) with the linear throughput forecast
    T' = T * (n + k) / n (exact for an unsaturated farm)."""
    plans = []
    for k in range(1, max_add + 1):
        def forecast(bindings: Mapping[str, Any], _k=k) -> dict[str, Any]:
            n = max(1, int(bindings.get("workers", 1)))
            t = float(bindings.get("throughput", 0.0))
            return {"throughput": t * (n + _k) / n, "workers": n + _k}

        plans.append(Plan(f"add({k})", (("add_worker", k),), forecast))
    return plans


# ---------------------------------------------------------------------------
# Monitoring substrate

@dataclass
class EscalationEvent:
    """Raised (to the parent / registered callback) when no plan is valid."""

    contract: Contract
    bindings: dict[str, Any]
    verdicts: list[tuple[str, bool]]
    ts: float


class EventLog:
    """Append-only event log."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: list[dict] = []

    def append(self, kind: str, detail: Any) -> dict:
        entry = {"ts": time.time(), "kind": kind, "detail": detail}
        with self._lock:
            self._entries.append(entry)
        return entry

    def entries(self, kind: Optional[str] = None) -> list[dict]:
        with self._lock:
            if kind is None:
                return list(self._entries)
            return [e for e in self._entries if e["kind"] == kind]


# ---------------------------------------------------------------------------

class Manager:
    """Monitor -> check -> plan -> execute control loop over a runtime.

    At most one reconfiguration is in flight at a time; one reconfiguration
    (or one escalation) per violation episode, plus a cooldown of
    `cooldown_ticks` ticks after any reconfiguration.
    """

    def __init__(self, runtime: Runtime, pool: TaskPool,
                 recruit_specs: Sequence[WorkerSpec] = (),
                 plans: Optional[list[Plan]] = None,
                 tick_s: float = 1.0, window_s: float = 10.0,
                 cooldown_ticks: int = 2,
                 escalation_cb: Optional[Callable[[EscalationEvent], None]] = None) -> None:
        self.runtime = runtime
        self.pool = pool
        self._spare_specs = list(recruit_specs)
        self.plans = plans if plans is not None else linear_scaling_plans()
        self.tick_s = tick_s
        self.window_s = window_s
        self.cooldown_ticks = cooldown_ticks
        self.events = EventLog()
        self.escalation_cb = escalation_cb
        self.escalations: list[EscalationEvent] = []
        self._contract: Optional[Contract] = None
        self._cooldown = 0
        self._episode: Optional[dict] = None
        self._reconfig_lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._measures: dict[str, Callable[[], Sequence[float]]] = {}
        self.register_measure("throughput", lambda: [self.pool.throughput(self.window_s)])
        self.register_measure("workers", lambda: [float(self.runtime.active_count())])
        self.register_measure("pending", lambda: [float(self.pool.pending_count())])

    # -- measures -----------------------------------------------------------

    def register_measure(self, name: str, collector: Callable[[], Sequence[float]]) -> None:
        self._measures[name] = collector

    def get_measure(self, name: str) -> float:
        """Current value of a measure: the average of its collector's samples."""
        if name not in self._measures:
            raise SensorUnavailable(name)
        try:
            samples = list(self._measures[name]())
        except Exception as exc:
            raise SensorUnavailable(f"{name}: {exc}") from exc
        if not samples:
            raise SensorUnavailable(f"{name}: no samples")
        return sum(samples) / len(samples)

    # -- contract -----------------------------------------------------------

    def set_contract(self, contract: Contract) -> None:
        """Atomically replace the active contract; validated against the
        measures this manager can actually evaluate."""
        if isinstance(contract, QoSContract):
            used = expr_variables(contract.predicate)
            extra = used - set(contract.variables)
            if extra:
                raise UnmonitorableVariable(
                    f"predicate uses variables outside V: {sorted(extra)}")
            unknown = [v for v in contract.variables if v not in self._measures]
            if unknown:
                raise UnmonitorableVariable(f"unmonitorable measures: {unknown}")
        self._contract = contract
        self._episode = None  # a fresh contract starts a fresh episode
        self.events.append("contract", repr(contract))

    @property
    def contract(self) -> Optional[Contract]:
        return self._contract

    def check_contract(self, bindings: Mapping[str, Any],
                       contract: Optional[Contract] = None) -> tuple[bool, str]:
        c = contract if contract is not None else self._contract
        if c is None:
            return True, "no contract"
        if isinstance(c, ParDegree):
            target = self._degree_target(c.n)
            actual = int(bindings["workers"])
            return actual == target, f"workers={actual} target={target}"
        if isinstance(c, Throughput):
            t = float(bindings["throughput"])
            return t > c.rate, f"throughput={t:.3f} required>{c.rate}"
        ok = bool(eval_expr(c.predicate, bindings))
        return ok, f"{c.predicate} with {dict(bindings)}"

    def _degree_target(self, requested: int) -> int:
        recruitable = self.runtime.active_count() + len(self._spare_specs)
        # best effort down to sequential execution on one local worker
        return max(1, min(requested, recruitable)) if requested >= 0 else 1

    # -- planning -----------------------------------------------------------

    def select_plan(self, plans: Sequence[Plan], bindings: Mapping[str, Any],
                    contract: Contract) -> tuple[Optional[Plan], list[tuple[str, bool]]]:
        """Evaluate every plan's forecast against the contract; return the
        valid plan adding the fewest workers (ties: first declared)."""
        verdicts: list[tuple[str, bool]] = []
        best: Optional[Plan] = None
        for plan in plans:
            updated = dict(bindings)
            updated.update(plan.forecast(bindings))
            ok, _ = self.check_contract(updated, contract)
            verdicts.append((plan.name, ok))
            if ok and (best is None or plan.added_workers < best.added_workers):
                best = plan
        return best, verdicts

    # -- reconfiguration (the ABC operations) -------------------------------

    def add_worker(self, k: int) -> int:
        """Add k workers following the stop -> new -> bind -> restart protocol.

        Dispatch is paused between the stop and restart phases.  Returns the
        number actually recruited; raises RecruitmentFailed when fewer than k
        resources could be recruited (the pool keeps whatever was added)."""
        if k < 1:
            raise ValueError("k must be >= 1")
        with self._reconfig_lock:
            self.events.append("stop", {"pause_ts": self.pool.pause_dispatch()})
            recruited = 0
            try:
                for _ in range(k):
                    if not self._spare_specs:
                        break
                    spec = self._spare_specs.pop(0)
                    self.events.append("new", {"spec": str(spec)})
                    try:
                        desc = self.runtime.recruit(spec)  # includes type inspection
                    except MdfError as exc:
                        self.events.append("recruit_error", str(exc))
                        continue
                    self.events.append("bind", {"worker": desc.wid})
                    self.runtime.start_worker(desc)
                    recruited += 1
            finally:
                self.events.append("restart", {"resume_ts": self.pool.resume_dispatch()})
            self.events.append("add_worker", {"requested": k, "recruited": recruited})
            if recruited < k:
                raise RecruitmentFailed(k, recruited)
            return recruited

    def remove_worker(self, k: int) -> int:
        """Drain and unbind k workers; the pool never drops below one."""
        with self._reconfig_lock:
            active = self.runtime.active_workers()
            if k >= len(active):
                raise WouldEmptyPool(f"remove {k} of {len(active)}")
            victims = active[-k:]
            for desc in victims:
                self.runtime.stop_worker(desc)
                self.runtime.remove_worker(desc)
                spec: WorkerSpec = "local" if desc.kind == "local" else desc.address
                self._spare_specs.append(spec)
            self.events.append("remove_worker", {"count": k})
            return k

    # -- control loop -------------------------------------------------------

    def control_tick(self) -> None:
        """One monitor -> check -> (plan -> execute | escalate) cycle."""
        t0 = time.monotonic()
        contract = self._contract
        if contract is None:
            return
        bindings = {v: self.get_measure(v) for v in contract_variables(contract)}
        ok, detail = self.check_contract(bindings, contract)
        self.events.append("tick", {"bindings": bindings, "satisfied": ok,
                                    "duration_ms": (time.monotonic() - t0) * 1e3})
        if ok:
            self._episode = None
            if self._cooldown > 0:
                self._cooldown -= 1
            return
        if self._episode is None:
            self._episode = {"acted": False}
            self.events.append("violation", {"bindings": bindings, "detail": detail})
        if self._cooldown > 0:
            self._cooldown -= 1
            return
        if self._episode["acted"]:
            return
        if isinstance(contract, ParDegree):
            self._enforce_degree(contract)
            self._episode["acted"] = True
            self._cooldown = self.cooldown_ticks
            return
        plan, verdicts = self.select_plan(self.plans, bindings, contract)
        if plan is None:
            event = EscalationEvent(contract, dict(bindings), verdicts, time.time())
            self.escalations.append(event)
            self.events.append("escalation", {"bindings": bindings,
                                              "verdicts": verdicts})
            if self.escalation_cb is not None:
                try:
                    self.escalation_cb(event)
                except Exception:
                    pass
            self._episode["acted"] = True
            return
        self.events.append("plan", {"selected": plan.name, "verdicts": verdicts})
        self._execute_plan(plan)
        self._episode["acted"] = True
        self._cooldown = self.cooldown_ticks

    def _execute_plan(self, plan: Plan) -> None:
        for action, k in plan.actions:
            try:
                if action == "add_worker":
                    self.add_worker(k)
                elif action == "remove_worker":
                    self.remove_worker(k)
                else:
                    self.events.append(action, {})
            except (RecruitmentFailed, WouldEmptyPool) as exc:
                self.events.append("action_failed", {"action": action, "error": str(exc)})

    def _enforce_degree(self, contract: ParDegree) -> None:
        target = self._degree_target(contract.n)
        active = self.runtime.active_count()
        if active == 0 and target >= 1 and not self._spare_specs:
            # nothing recruitable at all: degrade to one local worker
            self._spare_specs.append("local")
        if target > active:
            try:
                self.add_worker(target - active)
            except RecruitmentFailed as exc:
                self.events.append("action_failed", {"action": "add_worker",
                                                     "error": str(exc)})
        elif target < active:
            try:
                self.remove_worker(active - target)
            except WouldEmptyPool as exc:
                self.events.append("action_failed", {"action": "remove_worker",
                                                     "error": str(exc)})

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="mdflow-manager")
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self.tick_s):
            try:
                self.control_tick()
            except SensorUnavailable as exc:
                self.events.append("sensor_error", str(exc))
