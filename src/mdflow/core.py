"""Macro data-flow substrate: destinations, instructions and graphs.

An instruction is a tuple <id, gid, opcode, inputs, dests>.  Its inputs are
single-assignment payload slots: a slot goes from None (absent) to bytes
(present) at most once.  An instruction with all slots present is
*fireable*.  A graph is a set of instructions with a designated input
instruction and exactly one external output destination (the all-NoId
Dest).

Identifiers are positive integers; the NoId sentinel (None) marks template
graph ids, "this graph" in a Dest, and the external output.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import codec

# Reserved sentinel identifier, distinct from every generated id.
NoId = None
Ident = Optional[int]


class MdfError(Exception):
    """Base class for runtime errors raised by this package."""


class ZeroArity(MdfError):
    pass


class EmptyDests(MdfError):
    pass


class SlotOutOfRange(MdfError):
    pass


class SlotOccupied(MdfError):
    """Second write to a present slot: a double-delivery bug upstream."""


class UnknownOpcode(MdfError):
    pass


class ArityMismatch(MdfError):
    pass


class OpcodeError(MdfError):
    """An opcode function raised: the computation itself is faulty, not the worker."""


#: Faults the instruction itself causes, so every worker would raise them
#: again: they fail the instruction's graph, never the worker running it.
DETERMINISTIC_FAULTS = (OpcodeError, UnknownOpcode, ArityMismatch, codec.CodecError)


class DumpFormatError(MdfError):
    pass


@dataclass(frozen=True)
class Dest:
    """Destination of an output token: (graph id, instruction id, token slot).

    All three fields NoId means the external output stream.  Otherwise a
    NoId gid means "this graph": instances share their template's Dests,
    and the pool routes a token by the graph it came from.
    """

    gid: Ident = NoId
    instr_id: Ident = NoId
    slot: Ident = NoId

    @property
    def is_external(self) -> bool:
        return self.gid is NoId and self.instr_id is NoId and self.slot is NoId


#: The external output destination.
OUT = Dest()


@dataclass
class MdfInstruction:
    id: int
    gid: Ident
    opcode: str
    #: payload slots, None while absent
    inputs: list[Optional[bytes]]
    dests: list[Dest]

    @property
    def in_arity(self) -> int:
        return len(self.inputs)


def make_instruction(id: int, gid: Ident, opcode: str, in_arity: int,
                     dests: list[Dest]) -> MdfInstruction:
    if in_arity < 1:
        raise ZeroArity(f"instruction {id}: in_arity must be >= 1, got {in_arity}")
    if not dests:
        raise EmptyDests(f"instruction {id}: at least one destination required")
    return MdfInstruction(id, gid, opcode, [None] * in_arity, list(dests))


def store_token(instr: MdfInstruction, slot: int, value: bytes) -> MdfInstruction:
    """Store a token in a 1-based slot.  The slot must be absent."""
    if slot < 1 or slot > instr.in_arity:
        raise SlotOutOfRange(f"instruction {instr.id}: slot {slot} of {instr.in_arity}")
    if value is None:
        raise MdfError(f"instruction {instr.id}: slot {slot} given no value")
    if instr.inputs[slot - 1] is not None:
        raise SlotOccupied(f"instruction {instr.id}: slot {slot} already present")
    instr.inputs[slot - 1] = value
    return instr


def is_fireable(instr: MdfInstruction) -> bool:
    return None not in instr.inputs


@dataclass
class MdfGraph:
    """A set of instructions keyed by id, with a designated input instruction.

    gid is NoId for templates and a concrete integer after instantiation.
    """

    instructions: dict[int, MdfInstruction]
    input_id: int
    gid: Ident = NoId

    def external_dests(self) -> list[tuple[int, int]]:
        """(instruction id, dest index) pairs of external-output Dests."""
        found = []
        for iid, instr in self.instructions.items():
            for k, d in enumerate(instr.dests):
                if d.is_external:
                    found.append((iid, k))
        return found


def validate_graph(g: MdfGraph) -> list[str]:
    """Check graph invariants; returns a list of violations (empty = ok).

    An instruction that sends to the external output sends nowhere else
    (MixedOutput): the graph retires on its output token, so a token routed
    beside it would be dropped with no record.
    """
    violations: list[str] = []
    if g.input_id not in g.instructions:
        violations.append(f"MissingInput({g.input_id})")
    for iid, instr in sorted(g.instructions.items()):
        if instr.id != iid:
            violations.append(f"IdMismatch({iid})")
        if instr.gid is not NoId and instr.gid != g.gid:
            violations.append(f"GidMismatch({iid})")
        if instr.in_arity < 1:
            violations.append(f"ZeroArity({iid})")
        if not instr.dests:
            violations.append(f"EmptyDests({iid})")
        if len(instr.dests) > 1 and any(d.is_external for d in instr.dests):
            violations.append(f"MixedOutput({iid})")
        for d in instr.dests:
            if d.is_external:
                continue
            if d.instr_id is NoId or d.slot is NoId:
                violations.append(f"MalformedDest({iid})")
                continue
            if d.gid is not NoId and d.gid != g.gid:
                violations.append(f"ForeignDest({iid})")
                continue
            if d.instr_id not in g.instructions:
                violations.append(f"DanglingDest({iid})")
                continue
            if d.slot < 1 or d.slot > g.instructions[d.instr_id].in_arity:
                violations.append(f"BadSlot({iid})")
    externals = g.external_dests()
    if len(externals) > 1:
        violations.append("MultipleOutputs")
    elif not externals:
        violations.append("NoOutput")
    # single writer per (instruction, slot)
    seen: set[tuple[int, int]] = set()
    for instr in g.instructions.values():
        for d in instr.dests:
            if d.is_external or d.instr_id is NoId or d.slot is NoId:
                continue
            key = (d.instr_id, d.slot)
            if key in seen:
                violations.append(f"DuplicateDest({d.instr_id})")
            seen.add(key)
    return violations


def instantiate(template: MdfGraph, gid: int) -> MdfGraph:
    """Instance of a template: each instruction gets the gid and fresh
    payload slots, and shares the template's read-only dests list (its
    internal Dests keep gid NoId, "this graph")."""
    instrs = {iid: MdfInstruction(iid, gid, instr.opcode, list(instr.inputs), instr.dests)
              for iid, instr in template.instructions.items()}
    return MdfGraph(instrs, template.input_id, gid=gid)


def canonical_renumber(g: MdfGraph, gid: int = 1) -> MdfGraph:
    """Renumber instruction ids 1..n in BFS order from the input instruction.

    Two isomorphic graphs dump identically after canonical renumbering.
    """
    order: list[int] = []
    seen: set[int] = set()
    queue: deque[int] = deque()
    if g.input_id in g.instructions:
        queue.append(g.input_id)
        seen.add(g.input_id)
    while queue:
        iid = queue.popleft()
        order.append(iid)
        for d in g.instructions[iid].dests:
            if not d.is_external and d.instr_id in g.instructions and d.instr_id not in seen:
                seen.add(d.instr_id)
                queue.append(d.instr_id)
    for iid in sorted(g.instructions):
        if iid not in seen:
            order.append(iid)
    mapping = {old: new for new, old in enumerate(order, start=1)}
    instrs: dict[int, MdfInstruction] = {}
    for old, instr in g.instructions.items():
        dests = [d if d.is_external else Dest(gid, mapping[d.instr_id], d.slot)
                 for d in instr.dests]
        instrs[mapping[old]] = MdfInstruction(
            mapping[old], gid, instr.opcode,
            list(instr.inputs),
            dests,
        )
    return MdfGraph(instrs, mapping[g.input_id], gid=gid)


def _fmt_ident(x: Ident) -> str:
    return "_" if x is NoId else str(x)


def dump(g: MdfGraph) -> str:
    """Deterministic text form, one instruction per line:

        id gid opcode [t1,t2,...] -> [(g,i,s),...]

    with `_` for absent tokens and `OUT` for the external destination.
    """
    lines = []
    for iid in sorted(g.instructions):
        instr = g.instructions[iid]
        toks = ",".join(
            repr(codec.decode(v)) if v is not None else "_" for v in instr.inputs
        )
        dests = ",".join(
            "OUT" if d.is_external
            else f"({_fmt_ident(d.gid)},{_fmt_ident(d.instr_id)},{_fmt_ident(d.slot)})"
            for d in instr.dests
        )
        lines.append(f"{iid} {_fmt_ident(instr.gid)} {instr.opcode} [{toks}] -> [{dests}]")
    return "\n".join(lines) + "\n"


def _parse_ident(s: str) -> Ident:
    return NoId if s == "_" else int(s)


def parse_dump(text: str) -> MdfGraph:
    """Parse the dump format back into a template graph.

    Only all-absent token lists are accepted (templates carry no values).
    The input instruction is inferred as the unique instruction no Dest
    targets.
    """
    instrs: dict[int, MdfInstruction] = {}
    gid: Ident = NoId
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            head, dest_part = line.split("->")
            fields = head.split()
            iid, gid_s, opcode = int(fields[0]), fields[1], fields[2]
            tok_part = head[head.index("["):].strip()
            if not (tok_part.startswith("[") and tok_part.endswith("]")):
                raise ValueError("bad token list")
            toks = [t for t in tok_part[1:-1].split(",") if t]
            if any(t != "_" for t in toks):
                raise ValueError("templates must have all-absent tokens")
            dest_part = dest_part.strip()
            if not (dest_part.startswith("[") and dest_part.endswith("]")):
                raise ValueError("bad dest list")
            dests: list[Dest] = []
            for piece in _split_dests(dest_part[1:-1]):
                if piece == "OUT":
                    dests.append(OUT)
                else:
                    a, b, c = piece.strip("()").split(",")
                    dests.append(Dest(_parse_ident(a), _parse_ident(b), _parse_ident(c)))
        except (ValueError, IndexError) as exc:
            raise DumpFormatError(f"line {lineno}: {exc}") from exc
        gid = _parse_ident(gid_s)
        instrs[iid] = make_instruction(iid, gid, opcode, len(toks), dests)
    if not instrs:
        raise DumpFormatError("empty graph")
    targeted = {d.instr_id for i in instrs.values() for d in i.dests if not d.is_external}
    roots = [iid for iid in instrs if iid not in targeted]
    if len(roots) != 1:
        raise DumpFormatError(f"cannot infer input instruction (candidates: {roots})")
    return MdfGraph(instrs, roots[0], gid=gid)


def _split_dests(s: str) -> list[str]:
    # split "(1,2,3),OUT,(...)" on commas outside parentheses
    parts, depth, cur = [], 0, ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            if cur:
                parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur:
        parts.append(cur)
    return parts


# ---------------------------------------------------------------------------
# Opcode registry

_CHAIN_PREFIX = "chain("
# resolved chains kept per registry; templates use a handful
_CHAIN_MEMO_MAX = 256


def chain_opcode(names: list[str]) -> str:
    """Synthetic opcode name composing unary opcodes left to right."""
    return _CHAIN_PREFIX + ",".join(names) + ")"


def chain_links(name: str) -> Optional[list[str]]:
    """The link names of a ``chain(a,b,...)`` opcode name, else None."""
    if name.startswith(_CHAIN_PREFIX) and name.endswith(")"):
        return name[len(_CHAIN_PREFIX):-1].split(",")
    return None


@dataclass(frozen=True)
class Opcode:
    """A registered computation: decoded values in, decoded values out.

    cost_ms is the synthetic compute time charged by workers before running
    the function (0 for real opcodes); it is how experiment grain is realized.
    """

    name: str
    fn: Callable[..., Any]
    in_arity: int = 1
    out_arity: int = 1
    cost_ms: float = 0.0


class OpcodeRegistry:
    """Named pure functions, present identically on client and workers.

    Names of the form ``chain(a,b,...)`` resolve to one unary opcode that
    runs a, b, ... left to right exactly as the pipe of those stages runs
    them: each link gets a codec copy of the previous link's output, which
    is what a pipe stage receives, and a link's several outputs go on as one
    list, as `TaskPool.complete` packs them for a single destination.  A
    link that takes more than one input is refused at resolve.  The
    composed Opcode is built on first use and kept until the next
    `register` (or until the memo fills, at a fixed size).
    """

    def __init__(self) -> None:
        self._ops: dict[str, Opcode] = {}
        # resolved chain opcodes by name; cleared when any link may change
        self._chains: dict[str, Opcode] = {}

    def register(self, name: str, fn: Callable[..., Any], in_arity: int = 1,
                 out_arity: int = 1, cost_ms: float = 0.0) -> None:
        if in_arity < 1 or out_arity < 1:
            raise ArityMismatch(f"{name}: arities must be >= 1")
        self._ops[name] = Opcode(name, fn, in_arity, out_arity, cost_ms)
        self._chains.clear()

    def names(self) -> list[str]:
        return sorted(self._ops)

    def manifest(self) -> list[tuple[str, int, int]]:
        return [(op.name, op.in_arity, op.out_arity)
                for op in (self._ops[n] for n in self.names())]

    def resolve(self, name: str) -> Opcode:
        op = self._ops.get(name) or self._chains.get(name)
        if op is not None:
            return op
        links = chain_links(name)
        if links is None:
            raise UnknownOpcode(name)
        ops = [self.resolve(p) for p in links]
        for link in ops:
            if link.in_arity != 1:
                raise ArityMismatch(f"chain link {link.name} takes {link.in_arity} inputs")
        apply = self._apply

        def chained(x):
            for k, link in enumerate(ops):
                outs = apply(link, [codec.decode(codec.encode(x)) if k else x])
                x = outs[0] if link.out_arity == 1 else outs
            return x

        op = Opcode(name, chained, 1, 1, sum(link.cost_ms for link in ops))
        if len(self._chains) >= _CHAIN_MEMO_MAX:  # a peer may send any number of names
            self._chains.clear()
        self._chains[name] = op
        return op

    def run(self, name: str, args: list[Any]) -> list[Any]:
        """Execute an opcode on decoded values; always returns a list of outputs."""
        return self._apply(self.resolve(name), args)

    def run_encoded(self, name: str, payloads: list[bytes],
                    slowdown: float = 1.0) -> list[bytes]:
        """Execute on encoded payloads (deep-copy semantics via the codec),
        after charging the opcode's synthetic cost, scaled by `slowdown`, as
        sleep (which releases the GIL).  Local and remote workers both run
        instructions through here."""
        op = self.resolve(name)
        if op.cost_ms > 0:
            time.sleep(op.cost_ms * slowdown / 1000.0)
        args = [codec.decode(p) for p in payloads]
        return [codec.encode(v) for v in self._apply(op, args)]

    @staticmethod
    def _apply(op: Opcode, args: list[Any]) -> list[Any]:
        if len(args) != op.in_arity:
            raise ArityMismatch(f"{op.name}: expected {op.in_arity} args, got {len(args)}")
        try:
            result = op.fn(*args)
            if op.out_arity == 1:
                return [result]
            outs = list(result)
        except Exception as exc:
            raise OpcodeError(f"{op.name}: {exc}") from exc
        if len(outs) != op.out_arity:
            raise OpcodeError(f"{op.name}: declared {op.out_arity} outputs, produced {len(outs)}")
        return outs


def manifest_supports(manifest_names: set[str], opcode_name: str) -> bool:
    """True if a worker advertising manifest_names can execute opcode_name."""
    if opcode_name in manifest_names:
        return True
    links = chain_links(opcode_name)
    return links is not None and all(manifest_supports(manifest_names, p) for p in links)
