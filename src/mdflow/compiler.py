"""Skeleton grammar and compilation to macro data-flow graph templates.

The grammar is seq / pipe / farm plus programmer-defined Custom graphs.
Compilation follows the pre-compile scheme: a seq leaf becomes one
instruction whose destination is the continuation, a farm compiles to its
worker's graph unchanged (farming affects scheduling, never graph shape),
and a pipe wires stage one's output to stage two's input instruction.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Optional

from .core import (
    OUT,
    ArityMismatch,
    Dest,
    MdfError,
    MdfGraph,
    MdfInstruction,
    NoId,
    OpcodeRegistry,
    chain_opcode,
    make_instruction,
    parse_dump,
    validate_graph,
)


class InvalidCustomGraph(MdfError):
    pass


class NotNormalizable(MdfError):
    """Custom nodes have opaque semantics: no normal-form rewrite exists."""


class NoExternalDest(MdfError):
    pass


class SkeletonSyntaxError(MdfError):
    pass


class Skeleton:
    pass


@dataclass(frozen=True)
class Seq(Skeleton):
    opcode: str


@dataclass(frozen=True)
class Pipe(Skeleton):
    first: Skeleton
    second: Skeleton


@dataclass(frozen=True)
class Farm(Skeleton):
    worker: Skeleton


@dataclass(frozen=True)
class Custom(Skeleton):
    """A programmer-defined graph template (gid NoId, all tokens absent)."""

    graph: MdfGraph


def compile_skeleton(s: Skeleton) -> MdfGraph:
    """Compile a skeleton tree into a validated graph template.

    Instruction ids come from a fresh per-graph counter starting at 1;
    token positions start at 1.  The template's gid is NoId; the task pool
    stamps a concrete gid per submitted task.
    """
    counter = itertools.count(1)
    instrs: dict[int, MdfInstruction] = {}
    input_id = _emit(s, None, instrs, counter)
    g = MdfGraph(instrs, input_id, gid=NoId)
    violations = validate_graph(g)
    if violations:
        # only reachable through a broken Custom graph slipping past checks
        raise InvalidCustomGraph(f"compiled graph invalid: {violations}")
    return g


def _emit(s: Skeleton, cont: Optional[int], instrs: dict[int, MdfInstruction],
          counter) -> int:
    """Emit instructions for s, wiring its output to instruction `cont`
    (None = external output).  Returns the id of s's input instruction."""
    if isinstance(s, Seq):
        iid = next(counter)
        dest = OUT if cont is None else Dest(NoId, cont, 1)
        instrs[iid] = make_instruction(iid, NoId, s.opcode, 1, [dest])
        return iid
    if isinstance(s, Farm):
        return _emit(s.worker, cont, instrs, counter)
    if isinstance(s, Pipe):
        second_input = _emit(s.second, cont, instrs, counter)
        return _emit(s.first, second_input, instrs, counter)
    if isinstance(s, Custom):
        return _splice_custom(s.graph, cont, instrs, counter)
    raise TypeError(f"not a skeleton: {s!r}")


def _splice_custom(g: MdfGraph, cont: Optional[int],
                   instrs: dict[int, MdfInstruction], counter) -> int:
    violations = validate_graph(g)
    if violations:
        raise InvalidCustomGraph(str(violations))
    if g.instructions[g.input_id].in_arity != 1:
        raise InvalidCustomGraph("custom graph input instruction must have arity 1")
    mapping = {old: next(counter) for old in sorted(g.instructions)}
    for old, instr in g.instructions.items():
        dests = []
        for d in instr.dests:
            if d.is_external:
                dests.append(OUT if cont is None else Dest(NoId, cont, 1))
            else:
                dests.append(Dest(NoId, mapping[d.instr_id], d.slot))
        instrs[mapping[old]] = MdfInstruction(
            mapping[old], NoId, instr.opcode,
            [None] * instr.in_arity, dests)
    return mapping[g.input_id]


def seq_leaves(s: Skeleton) -> list[str]:
    """Seq opcodes of a skeleton tree, left to right."""
    if isinstance(s, Seq):
        return [s.opcode]
    if isinstance(s, Farm):
        return seq_leaves(s.worker)
    if isinstance(s, Pipe):
        return seq_leaves(s.first) + seq_leaves(s.second)
    if isinstance(s, Custom):
        raise NotNormalizable("custom graphs cannot be normalized")
    raise TypeError(f"not a skeleton: {s!r}")


def normalize(s: Skeleton) -> Skeleton:
    """Rewrite to normal form: a farm whose single worker sequentially
    composes all Seq opcodes of s left to right."""
    return Farm(Seq(chain_opcode(seq_leaves(s))))


def link_custom(g: MdfGraph, successor: Dest) -> MdfGraph:
    """Replace g's unique external Dest with `successor`.

    Used to wire a programmer-defined graph in front of another graph.  The
    result is re-validated; the output-uniqueness rule is waived when the
    successor is internal (the combined graph owns the external output).
    """
    externals = g.external_dests()
    if not externals:
        raise NoExternalDest("graph has no external destination")
    iid, k = externals[0]
    instrs = {i: replace(instr, inputs=list(instr.inputs), dests=list(instr.dests))
              for i, instr in g.instructions.items()}
    instrs[iid].dests[k] = successor
    linked = MdfGraph(instrs, g.input_id, gid=g.gid)
    violations = validate_graph(linked, require_output=successor.is_external)
    violations = [v for v in violations
                  if not (v.startswith(("DanglingDest", "ForeignDest")) and not successor.is_external)]
    if violations:
        raise InvalidCustomGraph(str(violations))
    return linked


def build_map_graph(split: str, worker: str, merge: str, parts: int,
                    registry: OpcodeRegistry) -> MdfGraph:
    """Fixed-degree map: split -> `parts` workers -> merge -> OUT.

    split must be declared with `parts` outputs and merge with arity
    `parts`; the workers are unary.
    """
    if parts < 1:
        raise ArityMismatch(f"parts must be >= 1, got {parts}")
    split_op = registry.resolve(split)
    merge_op = registry.resolve(merge)
    if split_op.out_arity != parts:
        raise ArityMismatch(f"{split} emits {split_op.out_arity} outputs, need {parts}")
    if merge_op.in_arity != parts:
        raise ArityMismatch(f"{merge} has arity {merge_op.in_arity}, need {parts}")
    instrs: dict[int, MdfInstruction] = {}
    merge_id = parts + 2
    worker_ids = list(range(2, parts + 2))
    instrs[1] = make_instruction(1, NoId, split, 1,
                                 [Dest(NoId, wid, 1) for wid in worker_ids])
    for slot, wid in enumerate(worker_ids, start=1):
        instrs[wid] = make_instruction(wid, NoId, worker, 1, [Dest(NoId, merge_id, slot)])
    instrs[merge_id] = make_instruction(merge_id, NoId, merge, parts, [OUT])
    g = MdfGraph(instrs, 1, gid=NoId)
    violations = validate_graph(g)
    if violations:
        raise InvalidCustomGraph(str(violations))
    return g


# ---------------------------------------------------------------------------
# Skeleton expression text format: seq:f | pipe(A,B) | farm(A) | custom:@file

def parse_skeleton(text: str) -> Skeleton:
    expr, rest = _parse_expr(text.strip())
    if rest.strip():
        raise SkeletonSyntaxError(f"trailing input: {rest!r}")
    return expr


def _parse_expr(s: str) -> tuple[Skeleton, str]:
    s = s.lstrip()
    if s.startswith("seq:"):
        name, rest = _take_atom(s[4:])
        if not name:
            raise SkeletonSyntaxError("seq: missing opcode name")
        return Seq(name), rest
    if s.startswith("custom:@"):
        path, rest = _take_atom(s[8:])
        try:
            with open(path, "r", encoding="utf-8") as fh:
                graph = parse_dump(fh.read())
        except OSError as exc:
            raise SkeletonSyntaxError(f"cannot read graph file {path}: {exc}") from exc
        return Custom(graph), rest
    if s.startswith("farm("):
        inner, rest = _parse_expr(s[5:])
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise SkeletonSyntaxError("farm: missing ')'")
        return Farm(inner), rest[1:]
    if s.startswith("pipe("):
        first, rest = _parse_expr(s[5:])
        rest = rest.lstrip()
        if not rest.startswith(","):
            raise SkeletonSyntaxError("pipe: missing ','")
        second, rest = _parse_expr(rest[1:])
        rest = rest.lstrip()
        if not rest.startswith(")"):
            raise SkeletonSyntaxError("pipe: missing ')'")
        return Pipe(first, second), rest[1:]
    raise SkeletonSyntaxError(f"cannot parse skeleton at: {s[:30]!r}")


def _take_atom(s: str) -> tuple[str, str]:
    i = 0
    while i < len(s) and s[i] not in ",()" and not s[i].isspace():
        i += 1
    return s[:i].strip(), s[i:]
