"""Skeleton grammar and compilation to macro data-flow graph templates.

The grammar is seq / pipe / farm plus programmer-defined Custom graphs.
Compilation follows the pre-compile scheme: a seq leaf becomes one
instruction whose destination is the continuation, a farm compiles to its
worker's graph unchanged (farming affects scheduling, never graph shape),
and a pipe wires stage one's output to stage two's input instruction.  A
programmer's graph enters a program only as a Custom node: it is validated
and spliced in with its external output wired to the node's continuation.

`normalize` rewrites a program to the normal form of Aldinucci & Danelutto
("Stream parallel skeleton optimization", PDCS 1999), which experiment
sessions always run: a task needs one dispatch per run of Seq stages
instead of one per stage.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .core import (
    OUT,
    Dest,
    MdfError,
    MdfGraph,
    MdfInstruction,
    NoId,
    chain_links,
    chain_opcode,
    make_instruction,
    parse_dump,
    validate_graph,
)


class InvalidCustomGraph(MdfError):
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


def normalize(s: Skeleton) -> Skeleton:
    """Rewrite to normal form: a farm of the program's stages in order, each
    maximal run of adjacent Seq stages fused into one ``chain(...)`` opcode,
    which runs exactly what the pipe of those stages runs.  A run of one
    keeps its opcode, and a Custom node ends a run.  A chain's links are
    re-fused, never nested, so normalizing twice changes nothing."""
    fused: list[Skeleton] = []
    for is_seq, run in itertools.groupby(_stages(s), key=lambda t: isinstance(t, Seq)):
        if not is_seq:
            fused.extend(run)
            continue
        names = [name for t in run for name in chain_links(t.opcode) or [t.opcode]]
        fused.append(Seq(names[0] if len(names) == 1 else chain_opcode(names)))
    return Farm(functools.reduce(Pipe, fused))


def _stages(s: Skeleton) -> list[Skeleton]:
    """The Seq and Custom stages of a skeleton tree, left to right."""
    if isinstance(s, (Seq, Custom)):
        return [s]
    if isinstance(s, Farm):
        return _stages(s.worker)
    if isinstance(s, Pipe):
        return _stages(s.first) + _stages(s.second)
    raise TypeError(f"not a skeleton: {s!r}")


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
