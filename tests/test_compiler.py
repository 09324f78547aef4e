"""Skeleton compilation, normal form, custom-graph splicing."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from mdflow.compiler import (
    Custom,
    Farm,
    InvalidCustomGraph,
    Pipe,
    Seq,
    SkeletonSyntaxError,
    compile_skeleton,
    normalize,
    parse_skeleton,
)
from mdflow.core import (
    OUT,
    NoId,
    OpcodeError,
    canonical_renumber,
    chain_opcode,
    dump,
    parse_dump,
    validate_graph,
)
from mdflow.oracle import eval_graph, eval_skeleton
from mdflow.ops import default_registry

from conftest import PURE_OPS, random_skeleton

GOLDEN_FG = "1 1 f [_] -> [(1,2,1)]\n2 1 g [_] -> [OUT]\n"

#: split2 -> two incs -> add2: x becomes (x + 1) + (x + 2)
MAP2 = ("1 _ split2 [_] -> [(_,2,1),(_,3,1)]\n2 _ inc [_] -> [(_,4,1)]\n"
        "3 _ inc [_] -> [(_,4,2)]\n4 _ add2 [_,_] -> [OUT]\n")


def skeleton_strategy(max_depth=6):
    leaf = st.sampled_from(PURE_OPS).map(Seq)
    return st.recursive(
        leaf,
        lambda inner: st.builds(Pipe, inner, inner) | st.builds(Farm, inner),
        max_leaves=2 ** max_depth,
    )


# -- compile ------------------------------------------------------------------

def test_compile_pipe_of_farms_matches_two_instruction_graph():
    g = compile_skeleton(Pipe(Farm(Seq("f")), Farm(Seq("g"))))
    assert dump(canonical_renumber(g)) == GOLDEN_FG


def test_compile_seq_is_single_instruction():
    g = compile_skeleton(Seq("f"))
    assert len(g.instructions) == 1
    assert g.instructions[g.input_id].dests == [OUT]
    assert g.gid is NoId


def test_compile_farm_is_transparent():
    assert dump(canonical_renumber(compile_skeleton(Farm(Farm(Seq("f")))))) == \
        dump(canonical_renumber(compile_skeleton(Seq("f"))))


def test_compile_instruction_count_equals_seq_leaves():
    s = Pipe(Pipe(Seq("f"), Farm(Seq("g"))), Seq("h"))
    g = compile_skeleton(s)
    assert len(g.instructions) == 3


def test_compiled_templates_have_absent_tokens():
    g = compile_skeleton(Pipe(Seq("f"), Seq("g")))
    assert all(v is None for i in g.instructions.values() for v in i.inputs)


@settings(max_examples=60, deadline=None)
@given(skeleton_strategy())
def test_compiled_graphs_always_validate(s):
    assert validate_graph(compile_skeleton(s)) == []


@settings(max_examples=40, deadline=None)
@given(skeleton_strategy(max_depth=4))
def test_farm_transparency_property(s):
    plain = dump(canonical_renumber(compile_skeleton(s)))
    farmed = dump(canonical_renumber(compile_skeleton(Farm(s))))
    assert plain == farmed


@settings(max_examples=40, deadline=None)
@given(skeleton_strategy(max_depth=4))
def test_recompilation_is_isomorphic(s):
    a = dump(canonical_renumber(compile_skeleton(s)))
    b = dump(canonical_renumber(compile_skeleton(s)))
    assert a == b


# -- normalize ----------------------------------------------------------------

def test_normalize_pipe_of_farms():
    assert normalize(Pipe(Farm(Seq("f")), Farm(Seq("g")))) == \
        Farm(Seq(chain_opcode(["f", "g"])))


def test_normalize_single_leaf():
    assert normalize(Seq("f")) == Farm(Seq("f"))


def test_normalize_matches_direct_composition(registry):
    s = Pipe(Pipe(Seq("inc"), Seq("double")), Seq("sq"))
    n = normalize(s)
    rng = random.Random(7)
    for _ in range(100):
        x = rng.randint(-1000, 1000)
        expected = (2 * (x + 1)) ** 2
        assert eval_skeleton(s, x, registry) == expected
        assert eval_skeleton(n, x, registry) == expected


def test_normalize_fuses_the_seq_runs_around_custom(registry):
    c = Custom(parse_dump(MAP2))
    s = Pipe(Pipe(Seq("f"), Farm(Seq("g"))), Pipe(c, Farm(Pipe(Seq("inc"), Seq("double")))))
    assert normalize(s) == Farm(Pipe(Pipe(Seq(chain_opcode(["f", "g"])), c),
                                     Seq(chain_opcode(["inc", "double"]))))
    assert normalize(Pipe(c, Seq("g"))) == Farm(Pipe(c, Seq("g")))
    for x in range(-5, 5):
        assert eval_graph(compile_skeleton(normalize(s)), x, registry) == \
            eval_skeleton(s, x, registry)


@settings(max_examples=60, deadline=None)
@given(skeleton_strategy(max_depth=5), st.integers(-10**6, 10**6))
def test_normal_form_semantic_equivalence(s, x):
    reg = default_registry()
    g1 = compile_skeleton(s)
    g2 = compile_skeleton(normalize(s))
    assert eval_graph(g1, x, reg) == eval_graph(g2, x, reg)


def _custom_graphs():
    return [compile_skeleton(Pipe(Seq("inc"), Seq("double"))),
            compile_skeleton(Seq("split2")),
            parse_dump(MAP2)]


def tree_strategy():
    """Trees over unary stages, split2 (two outputs, packed into one list for
    the next stage) and Custom leaves.  At most 8 leaves: double and g
    double a list's length."""
    leaf = (st.sampled_from(PURE_OPS + ["split2"]).map(Seq)
            | st.sampled_from(_custom_graphs()).map(Custom))
    return st.recursive(
        leaf,
        lambda inner: st.builds(Pipe, inner, inner) | st.builds(Farm, inner),
        max_leaves=8,
    )


def _outcome(evaluate):
    try:
        return evaluate()
    except OpcodeError:
        return OpcodeError


@settings(max_examples=100, deadline=None)
@given(tree_strategy(), tree_strategy())
def test_normalize_is_idempotent_and_never_nests_chains(s, t):
    assert normalize(normalize(s)) == normalize(s)
    # a chain beside a Seq is re-fused from its links, never nested
    assert normalize(Pipe(normalize(s), normalize(t))) == normalize(Pipe(s, t))


@settings(max_examples=150, deadline=None)
@given(tree_strategy(), st.integers(-10**6, 10**6))
def test_normal_form_gives_the_tree_s_outcome(s, x):
    reg = default_registry()
    want = _outcome(lambda: eval_skeleton(s, x, reg))
    assert _outcome(lambda: eval_graph(compile_skeleton(s), x, reg)) == want
    assert _outcome(lambda: eval_graph(compile_skeleton(normalize(s)), x, reg)) == want


# -- Custom nodes -------------------------------------------------------------

def test_custom_node_spliced_into_pipe(registry):
    pre = parse_dump(MAP2)
    s = Pipe(Custom(pre), Seq("double"))
    g = compile_skeleton(s)
    assert validate_graph(g) == []
    # split2(x) = (x, x+1); inc each; add2 -> 2x+3; double -> 4x+6
    assert eval_graph(g, 5, registry) == 26


def test_custom_graph_with_mixed_output_is_rejected():
    # the OUT token retires the graph, so the token routed beside it is lost
    g = parse_dump("1 _ split2 [_] -> [(_,2,1),OUT]\n2 _ inc [_,_] -> [(_,2,2)]\n")
    assert validate_graph(g) == ["MixedOutput(1)"]
    with pytest.raises(InvalidCustomGraph, match="MixedOutput"):
        compile_skeleton(Pipe(Custom(g), Seq("double")))


# -- fan-out and merge -------------------------------------------------------

def test_map_graph_three_parts(registry):
    g = parse_dump("1 _ split3 [_] -> [(_,2,1),(_,3,1),(_,4,1)]\n"
                   "2 _ inc [_] -> [(_,5,1)]\n3 _ inc [_] -> [(_,5,2)]\n"
                   "4 _ inc [_] -> [(_,5,3)]\n5 _ merge3 [_,_,_] -> [OUT]\n")
    assert len(g.instructions) == 5
    assert validate_graph(g) == []
    merge = g.instructions[5]
    assert merge.in_arity == 3 and merge.dests == [OUT]
    # the split fans out to the three workers
    assert sorted(d.instr_id for d in g.instructions[1].dests) == [2, 3, 4]
    assert eval_graph(g, 10, registry) == [11, 12, 13]


# -- text format --------------------------------------------------------------

def test_parse_skeleton_expressions():
    assert parse_skeleton("seq:f") == Seq("f")
    assert parse_skeleton("farm(seq:f)") == Farm(Seq("f"))
    assert parse_skeleton("pipe(farm(seq:f), farm(seq:g))") == \
        Pipe(Farm(Seq("f")), Farm(Seq("g")))


def test_parse_skeleton_custom_file(tmp_path, registry):
    g = compile_skeleton(Pipe(Seq("f"), Seq("g")))
    path = tmp_path / "pre.graph"
    path.write_text(dump(g))
    s = parse_skeleton(f"custom:@{path}")
    assert isinstance(s, Custom)
    assert dump(s.graph) == dump(g)


def test_parse_skeleton_errors():
    for bad in ["", "seq:", "pipe(seq:f)", "farm(seq:f", "wat", "seq:f extra"]:
        with pytest.raises(SkeletonSyntaxError):
            parse_skeleton(bad)


def test_random_trees_via_rng_helper():
    rng = random.Random(42)
    reg = default_registry()
    for _ in range(25):
        s = random_skeleton(rng, 6)
        g = compile_skeleton(s)
        assert validate_graph(g) == []
        assert eval_graph(g, 3, reg) == eval_skeleton(s, 3, reg)
