import random
import sys
import tracemalloc

import pytest

from treecut.andor import dump, index_treebank
from treecut.entropy import Slot
from treecut.grammar import parse_treebank

from oracles import chain_text, reference_dump

# The toy index, transcribed by hand from the four training trees.
# Keys are node ids; values are (category, parent slot, arc counts).
EXPECTED_NODES = {
    "root": ("s", None, {"s_np_vp": 4}),
    "n1": ("np", ("s_np_vp", 1), {"np_pron": 3, "np_det_n": 1}),
    "t1": ("det", ("np_det_n", 1), {"lex": 1}),
    "t2": ("n", ("np_det_n", 2), {"lex": 1}),
    "t3": ("pron", ("np_pron", 1), {"lex": 3}),
    "n2": ("vp", ("s_np_vp", 2), {"vp_v_np": 3, "vp_vp_pp": 1}),
    "t4": ("v", ("vp_v_np", 1), {"lex": 3}),
    "n3": ("np", ("vp_v_np", 2), {"np_det_n": 1, "np_np_pp": 2}),
    "t5": ("det", ("np_det_n", 1), {"lex": 1}),
    "t6": ("n", ("np_det_n", 2), {"lex": 1}),
    "n4": ("np", ("np_np_pp", 1), {"np_det_n": 2}),
    "t7": ("det", ("np_det_n", 1), {"lex": 2}),
    "t8": ("n", ("np_det_n", 2), {"lex": 2}),
    "n5": ("pp", ("np_np_pp", 2), {"pp_prep_np": 2}),
    "t9": ("prep", ("pp_prep_np", 1), {"lex": 2}),
    "n6": ("np", ("pp_prep_np", 2), {"lex": 1, "np_det_n": 1}),
    "t10": ("det", ("np_det_n", 1), {"lex": 1}),
    "t11": ("n", ("np_det_n", 2), {"lex": 1}),
    "n7": ("vp", ("vp_vp_pp", 1), {"vp_v": 1}),
    "t12": ("v", ("vp_v", 1), {"lex": 1}),
    "n8": ("pp", ("vp_vp_pp", 2), {"pp_prep_np": 1}),
    "t13": ("prep", ("pp_prep_np", 1), {"lex": 1}),
    "n9": ("np", ("pp_prep_np", 2), {"np_num": 1}),
    "t14": ("num", ("np_num", 1), {"lex": 1}),
}


def test_node_count(aot):
    assert len(aot.node_index) == 24


@pytest.mark.parametrize("node_id", sorted(EXPECTED_NODES))
def test_node_structure(aot, node_id):
    category, parent, counts = EXPECTED_NODES[node_id]
    node = aot[node_id]
    assert node.category == category
    assert node.arc_counts == counts
    if parent is None:
        assert node.parent_slot is None
    else:
        assert node.parent_slot == Slot(*parent)


def test_visit_counts(aot):
    assert aot["root"].visit_count == 4
    assert aot["n1"].visit_count == 4
    assert aot["n3"].visit_count == 3
    assert aot["n6"].visit_count == 2
    assert aot["n9"].visit_count == 1


def test_lexical_yield_flags(aot):
    assert all(node.has_lexical_yield for node in aot.nodes())


def test_arc_children_are_rhs_slots(aot):
    and_node = aot["root"].arcs["s_np_vp"]
    assert [c.node_id for c in and_node.children] == ["n1", "n2"]
    assert [c.parent_slot for c in and_node.children] == [
        Slot("s_np_vp", 1),
        Slot("s_np_vp", 2),
    ]


def test_ids_invariant_under_training_order(treebank):
    baseline = {
        nid: node.arc_counts
        for nid, node in index_treebank(
            treebank.training, treebank.inventory
        ).node_index.items()
    }
    rng = random.Random(7)
    for _ in range(5):
        shuffled = list(treebank.training)
        rng.shuffle(shuffled)
        again = index_treebank(shuffled, treebank.inventory)
        assert {n: o.arc_counts for n, o in again.node_index.items()} == baseline


def test_lexical_alternative_recorded_with_counts(aot):
    n6 = aot["n6"]
    assert set(n6.arcs) == {"lex", "np_det_n"}
    assert n6.arc_counts["lex"] == 1
    assert [r for r, _ in n6.sorted_arcs()] == ["lex", "np_det_n"]


def test_dump_of_a_deep_chain_streams_its_lines(inventory):
    # the dump indents each or-node by its depth, so a chain's dump grows
    # with the square of its depth: 45.4 MB at 1,500 levels.  Its lines
    # come one at a time, so writing it holds only a few of them.
    depth = 1500
    aot = index_treebank(parse_treebank(chain_text(depth), inventory), inventory)
    tracemalloc.start()
    try:
        size = sum(len(line) for line in dump(aot))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 45_000_000
    assert peak < size / 10
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + depth)  # the oracle recurses once per level
    try:
        want = reference_dump(aot)
    finally:
        sys.setrecursionlimit(limit)
    assert "".join(dump(aot)) == want
