import random

import pytest

from treecut.andor import index_treebank
from treecut.cutnodes import (
    MAX_ITERATIONS,
    CutnodeSet,
    IterationLimitError,
    _iterate,
    closure,
    near_cycle,
    neighbor_conflicts,
    render_cut_classes,
    select_by_threshold,
    select_iterative,
    singleton_cutnodes,
)
from treecut.entropy import build_phrase_table
from treecut.grammar import parse_rule_inventory, parse_treebank
from treecut.node_entropy import EntropyScheme, compute_node_entropies

from oracles import partition_key, reference_closure


def cut_ids(cutset):
    return cutset.cut_node_ids()


def member_ids(cls):
    return {m.node_id for m in cls.members}


def test_closure_equates_cut_nodes_of_one_category(aot):
    cutset = closure(frozenset({"n3", "n4", "n6", "n9"}), aot)
    cut = cutset.cut_classes()
    assert len(cut) == 1
    assert member_ids(cut[0]) == {"n3", "n4", "n6", "n9"}
    assert cut[0].category == "np"
    assert cut[0].representative.node_id == "n3"


def test_closure_congruence_aligns_children(aot):
    # Equating the np class aligns the dets and ns below its np_det_n
    # arcs, without cutting them.
    cutset = closure(frozenset({"n3", "n4", "n6", "n9"}), aot)
    det_class = cutset.node_to_class["t5"]
    assert member_ids(det_class) == {"t5", "t7", "t10"}
    assert not det_class.cut
    n_class = cutset.node_to_class["t6"]
    assert member_ids(n_class) == {"t6", "t8", "t11"}
    assert not n_class.cut


def test_closure_promotion_cuts_whole_class(aot):
    # n4 alone seeds; same-category equating with nothing else cut keeps
    # it singleton, so promotion is trivial here; but cutting n3 pulls
    # in nothing new either until categories collide.
    only_n4 = closure(frozenset({"n4"}), aot)
    assert cut_ids(only_n4) == {"n4"}
    pair = closure(frozenset({"n4", "n6"}), aot)
    assert cut_ids(pair) == {"n4", "n6"}
    assert len(pair.cut_classes()) == 1


def test_closure_idempotent_on_toy(aot):
    first = closure(frozenset({"n3", "n6"}), aot)
    second = closure(first.cut_node_ids(), aot)
    assert cut_ids(first) == cut_ids(second)
    assert [member_ids(c) for c in first.classes] == [
        member_ids(c) for c in second.classes
    ]
    # the memo may serve `second`; the plain fixpoint must agree
    fresh = reference_closure(first.cut_node_ids(), aot)
    assert partition_key(second) == partition_key(fresh)


def test_closure_monotone_on_toy(aot):
    small = cut_ids(closure(frozenset({"n4"}), aot))
    large = cut_ids(closure(frozenset({"n4", "n9"}), aot))
    assert small <= large


def test_closure_never_cuts_yieldless_classes():
    inv = parse_rule_inventory("s_x s -> x\nx_e x ->\n", "s")
    trees = parse_treebank("(s_x (x_e))", inv)
    aot = index_treebank(trees, inv)
    x_node = [n for n in aot.nodes() if n.category == "x"][0]
    assert not x_node.has_lexical_yield
    cutset = closure(frozenset({x_node.node_id}), aot)
    assert cutset.cut_classes() == []


def test_select_threshold_one(aot, table, mixed_scores):
    cutset = select_by_threshold(1.0, aot, table, mixed_scores)
    assert cut_ids(cutset) == {"n3", "n4", "n6", "n9"}
    assert len(cutset.cut_classes()) == 1


def test_select_threshold_above_all_scores(aot, table, mixed_scores):
    # The selection is strict, so the top score itself stays uncut.
    for threshold in (1.76, 2.5):
        cutset = select_by_threshold(threshold, aot, table, mixed_scores)
        assert cut_ids(cutset) == set()


def test_select_threshold_templates(aot, table, mixed_scores):
    def select(threshold):
        return select_by_threshold(threshold, aot, table, mixed_scores)

    assert cut_ids(select(1.20)) == {"n4", "n6"}
    assert cut_ids(select(1.05)) == {
        "n3",
        "n4",
        "n6",
        "n9",
    }


@pytest.mark.parametrize("restrictions", [False, True], ids=["plain", "restricted"])
def test_select_threshold_hands_arc_frequency_to_iterative(aot, table, restrictions):
    # arc-frequency scores only name the scheme: the partition, and the
    # iteration limit, are select_iterative's
    arc_scores = compute_node_entropies(aot, None, EntropyScheme.ARC_FREQUENCY)

    def partition(cutset):
        return [(member_ids(cls), cls.cut) for cls in cutset.classes]

    for threshold in (0.2, 0.6, 1.0, 5.0):
        settings = dict(restrictions=restrictions, max_iterations=2)
        assert partition(
            select_by_threshold(threshold, aot, table, arc_scores, **settings)
        ) == partition(select_iterative(threshold, aot, table, **settings))
    with pytest.raises(IterationLimitError):
        select_by_threshold(
            0.6, aot, table, arc_scores, restrictions=restrictions, max_iterations=1
        )


def test_neighbor_conflicts_first_round(aot, table, mixed_scores):
    # On the unclosed seeds at threshold 1.0, cutting n3 collides with
    # its np_np_pp arc's tightest slot, occupied by cut n4; the lower
    # class score (1.08 vs 1.33) loses.
    singles = singleton_cutnodes(frozenset({"n3", "n4", "n6", "n9"}), aot)
    losers = neighbor_conflicts(singles, aot, table, mixed_scores)
    assert [c.representative.node_id for c in losers] == ["n3"]


def test_neighbor_conflicts_empty_assignment(aot, table, mixed_scores):
    empty = closure(frozenset(), aot)
    assert neighbor_conflicts(empty, aot, table, mixed_scores) == []


def test_select_restricted(aot, table, mixed_scores):
    cutset = select_by_threshold(
        1.0, aot, table, mixed_scores, restrictions=True
    )
    assert cut_ids(cutset) == {"n4", "n6", "n9"}
    assert len(cutset.cut_classes()) == 1
    assert cutset.cut_classes()[0].representative.node_id == "n4"


def test_near_cycle_arithmetic():
    prev = frozenset({"a", "b"})
    nxt = frozenset({"b", "c"})
    # symmetric difference 2 against 0.1 * (2 + 2) = 0.4
    assert not near_cycle(prev, nxt, 0.10)
    assert near_cycle(prev, nxt, 0.60)
    assert near_cycle(prev, prev, 0.10) is (0 < 0.10 * 4)


def test_iterate_returns_earlier_member_of_cycle():
    a = frozenset({"a1", "a2", "a3", "a4", "a5"})
    b = frozenset({"b1", "b2", "b3", "b4", "b5"})

    def flip(current, i):
        return b if current == a else a

    assert _iterate(flip, a, MAX_ITERATIONS) == a


def test_iterate_limit():
    def drift(current, i):
        return frozenset({f"x{i}.{j}" for j in range(10)})

    with pytest.raises(IterationLimitError) as info:
        _iterate(drift, frozenset(), 5)
    assert len(info.value.last) == 10


def test_select_iterative_toy_fixpoint(aot, table):
    cutset = select_iterative(0.60, aot, table)
    assert cut_ids(cutset) == {"n3", "n6"}
    assert len(cutset.cut_classes()) == 1


def test_select_iterative_high_threshold_is_empty(aot, table):
    assert cut_ids(select_iterative(5.0, aot, table)) == set()


def test_select_iterative_restrictions_take_an_empty_table(aot):
    empty = build_phrase_table(index_treebank([], aot.inventory))
    select_iterative(0.60, aot, empty, restrictions=True)


def test_cutnode_set_helpers(aot):
    cutset = closure(frozenset({"n3", "n4", "n6", "n9"}), aot)
    assert cutset.node_to_class["n3"].cut and cutset.node_to_class["n9"].cut
    assert not cutset.node_to_class["n1"].cut
    assert cutset.node_to_class["n6"] is cutset.node_to_class["n3"]
    assert {m.node_id for m in cutset.node_to_class["n3"].members} == {
        "n3", "n4", "n6", "n9"
    }
    assert [m.node_id for m in cutset.node_to_class["t1"].members] == ["t1"]


def test_render_cut_classes(aot, table, mixed_scores):
    cutset = select_by_threshold(1.0, aot, table, mixed_scores)
    out = "".join(render_cut_classes(cutset, mixed_scores))
    assert out == "n3\tnp\t{n3 n4 n6 n9}\t1.7600\n"
    none = closure(frozenset(), aot)
    assert "".join(render_cut_classes(none, mixed_scores)) == "(no cut classes)\n"


def test_cut_classes_come_in_representative_order(aot):
    every = frozenset(node.node_id for node in aot.nodes())
    closed = closure(every, aot)
    shuffled = list(closed.classes)
    random.Random(0).shuffle(shuffled)
    hand_built = CutnodeSet(tuple(shuffled))
    sets = [closed, singleton_cutnodes(every, aot), hand_built]
    assert len(closed.cut_classes()) > 1
    assert [cls.representative.seq for cls in shuffled] != sorted(
        cls.representative.seq for cls in shuffled
    )
    for cutset in sets:
        for classes in (cutset.classes, cutset.cut_classes()):
            seqs = [cls.representative.seq for cls in classes]
            assert seqs == sorted(seqs)
    assert hand_built.classes == closed.classes
