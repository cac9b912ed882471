import pytest

from treecut.andor import index_treebank
from treecut.coverage import (
    RuleIndex,
    evaluate_coverage,
    preference,
    reduction_stats,
    render_stats,
)
from treecut.cutnodes import closure, select_by_threshold
from treecut.extraction import (
    Apply,
    Frontier,
    LexSlot,
    SpecializedRule,
)
from treecut.grammar import (
    CategoryMismatchError,
    Internal,
    LexLeaf,
    parse_shapes,
    parse_treebank,
)

from oracles import TOY, covers, training_rules, validate_tiling


def by_flat(rules):
    return {r.flat_form(): r for r in rules}


def test_test_tree_is_covered(toy_rules, treebank):
    tiling = covers(toy_rules, treebank.test[0])
    assert tiling is not None
    assert validate_tiling(tiling, treebank.test[0])


def test_tiling_application_counts(toy_rules, treebank):
    tiling = covers(toy_rules, treebank.test[0])
    flats = [r.flat_form() for r in tiling.applications()]
    assert len(flats) == 5
    assert flats.count("s => pron v np") == 1
    assert flats.count("np => np prep np") == 2
    assert flats.count("np => det n") == 2


def test_root_application_is_the_matching_s_rule(toy_rules, treebank):
    tiling = covers(toy_rules, treebank.test[0])
    assert tiling.rule.flat_form() == "s => pron v np"


def test_frontier_accepts_bare_word(toy_rules, treebank):
    # The innermost pp's np is the single word Dallas, tiled by the
    # lexicon without any rule.
    tiling = covers(toy_rules, treebank.test[0])

    def lexicon_tilings(t):
        n = 1 if t.rule is None else 0
        return n + sum(lexicon_tilings(c) for c in t.children)

    assert lexicon_tilings(tiling) == 1


def test_training_self_coverage(toy_rules, treebank):
    report = evaluate_coverage(toy_rules, treebank.training)
    assert report.fraction == 1.0
    assert report.verdicts == [True] * 4


def test_uncovered_without_np_rules(toy_rules, treebank):
    flats = by_flat(toy_rules)
    partial = [flats["np => num"], flats["s => det n v prep np"]]
    report = evaluate_coverage(partial, treebank.test)
    assert report.fraction == 0.0
    assert covers(partial, treebank.test[0]) is None


def test_empty_test_set_is_vacuously_covered(toy_rules):
    report = evaluate_coverage(toy_rules, [])
    assert report.verdicts == []
    assert report.fraction == 1.0


def test_unweighted_stats(toy_rules):
    stats = reduction_stats(toy_rules)
    assert stats.counts == {"1": 1, "2": 1, "3": 2, "4+": 1}
    assert stats.percentages() == {"1": 20.0, "2": 20.0, "3": 40.0, "4+": 20.0}


def test_weighted_stats(toy_rules, treebank):
    tilings = evaluate_coverage(toy_rules, treebank.test).tilings
    stats = reduction_stats(toy_rules, weighted=True, tilings=tilings)
    assert stats.counts == {"1": 0, "2": 2, "3": 3, "4+": 0}
    assert stats.percentages() == {"1": 0.0, "2": 40.0, "3": 60.0, "4+": 0.0}
    assert stats.skipped == 0


def test_weighted_stats_skips_untileable(toy_rules, treebank, inventory):
    flats = by_flat(toy_rules)
    partial = [flats["np => num"]]
    tilings = evaluate_coverage(partial, treebank.test).tilings
    stats = reduction_stats(partial, weighted=True, tilings=tilings)
    assert stats.skipped == 1
    assert stats.total == 0
    assert stats.percentages() == {"1": 0.0, "2": 0.0, "3": 0.0, "4+": 0.0}


def test_render_stats(toy_rules):
    out = "".join(render_stats(reduction_stats(toy_rules)))
    lines = out.splitlines()
    assert lines[0] == "# unweighted"
    assert lines[1] == "reduction_length\tcount\tpercent"
    assert lines[2] == "1\t1\t20.0"
    assert lines[5] == "4+\t1\t20.0"
    weighted = reduction_stats(toy_rules, weighted=True, tilings=[])
    assert next(render_stats(weighted)) == "# weighted\n"


def test_memo_handles_shared_categories(inventory):
    # One np shape both as subject and object: the np rule must tile
    # both positions, which share one memo entry.
    trees = parse_treebank(
        "(s_np_vp (np_det_n (lex the) (lex cat)) "
        "(vp_v_np (lex saw) (np_det_n (lex the) (lex dog))))",
        inventory,
    )
    aot = index_treebank(trees, inventory)
    n_obj = [n for n in aot.nodes() if n.category == "np"]
    cutset = closure(frozenset(n.node_id for n in n_obj), aot)
    rules = training_rules(trees, aot, cutset)
    tiling = covers(rules, trees[0])
    assert tiling is not None
    assert validate_tiling(tiling, trees[0])


def test_trees_of_one_shape_share_their_tiling(toy_rules, inventory):
    # the test tree, and its shape with other words, in one word-blind load
    trees = parse_shapes(
        (TOY / "test.txt").read_text()
        + "(s_np_vp (np_pron (lex She)) (vp_v_np (lex paid) (np_np_pp"
        " (np_det_n (lex the) (lex fare)) (pp_prep_np (lex of) (np_np_pp"
        " (np_det_n (lex the) (lex trip)) (pp_prep_np (lex to) (lex Rome)))))))",
        inventory,
    )
    again = trees[1:]
    report = evaluate_coverage(toy_rules, trees)
    assert report.tilings[1] is report.tilings[0]
    assert covers(toy_rules, again[0]) == report.tilings[0]
    assert validate_tiling(report.tilings[0], again[0])


def test_retrieval_prefers_longer_reductions(treebank, aot, table, mixed_scores):
    # pool the rules of three cuts, so several chunks match at one node
    pooled = {}
    for threshold in (0.0, 1.0, 9.0):
        cutset = select_by_threshold(threshold, aot, table, mixed_scores)
        for rule in training_rules(treebank.training, aot, cutset):
            pooled[rule.name] = rule
    ranked = sorted(pooled.values(), key=preference)
    index = RuleIndex([(rule.chunk, rule) for rule in ranked])
    lengths = set()
    for tree in treebank.training:
        keys = [preference(rule) for rule, _ in index.retrieve(tree)]
        assert keys == sorted(keys)
        lengths.update(-length for length, _ in keys)
    assert len(lengths) > 1


def test_covers_does_not_check_categories_of_hand_built_trees(inventory):
    # s_np_vp wants an np first; this hand-built tree puts a vp there,
    # which the loader would refuse
    vp = Internal("vp_v", (LexLeaf("left"),))
    tree = Internal("s_np_vp", (vp, vp))
    with pytest.raises(CategoryMismatchError):
        parse_treebank("(s_np_vp (vp_v (lex left)) (vp_v (lex left)))", inventory)
    s_rule = SpecializedRule(
        "s_x", "s", Apply("s_np_vp", (Frontier("np"), Frontier("vp"))), ("np", "vp")
    )
    vp_rule = SpecializedRule("vp_x", "vp", Apply("vp_v", (LexSlot("v"),)), ("v",))
    # the tiler trusts the rules' frontier categories to fit the tree, so
    # it fills the np frontier with the vp rule; validation catches it
    tiling = covers([s_rule, vp_rule], tree)
    assert tiling.applications() == [s_rule, vp_rule, vp_rule]
    assert not validate_tiling(tiling, tree)
