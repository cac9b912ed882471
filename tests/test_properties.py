"""Each fast path against its reference implementation in ``oracles``.

The inputs are the fixed corpora, seeded generated corpora and
Hypothesis strategies.  Seeded generation reproduces a failure, and
the corpora are small enough to read; the loader's inputs come from
strategies, which shrink a failure to a minimal text.
"""

import functools
import itertools
import math
import random
import re
import shutil
import time
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecut import cli, cutnodes, node_entropy, pipeline
from treecut.andor import index_treebank
from treecut.coverage import RuleIndex, VerdictTable, evaluate_coverage
from treecut.cutnodes import closure, neighbor_conflicts, singleton_cutnodes
from treecut.entropy import Slot, build_phrase_table, render_entropy_table
from treecut.extraction import (
    ANDOR_ENUM,
    DEFAULT_MAX_CHUNKS,
    TRAINING_CUT,
    ChunkCapError,
    ChunkExplosionError,
    ChunkMemo,
    Pieces,
    RuleFileFormatError,
    SpecializedRule,
    cut_tree,
    extract_andor,
    extract_training,
    flat_rhs,
    name_rules,
    parse_rule_file,
    render_rule_file,
    rule_name,
    validate_rules,
)
from treecut.grammar import (
    LEX,
    Frontier,
    Internal,
    LexLeaf,
    LexSlot,
    Treebank,
    TreebankFormatError,
    parse_rule_inventory,
    parse_shapes,
    parse_treebank,
    render_tree,
)
from treecut.node_entropy import (
    EntropyScheme,
    NodeEntropyMap,
    compute_node_entropies,
    node_entropy_mixed,
    unified_node_entropy,
)
from treecut.pipeline import PipelineConfig
from treecut.threshold import bisect, search_unimodal

from oracles import (
    ALL_FAULTS,
    COMPLETE_LOADERS,
    CYCLIC_GRAMMAR,
    FIXED_CORPORA,
    LOADER_GRAMMAR,
    TOY_INVENTORY,
    WORDS,
    andor_outcome,
    andor_rules,
    as_dataclass,
    assert_equal_shapes_are_one_object,
    assert_equal_subtrees_are_one_object,
    assert_loader_outcome_is,
    assert_loaders_agree,
    assert_phrase_table_order,
    assert_probes_agree_with_fresh_paths,
    assert_set_up_agrees,
    assert_shape_keyed_work_agrees,
    blind,
    blind_outcome,
    brute_match,
    by_root_rule,
    chain_text,
    chunk_items,
    chunk_outcome,
    copy_with_words,
    corpus_texts,
    distinct_nodes,
    empty_slot_index,
    gen_corpus,
    gen_cyclic_root,
    gen_root,
    has_wordless_piece,
    load_outcome,
    loader_exprs,
    loader_texts,
    node_counts,
    oracle_corpora,
    per_node_arc_scores,
    random_cut_sets,
    random_rule_subsets,
    reference_closure,
    reference_entropy_table_cells,
    reference_extract_andor,
    reference_extract_training,
    reference_grouped_arc_scores,
    reference_grouping,
    reference_neighbor_conflicts,
    reference_node_entropy_mixed,
    reference_parse_treebank,
    reference_probe,
    reference_quantize,
    reference_render_tree,
    reference_rule_chunk,
    reference_select_by_threshold,
    reference_unified_node_entropy,
    reference_validate,
    repeated_shape_treebanks,
    rule_records,
    search_context,
    seeded_corpora,
    selection_outcome,
    sexpr_text,
    shared_subtree_treebanks,
    smallest_cap,
    token_fold_outcome,
    toy_chunks,
    training_rules,
    tree_of,
    unshared_fold,
)


def test_closure_agrees_with_reference_closure(treebank):
    compared = yieldless_cuts = 0
    for name, aot in oracle_corpora(treebank):
        rng = random.Random(f"closure-{name}")
        for cut_ids in random_cut_sets(rng, aot):
            want = reference_closure(cut_ids, aot)
            got = closure(cut_ids, aot)
            # class order, member seqs and cut flags
            assert pipeline.partition_key(got) == pipeline.partition_key(want), (
                name, sorted(cut_ids)
            )
            assert [c.members for c in got.classes] == [
                c.members for c in want.classes
            ]
            compared += 1
            yieldless_cuts += any(
                not aot[i].has_lexical_yield for i in cut_ids
            )
    assert compared >= 31 * 15
    assert yieldless_cuts >= 40


def test_closure_memo_is_keyed_on_the_cut_set(aot):
    ids = ["n3", "n6", "n3"]
    as_list = closure(ids, aot)
    assert closure(set(ids), aot) is as_list
    assert closure(frozenset(ids), aot) is as_list
    assert closure(iter(ids), aot) is as_list
    assert as_list.cut_node_ids() == reference_closure(ids, aot).cut_node_ids()
    assert closure(["n3"], aot) is not as_list


def test_indices_with_equal_node_ids_keep_their_own_memo(treebank):
    first = index_treebank(treebank.training, treebank.inventory)
    second = index_treebank(treebank.training, treebank.inventory)
    assert first.node_index.keys() == second.node_index.keys()
    ids = frozenset({"n3", "n4"})
    a, b = closure(ids, first), closure(ids, second)
    assert a is not b
    assert pipeline.partition_key(a) == pipeline.partition_key(b)
    for cutset, aot in ((a, first), (b, second)):
        for cls in cutset.classes:
            assert all(m is aot[m.node_id] for m in cls.members)
    # a differently built index sharing some ids is not served either
    other_inv, other_training = gen_corpus(random.Random(8001), 6)
    other = index_treebank(other_training, other_inv)
    assert closure(frozenset(), other) is not closure(frozenset(), first)
    assert pipeline.partition_key(closure(frozenset(), other)) == (
        pipeline.partition_key(reference_closure(frozenset(), other))
    )
    # nor are the arrays a closure reads: each index has its own, read
    # off its own or-nodes
    arrays = [aot.closure_arrays for aot in (first, second, other)]
    assert arrays[0] == arrays[1]
    for one, two in ((arrays[0], arrays[1]), (arrays[0], arrays[2])):
        assert all(a is not b for a, b in zip(one, two))
        assert all(a is not b for a, b in zip(one[0], two[0]))
    assert [len(a) for a in arrays[2]] == [len(other.node_index)] * 3


def test_a_closed_cut_set_is_served_its_own_closure(treebank, monkeypatch):
    # closure files its result under the result's own cut ids exactly
    # when they hold every seed, and keeps an entry already there; a
    # seed without lexical yield is demoted and leaves the cut ids, so
    # they are closed afresh, to the plain fixpoint's partition
    closed_keys = []
    close = cutnodes._close
    monkeypatch.setattr(
        cutnodes, "_close", lambda key, aot: closed_keys.append(key) or close(key, aot)
    )
    served = fresh = kept = 0
    for name, aot in oracle_corpora(treebank):
        rng = random.Random(f"closed-{name}")
        yieldless = {i for i, n in aot.node_index.items() if not n.has_lexical_yield}
        drawn = list(random_cut_sets(rng, aot))
        for cut_ids in drawn + [ids | yieldless for ids in drawn if yieldless]:
            aot.closures.clear()
            got = closure(cut_ids, aot)
            closed = got.cut_node_ids()
            holds_seeds = cut_ids <= closed
            assert (aot.closures.get(closed) is got) is holds_seeds, name
            closed_keys.clear()
            again = closure(closed, aot)
            want = pipeline.partition_key(reference_closure(closed, aot))
            assert pipeline.partition_key(again) == want, (name, sorted(cut_ids))
            if holds_seeds:
                assert again is got and closed_keys == [], name
                served += 1
                continue
            assert any(not aot[i].has_lexical_yield for i in cut_ids - closed)
            assert again is not got and closed_keys == [closed], name
            fresh += 1
            # a closed set already memoised keeps its own entry
            aot.closures.clear()
            first = closure(closed, aot)
            assert closure(cut_ids, aot) is not first
            assert aot.closures[closed] is first
            kept += 1
    assert served >= 500 and fresh >= 20 and kept == fresh


def test_neighbor_conflicts_agree_with_the_reference(treebank):
    # the same class objects, in the same order, on the first restricted
    # round's singleton classes and on closed classes, under the mixed
    # and arc-frequency scores and under scores drawn from three values,
    # so that peaks tie and the representative breaks the tie
    compared = conflicted = tied = 0
    for name, aot in oracle_corpora(treebank):
        rng = random.Random(f"conflicts-{name}")
        table = build_phrase_table(aot)
        drawn = {i: rng.choice([0.0, 0.5, 1.0]) for i in aot.node_index}
        score_maps = [
            compute_node_entropies(aot, table, EntropyScheme.MIXED),
            compute_node_entropies(aot, None, EntropyScheme.ARC_FREQUENCY),
            NodeEntropyMap(EntropyScheme.MIXED, drawn),
        ]
        for cut_ids in random_cut_sets(rng, aot, count=8):
            for cutset in (singleton_cutnodes(cut_ids, aot), closure(cut_ids, aot)):
                for scores in score_maps:
                    want = reference_neighbor_conflicts(cutset, aot, table, scores)
                    got = neighbor_conflicts(cutset, aot, table, scores)
                    assert len(got) == len(want), (name, sorted(cut_ids))
                    assert all(g is w for g, w in zip(got, want)), name
                    peaks = [
                        max(scores[m.node_id] for m in cls.members)
                        for cls in cutset.cut_classes()
                    ]
                    compared += 1
                    conflicted += bool(want)
                    tied += bool(want) and len(set(peaks)) < len(peaks)
    assert compared == 31 * 11 * 2 * 3
    assert conflicted >= 1000 and tied >= 700


def test_selection_agrees_with_the_reference_selectors(treebank):
    # just below and just above each distinct score, under every scheme,
    # with and without restrictions, and with an iteration limit that
    # some fixpoints reach: the same closed partition, or the same error
    seen = Counter()
    for name, aot in oracle_corpora(treebank):
        table = build_phrase_table(aot)
        for scheme in EntropyScheme:
            scores = compute_node_entropies(aot, table, scheme)
            thresholds = sorted({
                math.nextafter(v, direction)
                for v in set(scores.values.values())
                for direction in (-math.inf, math.inf)
            })
            for s_min, limit in itertools.product(
                thresholds, (1, 2, cutnodes.MAX_ITERATIONS)
            ):
                outcomes = []
                for restrictions in (False, True):
                    args = (s_min, aot, table, scores, restrictions, limit)
                    want = selection_outcome(reference_select_by_threshold, *args)
                    got = selection_outcome(cutnodes.select_by_threshold, *args)
                    where = (name, scheme, s_min, restrictions, limit)
                    if isinstance(want, tuple):
                        assert got == want, where
                        seen["iteration limit"] += 1
                    else:
                        assert got is want, where
                        seen[scheme, restrictions] += 1
                    outcomes.append(want)
                # the restricted fixpoint removed a conflicting class
                unrestricted, restricted = outcomes
                seen[scheme, "restrictions removed"] += not any(
                    isinstance(o, tuple) for o in outcomes
                ) and unrestricted is not restricted
    assert min(seen.values()) >= 100, seen


def test_arc_frequency_pools_once_per_class(treebank, monkeypatch):
    calls = []
    original = node_entropy.node_entropy_arc_frequency

    def counting(node, members=None):
        calls.append(node.node_id)
        return original(node, members)

    monkeypatch.setattr(node_entropy, "node_entropy_arc_frequency", counting)
    corpora = list(oracle_corpora(treebank, count=25))
    for corpus in ("toy", "layered"):  # the benchmark generator's training sets
        grammar, text, _ = corpus_texts(f"gen-{corpus}")
        inv = parse_rule_inventory(grammar, "s")
        aot = index_treebank(parse_treebank(text, inv), inv)
        corpora.append((f"bench-{corpus}-train", aot))
    for name, aot in corpora:
        rng = random.Random(f"pool-{name}")
        calls.clear()
        alone = compute_node_entropies(aot, None, EntropyScheme.ARC_FREQUENCY)
        assert alone.values == per_node_arc_scores(aot, None), name
        assert len(calls) == len(aot.node_index)
        assert alone.values == reference_grouped_arc_scores(aot, None), name
        for cut_ids in random_cut_sets(rng, aot, count=4):
            cutset = closure(cut_ids, aot)
            calls.clear()
            pooled = compute_node_entropies(
                aot, None, EntropyScheme.ARC_FREQUENCY, cutset.classes
            )
            assert pooled.values == per_node_arc_scores(aot, cutset), name
            assert calls == [c.representative.node_id for c in cutset.classes]
            # the same scores as pooling through a shared-list grouping,
            # and as pooling lists that are not shared, once per node
            grouping = reference_grouping(cutset)
            assert pooled.values == reference_grouped_arc_scores(aot, grouping)
            unshared = {k: list(v) for k, v in grouping.items()}
            assert pooled.values == reference_grouped_arc_scores(aot, unshared)


def lex_slot_faces_internal(chunk, node):
    """Whether the chunk puts a lexical slot where *node* has an application."""
    if isinstance(chunk, LexSlot):
        return isinstance(node, Internal)
    if isinstance(chunk, Frontier) or chunk.rule != getattr(node, "rule", None):
        return False
    return any(
        lex_slot_faces_internal(c, n) for c, n in zip(chunk.children, node.children)
    )


def test_retrieval_agrees_with_the_linear_matcher():
    seen = {"lex frontier": 0, "lex slot on a phrase": 0, "wordless piece": 0}
    for seed, kept, trees in random_rule_subsets():
        index = RuleIndex([rule.chunk for rule in kept])
        by_root = by_root_rule(kept)
        stack = list(trees)
        while stack:
            node = stack.pop()
            if isinstance(node, LexLeaf):
                continue
            stack.extend(node.children)
            want = Counter()
            for rule in by_root.get(node.rule, []):
                frontiers = []
                if brute_match(rule.chunk, node, frontiers):
                    subs = [sub for sub, _ in frontiers]
                    want[id(rule.chunk), tuple(map(id, subs))] += 1
                    seen["lex frontier"] += any(isinstance(t, LexLeaf) for t in subs)
                    seen["wordless piece"] += has_wordless_piece(rule.chunk)
                else:
                    seen["lex slot on a phrase"] += lex_slot_faces_internal(
                        rule.chunk, node
                    )
            # retrieval returns its matches in no set order
            got = Counter(
                (id(chunk), tuple(map(id, frontiers)))
                for chunk, frontiers in index.retrieve(node)
            )
            assert got == want, seed
    assert all(seen.values()), seen


def test_verdicts_do_not_depend_on_the_order_of_the_candidates():
    # a probe's chunks come in the order extraction found them
    mixed = 0
    for seed, kept, trees in random_rule_subsets():
        report = evaluate_coverage(kept, trees)
        chunks = [[rule.chunk, rule.support] for rule in kept]
        random.Random(seed).shuffle(chunks)
        assert VerdictTable(trees).fraction(chunks) == report.fraction, seed
        verdicts = [VerdictTable([tree]).fraction(chunks) for tree in trees]
        assert verdicts == [float(v) for v in report.verdicts], seed
        mixed += 0 < sum(verdicts) < len(verdicts)
    assert mixed >= 10, mixed


def search_outcome(c0, evaluate, cfg, s_high_init):
    """Everything a search reports, or the error that stopped it."""
    search = search_unimodal if cfg.neighbor_restrictions else bisect
    try:
        r = search(c0, evaluate, s_high_init, cfg.delta_s)
    except ChunkExplosionError:
        return "chunk explosion"
    return (
        r.threshold, r.probe.coverage, r.attainable, r.bracket_high,
        r.coverage_at_high, r.steps, sorted(r.probe.cutnodes.cut_node_ids()),
    )


SEARCHES = [
    (scheme, restrictions, mode)
    for scheme, restrictions in [
        (EntropyScheme.MIXED, False),
        (EntropyScheme.RHS_LOCAL, False),
        (EntropyScheme.MIXED, True),
    ]
    for mode in (TRAINING_CUT, ANDOR_ENUM)
]


def test_search_context_agrees_with_reference_evaluator(treebank, monkeypatch):
    selected, extracted = [], []
    select, extract = pipeline.select_by_threshold, pipeline.SearchContext.extract

    def counting_select(*args, **kwargs):
        cutnodes = select(*args, **kwargs)
        selected.append(pipeline.partition_key(cutnodes))
        return cutnodes

    def counting_extract(context, threshold, cutnodes):
        extracted.append(pipeline.partition_key(cutnodes))
        return extract(context, threshold, cutnodes)

    monkeypatch.setattr(pipeline, "select_by_threshold", counting_select)
    monkeypatch.setattr(pipeline.SearchContext, "extract", counting_extract)

    corpora = [(treebank, 1.0)]
    for _, rng, inv, training in seeded_corpora(7000, 25, 2, 8):
        test = [gen_root(rng, inv) for _ in range(4)]
        corpora.append((Treebank(inv, training, test), rng.choice([0.5, 0.75, 1.0])))

    searches = repeats = 0
    for bank, c0 in corpora:
        aot = index_treebank(bank.training, bank.inventory)
        table = build_phrase_table(aot)
        for scheme, restrictions, mode in SEARCHES:
            cfg = PipelineConfig(
                grammar_path="", train_path="", scheme=scheme,
                neighbor_restrictions=restrictions, mode=mode,
            )
            scores = compute_node_entropies(aot, table, scheme)
            s_high = scores.max_value() + 1.0
            want = search_outcome(
                c0, reference_probe(bank, aot, table, cfg), cfg, s_high
            )
            selected.clear()
            extracted.clear()
            context = pipeline.SearchContext(bank, aot, table, cfg, scores)
            got = search_outcome(c0, context.probe, cfg, s_high)
            assert got == want, (bank.training, scheme, restrictions, mode)
            # one extraction per distinct partition, none for repeats
            assert len(extracted) == len(set(extracted)) == len(set(selected))
            searches += want != "chunk explosion"
            repeats += len(selected) - len(extracted)
    assert searches >= 100
    assert repeats >= 500  # the memo served many probes


# searches, as config fields, whose every probe is checked against the
# fresh per-call paths: both extraction modes, with and without
# restrictions, and a chunk cap the reference enumerator meets quickly
SHARED_SEARCHES = [
    {"mode": mode, "neighbor_restrictions": restrictions, "max_chunks": 2000}
    for mode in (TRAINING_CUT, ANDOR_ENUM)
    for restrictions in (False, True)
]


def probes_checked(bank, c0, searches=SHARED_SEARCHES):
    """Partitions of *bank*'s searches for *c0* checked against the fresh
    paths, per extraction mode."""
    checked = {TRAINING_CUT: 0, ANDOR_ENUM: 0}
    for fields in searches:
        cfg = PipelineConfig(
            grammar_path="", train_path="", coverage_target=c0, **fields
        )
        checked[cfg.mode] += assert_probes_agree_with_fresh_paths(
            search_context(bank, cfg)
        )
    return checked


@pytest.mark.parametrize("grammar, text", FIXED_CORPORA)
def test_shared_store_and_verdicts_agree_with_fresh_paths_on_corpora(grammar, text):
    # half the trees train and half test, so coverage moves with the
    # threshold and a search probes more than its two ends
    inv = parse_rule_inventory(grammar, "s")
    trees = parse_shapes(text, inv)
    checked = probes_checked(Treebank(inv, trees[::2], trees[1::2]), 0.9)
    assert min(checked.values()) >= 4, checked


def test_shared_store_and_verdicts_agree_with_fresh_paths_on_random_corpora():
    checked = {TRAINING_CUT: 0, ANDOR_ENUM: 0}
    for _, rng, inv, training in seeded_corpora(9000, 20, 2, 12):
        test = [gen_root(rng, inv) for _ in range(6)]
        c0 = rng.choice([0.5, 0.75, 0.9, 1.0])
        for mode, n in probes_checked(Treebank(inv, training, test), c0).items():
            checked[mode] += n
    assert min(checked.values()) >= 60, checked


def test_shared_store_and_verdicts_agree_with_fresh_paths_on_the_bench_corpus():
    # corpus 0 of seed 1 of bisect-mixed; its andor search stops at the
    # chunk cap, after the partitions it checks
    grammar, train, test = corpus_texts("gen-toy", 1000, 200, "1.0")
    inv = parse_rule_inventory(grammar, "s")
    bank = Treebank(inv, parse_shapes(train, inv), parse_shapes(test, inv))
    searches = [{"mode": TRAINING_CUT}, {"mode": ANDOR_ENUM}]
    checked = probes_checked(bank, 0.9, searches)
    assert checked[TRAINING_CUT] >= 5 and checked[ANDOR_ENUM] >= 1, checked


WORDLESS_GRAMMAR = parse_rule_inventory(
    "s_x s -> x\ns_xw s -> x w\nx_e x ->\nx_w x -> w\n", "s"
)


def test_a_wordless_tree_roots_no_rule_under_a_shared_store():
    # the loader rejects a parse without words, but a hand-built one is
    # cut like any other: its one chunk spans no slot and is no rule
    def s_x(x):
        return Internal("s_x", (x,))

    empty, word = Internal("x_e", ()), Internal("x_w", (LexLeaf("po"),))
    training = [
        s_x(empty), s_x(word), Internal("s_xw", (empty, LexLeaf("ki"))),
        Internal("s_xw", (word, LexLeaf("ra"))), s_x(empty),
    ]
    aot = index_treebank(training, WORDLESS_GRAMMAR)
    rng = random.Random(5)
    for cut_ids in random_cut_sets(rng, aot):
        cutset = closure(cut_ids, aot)
        chunks = extract_training(training, aot, cutset, pieces=Pieces())
        assert all(flat_rhs(chunk) for chunk, _ in chunks)
        want = reference_extract_training(training, aot, cutset)
        got = name_rules(chunks, WORDLESS_GRAMMAR)
        assert rule_records(got) == rule_records(want), sorted(cut_ids)
    bank = Treebank(WORDLESS_GRAMMAR, training, training[1:4])
    checked = probes_checked(bank, 0.9)
    assert min(checked.values()) >= 2, checked


# goals of `treecut run`, as config fields, whose reported rules are
# checked: a fixed threshold names what it extracts, a search what its
# memo holds
REPORTED_GOALS = [
    {"threshold": 1.0},
    {"threshold": 1.0, "mode": ANDOR_ENUM},
    {"coverage_target": 0.9},
    {"coverage_target": 0.9, "neighbor_restrictions": True},
]


def assert_reports_the_reference_rules(directory, grammar, train, test, goals):
    """Every run's rules, with their names, supports and order, are the
    reference rules of the partition it reports."""
    paths = {}
    for role, text in (("grammar", grammar), ("train", train), ("test", test)):
        paths[f"{role}_path"] = directory / f"{role}.txt"
        paths[f"{role}_path"].write_text(text)
    for goal in goals:
        context, _ = pipeline.run_pipeline(PipelineConfig(**paths, **goal))
        aot, cutnodes = context.aot, context.choice[2]
        if context.cfg.mode == ANDOR_ENUM:
            want = reference_extract_andor(aot, cutnodes)
        else:
            want = reference_extract_training(context.treebank.training, aot, cutnodes)
        assert want, goal
        assert rule_records(context.rules) == rule_records(want), goal


@pytest.mark.parametrize("grammar, text", FIXED_CORPORA)
def test_reported_rules_are_the_reference_rules_on_corpora(grammar, text, tmp_path):
    assert_reports_the_reference_rules(tmp_path, grammar, text, text, REPORTED_GOALS)


@pytest.mark.parametrize("name", ["bisect-mixed", "arc-restricted"])
def test_reported_rules_are_the_reference_rules_on_bench_corpora(name, tmp_path):
    # corpus 0 of seed 1 of the workload, with the workload's flags
    corpus, train, test, goal = {
        "bisect-mixed": ("gen-toy", 1000, 200, {"coverage_target": 0.9}),
        "arc-restricted": ("gen-layered", 4000, 100, {
            "scheme": EntropyScheme.ARC_FREQUENCY, "neighbor_restrictions": True,
            "threshold": 0.2,
        }),
    }[name]
    texts = corpus_texts(corpus, train, test, "1.0")
    assert_reports_the_reference_rules(tmp_path, *texts, [goal])


# --- The one-pass loader against the two-pass one it replaced ----------


@pytest.mark.parametrize("fault", [None, *ALL_FAULTS])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_loader_agrees_with_reference_loader(fault, data):
    text, require_top = data.draw(loader_texts([fault]))
    assert_loaders_agree(text, LOADER_GRAMMAR, require_top)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loader_reports_the_first_of_several_faults_as_before(data):
    faults = data.draw(st.lists(st.sampled_from(ALL_FAULTS), min_size=2, max_size=4))
    text, require_top = data.draw(loader_texts(faults))
    assert_loaders_agree(text, LOADER_GRAMMAR, require_top)


# The one-tree-per-line layout the word-blind loader folds itself, and
# the ways a text can leave it: quoted words, trees over several lines,
# mid-line comments, and two trees on one line.
LAYOUT_GAPS = [""] * 12 + [" ", "\t", "\n", "\r\n", " # c(\n"]
LAYOUT_BREAKS = ["\n"] * 3 + ["\r\n", "\n\n", "\n \t\n", "\n# a (comment\n", " ", " "]


@pytest.mark.parametrize("fault", [None, *ALL_FAULTS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_word_blind_loader_agrees_with_the_loader(fault, data):
    # one gap or quote anywhere sends a text down the whole-text fold, so
    # half of the texts draw neither
    gaps = data.draw(st.sampled_from([[""], LAYOUT_GAPS]))
    quote = data.draw(st.sampled_from([st.just(False), st.integers(0, 29).map(
        lambda k: k == 0
    )]))
    text, _ = data.draw(loader_texts(
        [fault], "ab", gaps, LAYOUT_BREAKS, quote=quote, copies=6
    ))
    want = load_outcome(parse_treebank, text, LOADER_GRAMMAR, require_top=True)
    got = load_outcome(parse_shapes, text, LOADER_GRAMMAR)
    assert blind_outcome(got) == blind_outcome(want)
    if isinstance(got, list):
        # on either path, every word-blind subtree is one object
        assert_equal_shapes_are_one_object(got)


def test_unterminated_quote_is_found_in_linear_time():
    # each '"' after the first could start a quoted symbol running to the end
    text = "(np_pron (lex w))\n" + '"' + '\\"' * 200_000
    start = time.perf_counter()
    with pytest.raises(TreebankFormatError, match="line 2: unterminated"):
        parse_treebank(text, LOADER_GRAMMAR)
    assert time.perf_counter() - start < 2.0


@settings(max_examples=300, deadline=None)
@given(
    root=chunk_items(),
    extra=chunk_items(),
    # one text in eight holds a second expression, which is an error
    second=st.sampled_from([False] * 7 + [True]),
)
def test_rule_file_chunks_agree_with_the_recursive_builder(root, extra, second):
    body = " ".join(sexpr_text(e) for e in ([root, extra] if second else [root]))
    want = chunk_outcome(reference_rule_chunk, body)
    flat = " ".join(flat_rhs(want)) if isinstance(want, Internal) else ""
    got = chunk_outcome(
        lambda b: parse_rule_file(f"r: x => {flat}\n  {b}\n")[0].chunk, body
    )
    if not isinstance(want, Internal):  # the file names the chunk's line, line 2
        want = RuleFileFormatError, f"line 2: {want[1]}"
    assert got == want


# Every symbol a grammar accepts: no whitespace, '(', ')', '"' or '#'.
# One character in two is one a rule header is split at.
grammar_symbols = st.text(
    st.sampled_from(":=>") | st.characters(
        blacklist_categories=("Z", "C"), blacklist_characters='()"#'
    ),
    min_size=1,
    max_size=6,
)
rule_ids = grammar_symbols.filter(lambda symbol: symbol != LEX)
chunk_leaves = st.builds(LexSlot, grammar_symbols) | st.builds(Frontier, grammar_symbols)


def applications(children):
    return st.builds(Internal, rule_ids, st.lists(children, max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(
    lhs=grammar_symbols,
    chunk=applications(st.recursive(chunk_leaves, applications, max_leaves=6)),
    support=st.integers(0, 99),
)
def test_every_rule_a_rule_file_renders_reads_back(lhs, chunk, support):
    rule = SpecializedRule(rule_name(lhs, chunk), lhs, chunk, flat_rhs(chunk), support)
    assert parse_rule_file("".join(render_rule_file([rule]))) == [rule]


@settings(max_examples=300, deadline=None)
@given(chunk=toy_chunks(), lhs=st.sampled_from(["np", "np", "np", "pp"]))
def test_validate_rules_agrees_with_the_recursive_check(chunk, lhs):
    rules = [SpecializedRule("r", lhs, chunk, flat_rhs(chunk))]
    assert chunk_outcome(
        lambda r: validate_rules(r, TOY_INVENTORY), rules
    ) == chunk_outcome(lambda r: reference_validate(r, TOY_INVENTORY), rules)


@settings(max_examples=200, deadline=None)
@given(expr=loader_exprs("s", 4, root=True))
def test_render_tree_agrees_with_the_recursive_renderer(expr):
    tree = tree_of(expr)
    text = render_tree(tree)
    assert text == reference_render_tree(tree)
    assert parse_treebank(text, LOADER_GRAMMAR) == [tree]


def test_tree_equality_agrees_with_the_dataclass_reference():
    seen = {"equal copies": 0, "same shape, other words": 0}
    for seed in range(20):
        rng = random.Random(9000 + seed)
        inv, trees = gen_corpus(rng, 25)
        # loaded copies: equal trees that are other objects, with the
        # shapes passed in rather than worked out
        trees += parse_treebank("\n".join(map(render_tree, trees)), inv)
        refs = [as_dataclass(t) for t in trees]
        for a, ref_a in zip(trees, refs):
            assert parse_treebank(repr(a)[len("Internal("):-1], inv) == [a]
            for b, ref_b in zip(trees, refs):
                same = a == b
                assert same == (ref_a == ref_b), seed
                if same:
                    assert hash(a) == hash(b), seed
                    seen["equal copies"] += a is not b
                elif blind(a) == blind(b):
                    seen["same shape, other words"] += 1
    assert all(seen.values()), seen


def load_paths(text, inv):
    """*text* loaded as complete parses once by each path: the two-pass
    reference, and both loaders with peeling and token by token; and the
    texts that the word-blind loader handed to the loader with words."""
    words = COMPLETE_LOADERS["words"]
    folded = []

    def recording_parse_treebank(text, inv, require_top=False):
        folded.append(text)
        return parse_treebank(text, inv, require_top)

    with mock.patch("treecut.grammar.parse_treebank", recording_parse_treebank):
        shapes = load_outcome(parse_shapes, text, inv)
    return SimpleNamespace(
        reference=load_outcome(reference_parse_treebank, text, inv, require_top=True),
        words=load_outcome(words, text, inv),
        shapes=shapes,
        folded=folded,
        words_by_token=token_fold_outcome(words, text, inv),
        shapes_by_token=token_fold_outcome(parse_shapes, text, inv),
    )


@functools.cache
def corpus_loads(grammar, text):
    """``load_paths`` of a corpus text, with the fold that shares nothing."""
    loads = load_paths(text, parse_rule_inventory(grammar, "s"))
    loads.unshared = unshared_fold(text)
    return loads


def loader_matches_the_reference(loads):
    assert_loader_outcome_is(loads.words, loads.reference)


def word_blind_loader_folds_each_line_text_once(loads):
    assert blind_outcome(loads.shapes) == blind_outcome(loads.words)
    # the corpora write each word-blind shape as one line text, so the
    # fast path folds one line per distinct shape and shares its tree
    count = len({blind(tree) for tree in loads.words})
    assert len(loads.folded) == 1
    assert len(loads.folded[0].split("\n")) == count
    assert len({id(tree) for tree in loads.shapes}) == count


def loaders_share_every_equal_subtree(loads):
    words, shapes, unshared = loads.words, loads.shapes, loads.unshared
    assert words == unshared
    assert list(map(render_tree, words)) == list(map(render_tree, unshared))
    assert blind_outcome(shapes) == blind_outcome(unshared)
    for trees in (words, shapes):
        assert_equal_subtrees_are_one_object(trees)
        assert len(distinct_nodes(trees)) < len(distinct_nodes(unshared))
    # without its words, a subtree is its shape: one object per shape
    internal = [n for n in distinct_nodes(shapes) if n.__class__ is Internal]
    assert len(internal) == len({blind(n) for n in internal})


def peeled_words_agree_with_the_token_fold(loads):
    # peeling gives what the token fold gives: the same trees and as many
    # distinct nodes, or the same error and line
    assert loads.words == loads.words_by_token == loads.reference
    if isinstance(loads.words, list):
        assert node_counts(loads.words) == node_counts(loads.words_by_token)


def peeled_shapes_agree_with_the_token_fold(loads):
    assert loads.shapes == loads.shapes_by_token
    if isinstance(loads.shapes, list):
        assert node_counts(loads.shapes) == node_counts(loads.shapes_by_token)
        # one leaf for all the word-blind words
        assert not loads.shapes or node_counts(loads.shapes)[1] == 1


@pytest.mark.parametrize(
    "relation",
    [
        loader_matches_the_reference,
        word_blind_loader_folds_each_line_text_once,
        loaders_share_every_equal_subtree,
        peeled_words_agree_with_the_token_fold,
        peeled_shapes_agree_with_the_token_fold,
    ],
    ids=lambda relation: relation.__name__,
)
@pytest.mark.parametrize("grammar, text", FIXED_CORPORA)
def test_every_load_path_agrees_on_corpora(grammar, text, relation):
    relation(corpus_loads(grammar, text))


def test_loader_shares_every_equal_subtree_of_a_chain():
    # a chain of equal pp subtrees, each under a distinct np_np_pp
    chain = chain_text(300)
    loads = SimpleNamespace(
        words=parse_treebank(chain, TOY_INVENTORY),
        shapes=parse_shapes(chain, TOY_INVENTORY),
        unshared=unshared_fold(chain),
    )
    loaders_share_every_equal_subtree(loads)


def test_peeled_load_of_the_fixed_large_corpus_keeps_its_sharing():
    # corpus 0 of seed 1 of the benchmark's fixed-large workload
    grammar, text, _ = corpus_texts("gen-toy", 20_000, 100, "1.0")
    inv = parse_rule_inventory(grammar, "s")
    want = token_fold_outcome(parse_shapes, text, inv)
    got = parse_shapes(text, inv)
    assert node_counts(got) == node_counts(want) == (6_854, 1)
    assert got == want


# Texts that peel: no comment, no quote, and words that look like
# placeholder symbols without their opening character.
PEEL_GAPS = [" "] * 6 + ["", "  ", "\t", "\r\n", "\n", " \t\r\n  ", "\x0b", "\u3000"]
PEEL_BREAKS = ["\n"] * 3 + ["\r\n", "\n\n", "\t\n", " "]
PEEL_FAULTS = [None] + [f for f in ALL_FAULTS if f not in ("unterminated", "dangling")]


@pytest.mark.parametrize("fault", PEEL_FAULTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_peeled_load_agrees_with_the_token_fold(fault, data):
    text, _ = data.draw(loader_texts(
        [fault], "a0_\x01", PEEL_GAPS, PEEL_BREAKS, quote=st.just(False), copies=6
    ))
    loads = load_paths(text, LOADER_GRAMMAR)
    peeled_words_agree_with_the_token_fold(loads)
    peeled_shapes_agree_with_the_token_fold(loads)


def pretty(text):
    """*text*, one tree a line, with every tree over several lines: each
    list after a tree's first on its own line, indented by its depth,
    and the text's first word quoted."""
    out = []
    for line in text.split("\n"):
        depth = 0
        for ch in line:
            if ch == "(":
                if depth:
                    out.append("\n" + "  " * depth)
                depth += 1
            elif ch == ")":
                depth -= 1
            out.append(ch)
        out.append("\n")
    return re.sub(rf"\({LEX} ([^\s()]+)\)", rf'({LEX} "\1")', "".join(out), count=1)


# flag sets of `treecut run` that take every stage, the and-or
# enumeration and the iterative selection included
RUN_FLAGS = [
    ["--coverage", "0.9", "--weighted"],
    ["--threshold", "1.0", "--mode", "andor"],
    ["--scheme", "arc-frequency", "--restrictions", "--threshold", "0.2"],
]


def run_reports(directory, flags, capsys, monkeypatch):
    """Exit code, stdout, stderr and every report of `treecut run` on the
    corpus files in *directory*, named relative to it."""
    monkeypatch.chdir(directory)
    code = cli.main([
        "run", "--grammar", "grammar.txt", "--train", "train.txt",
        "--test", "test.txt", *flags, "--out", "out",
    ])
    out, err = capsys.readouterr()
    reports = {p.name: p.read_bytes() for p in sorted((directory / "out").iterdir())}
    shutil.rmtree(directory / "out")
    return code, out, err, reports


@pytest.mark.parametrize("corpus", ["toy", "gen-layered"])
def test_pretty_printed_corpora_load_and_run_as_one_tree_a_line(
    corpus, tmp_path, capsys, monkeypatch
):
    grammar, train, test = corpus_texts(corpus)
    inv = parse_rule_inventory(grammar, "s")
    for role, text in (("train", train), ("test", test)):
        assert '"' in pretty(text) and len(pretty(text).split("\n")) > 2 * len(
            text.split("\n")
        )
        lines, several = parse_shapes(text, inv), parse_shapes(pretty(text), inv)
        # the whole-text fold makes every word-blind subtree one object,
        # as the one-line fold does
        assert_equal_shapes_are_one_object(several)
        assert [blind(t) for t in several] == [blind(t) for t in lines]
        assert len(distinct_nodes(several)) == len(distinct_nodes(lines)), role
        assert len({id(t) for t in several}) == len({blind(t) for t in several})
    texts = {"lines": (train, test), "several": (pretty(train), pretty(test))}
    for name, (train_text, test_text) in texts.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "grammar.txt").write_text(grammar)
        (tmp_path / name / "train.txt").write_text(train_text)
        (tmp_path / name / "test.txt").write_text(test_text)
    for flags in RUN_FLAGS:
        want = run_reports(tmp_path / "lines", flags, capsys, monkeypatch)
        got = run_reports(tmp_path / "several", flags, capsys, monkeypatch)
        assert want[0] == 0 and len(want[3]) == 8, flags
        assert got == want, flags


@pytest.mark.parametrize("grammar, text", FIXED_CORPORA)
def test_phrase_table_keeps_first_seen_order_on_corpora(grammar, text):
    inv = parse_rule_inventory(grammar, "s")
    assert_phrase_table_order(parse_treebank(text, inv), inv)


def test_phrase_table_keeps_first_seen_order_on_random_corpora():
    for _, _, inv, training in seeded_corpora(9000, 100, 1, 10):
        assert_phrase_table_order(training, inv)


@pytest.mark.parametrize("decimals", [None, 0, 1, 2, 3])
@pytest.mark.parametrize("grammar, text", FIXED_CORPORA)
def test_table_precision_agrees_with_two_branch_scores(grammar, text, decimals):
    inv = parse_rule_inventory(grammar, "s")
    aot = index_treebank(parse_treebank(text, inv), inv)
    table = build_phrase_table(aot, decimals)
    for rule in inv.in_order():
        for pos in range(rule.arity + 1):
            slot = Slot(rule.rule_id, pos)
            want = reference_quantize(table.value(slot), decimals)
            assert table.published_value(slot) == want, slot
    local = compute_node_entropies(aot, table, EntropyScheme.RHS_LOCAL)
    mixed = compute_node_entropies(aot, table, EntropyScheme.MIXED)
    for node in aot.nodes()[1:]:
        want = reference_node_entropy_mixed(node, table)
        assert node_entropy_mixed(node, table) == want, node.node_id
        assert mixed[node.node_id] == want, node.node_id
        want = reference_quantize(table.value(node.parent_slot), decimals)
        assert local[node.node_id] == want, node.node_id
    pairs = 0
    for rule in inv.in_order():
        for k, category in enumerate(rule.rhs, start=1):
            for child in inv.in_order():
                if child.lhs == category:
                    slot = Slot(rule.rule_id, k)
                    got = unified_node_entropy(slot, child.rule_id, table)
                    want = reference_unified_node_entropy(slot, child.rule_id, table)
                    assert got == want, (slot, child.rule_id)
                    pairs += 1
    assert pairs
    rows = "".join(render_entropy_table(table)).splitlines()[1:]
    cells = [c.rstrip("*") for row in rows for c in row.split("\t")[1:] if c != "---"]
    assert cells == list(reference_entropy_table_cells(table))


def test_two_decimal_cells_match_the_rounded_value():
    rng = random.Random(12000)
    ties = [0.125, 0.135, 2.675, 0.005, 0.015, 0.025, 1.005, 0.0, math.log(3)]
    grid = [k / 1000 for k in range(6000)] + [k / 8 for k in range(40)]
    drawn = [rng.uniform(0, 5) for _ in range(20000)]
    for value in ties + grid + drawn:
        assert f"{value:.2f}" == f"{reference_quantize(value, 2):.2f}", value


def test_shape_keyed_work_agrees_on_the_toy_corpus(treebank):
    assert_shape_keyed_work_agrees(
        treebank.inventory, treebank.training, treebank.test, random.Random(1)
    )


@pytest.mark.parametrize("corpus", ["toy", "layered"])
def test_shape_keyed_work_agrees_on_bench_corpora(corpus):
    grammar, *texts = corpus_texts(f"gen-{corpus}", 300, 60)
    inv = parse_rule_inventory(grammar, "s")
    training, test = (parse_shapes(text, inv) for text in texts)
    # the generator repeats shapes, which is what per-shape work saves:
    # the loader makes each one object
    assert len({blind(t) for t in training}) < len(training)
    assert len({id(t) for t in training}) == len({blind(t) for t in training})
    assert_shape_keyed_work_agrees(inv, training, test, random.Random(2))


def test_shape_keyed_work_agrees_on_random_corpora():
    for _, rng, inv, training in seeded_corpora(10000, 40, 1, 12):
        training += [copy_with_words(rng.choice(training), rng) for _ in range(4)]
        test = [gen_root(rng, inv) for _ in range(4)] + [
            copy_with_words(rng.choice(training), rng) for _ in range(4)
        ]
        assert_shape_keyed_work_agrees(inv, training, test, rng, cut_sets=2)


def test_extract_andor_agrees_with_the_recursive_enumerator():
    seen = {"rules": 0, "wordless piece": 0, "chunk cap": 0, "recursive classes": 0}
    for seed in range(60):
        rng = random.Random(12000 + seed)
        if seed % 2:
            inv, training = gen_corpus(rng, rng.randint(1, 8))
        else:
            inv = CYCLIC_GRAMMAR
            training = [gen_cyclic_root(rng) for _ in range(rng.randint(1, 4))]
        aot = index_treebank(training, inv)
        for cut_ids in random_cut_sets(rng, aot, count=3):
            cutset = closure(cut_ids, aot)
            max_chunks = rng.choice([0, 1, 3, 10, 50, DEFAULT_MAX_CHUNKS])
            want = andor_outcome(reference_extract_andor, aot, cutset, max_chunks)
            got = andor_outcome(andor_rules, aot, cutset, max_chunks)
            assert got == want, (seed, sorted(cut_ids), max_chunks)
            if isinstance(want, list):
                seen["rules"] += 1
                seen["wordless piece"] += any(
                    has_wordless_piece(rule.chunk)
                    for rule in andor_rules(aot, cutset, max_chunks)
                )
            elif want[1].startswith("more than"):
                seen["chunk cap"] += 1
            else:
                seen["recursive classes"] += 1
    # every outcome, including both errors, is reached many times over
    assert min(seen.values()) >= 10, seen


def test_the_chunk_cap_boundary_agrees_with_the_recursive_enumerator(treebank):
    # the least cap that enumerates a cut set, and one less fails with
    # the same message; every partial product counts, so the index whose
    # second slot has no alternative needs a cap of 4 to emit no chunk
    def assert_boundary(aot, cutset):
        cap = smallest_cap(reference_extract_andor, aot, cutset)
        assert smallest_cap(extract_andor, aot, cutset) == cap
        want = andor_outcome(reference_extract_andor, aot, cutset, cap - 1)
        assert want == (ChunkCapError, f"more than {cap - 1} chunks")
        assert andor_outcome(andor_rules, aot, cutset, cap - 1) == want
        return cap

    empty = empty_slot_index(4)
    for cut_ids in (frozenset(), frozenset(["n1"])):
        cutset = singleton_cutnodes(cut_ids, empty)
        assert cutset.node_to_class["n1"].cut == bool(cut_ids)
        assert assert_boundary(empty, cutset) == 4
        assert extract_andor(empty, cutset, 4) == []
    caps, wordless = [], 0
    for name, aot in itertools.islice(oracle_corpora(treebank), 9):
        rng = random.Random(f"cap-{name}")
        cut_sets = [frozenset(), frozenset(aot.node_index)]
        if name != "toy":
            cut_sets += random_cut_sets(rng, aot, count=3)
        for cut_ids in cut_sets:
            cutset = closure(cut_ids, aot)
            try:
                chunks = extract_andor(aot, cutset)
            except ChunkExplosionError:  # recursive classes, or past the cap
                continue
            caps.append(assert_boundary(aot, cutset))
            wordless += any(has_wordless_piece(chunk) for chunk, _ in chunks)
    assert len(caps) >= 60 and min(caps) > 0 and wordless >= 10, (caps, wordless)


@settings(max_examples=60, deadline=None)
@given(text=repeated_shape_treebanks(), split=st.integers(1, 12), seed=st.integers())
def test_shape_keyed_work_agrees_on_repeated_shapes(text, split, seed):
    trees = parse_treebank(text, LOADER_GRAMMAR)
    training, test = trees[:split], trees[split:]
    assert_shape_keyed_work_agrees(
        LOADER_GRAMMAR, training, test, random.Random(seed), cut_sets=2
    )


def or_nodes_of_shape(training, aot, shape):
    """The or-nodes at which some training subtree of *shape*, a word-blind
    rendering, sits, and the root shapes above them."""
    at, roots = set(), set()
    for tree in training:
        stack = [(tree, aot.root)]
        while stack:
            node, or_node = stack.pop()
            if blind(node) == shape:
                at.add(or_node)
                roots.add(blind(tree))
            if isinstance(node, Internal):
                stack.extend(zip(node.children, or_node.arcs[node.rule].children))
    return at, roots


@settings(max_examples=40, deadline=None)
@given(corpus=shared_subtree_treebanks(), seed=st.integers())
def test_shape_keyed_work_agrees_when_a_subtree_recurs_across_one_class(corpus, seed):
    first, text = corpus
    training = parse_shapes(text, LOADER_GRAMMAR)
    aot = index_treebank(training, LOADER_GRAMMAR)
    (shape,) = {blind(n) for n in parse_treebank(sexpr_text(first), LOADER_GRAMMAR)}
    at, roots = or_nodes_of_shape(training, aot, shape)
    assert len(at) >= 2 and len(roots) >= 2
    # cutting every np joins those or-nodes into one class, whether the
    # subtree is a chunk root there or, wordless, stays inline
    nps = frozenset(n.node_id for n in aot.nodes() if n.category == "np")
    cutset = closure(nps, aot)
    assert len({id(cutset.node_to_class[n.node_id]) for n in at}) == 1
    assert_shape_keyed_work_agrees(
        LOADER_GRAMMAR, training, [], random.Random(seed), cut_sets=3, chosen=[nps]
    )


def test_subtrees_that_differ_only_below_a_cut_give_one_rule(inventory):
    # two np_np_pp subtrees whose pp objects differ: with those objects
    # cut, both give the same chunk, from different shapes, as a chunk
    # root (the object of vp_v_np, cut too) and inline (the subject)
    heads = [
        "(np_np_pp (np_pron (lex I)) (pp_prep_np (lex to) (np_num (lex ten))))",
        "(np_np_pp (np_pron (lex I)) (pp_prep_np (lex to)"
        " (np_det_n (lex a) (lex town))))",
    ]
    text = "".join(
        f"(s_np_vp {head} (vp_v (lex left)))\n"
        f"(s_np_vp (np_pron (lex we)) (vp_v_np (lex saw) {head}))\n"
        for head in heads
    )
    training = parse_treebank(text, inventory, require_top=True)
    aot = index_treebank(training, inventory)
    objects = [
        n.node_id for n in aot.nodes()
        if n.parent_slot in (Slot("pp_prep_np", 2), Slot("vp_v_np", 2))
    ]
    cutset = closure(objects, aot)
    memo = ChunkMemo(cutset)
    chunks = [cut_tree(tree, aot, cutset, memo) for tree in training]
    # the subject-np trees give one root chunk, the object-np trees give
    # one np chunk, each from two shapes
    assert blind(training[0]) != blind(training[2])
    assert chunks[0][0] is chunks[2][0]
    assert chunks[1][1] is chunks[3][1]
    assert render_tree(chunks[1][1]) == (
        "(np_np_pp (np_pron (lex pron)) (pp_prep_np (lex prep) np))"
    )
    rules = training_rules(training, aot, cutset)
    assert rule_records(rules) == rule_records(
        reference_extract_training(training, aot, cutset)
    )
    by_body = {render_tree(r.chunk): r.support for r in rules}
    assert by_body["(np_np_pp (np_pron (lex pron)) (pp_prep_np (lex prep) np))"] == 2
    assert len(by_body) == len(rules)


@settings(max_examples=60, deadline=None)
@given(text=repeated_shape_treebanks(), seed=st.integers())
def test_equal_shapes_are_equal_word_blind_renderings(text, seed):
    rng = random.Random(seed)
    # copies with other words, loaded in the same text as the trees
    copies = [copy_with_words(t, rng) for t in parse_treebank(text, LOADER_GRAMMAR)]
    text += "".join(render_tree(t) + "\n" for t in copies)
    trees = parse_shapes(text, LOADER_GRAMMAR)
    by_object, by_rendering = {}, {}
    for node in distinct_nodes(trees):
        by_object.setdefault(id(node), set()).add(blind(node))
        by_rendering.setdefault(blind(node), set()).add(id(node))
    assert all(len(r) == 1 for r in by_object.values())
    assert all(len(s) == 1 for s in by_rendering.values())
    assert len(by_rendering["(lex)"]) == 1
    assert_tiled_once_children_first(trees)


def assert_tiled_once_children_first(trees):
    """The verdict table lists each distinct internal node of *trees*
    once, after the lexicon's place, and each internal child before its
    parent."""
    nodes = VerdictTable(trees).nodes
    assert nodes[0] is None
    internal = [n for n in distinct_nodes(trees) if n.__class__ is Internal]
    assert sorted(map(id, nodes[1:])) == sorted(map(id, internal))
    place = {id(node): k for k, node in enumerate(nodes)}
    for node in nodes[1:]:
        for child in node.children:
            assert child.__class__ is LexLeaf or place[id(child)] < place[id(node)]


@pytest.mark.parametrize("grammar, text", FIXED_CORPORA)
def test_set_up_agrees_with_per_tree_references_on_corpora(grammar, text):
    inv = parse_rule_inventory(grammar, "s")
    assert_set_up_agrees(parse_shapes(text, inv), inv)


def test_set_up_agrees_with_per_tree_references_on_random_corpora():
    for seed, rng, inv, training in seeded_corpora(11000, 100, 1, 10):
        copies = [copy_with_words(rng.choice(training), rng) for _ in range(6)]
        if seed % 4 == 0:  # a bare lexical root has no slots
            copies.append(LexLeaf(rng.choice(WORDS)))
        for tree in copies:
            training.insert(rng.randint(0, len(training)), tree)
        # read back without words in one load, so that shapes are objects
        text = "".join(blind(t).replace("(lex)", "(lex _)") + "\n" for t in training)
        assert_set_up_agrees(parse_treebank(text, inv), inv)


@settings(max_examples=60, deadline=None)
@given(text=repeated_shape_treebanks())
def test_set_up_agrees_with_per_tree_references_on_repeated_shapes(text):
    assert_set_up_agrees(parse_shapes(text, LOADER_GRAMMAR), LOADER_GRAMMAR)
