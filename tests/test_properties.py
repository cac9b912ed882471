"""Randomized invariants over small generated corpora.

Most generation is seeded, so failures reproduce; shrinkage is manual
but the corpora are small enough to read.  The loader's inputs come
from Hypothesis strategies, which shrink a failure to a minimal text.
"""

import copy
import functools
import importlib.util
import math
import pathlib
import random
import re
import shutil
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from treecut import cli, pipeline
from treecut.andor import (
    AndNode,
    AndOrTree,
    OrNode,
    PathNotInIndexError,
    _assign_ids,
    dump,
    index_treebank,
)
from treecut.coverage import RuleIndex, Tiling, covers, evaluate_coverage
from treecut import node_entropy
from treecut.cutnodes import (
    CutnodeSet,
    EquivalenceClass,
    closure,
    select_by_threshold,
)
from treecut.entropy import (
    LHS_POSITION,
    Slot,
    build_phrase_table,
    entropy,
    render_entropy_table,
)
from treecut.extraction import (
    ANDOR_ENUM,
    DEFAULT_MAX_CHUNKS,
    TRAINING_CUT,
    Apply,
    ChunkExplosionError,
    ChunkMemo,
    Frontier,
    LexSlot,
    RuleFileError,
    RuleFileFormatError,
    RuleSet,
    SpecializedRule,
    cut_tree,
    extract_andor,
    extract_training,
    flat_rhs,
    parse_rule_file,
    render_chunk,
    rule_name,
    validate_rules,
)
from treecut.grammar import (
    LEX,
    ArityMismatchError,
    CategoryMismatchError,
    Internal,
    LexLeaf,
    Treebank,
    TreebankFormatError,
    UnknownRuleIdError,
    parse_rule_inventory,
    parse_shapes,
    parse_treebank,
    render_tree,
    shape_groups,
)
from treecut.node_entropy import (
    EntropyScheme,
    compute_node_entropies,
    node_entropy_mixed,
    unified_node_entropy,
)
from treecut.pipeline import PipelineConfig
from treecut.sexpr import SexprError, quote_if_needed, read_all
from treecut.threshold import (
    ThresholdProbe,
    bisect,
    search_unimodal,
)

from conftest import blind, chunk_keys

ROOT_DIR = pathlib.Path(__file__).resolve().parent.parent
TOY_DIR = ROOT_DIR / "corpora" / "toy"
TOY_INVENTORY = parse_rule_inventory((TOY_DIR / "grammar.txt").read_text(), "s")
BENCH_DIR = ROOT_DIR / "bench"

WORDS = ["po", "ki", "ra", "lu", "mek", "soto", "vi", "na"]


def gen_grammar(rng):
    cats = ["s", "a", "b"]
    lines = []
    n = 0
    for cat in cats:
        for _ in range(rng.randint(1, 3)):
            arity = rng.randint(0, 3) if cat != "s" else rng.randint(1, 3)
            rhs = [rng.choice(cats + ["w"]) for _ in range(arity)]
            lines.append(f"r{n} {cat} -> {' '.join(rhs)}".rstrip())
            n += 1
    return parse_rule_inventory("\n".join(lines) + "\n", "s")


def gen_tree(rng, inv, cat, depth):
    rules = [r for r in inv.in_order() if r.lhs == cat]
    if not rules or depth <= 0 or rng.random() < 0.25:
        return LexLeaf(rng.choice(WORDS))
    rule = rng.choice(rules)
    children = tuple(
        gen_tree(rng, inv, c, depth - rng.randint(1, 2)) for c in rule.rhs
    )
    return Internal(rule.rule_id, children)


def gen_root(rng, inv):
    # complete parses span at least one word, like the loader enforces
    while True:
        rules = [r for r in inv.in_order() if r.lhs == "s"]
        rule = rng.choice(rules)
        children = tuple(gen_tree(rng, inv, c, 3) for c in rule.rhs)
        tree = Internal(rule.rule_id, children)
        if tree.length > 0:
            return tree


def gen_corpus(rng, n_train):
    inv = gen_grammar(rng)
    training = [gen_root(rng, inv) for _ in range(n_train)]
    return inv, training


def test_closure_idempotent_and_monotone_on_random_corpora():
    for seed in range(200):
        rng = random.Random(seed)
        inv, training = gen_corpus(rng, rng.randint(1, 8))
        aot = index_treebank(training, inv)
        ids = [n.node_id for n in aot.nodes()]
        small = frozenset(i for i in ids if rng.random() < 0.2)
        extra = frozenset(i for i in ids if rng.random() < 0.2)
        large = small | extra

        once = closure(small, aot)
        again = closure(once.cut_node_ids(), aot)
        assert once.cut_node_ids() == again.cut_node_ids(), seed
        assert {
            frozenset(m.node_id for m in c.members) for c in once.cut_classes()
        } == {
            frozenset(m.node_id for m in c.members) for c in again.cut_classes()
        }, seed

        assert once.cut_node_ids() <= closure(large, aot).cut_node_ids(), seed


class ReferenceUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def reference_closure(cut_ids, aot):
    """Plain fixpoint closure: rebuild every group each round, no memo."""
    nodes = sorted(aot.nodes(), key=lambda n: n.seq)
    uf = ReferenceUnionFind(len(nodes))
    cut_seqs = {aot[node_id].seq for node_id in cut_ids}

    changed = True
    while changed:
        changed = False
        groups = {}
        for node in nodes:
            groups.setdefault(uf.find(node.seq), []).append(node)
        # same-category cutnodes are equated
        by_cat = {}
        for root, members in groups.items():
            if any(m.seq in cut_seqs for m in members):
                by_cat.setdefault(members[0].category, []).append(root)
        for roots in by_cat.values():
            for other in roots[1:]:
                changed |= uf.union(roots[0], other)
        # congruence: children of equated nodes along the same arc align
        for members in groups.values():
            if len(members) < 2:
                continue
            arcs = {}
            for m in members:
                for rule, and_node in m.arcs.items():
                    if rule == LEX:
                        continue
                    first = arcs.get(rule)
                    if first is None:
                        arcs[rule] = and_node.children
                    else:
                        for a, b in zip(first, and_node.children):
                            changed |= uf.union(a.seq, b.seq)
        # a class with one cutnode is cut as a whole
        for members in groups.values():
            seqs = {m.seq for m in members}
            if seqs & cut_seqs and not seqs <= cut_seqs:
                cut_seqs |= seqs
                changed = True

    groups = {}
    for node in nodes:
        groups.setdefault(uf.find(node.seq), []).append(node)
    classes = []
    for root in sorted(groups):
        members = tuple(sorted(groups[root], key=lambda n: n.seq))
        is_cut = any(m.seq in cut_seqs for m in members)
        if is_cut and not any(m.has_lexical_yield for m in members):
            is_cut = False
        classes.append(EquivalenceClass(members, is_cut))
    return CutnodeSet(tuple(classes))


def oracle_corpora(treebank, count=30):
    """The toy index, then *count* seeded generated ones of varied size."""
    yield "toy", index_treebank(treebank.training, treebank.inventory)
    for seed in range(count):
        rng = random.Random(8000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 30))
        yield seed, index_treebank(training, inv)


def random_cut_sets(rng, aot, count=12):
    """Empty, every node, the yieldless nodes, and random subsets."""
    ids = sorted(aot.node_index)
    yieldless = [i for i in ids if not aot[i].has_lexical_yield]
    yield frozenset()
    yield frozenset(ids)
    yield frozenset(yieldless)
    for _ in range(count):
        p = rng.choice([0.05, 0.2, 0.5, 0.9])
        picked = {i for i in ids if rng.random() < p}
        if yieldless and rng.random() < 0.5:
            picked.add(rng.choice(yieldless))
        yield frozenset(picked)


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


def per_node_arc_scores(aot, cutset):
    """Each node's arc counts pooled over its class, one node at a time."""
    scores = {}
    for node in aot.nodes():
        members = cutset.class_of(node.node_id).members if cutset else (node,)
        pooled = {}
        for member in members:
            for rule, count in member.arc_counts.items():
                pooled[rule] = pooled.get(rule, 0) + count
        scores[node.node_id] = entropy(pooled)
    return scores


def reference_grouping(cutset):
    """Node id to its class's members, one shared list per class: the
    map that arc-frequency scoring used to pool through."""
    grouping = {}
    for cls in cutset.classes:
        members = list(cls.members)
        for m in members:
            grouping[m.node_id] = members
    return grouping


def reference_grouped_arc_scores(aot, grouping):
    """Arc-frequency scores node by node, pooling each member list of
    *grouping* once through a memo keyed on the list's ``id``."""
    values, pooled = {}, {}
    for node in aot.nodes():
        members = grouping.get(node.node_id) if grouping else None
        if not members:
            values[node.node_id] = node_entropy.node_entropy_arc_frequency(node)
            continue
        score = pooled.get(id(members))
        if score is None:
            score = pooled[id(members)] = node_entropy.node_entropy_arc_frequency(
                node, members
            )
        values[node.node_id] = score
    return values


def test_arc_frequency_pools_once_per_class(treebank, monkeypatch):
    calls = []
    original = node_entropy.node_entropy_arc_frequency

    def counting(node, members=None):
        calls.append(node.node_id)
        return original(node, members)

    monkeypatch.setattr(node_entropy, "node_entropy_arc_frequency", counting)
    corpora = [*oracle_corpora(treebank, count=25), *bench_train_indices()]
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


def test_one_cut_class_per_category():
    for seed in range(60):
        rng = random.Random(1000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 6))
        aot = index_treebank(training, inv)
        ids = frozenset(
            n.node_id for n in aot.nodes() if rng.random() < 0.3
        )
        cats = [c.category for c in closure(ids, aot).cut_classes()]
        assert len(cats) == len(set(cats)), seed


def mixed_set_up(training, inv):
    """The index of *training*, its phrase table and its mixed node scores."""
    aot = index_treebank(training, inv)
    table = build_phrase_table(aot)
    return aot, table, compute_node_entropies(aot, table, EntropyScheme.MIXED)


def test_extracted_rules_never_have_empty_bodies():
    for seed in range(80):
        rng = random.Random(2000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 6))
        aot, table, scores = mixed_set_up(training, inv)
        threshold = rng.choice([0.0, 0.2, 0.5, 1.0])
        cutset = select_by_threshold(threshold, aot, table, scores)
        rules = extract_training(training, aot, cutset)
        assert all(r.reduction_length > 0 for r in rules), seed
        assert all(len(r.rhs) == r.reduction_length for r in rules), seed


def test_training_rules_cover_their_own_corpus():
    for seed in range(80):
        rng = random.Random(3000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 6))
        aot, table, scores = mixed_set_up(training, inv)
        threshold = rng.choice([0.0, 0.3, 0.8])
        cutset = select_by_threshold(threshold, aot, table, scores)
        rules = extract_training(training, aot, cutset)
        report = evaluate_coverage(rules, training)
        assert report.fraction == 1.0, seed


def test_coverage_antitone_in_threshold():
    for seed in range(60):
        rng = random.Random(4000 + seed)
        inv, training = gen_corpus(rng, rng.randint(2, 8))
        test = [gen_root(rng, inv) for _ in range(4)]
        aot, table, scores = mixed_set_up(training, inv)
        fractions = []
        previous_ids = None
        for threshold in (0.0, 0.3, 0.7, 1.2, 2.5):
            cutset = select_by_threshold(threshold, aot, table, scores)
            if previous_ids is not None:
                assert cutset.cut_node_ids() <= previous_ids, (seed, threshold)
            previous_ids = cutset.cut_node_ids()
            rules = extract_training(training, aot, cutset)
            fractions.append(evaluate_coverage(rules, test).fraction)
        assert fractions == sorted(fractions, reverse=True), (seed, fractions)


def test_training_chunks_subset_of_enumerated():
    skipped = 0
    for seed in range(80):
        rng = random.Random(5000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 6))
        aot, table, scores = mixed_set_up(training, inv)
        threshold = rng.choice([0.0, 0.4, 0.9])
        cutset = select_by_threshold(threshold, aot, table, scores)
        trained = extract_training(training, aot, cutset)
        try:
            enumerated = extract_andor(aot, cutset)
        except ChunkExplosionError:
            # class merging can fold an ancestor onto a descendant,
            # which the enumerator refuses
            skipped += 1
            continue
        assert chunk_keys(trained) <= chunk_keys(enumerated), seed
    assert skipped < 8


def brute_match(chunk, node, frontiers):
    if isinstance(chunk, LexSlot):
        return isinstance(node, LexLeaf)
    if isinstance(chunk, Frontier):
        frontiers.append((node, chunk.category))
        return True
    if not isinstance(node, Internal) or node.rule != chunk.rule:
        return False
    return all(
        brute_match(c, n, frontiers) for c, n in zip(chunk.children, node.children)
    )


def brute_covers(rules, tree, category=None):
    """Plain exhaustive tiler, no memo, no preference order."""
    if isinstance(tree, LexLeaf):
        return True
    for rule in rules:
        if rule.chunk.rule != tree.rule:
            continue
        if category is not None and rule.lhs != category:
            continue
        frontiers = []
        if brute_match(rule.chunk, tree, frontiers):
            if all(brute_covers(rules, sub, cat) for sub, cat in frontiers):
                return True
    return False


def by_root_rule(rules):
    """Rules by their chunk's root rule, in the tiler's preference order."""
    index = {}
    for rule in rules:
        index.setdefault(rule.chunk.rule, []).append(rule)
    for group in index.values():
        group.sort(key=lambda r: (-r.reduction_length, r.name))
    return index


@functools.cache
def random_rule_subsets():
    """Random rule subsets of random corpora, with trees to tile."""
    cases = []
    for seed in range(120):
        rng = random.Random(6000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 5))
        aot, table, scores = mixed_set_up(training, inv)
        threshold = rng.choice([0.0, 0.5])
        cutset = select_by_threshold(threshold, aot, table, scores)
        full = extract_training(training, aot, cutset)
        kept = [r for r in full if rng.random() > 0.4]
        trees = training + [gen_root(rng, inv) for _ in range(3)]
        cases.append((seed, kept, trees))
    return cases


def test_covers_agrees_with_exhaustive_tiler():
    cases = 0
    for seed, kept, trees in random_rule_subsets():
        subset = RuleSet(kept)
        for tree in trees:
            got = covers(subset, tree) is not None
            want = brute_covers(kept, tree)
            assert got == want, seed
            cases += 1
    assert cases >= 500


def lex_slot_faces_internal(chunk, node):
    """Whether the chunk puts a lexical slot where *node* has an application."""
    if isinstance(chunk, LexSlot):
        return isinstance(node, Internal)
    if isinstance(chunk, Frontier) or chunk.rule != getattr(node, "rule", None):
        return False
    return any(
        lex_slot_faces_internal(c, n) for c, n in zip(chunk.children, node.children)
    )


def has_wordless_piece(chunk):
    return isinstance(chunk, Apply) and (
        not chunk.children or any(has_wordless_piece(c) for c in chunk.children)
    )


def test_retrieval_agrees_with_the_linear_matcher():
    seen = {"lex frontier": 0, "lex slot on a phrase": 0, "wordless piece": 0}
    for seed, kept, trees in random_rule_subsets():
        index = RuleIndex(kept)
        by_root = by_root_rule(kept)
        stack = list(trees)
        while stack:
            node = stack.pop()
            if isinstance(node, LexLeaf):
                continue
            stack.extend(node.children)
            want = []
            for rule in by_root.get(node.rule, []):
                frontiers = []
                if brute_match(rule.chunk, node, frontiers):
                    subs = [sub for sub, _ in frontiers]
                    want.append((rule.name, [id(sub) for sub in subs]))
                    seen["lex frontier"] += any(isinstance(t, LexLeaf) for t in subs)
                    seen["wordless piece"] += has_wordless_piece(rule.chunk)
                else:
                    seen["lex slot on a phrase"] += lex_slot_faces_internal(
                        rule.chunk, node
                    )
            got = [
                (rule.name, [id(sub) for sub in frontiers])
                for rule, frontiers in index.retrieve(node)
            ]
            assert got == want, seed
    assert all(seen.values()), seen


def reference_probe(treebank, aot, table, cfg):
    """Plain evaluator: fresh scores, extraction and tiling on every call."""

    def probe(threshold):
        scores = compute_node_entropies(aot, table, cfg.scheme)
        cutnodes = select_by_threshold(
            threshold, aot, table, scores,
            restrictions=cfg.neighbor_restrictions,
            max_iterations=cfg.max_iterations,
        )
        if cfg.mode == ANDOR_ENUM:
            rules = extract_andor(aot, cutnodes, max_chunks=cfg.max_chunks)
        else:
            rules = extract_training(treebank.training, aot, cutnodes)
        report = evaluate_coverage(rules, treebank.test)
        return ThresholdProbe(cutnodes, report.fraction, rules, report)

    return probe


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
        [rule.name for rule in r.probe.rules], r.probe.report.verdicts,
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
    select, extract = pipeline.select_by_threshold, pipeline.extract_rules

    def counting_select(*args, **kwargs):
        cutnodes = select(*args, **kwargs)
        selected.append(pipeline.partition_key(cutnodes))
        return cutnodes

    def counting_extract(treebank, aot, cutnodes, cfg):
        extracted.append(pipeline.partition_key(cutnodes))
        return extract(treebank, aot, cutnodes, cfg)

    monkeypatch.setattr(pipeline, "select_by_threshold", counting_select)
    monkeypatch.setattr(pipeline, "extract_rules", counting_extract)

    corpora = [(treebank, 1.0)]
    for seed in range(25):
        rng = random.Random(7000 + seed)
        inv, training = gen_corpus(rng, rng.randint(2, 8))
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


# --- The one-pass loader against the two-pass one it replaced ----------


@dataclass(frozen=True)
class Symbol:
    """An atom of the reference reader plus the line it started on."""

    text: str
    line_no: int
    quoted: bool = False


class Expr(list):
    """A list of the reference reader plus the line of its '('."""

    def __init__(self, line_no):
        super().__init__()
        self.line_no = line_no


def reference_tokenize(text):
    """The character-loop tokenizer the regex one replaced.

    One change: a ``\\``-escaped newline inside a quoted symbol advances
    the line count, as the offset-based line numbers of the loader do.
    """
    i = 0
    line_no = 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line_no += 1
            i += 1
        elif ch.isspace():
            i += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield ch, line_no
            i += 1
        elif ch == '"':
            start = line_no
            i += 1
            out = []
            while True:
                if i >= n:
                    raise SexprError("unterminated quoted symbol", start)
                c = text[i]
                if c == "\\":
                    if i + 1 >= n:
                        raise SexprError("dangling escape", line_no)
                    if text[i + 1] == "\n":
                        line_no += 1
                    out.append(text[i + 1])
                    i += 2
                elif c == '"':
                    i += 1
                    break
                else:
                    if c == "\n":
                        line_no += 1
                    out.append(c)
                    i += 1
            yield Symbol("".join(out), start, quoted=True), start
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in '()"#':
                i += 1
            yield Symbol(text[start:i], line_no), line_no


def reference_read_all(text):
    stack = []
    top = []
    for token, line_no in reference_tokenize(text):
        if token == "(":
            stack.append(Expr(line_no))
        elif token == ")":
            if not stack:
                raise SexprError("unbalanced ')'", line_no)
            done = stack.pop()
            if stack:
                stack[-1].append(done)
            else:
                top.append(done)
        elif stack:
            stack[-1].append(token)
        else:
            top.append(token)
    if stack:
        raise SexprError("unclosed '('", stack[-1].line_no)
    return top


def reference_top_lines(text):
    """The line each top-level expression of *text* starts on."""
    lines = []
    depth = 0
    for token, line_no in reference_tokenize(text):
        if depth == 0 and token != ")":
            lines.append(line_no)
        if token == "(":
            depth += 1
        elif token == ")":
            depth -= 1
    return lines


def reference_tree_from_sexpr(expr, inv):
    if isinstance(expr, Symbol):
        raise TreebankFormatError(
            f"bare symbol '{expr.text}' outside a rule application", expr.line_no
        )
    if not expr:
        raise TreebankFormatError("empty '()' expression", expr.line_no)
    head = expr[0]
    if not isinstance(head, Symbol):
        raise TreebankFormatError("expression head must be a rule id", head.line_no)
    if head.text == LEX:
        if len(expr) != 2 or not isinstance(expr[1], Symbol):
            raise ArityMismatchError(f"'{LEX}' takes exactly one word", head.line_no)
        return LexLeaf(expr[1].text)
    if head.text not in inv:
        raise UnknownRuleIdError(f"unknown rule id '{head.text}'", head.line_no)
    rule = inv[head.text]
    args = expr[1:]
    if len(args) != rule.arity:
        raise ArityMismatchError(
            f"'{rule.rule_id}' expects {rule.arity} children, got {len(args)}",
            head.line_no,
        )
    children = []
    for k, sub in enumerate(args):
        child = reference_tree_from_sexpr(sub, inv)
        if isinstance(child, Internal):
            got = inv[child.rule].lhs
            want = rule.rhs[k]
            if got != want:
                raise CategoryMismatchError(
                    f"child {k + 1} of '{rule.rule_id}' has category "
                    f"'{got}', expected '{want}'",
                    head.line_no,
                )
        children.append(child)
    return Internal(rule.rule_id, tuple(children))


def reference_yield_length(tree):
    if isinstance(tree, LexLeaf):
        return 1
    return sum(reference_yield_length(c) for c in tree.children)


def reference_parse_treebank(text, inv, require_top=False):
    """Read every list first, then build and check each tree recursively."""
    try:
        exprs = reference_read_all(text)
    except SexprError as err:
        raise TreebankFormatError(str(err).split(": ", 1)[1], err.line_no) from err
    trees = []
    for expr, line_no in zip(exprs, reference_top_lines(text)):
        tree = reference_tree_from_sexpr(expr, inv)
        if require_top:
            if isinstance(tree, LexLeaf):
                raise TreebankFormatError(
                    "a complete parse cannot be a bare lexical lookup", line_no
                )
            root_lhs = inv[tree.rule].lhs
            if root_lhs != inv.top:
                raise CategoryMismatchError(
                    f"root category '{root_lhs}' is not '{inv.top}'", line_no
                )
            if reference_yield_length(tree) == 0:
                raise TreebankFormatError(
                    "a complete parse must span at least one word", line_no
                )
        trees.append(tree)
    return trees


def load_outcome(parse, text, inv, require_top):
    """The trees, or the class and message of the error, of one load."""
    try:
        return parse(text, inv, require_top=require_top)
    except Exception as err:  # compared by class and message
        return type(err), str(err)


def assert_lengths_are_yields(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        assert node.length == reference_yield_length(node)
        if isinstance(node, Internal):
            stack.extend(node.children)


def distinct_nodes(trees):
    """Every node object under *trees*, once each, in no fixed order."""
    nodes = {}
    stack = list(trees)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            if node.__class__ is Internal:
                stack.extend(node.children)
    return list(nodes.values())


def assert_equal_subtrees_are_one_object(trees):
    first = {}
    for node in distinct_nodes(trees):
        assert first.setdefault(render_tree(node), node) is node


def assert_equal_shapes_are_one_object(trees):
    """Every word is ``_``, and equal word-blind subtrees are one object."""
    first = {}
    for node in distinct_nodes(trees):
        assert node.__class__ is Internal or node.word == "_"
        assert first.setdefault(blind(node), node) is node


def assert_loaders_agree(text, inv, require_top):
    want = load_outcome(reference_parse_treebank, text, inv, require_top)
    got = load_outcome(parse_treebank, text, inv, require_top)
    assert got == want
    if isinstance(want, list):
        assert list(map(render_tree, got)) == list(map(render_tree, want))
        assert_equal_subtrees_are_one_object(got)
        for tree in got:
            assert_lengths_are_yields(tree)


# Grammar with wordless rules, so that a complete parse can span no words.
LOADER_GRAMMAR = parse_rule_inventory(
    (TOY_DIR / "grammar.txt").read_text()
    + "np_none np ->\nvp_none vp ->\nvp_v_np_np vp -> v np np\n",
    "s",
)
# whitespace str.isspace() accepts beyond ASCII, and plain characters
WORD_CHARS = "ab√ç" + '()"#\\' + " \n\t\r\x1c\x1f\x85\xa0　"
# separators: mostly one space; a comment may start mid-line
GAPS = [" "] * 6 + [
    " ", "", "\n", "\t\r\n", "\x1c", "\x85 ", "　", "\xa0", ' # c(")\\ \n'
]


@st.composite
def loader_exprs(draw, cat, depth, root=False, chars=WORD_CHARS):
    """One parse of *cat* as nested lists: rule id first, words as str.

    A root is always a rule application.  Words are drawn from *chars*.
    """
    rules = [r for r in LOADER_GRAMMAR.in_order() if r.lhs == cat]
    if not root and (not rules or depth == 0 or draw(st.integers(0, 2)) == 0):
        return [LEX, draw(st.text(chars, min_size=1, max_size=4))]
    rule = draw(st.sampled_from(rules))
    return [rule.rule_id] + [
        draw(loader_exprs(child, depth - 1, chars=chars)) for child in rule.rhs
    ]


def all_lists(expr):
    out = [expr]
    for item in expr[1:]:
        if isinstance(item, list):
            out.extend(all_lists(item))
    return out


def is_rule(expr):
    return expr[0] != LEX


def is_lex(expr):
    return expr[0] == LEX


def has_children(expr):
    return is_rule(expr) and len(expr) > 1


def has_word(expr):
    return is_lex(expr) and len(expr) > 1


# Faults inside one list: (which lists it applies to, the edit).
LIST_FAULTS = {
    "unknown rule": (is_rule, lambda e: e.__setitem__(0, "bogus")),
    "extra child": (lambda e: True, lambda e: e.append([LEX, "x"])),
    "missing child": (lambda e: len(e) > 1, lambda e: e.pop()),
    "bare word child": (has_children, lambda e: e.__setitem__(1, "w")),
    "empty list child": (has_children, lambda e: e.__setitem__(1, [])),
    "list head": (lambda e: True, lambda e: e.__setitem__(0, [LEX, "h"])),
    "empty list head": (lambda e: True, lambda e: e.__setitem__(0, [])),
    "faulty list head": (lambda e: True, lambda e: e.__setitem__(0, ["bogus"])),
    "lex with two words": (is_lex, lambda e: e.append("y")),
    "lex with a list": (has_word, lambda e: e.__setitem__(1, [])),
    "lex with a faulty list": (has_word, lambda e: e.__setitem__(1, ["bogus"])),
    # np <-> vp keeps the arity and breaks the parent's category
    "category swap": (
        lambda e: e[0] in SWAPS, lambda e: e.__setitem__(0, SWAPS[e[0]])
    ),
}
SWAPS = {"np_pron": "vp_v", "vp_v": "np_pron", "np_num": "vp_v"}
# one extra top-level expression that is not a complete parse
TOP_FAULTS = {
    "bare top": "loose",
    "lex top": [LEX, "w"],
    "np top": ["np_pron", [LEX, "w"]],
    "wordless top": ["s_np_vp", ["np_none"], ["vp_none"]],
}
TEXT_FAULTS = ["unbalanced", "unclosed", "unterminated", "dangling"]
ALL_FAULTS = [*LIST_FAULTS, *TOP_FAULTS, *TEXT_FAULTS]


@st.composite
def loader_texts(
    draw, faults, chars=WORD_CHARS, gaps=GAPS, breaks=("\n",),
    quote=st.booleans(), copies=0,
):
    """A treebank text with the given *faults*, and whether to require top.

    Words are drawn from *chars*; one that needs no quotes is quoted when
    *quote* draws true.  Items are parted by one of *gaps*, and root
    parses by one of *breaks* and a gap.  With *copies* above 0, the text
    holds up to that many picks of its parses, each with new words.
    """
    roots = loader_exprs("s", 4, root=True, chars=chars).filter(
        lambda e: any(map(is_lex, all_lists(e)))
    )
    trees = draw(st.lists(roots, min_size=1, max_size=3))
    if copies:
        picks = draw(st.lists(st.sampled_from(trees), min_size=1, max_size=copies))
        trees = [copy.deepcopy(e) for e in picks]
        for tree in trees:
            for e in filter(has_word, all_lists(tree)):
                e[1] = draw(st.text(chars, min_size=1, max_size=4))
    for fault in faults:
        if fault in LIST_FAULTS:
            applies, edit = LIST_FAULTS[fault]
            targets = [
                e for tree in trees if isinstance(tree, list)
                for e in all_lists(tree) if e and isinstance(e[0], str)
                and applies(e)
            ]
            if targets:
                edit(draw(st.sampled_from(targets)))
        elif fault in TOP_FAULTS:
            top = copy.deepcopy(TOP_FAULTS[fault])  # later faults may edit it
            trees.insert(draw(st.integers(0, len(trees))), top)

    def gap():
        return draw(st.sampled_from(gaps))

    def word(text):
        if not any(c.isspace() or c in '()"#\\' for c in text) and not draw(quote):
            return text
        # bit k of the mask escapes character k as well
        mask = draw(st.integers(0, 2 ** len(text) - 1))
        return '"' + "".join(
            "\\" + c if c in '"\\' or mask >> k & 1 else c
            for k, c in enumerate(text)
        ) + '"'

    def render(expr):
        if isinstance(expr, str):
            return word(expr)
        inner = [render(item) for item in expr]
        return "(" + gap() + (" " + gap()).join(inner) + gap() + ")"

    rendered = [render(t) for t in trees]
    if "unbalanced" in faults:
        k = draw(st.integers(0, len(rendered) - 1))
        rendered[k] += ")"
    if "unclosed" in faults:
        rendered[-1] = rendered[-1][:-1]
    text = gap()
    for k, tree in enumerate(rendered):
        if k:
            text += draw(st.sampled_from(breaks)) + gap()
        text += tree
    text += gap()
    if "unterminated" in faults:
        text += '\n"ab\nc'
    elif "dangling" in faults:
        text += '\n"ab\\\nc\\'
    return text, draw(st.booleans())


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


def blind_outcome(outcome):
    """Each tree's shape and length, or the class and message of the error."""
    if isinstance(outcome, list):
        return [(blind(tree), tree.length) for tree in outcome]
    return outcome


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
    got = load_outcome(
        lambda t, inv, require_top: parse_shapes(t, inv), text, LOADER_GRAMMAR, True
    )
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


def reference_chunk_from_sexpr(expr):
    """The recursive chunk builder that reading a rule file used before
    chunks were folded as their lists close; it checks each list before
    its items."""
    if isinstance(expr, str):
        return Frontier(expr)
    if not expr or not isinstance(expr[0], str):
        raise RuleFileError("malformed chunk expression")
    head = expr[0]
    if head == "lex":
        if len(expr) != 2 or not isinstance(expr[1], str):
            raise RuleFileError("lex slot takes exactly one category")
        return LexSlot(expr[1])
    return Apply(head, tuple(reference_chunk_from_sexpr(e) for e in expr[1:]))


def reference_rule_chunk(body):
    exprs = read_all(body)  # lists stay lists
    if len(exprs) != 1:
        raise RuleFileError("rule 'r' needs exactly one chunk")
    chunk = reference_chunk_from_sexpr(exprs[0])
    if not isinstance(chunk, Apply):
        raise RuleFileError("rule 'r' chunk must be an application")
    return chunk


def reference_check(chunk, expected_cat, inv):
    """The recursive chunk check of ``validate_rules`` before it walked
    with a stack."""
    if isinstance(chunk, (LexSlot, Frontier)):
        if expected_cat is not None and chunk.category != expected_cat:
            raise RuleFileError(
                f"leaf category '{chunk.category}', slot wants '{expected_cat}'"
            )
        return
    if chunk.rule not in inv:
        raise RuleFileError(f"unknown rule id '{chunk.rule}'")
    rule = inv[chunk.rule]
    if expected_cat is not None and rule.lhs != expected_cat:
        raise RuleFileError(
            f"'{chunk.rule}' has category '{rule.lhs}', slot wants '{expected_cat}'"
        )
    if len(chunk.children) != rule.arity:
        raise RuleFileError(f"'{chunk.rule}' arity {rule.arity} violated")
    for cat, child in zip(rule.rhs, chunk.children):
        reference_check(child, cat, inv)


def reference_validate(rules, inv):
    for rule in rules:
        if rule.reduction_length == 0:
            raise RuleFileError(f"rule '{rule.name}' has an empty body")
        if rule.chunk.rule not in inv:
            raise RuleFileError(f"unknown rule id '{rule.chunk.rule}'")
        if inv[rule.chunk.rule].lhs != rule.lhs:
            raise RuleFileError(f"rule '{rule.name}' lhs mismatch")
        reference_check(rule.chunk, None, inv)
    return rules


def chunk_outcome(read, body):
    try:
        return read(body)
    except RuleFileError as err:
        return type(err), str(err)


def render_items(expr):
    if isinstance(expr, str):
        return expr
    return "(" + " ".join(render_items(e) for e in expr) + ")"


@st.composite
def chunk_items(draw, depth=0):
    """A chunk as nested lists, with any number of faults: empty lists,
    lists as heads, and lex slots with no, two or a list for a category."""
    kinds = ["frontier", "lex", "empty", "list head", "lex arity", "lex list"]
    kind = draw(st.sampled_from(kinds + ["apply"] * (4 if depth < 3 else 0)))
    if kind == "frontier":
        return "det"
    if kind == "lex":
        return [LEX, "det"]
    if kind == "empty":
        return []
    if kind == "lex arity":
        return [LEX] + ["det"] * draw(st.sampled_from([0, 2]))
    children = draw(st.lists(chunk_items(depth + 1), max_size=3))
    if kind == "list head":
        return [children, "det"]
    if kind == "lex list":
        return [LEX, children]
    return ["np_det_n", *children]


@settings(max_examples=300, deadline=None)
@given(
    root=chunk_items(),
    extra=chunk_items(),
    # one text in eight holds a second expression, which is an error
    second=st.sampled_from([False] * 7 + [True]),
)
def test_rule_file_chunks_agree_with_the_recursive_builder(root, extra, second):
    body = " ".join(render_items(e) for e in ([root, extra] if second else [root]))
    want = chunk_outcome(reference_rule_chunk, body)
    flat = " ".join(flat_rhs(want)) if isinstance(want, Apply) else ""
    got = chunk_outcome(
        lambda b: parse_rule_file(f"r: x => {flat}\n  {b}\n").rules[0].chunk, body
    )
    if not isinstance(want, Apply):  # the file names the chunk's line, line 2
        want = RuleFileFormatError, f"line 2: {want[1]}"
    assert got == want


@st.composite
def toy_chunks(draw, depth=0):
    """A chunk over the toy grammar, with any number of faults: unknown
    rules, arities one off and leaves or rules of the wrong category."""
    if depth == 3 or (depth > 0 and draw(st.booleans())):
        kind = draw(st.sampled_from([LexSlot, Frontier]))
        return kind(draw(st.sampled_from(["det", "n", "np", "pp", "prep"])))
    rule = draw(st.sampled_from(["np_det_n", "np_np_pp", "pp_prep_np", "bogus"]))
    arity = TOY_INVENTORY[rule].arity if rule in TOY_INVENTORY else 2
    arity += draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    children = [draw(toy_chunks(depth + 1)) for _ in range(arity)]
    return Apply(rule, tuple(children))


@settings(max_examples=300, deadline=None)
@given(chunk=toy_chunks(), lhs=st.sampled_from(["np", "np", "np", "pp"]))
def test_validate_rules_agrees_with_the_recursive_check(chunk, lhs):
    rules = RuleSet([SpecializedRule("r", lhs, chunk, flat_rhs(chunk))])
    assert chunk_outcome(
        lambda r: validate_rules(r, TOY_INVENTORY), rules
    ) == chunk_outcome(lambda r: reference_validate(r, TOY_INVENTORY), rules)


def reference_render_tree(tree):
    """The recursive renderer the stack walk replaced."""
    if isinstance(tree, LexLeaf):
        return f"({LEX} {quote_if_needed(tree.word)})"
    inner = " ".join(reference_render_tree(c) for c in tree.children)
    return f"({tree.rule} {inner})" if inner else f"({tree.rule})"


def tree_of(expr):
    if is_lex(expr):
        return LexLeaf(expr[1])
    return Internal(expr[0], tuple(tree_of(item) for item in expr[1:]))


@settings(max_examples=200, deadline=None)
@given(expr=loader_exprs("s", 4, root=True))
def test_render_tree_agrees_with_the_recursive_renderer(expr):
    tree = tree_of(expr)
    text = render_tree(tree)
    assert text == reference_render_tree(tree)
    assert parse_treebank(text, LOADER_GRAMMAR) == [tree]


@dataclass(frozen=True)
class DataclassTree:
    """The dataclass ``==`` and ``hash`` that ``Internal`` had: its rule and
    its children, compared and hashed recursively."""

    rule: str
    children: tuple


def as_dataclass(tree):
    if isinstance(tree, LexLeaf):
        return tree
    return DataclassTree(tree.rule, tuple(as_dataclass(c) for c in tree.children))


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


def bench_gen():
    """The benchmark's corpus generator, ``bench/gen.py``."""
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH_DIR / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def bench_corpus_texts():
    """Small corpora of the benchmark's generator: (id, grammar, trees)."""
    gen = bench_gen()
    out = []
    for corpus in ("toy", "layered"):
        training, test = gen.generate(corpus, 150, 50, 4.0)
        for role, trees in (("train", training), ("test", test)):
            text = "".join(gen.render(t) + "\n" for t in trees)
            out.append((f"{corpus}-{role}", gen.grammar_text(corpus), text))
    return out


FIXED_CORPORA = [
    (f"toy-{role}", (TOY_DIR / "grammar.txt").read_text(),
     (TOY_DIR / f"{role}.txt").read_text())
    for role in ("train", "test")
] + bench_corpus_texts()


def bench_train_indices():
    """The indices of the benchmark generator's small training corpora."""
    for name, grammar, text in bench_corpus_texts():
        if name.endswith("-train"):
            inv = parse_rule_inventory(grammar, "s")
            yield f"bench-{name}", index_treebank(parse_treebank(text, inv), inv)


@pytest.mark.parametrize(
    "grammar, text", [c[1:] for c in FIXED_CORPORA], ids=[c[0] for c in FIXED_CORPORA]
)
def test_loader_agrees_with_reference_loader_on_corpora(grammar, text):
    inv = parse_rule_inventory(grammar, "s")
    assert_loaders_agree(text, inv, require_top=True)


@pytest.mark.parametrize(
    "grammar, text", [c[1:] for c in FIXED_CORPORA], ids=[c[0] for c in FIXED_CORPORA]
)
def test_word_blind_loader_folds_each_corpus_line_text_once(grammar, text, monkeypatch):
    inv = parse_rule_inventory(grammar, "s")
    want = parse_treebank(text, inv, require_top=True)
    folded = []

    def recording_parse_treebank(text, inv, require_top=False):
        folded.append(text)
        return parse_treebank(text, inv, require_top)

    monkeypatch.setattr("treecut.grammar.parse_treebank", recording_parse_treebank)
    got = parse_shapes(text, inv)
    assert blind_outcome(got) == blind_outcome(want)
    # the corpora write each word-blind shape as one line text, so the
    # fast path folds one line per distinct shape and shares its tree
    shapes = len({blind(tree) for tree in want})
    assert len(folded) == 1
    assert len(folded[0].split("\n")) == shapes
    assert len({id(tree) for tree in got}) == shapes


def unshared_fold(text):
    """The trees of a valid treebank *text* with a new node for every
    list, leaves too: the unshared reference for the sharing loader."""

    def close(items, at):
        if items[0] == LEX:
            return LexLeaf(items[1])
        return Internal(items[0], tuple(items[1:]))

    return read_all(text, close)


# a chain of equal pp subtrees, each under a distinct np_np_pp
CHAIN_DEPTH = 300
CHAIN = (
    "(s_np_vp " + "(np_np_pp " * CHAIN_DEPTH + "(np_pron (lex I))"
    + " (pp_prep_np (lex to) (np_num (lex ten))))" * CHAIN_DEPTH
    + " (vp_v (lex left)))\n"
)


@pytest.mark.parametrize(
    "grammar, text",
    [c[1:] for c in FIXED_CORPORA] + [((TOY_DIR / "grammar.txt").read_text(), CHAIN)],
    ids=[c[0] for c in FIXED_CORPORA] + ["chain"],
)
def test_loader_shares_every_equal_subtree(grammar, text):
    inv = parse_rule_inventory(grammar, "s")
    want = unshared_fold(text)
    got = parse_treebank(text, inv)
    assert got == want
    assert list(map(render_tree, got)) == list(map(render_tree, want))
    blind_trees = parse_shapes(text, inv)
    assert blind_outcome(blind_trees) == blind_outcome(want)
    for trees in (got, blind_trees):
        assert_equal_subtrees_are_one_object(trees)
        assert len(distinct_nodes(trees)) < len(distinct_nodes(want))
    # without its words, a subtree is its shape: one object per shape
    internal = [n for n in distinct_nodes(blind_trees) if n.__class__ is Internal]
    assert len(internal) == len({blind(n) for n in internal})


def token_fold():
    """Peeling off: the loader reads every list of a text token by token."""
    return mock.patch("treecut.grammar._peel", lambda text, close: None)


def node_counts(trees):
    """Distinct ``Internal`` objects and distinct ``LexLeaf`` objects."""
    nodes = distinct_nodes(trees)
    internal = sum(node.__class__ is Internal for node in nodes)
    return internal, len(nodes) - internal


COMPLETE_LOADERS = {
    "words": parse_treebank,
    "word-blind": lambda text, inv, require_top: parse_shapes(text, inv),
}


def assert_peeling_agrees(text, inv):
    """Both loaders give with peeling what they give token by token: the
    same trees, as many distinct nodes, or the same error and line."""
    for name, load in COMPLETE_LOADERS.items():
        with token_fold():
            want = load_outcome(load, text, inv, True)
        got = load_outcome(load, text, inv, True)
        assert got == want
        if name == "words":
            assert got == load_outcome(reference_parse_treebank, text, inv, True)
        if isinstance(want, list):
            assert node_counts(got) == node_counts(want)
            if name == "word-blind" and got:
                assert node_counts(got)[1] == 1


@pytest.mark.parametrize(
    "grammar, text", [c[1:] for c in FIXED_CORPORA], ids=[c[0] for c in FIXED_CORPORA]
)
def test_peeled_load_agrees_with_the_token_fold_on_corpora(grammar, text):
    assert_peeling_agrees(text, parse_rule_inventory(grammar, "s"))


def test_peeled_load_of_the_fixed_large_corpus_keeps_its_sharing():
    # corpus 0 of seed 1 of the benchmark's fixed-large workload
    gen = bench_gen()
    training, _ = gen.generate("toy", 20_000, 100, "1.0")
    inv = parse_rule_inventory(gen.grammar_text("toy"), "s")
    text = "".join(gen.render(tree) + "\n" for tree in training)
    with token_fold():
        want = parse_shapes(text, inv)
    got = parse_shapes(text, inv)
    assert node_counts(got) == node_counts(want) == (6_854, 1)
    assert got == want


# Texts that peel: no comment, no quote, and words that look like
# placeholder symbols without their opening character.
PEEL_GAPS = [" "] * 6 + ["", "  ", "\t", "\r\n", "\n", " \t\r\n  ", "\x0b", "\u3000"]
PEEL_BREAKS = ["\n"] * 3 + ["\r\n", "\n\n", "\t\n", " "]
PEEL_FAULTS = [None, *LIST_FAULTS, *TOP_FAULTS, "unbalanced", "unclosed"]


@pytest.mark.parametrize("fault", PEEL_FAULTS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_peeled_load_agrees_with_the_token_fold(fault, data):
    text, _ = data.draw(loader_texts(
        [fault], "a0_\x01", PEEL_GAPS, PEEL_BREAKS, quote=st.just(False), copies=6
    ))
    assert_peeling_agrees(text, LOADER_GRAMMAR)


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


def corpus_pair(corpus):
    """(grammar, training text, test text) of a fixed corpus, one tree a line."""
    if corpus == "toy":
        names = ("grammar", "train", "test")
        return tuple((TOY_DIR / f"{name}.txt").read_text() for name in names)
    gen = bench_gen()
    training, test = gen.generate(corpus, 150, 50, 4.0)
    return gen.grammar_text(corpus), *(
        "".join(gen.render(t) + "\n" for t in trees) for trees in (training, test)
    )


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


@pytest.mark.parametrize("corpus", ["toy", "layered"])
def test_pretty_printed_corpora_load_and_run_as_one_tree_a_line(
    corpus, tmp_path, capsys, monkeypatch
):
    grammar, train, test = corpus_pair(corpus)
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


def reference_walk(tree, parent_context, table):
    """A recursive slot count over the trees themselves, tree by tree."""

    def add(slot, outcome):
        counts = table.setdefault(slot, {})
        counts[outcome] = counts.get(outcome, 0) + 1

    rule = tree.rule
    add(Slot(rule, 0), parent_context)
    for k, child in enumerate(tree.children, start=1):
        if isinstance(child, LexLeaf):
            add(Slot(rule, k), LEX)
        else:
            add(Slot(rule, k), child.rule)
            reference_walk(child, f"{rule}/{k}", table)


def reference_phrase_table(training):
    dists = {}
    for tree in training:
        if isinstance(tree, Internal):
            reference_walk(tree, "ROOT", dists)
    return dists, {slot: entropy(d) for slot, d in dists.items()}


def assert_phrase_table_order(training, inv):
    """The table summed off the index is the tree walk's, in its order."""
    want_dists, want_entropies = reference_phrase_table(training)
    table = build_phrase_table(index_treebank(training, inv))
    assert list(table.distributions) == list(want_dists)
    for slot, dist in want_dists.items():
        assert list(table.distributions[slot].items()) == list(dist.items())
    # float sums follow the outcome order, so the values match exactly
    assert list(table.entropies.items()) == list(want_entropies.items())


@pytest.mark.parametrize(
    "grammar, text", [c[1:] for c in FIXED_CORPORA], ids=[c[0] for c in FIXED_CORPORA]
)
def test_phrase_table_keeps_first_seen_order_on_corpora(grammar, text):
    inv = parse_rule_inventory(grammar, "s")
    assert_phrase_table_order(parse_treebank(text, inv), inv)


def test_phrase_table_keeps_first_seen_order_on_random_corpora():
    for seed in range(100):
        rng = random.Random(9000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 10))
        assert_phrase_table_order(training, inv)


def reference_decimal(value, decimals):
    """*value* exactly, rounded half-to-even at *decimals* places."""
    return Decimal(value).quantize(Decimal(1).scaleb(-decimals), ROUND_HALF_EVEN)


def reference_quantize(value, decimals):
    """A float rounded half-to-even at *decimals* places; None is exact."""
    if decimals is None:
        return value
    return float(reference_decimal(value, decimals))


def reference_node_entropy_mixed(node, table):
    """The mixed score with its own exact and ``Decimal`` branches."""
    total = node.visit_count
    decimals = table.decimals
    if decimals is None:
        acc = table.value(node.parent_slot)
        for rule, count in node.arc_counts.items():
            if rule != LEX and total:
                acc += (count / total) * table.value(Slot(rule, LHS_POSITION))
        return acc
    acc = reference_decimal(table.value(node.parent_slot), decimals)
    for rule, count in node.arc_counts.items():
        if rule != LEX and total:
            weight = Decimal(count) / Decimal(total)
            lhs = table.value(Slot(rule, LHS_POSITION))
            acc += weight * reference_decimal(lhs, decimals)
    return float(reference_decimal(acc, decimals))


def reference_unified_node_entropy(parent_slot, child_rule, table):
    """The unified score with its own exact and ``Decimal`` branches."""
    lhs_slot = Slot(child_rule, LHS_POSITION)
    decimals = table.decimals
    if decimals is None:
        return table.value(parent_slot) + table.value(lhs_slot)
    acc = reference_decimal(table.value(parent_slot), decimals) + reference_decimal(
        table.value(lhs_slot), decimals
    )
    return float(reference_decimal(acc, decimals))


def reference_entropy_table_cells(table):
    """Every cell of the entropy table, rounded before it is formatted."""
    for rule in table.inventory.in_order():
        for pos in range(rule.arity + 1):
            value = reference_quantize(table.value(Slot(rule.rule_id, pos)), 2)
            yield f"{value:.2f}"


@pytest.mark.parametrize("decimals", [None, 0, 1, 2, 3])
@pytest.mark.parametrize(
    "grammar, text", [c[1:] for c in FIXED_CORPORA], ids=[c[0] for c in FIXED_CORPORA]
)
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


def reference_cut_tree(tree, aot, cutset):
    """The recursive cut_tree that the explicit-stack walk replaced."""
    pending = [(tree, aot.root)]
    chunks = []

    def build(node, or_node):
        and_node = or_node.arcs.get(node.rule)
        if and_node is None:
            raise PathNotInIndexError(
                f"rule '{node.rule}' unseen at {or_node.node_id}"
            )
        parts = []
        for child, child_or in zip(node.children, and_node.children):
            if isinstance(child, LexLeaf):
                if cutset.class_of(child_or.node_id).cut:
                    parts.append(Frontier(child_or.category))
                else:
                    parts.append(LexSlot(child_or.category))
            elif cutset.class_of(child_or.node_id).cut and child.length > 0:
                parts.append(Frontier(child_or.category))
                pending.append((child, child_or))
            else:
                parts.append(build(child, child_or))
        return Apply(node.rule, tuple(parts))

    while pending:
        chunks.append(build(*pending.pop(0)))
    return chunks


def reference_collect(inv, chunks):
    """The rule set of ``(chunk, occurrences)`` pairs, told apart by
    their rendered text, so the chunks need not be hash-consed: the
    first of equal texts is named and every pair adds to its support.
    """
    rules = {}
    for chunk, occurrences in chunks:
        key = render_chunk(chunk)
        rule = rules.get(key)
        if rule is None:
            rhs = flat_rhs(chunk)
            if not rhs:
                continue
            lhs = inv[chunk.rule].lhs
            rule = rules[key] = SpecializedRule(
                rule_name(lhs, chunk), lhs, chunk, rhs
            )
        rule.support += occurrences
    return RuleSet(sorted(rules.values(), key=lambda r: (r.lhs, r.name)))


def reference_extract_training(training, aot, cutset):
    """The per-tree loop extract_training replaced: every tree is cut."""
    return reference_collect(aot.inventory, (
        (chunk, 1)
        for tree in training
        for chunk in reference_cut_tree(tree, aot, cutset)
    ))


def validate_tiling(tiling, tree):
    """Re-walk a tiling to confirm it really derives *tree*.

    Unlike the tiler, this checks each frontier's category against the
    rule that fills it.
    """
    index = RuleIndex({id(r): r for r in tiling.applications()}.values())
    stack = [(tiling, tree, None)]
    while stack:
        tiling, tree, category = stack.pop()
        if tiling.rule is None:
            if tree.__class__ is not LexLeaf:
                return False
            continue
        if category is not None and tiling.rule.lhs != category:
            return False
        matches = [f for r, f in index.retrieve(tree) if r is tiling.rule]
        if not matches or len(matches[0]) != len(tiling.children):
            return False
        stack.extend(
            zip(tiling.children, matches[0], frontier_categories(tiling.rule.chunk))
        )
    return True


def frontier_categories(chunk):
    """The categories of a chunk's frontiers, left to right."""
    out, stack = [], [chunk]
    while stack:
        piece = stack.pop()
        if piece.__class__ is Frontier:
            out.append(piece.category)
        elif piece.__class__ is not LexSlot:
            stack += piece.children[::-1]
    return out


def reference_covers(rules, tree):
    """The tiler keyed on node identity, with a memo for one tree only."""
    by_root = by_root_rule(rules)
    memo = {}

    def tile(node, category):
        if isinstance(node, LexLeaf):
            return Tiling(None)
        key = (id(node), category)
        if key in memo:
            return memo[key]
        result = None
        for rule in by_root.get(node.rule, []):
            if category is not None and rule.lhs != category:
                continue
            frontiers = []
            if brute_match(rule.chunk, node, frontiers):
                children = []
                for sub, cat in frontiers:
                    sub_tiling = tile(sub, cat)
                    if sub_tiling is None:
                        break
                    children.append(sub_tiling)
                else:
                    result = Tiling(rule, tuple(children))
                    break
        memo[key] = result
        return result

    return tile(tree, None)


def reference_render_chunk(chunk):
    """The recursive render_chunk that the explicit-stack walk replaced."""
    if isinstance(chunk, LexSlot):
        return f"(lex {chunk.category})"
    if isinstance(chunk, Frontier):
        return chunk.category
    inner = " ".join(reference_render_chunk(c) for c in chunk.children)
    return f"({chunk.rule} {inner})" if inner else f"({chunk.rule})"


def reference_flat_rhs(chunk):
    """The recursive flat_rhs that the explicit-stack walk replaced."""
    if isinstance(chunk, (LexSlot, Frontier)):
        return (chunk.category,)
    return tuple(cat for c in chunk.children for cat in reference_flat_rhs(c))


def rule_records(rules):
    for rule in rules:
        assert render_chunk(rule.chunk) == reference_render_chunk(rule.chunk)
        assert rule.rhs == flat_rhs(rule.chunk) == reference_flat_rhs(rule.chunk)
    return [(r.name, render_chunk(r.chunk), r.support) for r in rules]


def assert_shape_keyed_work_agrees(inv, training, test, rng, cut_sets=4):
    """Per-shape extraction and tiling give the per-tree results."""
    aot = index_treebank(training, inv)
    for cut_ids in random_cut_sets(rng, aot, count=cut_sets):
        cutset = closure(cut_ids, aot)
        memo = ChunkMemo(cutset)
        for tree in training:
            want = reference_cut_tree(tree, aot, cutset)
            assert cut_tree(tree, aot, cutset) == want
            # one memo across the trees serves what a fresh cut builds
            assert cut_tree(tree, aot, cutset, memo) == want
        rules = extract_training(training, aot, cutset)
        assert rule_records(rules) == rule_records(
            reference_extract_training(training, aot, cutset)
        )
        trees = test + training
        report = evaluate_coverage(rules, trees)
        for tree, verdict, tiling in zip(trees, report.verdicts, report.tilings):
            want = reference_covers(rules, tree)
            assert verdict == (want is not None)
            assert covers(rules, tree) == tiling == want
            if want is not None:
                names = [r.name for r in tiling.applications()]
                assert names == [r.name for r in want.applications()]


def test_shape_keyed_work_agrees_on_the_toy_corpus(treebank):
    assert_shape_keyed_work_agrees(
        treebank.inventory, treebank.training, treebank.test, random.Random(1)
    )


@pytest.mark.parametrize("corpus", ["toy", "layered"])
def test_shape_keyed_work_agrees_on_bench_corpora(corpus):
    gen = bench_gen()
    training, test = gen.generate(corpus, 300, 60, 4.0)
    inv = parse_rule_inventory(gen.grammar_text(corpus), "s")

    def load(trees):
        return parse_shapes("".join(gen.render(t) + "\n" for t in trees), inv)

    training, test = load(training), load(test)
    # the generator repeats shapes, which is what per-shape work saves:
    # the loader makes each one object
    assert len({blind(t) for t in training}) < len(training)
    assert len({id(t) for t in training}) == len({blind(t) for t in training})
    assert_shape_keyed_work_agrees(inv, training, test, random.Random(2))


def test_shape_keyed_work_agrees_on_random_corpora():
    for seed in range(40):
        rng = random.Random(10000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 12))
        training += [copy_with_words(rng.choice(training), rng) for _ in range(4)]
        test = [gen_root(rng, inv) for _ in range(4)] + [
            copy_with_words(rng.choice(training), rng) for _ in range(4)
        ]
        assert_shape_keyed_work_agrees(inv, training, test, rng, cut_sets=2)


def reference_extract_andor(aot, cutset, max_chunks=DEFAULT_MAX_CHUNKS):
    """The recursive enumerator that the explicit-stack walk replaced."""
    budget = {"left": max_chunks}
    memo = {}

    def class_of(node):
        return cutset.class_of(node.node_id)

    def spend(n=1):
        budget["left"] -= n
        if budget["left"] < 0:
            raise ChunkExplosionError(f"more than {max_chunks} chunks")

    wordless_memo = {}

    def wordless_pieces(node):
        if node.seq in wordless_memo:
            return wordless_memo[node.seq]
        out = []
        for rule, and_node in node.sorted_arcs():
            if rule == LEX:
                continue
            combos = [()]
            for child in and_node.children:
                alternatives = wordless_pieces(child)
                combos = [
                    prefix + (alt,) for prefix in combos for alt in alternatives
                ]
                if combos:
                    spend(len(combos))
            out.extend(Apply(rule, combo) for combo in combos)
        wordless_memo[node.seq] = out
        return out

    def position_alternatives(node, stack):
        cls = class_of(node)
        if cls.cut:
            alts = [Frontier(node.category)]
            seen = set()
            for member in cls.members:
                for piece in wordless_pieces(member):
                    if piece not in seen:
                        seen.add(piece)
                        alts.append(piece)
            return alts
        alts = []
        if any(LEX == rule for m in cls.members for rule in m.arcs):
            alts.append(LexSlot(node.category))
        alts.extend(expansions(cls, stack))
        return alts

    def expansions(cls, stack):
        key = cls.representative.seq
        if key in memo:
            return memo[key]
        if key in stack:
            raise ChunkExplosionError(
                f"recursive class structure at {cls.representative.node_id}"
            )
        stack = stack | {key}
        out = []
        seen_shapes = set()
        for member in cls.members:
            for rule, and_node in member.sorted_arcs():
                if rule == LEX:
                    continue
                shape = (rule,) + tuple(
                    class_of(c).representative.seq for c in and_node.children
                )
                if shape in seen_shapes:
                    continue
                seen_shapes.add(shape)
                slots = [
                    position_alternatives(c, stack) for c in and_node.children
                ]
                combos = [()]
                for alternatives in slots:
                    combos = [
                        prefix + (alt,) for prefix in combos for alt in alternatives
                    ]
                    spend(len(combos))
                for combo in combos:
                    out.append(Apply(rule, combo))
        memo[key] = out
        return out

    roots = [class_of(aot.root)]
    for cls in sorted(cutset.cut_classes(), key=lambda c: c.representative.seq):
        if cls is not roots[0]:
            roots.append(cls)
    return reference_collect(aot.inventory, (
        (chunk, 0) for cls in roots for chunk in expansions(cls, frozenset())
    ))


def andor_outcome(extract, aot, cutset, max_chunks):
    """The enumerated rules, or the class and message of the error."""
    try:
        rules = extract(aot, cutset, max_chunks=max_chunks)
    except ChunkExplosionError as exc:
        return type(exc), str(exc)
    return [(r.name, r.lhs, render_chunk(r.chunk), r.rhs, r.support) for r in rules]


# Cutting the wordless nodes of nested a-chains, and closing, demotes
# an a-class that holds a node and its own descendant: a class structure
# extract_andor reports as recursive.
CYCLIC_GRAMMAR = parse_rule_inventory(
    "s_a s -> a\na_a a -> a\na_aa a -> a a\na_w a -> w\na_none a ->\n", "s"
)


def gen_cyclic_root(rng):
    """An s over a-chains with words, some of them over wordless a-chains."""

    def chain(depth, words):
        if depth == 0 or rng.random() < 0.3:
            if words:
                return Internal("a_w", (LexLeaf(rng.choice(WORDS)),))
            return Internal("a_none", ())
        if rng.random() < 0.4:
            return Internal("a_a", (chain(depth - 1, words),))
        children = [chain(depth - 1, words), chain(depth - 1, False)]
        rng.shuffle(children)
        return Internal("a_aa", tuple(children))

    return Internal("s_a", (chain(4, True),))


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
            got = andor_outcome(extract_andor, aot, cutset, max_chunks)
            assert got == want, (seed, sorted(cut_ids), max_chunks)
            if isinstance(want, list):
                seen["rules"] += 1
                seen["wordless piece"] += any(
                    has_wordless_piece(rule.chunk)
                    for rule in extract_andor(aot, cutset, max_chunks)
                )
            elif want[1].startswith("more than"):
                seen["chunk cap"] += 1
            else:
                seen["recursive classes"] += 1
    # every outcome, including both errors, is reached many times over
    assert min(seen.values()) >= 10, seen


def copy_with_words(tree, rng):
    """A hand-built copy of *tree* with fresh words."""
    if isinstance(tree, LexLeaf):
        return LexLeaf(rng.choice(WORDS))
    return Internal(tree.rule, tuple(copy_with_words(c, rng) for c in tree.children))


def all_nodes(tree):
    out = [tree]
    for child in getattr(tree, "children", ()):
        out.extend(all_nodes(child))
    return out


@st.composite
def repeated_shape_treebanks(draw):
    """Treebank text whose trees repeat a few shapes with different words."""
    roots = loader_exprs("s", 4, root=True).filter(
        lambda e: any(map(is_lex, all_lists(e)))
    )
    shapes = draw(st.lists(roots, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(shapes), min_size=2, max_size=12))

    def render(expr):
        if is_lex(expr):
            return f"({LEX} {draw(st.sampled_from(WORDS))})"
        return "(" + " ".join([expr[0], *map(render, expr[1:])]) + ")"

    return "\n".join(render(e) for e in picks) + "\n"


@settings(max_examples=60, deadline=None)
@given(text=repeated_shape_treebanks(), split=st.integers(1, 12), seed=st.integers())
def test_shape_keyed_work_agrees_on_repeated_shapes(text, split, seed):
    trees = parse_treebank(text, LOADER_GRAMMAR)
    training, test = trees[:split], trees[split:]
    assert_shape_keyed_work_agrees(
        LOADER_GRAMMAR, training, test, random.Random(seed), cut_sets=2
    )


# Places for one np subtree inside a complete parse: as the subject, as a
# verb's object, under a verb phrase's pp and as the head of a np_np_pp.
NP_FRAMES = [
    lambda np, vp: ["s_np_vp", np, vp],
    lambda np, vp: ["s_np_vp", ["np_pron", [LEX, "we"]], ["vp_v_np", [LEX, "saw"], np]],
    lambda np, vp: ["s_np_vp", ["np_num", [LEX, "9"]],
                    ["vp_vp_pp", vp, ["pp_prep_np", [LEX, "to"], np]]],
    lambda np, vp: ["s_np_vp", ["np_np_pp", np, ["pp_prep_np", [LEX, "on"], np]], vp],
]


def sexpr_text(expr):
    if isinstance(expr, str):
        return expr
    return "(" + " ".join(map(sexpr_text, expr)) + ")"


@st.composite
def shared_subtree_treebanks(draw):
    """Trees that put a few np subtrees in several places.

    The first subtree goes into at least two frames, so its shape sits
    under several root shapes and at several or-nodes of the np
    category.
    """
    nps = draw(st.lists(
        loader_exprs("np", 3, root=True, chars="ab"), min_size=1, max_size=3
    ))
    # every vp spans a word, so that every parse does
    vps = draw(st.lists(
        loader_exprs("vp", 2, root=True, chars="ab").filter(
            lambda e: any(map(is_lex, all_lists(e)))
        ),
        min_size=1, max_size=2,
    ))
    frames = draw(st.permutations(range(len(NP_FRAMES))))
    picks = [(frames[0], 0), (frames[1], 0)] + draw(st.lists(
        st.tuples(st.integers(0, len(NP_FRAMES) - 1), st.integers(0, len(nps) - 1)),
        max_size=6,
    ))
    trees = [
        NP_FRAMES[f](nps[k], draw(st.sampled_from(vps))) for f, k in picks
    ]
    # two frames can still give one root shape: the first frame with an
    # np_pron subtree and a vp_v_np over an np_pron is the second frame
    first, second = parse_treebank(
        sexpr_text(trees[0]) + sexpr_text(trees[1]), LOADER_GRAMMAR
    )
    assume(blind(first) != blind(second))
    return nps[0], "".join(sexpr_text(t) + "\n" for t in trees)


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
    assert len({id(cutset.class_of(n.node_id)) for n in at}) == 1
    memo = ChunkMemo(cutset)
    for tree in training:
        want = reference_cut_tree(tree, aot, cutset)
        assert cut_tree(tree, aot, cutset, memo) == want
    assert rule_records(extract_training(training, aot, cutset)) == rule_records(
        reference_extract_training(training, aot, cutset)
    )
    assert_shape_keyed_work_agrees(
        LOADER_GRAMMAR, training, [], random.Random(seed), cut_sets=3
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
    assert render_chunk(chunks[1][1]) == (
        "(np_np_pp (np_pron (lex pron)) (pp_prep_np (lex prep) np))"
    )
    rules = extract_training(training, aot, cutset)
    assert rule_records(rules) == rule_records(
        reference_extract_training(training, aot, cutset)
    )
    by_body = {render_chunk(r.chunk): r.support for r in rules}
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
    nodes = [n for t in trees for n in all_nodes(t)]
    by_object, by_rendering = {}, {}
    for node in nodes:
        by_object.setdefault(id(node), set()).add(blind(node))
        by_rendering.setdefault(blind(node), set()).add(id(node))
    assert all(len(r) == 1 for r in by_object.values())
    assert all(len(s) == 1 for s in by_rendering.values())
    assert len(by_rendering["(lex)"]) == 1
    assert_tiled_once_children_first(trees)


def assert_tiled_once_children_first(trees):
    """The tiler retrieves rules at each distinct internal node of *trees*
    once, and at each internal child before its parent."""
    order = []
    retrieve = RuleIndex.retrieve

    def recording(index, node):
        order.append(node)
        return retrieve(index, node)

    with mock.patch.object(RuleIndex, "retrieve", recording):
        evaluate_coverage(RuleSet([]), trees)
    internal = [n for n in distinct_nodes(trees) if n.__class__ is Internal]
    assert sorted(map(id, order)) == sorted(map(id, internal))
    place = {id(node): k for k, node in enumerate(order)}
    for node in order:
        for child in node.children:
            assert child.__class__ is LexLeaf or place[id(child)] < place[id(node)]


def reference_insert(root, tree, inv):
    """The per-tree merge that index_treebank replaced: one tree, weight 1."""
    stack = [(root, tree)]
    while stack:
        node, tree = stack.pop()
        if tree.length > 0:
            node.has_lexical_yield = True
        rule = tree.rule if isinstance(tree, Internal) else LEX
        and_node = node.arcs.get(rule)
        if and_node is None:
            children = [] if rule == LEX else [
                OrNode(category=cat, parent_slot=Slot(rule, k))
                for k, cat in enumerate(inv[rule].rhs, start=1)
            ]
            and_node = node.arcs[rule] = AndNode(rule, children)
        node.arc_counts[rule] = node.arc_counts.get(rule, 0) + 1
        if rule != LEX:
            stack.extend(reversed(list(zip(and_node.children, tree.children))))


def reference_index_treebank(training, inv):
    root = OrNode(category=inv.top, parent_slot=None)
    for tree in training:
        reference_insert(root, tree, inv)
    return AndOrTree(root=root, node_index=_assign_ids(root), inventory=inv)


def reference_dump(aot):
    """The recursive dump that the explicit-stack walk replaced."""
    lines = []

    def visit(node, depth):
        pad = "  " * depth
        flag = "" if node.has_lexical_yield else "  [no lexical yield]"
        lines.append(
            f"{pad}{node.node_id} ({node.category}) visits={node.visit_count}{flag}"
        )
        for rule, and_node in node.sorted_arcs():
            lines.append(f"{pad}  -{rule} x{node.arc_counts[rule]}")
            for child in and_node.children:
                visit(child, depth + 2)

    visit(aot.root, 0)
    return "\n".join(lines) + "\n"


def or_node_record(node):
    """Everything an or-node holds, arcs and their counts in their order."""
    return (
        node.node_id,
        node.seq,
        node.category,
        node.parent_slot,
        node.has_lexical_yield,
        list(node.arc_counts.items()),
        [(rule, [c.node_id for c in a.children]) for rule, a in node.arcs.items()],
    )


def assert_set_up_agrees(training, inv):
    """Per-shape phrase table and index give the per-tree ones, on
    word-blind *training* trees from one load."""
    groups = shape_groups(training)
    assert sum(n for _, n in groups) == len(training)
    first = {}
    for tree in training:
        first.setdefault(blind(tree), tree)
    # each group is the first tree of its shape, in first-seen order
    assert [(id(tree), n) for tree, n in groups] == [
        (id(tree), sum(blind(t) == shape for t in training))
        for shape, tree in first.items()
    ]

    assert_phrase_table_order(training, inv)
    aot = index_treebank(training, inv)
    want = reference_index_treebank(training, inv)
    assert [or_node_record(n) for n in aot.nodes()] == [
        or_node_record(n) for n in want.nodes()
    ]
    assert "".join(dump(aot)) == reference_dump(want)


@pytest.mark.parametrize(
    "grammar, text", [c[1:] for c in FIXED_CORPORA], ids=[c[0] for c in FIXED_CORPORA]
)
def test_set_up_agrees_with_per_tree_references_on_corpora(grammar, text):
    inv = parse_rule_inventory(grammar, "s")
    assert_set_up_agrees(parse_shapes(text, inv), inv)


def test_set_up_agrees_with_per_tree_references_on_random_corpora():
    for seed in range(100):
        rng = random.Random(11000 + seed)
        inv, training = gen_corpus(rng, rng.randint(1, 10))
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
