"""End-to-end checks of the published behavior on the bundled toy corpus.

Each test prints one verdict line, so a plain ``pytest -s
tests/test_acceptance.py`` reads as a checklist.  Numeric expectations
are the values the toy corpus is documented to produce, at reporting
precision (two decimals), compared within 0.005.
"""

import filecmp
import time
from pathlib import Path

from treecut.andor import index_treebank
from treecut.coverage import evaluate_coverage
from treecut.cutnodes import closure, select_by_threshold
from treecut.entropy import Slot, build_phrase_table
from treecut.extraction import (
    ChunkExplosionError,
)
from treecut.grammar import parse_rule_inventory, parse_treebank
from treecut.node_entropy import unified_node_entropy
from treecut.pipeline import SearchContext, load_treebank, run_pipeline
from treecut.threshold import bisect

from oracles import (
    andor_rules,
    brute_covers,
    chunk_keys,
    corpus_texts,
    covers,
    gen_root,
    mixed_set_up,
    partition_key,
    random_rule_subsets,
    reference_closure,
    seeded_corpora,
    toy_config,
    training_rules,
)

TOLERANCE = 0.005

# rule -> (LHS, RHS1, RHS2); None marks slots the rule does not have
TABLE_EXPECTED = {
    "s_np_vp": (0.00, 0.56, 0.56),
    "np_np_pp": (0.00, 0.00, 0.00),
    "np_det_n": (1.33, 0.00, 0.00),
    "np_pron": (0.00, 0.00, None),
    "np_num": (0.00, 0.00, None),
    "vp_vp_pp": (0.00, 0.00, 0.00),
    "vp_v_np": (0.00, 0.00, 0.64),
    "vp_v": (0.00, 0.00, None),
    "pp_prep_np": (0.64, 0.00, 1.10),
}

NODE_EXPECTED = {
    "n1": 0.89,
    "n2": 0.56,
    "n3": 1.08,
    "n4": 1.33,
    "n5": 0.64,
    "n6": 1.76,
    "n7": 0.00,
    "n8": 0.64,
    "n9": 1.10,
}

CUT_AT_ONE = {"n3", "n4", "n6", "n9"}

TRAINING_FORMS = {
    "s => det n v prep np",
    "s => pron v np",
    "np => det n",
    "np => np prep np",
    "np => num",
}

EXTRA_ANDOR_FORMS = {
    "s => det n v np",
    "s => pron v prep np",
}


def _verdict(label: str):
    """Print one pass/fail line for the wrapped check, then re-raise."""

    def decorate(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label}")

        run.__name__ = fn.__name__
        return run

    return decorate


def _toy():
    grammar, *texts = corpus_texts("toy")
    inv = parse_rule_inventory(grammar, top="s")
    return inv, *(parse_treebank(text, inv, require_top=True) for text in texts)


@_verdict("1. phrase entropy table matches all published cells within 0.005")
def test_entropy_table_published_values():
    started = time.perf_counter()
    inv, training, _ = _toy()
    table = build_phrase_table(index_treebank(training, inv))
    checked = 0
    for rule, row in TABLE_EXPECTED.items():
        for position, expected in enumerate(row):
            if expected is None:
                assert Slot(rule, position) not in table.entropies, (
                    rule,
                    position,
                )
                continue
            got = table.published_value(Slot(rule, position))
            assert abs(got - expected) <= TOLERANCE, (rule, position, got)
            checked += 1
    assert checked == 24
    # the two cells most sensitive to the attachment bookkeeping
    assert abs(table.published_value(Slot("pp_prep_np", 2)) - 1.10) <= TOLERANCE
    assert abs(table.published_value(Slot("np_det_n", 0)) - 1.33) <= TOLERANCE
    assert time.perf_counter() - started < 1.0


@_verdict("2. mixed node scores match all nine published annotations")
def test_node_scores_published_values():
    inv, training, _ = _toy()
    aot, table, scores = mixed_set_up(training, inv)
    for node_id, expected in NODE_EXPECTED.items():
        got = scores.values[node_id]
        assert abs(got - expected) <= TOLERANCE, (node_id, got)
    # n3 term by term: slot entropy plus the arc-weighted lhs entropies
    slot_term = table.published_value(Slot("vp_v_np", 2))
    det_n_term = table.published_value(Slot("np_det_n", 0))
    np_pp_term = table.published_value(Slot("np_np_pp", 0))
    node = aot["n3"]
    assert abs(slot_term - 0.64) <= TOLERANCE
    assert abs(det_n_term - 1.33) <= TOLERANCE
    assert abs(np_pp_term - 0.00) <= TOLERANCE
    assert node.arc_counts == {"np_det_n": 1, "np_np_pp": 2}
    recombined = slot_term + (1 * det_n_term + 2 * np_pp_term) / 3
    assert abs(recombined - scores.values["n3"]) <= TOLERANCE


@_verdict("3. threshold 1.00 cuts exactly {n3, n4, n6, n9}")
def test_threshold_one_selection():
    inv, training, _ = _toy()
    aot, table, scores = mixed_set_up(training, inv)
    cutset = select_by_threshold(1.00, aot, table, scores)
    assert set(cutset.cut_node_ids()) == CUT_AT_ONE


@_verdict("4. extraction yields the 5 training forms, plus 2 more enumerated")
def test_extraction_rule_sets():
    inv, training, _ = _toy()
    aot, table, scores = mixed_set_up(training, inv)
    cutset = select_by_threshold(1.00, aot, table, scores)
    trained = training_rules(training, aot, cutset)
    assert {r.flat_form() for r in trained} == TRAINING_FORMS
    assert len(trained) == 5
    enumerated = andor_rules(aot, cutset)
    assert {r.flat_form() for r in enumerated} == TRAINING_FORMS | EXTRA_ANDOR_FORMS
    assert len(enumerated) == 7


@_verdict("5. training rules cover the test tree; bisection stays below 1.08")
def test_coverage_and_bisection():
    inv, training, test = _toy()
    aot, table, scores = mixed_set_up(training, inv)
    cutset = select_by_threshold(1.00, aot, table, scores)
    rules = training_rules(training, aot, cutset)
    assert evaluate_coverage(rules, test).fraction == 1.0

    cfg = toy_config(coverage_target=1.0)
    treebank = load_treebank(cfg)
    context = SearchContext(treebank, aot, table, cfg, scores)
    result = bisect(1.0, context.probe, scores.max_value() + 1.0, cfg.delta_s)
    assert result.attainable
    assert result.threshold < 1.08
    assert result.probe.coverage == 1.0


@_verdict("6. unified score of the pp object slot and np_det_n is 2.43")
def test_unified_diagnostic():
    inv, training, _ = _toy()
    table = build_phrase_table(index_treebank(training, inv))
    got = unified_node_entropy(Slot("pp_prep_np", 2), "np_det_n", table)
    assert abs(got - 2.43) <= TOLERANCE


# The randomized invariants of check 7, each over seeded generated corpora.


def closure_is_idempotent_and_monotone():
    for seed, rng, inv, training in seeded_corpora(0, 200, 1, 8):
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
        # the memo may serve `again`; the plain fixpoint must agree
        fresh = reference_closure(once.cut_node_ids(), aot)
        assert partition_key(again) == partition_key(fresh), seed

        assert once.cut_node_ids() <= closure(large, aot).cut_node_ids(), seed


def one_cut_class_per_category():
    for seed, rng, inv, training in seeded_corpora(1000, 60, 1, 6):
        aot = index_treebank(training, inv)
        ids = frozenset(
            n.node_id for n in aot.nodes() if rng.random() < 0.3
        )
        cats = [c.category for c in closure(ids, aot).cut_classes()]
        assert len(cats) == len(set(cats)), seed


def coverage_is_antitone_in_threshold():
    for seed, rng, inv, training in seeded_corpora(4000, 60, 2, 8):
        test = [gen_root(rng, inv) for _ in range(4)]
        aot, table, scores = mixed_set_up(training, inv)
        fractions = []
        previous_ids = None
        for threshold in (0.0, 0.3, 0.7, 1.2, 2.5):
            cutset = select_by_threshold(threshold, aot, table, scores)
            if previous_ids is not None:
                assert cutset.cut_node_ids() <= previous_ids, (seed, threshold)
            previous_ids = cutset.cut_node_ids()
            rules = training_rules(training, aot, cutset)
            fractions.append(evaluate_coverage(rules, test).fraction)
        assert fractions == sorted(fractions, reverse=True), (seed, fractions)


def training_rules_cover_their_own_corpus():
    for seed, rng, inv, training in seeded_corpora(3000, 80, 1, 6):
        aot, table, scores = mixed_set_up(training, inv)
        threshold = rng.choice([0.0, 0.3, 0.8])
        cutset = select_by_threshold(threshold, aot, table, scores)
        rules = training_rules(training, aot, cutset)
        report = evaluate_coverage(rules, training)
        assert report.fraction == 1.0, seed


def covers_agrees_with_the_exhaustive_tiler():
    cases = 0
    for seed, kept, trees in random_rule_subsets():
        for tree in trees:
            got = covers(kept, tree) is not None
            want = brute_covers(kept, tree)
            assert got == want, seed
            cases += 1
    assert cases >= 500


def extracted_rules_never_have_empty_bodies():
    for seed, rng, inv, training in seeded_corpora(2000, 80, 1, 6):
        aot, table, scores = mixed_set_up(training, inv)
        threshold = rng.choice([0.0, 0.2, 0.5, 1.0])
        cutset = select_by_threshold(threshold, aot, table, scores)
        rules = training_rules(training, aot, cutset)
        assert all(r.reduction_length > 0 for r in rules), seed
        assert all(len(r.rhs) == r.reduction_length for r in rules), seed


def training_chunks_are_enumerated():
    skipped = 0
    for seed, rng, inv, training in seeded_corpora(5000, 80, 1, 6):
        aot, table, scores = mixed_set_up(training, inv)
        threshold = rng.choice([0.0, 0.4, 0.9])
        cutset = select_by_threshold(threshold, aot, table, scores)
        trained = training_rules(training, aot, cutset)
        try:
            enumerated = andor_rules(aot, cutset)
        except ChunkExplosionError:
            # class merging can fold an ancestor onto a descendant,
            # which the enumerator refuses
            skipped += 1
            continue
        assert chunk_keys(trained) <= chunk_keys(enumerated), seed
    assert skipped < 8


@_verdict("7. randomized invariants hold (closure, coverage, tiling, bodies)")
def test_randomized_invariants():
    started = time.perf_counter()
    closure_is_idempotent_and_monotone()
    one_cut_class_per_category()
    coverage_is_antitone_in_threshold()
    training_rules_cover_their_own_corpus()
    covers_agrees_with_the_exhaustive_tiler()
    extracted_rules_never_have_empty_bodies()
    training_chunks_are_enumerated()
    assert time.perf_counter() - started < 60.0


@_verdict("8. two full pipeline runs write byte-identical reports")
def test_deterministic_reports():
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        outs = []
        for name in ("first", "second"):
            out = Path(scratch) / name
            run_pipeline(toy_config(coverage_target=1.0, out_dir=str(out)))
            outs.append(out)
        first, second = outs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            first, second, names, shallow=False
        )
        assert mismatch == [] and errors == [], (mismatch, errors)
        assert len(match) == len(names) == 8
