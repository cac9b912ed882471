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
from treecut.cutnodes import select_by_threshold
from treecut.entropy import Slot, build_phrase_table
from treecut.extraction import extract_andor, extract_training
from treecut.grammar import parse_rule_inventory, parse_treebank
from treecut.node_entropy import unified_node_entropy
from treecut.pipeline import PipelineConfig, SearchContext, run_pipeline
from treecut.pipeline import load_treebank
from treecut.threshold import bisect

import test_properties as props

TOY = Path(__file__).resolve().parent.parent / "corpora" / "toy"

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
    inv = parse_rule_inventory((TOY / "grammar.txt").read_text(), top="s")
    training = parse_treebank(
        (TOY / "train.txt").read_text(), inv, require_top=True
    )
    test = parse_treebank((TOY / "test.txt").read_text(), inv, require_top=True)
    return inv, training, test


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
    aot, table, scores = props.mixed_set_up(training, inv)
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
    aot, table, scores = props.mixed_set_up(training, inv)
    cutset = select_by_threshold(1.00, aot, table, scores)
    assert set(cutset.cut_node_ids()) == CUT_AT_ONE


@_verdict("4. extraction yields the 5 training forms, plus 2 more enumerated")
def test_extraction_rule_sets():
    inv, training, _ = _toy()
    aot, table, scores = props.mixed_set_up(training, inv)
    cutset = select_by_threshold(1.00, aot, table, scores)
    trained = extract_training(training, aot, cutset)
    assert {r.flat_form() for r in trained} == TRAINING_FORMS
    assert len(trained.rules) == 5
    enumerated = extract_andor(aot, cutset)
    assert {r.flat_form() for r in enumerated} == TRAINING_FORMS | EXTRA_ANDOR_FORMS
    assert len(enumerated.rules) == 7


@_verdict("5. training rules cover the test tree; bisection stays below 1.08")
def test_coverage_and_bisection():
    inv, training, test = _toy()
    aot, table, scores = props.mixed_set_up(training, inv)
    cutset = select_by_threshold(1.00, aot, table, scores)
    rules = extract_training(training, aot, cutset)
    assert evaluate_coverage(rules, test).fraction == 1.0

    cfg = PipelineConfig(
        grammar_path=str(TOY / "grammar.txt"),
        train_path=str(TOY / "train.txt"),
        test_path=str(TOY / "test.txt"),
        coverage_target=1.0,
    )
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


@_verdict("7. randomized invariants hold (closure, coverage, tiling, bodies)")
def test_randomized_invariants():
    started = time.perf_counter()
    props.test_closure_idempotent_and_monotone_on_random_corpora()
    props.test_one_cut_class_per_category()
    props.test_coverage_antitone_in_threshold()
    props.test_training_rules_cover_their_own_corpus()
    props.test_covers_agrees_with_exhaustive_tiler()
    props.test_extracted_rules_never_have_empty_bodies()
    props.test_training_chunks_subset_of_enumerated()
    assert time.perf_counter() - started < 60.0


@_verdict("8. two full pipeline runs write byte-identical reports")
def test_deterministic_reports():
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        outs = []
        for name in ("first", "second"):
            out = Path(scratch) / name
            cfg = PipelineConfig(
                grammar_path=str(TOY / "grammar.txt"),
                train_path=str(TOY / "train.txt"),
                test_path=str(TOY / "test.txt"),
                coverage_target=1.0,
                out_dir=str(out),
            )
            run_pipeline(cfg)
            outs.append(out)
        first, second = outs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            first, second, names, shallow=False
        )
        assert mismatch == [] and errors == [], (mismatch, errors)
        assert len(match) == len(names) == 8
