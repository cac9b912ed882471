import math

import pytest

from treecut.andor import index_treebank
from treecut.entropy import (
    ROOT_CONTEXT,
    PhraseEntropyTable,
    Slot,
    build_phrase_table,
    entropy,
    render_entropy_table,
)
from treecut.grammar import parse_rule_inventory, parse_treebank


def h(*counts):
    """Direct -sum(p*ln p) over explicit counts, the reference formula."""
    total = sum(counts)
    return -sum(c / total * math.log(c / total) for c in counts if c)


def test_entropy_formula_oracle():
    assert entropy({"a": 3, "b": 1}) == pytest.approx(h(3, 1))
    assert h(3, 1) == pytest.approx(0.5623351446188083)
    assert h(2, 1) == pytest.approx(0.6365141682948128)
    assert h(2, 1, 1, 1) == pytest.approx(1.3321790402101223)
    assert h(1, 1, 1) == pytest.approx(math.log(3))


def test_single_outcome_entropy_is_zero():
    assert entropy({"only": 17}) == 0.0
    assert entropy({}) == 0.0


def test_entropy_scale_invariance():
    base = {"a": 2, "b": 1, "c": 1}
    scaled = {k: 1000 * v for k, v in base.items()}
    assert entropy(scaled) == pytest.approx(entropy(base))


# Every defined toy table cell, hand-counted from the four training
# trees.  0.5623 is a 3:1 split, 0.6365 a 2:1 split, 1.3322 a 2:1:1:1
# split, 1.0986 a uniform 3-way split.
TOY_CELLS = {
    ("s_np_vp", 0): 0.0,
    ("s_np_vp", 1): 0.5623351446188083,
    ("s_np_vp", 2): 0.5623351446188083,
    ("np_np_pp", 0): 0.0,
    ("np_np_pp", 1): 0.0,
    ("np_np_pp", 2): 0.0,
    ("np_det_n", 0): 1.3321790402101223,
    ("np_det_n", 1): 0.0,
    ("np_det_n", 2): 0.0,
    ("np_pron", 0): 0.0,
    ("np_pron", 1): 0.0,
    ("np_num", 0): 0.0,
    ("np_num", 1): 0.0,
    ("vp_vp_pp", 0): 0.0,
    ("vp_vp_pp", 1): 0.0,
    ("vp_vp_pp", 2): 0.0,
    ("vp_v_np", 0): 0.0,
    ("vp_v_np", 1): 0.0,
    ("vp_v_np", 2): 0.6365141682948128,
    ("vp_v", 0): 0.0,
    ("vp_v", 1): 0.0,
    ("pp_prep_np", 0): 0.6365141682948128,
    ("pp_prep_np", 1): 0.0,
    ("pp_prep_np", 2): 1.0986122886681098,
}


def test_toy_table_has_exactly_the_expected_slots(table):
    assert set(table.entropies) == {Slot(r, p) for r, p in TOY_CELLS}


@pytest.mark.parametrize("rule,position", sorted(TOY_CELLS))
def test_toy_table_cell(table, rule, position):
    assert table.value(Slot(rule, position)) == pytest.approx(
        TOY_CELLS[(rule, position)], abs=1e-12
    )


def test_lhs_distribution_contexts(table):
    lhs = table.distributions[Slot("np_det_n", 0)]
    assert lhs == {
        "s_np_vp/1": 1,
        "vp_v_np/2": 1,
        "np_np_pp/1": 2,
        "pp_prep_np/2": 1,
    }
    root = table.distributions[Slot("s_np_vp", 0)]
    assert root == {ROOT_CONTEXT: 4}


def test_rhs_distribution_includes_lex_outcome(table):
    dist = table.distributions[Slot("pp_prep_np", 2)]
    assert dist == {"lex": 1, "np_det_n": 1, "np_num": 1}


def test_published_value_rounds_half_even(aot, table):
    slot = Slot("np_det_n", 0)
    assert table.published_value(slot) == 1.33
    assert table.published_value(Slot("pp_prep_np", 2)) == 1.10
    exact = build_phrase_table(aot, decimals=None)
    assert exact.published_value(slot) == table.value(slot)


def reading(value, decimals):
    """*value* read off a one-slot table kept at *decimals* places."""
    slot = Slot("r", 1)
    return PhraseEntropyTable(None, {}, {slot: value}, decimals).published_value(slot)


def test_readings_round_half_even_at_the_table_precision():
    assert reading(0.5623351446188083, 2) == 0.56
    assert reading(1.0986122886681098, 2) == 1.10
    assert reading(0.125, 2) == 0.12
    assert reading(0.135, 2) == 0.14
    assert reading(0.73, None) == 0.73


def test_unseen_rule_slots_read_zero_and_render_starred():
    inv = parse_rule_inventory(
        "s_np_vp s -> np vp\nnp_pron np -> pron\nvp_v vp -> v\nvp_v_np vp -> v np\n",
        "s",
    )
    trees = parse_treebank(
        "(s_np_vp (np_pron (lex I)) (vp_v (lex left)))", inv
    )
    table = build_phrase_table(index_treebank(trees, inv))
    unseen = Slot("vp_v_np", 2)
    assert not table.is_seen(unseen)
    assert table.value(unseen) == 0.0
    rendered = "".join(render_entropy_table(table))
    row = [l for l in rendered.splitlines() if l.startswith("vp_v_np")][0]
    assert row.split("\t")[1:] == ["0.00*", "0.00*", "0.00*"]


def test_render_table_matches_published_layout(table):
    lines = "".join(render_entropy_table(table)).splitlines()
    assert lines[0] == "rule\tLHS\tRHS1\tRHS2"
    rows = {l.split("\t")[0]: l.split("\t")[1:] for l in lines[1:]}
    assert rows["np_det_n"] == ["1.33", "0.00", "0.00"]
    assert rows["s_np_vp"] == ["0.00", "0.56", "0.56"]
    assert rows["pp_prep_np"] == ["0.64", "0.00", "1.10"]
    assert rows["np_pron"] == ["0.00", "0.00", "---"]
    assert len(rows) == 9


def test_tightest_slot_is_the_lowest_reading_and_is_kept_out_of_equality(aot):
    # pp_prep_np reads 0.00 and 1.10 on its RHS, s_np_vp ties at 0.56
    table = build_phrase_table(aot)
    assert table.tightest_slot("pp_prep_np", 2) == Slot("pp_prep_np", 1)
    assert table.tightest_slot("s_np_vp", 2) == Slot("s_np_vp", 1)
    one_slot = PhraseEntropyTable(None, {}, {Slot("r", 1): 0.5}, 2)
    assert one_slot.tightest_slot("r", 3) == Slot("r", 2)  # unseen reads 0
    assert table.tightest == {
        "pp_prep_np": Slot("pp_prep_np", 1), "s_np_vp": Slot("s_np_vp", 1)
    }
    fresh = build_phrase_table(aot)
    assert table == fresh and repr(table) == repr(fresh)
