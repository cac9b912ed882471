import math

import pytest

from treecut.cutnodes import EquivalenceClass
from treecut.entropy import Slot, build_phrase_table
from treecut.node_entropy import (
    EntropyScheme,
    compute_node_entropies,
    node_entropy_arc_frequency,
    node_entropy_mixed,
    node_entropy_rhs_local,
    render_node_entropies,
    unified_node_entropy,
)

# Published two-decimal scores for every phrase node, derived by hand
# from the printed table: slot entropy plus arc-weighted LHS entropies,
# all at two decimals, half-even.
MIXED_PUBLISHED = {
    "root": 0.0,
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

RHS_LOCAL_PUBLISHED = {
    "n1": 0.56,
    "n2": 0.56,
    "n3": 0.64,
    "n4": 0.00,
    "n5": 0.00,
    "n6": 1.10,
    "n7": 0.00,
    "n8": 0.00,
    "n9": 1.10,
}


@pytest.mark.parametrize("node_id", sorted(MIXED_PUBLISHED))
def test_mixed_published_scores(mixed_scores, node_id):
    assert mixed_scores[node_id] == MIXED_PUBLISHED[node_id]


def test_mixed_n3_term_by_term(aot, table):
    # 0.64 (object slot of vp_v_np) + 1/3 * 1.33 (np_det_n LHS)
    # + 2/3 * 0.00 (np_np_pp LHS) = 1.0833...; published 1.08.
    n3 = aot["n3"]
    assert table.published_value(n3.parent_slot) == 0.64
    assert table.published_value(Slot("np_det_n", 0)) == 1.33
    assert table.published_value(Slot("np_np_pp", 0)) == 0.00
    assert n3.arc_counts == {"np_det_n": 1, "np_np_pp": 2}
    assert node_entropy_mixed(n3, table) == 1.08


def test_mixed_n6_rounds_half_even(aot, table):
    # 1.10 + 1/2 * 1.33 = 1.765, a tie at the second decimal; half-even
    # gives 1.76.
    assert node_entropy_mixed(aot["n6"], table) == 1.76


def test_mixed_exact_values(aot, table):
    # Oracle: slot and LHS entropies recomputed from the raw counts.
    def h(*counts):
        total = sum(counts)
        return -sum(c / total * math.log(c / total) for c in counts if c)

    exact = compute_node_entropies(
        aot, build_phrase_table(aot, decimals=None), EntropyScheme.MIXED
    )
    det_n_lhs = h(2, 1, 1, 1)
    assert exact["n1"] == pytest.approx(h(3, 1) + det_n_lhs / 4, abs=1e-12)
    assert exact["n3"] == pytest.approx(h(2, 1) + det_n_lhs / 3, abs=1e-12)
    assert exact["n6"] == pytest.approx(h(1, 1, 1) + det_n_lhs / 2, abs=1e-12)
    assert exact["n9"] == pytest.approx(h(1, 1, 1), abs=1e-12)
    # Exact mode differs from the published reading where rounding bit:
    # n1 reads 0.8954 exactly but 0.89 published.
    assert exact["n1"] != MIXED_PUBLISHED["n1"]


@pytest.mark.parametrize("node_id", sorted(RHS_LOCAL_PUBLISHED))
def test_rhs_local_published_scores(aot, table, node_id):
    assert node_entropy_rhs_local(aot[node_id], table) == RHS_LOCAL_PUBLISHED[node_id]


def test_mixed_dominates_rhs_local(aot, table, mixed_scores):
    local = compute_node_entropies(aot, table, EntropyScheme.RHS_LOCAL)
    for node_id in mixed_scores.values:
        assert mixed_scores[node_id] >= local[node_id]


def test_root_has_no_parent(aot, table):
    with pytest.raises(ValueError, match="root has no parent slot"):
        node_entropy_rhs_local(aot["root"], table)
    with pytest.raises(ValueError, match="root has no parent slot"):
        node_entropy_mixed(aot["root"], table)


def test_compute_scores_root_as_zero(aot, table):
    for scheme in (EntropyScheme.RHS_LOCAL, EntropyScheme.MIXED):
        scores = compute_node_entropies(aot, table, scheme)
        assert scores["root"] == 0.0


def test_arc_frequency_singletons(aot):
    assert node_entropy_arc_frequency(aot["root"]) == 0.0
    assert node_entropy_arc_frequency(aot["n1"]) == pytest.approx(
        0.5623351446188083
    )
    assert node_entropy_arc_frequency(aot["n3"]) == pytest.approx(
        0.6365141682948128
    )
    assert node_entropy_arc_frequency(aot["n6"]) == pytest.approx(math.log(2))
    assert node_entropy_arc_frequency(aot["t3"]) == 0.0


def test_arc_frequency_pools_class_members(aot):
    # n3 {np_det_n: 1, np_np_pp: 2} pooled with n6 {lex: 1, np_det_n: 1}
    # gives counts 2, 2, 1.
    pooled = node_entropy_arc_frequency(aot["n3"], [aot["n3"], aot["n6"]])
    expected = -(0.4 * math.log(0.4) * 2 + 0.2 * math.log(0.2))
    assert pooled == pytest.approx(expected)


def test_arc_frequency_classes_through_compute(aot):
    pair = EquivalenceClass((aot["n3"], aot["n6"]), cut=False)
    alone = [
        EquivalenceClass((node,), cut=False)
        for node in aot.nodes()
        if node not in pair.members
    ]
    scores = compute_node_entropies(
        aot, None, EntropyScheme.ARC_FREQUENCY, [pair, *alone]
    )
    assert scores["n3"] == scores["n6"]
    assert scores["n1"] == pytest.approx(0.5623351446188083)


def test_unified_score(table):
    got = unified_node_entropy(Slot("pp_prep_np", 2), "np_det_n", table)
    assert got == 2.43


def test_unified_rejects_category_mix(table):
    with pytest.raises(ValueError, match="slot category 'vp' vs rule category 'np'"):
        unified_node_entropy(Slot("s_np_vp", 2), "np_det_n", table)
    with pytest.raises(ValueError, match="is not an RHS slot"):
        unified_node_entropy(Slot("np_det_n", 0), "np_det_n", table)


def test_render_scores_in_index_order(aot, mixed_scores):
    lines = "".join(render_node_entropies(aot, mixed_scores)).splitlines()
    assert lines[0] == "node\tcategory\tentropy"
    assert lines[1] == "root\ts\t0.0000"
    assert lines[2] == "n1\tnp\t0.8900"
    assert len(lines) == 25
