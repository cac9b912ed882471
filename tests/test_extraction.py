import sys
import tracemalloc

import pytest

from treecut import extraction
from treecut.andor import PathNotInIndexError, index_treebank
from treecut.cutnodes import closure
from treecut.entropy import Slot
from treecut.extraction import (
    ChunkExplosionError,
    ChunkMemo,
    Pieces,
    RuleFileError,
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
    Frontier,
    Internal,
    LexLeaf,
    LexSlot,
    parse_rule_inventory,
    parse_shapes,
    parse_treebank,
    render_tree,
)
from treecut.sexpr import SexprError

from oracles import DEEP, TOY, andor_rules, blind, chunk_keys, training_rules


# Hand-walked chunks for the four training trees with the object-side
# np class {n3, n4, n6, n9} cut.  Tree 4's subject np stays inline
# because n1 scores below the threshold; tree 2's bare-word np becomes
# a frontier without spawning a chunk of its own.
EXPECTED_TRAINING = {
    "(np_det_n (lex det) (lex n))": ("np => det n", 4),
    "(np_num (lex num))": ("np => num", 1),
    "(np_np_pp np (pp_prep_np (lex prep) np))": ("np => np prep np", 2),
    "(s_np_vp (np_pron (lex pron)) (vp_v_np (lex v) np))": ("s => pron v np", 3),
    "(s_np_vp (np_det_n (lex det) (lex n)) (vp_vp_pp (vp_v (lex v)) "
    "(pp_prep_np (lex prep) np)))": ("s => det n v prep np", 1),
}


def test_training_extraction_exact_rules(toy_rules):
    assert len(toy_rules) == 5
    got = {
        render_tree(r.chunk): (r.flat_form(), r.support) for r in toy_rules
    }
    assert got == EXPECTED_TRAINING


def test_det_n_support_counts_every_occurrence(toy_rules):
    by_flat = {r.flat_form(): r for r in toy_rules}
    assert by_flat["np => det n"].support == 4
    assert by_flat["np => np prep np"].support == 2
    assert by_flat["s => pron v np"].support == 3


def test_rule_names_are_stable_digests(toy_rules):
    for rule in toy_rules:
        assert rule.name == rule_name(rule.lhs, rule.chunk)
        assert rule.name.startswith(rule.lhs + "_")
    by_flat = {r.flat_form(): r.name for r in toy_rules}
    assert by_flat["np => det n"] == "np_a3f29ca6"


def test_extraction_returns_unnamed_chunks_in_first_seen_order(
    treebank, aot, toy_cut, toy_rules
):
    pairs = extract_training(treebank.training, aot, toy_cut)
    memo, seen = ChunkMemo(toy_cut), []
    for tree in treebank.training:
        for chunk in cut_tree(tree, aot, toy_cut, memo):
            if chunk not in seen:
                seen.append(chunk)
    assert [chunk for chunk, _ in pairs] == seen
    # naming sorts them by lhs and name, and keeps each support
    assert name_rules(pairs, aot.inventory) == toy_rules
    assert [r.name for r in toy_rules] == sorted(r.name for r in toy_rules)
    assert all(support == 0 for _, support in extract_andor(aot, toy_cut))


def test_andor_extraction_is_superset(treebank, aot, toy_cut, toy_rules):
    enumerated = andor_rules(aot, toy_cut)
    assert len(enumerated) == 7
    assert chunk_keys(toy_rules) <= chunk_keys(enumerated)
    extra = {r.flat_form() for r in enumerated}
    extra -= {r.flat_form() for r in toy_rules}
    assert extra == {"s => pron v prep np", "s => det n v np"}
    assert all(r.support == 0 for r in enumerated)


def test_empty_cutset_training_yields_whole_trees(treebank, aot):
    rules = training_rules(treebank.training, aot, closure(frozenset(), aot))
    assert len(rules) == 4
    assert all(r.lhs == "s" for r in rules)
    assert all(r.support == 1 for r in rules)
    assert "s => pron v det n" in {r.flat_form() for r in rules}
    # the bare-word np under tree 2's pp stays a lexical slot
    assert "s => pron v det n prep np" in {r.flat_form() for r in rules}


def test_empty_cutset_andor_enumerates_all_shapes(treebank, aot):
    cutset = closure(frozenset(), aot)
    enumerated = andor_rules(aot, cutset)
    trained = training_rules(treebank.training, aot, cutset)
    assert len(enumerated) == 8
    assert chunk_keys(trained) <= chunk_keys(enumerated)


def test_lexical_arc_becomes_slot_alternative(aot):
    # With only n9 cut, n6 stays inline and its observed bare word shows
    # up as a (lex np) alternative inside np_np_pp chunks.
    enumerated = andor_rules(aot, closure(frozenset({"n9"}), aot))
    keys = chunk_keys(enumerated)
    assert any("(lex np)" in k for k in keys)
    assert any("(np_det_n (lex det) (lex n))" in k for k in keys)


def test_single_arc_index_modes_agree():
    inv = parse_rule_inventory(
        "s_np_vp s -> np vp\nnp_pron np -> pron\nvp_v vp -> v\n", "s"
    )
    trees = parse_treebank("(s_np_vp (np_pron (lex I)) (vp_v (lex left)))", inv)
    aot = index_treebank(trees, inv)
    n1 = [n for n in aot.nodes() if n.category == "np"][0]
    cutset = closure(frozenset({n1.node_id}), aot)
    trained = training_rules(trees, aot, cutset)
    enumerated = andor_rules(aot, cutset)
    assert chunk_keys(trained) == chunk_keys(enumerated)
    assert {r.flat_form() for r in trained} == {
        r.flat_form() for r in enumerated
    }


def test_cut_tree_rejects_unindexed_tree(aot, inventory, toy_cut):
    tree = parse_treebank(
        "(s_np_vp (np_num (lex Nine)) (vp_v (lex left)))", inventory
    )[0]
    with pytest.raises(PathNotInIndexError):
        cut_tree(tree, aot, toy_cut, ChunkMemo(toy_cut))


def test_chunk_cap_raises(aot, toy_cut):
    with pytest.raises(ChunkExplosionError):
        andor_rules(aot, toy_cut, max_chunks=3)


def test_flat_rhs_and_render():
    chunk = Internal(
        "np_np_pp",
        (Frontier("np"), Internal("pp_prep_np", (LexSlot("prep"), Frontier("np")))),
    )
    assert flat_rhs(chunk) == ("np", "prep", "np")
    assert chunk.length == 3
    assert render_tree(chunk) == "(np_np_pp np (pp_prep_np (lex prep) np))"


def test_chunk_leaves_compare_by_kind_and_category():
    def np_pron(leaf):
        return Internal("np_pron", (leaf,))

    slot = np_pron(LexSlot("pron"))
    assert slot == np_pron(LexSlot("pron"))
    assert hash(slot) == hash(np_pron(LexSlot("pron")))
    for other in (Frontier("pron"), LexLeaf("pron"), LexSlot("n")):
        assert slot != np_pron(other)
    assert LexSlot("np") != Frontier("np")


def test_chunks_deeper_than_the_recursion_limit_compare_hash_and_print():
    # equal chunks of two stores are two objects, compared by a walk
    depth = 5000

    def chain(pieces, leaf):
        chunk = pieces.leaf(leaf, "np")
        for _ in range(depth):
            pp = pieces.apply("pp_prep_np", (pieces.leaf(LexSlot, "prep"), chunk))
            chunk = pieces.apply("np_np_pp", (pieces.leaf(Frontier, "np"), pp))
        return chunk

    a, b = chain(Pieces(), Frontier), chain(Pieces(), Frontier)
    c = chain(Pieces(), LexSlot)
    assert a is not b and a.length == 2 * depth + 1
    assert a == b and a != c
    assert hash(a) == hash(b)
    level = "(np_np_pp np (pp_prep_np (lex prep) "
    assert repr(a) == "Internal(" + level * depth + "np" + "))" * depth + ")"


def test_validate_rules_passes_extracted(toy_rules, inventory):
    validate_rules(toy_rules, inventory)


@pytest.mark.parametrize(
    "chunk, fault",
    [
        (Internal("np_det_n", (LexSlot("det"), LexSlot("x"))),
         "leaf category 'x', slot wants 'n'"),
        (Internal("np_det_n", (LexSlot("det"),)), "'np_det_n' arity 2 violated"),
        (Internal("np_missing", (LexSlot("det"),)), "unknown rule id 'np_missing'"),
        (Internal("np_det_n", (
            LexSlot("det"), Internal("pp_prep_np", (LexSlot("prep"), Frontier("np")))
        )), "'pp_prep_np' has category 'pp', slot wants 'n'"),
    ],
)
def test_validate_rules_rejects_bad_chunks_naming_the_rule(inventory, chunk, fault):
    fine = Internal("np_det_n", (LexSlot("det"), LexSlot("n")))
    rules = [
        SpecializedRule("np_fine", "np", fine, flat_rhs(fine), 0),
        SpecializedRule("np_bad", "np", chunk, flat_rhs(chunk), 0),
    ]
    with pytest.raises(RuleFileError) as info:
        validate_rules(rules, inventory)
    assert str(info.value) == f"rule 'np_bad': {fault}"


def test_validate_rules_rejects_empty_body():
    inv = parse_rule_inventory("s_x s -> x\nx_e x ->\n", "s")
    chunk = Internal("x_e", ())
    rule = SpecializedRule("x_empty", "x", chunk, flat_rhs(chunk), 0)
    with pytest.raises(RuleFileError):
        validate_rules([rule], inv)


def test_collector_drops_empty_chunks():
    inv = parse_rule_inventory("s_x s -> x\nx_e x ->\n", "s")
    trees = parse_treebank("(s_x (x_e))", inv)
    aot = index_treebank(trees, inv)
    rules = training_rules(trees, aot, closure(frozenset(), aot))
    assert len(rules) == 0
    assert "".join(render_rule_file(rules)) == "\n"


def test_rule_file_round_trip(toy_rules):
    # every rules.txt opens with a "# config:" line, which parsing skips
    text = "# toy rules\n" + "".join(render_rule_file(toy_rules))
    parsed = parse_rule_file(text)
    assert len(parsed) == len(toy_rules)
    assert chunk_keys(parsed) == chunk_keys(toy_rules)
    assert {r.flat_form() for r in parsed} == {
        r.flat_form() for r in toy_rules
    }
    assert {r.name for r in parsed} == {r.name for r in toy_rules}
    assert {r.name: r.support for r in parsed} == {
        r.name: r.support for r in toy_rules
    }


@pytest.mark.parametrize(
    "text",
    [
        "np_x np det n\n  (np_det_n (lex det) (lex n))\n",
        "np_x: np => det\n  (np_det_n (lex det) (lex n))\n",
        "np_x: np => det n\n",
        "np_x: np => det n\n  (np_det_n (lex det) (lex n))\n  support: many\n",
        # a digit that int() does not read, and an arrow before the colon
        "np_x: np => det n\n  (np_det_n (lex det) (lex n))\n  support: 4\u00b2\n",
        "np_x => np: det n\n  (np_det_n (lex det) (lex n))\n",
    ],
)
def test_rule_file_rejects_malformed_records(text):
    with pytest.raises(RuleFileError):
        parse_rule_file(text)


TWO_RULES = [
    "# two rules",
    "np_a: np => pron",
    "  (np_pron (lex pron))",
    "",
    "np_b: np => num",
    "  (np_num (lex num))",
    "  support: 2",
]


@pytest.mark.parametrize(
    "edits, message",
    [
        ({5: "  (np_num (lex num)))"}, "line 6: unbalanced ')'"),
        ({5: "  (np_num", 6: "  support: 2", 7: "   (lex num)))"},
         "line 8: unbalanced ')'"),
        ({5: "  (np_num", 6: "  support: 2", 7: "   (lex num)"},
         "line 6: unclosed '('"),
        ({5: '  (np_num (lex "num))'}, "line 6: unterminated quoted symbol"),
    ],
)
def test_chunk_faults_name_their_line_in_the_file(edits, message):
    # support lines may sit between the body lines of a chunk
    lines = list(TWO_RULES)
    for k, line in edits.items():
        lines[k:k + 1] = [line]
    with pytest.raises(SexprError) as info:
        parse_rule_file("\n".join(lines) + "\n")
    assert str(info.value) == message



@pytest.mark.parametrize(
    "edits, message",
    [
        ({4: "np_b np num"}, "line 5: malformed rule header: 'np_b np num'"),
        # the name ends at a ':' before whitespace, and '=>' is a token
        # of its own after exactly one lhs
        ({4: "np_b:np => num"}, "line 5: malformed rule header: 'np_b:np => num'"),
        ({4: "np_b: np=>num"}, "line 5: malformed rule header: 'np_b: np=>num'"),
        ({4: "np_b: np n => num"},
         "line 5: malformed rule header: 'np_b: np n => num'"),
        ({6: "  support: two"}, "line 7: rule 'np_b': support 'two' is not a count"),
        ({4: "np_b: np => pron"},
         "line 5: rule 'np_b': flat line ('pron',) does not match chunk ('num',)"),
        # a second chunk, here after the support line
        ({6: "  support: 2", 7: "  (np_num (lex num))"},
         "line 8: rule 'np_b' needs exactly one chunk"),
        # no chunk at all: the header is at fault
        ({5: "  support: 2", 6: None}, "line 5: rule 'np_b' needs exactly one chunk"),
        ({5: "  np_num"}, "line 6: rule 'np_b' chunk must be an application"),
        # a chunk list at fault names the line of its '('
        ({5: "  (np_num", 6: "  support: 2", 7: "   (lex num num))"},
         "line 8: lex slot takes exactly one category"),
        ({5: "  (np_num", 6: "   (np_det_n ((lex det)) (lex n)))"},
         "line 7: malformed chunk expression"),
    ],
)
def test_rule_record_faults_name_their_line_in_the_file(edits, message):
    lines = list(TWO_RULES)
    for k, line in sorted(edits.items(), reverse=True):
        lines[k:k + 1] = [] if line is None else [line]
    with pytest.raises(RuleFileFormatError) as info:
        parse_rule_file("\n".join(lines) + "\n")
    assert isinstance(info.value, RuleFileError)
    assert str(info.value) == message
    assert info.value.line_no == int(message.split(":")[0].split()[1])

def test_each_root_shape_is_cut_once(treebank, aot, toy_cut, monkeypatch):
    # the training trees, the first two again, and the first tree's shape
    # again with other words, in one word-blind load
    text = (
        (TOY / "train.txt").read_text()
        + "".join(render_tree(tree) + "\n" for tree in treebank.training[:2])
        + "(s_np_vp (np_pron (lex you))"
        " (vp_v_np (lex saw) (np_det_n (lex a) (lex seat))))\n"
    )
    training = parse_shapes(text, treebank.inventory)
    assert len(training) == len(treebank.training) + 3
    shapes = {blind(tree) for tree in training}
    assert len(shapes) < len(training)
    cut = []
    original = extraction.cut_tree
    monkeypatch.setattr(
        extraction, "cut_tree", lambda *args: cut.append(args[0]) or original(*args)
    )
    rules = training_rules(training, aot, toy_cut)
    assert len(cut) == len(shapes)
    # support counts every tree, cut or not
    want = {}
    for tree in training:
        for chunk in original(tree, aot, toy_cut, ChunkMemo(toy_cut)):
            key = render_tree(chunk)
            want[key] = want.get(key, 0) + 1
    assert {render_tree(r.chunk): r.support for r in rules} == want


def test_deep_chain_is_cut_at_every_np(deep_chain):
    tree, aot = deep_chain
    nps = frozenset(n.node_id for n in aot.nodes() if n.category == "np")
    cutset = closure(nps, aot)
    chunks = cut_tree(tree, aot, cutset, ChunkMemo(cutset))
    assert len(chunks) == 2 * DEEP + 2
    # the root chunk, then each level's chunk and its pp's np in turn
    assert render_tree(chunks[0]) == "(s_np_vp np (vp_v (lex v)))"
    level = "(np_np_pp np (pp_prep_np (lex prep) np))"
    assert [render_tree(c) for c in chunks[1:4]] == [
        level, level, "(np_num (lex num))"
    ]
    rules = training_rules([tree, tree], aot, cutset)
    assert {r.flat_form(): r.support for r in rules} == {
        "s => np v": 2,
        "np => np prep np": 2 * DEEP,
        "np => num": 2 * DEEP,
        "np => pron": 2,
    }


def test_deep_chain_is_cut_without_recursion(deep_chain):
    tree, aot = deep_chain
    cutset = closure(frozenset(), aot)
    (chunk,) = cut_tree(tree, aot, cutset, ChunkMemo(cutset))
    # the one chunk holds the whole chain: walk it down its np spine
    assert chunk.rule == "s_np_vp"
    node = chunk.children[0]
    for _ in range(DEEP):
        assert node.rule == "np_np_pp"
        pp = node.children[1]
        assert (pp.rule, pp.children[0], pp.children[1].rule) == (
            "pp_prep_np", LexSlot("prep"), "np_num"
        )
        node = node.children[0]
    assert (node.rule, node.children) == ("np_pron", (LexSlot("pron"),))

    assert render_tree(chunk) == (
        "(s_np_vp " + "(np_np_pp " * DEEP + "(np_pron (lex pron))"
        + " (pp_prep_np (lex prep) (np_num (lex num))))" * DEEP
        + " (vp_v (lex v)))"
    )
    body = ("pron",) + ("prep", "num") * DEEP + ("v",)
    assert flat_rhs(chunk) == body and chunk.length == len(body)
    (rule,) = training_rules([tree] * 3, aot, cutset)
    assert (rule.rhs, rule.support) == (body, 3)
    # another extraction builds other objects, which compare by a walk
    (other,) = training_rules([tree] * 3, aot, cutset)
    assert other.chunk is not chunk and other == rule
    assert repr(rule) == (
        f"SpecializedRule(name={rule.name!r}, lhs='s', chunk=Internal("
        f"{render_tree(chunk)}), rhs={body!r}, support=3)"
    )
    # the rule file reads back and validates without recursion too
    (again,) = validate_rules(
        parse_rule_file("".join(render_rule_file([rule]))), aot.inventory
    )
    assert (render_tree(again.chunk), again.rhs) == (render_tree(chunk), body)



def test_deep_spine_with_a_cut_child_at_every_level_is_cut_in_linear_space(
    deep_chain, monkeypatch
):
    # cut only the np under each level's pp: the np spine stays inline in
    # the root chunk, and every level leaves one chunk root behind
    tree, aot = deep_chain
    objects = [n.node_id for n in aot.nodes() if n.parent_slot == Slot("pp_prep_np", 2)]
    assert len(objects) == DEEP
    cutset = closure(objects, aot)

    def refuse(*args):
        raise AssertionError("a piece was hashed or compared; the store keys on ids")

    monkeypatch.setattr(Internal, "__hash__", refuse)
    monkeypatch.setattr(Internal, "__eq__", refuse)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    tracemalloc.start()
    try:
        chunks = cut_tree(tree, aot, cutset, ChunkMemo(cutset))
        rules = training_rules([tree, tree], aot, cutset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        sys.setrecursionlimit(limit)
    # pending roots copied up the spine, level by level, would hold
    # DEEP**2 / 2 references: 400 MB; the positions and pieces need a few
    assert peak < 40 * 2**20
    assert len(chunks) == DEEP + 1
    assert all(chunk is chunks[1] for chunk in chunks[1:])
    assert render_tree(chunks[1]) == "(np_num (lex num))"
    body = ("pron",) + ("prep", "np") * DEEP + ("v",)
    assert flat_rhs(chunks[0]) == body
    assert {(r.rhs, r.support) for r in rules} == {(body, 2), (("num",), 2 * DEEP)}


def test_a_memo_serves_one_cut_set_only(treebank, aot, toy_cut):
    memo = ChunkMemo(toy_cut)
    tree = treebank.training[0]
    fresh = cut_tree(tree, aot, toy_cut, ChunkMemo(toy_cut))
    assert cut_tree(tree, aot, toy_cut, memo) == fresh
    with pytest.raises(ValueError):
        cut_tree(tree, aot, closure(frozenset(), aot), memo)


def test_a_memo_recovers_from_a_tree_the_index_does_not_hold(
    treebank, aot, inventory, toy_cut
):
    unindexed = parse_treebank(
        "(s_np_vp (np_pron (lex I)) (vp_v_np (lex saw) (np_np_pp (np_num (lex 9))"
        " (pp_prep_np (lex to) (np_pron (lex me))))))",
        inventory,
    )[0]
    memo = ChunkMemo(toy_cut)
    for _ in range(2):  # the failed build is not served as a finished one
        with pytest.raises(PathNotInIndexError):
            cut_tree(unindexed, aot, toy_cut, memo)
    for tree in treebank.training:
        fresh = cut_tree(tree, aot, toy_cut, ChunkMemo(toy_cut))
        assert cut_tree(tree, aot, toy_cut, memo) == fresh
