import dataclasses
import gc
import sys

import pytest

from treecut import grammar
from treecut.entropy import Slot, build_phrase_table
from treecut.grammar import (
    ArityMismatchError,
    CategoryMismatchError,
    DuplicateRuleIdError,
    GrammarFormatError,
    Internal,
    LexLeaf,
    TreebankFormatError,
    UnknownRuleIdError,
    parse_rule_inventory,
    parse_shapes,
    parse_treebank,
    render_tree,
)
from treecut.sexpr import LineNumberedError, SexprError

from oracles import (
    COMPLETE_LOADERS,
    DEEP,
    LOADER_GRAMMAR,
    blind,
    chain_text,
    corpus_texts,
    load_outcome,
    token_fold_outcome,
)

MINI = """\
s_np_vp s -> np vp
np_det_n np -> det n
vp_v vp -> v
"""


def test_inventory_order_and_lookup():
    inv = parse_rule_inventory(MINI, "s")
    assert [r.rule_id for r in inv.in_order()] == ["s_np_vp", "np_det_n", "vp_v"]
    assert inv["np_det_n"].arity == 2
    assert inv["np_det_n"].lhs == "np"
    assert inv.top == "s"


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\ns_np_vp s -> np vp  # trailing\n"
    inv = parse_rule_inventory(text, "s")
    assert list(inv.rules) == ["s_np_vp"]


@pytest.mark.parametrize(
    "line, err, lineno",
    [
        ("s_np_vp s np vp", GrammarFormatError, 1),
        ("s -> np vp", GrammarFormatError, 1),
        ("lex det -> d", GrammarFormatError, 1),
    ],
)
def test_grammar_format_errors(line, err, lineno):
    with pytest.raises(err) as info:
        parse_rule_inventory(line + "\n", "s")
    assert info.value.line_no == lineno
    assert f"line {lineno}" in str(info.value)


@pytest.mark.parametrize("delimiter", ["(", ")", '"'])
@pytest.mark.parametrize("line", [
    "n{}p s -> np vp", "np_pron n{}p -> pron", "vp_v vp -> v n{}p",
])
def test_a_symbol_holding_an_s_expression_delimiter_is_rejected(line, delimiter):
    # such a rule id or category could not be written into a tree or a
    # rule-file chunk, so the grammar names it on its own line
    symbol = f"n{delimiter}p"
    with pytest.raises(GrammarFormatError) as info:
        parse_rule_inventory(MINI + line.format(delimiter) + "\n", "s")
    assert (info.value.line_no, info.value.message) == (
        4, f"symbol '{symbol}' holds '{delimiter}'"
    )


def test_duplicate_rule_id_rejected():
    text = MINI + "s_np_vp s -> np vp\n"
    with pytest.raises(DuplicateRuleIdError) as info:
        parse_rule_inventory(text, "s")
    assert info.value.line_no == 4


def test_treebank_round_trip(inventory):
    text = corpus_texts("toy")[1]
    trees = parse_treebank(text, inventory)
    rendered = "".join(render_tree(t) + "\n" for t in trees)
    assert parse_treebank(rendered, inventory) == trees
    # the toy file is written one tree a line in the canonical form
    assert rendered.splitlines() == [
        line for line in text.splitlines() if not line.startswith("#")
    ]


def test_leaves_of_one_word_are_one_object(inventory):
    text = (
        "(s_np_vp (np_num (lex ten)) (vp_v_np (lex left) (np_num (lex ten))))\n"
        "(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\n"
    )
    first, second = parse_treebank(text, inventory)
    ten = first.children[0].children[0]
    assert ten is first.children[1].children[1].children[0]
    assert first.children[1].children[0] is second.children[1].children[0]
    assert ten == LexLeaf("ten")
    assert "".join(render_tree(t) + "\n" for t in (first, second)) == text


def test_parse_builds_expected_shape(inventory):
    tree = parse_treebank(
        "(s_np_vp (np_pron (lex I)) (vp_v (lex left)))", inventory
    )[0]
    assert tree == Internal(
        "s_np_vp",
        (
            Internal("np_pron", (LexLeaf("I"),)),
            Internal("vp_v", (LexLeaf("left"),)),
        ),
    )
    assert tree.length == 2
    assert [child.length for child in tree.children] == [1, 1]


def test_unknown_rule_id_has_line_number(inventory):
    with pytest.raises(UnknownRuleIdError) as info:
        parse_treebank("\n\n(s_np_vp (np_bogus (lex x)) (vp_v (lex y)))", inventory)
    assert info.value.line_no == 3


def test_arity_mismatch(inventory):
    with pytest.raises(ArityMismatchError):
        parse_treebank("(np_det_n (lex the))", inventory)


def test_category_mismatch(inventory):
    with pytest.raises(CategoryMismatchError):
        parse_treebank(
            "(s_np_vp (vp_v (lex runs)) (vp_v (lex runs)))", inventory
        )


def test_require_top(inventory):
    parse_treebank("(np_pron (lex I))", inventory)
    with pytest.raises(CategoryMismatchError):
        parse_treebank("(np_pron (lex I))", inventory, require_top=True)


def test_lex_takes_exactly_one_word(inventory):
    with pytest.raises(ArityMismatchError):
        parse_treebank("(lex a b)", inventory)


@pytest.mark.parametrize(
    "text, err, message",
    [
        # a list's own checks come before its children's
        ("(() (lex x))", TreebankFormatError, "line 1: expression head must be a rule id"),
        ("((bogus) (lex x))", TreebankFormatError, "line 1: expression head must be a rule id"),
        ("(\n(\n\n(bogus)) (lex x))", TreebankFormatError, "line 2: expression head must be a rule id"),
        ("(lex ())", ArityMismatchError, "line 1: 'lex' takes exactly one word"),
        ("(lex\n(bogus))", ArityMismatchError, "line 1: 'lex' takes exactly one word"),
        ("(bogus ())", UnknownRuleIdError, "line 1: unknown rule id 'bogus'"),
        ("(np_pron (lex a) ())", ArityMismatchError, "line 1: 'np_pron' expects 1 children, got 2"),
        # children in order, each child's own faults before its category
        ("(s_np_vp (vp_v (lex a))\n())", CategoryMismatchError, "line 1: child 1 of 's_np_vp' has category 'vp', expected 'np'"),
        ("(s_np_vp (np_pron ())\n(bogus))", TreebankFormatError, "line 1: empty '()' expression"),
        ("(s_np_vp\n(np_pron\n  # a comment\n\n ( ))\n(bogus))", TreebankFormatError, "line 5: empty '()' expression"),
        ("(s_np_vp (np_pron (lex I)) (vp_v (lex x)))\n\n\n()", TreebankFormatError, "line 4: empty '()' expression"),
        # every text error before any tree error
        ("(bogus)\n(lex x))", TreebankFormatError, "line 2: unbalanced ')'"),
        ('(bogus)\n"x', TreebankFormatError, "line 2: unterminated quoted symbol"),
    ],
)
def test_first_fault_is_found_root_first(inventory, text, err, message):
    with pytest.raises(err) as info:
        parse_treebank(text, inventory)
    assert type(info.value) is err
    assert str(info.value) == message


def test_line_numbered_errors_share_one_base(inventory, monkeypatch):
    kinds = [SexprError, GrammarFormatError, TreebankFormatError]
    for kind in kinds:
        err = kind("a: b", 7)
        assert isinstance(err, LineNumberedError)
        assert (err.message, err.line_no, str(err)) == ("a: b", 7, "line 7: a: b")
        assert [k for k in kinds if k is not kind and issubclass(kind, k)] == []

    def failing_read(text, close):
        raise SexprError("odd: text", 3)

    # a text fault keeps its bare message and its line
    monkeypatch.setattr(grammar, "read_all", failing_read)
    with pytest.raises(TreebankFormatError) as info:
        parse_treebank("(np_pron (lex a))", inventory)
    assert type(info.value) is TreebankFormatError
    assert (info.value.message, info.value.line_no) == ("odd: text", 3)


def test_quoted_words_round_trip(inventory):
    tree = parse_treebank('(np_pron (lex "a b(c)"))', inventory)[0]
    assert tree.children[0] == LexLeaf("a b(c)")
    again = parse_treebank(render_tree(tree), inventory)[0]
    assert again == tree


def test_escaped_newline_in_a_quoted_word_counts_as_a_line(inventory):
    text = '(np_pron (lex "a\\\nb"))\n(bogus (lex x))\n'
    assert parse_treebank(text[: text.index("\n(")], inventory)[0].children == (
        LexLeaf("a\nb"),
    )
    with pytest.raises(UnknownRuleIdError) as info:
        parse_treebank(text, inventory)
    assert info.value.line_no == 3
    assert str(info.value) == "line 3: unknown rule id 'bogus'"
    with pytest.raises(TreebankFormatError) as info:
        parse_treebank(text.replace("(bogus (lex x))", "(np_pron x)"), inventory)
    assert str(info.value) == "line 3: bare symbol 'x' outside a rule application"


def test_comment_may_start_mid_line(inventory):
    text = '(np_pron # a comment with ( and "\n  (lex "#not a comment"))'
    tree = parse_treebank(text, inventory)[0]
    assert tree.children == (LexLeaf("#not a comment"),)


def test_hand_built_trees_sum_their_yield(inventory):
    tree = Internal(
        "s_np_vp",
        (Internal("np_pron", (LexLeaf("I"),)), Internal("vp_v", (LexLeaf("left"),))),
    )
    assert tree.length == 2
    # yield is derived data: passed in, as the loader does, or worked
    # out, it gives equal trees, and repr does not show it
    assert tree == Internal("s_np_vp", tree.children, length=2)
    assert "length" not in repr(tree)
    # a node holds its rule, its children and its yield, and nothing that
    # ties it to other trees: a hand-built tree and a loaded one with the
    # same shape are told apart by their words alone
    assert [f.name for f in dataclasses.fields(Internal)] == [
        "rule", "children", "length"
    ]
    loaded = parse_treebank("(s_np_vp (np_pron (lex we)) (vp_v (lex go)))", inventory)
    assert blind(tree) == blind(loaded[0]) and tree != loaded[0]
    assert blind(LexLeaf("I")) == blind(LexLeaf("_")) == "(lex)"


@pytest.mark.parametrize("enabled", [True, False])
def test_loader_pauses_the_collector_and_restores_it(inventory, enabled, monkeypatch):
    collecting = []
    read_all = grammar.read_all

    def recording_read_all(*args):
        collecting.append(gc.isenabled())
        return read_all(*args)

    monkeypatch.setattr(grammar, "read_all", recording_read_all)
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        text = "(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\n"
        parse_treebank(text, inventory)
        assert gc.isenabled() == enabled
        with pytest.raises(UnknownRuleIdError):
            parse_treebank(text + "(bogus)", inventory)
        assert gc.isenabled() == enabled
        with pytest.raises(TreebankFormatError):
            parse_treebank(text + "(", inventory)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
    assert collecting == [False, False, False]


def test_deep_chain_loads_counts_and_indexes(deep_chain):
    tree, aot = deep_chain
    assert tree.length == 2 * DEEP + 2
    table = build_phrase_table(aot)
    lhs = table.distributions[Slot("np_np_pp", 0)]
    assert lhs == {"s_np_vp/1": 1, "np_np_pp/1": DEEP - 1}
    assert table.distributions[Slot("pp_prep_np", 2)] == {"np_num": DEEP}

    # per chain level: np, pp, prep, np, num; then np_pron's np and pron,
    # and the root, vp and v
    assert len(aot.node_index) == 5 * DEEP + 5
    assert aot["root"].visit_count == 1


def test_render_tree_of_a_chain_deeper_than_the_recursion_limit(inventory):
    low = 400
    depth = low + 300
    tree = LexLeaf("a b")
    for _ in range(depth):
        tree = Internal("np_np_pp", (tree,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(low)
    try:
        text = render_tree(tree)
    finally:
        sys.setrecursionlimit(limit)
    assert text == "(np_np_pp " * depth + '(lex "a b")' + ")" * depth


def test_chains_deeper_than_the_recursion_limit_compare_hash_and_print():
    low = 400
    depth = low + 300

    def chain(word):
        tree = LexLeaf(word)
        for _ in range(depth):
            tree = Internal("np_np_pp", (tree,))
        return tree

    a, b, c = chain("a"), chain("a"), chain("b")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(low)
    try:
        equal, unequal = a == b, a == c
        hashes = hash(a), hash(b), hash(c)
        text = repr(a)
    finally:
        sys.setrecursionlimit(limit)
    assert equal and not unequal
    assert hashes[0] == hashes[1]
    assert text == "Internal(" + "(np_np_pp " * depth + "(lex a)" + ")" * depth + ")"


def test_word_blind_loader_shares_one_tree_per_line_text(inventory):
    text = (
        "# two parses that differ only in their words\r\n"
        "(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\r\n"
        "\n"
        "  (s_np_vp (np_pron (lex We)) (vp_v (lex came)))\n"
        "(s_np_vp (np_det_n (lex the) (lex flight)) (vp_v (lex left)))"
    )
    first, second, third = parse_shapes(text, inventory)
    assert first is second
    assert first == Internal(
        "s_np_vp",
        (Internal("np_pron", (LexLeaf("_"),)), Internal("vp_v", (LexLeaf("_"),))),
    )
    words = parse_treebank(text, inventory, require_top=True)
    assert [blind(t) for t in (first, second, third)] == [blind(t) for t in words]
    assert [t.length for t in (first, second, third)] == [2, 2, 3]


def test_word_blind_loader_blanks_words_however_spaced(inventory):
    text = (
        "(s_np_vp (np_pron (lex I )) (vp_v (lex left)))\n"
        "( s_np_vp (np_pron ( lex\tWe)) (vp_v (lex  came)))\n"
    )
    first, second = parse_shapes(text, inventory)
    assert first is second
    assert first == parse_treebank(
        "(s_np_vp (np_pron (lex _)) (vp_v (lex _)))", inventory
    )[0]


@pytest.mark.parametrize(
    "text",
    [
        # a quoted word, two trees on one line, a tree over two lines, a
        # comment after a tree
        '(s_np_vp (np_pron (lex "I")) (vp_v (lex left)))',
        "(s_np_vp (np_pron (lex I)) (vp_v (lex left))) "
        "(s_np_vp (np_pron (lex we)) (vp_v (lex go)))",
        "(s_np_vp (np_pron (lex I))\n (vp_v (lex left)))",
        "(s_np_vp (np_pron (lex I)) (vp_v (lex left))) # a comment",
    ],
)
def test_word_blind_loader_reads_other_layouts_without_words(inventory, text):
    got = parse_shapes(text, inventory)
    want = parse_treebank(text, inventory, require_top=True)
    assert [blind(t) for t in got] == [blind(t) for t in want]
    # every word is read as one "_" leaf, so equal shapes are one object
    blank = parse_treebank("(s_np_vp (np_pron (lex _)) (vp_v (lex _)))", inventory)
    assert got == blank * len(want)
    assert all(tree is got[0] for tree in got)
    assert got[0].children[0].children[0] is got[0].children[1].children[0]


@pytest.mark.parametrize(
    "text, err, message",
    [
        ("(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\n(bogus (lex x))",
         UnknownRuleIdError, "line 2: unknown rule id 'bogus'"),
        ("(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\n(np_pron (lex I))",
         CategoryMismatchError, "line 2: root category 'np' is not 's'"),
        ("(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\n\n  (lex I)",
         TreebankFormatError, "line 3: a complete parse cannot be a bare lexical lookup"),
        ("(s_np_vp (np_pron (lex I)) (vp_v (lex left))))",
         TreebankFormatError, "line 1: unbalanced ')'"),
        ("(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\n\n(s_np_vp (np_pron ()) (vp_v (lex x)))",
         TreebankFormatError, "line 3: empty '()' expression"),
        ("(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\n(s_np_vp\n\n (np_pron ( )) (vp_v (lex x)))",
         TreebankFormatError, "line 4: empty '()' expression"),
        ("(s_np_vp (np_pron (lex I)) (vp_v (lex left)))\n\n\n((np_pron (lex I)) (vp_v (lex x)))",
         TreebankFormatError, "line 4: expression head must be a rule id"),
        ("(s_np_vp (np_det_n (lex a) (lex b)) (vp_v (lex c)))\n(np_none)",
         CategoryMismatchError, "line 2: root category 'np' is not 's'"),
        ("(s_np_vp (np_det_n (lex a) (lex b)) (vp_v (lex c)))\n  # a comment\n(lex a)",
         TreebankFormatError,
         "line 3: a complete parse cannot be a bare lexical lookup"),
        ("(s_np_vp (np_none)\n  (vp_v (lex c)))\n\n(s_np_vp\n (np_none) (vp_none))",
         TreebankFormatError, "line 4: a complete parse must span at least one word"),
    ],
)
def test_both_loaders_report_a_fault_at_its_line(text, err, message):
    # the word-blind loader reports what the loader with words does
    for load in COMPLETE_LOADERS.values():
        with pytest.raises(err) as info:
            load(text, LOADER_GRAMMAR)
        assert type(info.value) is err
        assert str(info.value) == message


GOOD = "(s_np_vp (np_pron (lex I)) (vp_v (lex left)))"
PP = " (pp_prep_np (lex to) (np_num (lex ten))))"


@pytest.mark.parametrize(
    "load", list(COMPLETE_LOADERS.values()), ids=list(COMPLETE_LOADERS)
)
@pytest.mark.parametrize(
    "text, err, message, line",
    [
        # an unknown rule id five levels deep, after lists that peel cleanly
        (GOOD + "\n" + GOOD + "\n(s_np_vp " + "(np_np_pp " * 4 + "\n(bogus (lex I))"
         + PP * 4 + " (vp_v (lex left)))",
         UnknownRuleIdError, "unknown rule id 'bogus'", 4),
        # an arity fault in an inner list
        (GOOD + "\n(s_np_vp (np_np_pp (np_det_n (lex the))" + PP + " (vp_v (lex a)))",
         ArityMismatchError, "'np_det_n' expects 2 children, got 1", 2),
        # a stray ')' after peeled lists, with as many '(' as ')' ...
        (GOOD + "\n" + GOOD + ")\n(np_pron (lex I)",
         TreebankFormatError, "unbalanced ')'", 2),
        # ... and with one ')' too many
        (GOOD + "\n" + GOOD + "\n" + GOOD + ")\n",
         TreebankFormatError, "unbalanced ')'", 3),
        # a bare symbol at the top level, between peeled trees
        (GOOD + "\n  stray\n" + GOOD,
         TreebankFormatError, "bare symbol 'stray' outside a rule application", 2),
        # a text holding the placeholder character, where a peeled list
        # would have stood in for the symbol
        (GOOD + "\n(s_np_vp \x000 (vp_v (lex left)))",
         TreebankFormatError, "bare symbol '\x000' outside a rule application", 2),
    ],
    ids=["deep-unknown-rule", "inner-arity", "stray-paren-balanced", "stray-paren",
         "top-bare-symbol", "placeholder-character"],
)
def test_faults_met_late_or_never_by_peeling_keep_class_message_and_line(
    inventory, load, text, err, message, line
):
    want = (err, f"line {line}: {message}", line)
    assert token_fold_outcome(load, text, inventory) == want
    assert load_outcome(load, text, inventory) == want


def test_words_that_hold_the_placeholder_character_are_words(inventory):
    text = GOOD + "\n(s_np_vp (np_pron (lex \x000)) (vp_v (lex \x001)))\n"
    _, tree = parse_treebank(text, inventory, require_top=True)
    assert [child.children[0].word for child in tree.children] == ["\x000", "\x001"]


def test_lists_that_touch_their_neighbours_are_peeled(inventory, monkeypatch):
    # no space between a head or a list and the list after it
    text = GOOD.replace(" (", "(") + "\n" + GOOD + "\n"
    want = token_fold_outcome(parse_shapes, text, inventory)
    read = []
    read_all = grammar.read_all

    def recording_read_all(text, close):
        read.append(text)
        return read_all(text, close)

    monkeypatch.setattr(grammar, "read_all", recording_read_all)
    got = parse_shapes(text, inventory)
    assert got == want and got[0] is got[1]
    # one read, of the placeholders of the two peeled trees
    assert len(read) == 1 and "(" not in read[0]


class CountingRegex:
    """Stands in for the innermost-list regex and counts the characters
    each peeling round scans."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.scanned = []

    def sub(self, repl, text):
        self.scanned.append(len(text))
        return self.pattern.sub(repl, text)


# one comb tooth per spine level; tooth i is a chain of i t_t lists, so
# each round peels one list of every tooth still standing: a little of
# the text
COMB_GRAMMAR = "s_c s -> c\nc_ct c -> c t\nc_w c -> w\nt_t t -> t\nt_w t -> w\n"
TEETH = 200
COMB = (
    "(s_c " + "(c_ct " * TEETH + "(c_w (lex x))"
    + "".join(" " + "(t_t " * i + "(t_w (lex x))" + ")" * i + ")" for i in range(TEETH))
    + ")\n"
)
TOY_GRAMMAR, TOY_TEXT, _ = corpus_texts("toy")
# the toy training parses, without the comment line peeling skips
TOY_TRAIN = "".join(
    line for line in TOY_TEXT.splitlines(True) if not line.startswith("#")
)


@pytest.mark.parametrize(
    "grammar_text, text, count",
    [
        (TOY_GRAMMAR, chain_text(DEEP), 4),
        (COMB_GRAMMAR, COMB, 1),
        (TOY_GRAMMAR, TOY_TRAIN, 6),
    ],
    ids=["chain", "comb", "toy"],
)
def test_peeling_scans_a_bounded_multiple_of_the_text(
    grammar_text, text, count, monkeypatch
):
    inv = parse_rule_inventory(grammar_text, "s")
    want = token_fold_outcome(parse_treebank, text, inv)
    assert isinstance(want, list)
    rounds = CountingRegex(grammar._INNERMOST)
    handed_off = []
    read_all = grammar.read_all

    def recording_read_all(text, close):
        handed_off.append(len(text))
        return read_all(text, close)

    monkeypatch.setattr(grammar, "_INNERMOST", rounds)
    monkeypatch.setattr(grammar, "read_all", recording_read_all)
    assert load_outcome(parse_treebank, text, inv) == want
    assert len(rounds.scanned) == count
    # every round but the last leaves at most _KEEP of its text, so the
    # rounds scan at most 1 / (1 - _KEEP) texts; the token reader then
    # reads the rest once
    for before, after in zip(rounds.scanned, rounds.scanned[1:]):
        assert after <= grammar._KEEP * before
    assert len(handed_off) == 1
    bound = 1 / (1 - grammar._KEEP) + 1
    assert sum(rounds.scanned) + handed_off[0] <= bound * len(text)
