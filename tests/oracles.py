"""The test suite's oracles and shared helpers, in one module.

A reference implementation here is the plain, slow version of a job
that ``treecut`` does fast: a recursive walk that a stack walk
replaced, a per-tree loop that a per-shape one replaced, or an
exhaustive search.  Tests compare the two on the fixed corpora, on
seeded generated corpora and on Hypothesis strategies, which live here
too.  When a hot path is replaced, its slow version moves here.

Test modules import from this module and from ``conftest`` only, never
from one another.
"""

import copy
import functools
import hashlib
import importlib.util
import pathlib
import random
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from unittest import mock

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from treecut import node_entropy
from treecut.andor import (
    AndNode,
    AndOrTree,
    OrNode,
    PathNotInIndexError,
    _assign_ids,
    dump,
    index_treebank,
)
from treecut.coverage import Tiling, evaluate_coverage
from treecut.cutnodes import (
    MAX_ITERATIONS,
    CutnodeSet,
    EquivalenceClass,
    IterationLimitError,
    _iterate,
    closure,
    neighbor_conflicts,
    select_by_threshold,
    singleton_cutnodes,
)
from treecut.entropy import (
    LHS_POSITION,
    PhraseEntropyTable,
    Slot,
    build_phrase_table,
    entropy,
)
from treecut.extraction import (
    ANDOR_ENUM,
    DEFAULT_MAX_CHUNKS,
    ChunkCapError,
    ChunkExplosionError,
    ChunkMemo,
    RuleFileError,
    SpecializedRule,
    cut_tree,
    extract_andor,
    extract_training,
    flat_rhs,
    name_rules,
)
from treecut.grammar import (
    LEX,
    ArityMismatchError,
    CategoryMismatchError,
    Frontier,
    Internal,
    LexLeaf,
    LexSlot,
    TreebankFormatError,
    UnknownRuleIdError,
    parse_rule_inventory,
    parse_shapes,
    parse_treebank,
    render_tree,
    shape_groups,
)
from treecut.node_entropy import EntropyScheme, NodeEntropyMap, compute_node_entropies
from treecut.pipeline import PipelineConfig, SearchContext, partition_key
from treecut.sexpr import SexprError, quote_if_needed, read_all
from treecut.threshold import ThresholdProbe

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOY = ROOT / "corpora" / "toy"
BENCH = ROOT / "bench"
TOY_INVENTORY = parse_rule_inventory((TOY / "grammar.txt").read_text(), "s")
# The toy grammar with wordless rules, so that a complete parse can span
# no words.
LOADER_GRAMMAR = parse_rule_inventory(
    (TOY / "grammar.txt").read_text()
    + "np_none np ->\nvp_none vp ->\nvp_v_np_np vp -> v np np\n",
    "s",
)


def blind(tree) -> str:
    """The word-blind rendering of *tree*, each lexical lookup as ``(lex)``:
    what makes two subtrees the same shape."""
    parts = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, LexLeaf):
            parts.append(" (lex)")
        else:
            parts.append(" (" + item.rule)
            stack.append(")")
            stack.extend(reversed(item.children))
    return "".join(parts)[1:]


def chunk_keys(rules) -> frozenset[str]:
    """Every rule's chunk, rendered: what makes two rules the same rule."""
    return frozenset(render_tree(r.chunk) for r in rules)


def sexpr_text(expr):
    """Nested lists of strings, written as one S-expression."""
    if isinstance(expr, str):
        return expr
    return "(" + " ".join(map(sexpr_text, expr)) + ")"


def tree_of(expr):
    """The tree that a parse written as nested lists stands for."""
    if is_lex(expr):
        return LexLeaf(expr[1])
    return Internal(expr[0], tuple(tree_of(item) for item in expr[1:]))


# --- Fixed corpora --------------------------------------------------------


def load_bench_module(name):
    """A fresh copy of the benchmark's module ``bench/<name>.py``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def corpus_texts(corpus, n_train=150, n_test=50, seed=4.0):
    """(grammar, training text, test text) of a fixed corpus, one tree a
    line: ``toy`` is the repo's toy corpus; ``gen-toy`` and ``gen-layered``
    are trees of the benchmark's generator, 150/50 of seed 4.0 unless
    asked otherwise."""
    if corpus == "toy":
        names = ("grammar", "train", "test")
        return tuple((TOY / f"{name}.txt").read_text() for name in names)
    gen = load_bench_module("gen")
    kind = corpus.removeprefix("gen-")
    training, test = gen.generate(kind, n_train, n_test, seed)
    return gen.grammar_text(kind), *(
        "".join(gen.render(t) + "\n" for t in trees) for trees in (training, test)
    )


# every fixed treebank text, as the parameters (grammar, text) of a test
FIXED_CORPORA = [
    pytest.param(grammar, text, id=f"{corpus}-{role}")
    for corpus in ("toy", "gen-toy", "gen-layered")
    for grammar, *texts in [corpus_texts(corpus)]
    for role, text in zip(("train", "test"), texts)
]


def toy_config(**fields):
    """A run's config on the toy corpus files, with *fields* set."""
    roles = ("grammar", "train", "test")
    files = {f"{role}_path": str(TOY / f"{role}.txt") for role in roles}
    return PipelineConfig(**{**files, **fields})


# the depth of the deep chain: far beyond the interpreter's recursion limit
DEEP = 10_000


def chain_text(depth):
    """A complete parse of the toy grammar whose subject is a chain of
    *depth* np_np_pp levels, each with the same pp."""
    return (
        "(s_np_vp " + "(np_np_pp " * depth + "(np_pron (lex I))"
        + " (pp_prep_np (lex to) (np_num (lex ten))))" * depth
        + " (vp_v (lex left)))\n"
    )


# --- Seeded generators ----------------------------------------------------

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


def seeded_corpora(base, count, low, high):
    """*count* generated corpora, the k-th drawn from ``Random(base + k)``
    with *low* to *high* training trees: (k, its rng, inventory, trees)."""
    for seed in range(count):
        rng = random.Random(base + seed)
        inv, training = gen_corpus(rng, rng.randint(low, high))
        yield seed, rng, inv, training


def copy_with_words(tree, rng):
    """A hand-built copy of *tree* with fresh words."""
    if isinstance(tree, LexLeaf):
        return LexLeaf(rng.choice(WORDS))
    return Internal(tree.rule, tuple(copy_with_words(c, rng) for c in tree.children))


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


def oracle_corpora(treebank, count=30):
    """The toy index, then *count* seeded generated ones of varied size."""
    yield "toy", index_treebank(treebank.training, treebank.inventory)
    for seed, _, inv, training in seeded_corpora(8000, count, 1, 30):
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


def mixed_set_up(training, inv):
    """The index of *training*, its phrase table and its mixed node scores."""
    aot = index_treebank(training, inv)
    table = build_phrase_table(aot)
    return aot, table, compute_node_entropies(aot, table, EntropyScheme.MIXED)


@functools.cache
def random_rule_subsets():
    """Random rule subsets of random corpora, with trees to tile."""
    cases = []
    for seed, rng, inv, training in seeded_corpora(6000, 120, 1, 5):
        aot, table, scores = mixed_set_up(training, inv)
        threshold = rng.choice([0.0, 0.5])
        cutset = select_by_threshold(threshold, aot, table, scores)
        full = training_rules(training, aot, cutset)
        kept = [r for r in full if rng.random() > 0.4]
        trees = training + [gen_root(rng, inv) for _ in range(3)]
        cases.append((seed, kept, trees))
    return cases


# --- Hypothesis strategies ------------------------------------------------

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
    return Internal(rule, tuple(children))


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


# Places for one np subtree inside a complete parse: as the subject, as a
# verb's object, under a verb phrase's pp and as the head of a np_np_pp.
NP_FRAMES = [
    lambda np, vp: ["s_np_vp", np, vp],
    lambda np, vp: ["s_np_vp", ["np_pron", [LEX, "we"]], ["vp_v_np", [LEX, "saw"], np]],
    lambda np, vp: ["s_np_vp", ["np_num", [LEX, "9"]],
                    ["vp_vp_pp", vp, ["pp_prep_np", [LEX, "to"], np]]],
    lambda np, vp: ["s_np_vp", ["np_np_pp", np, ["pp_prep_np", [LEX, "on"], np]], vp],
]


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


# --- The treebank loader: the two-pass reader it replaced, and outcomes ---


@dataclass(frozen=True)
class Symbol:
    """An atom of the reference reader plus the line it started on."""

    text: str
    line_no: int


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
            yield Symbol("".join(out), start), start
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


def unshared_fold(text):
    """The trees of a valid treebank *text* with a new node for every
    list, leaves too: the unshared reference for the sharing loader."""

    def close(items, at):
        if items[0] == LEX:
            return LexLeaf(items[1])
        return Internal(items[0], tuple(items[1:]))

    return read_all(text, close)


def reference_render_tree(tree):
    """The recursive renderer the stack walk replaced."""
    if isinstance(tree, LexLeaf):
        return f"({LEX} {quote_if_needed(tree.word)})"
    inner = " ".join(reference_render_tree(c) for c in tree.children)
    return f"({tree.rule} {inner})" if inner else f"({tree.rule})"


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


# The two loaders of complete parses: with words, and word-blind.
COMPLETE_LOADERS = {
    "words": lambda text, inv: parse_treebank(text, inv, require_top=True),
    "word-blind": parse_shapes,
}


def load_outcome(load, text, inv, **options):
    """The trees of one load, or the class, message and line of its error."""
    try:
        return load(text, inv, **options)
    except TreebankFormatError as err:
        return type(err), str(err), err.line_no


def token_fold_outcome(load, text, inv, **options):
    """``load_outcome`` with peeling off: every list is read token by token."""
    with mock.patch("treecut.grammar._peel", lambda text, close: None):
        return load_outcome(load, text, inv, **options)


def blind_outcome(outcome):
    """Each tree's shape and length, or the class, message and line of the
    error."""
    if isinstance(outcome, list):
        return [(blind(tree), tree.length) for tree in outcome]
    return outcome


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


def node_counts(trees):
    """Distinct ``Internal`` objects and distinct ``LexLeaf`` objects."""
    nodes = distinct_nodes(trees)
    internal = sum(node.__class__ is Internal for node in nodes)
    return internal, len(nodes) - internal


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


def assert_lengths_are_yields(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        assert node.length == reference_yield_length(node)
        if isinstance(node, Internal):
            stack.extend(node.children)



def assert_loaders_agree(text, inv, require_top):
    """The loader gives the reference's trees, with equal subtrees one
    object, or its error."""
    assert_loader_outcome_is(
        load_outcome(parse_treebank, text, inv, require_top=require_top),
        load_outcome(reference_parse_treebank, text, inv, require_top=require_top),
    )


def assert_loader_outcome_is(got, want):
    """The loader's outcome *got* is the reference's *want*, with equal
    subtrees one object and every length a yield."""
    assert got == want
    if isinstance(want, list):
        assert list(map(render_tree, got)) == list(map(render_tree, want))
        assert_equal_subtrees_are_one_object(got)
        for tree in got:
            assert_lengths_are_yields(tree)


# --- The rule-file reader and checker: the recursive ones they replaced ---


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
    return Internal(head, tuple(reference_chunk_from_sexpr(e) for e in expr[1:]))


def reference_rule_chunk(body):
    exprs = read_all(body, lambda items, at: items)  # lists stay lists
    if len(exprs) != 1:
        raise RuleFileError("rule 'r' needs exactly one chunk")
    chunk = reference_chunk_from_sexpr(exprs[0])
    if not isinstance(chunk, Internal):
        raise RuleFileError("rule 'r' chunk must be an application")
    return chunk


def reference_check(chunk, expected_cat, inv, name):
    """The recursive chunk check of ``validate_rules`` before it walked
    with a stack; *name* is the rule the chunk belongs to."""
    where = f"rule '{name}'"
    if isinstance(chunk, (LexSlot, Frontier)):
        if expected_cat is not None and chunk.category != expected_cat:
            raise RuleFileError(
                f"{where}: leaf category '{chunk.category}', "
                f"slot wants '{expected_cat}'"
            )
        return
    if chunk.rule not in inv:
        raise RuleFileError(f"{where}: unknown rule id '{chunk.rule}'")
    rule = inv[chunk.rule]
    if expected_cat is not None and rule.lhs != expected_cat:
        raise RuleFileError(
            f"{where}: '{chunk.rule}' has category '{rule.lhs}', "
            f"slot wants '{expected_cat}'"
        )
    if len(chunk.children) != rule.arity:
        raise RuleFileError(f"{where}: '{chunk.rule}' arity {rule.arity} violated")
    for cat, child in zip(rule.rhs, chunk.children):
        reference_check(child, cat, inv, name)


def reference_validate(rules, inv):
    for rule in rules:
        if rule.reduction_length == 0:
            raise RuleFileError(f"rule '{rule.name}' has an empty body")
        if rule.chunk.rule not in inv:
            raise RuleFileError(
                f"rule '{rule.name}': unknown rule id '{rule.chunk.rule}'"
            )
        if inv[rule.chunk.rule].lhs != rule.lhs:
            raise RuleFileError(f"rule '{rule.name}' lhs mismatch")
        reference_check(rule.chunk, None, inv, rule.name)
    return rules


def chunk_outcome(read, body):
    try:
        return read(body)
    except RuleFileError as err:
        return type(err), str(err)


# --- Phrase table, index and scores: per-tree walks, exact branches -------


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


def reference_insert(root, tree, inv, order):
    """The per-tree merge that index_treebank replaced: one tree, weight
    1, visiting every node; each new arc is appended to *order*."""
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
            order.append((node, rule))
        node.arc_counts[rule] = node.arc_counts.get(rule, 0) + 1
        if rule != LEX:
            stack.extend(reversed(list(zip(and_node.children, tree.children))))


def reference_index_treebank(training, inv):
    root = OrNode(category=inv.top, parent_slot=None)
    order = []
    for tree in training:
        reference_insert(root, tree, inv, order)
    return AndOrTree(root, _assign_ids(root), inv, order)


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



def assert_phrase_table_order(training, inv):
    """The table summed off the index is the tree walk's, in its order."""
    want_dists, want_entropies = reference_phrase_table(training)
    table = build_phrase_table(index_treebank(training, inv))
    assert list(table.distributions) == list(want_dists)
    for slot, dist in want_dists.items():
        assert list(table.distributions[slot].items()) == list(dist.items())
    # float sums follow the outcome order, so the values match exactly
    assert list(table.entropies.items()) == list(want_entropies.items())


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
    aot, want = assert_index_agrees(training, inv)
    assert "".join(dump(aot)) == reference_dump(want)


def assert_index_agrees(training, inv):
    """``index_treebank`` gives the per-tree merge's or-nodes, arc counts
    and arc creation order; returns both indexes."""
    aot = index_treebank(training, inv)
    want = reference_index_treebank(training, inv)
    assert [or_node_record(n) for n in aot.nodes()] == [
        or_node_record(n) for n in want.nodes()
    ]
    assert [(node.node_id, rule) for node, rule in aot.arc_order] == [
        (node.node_id, rule) for node, rule in want.arc_order
    ]
    return aot, want


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


def per_node_arc_scores(aot, cutset):
    """Each node's arc counts pooled over its class, one node at a time."""
    scores = {}
    for node in aot.nodes():
        members = cutset.node_to_class[node.node_id].members if cutset else (node,)
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


# --- Closure: a plain fixpoint --------------------------------------------


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


def reference_neighbor_conflicts(
    cutset: CutnodeSet,
    aot: AndOrTree,
    table: PhraseEntropyTable,
    scores: NodeEntropyMap,
) -> list[EquivalenceClass]:
    """Classes to remove so no rule has both neighboring boundaries cut.

    For each rule r, k* is its lowest-entropy RHS slot (ties: lowest
    index).  Cutting both an attachment of r (a node with an r arc) and
    an occupant of Slot(r, k*) conflicts; the class with the lower
    entropy loses, where a class scores the maximum of its members.
    Conflicts are processed in rule-id order, then representative order.

    The plain version: it scores a class on every comparison, works out
    each rule's k* on every call and tests every occupant again.
    """

    def class_entropy(cls: EquivalenceClass) -> float:
        return max(scores[m.node_id] for m in cls.members)

    cut = cutset.cut_classes()
    if not cut:
        return []
    lhs_of: dict[str, list[EquivalenceClass]] = {}
    occupant_of: dict[Slot, list[EquivalenceClass]] = {}
    for cls in cut:
        seen_rules = set()
        seen_slots = set()
        for m in cls.members:
            for rule in m.arcs:
                if rule != LEX and rule not in seen_rules:
                    seen_rules.add(rule)
                    lhs_of.setdefault(rule, []).append(cls)
            if m.parent_slot is not None and m.parent_slot not in seen_slots:
                seen_slots.add(m.parent_slot)
                occupant_of.setdefault(m.parent_slot, []).append(cls)

    removed: dict[int, EquivalenceClass] = {}
    for rule in sorted(set(lhs_of)):
        grammar_rule = aot.inventory[rule]
        if grammar_rule.arity == 0:
            continue
        k_star = min(
            range(1, grammar_rule.arity + 1),
            key=lambda k: (table.published_value(Slot(rule, k)), k),
        )
        slot = Slot(rule, k_star)
        for lhs_cls in lhs_of.get(rule, []):
            for occ_cls in occupant_of.get(slot, []):
                if lhs_cls.representative.seq in removed:
                    continue
                if occ_cls.representative.seq in removed:
                    continue
                if lhs_cls is occ_cls:
                    removed[lhs_cls.representative.seq] = lhs_cls
                    continue
                loser = min(
                    (lhs_cls, occ_cls),
                    key=lambda c: (class_entropy(c), c.representative.seq),
                )
                removed[loser.representative.seq] = loser
    return [removed[seq] for seq in sorted(removed)]


def reference_threshold_seeds(scores, s_min, aot):
    """The seeds of a threshold selection, as the selectors first took
    them: the nodes with lexical yield scoring strictly above *s_min*."""
    return frozenset(
        node.node_id
        for node in aot.nodes()
        if node.has_lexical_yield and scores[node.node_id] > s_min
    )


def reference_restricted_fixpoint(seeds, aot, table, scores, max_iterations):
    """Alternate conflict removal and closure until both settle.

    The first conflict round sees the seeds as singleton classes, before
    any equating; later rounds see closed assignments.
    """

    def step(cut_ids: frozenset, i: int) -> frozenset:
        current = (
            singleton_cutnodes(cut_ids, aot) if i == 0 else closure(cut_ids, aot)
        )
        conflicts = neighbor_conflicts(current, aot, table, scores)
        dropped = frozenset(
            m.node_id for cls in conflicts for m in cls.members
        )
        return closure(current.cut_node_ids() - dropped, aot).cut_node_ids()

    return closure(_iterate(step, seeds, max_iterations), aot)


def reference_select_by_threshold(
    s_min, aot, table, scores, *, restrictions=False, max_iterations=MAX_ITERATIONS
):
    """The threshold selector as it was before the seeds, their closure
    and the restricted fixpoint settled in one place."""
    if scores.scheme is EntropyScheme.ARC_FREQUENCY:
        return reference_select_iterative(
            s_min, aot, table, restrictions=restrictions, max_iterations=max_iterations
        )
    seeds = reference_threshold_seeds(scores, s_min, aot)
    if not restrictions:
        return closure(seeds, aot)
    return reference_restricted_fixpoint(seeds, aot, table, scores, max_iterations)


def reference_select_iterative(
    s_min, aot, table, *, restrictions=False, max_iterations=MAX_ITERATIONS
):
    """The iterated arc-frequency selector as it was before the seeds,
    their closure and the restricted fixpoint settled in one place."""

    def step(cut_ids: frozenset, i: int) -> frozenset:
        current = closure(cut_ids, aot)
        scores = compute_node_entropies(
            aot, None, EntropyScheme.ARC_FREQUENCY, current.classes
        )
        seeds = reference_threshold_seeds(scores, s_min, aot)
        if not restrictions:
            return closure(seeds, aot).cut_node_ids()
        return reference_restricted_fixpoint(
            seeds, aot, table, scores, max_iterations
        ).cut_node_ids()

    return closure(_iterate(step, frozenset(), max_iterations), aot)


def selection_outcome(select, s_min, aot, table, scores, restrictions, max_iterations):
    """The closed partition *select* returns, or the class and message of
    its IterationLimitError."""
    try:
        cutset = select(
            s_min, aot, table, scores,
            restrictions=restrictions, max_iterations=max_iterations,
        )
    except IterationLimitError as exc:
        return type(exc), str(exc)
    return cutset


# --- Extraction: the per-tree and recursive versions ----------------------


def training_rules(training, aot, cutset):
    """The rules of ``extract_training``'s chunks, named as a run names
    them."""
    return name_rules(extract_training(training, aot, cutset), aot.inventory)


def andor_rules(aot, cutset, max_chunks=DEFAULT_MAX_CHUNKS):
    """The rules of ``extract_andor``'s chunks, named as a run names them."""
    return name_rules(extract_andor(aot, cutset, max_chunks), aot.inventory)


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
                if cutset.node_to_class[child_or.node_id].cut:
                    parts.append(Frontier(child_or.category))
                else:
                    parts.append(LexSlot(child_or.category))
            elif cutset.node_to_class[child_or.node_id].cut and child.length > 0:
                parts.append(Frontier(child_or.category))
                pending.append((child, child_or))
            else:
                parts.append(build(child, child_or))
        return Internal(node.rule, tuple(parts))

    while pending:
        chunks.append(build(*pending.pop(0)))
    return chunks


def reference_collect(inv, chunks):
    """The rules of ``(chunk, occurrences)`` pairs, sorted by lhs and
    name, told apart by their rendered text, so the chunks need not be
    hash-consed: the first of equal texts is named and every pair adds
    to its support.
    """
    rules = {}
    for chunk, occurrences in chunks:
        key = render_tree(chunk)
        rule = rules.get(key)
        if rule is None:
            rhs = flat_rhs(chunk)
            if not rhs:
                continue
            lhs = inv[chunk.rule].lhs
            digest = hashlib.sha1(reference_render_chunk(chunk).encode())
            rule = rules[key] = SpecializedRule(
                f"{lhs}_{digest.hexdigest()[:8]}", lhs, chunk, rhs
            )
        rule.support += occurrences
    return sorted(rules.values(), key=lambda r: (r.lhs, r.name))


def reference_extract_training(training, aot, cutset):
    """The per-tree loop extract_training replaced: every tree is cut."""
    return reference_collect(aot.inventory, (
        (chunk, 1)
        for tree in training
        for chunk in reference_cut_tree(tree, aot, cutset)
    ))


def reference_render_chunk(chunk):
    """The recursive chunk renderer that render_tree's explicit-stack walk
    replaced."""
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


def reference_extract_andor(aot, cutset, max_chunks=DEFAULT_MAX_CHUNKS):
    """The recursive enumerator that the explicit-stack walk replaced."""
    budget = {"left": max_chunks}
    memo = {}

    def class_of(node):
        return cutset.node_to_class[node.node_id]

    def spend(n=1):
        budget["left"] -= n
        if budget["left"] < 0:
            raise ChunkCapError(f"more than {max_chunks} chunks")

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
            out.extend(Internal(rule, combo) for combo in combos)
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
                    out.append(Internal(rule, combo))
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
    return [(r.name, r.lhs, render_tree(r.chunk), r.rhs, r.support) for r in rules]


def smallest_cap(extract, aot, cutset):
    """The least ``max_chunks`` at which *extract* enumerates *cutset*'s
    chunks; it must succeed under the default cap.  Success is monotone
    in the cap, since every partial product only adds to the count."""
    low, high = 0, DEFAULT_MAX_CHUNKS
    extract(aot, cutset, max_chunks=high)
    while low < high:
        mid = (low + high) // 2
        try:
            extract(aot, cutset, max_chunks=mid)
        except ChunkCapError:
            low = mid + 1
        else:
            high = mid
    return low


def empty_slot_index(alternatives):
    """A hand-built index whose one rule ``s -> a b`` has a lexical slot
    and *alternatives* - 1 wordless bodies at ``a``, and nothing at all
    at ``b``: its partial products count, but it has no chunk."""
    lines = ["s_a_b s -> a b"]
    lines += [f"a_{k} a ->" for k in range(1, alternatives)]
    inv = parse_rule_inventory("\n".join(lines) + "\n", "s")
    a = OrNode("a", Slot("s_a_b", 1), has_lexical_yield=True)
    a.arcs = {LEX: AndNode(LEX, [])}
    a.arcs.update((r, AndNode(r, [])) for r in inv.rules if r != "s_a_b")
    b = OrNode("b", Slot("s_a_b", 2))
    root = OrNode("s", None, has_lexical_yield=True)
    root.arcs = {"s_a_b": AndNode("s_a_b", [a, b])}
    return AndOrTree(root, _assign_ids(root), inv)


def has_wordless_piece(chunk):
    return isinstance(chunk, Internal) and (
        not chunk.children or any(has_wordless_piece(c) for c in chunk.children)
    )


# --- Tiling and search: exhaustive and per-tree tilers, a plain evaluator ---


def covers(rules, tree):
    """The preferred tiling of *tree*, or None when it has none."""
    return evaluate_coverage(rules, [tree]).tilings[0]


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


def validate_tiling(tiling, tree):
    """Re-walk a tiling to confirm it really derives *tree*.

    Unlike the tiler, this checks each frontier's category against the
    rule that fills it.
    """
    stack = [(tiling, tree, None)]
    while stack:
        tiling, tree, category = stack.pop()
        if tiling.rule is None:
            if tree.__class__ is not LexLeaf:
                return False
            continue
        if category is not None and tiling.rule.lhs != category:
            return False
        frontiers = []
        if not brute_match(tiling.rule.chunk, tree, frontiers):
            return False
        if len(frontiers) != len(tiling.children):
            return False
        stack += [(t, *frontier) for t, frontier in zip(tiling.children, frontiers)]
    return True


def rule_records(rules):
    for rule in rules:
        assert render_tree(rule.chunk) == reference_render_chunk(rule.chunk)
        assert rule.rhs == flat_rhs(rule.chunk) == reference_flat_rhs(rule.chunk)
        assert rule.chunk.length == len(rule.rhs)
    return [(r.name, render_tree(r.chunk), r.support) for r in rules]


def assert_shape_keyed_work_agrees(inv, training, test, rng, cut_sets=4, chosen=()):
    """Per-shape extraction and tiling give the per-tree results, on the
    *chosen* sets of cut node ids and on *cut_sets* random ones."""
    aot = index_treebank(training, inv)
    for cut_ids in (*chosen, *random_cut_sets(rng, aot, count=cut_sets)):
        cutset = closure(cut_ids, aot)
        memo = ChunkMemo(cutset)
        for tree in training:
            want = reference_cut_tree(tree, aot, cutset)
            assert cut_tree(tree, aot, cutset, ChunkMemo(cutset)) == want
            # one memo across the trees serves what a fresh cut builds
            assert cut_tree(tree, aot, cutset, memo) == want
        rules = training_rules(training, aot, cutset)
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


def reference_probe(treebank, aot, table, cfg):
    """Plain evaluator: fresh scores, extraction, naming and preferred
    tiling on every call."""

    def probe(threshold):
        scores = compute_node_entropies(aot, table, cfg.scheme)
        cutnodes = select_by_threshold(
            threshold, aot, table, scores,
            restrictions=cfg.neighbor_restrictions,
            max_iterations=cfg.max_iterations,
        )
        if cfg.mode == ANDOR_ENUM:
            rules = andor_rules(aot, cutnodes, max_chunks=cfg.max_chunks)
        else:
            rules = training_rules(treebank.training, aot, cutnodes)
        report = evaluate_coverage(rules, treebank.test)
        return ThresholdProbe(cutnodes, report.fraction)

    return probe


def search_context(bank, cfg):
    """A run's context over the Treebank *bank*, set up under *cfg*."""
    aot = index_treebank(bank.training, bank.inventory)
    table = build_phrase_table(aot, cfg.decimals)
    scores = compute_node_entropies(aot, table, cfg.scheme)
    return SearchContext(bank, aot, table, cfg, scores)


def assert_probes_agree_with_fresh_paths(context):
    """Run *context*'s search; each distinct partition it probed agrees
    with the fresh per-call paths.

    Its ``[chunk, support]`` pairs, built through the run's one store,
    are a fresh extraction's, and name the reference rules; its verdict
    fraction is that of the fresh rules' preferred tilings, each of
    which the per-tree reference tiler gives; and equal chunks of the
    whole run are one object.  Returns the partitions checked: a search
    stopped by the chunk cap checks those it probed before.
    """
    cfg, bank, aot = context.cfg, context.treebank, context.aot
    probed = {}
    select = context.select

    def recording_select(threshold):
        cutnodes = select(threshold)
        probed.setdefault(partition_key(cutnodes), cutnodes)
        return cutnodes

    context.select = recording_select
    try:
        context.choice
    except ChunkExplosionError:
        pass
    one_object = {}
    for key, cutnodes in probed.items():
        if key not in context.memo:  # the probe the cap stopped
            continue
        chunks, fraction = context.memo[key]
        if cfg.mode == ANDOR_ENUM:
            fresh = extract_andor(aot, cutnodes, cfg.max_chunks)
            want = reference_extract_andor(aot, cutnodes, cfg.max_chunks)
        else:
            fresh = extract_training(bank.training, aot, cutnodes)
            want = reference_extract_training(bank.training, aot, cutnodes)
        records = [(render_tree(c), n) for c, n in chunks]
        assert records == [(render_tree(c), n) for c, n in fresh]
        assert rule_records(name_rules(chunks, aot.inventory)) == rule_records(want)
        rules = name_rules(fresh, aot.inventory)
        report = evaluate_coverage(rules, bank.test)
        assert fraction == report.fraction
        for tree, tiling in zip(bank.test, report.tilings):
            assert tiling == reference_covers(rules, tree)
        for (chunk, _), (text, _) in zip(chunks, records):
            assert one_object.setdefault(text, chunk) is chunk
    return sum(key in context.memo for key in probed)
