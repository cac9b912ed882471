"""Context-free rule inventories and lexicalized parse trees.

A grammar file declares one rule per line, ``<rule_id> <lhs> -> <rhs...>``.
Rule ids and categories are bare case-sensitive symbols: runs of
characters other than whitespace, '(', ')', '"' and '#', the last of
which starts a comment.  So each can be written unquoted into a tree or
a rule-file chunk.  A category that never occurs as a left-hand side is
terminal and is filled by lexical lookups.  The rule id ``lex`` is
reserved for the lexical lookup pseudo-rule and may not be declared.

Treebank files hold one parse tree per S-expression: ``(rule child...)``
for an application of ``rule``, ``(lex word)`` for a lexical lookup.
Both internal applications and lexical lookups may fill any slot.  A
chunk (see ``extraction``) is a fragment of such a tree: the same
``Internal`` applications, with ``LexSlot`` and ``Frontier`` leaves
where a tree has a ``LexLeaf``, and ``render_tree`` writes both.

The loader checks and builds each distinct list text once.  A text with
no '"', '#' or NUL character is peeled in rounds.  Each round splits
the text at its innermost lists, the ones that hold no list, folds each
distinct list text not seen before into its node, and joins the text
back with a placeholder symbol in place of every such list.
Rounds stop when no list is left or when a round shrinks the text by
less than a tenth, so a deep chain costs a few rounds, not its depth.
The token reader, ``sexpr.read_all``, then reads what is left, seeing
each placeholder as its node.  Any fault sends the whole original text
through the token reader alone, so every error keeps its class, message
and line.

A list that fails its checks folds into a ``sexpr.Fault``, the one
stand-in for a node at fault.  Text errors come first, then a list's
own checks before its children's, children in order.
"""

import re
from dataclasses import dataclass

from treecut.sexpr import (
    LINE_BREAK,
    Fault,
    LineNumberedError,
    SexprError,
    quote_if_needed,
    read_all,
    universal_newlines,
)

LEX = "lex"


class GrammarFormatError(LineNumberedError):
    """Malformed grammar file line."""


class DuplicateRuleIdError(GrammarFormatError):
    pass


class TreebankFormatError(LineNumberedError):
    """Malformed or invalid treebank text."""


class UnknownRuleIdError(TreebankFormatError):
    pass


class ArityMismatchError(TreebankFormatError):
    pass


class CategoryMismatchError(TreebankFormatError):
    pass


@dataclass(frozen=True)
class GrammarRule:
    """A named production: lhs expands to the rhs category sequence."""

    rule_id: str
    lhs: str
    rhs: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.rhs)


@dataclass
class RuleInventory:
    """All rules of a grammar plus the root category of complete parses."""

    rules: dict[str, GrammarRule]
    top: str

    def __getitem__(self, rule_id: str) -> GrammarRule:
        return self.rules[rule_id]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self.rules

    def in_order(self) -> list[GrammarRule]:
        """Rules in the order the grammar file declares them."""
        return list(self.rules.values())


@dataclass(frozen=True)
class Slot:
    """One attachment slot of a rule: position 0 is the LHS, k >= 1 the
    k-th RHS position."""

    rule: str
    position: int


@dataclass(frozen=True, slots=True)
class LexLeaf:
    """A lexical lookup yielding one word."""

    word: str

    # every leaf, LexSlot and Frontier too, counts one in Internal.length
    length = 1


@dataclass(frozen=True, slots=True)
class LexSlot:
    """A chunk's lexical slot, filled by a lexicon lookup of its category."""

    category: str

    length = 1


@dataclass(frozen=True, slots=True)
class Frontier:
    """A chunk's open position, filled by a rule or a lexicon lookup."""

    category: str

    length = 1


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Internal:
    """An application of a grammar rule to children: a node of a parse
    tree, whose leaves are ``LexLeaf``, or of a chunk, whose leaves are
    ``LexSlot`` and ``Frontier``.

    ``length`` is the number of leaves below the node: in a tree the
    lexical lookups it dominates (its yield length), in a chunk the
    symbols of the rule body (its reduction length).  The loader passes
    it in; when it is left out it is worked out from the children's.

    Nodes are equal when their rules and leaves are, a leaf by its own
    ``==``.  The loader and ``extraction.Pieces`` build equal subtrees
    as one object, so ``==`` skips any pair of subtrees that are one
    object.  ``==`` and ``repr`` walk with a stack, so their depth is
    bounded by memory, not by the interpreter's recursion limit, and
    ``hash`` reads only the root.
    """

    rule: str
    children: tuple
    length: int = -1

    def __post_init__(self):
        if self.length < 0:
            object.__setattr__(self, "length", sum(c.length for c in self.children))

    def __eq__(self, other):
        if other.__class__ is not Internal:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__:
                return False
            if a.__class__ is not Internal:
                if a != b:
                    return False
            elif (a.rule != b.rule or a.length != b.length
                  or len(a.children) != len(b.children)):
                return False
            else:
                stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        return hash((self.rule, self.length))

    def __repr__(self):
        return f"Internal({render_tree(self)})"


def shape_groups(trees: list) -> list[list]:
    """``[first tree, multiplicity]`` per distinct tree object of *trees*.

    Groups come in the order their objects are first seen.  The loader
    builds each word-blind shape of a file as one object, so word-blind
    stages work on each group's first tree once and weight it by the
    multiplicity.
    """
    groups: dict[int, list] = {}
    for tree in trees:
        group = groups.get(id(tree))
        if group is None:
            groups[id(tree)] = [tree, 1]
        else:
            group[1] += 1
    return list(groups.values())


@dataclass
class Treebank:
    """Training and held-out test parses over one inventory."""

    inventory: RuleInventory
    training: list
    test: list


# A character that a symbol written into an S-expression may not hold.
_DELIMITER = re.compile(r'[()"]')


def parse_rule_inventory(text: str, top: str) -> RuleInventory:
    """Parse a grammar file; ``top`` names the root category of complete parses."""
    rules: dict[str, GrammarRule] = {}
    for line_no, raw in enumerate(LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if "->" not in tokens:
            raise GrammarFormatError("missing '->'", line_no)
        arrow = tokens.index("->")
        if arrow != 2:
            raise GrammarFormatError(
                "expected '<rule_id> <lhs> -> <rhs ...>'", line_no
            )
        for symbol in tokens:
            delimiter = _DELIMITER.search(symbol)
            if delimiter:
                raise GrammarFormatError(
                    f"symbol '{symbol}' holds '{delimiter[0]}'", line_no
                )
        rule_id, lhs = tokens[0], tokens[1]
        rhs = tuple(tokens[arrow + 1:])
        if rule_id == LEX:
            raise GrammarFormatError(f"rule id '{LEX}' is reserved", line_no)
        if rule_id in rules:
            raise DuplicateRuleIdError(f"duplicate rule id '{rule_id}'", line_no)
        rules[rule_id] = GrammarRule(rule_id, lhs, rhs)
    return RuleInventory(rules, top)


def parse_treebank(text: str, inv: RuleInventory, require_top: bool = False) -> list:
    """Parse every tree in a treebank file, validating against *inv*.

    Each tree is built bottom-up: every list is checked and folded into
    a node (or a ``Fault``) once its items are, each distinct list text once
    (see the module docstring).  Equal subtrees of one call are one
    object: one ``LexLeaf`` per word, and one ``Internal`` per rule and
    child objects.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` (see
    ``sexpr.universal_newlines``).
    """
    return _fold(universal_newlines(text), inv, require_top, {})


def _fold(text: str, inv: RuleInventory, require_top: bool, leaves: dict | None):
    """``parse_treebank`` with *leaves* as its word-to-leaf memo; with
    *leaves* None every word is read as one ``LexLeaf("_")``."""
    rules = inv.rules
    lhs_of = {rule_id: rule.lhs for rule_id, rule in rules.items()}
    # Children are folded first, so equal lists have identical children.
    # No child's id is reused while the memo holds the node above it.
    nodes: dict[tuple, Internal] = {}
    blank = LexLeaf("_")

    def close(items: list, at: int):
        if not items:
            return Fault(TreebankFormatError, "empty '()' expression", at)
        head = items[0]
        if head.__class__ is not str:
            message = "expression head must be a rule id"
            return Fault(TreebankFormatError, message, at, 0)
        if head == LEX:
            if len(items) != 2 or items[1].__class__ is not str:
                message = f"'{LEX}' takes exactly one word"
                return Fault(ArityMismatchError, message, at, 0)
            if leaves is None:
                return blank
            word = items[1]
            leaf = leaves.get(word)
            if leaf is None:
                leaf = leaves[word] = LexLeaf(word)
            return leaf
        children = tuple(items[1:])
        ident = (head, *map(id, children))
        if ident in nodes:  # a list seen before passed every check below
            return nodes[ident]
        rule = rules.get(head)
        if rule is None:
            return Fault(UnknownRuleIdError, f"unknown rule id '{head}'", at, 0)
        rhs = rule.rhs
        if len(items) - 1 != len(rhs):
            return Fault(
                ArityMismatchError,
                f"'{head}' expects {len(rhs)} children, got {len(items) - 1}",
                at,
                0,
            )
        length = 0
        for k, want in enumerate(rhs, start=1):
            child = items[k]
            kind = child.__class__
            if kind is Internal:
                got = lhs_of[child.rule]
                if got != want:
                    return Fault(
                        CategoryMismatchError,
                        f"child {k} of '{head}' has category "
                        f"'{got}', expected '{want}'",
                        at,
                        0,
                    )
                length += child.length
            elif kind is LexLeaf:
                length += 1
            elif kind is Fault:
                return child
            else:
                return _bare_symbol(child, at, k)
        # the inventory's id string is shared by every node of the rule
        node = nodes[ident] = Internal(rule.rule_id, children, length)
        return node

    try:
        trees = _peel(text, close)
        if trees is None:
            trees = read_all(text, close)
    except SexprError as err:
        raise TreebankFormatError(err.message, err.line_no) from err
    for k, tree in enumerate(trees):
        kind = tree.__class__
        if kind is Fault:
            raise tree.error(text)
        if kind is str:
            raise _bare_symbol(tree, None, k).error(text)
        if require_top:
            error_class, message = TreebankFormatError, None
            if kind is LexLeaf:
                message = "a complete parse cannot be a bare lexical lookup"
            elif lhs_of[tree.rule] != inv.top:
                error_class = CategoryMismatchError
                message = f"root category '{lhs_of[tree.rule]}' is not '{inv.top}'"
            elif tree.length == 0:
                message = "a complete parse must span at least one word"
            if message is not None:
                raise Fault(error_class, message, None, k).error(text)
    return trees


# An innermost list, one that holds no list, and the text inside it.  The
# lookahead and backreference keep the regex from backtracking into the
# text when a '(' follows it, as a possessive ``*+`` would on Python 3.11.
_INNERMOST = re.compile(r"\((?=([^()]*))\1\)")
# Opens every placeholder symbol of a peeled list; a text that holds it
# is not peeled.
_HOLE = "\x00"
# Peeling ends after a round that leaves more than this share of its text.
_KEEP = 0.9
# A round splits the text in blocks of this many characters and a little
# more, so that the parts it holds at once stay few however long the text.
_BLOCK = 1 << 16


def _peel(text: str, close) -> list | None:
    """The items of *text* folded by *close*, each distinct list text once.

    Each round splits the text at its innermost lists, a block of about
    ``_BLOCK`` characters at a time, cut before a '('.  It folds each
    list text not seen before, in the order first seen, and joins the
    text back with a placeholder symbol in place of every innermost
    list: ``\\x00<n>``, one per node, spaced off from its neighbours.
    Rounds end when no '(' is left or when a round leaves more than
    ``_KEEP`` of its text, so all rounds together scan at most
    ``1 / (1 - _KEEP)`` times the text.  What is left is read by
    ``read_all``, whose *close* sees each placeholder as its node.
    Returns None, so that the caller folds the text token by token, for
    text with a '"', a '#' or ``_HOLE`` or with unequal counts of '('
    and ')', and for text where a list fails its checks, a ')' comes
    before its '(', or an item is not a list.
    """
    if ('"' in text or "#" in text or _HOLE in text
            or text.count("(") != text.count(")")):
        return None
    node_of: dict[str, object] = {}  # placeholder symbol -> node
    named: dict[int, str] = {}  # id(node) -> its spaced placeholder
    names: dict[str, str] = {}  # list text -> its spaced placeholder

    def resolve(items) -> list:
        return list(map(node_of.get, items, items))

    while "(" in text:
        pieces = []
        start = 0
        while start < len(text):
            # no innermost list holds a '(' but its first character
            end = text.find("(", start + _BLOCK)
            if end < 0:
                end = len(text)
            parts = _INNERMOST.split(text[start:end])  # text, list text, ...
            for inner in dict.fromkeys(parts[1::2]):
                if inner in names:
                    continue
                node = close(resolve(inner.split()), -1)
                if node.__class__ is Fault:
                    return None
                name = named.get(id(node))
                if name is None:
                    symbol = f"{_HOLE}{len(named)}"
                    node_of[symbol] = node
                    name = named[id(node)] = f" {symbol} "
                names[inner] = name
            parts[1::2] = map(names.__getitem__, parts[1::2])
            pieces.append("".join(parts))
            start = end
        rest = "".join(pieces)
        done = len(rest) > _KEEP * len(text)
        text = rest
        if done:
            break
    try:
        items = resolve(read_all(text, lambda items, at: close(resolve(items), at)))
    except SexprError:
        return None
    for item in items:
        if item.__class__ is not Internal and item.__class__ is not LexLeaf:
            return None
    return items


# A lexical lookup of one bare word within a line, spaced in any way.
_LEX_WORD = re.compile(rf'\([^\S\n]*{LEX}[^\S\n]+[^\s()"#]+[^\S\n]*\)')


def parse_shapes(text: str, inv: RuleInventory) -> list:
    """``parse_treebank(text, inv, require_top=True)`` without the words.

    Nothing after loading reads a word, and a treebank repeats few
    word-blind trees many times.  So every word is read as ``_``, and
    each word-blind subtree of the text is one object.  When every line
    that is not blank or a whole-line comment holds one tree, each
    distinct line is folded once by ``parse_treebank`` and every line
    with that text gets the same tree object.  Any other text, and any
    text with a fault, is folded as a whole, so errors keep the class,
    message and line ``parse_treebank`` gives them.
    """
    text = universal_newlines(text)
    if '"' not in text:
        lines = (line.strip() for line in _LEX_WORD.sub(f"({LEX} _)", text).split("\n"))
        kept = [line for line in lines if line and line[0] != "#"]
        distinct = dict.fromkeys(kept)
        # A line is one tree when it is balanced, has no comment and the
        # fold finds no fault and as many trees as lines: every line then
        # opens and closes at depth 0 and holds at least one item.
        if all("#" not in line and line.count("(") == line.count(")")
               for line in distinct):
            try:
                trees = parse_treebank("\n".join(distinct), inv, require_top=True)
            except TreebankFormatError:
                trees = None
            if trees is not None and len(trees) == len(distinct):
                tree_of = dict(zip(distinct, trees))
                return [tree_of[line] for line in kept]
    return _fold(text, inv, True, None)


def _bare_symbol(word: str, at: int | None, k: int) -> Fault:
    return Fault(
        TreebankFormatError, f"bare symbol '{word}' outside a rule application", at, k
    )


def render_tree(tree) -> str:
    """Single-line S-expression form of a tree or a chunk: the inverse of
    ``parse_treebank`` and of a rule file's chunk reader.  A chunk's text
    is also its rule's identity, hashed into the rule name."""
    # every part opens with its separating space, the root's too; the
    # stack holds the subtrees still to render and the ")" that close them
    parts = []
    stack: list = [tree]
    while stack:
        item = stack.pop()
        kind = item.__class__
        if kind is Internal:
            parts.append(" (" + item.rule)
            stack.append(")")
            stack.extend(reversed(item.children))
        elif kind is LexLeaf:
            parts.append(f" ({LEX} {quote_if_needed(item.word)})")
        elif kind is LexSlot:
            parts.append(f" ({LEX} {item.category})")
        elif kind is Frontier:
            parts.append(" " + item.category)
        else:
            parts.append(item)
    return "".join(parts)[1:]

