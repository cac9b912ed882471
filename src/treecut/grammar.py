"""Context-free rule inventories and lexicalized parse trees.

A grammar file declares one rule per line, ``<rule_id> <lhs> -> <rhs...>``.
Categories are bare case-sensitive symbols; a category that never occurs
as a left-hand side is terminal and is filled by lexical lookups.  The
rule id ``lex`` is reserved for the lexical lookup pseudo-rule and may
not be declared.

Treebank files hold one parse tree per S-expression: ``(rule child...)``
for an application of ``rule``, ``(lex word)`` for a lexical lookup.
Both internal applications and lexical lookups may fill any slot.
"""

from dataclasses import dataclass

from treecut.sexpr import Symbol, SexprError, quote_if_needed, read_all

LEX = "lex"


class GrammarFormatError(Exception):
    """Malformed grammar file line (carries the 1-based line number)."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateRuleIdError(GrammarFormatError):
    pass


class TreebankFormatError(Exception):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


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
    order: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.order:
            self.order = tuple(self.rules)

    def __getitem__(self, rule_id: str) -> GrammarRule:
        return self.rules[rule_id]

    def __contains__(self, rule_id: str) -> bool:
        return rule_id in self.rules

    def in_order(self) -> list[GrammarRule]:
        return [self.rules[r] for r in self.order]

    @property
    def phrase_categories(self) -> frozenset[str]:
        return frozenset(r.lhs for r in self.rules.values())


@dataclass(frozen=True)
class LexLeaf:
    """A lexical lookup yielding one word."""

    word: str


@dataclass(frozen=True)
class Internal:
    """An application of a grammar rule to child subtrees."""

    rule: str
    children: tuple

    def __iter__(self):
        return iter(self.children)


ParseTree = Internal | LexLeaf


@dataclass
class Treebank:
    """Training and held-out test parses over one inventory."""

    inventory: RuleInventory
    training: list
    test: list


def parse_rule_inventory(text: str, top: str, strict: bool = False) -> RuleInventory:
    """Parse a grammar file.

    ``top`` names the root category of complete parses.  With ``strict``
    every rhs category must also occur as some lhs, which rejects
    grammars whose terminals are lexicon-filled; it is off by default.
    """
    rules: dict[str, GrammarRule] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
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
        rule_id, lhs = tokens[0], tokens[1]
        rhs = tuple(tokens[arrow + 1:])
        if rule_id == LEX:
            raise GrammarFormatError(f"rule id '{LEX}' is reserved", line_no)
        if rule_id in rules:
            raise DuplicateRuleIdError(f"duplicate rule id '{rule_id}'", line_no)
        rules[rule_id] = GrammarRule(rule_id, lhs, rhs)
    inv = RuleInventory(rules, top)
    if strict:
        known = inv.phrase_categories
        for rule in inv.in_order():
            for cat in rule.rhs:
                if cat not in known:
                    raise GrammarFormatError(
                        f"rhs category '{cat}' of '{rule.rule_id}' "
                        "never occurs as a lhs",
                        0,
                    )
    return inv


def infer_rule_from_id(rule_id: str) -> GrammarRule | None:
    """Read ``<lhs>_<rhs1>_<rhs2>...`` off a mnemonic rule id.

    Returns None for ids without an underscore.  Offered as a
    convenience check only; the grammar file stays authoritative.
    """
    parts = rule_id.split("_")
    if len(parts) < 2 or not all(parts):
        return None
    return GrammarRule(rule_id, parts[0], tuple(parts[1:]))


def mnemonic_mismatches(inv: RuleInventory) -> list[str]:
    """Rule ids whose mnemonic reading disagrees with the declaration."""
    bad = []
    for rule in inv.in_order():
        inferred = infer_rule_from_id(rule.rule_id)
        if inferred is not None and (inferred.lhs, inferred.rhs) != (rule.lhs, rule.rhs):
            bad.append(rule.rule_id)
    return bad


def _tree_from_sexpr(expr, inv: RuleInventory) -> ParseTree:
    if isinstance(expr, Symbol):
        raise TreebankFormatError(
            f"bare symbol '{expr.text}' outside a rule application", expr.line_no
        )
    if not expr:
        raise TreebankFormatError("empty '()' expression", 0)
    head = expr[0]
    if not isinstance(head, Symbol):
        raise TreebankFormatError("expression head must be a rule id", 0)
    if head.text == LEX:
        if len(expr) != 2 or not isinstance(expr[1], Symbol):
            raise ArityMismatchError(
                f"'{LEX}' takes exactly one word", head.line_no
            )
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
        child = _tree_from_sexpr(sub, inv)
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


def parse_treebank(text: str, inv: RuleInventory, require_top: bool = False) -> list:
    """Parse every tree in a treebank file, validating against *inv*."""
    try:
        exprs = read_all(text)
    except SexprError as err:
        raise TreebankFormatError(str(err).split(": ", 1)[1], err.line_no) from err
    trees = []
    for expr in exprs:
        tree = _tree_from_sexpr(expr, inv)
        if require_top:
            if isinstance(tree, LexLeaf):
                raise TreebankFormatError(
                    "a complete parse cannot be a bare lexical lookup", 0
                )
            root_lhs = inv[tree.rule].lhs
            if root_lhs != inv.top:
                raise CategoryMismatchError(
                    f"root category '{root_lhs}' is not '{inv.top}'", 0
                )
            if yield_length(tree) == 0:
                raise TreebankFormatError(
                    "a complete parse must span at least one word", 0
                )
        trees.append(tree)
    return trees


def render_tree(tree: ParseTree) -> str:
    """Single-line S-expression form; inverse of parse_treebank."""
    if isinstance(tree, LexLeaf):
        return f"({LEX} {quote_if_needed(tree.word)})"
    inner = " ".join(render_tree(c) for c in tree.children)
    return f"({tree.rule} {inner})" if inner else f"({tree.rule})"


def render_treebank(trees: list) -> str:
    return "".join(render_tree(t) + "\n" for t in trees)


def yield_length(tree: ParseTree) -> int:
    """Number of lexical lookups dominated by *tree*."""
    if isinstance(tree, LexLeaf):
        return 1
    return sum(yield_length(c) for c in tree.children)


def tree_size(tree: ParseTree) -> int:
    """Total node count, lexical leaves included."""
    if isinstance(tree, LexLeaf):
        return 1
    return 1 + sum(tree_size(c) for c in tree.children)


def subtree_at(tree: ParseTree, path: tuple[int, ...]) -> ParseTree:
    """Follow 0-based child indices from the root."""
    node = tree
    for k in path:
        node = node.children[k]
    return node
