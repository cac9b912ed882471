"""Extraction of specialized rules from cut parse trees.

A specialized rule is a chunk: a connected piece of tree structure whose
leaves are lexical slots (``(lex cat)``, filled by lexicon lookup) and
frontiers (bare category symbols, filled by another rule or by a direct
lexicon lookup).  Cutting happens at child positions whose or-node class
is cut.  A cut child that is itself a lexical lookup becomes a frontier
with no subrule of its own, so no degenerate one-word rules are emitted;
a cut child spanning no words at all stays inline, since a chunk
boundary there could never be re-filled.

Two modes: ``training`` cuts exactly the observed trees, ``andor``
enumerates every arc combination the index supports.  Training chunks
are always a subset of the enumerated ones.
"""

import hashlib
from dataclasses import dataclass

from treecut.andor import AndOrTree, OrNode, PathNotInIndexError
from treecut.cutnodes import CutnodeSet
from treecut.grammar import LEX, Internal, LexLeaf, RuleInventory, shape_groups
from treecut.sexpr import read_all

TRAINING_CUT = "training"
ANDOR_ENUM = "andor"

DEFAULT_MAX_CHUNKS = 100000


class ChunkExplosionError(Exception):
    """Enumeration exceeded the chunk cap or hit recursive classes."""


class RuleFileError(Exception):
    pass


@dataclass(frozen=True)
class LexSlot:
    """A lexical lookup kept inside the chunk; category of the slot."""

    category: str


@dataclass(frozen=True)
class Frontier:
    """An open position to be filled by a rule of this category."""

    category: str


@dataclass(frozen=True)
class Apply:
    """An inlined application of a grammar rule."""

    rule: str
    children: tuple


ChunkTree = Apply | LexSlot | Frontier


def render_chunk(chunk: ChunkTree) -> str:
    """Canonical S-expression: identity, hashing and file format."""
    kind = chunk.__class__
    if kind is LexSlot:
        return f"(lex {chunk.category})"
    if kind is Frontier:
        return chunk.category
    # every part after the root's opens with its separating space; the
    # stack holds the chunks still to render and the ")" that close them
    parts = ["(" + chunk.rule]
    stack: list = [")", *reversed(chunk.children)]
    while stack:
        item = stack.pop()
        kind = item.__class__
        if kind is Apply:
            parts.append(" (" + item.rule)
            stack.append(")")
            stack.extend(reversed(item.children))
        elif kind is LexSlot:
            parts.append(" (lex " + item.category + ")")
        elif kind is Frontier:
            parts.append(" " + item.category)
        else:
            parts.append(item)
    return "".join(parts)


def flat_rhs(chunk: ChunkTree) -> tuple[str, ...]:
    """Left-to-right leaf categories: the flattened rule body."""
    out: list[str] = []
    stack = [chunk]
    while stack:
        node = stack.pop()
        if node.__class__ is Apply:
            stack.extend(reversed(node.children))
        else:
            out.append(node.category)
    return tuple(out)


def rule_name(lhs: str, chunk: ChunkTree) -> str:
    digest = hashlib.sha1(render_chunk(chunk).encode()).hexdigest()[:8]
    return f"{lhs}_{digest}"


@dataclass
class SpecializedRule:
    name: str
    lhs: str
    chunk: Apply
    rhs: tuple[str, ...]
    support: int = 0

    @property
    def reduction_length(self) -> int:
        return len(self.rhs)

    def flat_form(self) -> str:
        return f"{self.lhs} => {' '.join(self.rhs)}"


@dataclass
class RuleSet:
    rules: list[SpecializedRule]

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def flat_forms(self) -> set[str]:
        return {r.flat_form() for r in self.rules}

    def chunk_keys(self) -> frozenset[str]:
        return frozenset(render_chunk(r.chunk) for r in self.rules)


class _Collector:
    def __init__(self, inv: RuleInventory):
        self.inv = inv
        self.chunks: dict[str, SpecializedRule] = {}

    def add(self, chunk: Apply, occurrences: int) -> None:
        key = render_chunk(chunk)
        rule = self.chunks.get(key)
        if rule is None:
            rhs = flat_rhs(chunk)
            if not rhs:  # a chunk spanning no slot is no rule
                return
            lhs = self.inv[chunk.rule].lhs
            rule = SpecializedRule(
                name=rule_name(lhs, chunk), lhs=lhs, chunk=chunk, rhs=rhs
            )
            self.chunks[key] = rule
        rule.support += occurrences

    def result(self) -> RuleSet:
        return RuleSet(sorted(self.chunks.values(), key=lambda r: (r.lhs, r.name)))


def cut_tree(tree: Internal, aot: AndOrTree, cutset: CutnodeSet) -> list[Apply]:
    """Chunks of one training tree under the cutnode assignment.

    The first chunk is rooted at the tree root; one more per frontier
    whose subtree spans at least one word.
    """
    pending: list[tuple[Internal, OrNode]] = [(tree, aot.root)]
    chunks: list[Apply] = []

    def arc(node: Internal, or_node: OrNode):
        and_node = or_node.arcs.get(node.rule)
        if and_node is None:
            raise PathNotInIndexError(
                f"rule '{node.rule}' unseen at {or_node.node_id}"
            )
        return and_node.children

    def build(node: Internal, or_node: OrNode) -> Apply:
        # one frame per inlined node: (node, its child or-nodes, parts so
        # far); a frame's next child is the one at index len(parts)
        stack = [(node, arc(node, or_node), [])]
        while True:
            node, child_ors, parts = stack[-1]
            k = len(parts)
            if k == len(child_ors):
                stack.pop()
                chunk = Apply(node.rule, tuple(parts))
                if not stack:
                    return chunk
                stack[-1][2].append(chunk)
                continue
            child, child_or = node.children[k], child_ors[k]
            if isinstance(child, LexLeaf):
                if cutset.is_cut(child_or.node_id):
                    parts.append(Frontier(child_or.category))
                else:
                    parts.append(LexSlot(child_or.category))
            elif cutset.is_cut(child_or.node_id) and child.length > 0:
                parts.append(Frontier(child_or.category))
                pending.append((child, child_or))
            else:
                stack.append((child, arc(child, child_or), []))

    for node, or_node in pending:  # grows while it is walked
        chunks.append(build(node, or_node))
    return chunks


def extract_training(
    training: list, aot: AndOrTree, cutset: CutnodeSet
) -> RuleSet:
    """Union of per-tree chunks, deduplicated, with occurrence support.

    Cutting reads only a tree's word-blind shape, so each distinct root
    shape is cut once and its chunks count once for every tree of that
    shape.
    """
    collector = _Collector(aot.inventory)
    for tree, n in shape_groups(training):
        for chunk in cut_tree(tree, aot, cutset):
            collector.add(chunk, n)
    return collector.result()


def _run_calls(call):
    """Run *call*, a generator, and return what it returns.

    A generator here asks for a sub-call by yielding another such
    generator and gets back that call's result.  Calls wait on an
    explicit stack, so their depth is bounded by memory, not by the
    interpreter's recursion limit.
    """
    stack = [call]
    value = None
    while True:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            value = done.value
        else:
            stack.append(call)
            value = None


def extract_andor(
    aot: AndOrTree,
    cutset: CutnodeSet,
    max_chunks: int = DEFAULT_MAX_CHUNKS,
) -> RuleSet:
    """Every chunk shape the index supports for the cut classes.

    Chunk roots are the root's class and every cut class; lexical arcs
    never root a chunk.  Bodies are enumerated once per class and
    reused.  Raises ChunkExplosionError past *max_chunks* or when class
    merging has produced a self-recursive structure.  The walks below
    are written as recursion, but each sub-call is a generator that
    ``_run_calls`` keeps on its own stack.
    """
    budget = {"left": max_chunks}
    memo: dict[int, list[Apply]] = {}
    # classes whose expansion has begun: a finished one is served from
    # memo first, so one met here again is still on the walk's path
    started: set[int] = set()

    def class_of(node: OrNode):
        return cutset.class_of(node.node_id)

    def spend(n: int = 1) -> None:
        budget["left"] -= n
        if budget["left"] < 0:
            raise ChunkExplosionError(f"more than {max_chunks} chunks")

    wordless_memo: dict[int, list[Apply]] = {}

    def wordless_pieces(node: OrNode):
        """Expansions at this index position spanning no words.

        Walks the index itself, not the class graph: index nodes form a
        finite tree, so this terminates even when class merging is
        cyclic.
        """
        if node.seq in wordless_memo:
            return wordless_memo[node.seq]
        out: list[Apply] = []
        for rule, and_node in node.sorted_arcs():
            if rule == LEX:
                continue
            combos: list[tuple] = [()]
            for child in and_node.children:
                alternatives = yield wordless_pieces(child)
                combos = [
                    prefix + (alt,) for prefix in combos for alt in alternatives
                ]
                if combos:
                    spend(len(combos))
            out.extend(Apply(rule, combo) for combo in combos)
        wordless_memo[node.seq] = out
        return out

    def position_alternatives(node: OrNode):
        cls = class_of(node)
        if cls.cut:
            # a boundary at a wordless expansion could never be
            # re-filled, so those shapes stay available inline
            alts: list[ChunkTree] = [Frontier(node.category)]
            seen: set[str] = set()
            for member in cls.members:
                for piece in (yield wordless_pieces(member)):
                    key = render_chunk(piece)
                    if key not in seen:
                        seen.add(key)
                        alts.append(piece)
            return alts
        alts = []
        if any(LEX == rule for m in cls.members for rule in m.arcs):
            alts.append(LexSlot(node.category))
        alts.extend((yield expansions(cls)))
        return alts

    def expansions(cls):
        key = cls.representative.seq
        if key in memo:
            return memo[key]
        if key in started:
            raise ChunkExplosionError(
                f"recursive class structure at {cls.representative.node_id}"
            )
        started.add(key)
        out: list[Apply] = []
        seen_shapes: set[tuple] = set()
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
                slots = []
                for c in and_node.children:
                    slots.append((yield position_alternatives(c)))
                combos: list[tuple] = [()]
                for alternatives in slots:
                    combos = [
                        prefix + (alt,) for prefix in combos for alt in alternatives
                    ]
                    spend(len(combos))
                for combo in combos:
                    out.append(Apply(rule, combo))
        memo[key] = out
        return out

    collector = _Collector(aot.inventory)
    roots = [class_of(aot.root)]
    for cls in sorted(cutset.cut_classes(), key=lambda c: c.representative.seq):
        if cls is not roots[0]:
            roots.append(cls)
    for cls in roots:
        for chunk in _run_calls(expansions(cls)):
            collector.add(chunk, 0)
    return collector.result()


def validate_rules(rules: RuleSet, inv: RuleInventory) -> RuleSet:
    """Check every chunk against the inventory's arities and categories.

    Returns *rules*; raises RuleFileError on the first violation.
    """

    def grammar_rule(rule_id: str):
        if rule_id not in inv:
            raise RuleFileError(f"unknown rule id '{rule_id}'")
        return inv[rule_id]

    for rule in rules:
        if rule.reduction_length == 0:
            raise RuleFileError(f"rule '{rule.name}' has an empty body")
        if grammar_rule(rule.chunk.rule).lhs != rule.lhs:
            raise RuleFileError(f"rule '{rule.name}' lhs mismatch")
        # each piece with the category its slot wants, in preorder
        stack = [(rule.chunk, rule.lhs)]
        while stack:
            chunk, expected_cat = stack.pop()
            if chunk.__class__ is not Apply:
                if chunk.category != expected_cat:
                    raise RuleFileError(
                        f"leaf category '{chunk.category}', slot wants '{expected_cat}'"
                    )
                continue
            grammar = grammar_rule(chunk.rule)
            if grammar.lhs != expected_cat:
                raise RuleFileError(
                    f"'{chunk.rule}' has category '{grammar.lhs}', slot wants "
                    f"'{expected_cat}'"
                )
            if len(chunk.children) != grammar.arity:
                raise RuleFileError(f"'{chunk.rule}' arity {grammar.arity} violated")
            stack.extend(reversed(list(zip(chunk.children, grammar.rhs))))
    return rules


def render_rule_file(rules: RuleSet) -> str:
    """One record per rule: flat line, indented chunk, support line."""
    lines = []
    for rule in rules:
        if lines:
            lines.append("")
        lines.append(f"{rule.name}: {rule.flat_form()}")
        lines.append(f"  {render_chunk(rule.chunk)}")
        lines.append(f"  support: {rule.support}")
    return "\n".join(lines) + "\n"


def _close_chunk(items: list, at: int):
    """Fold one list of a chunk text into its piece when its ')' is read.

    A list that fails its own check becomes the RuleFileError to raise;
    one that passes but holds a faulty list passes on its first, so the
    error is the first a walk from the chunk's root would meet.  Bare
    symbols below the root are frontiers.
    """
    if not items or items[0].__class__ is not str:
        return RuleFileError("malformed chunk expression")
    head = items[0]
    if head == "lex":
        if len(items) != 2 or items[1].__class__ is not str:
            return RuleFileError("lex slot takes exactly one category")
        return LexSlot(items[1])
    children = []
    for item in items[1:]:
        if item.__class__ is RuleFileError:
            return item
        children.append(Frontier(item) if item.__class__ is str else item)
    return Apply(head, tuple(children))


def parse_rule_file(text: str) -> RuleSet:
    """Inverse of render_rule_file; flat lines are cross-checked."""
    rules: list[SpecializedRule] = []
    record: list[str] = []

    def finish(lines: list[str]) -> None:
        head = lines[0]
        if ":" not in head or "=>" not in head:
            raise RuleFileError(f"malformed rule header: {head!r}")
        name, flat = head.split(":", 1)
        lhs, symbols = flat.split("=>", 1)
        support = 0
        body: list[str] = []
        for line in lines[1:]:
            stripped = line.strip()
            if stripped.startswith("support:"):
                count = stripped.split(":", 1)[1].strip()
                if not count.isdigit():
                    raise RuleFileError(
                        f"rule {name.strip()!r}: support {count!r} is not a count"
                    )
                support = int(count)
            else:
                body.append(line)
        exprs = read_all("\n".join(body), _close_chunk)
        if len(exprs) != 1:
            raise RuleFileError(f"rule {name.strip()!r} needs exactly one chunk")
        chunk = exprs[0]
        if chunk.__class__ is RuleFileError:
            raise chunk
        if chunk.__class__ is not Apply:
            raise RuleFileError(f"rule {name.strip()!r} chunk must be an application")
        rule = SpecializedRule(
            name=name.strip(),
            lhs=lhs.strip(),
            chunk=chunk,
            rhs=flat_rhs(chunk),
            support=support,
        )
        declared = tuple(symbols.split())
        if declared != rule.rhs:
            raise RuleFileError(
                f"rule {rule.name!r}: flat line {declared} does not match "
                f"chunk {rule.rhs}"
            )
        rules.append(rule)

    for raw in text.splitlines():
        if raw.strip().startswith("#"):
            continue
        if not raw.strip():
            if record:
                finish(record)
                record = []
        else:
            record.append(raw)
    if record:
        finish(record)
    return RuleSet(rules)
