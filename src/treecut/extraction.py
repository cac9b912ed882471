"""Extraction of specialized rules from cut parse trees.

A specialized rule is a chunk: a connected piece of tree structure, a
``grammar.Internal`` fragment whose leaves are lexical slots
(``LexSlot``, written ``(lex cat)``, filled by lexicon lookup) and
frontiers (``Frontier``, bare category symbols, filled by another rule
or by a direct lexicon lookup).  Cutting happens at child positions
whose or-node class is cut.  A cut child that is itself a lexical
lookup becomes a frontier with no subrule of its own, so no degenerate
one-word rules are emitted; a cut child spanning no words at all stays
inline, since a chunk boundary there could never be re-filled.

Two modes: ``training`` cuts exactly the observed trees, ``andor``
enumerates every arc combination the index supports.  Training chunks
are always a subset of the enumerated ones.  Both modes return the
distinct chunks that span a slot, each with its support, in first-seen
order: what a coverage verdict needs.  Rules are a plain list of
``SpecializedRule``, and ``name_rules`` alone builds them from chunks,
so only the chunks a report prints are rendered and named.

Both modes build their pieces through a ``Pieces`` store, which
hash-conses them, so equal chunks built through one store are one
object.  Each call makes its own store unless it is given one; a
coverage search hands one store to every extraction it makes, so a
chunk that several partitions share is one object across them, and
the search's ``coverage.VerdictTable`` matches it once per run.

Training mode also memoises the cutting itself: a subtree's piece, and
the chunk roots cut below it, depend only on the subtree's word-blind
shape and its or-node's cut class.  The loader builds each shape of a
file as one object, so a ``ChunkMemo`` builds each distinct ``(node,
class)`` once, however many trees and or-nodes reach it.

``parse_rule_file`` folds each chunk with ``sexpr.read_all``; a chunk
list at fault becomes a ``sexpr.Fault``, the one stand-in for a piece
at fault, raised at its line in the file.
"""

import hashlib
import re
from collections.abc import Iterator
from dataclasses import dataclass

from treecut.andor import AndOrTree, OrNode, PathNotInIndexError
from treecut.cutnodes import CutnodeSet
from treecut.grammar import (
    LEX, Frontier, Internal, LexLeaf, LexSlot, RuleInventory, render_tree, shape_groups
)
from treecut.sexpr import Fault, LineNumberedError, SexprError, read_all

TRAINING_CUT = "training"
ANDOR_ENUM = "andor"

DEFAULT_MAX_CHUNKS = 100000


class ChunkExplosionError(Exception):
    """Enumeration exceeded the chunk cap or hit recursive classes."""


class ChunkCapError(ChunkExplosionError):
    """Enumeration exceeded the chunk cap."""


class RuleFileError(Exception):
    """A rule set that is malformed, or that a grammar does not type."""


class RuleFileFormatError(RuleFileError, LineNumberedError):
    """A malformed record of a rule file, at the line in fault."""


def flat_rhs(chunk) -> tuple[str, ...]:
    """Left-to-right leaf categories: the flattened rule body."""
    out: list[str] = []
    stack = [chunk]
    while stack:
        node = stack.pop()
        if node.__class__ is Internal:
            stack.extend(reversed(node.children))
        else:
            out.append(node.category)
    return tuple(out)


def rule_name(lhs: str, chunk: Internal) -> str:
    digest = hashlib.sha1(render_tree(chunk).encode()).hexdigest()[:8]
    return f"{lhs}_{digest}"


@dataclass
class SpecializedRule:
    name: str
    lhs: str
    chunk: Internal
    rhs: tuple[str, ...]
    support: int = 0

    @property
    def reduction_length(self) -> int:
        return len(self.rhs)

    def flat_form(self) -> str:
        return f"{self.lhs} => {' '.join(self.rhs)}"


class Pieces:
    """Hash-consed chunk pieces: each distinct piece is built once.

    ``LexSlot`` and ``Frontier`` are kept per category and ``Internal``
    per rule and child objects.  Every child is itself a piece built
    here, so two pieces built through one ``Pieces`` are equal exactly
    when they are one object.  Keys hold the children's ids, never the
    children, whose ``==`` would walk them.
    """

    def __init__(self):
        self.applies: dict[tuple, Internal] = {}
        self.leaves: dict[tuple, LexSlot | Frontier] = {}

    def apply(self, rule: str, children) -> Internal:
        key = (rule, *map(id, children))
        piece = self.applies.get(key)
        if piece is None:
            piece = self.applies[key] = Internal(rule, tuple(children))
        return piece

    def leaf(self, kind: type, category: str) -> LexSlot | Frontier:
        piece = self.leaves.get((kind, category))
        if piece is None:
            piece = self.leaves[kind, category] = kind(category)
        return piece


def name_rules(chunks, inv: RuleInventory) -> list[SpecializedRule]:
    """The rules of *chunks*, ``[chunk, support]`` pairs as extraction
    returns them, each named once and sorted by lhs and name."""
    rules = []
    for chunk, count in chunks:
        lhs = inv[chunk.rule].lhs
        rules.append(
            SpecializedRule(rule_name(lhs, chunk), lhs, chunk, flat_rhs(chunk), count)
        )
    rules.sort(key=lambda r: (r.lhs, r.name))
    return rules


class _Position:
    """One (subtree node, or-node class) that training trees reach.

    ``node`` and ``or_node`` are its first occurrence, from which it is
    built.  Once built, ``piece`` is the subtree's chunk piece and
    ``below`` lists, left to right, what the piece leaves to later
    chunks: ``(position, True)`` for a chunk root cut below it, and
    ``(position, False)`` for an inlined child with such roots of its
    own.  ``roots`` is ``below`` flattened to the chunk roots alone,
    kept once a chunk is rooted here.
    """

    __slots__ = ("node", "or_node", "piece", "below", "roots")

    def __init__(self, node: Internal, or_node: OrNode):
        self.node = node
        self.or_node = or_node
        self.piece = None
        self.below = None
        self.roots = None


class ChunkMemo:
    """Every subtree position cut so far under one cut set.

    A subtree's piece, and the chunk roots cut below it, depend only on
    its word-blind shape and on the class of its or-node: the closure
    equates the children of equated or-nodes along each rule, so every
    position below lies in the same class, with the same cut flag and
    category, from any member.  So each ``(node, class)`` is built
    once, as one ``_Position``, whether a chunk is rooted there or it is
    inlined into a larger chunk, and every piece is hash-consed.  The
    cut set must be coherent, as ``closure`` and ``singleton_cutnodes``
    give, and the trees must be ones the index holds: a subtree met
    again under another member of its class is not looked up in the
    index again.  Positions belong to one cut set, but the *pieces*
    store may be shared with other memos: a piece that another
    partition built already is then that same object.
    """

    def __init__(self, cutset: CutnodeSet, *, pieces: Pieces | None = None):
        self.cutset = cutset
        self.positions: dict[tuple, _Position] = {}
        self.pieces = Pieces() if pieces is None else pieces

    def at(self, node: Internal, or_node: OrNode) -> _Position:
        """The position of *node* at *or_node*, built with all below it."""
        key = (id(node), id(self.cutset.node_to_class[or_node.node_id]))
        top = self.positions.get(key)
        if top is None:
            top = self.positions[key] = _Position(node, or_node)
        if top.piece is None:  # new, or left unbuilt by a failed build
            self._build(top)
        return top

    def _build(self, top: _Position) -> None:
        """Build *top* and every position below it not built yet,
        children first, on an explicit stack."""
        class_of = self.cutset.node_to_class
        positions = self.positions
        leaf, apply = self.pieces.leaf, self.pieces.apply
        # one frame per position being built: (position, its child
        # or-nodes, parts so far, below so far); a frame's next child is
        # the one at index len(parts), met again once it is built
        stack = [(top, _arc(top.node, top.or_node), [], [])]
        while stack:
            at, child_ors, parts, below = stack[-1]
            k = len(parts)
            if k == len(child_ors):
                stack.pop()
                at.piece = apply(at.node.rule, parts)
                at.below = below
                continue
            child, child_or = at.node.children[k], child_ors[k]
            cls = class_of[child_or.node_id]
            if child.__class__ is LexLeaf:
                parts.append(leaf(Frontier if cls.cut else LexSlot, child_or.category))
                continue
            key = (id(child), id(cls))
            sub = positions.get(key)
            if sub is None:
                sub = positions[key] = _Position(child, child_or)
            if sub.piece is None:
                stack.append((sub, _arc(child, child_or), [], []))
            elif cls.cut and child.length > 0:
                parts.append(leaf(Frontier, child_or.category))
                below.append((sub, True))
            else:
                parts.append(sub.piece)
                if sub.below:
                    below.append((sub, False))


def _roots(at: _Position) -> list[_Position]:
    """The chunk roots cut below *at*'s piece, left to right."""
    if at.roots is None:
        roots = []
        stack = at.below[::-1]
        while stack:
            sub, is_root = stack.pop()
            if is_root:
                roots.append(sub)
            else:
                stack.extend(reversed(sub.below))
        at.roots = roots
    return at.roots


def _arc(node: Internal, or_node: OrNode) -> list:
    and_node = or_node.arcs.get(node.rule)
    if and_node is None:
        raise PathNotInIndexError(f"rule '{node.rule}' unseen at {or_node.node_id}")
    return and_node.children


def cut_tree(
    tree: Internal, aot: AndOrTree, cutset: CutnodeSet, memo: ChunkMemo
) -> list[Internal]:
    """Chunks of one training tree under the cutnode assignment.

    The first chunk is rooted at the tree root; one more per frontier
    whose subtree spans at least one word, breadth first.  The *memo*
    for this cut set, shared across calls, builds each distinct chunk
    root and inlined subtree once (see ``ChunkMemo``).
    """
    if memo.cutset is not cutset:
        raise ValueError("the memo was built under another cut set")
    pending = [memo.at(tree, aot.root)]
    for at in pending:  # grows while it is walked
        pending.extend(_roots(at))
    return [at.piece for at in pending]


def extract_training(
    training: list, aot: AndOrTree, cutset: CutnodeSet, *, pieces: Pieces | None = None
) -> list:
    """Union of per-tree chunks, deduplicated, with occurrence support:
    the ``[chunk, support]`` pairs that span a slot, in first-seen order
    (a chunk spanning none is no rule).

    Cutting reads only a tree's word-blind shape, so each distinct root
    node is cut once and its chunks count once for every tree that is
    that object.  One ``ChunkMemo`` serves every root, so each distinct
    (subtree node, class) is built once and equal chunks are one object,
    built through *pieces* when it is given.

    A chunk spans a slot exactly when its root's subtree spans a word,
    and a chunk rooted below a tree root always does, since only a cut
    child with words roots one.  So only a wordless tree's root chunk,
    the one chunk such a tree has, is left out, and no chunk is walked.
    """
    support: dict[int, list] = {}  # id(chunk) -> [chunk, support]
    memo = ChunkMemo(cutset, pieces=pieces)
    for tree, n in shape_groups(training):
        chunks = cut_tree(tree, aot, cutset, memo)
        if tree.length == 0:
            continue
        for chunk in chunks:
            # most chunks are seen before, and setdefault would make a list
            entry = support.get(id(chunk))
            if entry is None:
                support[id(chunk)] = [chunk, n]
            else:
                entry[1] += n
    return list(support.values())


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
    *,
    pieces: Pieces | None = None,
) -> list:
    """Every chunk shape the index supports for the cut classes, as
    ``[chunk, 0]`` pairs that span a slot, in first-seen order.

    Chunk roots are the root's class and every cut class; lexical arcs
    never root a chunk.  A class's bodies, and an index position's
    wordless expansions, are each built once, as the product of one
    alternative per child slot.  Every partial product of that
    multiplication counts against *max_chunks*, wordless expansions
    included; past it, ChunkCapError.  ChunkExplosionError means class
    merging has produced a self-recursive structure.  The walks below
    are written as recursion, but each sub-call is a generator that
    ``_run_calls`` keeps on its own stack.  Pieces are hash-consed,
    through *pieces* when it is given, so a repeated alternative or
    chunk is the same object.
    """
    pieces = Pieces() if pieces is None else pieces
    class_of = cutset.node_to_class
    left = max_chunks
    bodies: dict[int, list[Internal]] = {}
    wordless: dict[int, list[Internal]] = {}
    # classes whose expansion has begun: a finished one is served from
    # bodies first, so one met here again is still on the walk's path
    started: set[int] = set()

    def combine(rule: str, slots: list) -> list[Internal]:
        """*rule* applied to every pick of one alternative per slot."""
        nonlocal left
        combos: list[tuple] = [()]
        for alternatives in slots:
            combos = [prefix + (alt,) for prefix in combos for alt in alternatives]
            left -= len(combos)
            if left < 0:
                raise ChunkCapError(f"more than {max_chunks} chunks")
        return [pieces.apply(rule, combo) for combo in combos]

    def wordless_pieces(node: OrNode):
        """Expansions at this index position spanning no words.

        Walks the index itself, not the class graph: index nodes form a
        finite tree, so this terminates even when class merging is
        cyclic.
        """
        if node.seq not in wordless:
            out: list[Internal] = []
            for rule, and_node in node.sorted_arcs():
                if rule != LEX:
                    slots = []
                    for child in and_node.children:
                        slots.append((yield wordless_pieces(child)))
                    out += combine(rule, slots)
            wordless[node.seq] = out
        return wordless[node.seq]

    def position_alternatives(node: OrNode):
        cls = class_of[node.node_id]
        if cls.cut:
            # a boundary at a wordless expansion could never be
            # re-filled, so those shapes stay available inline
            inline: dict[int, Internal] = {}
            for member in cls.members:
                for piece in (yield wordless_pieces(member)):
                    inline.setdefault(id(piece), piece)
            return [pieces.leaf(Frontier, node.category), *inline.values()]
        lexical = any(LEX in member.arcs for member in cls.members)
        lex = [pieces.leaf(LexSlot, node.category)] if lexical else []
        return lex + (yield expansions(cls))

    def expansions(cls):
        key = cls.representative.seq
        if key in bodies:
            return bodies[key]
        if key in started:
            raise ChunkExplosionError(
                f"recursive class structure at {cls.representative.node_id}"
            )
        started.add(key)
        out: list[Internal] = []
        seen_shapes: set[tuple] = set()
        for member in cls.members:
            for rule, and_node in member.sorted_arcs():
                if rule == LEX:
                    continue
                shape = (rule,) + tuple(
                    class_of[c.node_id].representative.seq for c in and_node.children
                )
                if shape in seen_shapes:
                    continue
                seen_shapes.add(shape)
                slots = []
                for child in and_node.children:
                    slots.append((yield position_alternatives(child)))
                out += combine(rule, slots)
        bodies[key] = out
        return out

    roots = dict.fromkeys([class_of[aot.root.node_id], *cutset.cut_classes()])
    support = {
        id(chunk): [chunk, 0] for cls in roots for chunk in _run_calls(expansions(cls))
    }
    return [entry for entry in support.values() if entry[0].length]


def validate_rules(
    rules: list[SpecializedRule], inv: RuleInventory
) -> list[SpecializedRule]:
    """Check every chunk against the inventory's arities and categories.

    Returns *rules*; raises RuleFileError on the first violation.
    """

    def grammar_rule(rule_id: str, name: str):
        if rule_id not in inv:
            raise RuleFileError(f"rule '{name}': unknown rule id '{rule_id}'")
        return inv[rule_id]

    for rule in rules:
        if rule.reduction_length == 0:
            raise RuleFileError(f"rule '{rule.name}' has an empty body")
        if grammar_rule(rule.chunk.rule, rule.name).lhs != rule.lhs:
            raise RuleFileError(f"rule '{rule.name}' lhs mismatch")
        # each piece with the category its slot wants, in preorder
        stack = [(rule.chunk, rule.lhs)]
        while stack:
            chunk, expected_cat = stack.pop()
            if chunk.__class__ is not Internal:
                if chunk.category != expected_cat:
                    raise RuleFileError(
                        f"rule '{rule.name}': leaf category '{chunk.category}', "
                        f"slot wants '{expected_cat}'"
                    )
                continue
            grammar = grammar_rule(chunk.rule, rule.name)
            if grammar.lhs != expected_cat:
                raise RuleFileError(
                    f"rule '{rule.name}': '{chunk.rule}' has category "
                    f"'{grammar.lhs}', slot wants '{expected_cat}'"
                )
            if len(chunk.children) != grammar.arity:
                raise RuleFileError(
                    f"rule '{rule.name}': '{chunk.rule}' arity {grammar.arity} violated"
                )
            stack.extend(reversed(list(zip(chunk.children, grammar.rhs))))
    return rules


def render_rule_file(rules: list[SpecializedRule]) -> Iterator[str]:
    """One record per rule, a blank line between records: flat line,
    indented chunk, support line.  No rules render as one empty line."""
    if not rules:
        yield "\n"
    for k, rule in enumerate(rules):
        if k:
            yield "\n"
        yield f"{rule.name}: {rule.flat_form()}\n"
        yield f"  {render_tree(rule.chunk)}\n"
        yield f"  support: {rule.support}\n"


def _close_chunk(items: list, at: int):
    """Fold one list of a chunk text into its piece when its ')' is read.

    A list that fails its own check becomes a ``Fault`` at its '('; one
    that passes but holds a faulty list passes on its first, so the error
    is the first a walk from the chunk's root would meet.  Bare symbols
    below the root are frontiers.
    """
    if not items or items[0].__class__ is not str:
        return Fault(RuleFileFormatError, "malformed chunk expression", at)
    head = items[0]
    if head == "lex":
        if len(items) != 2 or items[1].__class__ is not str:
            return Fault(RuleFileFormatError, "lex slot takes exactly one category", at)
        return LexSlot(items[1])
    children = []
    for item in items[1:]:
        if item.__class__ is Fault:
            return item
        children.append(Frontier(item) if item.__class__ is str else item)
    return Internal(head, tuple(children))


# Ends the name of a rule header, ``<name>: <lhs> => <body...>``: the
# first ':' before whitespace.  A category may hold ':' or '=>', never
# whitespace, so the rest splits into the lhs, '=>' and the body.
_NAME_END = re.compile(r":\s")


def parse_rule_file(text: str) -> list[SpecializedRule]:
    """Inverse of render_rule_file, rules in file order; flat lines are
    cross-checked.

    Every fault names its line in *text*: the header's for a malformed
    header, a missing chunk or a flat line that does not match its
    chunk; the support line's for a bad count; and the chunk's own lines
    for the rest.
    """
    rules: list[SpecializedRule] = []
    record: list[tuple[int, str]] = []  # (file line number, line)

    def finish(lines: list[tuple[int, str]]) -> None:
        header_no, head = lines[0]
        name, *flat = _NAME_END.split(head, 1)
        tokens = flat[0].split() if flat else []
        if len(tokens) < 2 or tokens[1] != "=>":
            raise RuleFileFormatError(f"malformed rule header: {head!r}", header_no)
        name = name.strip()
        support = 0
        body: list[tuple[int, str]] = []
        for line_no, line in lines[1:]:
            stripped = line.strip()
            if stripped.startswith("support:"):
                count = stripped.split(":", 1)[1].strip()
                if not count.isdecimal():  # int() rejects some digits
                    raise RuleFileFormatError(
                        f"rule {name!r}: support {count!r} is not a count",
                        line_no,
                    )
                support = int(count)
            else:
                body.append((line_no, line))
        chunk_text = "\n".join(line for _, line in body)

        def file_line(chunk_line: int) -> int:
            return body[chunk_line - 1][0]

        try:
            exprs = read_all(chunk_text, _close_chunk)
        except SexprError as err:  # numbered from the body's first line
            raise SexprError(err.message, file_line(err.line_no)) from err
        one_chunk = f"rule {name!r} needs exactly one chunk"
        if not exprs:  # the header is at fault
            raise RuleFileFormatError(one_chunk, header_no)
        chunk = exprs[0]
        if len(exprs) > 1:
            chunk = Fault(RuleFileFormatError, one_chunk, None, 1)
        elif chunk.__class__ not in (Internal, Fault):
            message = f"rule {name!r} chunk must be an application"
            chunk = Fault(RuleFileFormatError, message, None, 0)
        if chunk.__class__ is Fault:
            raise chunk.kind(chunk.message, file_line(chunk.line(chunk_text)))
        rule = SpecializedRule(
            name=name,
            lhs=tokens[0],
            chunk=chunk,
            rhs=flat_rhs(chunk),
            support=support,
        )
        declared = tuple(tokens[2:])
        if declared != rule.rhs:
            raise RuleFileFormatError(
                f"rule {rule.name!r}: flat line {declared} does not match "
                f"chunk {rule.rhs}",
                header_no,
            )
        rules.append(rule)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if raw.strip().startswith("#"):
            continue
        if not raw.strip():
            if record:
                finish(record)
                record = []
        else:
            record.append((line_no, raw))
    if record:
        finish(record)
    return rules
