"""Tiling test parses with specialized rules, and coverage statistics.

A tree is covered when it can be tiled: some rule's chunk matches at the
root, every frontier is tiled by a rule in turn, and every lexical slot
lines up with a lexical lookup.  A frontier also accepts a bare lexical
lookup directly, since the lexicon is always available at parse time.
Frontier categories are not checked: a validated rule's frontier
category is the category of its slot, which the loader has checked
against the subtree filling it.

Chunks are matched through a ``RuleIndex``, a discrimination tree over
each chunk's preorder symbols: an inlined application is its rule id, a
lexical slot is ``lex`` and a frontier is a wildcard that skips one
whole subtree.  A ``VerdictTable`` lists the distinct internal nodes of
a test set once, children first (the loader builds each word-blind
shape of a file as one object), and keeps at each node the chunks it
has met that match there; a coverage search keeps one table for its
whole run, so each chunk is matched once.  One children-first pass
over those candidates gives both a probe's verdicts and a report's
preferred tilings: ``evaluate_coverage`` ranks rules longest reduction
first, then by name, so reported tilings are stable.  No part of
tiling recurses, so test trees may nest deeper than the interpreter's
recursion limit.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice

from treecut.extraction import SpecializedRule
from treecut.grammar import LEX, Frontier, LexLeaf, LexSlot


@dataclass(slots=True)
class Tiling:
    """One rule application (or lexicon lookup when rule is None).

    Equality and repr walk the tiling without recursion, so a tiling as
    deep as a test tree can be compared and printed.
    """

    rule: SpecializedRule | None
    children: tuple = ()

    def _preorder(self):
        stack = [self]
        while stack:
            tiling = stack.pop()
            yield tiling
            stack.extend(reversed(tiling.children))

    def applications(self) -> list[SpecializedRule]:
        """Applied rules in preorder; lexicon lookups are left out."""
        return [t.rule for t in self._preorder() if t.rule is not None]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tiling):
            return NotImplemented
        pairs = zip(self._preorder(), other._preorder())
        return all(
            a.rule == b.rule and len(a.children) == len(b.children) for a, b in pairs
        )

    def __repr__(self) -> str:
        name = "lex" if self.rule is None else self.rule.name
        return f"Tiling({name}, {len(self.children)} children)"


LEXICON = Tiling(None)


def preference(rule: SpecializedRule) -> tuple:
    """Sort key of the tiler's preference: longest reduction, then name."""
    return (-rule.reduction_length, rule.name)


# Keys of a discrimination-tree node besides the symbols: the wildcard
# edge of a frontier, the chunks that end at the node, and the chunks
# still to be sorted into the node's edges.
_ANY, _END, _PENDING = object(), object(), object()
# the stack mark above a node whose children are being listed
_LISTED = object()


class RuleIndex:
    """A discrimination tree over *chunks*, as nested dicts.

    A chunk ends at a node that holds it under ``_END``.  Chunks are
    taken to have their grammar arities, as validated rules' chunks do.

    Retrieval reads only a small part of the tree, so a node is built
    when retrieval first reaches it: until then it holds its chunks
    under ``_PENDING``, each with the linked list of chunk pieces it
    still has to match.
    """

    def __init__(self, chunks):
        self.root = {_PENDING: [(c, (c, None)) for c in chunks]}

    @staticmethod
    def _build(trie: dict) -> None:
        for chunk, todo in trie.pop(_PENDING):
            if todo is None:
                trie.setdefault(_END, []).append(chunk)
                continue
            piece, rest = todo
            kind = piece.__class__
            if kind is Frontier:
                key = _ANY
            elif kind is LexSlot:
                key = LEX
            else:
                key = piece.rule
                for child in reversed(piece.children):
                    rest = (child, rest)
            step = trie.get(key)
            if step is None:
                step = trie[key] = {_PENDING: []}
            step[_PENDING].append((chunk, rest))

    def retrieve(self, node) -> list[tuple]:
        """Every chunk that matches at *node*, in no set order.

        Each comes with its frontier subtrees, left to right.  The walk
        keeps the subtrees still to match as a linked list, ``(subtree,
        rest)`` or None, so a wildcard skips a subtree without reading
        it.
        """
        found = []
        states = [(self.root, (node, None), ())]
        while states:
            trie, todo, frontiers = states.pop()
            if _PENDING in trie:
                self._build(trie)
            if todo is None:
                found += [(chunk, frontiers) for chunk in trie.get(_END, ())]
                continue
            sub, rest = todo
            wild = trie.get(_ANY)
            if wild is not None:
                states.append((wild, rest, frontiers + (sub,)))
            if sub.__class__ is LexLeaf:
                step = trie.get(LEX)
            else:
                step = trie.get(sub.rule)
                if step is not None:
                    for child in reversed(sub.children):
                        rest = (child, rest)
            if step is not None:
                states.append((step, rest, frontiers))
        return found


def _share(verdicts: list[bool]) -> float:
    """The share of true verdicts; no trees count as (vacuously) covered."""
    return sum(verdicts) / len(verdicts) if verdicts else 1.0


@dataclass
class CoverageReport:
    tilings: list  # each tree's preferred tiling, None when it has none

    @property
    def verdicts(self) -> list[bool]:
        return [tiling is not None for tiling in self.tilings]

    @property
    def fraction(self) -> float:
        return _share(self.verdicts)


def evaluate_coverage(rules: list[SpecializedRule], trees: list) -> CoverageReport:
    """Tile every tree under the preference; an empty test set counts as
    (vacuously) covered."""
    return VerdictTable(trees).tilings(rules)


class VerdictTable:
    """The distinct nodes of the test set *trees*, and the chunks that
    match at each.

    ``nodes`` lists the distinct internal nodes once, children first,
    after a leading None: place 0 stands for the lexicon, which tiles
    every lexical leaf.  Each node keeps its candidates: ``(id of chunk,
    places of its frontier nodes)`` for every chunk the table has met
    that matches there.  Chunks are retrieved only when they are new to
    the table, against a ``RuleIndex`` of the new ones alone and only
    at the nodes of their root rules, so a chunk that a search's
    partitions share, one object under a shared ``extraction.Pieces``,
    is matched once.

    A node is tiled by a candidate whose chunk is chosen and whose
    frontier nodes are all tiled; whether it has one does not depend on
    their order, only which tiling it gets.
    """

    def __init__(self, trees: list):
        self.trees = trees
        self.nodes: list = [None]
        self.place: dict[int, int] = {}  # id(node) -> its place in nodes
        self.by_rule: dict[str, list[int]] = {}  # rule -> places of its nodes
        # nodes to meet, and each met node under _LISTED, which comes off
        # the stack once every child pushed above it is listed
        stack = list(trees)
        while stack:
            node = stack.pop()
            if node is _LISTED:
                node = stack.pop()
                self.place[id(node)] = len(self.nodes)
                self.by_rule.setdefault(node.rule, []).append(len(self.nodes))
                self.nodes.append(node)
            elif node.__class__ is LexLeaf:
                self.place[id(node)] = 0
            elif id(node) not in self.place:
                stack += (node, _LISTED, *node.children)
        self.candidates: list[list] = [[] for _ in self.nodes]
        self.known: dict[int, object] = {}  # id(chunk) -> chunk, kept alive

    def fraction(self, chunks) -> float:
        """The share of the trees that *chunks*, ``[chunk, support]``
        pairs as extraction returns them, tile."""
        self._add(c for c, _ in chunks)
        chosen = self._choose(dict.fromkeys((id(c) for c, _ in chunks), 0))
        return _share([chosen[self.place[id(tree)]] is not None for tree in self.trees])

    def tilings(self, rules: list[SpecializedRule]) -> CoverageReport:
        """Each tree's preferred tiling under *rules*: at each node, the
        candidate of the rule that comes first under ``preference``."""
        ranked = sorted(rules, key=preference)
        self._add(rule.chunk for rule in ranked)
        rank: dict[int, int] = {}  # a chunk under two rules takes the first
        for k, rule in enumerate(ranked):
            rank.setdefault(id(rule.chunk), k)
        made = [LEXICON]
        for pick in islice(self._choose(rank), 1, None):
            made.append(
                None if pick is None
                else Tiling(ranked[pick[0]], tuple(made[k] for k in pick[1]))
            )
        return CoverageReport([made[self.place[id(tree)]] for tree in self.trees])

    def _choose(self, rank: dict[int, int]) -> list:
        """The one children-first pass over the nodes: at each, ``(rank,
        frontier places)`` of the candidate ranked first in *rank*, ``id
        of chunk -> rank``, among those whose chunk is ranked and whose
        frontier nodes are all tiled; None when there is none."""
        chosen: list = [(0, ())]  # the lexicon
        for candidates in islice(self.candidates, 1, None):
            best = None
            for chunk_id, subs in candidates:
                k = rank.get(chunk_id)
                if k is None or (best is not None and k >= best[0]):
                    continue
                if all([chosen[s] for s in subs]):
                    best = k, subs
            chosen.append(best)
        return chosen

    def _add(self, chunks) -> None:
        """Add the candidates of *chunks* new to the table."""
        new = {id(c): c for c in chunks if id(c) not in self.known}
        self.known.update(new)
        index, place = RuleIndex(new.values()), self.place
        for rule in dict.fromkeys(c.rule for c in new.values()):
            for k in self.by_rule.get(rule, ()):
                for chunk, frontiers in index.retrieve(self.nodes[k]):
                    subs = [place[id(f)] for f in frontiers]
                    self.candidates[k].append((id(chunk), subs))


BUCKETS = ("1", "2", "3", "4+")


def _bucket(length: int) -> str:
    return str(length) if length < 4 else "4+"


@dataclass
class ReductionStats:
    counts: dict[str, int]
    weighted: bool = False
    skipped: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def percentages(self) -> dict[str, float]:
        total = self.total
        if total == 0:
            return {b: 0.0 for b in BUCKETS}
        return {b: 100.0 * self.counts[b] / total for b in BUCKETS}


def reduction_stats(
    rules: list[SpecializedRule], weighted: bool = False, tilings: list | tuple = ()
) -> ReductionStats:
    """Reduction-length histogram over buckets 1, 2, 3 and 4+.

    Unweighted counts each distinct rule once.  Weighted counts rule
    applications in *tilings*, a CoverageReport's preferred tilings;
    untileable trees are skipped and reported.
    """
    counts = {b: 0 for b in BUCKETS}
    if not weighted:
        for rule in rules:
            counts[_bucket(rule.reduction_length)] += 1
        return ReductionStats(counts)
    skipped = 0
    for tiling in tilings:
        if tiling is None:
            skipped += 1
            continue
        for rule in tiling.applications():
            counts[_bucket(rule.reduction_length)] += 1
    return ReductionStats(counts, weighted=True, skipped=skipped)


def render_coverage(report: CoverageReport) -> Iterator[str]:
    """coverage.tsv, line by line: each tree's verdict and rule applications."""
    yield "tree\tcovered\tapplications\n"
    for i, verdict in enumerate(report.verdicts):
        apps = len(report.tilings[i].applications()) if verdict else 0
        yield f"{i}\t{'yes' if verdict else 'no'}\t{apps}\n"
    yield f"fraction\t{report.fraction:.6f}\t\n"


def render_stats(stats: ReductionStats) -> Iterator[str]:
    yield f"# {'weighted' if stats.weighted else 'unweighted'}\n"
    yield "reduction_length\tcount\tpercent\n"
    pct = stats.percentages()
    for bucket in BUCKETS:
        yield f"{bucket}\t{stats.counts[bucket]}\t{pct[bucket]:.1f}\n"
    if stats.skipped:
        yield f"# skipped untileable trees: {stats.skipped}\n"
