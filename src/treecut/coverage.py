"""Tiling test parses with specialized rules, and coverage statistics.

A tree is covered when it can be tiled: some rule's chunk matches at the
root, every frontier is tiled by a rule in turn, and every lexical slot
lines up with a lexical lookup.  A frontier also accepts a bare lexical
lookup directly, since the lexicon is always available at parse time.

The rules are compiled into a discrimination tree over each chunk's
preorder symbols: an inlined application is its rule id, a lexical slot
is ``lex`` and a frontier is a wildcard that skips one whole subtree.
Retrieval at a node walks the node only as deep as the deepest chunk and
yields every matching rule with its frontier subtrees.

A tiling reads only a subtree's word-blind shape, and the loader builds
each shape of a file as one object, so each distinct node of the test
set is tiled once, children before parents, from tilings already made.
Among alternatives a node takes the first candidate whose frontiers are
all tiled; whether it has one does not depend on their order.
``evaluate_coverage`` ranks rules longest reduction first, then by name,
so reported tilings are stable; a run tiles its reported rules so once.
Frontier categories are not checked: a validated rule's frontier
category is the category of its slot, which the loader has checked
against the subtree filling it.

A coverage search needs only each probe's verdicts.  It keeps one
``VerdictTable`` over the test set for the whole run: each chunk new to
the run is matched against the test nodes once, and a probe's verdicts
are then one children-first pass over the candidates those matches
left, keeping the candidates whose chunks its partition holds.
"""

from collections.abc import Iterator
from dataclasses import dataclass

from treecut.extraction import Frontier, LexSlot, SpecializedRule
from treecut.grammar import LEX, Internal, LexLeaf


@dataclass(slots=True)
class Tiling:
    """One rule application (or lexicon lookup when rule is None).

    Equality and repr walk the tiling without recursion, so a tiling as
    deep as a test tree can be compared and printed.
    """

    rule: SpecializedRule | None  # under ``tile``, the applied pair's second item
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
# edge of a frontier, the rules whose chunk ends at the node, and the
# rules still to be sorted into the node's edges.
_ANY, _END, _PENDING = object(), object(), object()
# the stack mark above a node whose children are being listed
_LISTED = object()


class RuleIndex:
    """A discrimination tree over *ranked* chunks, as nested dicts.

    *ranked* holds ``(chunk, rule)`` pairs in the order the tiler tries
    them.  A chunk ends at a node that holds ``(rank, rule)`` under
    ``_END``, rank being the pair's place in *ranked*.  Chunks are taken
    to have their grammar arities, as validated rules' chunks do.

    Retrieval reads only a small part of the tree, so a node is built
    when retrieval first reaches it: until then it holds its rules
    under ``_PENDING``, each with the linked list of chunk pieces it
    still has to match.
    """

    def __init__(self, ranked):
        self.root = {_PENDING: [(k, r, (c, None)) for k, (c, r) in enumerate(ranked)]}

    @staticmethod
    def _build(trie: dict) -> None:
        for rank, rule, todo in trie.pop(_PENDING):
            if todo is None:
                trie.setdefault(_END, []).append((rank, rule))
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
            step[_PENDING].append((rank, rule, rest))

    def retrieve(self, node) -> list[tuple[SpecializedRule, tuple]]:
        """Every rule whose chunk matches at *node*, in rank order.

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
                found += [(entry, frontiers) for entry in trie.get(_END, ())]
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
        found.sort(key=lambda match: match[0][0])
        return [(rule, frontiers) for (_, rule), frontiers in found]


@dataclass
class CoverageReport:
    tilings: list  # each tree's preferred tiling, None when it has none

    @property
    def verdicts(self) -> list[bool]:
        return [tiling is not None for tiling in self.tilings]

    @property
    def fraction(self) -> float:
        verdicts = self.verdicts
        return sum(verdicts) / len(verdicts) if verdicts else 1.0


def evaluate_coverage(rules: list[SpecializedRule], trees: list) -> CoverageReport:
    """Tile every tree under the preference; an empty test set counts as
    (vacuously) covered."""
    ranked = sorted(rules, key=preference)
    return tile([(rule.chunk, rule) for rule in ranked], trees)


def tile(ranked, trees: list) -> CoverageReport:
    """The tilings of *trees* under *ranked*, ``(chunk, rule)`` pairs
    tried in order: the preferred tiling of a report, made once a run.

    The chunks are indexed once per call and every distinct internal
    node of *trees* is tiled once, children first, so each frontier's
    tiling is already made.  Trees that are one object share their
    tiling.  A search's probes need only verdicts, which
    ``VerdictTable`` gives without tiling.
    """
    index = RuleIndex(ranked)
    tilings: dict[int, Tiling | None] = {}  # id(node) -> its tiling
    for node in _internal_nodes(trees):
        tilings[id(node)] = None
        for rule, frontiers in index.retrieve(node):
            children = []
            for sub in frontiers:
                child = LEXICON if sub.__class__ is LexLeaf else tilings[id(sub)]
                if child is None:
                    break
                children.append(child)
            else:
                tilings[id(node)] = Tiling(rule, tuple(children))
                break
    return CoverageReport(
        [LEXICON if tree.__class__ is LexLeaf else tilings[id(tree)] for tree in trees]
    )


def _internal_nodes(trees: list) -> list:
    """The distinct internal nodes of *trees*, each once, children first."""
    nodes = []
    met: set[int] = set()
    # nodes to meet, and each met node under _LISTED, which comes off
    # the stack once every child pushed above it is listed
    stack = list(trees)
    while stack:
        node = stack.pop()
        if node is _LISTED:
            nodes.append(stack.pop())
        elif node.__class__ is not LexLeaf and id(node) not in met:
            met.add(id(node))
            stack += (node, _LISTED, *node.children)
    return nodes


class VerdictTable:
    """One coverage search's verdicts over the test set *trees*.

    The distinct internal nodes of *trees* are listed once, children
    first.  Each keeps its candidates: ``(id of chunk, frontier nodes)``
    for every chunk met in the run that matches there, a frontier node
    given by its place in the list and a lexical one left out, since
    the lexicon always fills it.  A partition's chunks are retrieved
    only when they are new to the run, against a ``RuleIndex`` of the
    new ones alone and only at the nodes of their root rules, so a chunk
    that several partitions yield, one object under a shared
    ``extraction.Pieces``, is matched once.

    A node is covered when one of its candidates' chunks is in the
    partition and every frontier node of it is covered, as ``tile``
    decides it; whether it has one does not depend on their order.
    """

    def __init__(self, trees: list):
        self.trees = trees
        self.nodes = _internal_nodes(trees)
        self.place = {id(node): k for k, node in enumerate(self.nodes)}
        self.by_rule: dict[str, list[int]] = {}  # rule -> places of its nodes
        for k, node in enumerate(self.nodes):
            self.by_rule.setdefault(node.rule, []).append(k)
        self.candidates: list[list] = [[] for _ in self.nodes]
        self.known: dict[int, object] = {}  # id(chunk) -> chunk, kept alive

    def fraction(self, chunks) -> float:
        """The share of the trees that *chunks*, ``[chunk, support]``
        pairs as extraction returns them, tile; 1.0 for no trees."""
        self._retrieve([c for c, _ in chunks if id(c) not in self.known])
        chosen = {id(c) for c, _ in chunks}
        covered: list[bool] = []
        for candidates in self.candidates:
            for chunk_id, subs in candidates:
                if chunk_id in chosen and all([covered[k] for k in subs]):
                    covered.append(True)
                    break
            else:
                covered.append(False)
        place = self.place
        tiled = [
            tree.__class__ is LexLeaf or covered[place[id(tree)]] for tree in self.trees
        ]
        return sum(tiled) / len(tiled) if tiled else 1.0

    def _retrieve(self, new: list) -> None:
        """Add the candidates of the chunks *new* to the run."""
        self.known.update((id(c), c) for c in new)
        index, place = RuleIndex([(c, c) for c in new]), self.place
        for rule in dict.fromkeys(c.rule for c in new):
            for k in self.by_rule.get(rule, ()):
                for chunk, frontiers in index.retrieve(self.nodes[k]):
                    subs = [place[id(f)] for f in frontiers if f.__class__ is Internal]
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
