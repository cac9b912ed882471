"""Selection of cutnodes: where specialized rules get sliced apart.

A cutnode assignment partitions the or-nodes into equivalence classes
and marks some classes as cut.  The closure keeps assignments coherent:
cut nodes of the same category are interchangeable, so they are equated,
and equated nodes must agree structurally, so their children along
identical arcs are equated too (congruence); a class containing one
cutnode is cut as a whole.  Classes without a single lexical yield are
never cut, because rules spanning no words are useless tilings.

Two selectors produce assignments: a threshold filter over per-node
entropy scores (rhs-local or mixed), and an iterated filter for the
arc-frequency scheme, whose scores depend on the previous assignment.
Optional neighbor restrictions remove classes that would cut both a
rule's own attachment and its tightest (lowest-entropy) RHS slot, which
would otherwise reintroduce the original rule as a degenerate chunk.
"""

from collections.abc import Iterator
from dataclasses import dataclass, field

from treecut.andor import AndOrTree, OrNode
from treecut.entropy import PhraseEntropyTable
from treecut.grammar import LEX, Slot
from treecut.node_entropy import (
    EntropyScheme,
    NodeEntropyMap,
    compute_node_entropies,
)


class IterationLimitError(Exception):
    """Iterated selection failed to settle; carries the last two iterates.

    *where*, when given, ends the message: the caller's threshold and
    the flag that sets the limit.
    """

    def __init__(self, previous: frozenset, last: frozenset, where: str = ""):
        message = (
            f"no fixpoint or near-cycle after limit; last sizes "
            f"{len(previous)} and {len(last)}"
        )
        super().__init__(f"{message} {where}" if where else message)
        self.previous = previous
        self.last = last


NEAR_CYCLE_FRACTION = 0.10  # of two iterates' summed sizes; see near_cycle
MAX_ITERATIONS = 50  # rounds an iterated selection may take to settle


@dataclass(frozen=True)
class EquivalenceClass:
    """Or-nodes treated as one position; members sorted by index order."""

    members: tuple[OrNode, ...]
    cut: bool

    @property
    def representative(self) -> OrNode:
        return self.members[0]

    @property
    def category(self) -> str:
        return self.representative.category


@dataclass
class CutnodeSet:
    """A full partition of the or-nodes with some classes marked cut.

    ``classes`` are held in representative (``seq``) order, however they
    are passed in, and ``cut_classes`` keeps that order.  ``closure``
    memoises its results per index and hands the same instance to every
    caller that closes an equal cut set, so a closed ``CutnodeSet`` is
    shared and must never be mutated.
    """

    classes: tuple[EquivalenceClass, ...]
    node_to_class: dict[str, EquivalenceClass] = field(init=False, repr=False)

    def __post_init__(self):
        self.classes = tuple(sorted(self.classes, key=lambda c: c.members[0].seq))
        self.node_to_class = {
            m.node_id: cls for cls in self.classes for m in cls.members
        }

    def cut_classes(self) -> list[EquivalenceClass]:
        return [c for c in self.classes if c.cut]

    def cut_node_ids(self) -> frozenset[str]:
        return frozenset(
            m.node_id for c in self.classes if c.cut for m in c.members
        )


def singleton_cutnodes(cut_ids: frozenset[str], aot: AndOrTree) -> CutnodeSet:
    """Every node its own class; no closure applied."""
    classes = tuple(
        EquivalenceClass((node,), node.node_id in cut_ids)
        for node in aot.nodes()
    )
    return CutnodeSet(classes)


def closure(cut_ids, aot: AndOrTree) -> CutnodeSet:
    """Least coherent assignment containing the given cutnodes.

    Idempotent and monotone in the cut set.  Classes whose members all
    lack lexical yield are demoted to uncut at the end.  Results are
    memoised per index on the cut set, so equal cut sets given as any
    iterable of node ids share one ``CutnodeSet``.  A result is also
    filed under its own cut node ids when they hold every seed: it has
    one cut class per category and a seed in each, so it is the least
    coherent assignment over those ids too.  A seed without lexical
    yield whose class is demoted leaves that key out.
    """
    key = frozenset(cut_ids)
    cutset = aot.closures.get(key)
    if cutset is None:
        cutset = aot.closures[key] = _close(key, aot)
        closed = cutset.cut_node_ids()
        if key <= closed:
            aot.closures.setdefault(closed, cutset)
    return cutset


def _closure_arrays(aot: AndOrTree) -> tuple[list, list, list]:
    """Per or-node ``seq``: its non-lexical rules mapped to the tuples
    of their child seqs, its category, and whether it has lexical yield.

    None of them changes for an index, so they are built on its first
    closure and kept on it.
    """
    if aot.closure_arrays is None:
        nodes = aot.nodes()
        aot.closure_arrays = (
            [
                {
                    rule: tuple([child.seq for child in and_node.children])
                    for rule, and_node in node.arcs.items()
                    if rule != LEX
                }
                for node in nodes
            ],
            [node.category for node in nodes],
            [node.has_lexical_yield for node in nodes],
        )
    return aot.closure_arrays


def _close(cut_ids: frozenset, aot: AndOrTree) -> CutnodeSet:
    """Worklist congruence closure over a union-find of node seqs.

    Each class root keeps a table from non-lexical rule to the child
    seqs of one of its members' arcs, read off the index's
    ``_closure_arrays``.  Merging two classes walks the smaller table;
    a rule found in both tables queues its child pairs for merging
    (congruence).  Lexical arcs have no children, so the tables leave
    them out.  Every class holds a single category, so joining all
    cutnodes of a category up front leaves at most one cut class per
    category, and a cut flag ORed on each union is all promotion needs.
    """
    arcs, categories, lexical = _closure_arrays(aot)
    parent = list(range(len(arcs)))
    tables: dict[int, dict] = {}  # merged roots only; others read their arcs
    cut = [False] * len(arcs)
    pending: list[tuple[int, int]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        into, table = tables.get(ra, arcs[ra]), tables.get(rb, arcs[rb])
        if len(into) < len(table):
            ra, rb, into, table = rb, ra, table, into
        parent[rb] = ra
        cut[ra] = cut[ra] or cut[rb]
        if table:
            if ra not in tables:
                into = tables[ra] = dict(into)
            for rule, children in table.items():
                seen = into.get(rule)
                if seen is None:
                    into[rule] = children
                else:
                    pending.extend(zip(seen, children))
        tables.pop(rb, None)

    first_of: dict[str, int] = {}
    for node_id in cut_ids:
        seq = aot[node_id].seq
        union(first_of.setdefault(categories[seq], seq), seq)
        cut[find(seq)] = True
    while pending:
        union(*pending.pop())

    groups: dict[int, list[int]] = {}
    for seq in range(len(arcs)):
        groups.setdefault(find(seq), []).append(seq)
    nodes = aot.nodes()
    return CutnodeSet(tuple(
        EquivalenceClass(
            tuple([nodes[seq] for seq in group]),
            cut[root] and any(lexical[seq] for seq in group),
        )
        for root, group in groups.items()
    ))


def near_cycle(prev: frozenset, nxt: frozenset, fraction: float) -> bool:
    """True when the symmetric difference is small relative to the sizes."""
    return len(prev ^ nxt) < fraction * (len(prev) + len(nxt))


def _iterate(step, initial: frozenset, max_iterations: int) -> frozenset:
    """Run *step* until exact repetition or a near-cycle.

    Returns the earlier member of the detected pair, keeping the result
    close to the initial assignment.
    """
    history = [initial]
    for i in range(max_iterations):
        nxt = step(history[-1], i)
        for prev in history:
            if nxt == prev:
                return prev
        for prev in history:
            if near_cycle(prev, nxt, NEAR_CYCLE_FRACTION):
                return prev
        history.append(nxt)
    raise IterationLimitError(history[-2] if len(history) > 1 else initial, history[-1])


def neighbor_conflicts(
    cutset: CutnodeSet,
    aot: AndOrTree,
    table: PhraseEntropyTable,
    scores: NodeEntropyMap,
) -> list[EquivalenceClass]:
    """Classes to remove so no rule has both neighboring boundaries cut.

    For each rule r, k* is its lowest-entropy RHS slot (ties: lowest
    index; ``PhraseEntropyTable.tightest_slot``).  Cutting both an
    attachment of r (a node with an r arc) and an occupant of
    Slot(r, k*) conflicts; the class with the lower entropy loses,
    where a class scores the maximum of its members, ties to the lower
    representative.  Conflicts are processed greedily in rule-id order,
    then attachment and occupant in representative order.  Each class
    is ranked once; an attachment that loses stops its scan, and an
    occupant that loses leaves the rule's list of live occupants.
    """
    cut = cutset.cut_classes()
    if not cut:
        return []
    arcs = _closure_arrays(aot)[0]
    lhs_of: dict[str, list[EquivalenceClass]] = {}
    occupant_of: dict[Slot, list[EquivalenceClass]] = {}
    for cls in cut:  # one class at a time: a list holding cls ends in it
        for m in cls.members:
            for rule in arcs[m.seq]:
                attached = lhs_of.setdefault(rule, [])
                if not attached or attached[-1] is not cls:
                    attached.append(cls)
            if m.parent_slot is not None:
                occupants = occupant_of.setdefault(m.parent_slot, [])
                if not occupants or occupants[-1] is not cls:
                    occupants.append(cls)

    values = scores.values
    ranks: dict[int, tuple[float, int]] = {}  # representative seq -> rank

    def rank(cls: EquivalenceClass) -> tuple[float, int]:
        seq = cls.members[0].seq
        found = ranks.get(seq)
        if found is None:
            found = ranks[seq] = (max(values[m.node_id] for m in cls.members), seq)
        return found

    removed: dict[int, EquivalenceClass] = {}
    for rule in sorted(lhs_of):
        arity = aot.inventory[rule].arity
        if arity == 0:
            continue
        live = [
            cls
            for cls in occupant_of.get(table.tightest_slot(rule, arity), ())
            if cls.members[0].seq not in removed
        ]
        for lhs_cls in lhs_of[rule]:
            if not live:
                break
            if lhs_cls.members[0].seq in removed:
                continue
            lhs_rank = rank(lhs_cls)
            lost = 0  # occupants, from the front, that rank below lhs_cls
            for occ_cls in live:
                if occ_cls is lhs_cls or rank(occ_cls) > lhs_rank:
                    break
                removed[occ_cls.members[0].seq] = occ_cls
                lost += 1
            if lost == len(live):
                live = []
            else:
                removed[lhs_cls.members[0].seq] = lhs_cls
                live = [cls for cls in live[lost:] if cls is not lhs_cls]
    return [removed[seq] for seq in sorted(removed)]


def _settle(
    scores: NodeEntropyMap,
    s_min: float,
    aot: AndOrTree,
    table: PhraseEntropyTable,
    restrictions: bool,
    max_iterations: int,
) -> CutnodeSet:
    """Close the nodes with lexical yield scoring strictly above *s_min*.

    Under *restrictions*, alternate conflict removal and closure until
    both settle.  The first conflict round sees those seeds as singleton
    classes, before any equating; later rounds see closed assignments.
    """
    seeds = frozenset(
        node.node_id
        for node in aot.nodes()
        if node.has_lexical_yield and scores[node.node_id] > s_min
    )
    if not restrictions:
        return closure(seeds, aot)

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


def select_by_threshold(
    s_min: float,
    aot: AndOrTree,
    table: PhraseEntropyTable,
    scores: NodeEntropyMap,
    *,
    restrictions: bool = False,
    max_iterations: int = MAX_ITERATIONS,
) -> CutnodeSet:
    """Cut every node scoring strictly above *s_min*, then close.

    Nodes without lexical yield never seed a cut.  Under the rhs-local
    and mixed schemes *scores* do not depend on the threshold, so a
    caller probing many thresholds computes them once.  Arc-frequency
    scores shift with the assignment, so under that scheme *scores*
    only name it and the work is select_iterative's.  *max_iterations*
    bounds the rounds of neighbor restrictions and of iterated selection.
    """
    if scores.scheme is EntropyScheme.ARC_FREQUENCY:
        return select_iterative(
            s_min, aot, table, restrictions=restrictions, max_iterations=max_iterations
        )
    return _settle(scores, s_min, aot, table, restrictions, max_iterations)


def select_iterative(
    s_min: float,
    aot: AndOrTree,
    table: PhraseEntropyTable,
    *,
    restrictions: bool = False,
    max_iterations: int = MAX_ITERATIONS,
) -> CutnodeSet:
    """Iterate arc-frequency selection until the assignment settles.

    Each round rescoring pools arc counts over the previous round's
    classes.  Stops on a fixpoint, an exact revisit, or a near-cycle
    (symmetric difference under NEAR_CYCLE_FRACTION of the sizes),
    returning the earlier member of the detected pair.  Neighbor
    restrictions, when enabled, rank slots by the phrase *table*.
    """

    def step(cut_ids: frozenset, i: int) -> frozenset:
        scores = compute_node_entropies(
            aot, None, EntropyScheme.ARC_FREQUENCY, closure(cut_ids, aot).classes
        )
        return _settle(
            scores, s_min, aot, table, restrictions, max_iterations
        ).cut_node_ids()

    return closure(_iterate(step, frozenset(), max_iterations), aot)


def render_cut_classes(cutset: CutnodeSet, scores: NodeEntropyMap) -> Iterator[str]:
    """One line per cut class: representative, category, members, peak score."""
    classes = cutset.cut_classes()
    if not classes:
        yield "(no cut classes)\n"
    for cls in classes:
        members = " ".join(m.node_id for m in cls.members)
        peak = max(scores[m.node_id] for m in cls.members)
        yield (
            f"{cls.representative.node_id}\t{cls.category}\t"
            f"{{{members}}}\t{peak:.4f}\n"
        )
