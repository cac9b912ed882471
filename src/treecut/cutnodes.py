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
    """Iterated selection failed to settle; carries the last two iterates."""

    def __init__(self, previous: frozenset, last: frozenset):
        super().__init__(
            f"no fixpoint or near-cycle after limit; last sizes "
            f"{len(previous)} and {len(last)}"
        )
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
    node_to_class: dict[str, EquivalenceClass] = field(init=False)

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

    def class_of(self, node_id: str) -> EquivalenceClass:
        return self.node_to_class[node_id]


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
    iterable of node ids share one ``CutnodeSet``.
    """
    key = frozenset(cut_ids)
    cutset = aot.closures.get(key)
    if cutset is None:
        cutset = aot.closures[key] = _close(key, aot)
    return cutset


def _close(cut_ids: frozenset, aot: AndOrTree) -> CutnodeSet:
    """Worklist congruence closure over a union-find of node seqs.

    Each class root keeps a table from rule to one and-node of its
    members.  Merging two classes walks the smaller table; a rule found
    in both tables queues its child pairs for merging (congruence);
    lexical arcs have no children, so they never queue a pair.
    Every class holds a single category, so joining all cutnodes of a
    category up front leaves at most one cut class per category, and a
    cut flag ORed on each union is all promotion needs.
    """
    nodes = aot.nodes()
    parent = list(range(len(nodes)))
    tables: dict[int, dict] = {}  # merged roots only; others read their arcs
    cut = [False] * len(nodes)
    pending: list[tuple[OrNode, OrNode]] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def table(root: int) -> dict:
        own = tables.get(root)
        return nodes[root].arcs if own is None else own

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        if len(table(ra)) < len(table(rb)):
            ra, rb = rb, ra
        parent[rb] = ra
        cut[ra] = cut[ra] or cut[rb]
        into = tables.get(ra)
        if into is None:
            into = tables[ra] = dict(nodes[ra].arcs)
        for rule, and_node in table(rb).items():
            seen = into.get(rule)
            if seen is None:
                into[rule] = and_node
            else:
                pending.extend(zip(seen.children, and_node.children))
        tables.pop(rb, None)

    first_of: dict[str, int] = {}
    for node_id in cut_ids:
        node = aot[node_id]
        union(first_of.setdefault(node.category, node.seq), node.seq)
        cut[find(node.seq)] = True
    while pending:
        a, b = pending.pop()
        union(a.seq, b.seq)

    members: dict[int, list[OrNode]] = {}
    for node in nodes:
        members.setdefault(find(node.seq), []).append(node)
    classes = []
    for root, group in members.items():
        is_cut = cut[root] and any(m.has_lexical_yield for m in group)
        classes.append(EquivalenceClass(tuple(group), is_cut))
    return CutnodeSet(tuple(classes))


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


def _threshold_seeds(scores: NodeEntropyMap, s_min: float, aot: AndOrTree) -> frozenset[str]:
    return frozenset(
        node.node_id
        for node in aot.nodes()
        if node.has_lexical_yield and scores[node.node_id] > s_min
    )


def neighbor_conflicts(
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


def _restricted_fixpoint(
    seeds: frozenset[str],
    aot: AndOrTree,
    table: PhraseEntropyTable,
    scores: NodeEntropyMap,
    max_iterations: int,
) -> CutnodeSet:
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
    seeds = _threshold_seeds(scores, s_min, aot)
    if not restrictions:
        return closure(seeds, aot)
    return _restricted_fixpoint(seeds, aot, table, scores, max_iterations)


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
        current = closure(cut_ids, aot)
        scores = compute_node_entropies(
            aot, None, EntropyScheme.ARC_FREQUENCY, current.classes
        )
        seeds = _threshold_seeds(scores, s_min, aot)
        if not restrictions:
            return closure(seeds, aot).cut_node_ids()
        return _restricted_fixpoint(
            seeds, aot, table, scores, max_iterations
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
