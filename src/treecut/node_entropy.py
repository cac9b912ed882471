"""Entropy scores for or-nodes of the and-or tree.

Three schemes:

* ``rhs-local``: the phrase entropy of the slot the node occupies.
* ``mixed``: the slot entropy plus the expected LHS entropy of the
  node's arc rules, weighted by arc relative frequency.  Lexical arcs
  contribute nothing.
* ``arc-frequency``: the entropy of the node's own arc-count
  distribution, with counts pooled over the node's equivalence class
  under a given cutnode assignment.

The first two are weighted sums of table entries, which the table
works out at its own precision (``PhraseEntropyTable.weighted_sum``),
so scores match the printed table arithmetic digit for digit; an exact
table gives exact scores.
The root (and any unseen slot) scores 0 under rhs-local and mixed.
"""

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

from treecut.andor import AndOrTree, OrNode
from treecut.entropy import LHS_POSITION, PhraseEntropyTable, entropy
from treecut.grammar import LEX, Slot


class EntropyScheme(str, Enum):
    RHS_LOCAL = "rhs-local"
    MIXED = "mixed"
    ARC_FREQUENCY = "arc-frequency"


def node_entropy_rhs_local(node: OrNode, table: PhraseEntropyTable) -> float:
    if node.parent_slot is None:
        raise ValueError(f"{node.node_id} has no parent slot")
    return table.published_value(node.parent_slot)


def node_entropy_mixed(node: OrNode, table: PhraseEntropyTable) -> float:
    if node.parent_slot is None:
        raise ValueError(f"{node.node_id} has no parent slot")
    total = node.visit_count
    terms = [(node.parent_slot, 1, 1)]
    terms += (
        (Slot(rule, LHS_POSITION), count, total)
        for rule, count in node.arc_counts.items()
        if rule != LEX
    )
    return table.weighted_sum(terms)


def node_entropy_arc_frequency(
    node: OrNode, members: Sequence[OrNode] | None = None
) -> float:
    """Arc-count entropy pooled over *members* (default: the node alone)."""
    pooled: dict[str, int] = {}
    for member in members or [node]:
        for rule, count in member.arc_counts.items():
            pooled[rule] = pooled.get(rule, 0) + count
    return entropy(pooled)


def unified_node_entropy(
    parent_slot: Slot, child_rule: str, table: PhraseEntropyTable
) -> float:
    """Sum of a slot's entropy and a child rule's LHS entropy.

    A diagnostic combination: it upper-bounds how much uncertainty a cut
    at the slot boundary removes.  The child rule's category must match
    the slot's.
    """
    inv = table.inventory
    slot_rule = inv[parent_slot.rule]
    if parent_slot.position == LHS_POSITION or parent_slot.position > slot_rule.arity:
        raise ValueError(f"{parent_slot} is not an RHS slot")
    slot_cat = slot_rule.rhs[parent_slot.position - 1]
    child_cat = inv[child_rule].lhs
    if slot_cat != child_cat:
        raise ValueError(f"slot category '{slot_cat}' vs rule category '{child_cat}'")
    return table.weighted_sum(
        [(parent_slot, 1, 1), (Slot(child_rule, LHS_POSITION), 1, 1)]
    )


@dataclass
class NodeEntropyMap:
    """Per-node scores for one scheme over one and-or tree."""

    scheme: EntropyScheme
    values: dict[str, float]

    def __getitem__(self, node_id: str) -> float:
        return self.values[node_id]

    def max_value(self) -> float:
        return max(self.values.values(), default=0.0)


def compute_node_entropies(
    aot: AndOrTree,
    table: PhraseEntropyTable | None,
    scheme: EntropyScheme,
    classes: Iterable | None = None,
) -> NodeEntropyMap:
    """Score every or-node.

    *classes* is only read by the arc-frequency scheme: equivalence
    classes that partition the or-nodes, such as ``CutnodeSet.classes``.
    Each class is pooled once and every member gets its score; omitted,
    every node is its own class.  The other schemes require *table*.
    """
    values: dict[str, float] = {}
    if scheme is EntropyScheme.ARC_FREQUENCY:
        if classes is None:
            groups = ((node,) for node in aot.nodes())
        else:
            groups = (cls.members for cls in classes)
        for members in groups:
            score = node_entropy_arc_frequency(members[0], members)
            for member in members:
                values[member.node_id] = score
        return NodeEntropyMap(scheme=scheme, values=values)
    for node in aot.nodes():
        if node.parent_slot is None:
            values[node.node_id] = 0.0
        elif scheme is EntropyScheme.RHS_LOCAL:
            values[node.node_id] = node_entropy_rhs_local(node, table)
        else:
            values[node.node_id] = node_entropy_mixed(node, table)
    return NodeEntropyMap(scheme=scheme, values=values)


def render_node_entropies(aot: AndOrTree, scores: NodeEntropyMap) -> Iterator[str]:
    """TSV lines of id, category, score to 4 decimals in index (DFS) order."""
    yield "node\tcategory\tentropy\n"
    for node in aot.nodes():
        yield f"{node.node_id}\t{node.category}\t{scores[node.node_id]:.4f}\n"
