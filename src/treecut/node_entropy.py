"""Entropy scores for or-nodes of the and-or tree.

Three schemes:

* ``rhs-local``: the phrase entropy of the slot the node occupies.
* ``mixed``: the slot entropy plus the expected LHS entropy of the
  node's arc rules, weighted by arc relative frequency.  Lexical arcs
  contribute nothing.
* ``arc-frequency``: the entropy of the node's own arc-count
  distribution, with counts pooled over the node's equivalence class
  under a given cutnode assignment.

The first two read table entries at the table's precision and round
the result the same way, so scores match the printed table arithmetic
digit for digit; an exact table gives exact scores.
The root (and any unseen slot) scores 0 under rhs-local and mixed.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

from treecut.andor import AndOrTree, OrNode
from treecut.entropy import (
    LHS_POSITION,
    PhraseEntropyTable,
    Slot,
    entropy,
    quantize_decimal,
)
from treecut.grammar import LEX


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
    decimals = table.decimals
    if decimals is None:
        acc = table.value(node.parent_slot)
        for rule, count in node.arc_counts.items():
            if rule != LEX and total:
                acc += (count / total) * table.value(Slot(rule, LHS_POSITION))
        return acc
    acc = quantize_decimal(table.value(node.parent_slot), decimals)
    for rule, count in node.arc_counts.items():
        if rule != LEX and total:
            weight = Decimal(count) / Decimal(total)
            lhs = table.value(Slot(rule, LHS_POSITION))
            acc += weight * quantize_decimal(lhs, decimals)
    return float(quantize_decimal(acc, decimals))


def node_entropy_arc_frequency(
    node: OrNode, members: list[OrNode] | None = None
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
    lhs_slot = Slot(child_rule, LHS_POSITION)
    decimals = table.decimals
    if decimals is None:
        return table.value(parent_slot) + table.value(lhs_slot)
    acc = quantize_decimal(table.value(parent_slot), decimals) + quantize_decimal(
        table.value(lhs_slot), decimals
    )
    return float(quantize_decimal(acc, decimals))


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
    grouping: dict[str, list[OrNode]] | None = None,
) -> NodeEntropyMap:
    """Score every or-node.

    ``grouping`` maps node ids to equivalence-class member lists and is
    only consulted by the arc-frequency scheme; omitted, every node is
    its own class.  Nodes that share one member list (as
    ``CutnodeSet.grouping`` hands out) are pooled once and share the
    score.  The other schemes require *table*.
    """
    values: dict[str, float] = {}
    pooled: dict[int, float] = {}
    for node in aot.nodes():
        if scheme is EntropyScheme.ARC_FREQUENCY:
            members = grouping.get(node.node_id) if grouping else None
            if not members:
                values[node.node_id] = node_entropy_arc_frequency(node)
                continue
            score = pooled.get(id(members))
            if score is None:
                score = pooled[id(members)] = node_entropy_arc_frequency(
                    node, members
                )
            values[node.node_id] = score
        elif node.parent_slot is None:
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
