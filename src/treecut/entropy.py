"""Phrase entropy tables over rule attachment slots.

Every grammar rule owns one LHS slot and one slot per RHS position.
The LHS slot's distribution ranges over attachment contexts, written
``<parent_rule>/<position>`` (root attachments use the pseudo-context
``ROOT``).  An RHS slot's distribution ranges over the rule ids of the
children observed at that position, with ``lex`` as an ordinary outcome.
Probabilities are maximum-likelihood relative frequencies, unsmoothed,
and entropies use the natural logarithm.

The counts are read off the and-or index (``andor.index_treebank``),
not off the trees: its arcs already count how often each rule fills
each slot of each rule.

Tables are reported at two decimal places.  A table carries the
precision it is read at, and ``PhraseEntropyTable.weighted_sum`` is the
one place that applies it: slot readings and node scores all go through
it, so they agree exactly with the arithmetic of the printed table.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal

from treecut.andor import AndOrTree
from treecut.grammar import LEX, RuleInventory, Slot

ROOT_CONTEXT = "ROOT"
LHS_POSITION = 0


def entropy(counts: dict[str, int]) -> float:
    """Natural-log entropy of a count distribution, sum of -p*ln(p)."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    acc = 0.0
    for c in counts.values():
        if c:
            p = c / total
            acc -= p * math.log(p)
    return acc


def quantize_decimal(value: float | Decimal, decimals: int) -> Decimal:
    """*value* exactly, rounded half-to-even at *decimals* places."""
    return Decimal(value).quantize(Decimal(1).scaleb(-decimals), ROUND_HALF_EVEN)


@dataclass
class PhraseEntropyTable:
    """Slot distributions and entropies, read at *decimals* places, and
    each rule's tightest RHS slot, filled in as ``tightest_slot`` reads
    them."""

    inventory: RuleInventory
    distributions: dict[Slot, dict[str, int]]
    entropies: dict[Slot, float]
    decimals: int | None
    tightest: dict[str, Slot] = field(default_factory=dict, compare=False, repr=False)

    def is_seen(self, slot: Slot) -> bool:
        return slot in self.entropies

    def value(self, slot: Slot) -> float:
        """Exact entropy; unseen slots read as 0."""
        return self.entropies.get(slot, 0.0)

    def published_value(self, slot: Slot) -> float:
        """Entropy at the table's precision."""
        return self.weighted_sum([(slot, 1, 1)])

    def tightest_slot(self, rule_id: str, arity: int) -> Slot:
        """The RHS slot of *rule_id*, of *arity* at least 1, with the
        lowest published entropy, ties to the lowest position.  It
        depends only on the table, so each rule's is worked out once."""
        slot = self.tightest.get(rule_id)
        if slot is None:
            position = min(
                range(1, arity + 1),
                key=lambda k: (self.published_value(Slot(rule_id, k)), k),
            )
            slot = self.tightest[rule_id] = Slot(rule_id, position)
        return slot

    def weighted_sum(self, terms) -> float:
        """Sum of ``count / total`` times the slot's entropy over the
        ``(slot, count, total)`` *terms*, at the table's precision.

        An exact table sums floats in order.  A rounded table rounds each
        entropy, sums in ``Decimal`` and rounds the sum.
        """
        decimals = self.decimals
        if decimals is None:
            acc = 0.0
            for slot, count, total in terms:
                acc += count / total * self.value(slot)
            return acc
        acc = Decimal(0)
        for slot, count, total in terms:
            reading = quantize_decimal(self.value(slot), decimals)
            acc += Decimal(count) / Decimal(total) * reading
        return float(quantize_decimal(acc, decimals))


def build_phrase_table(aot: AndOrTree, decimals: int | None = 2) -> PhraseEntropyTable:
    """Sum the and-or index's arc counts per slot and take entropies.

    A slot's counts are the arc counts of the or-nodes that fill it:
    an arc ``(or-node, rule)`` counts *rule* (``lex`` included) in the
    or-node's parent slot and, for a non-lexical rule, the or-node's
    attachment context in the rule's LHS slot.  Arcs are summed in the
    order the index created them, which is the order a preorder walk of
    every tree would first see each slot and outcome, so slots, their
    outcomes and the float entropy sums come out in that order.
    """
    dists: dict[Slot, dict[str, int]] = {}

    def add(slot: Slot, outcome: str, n: int) -> None:
        counts = dists.setdefault(slot, {})
        counts[outcome] = counts.get(outcome, 0) + n

    for node, rule in aot.arc_order:
        n = node.arc_counts[rule]
        parent = node.parent_slot
        if parent is not None:
            add(parent, rule, n)
        if rule != LEX:
            context = (
                ROOT_CONTEXT if parent is None else f"{parent.rule}/{parent.position}"
            )
            add(Slot(rule, LHS_POSITION), context, n)
    return PhraseEntropyTable(
        inventory=aot.inventory,
        distributions=dists,
        entropies={slot: entropy(counts) for slot, counts in dists.items()},
        decimals=decimals,
    )


def render_entropy_table(table: PhraseEntropyTable) -> Iterator[str]:
    """TSV lines, one row per rule: LHS entropy then each RHS slot, to 2 decimals.

    Rules follow inventory order; slots a rule does not have print as
    ``---``; unseen slots print as 0 with a trailing ``*``.
    """
    inv = table.inventory
    width = max((r.arity for r in inv.in_order()), default=0)
    header = ["rule", "LHS"] + [f"RHS{k}" for k in range(1, width + 1)]
    yield "\t".join(header) + "\n"
    for rule in inv.in_order():
        row = [rule.rule_id]
        for pos in range(0, width + 1):
            if pos > rule.arity:
                row.append("---")
                continue
            slot = Slot(rule.rule_id, pos)
            cell = f"{table.value(slot):.2f}"
            if not table.is_seen(slot):
                cell += "*"
            row.append(cell)
        yield "\t".join(row) + "\n"
