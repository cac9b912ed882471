"""Phrase entropy tables over rule attachment slots.

Every grammar rule owns one LHS slot and one slot per RHS position.
The LHS slot's distribution ranges over attachment contexts, written
``<parent_rule>/<position>`` (root attachments use the pseudo-context
``ROOT``).  An RHS slot's distribution ranges over the rule ids of the
children observed at that position, with ``lex`` as an ordinary outcome.
Probabilities are maximum-likelihood relative frequencies, unsmoothed,
and entropies use the natural logarithm.

Tables are reported at two decimal places.  ``published_value`` exposes
that reading, which downstream node scoring reuses so that reported
scores and selection thresholds agree exactly with the printed table.
"""

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal

from treecut.grammar import LEX, Internal, LexLeaf, RuleInventory

ROOT_CONTEXT = "ROOT"
LHS_POSITION = 0


@dataclass(frozen=True)
class Slot:
    """One attachment slot: position 0 is the LHS, k >= 1 the k-th RHS."""

    rule: str
    position: int

    def label(self) -> str:
        return "LHS" if self.position == LHS_POSITION else f"RHS{self.position}"


@dataclass
class CountDistribution:
    """Observed outcome counts for one slot; zero counts are dropped."""

    counts: dict[str, int] = field(default_factory=dict)

    def add(self, outcome: str, n: int = 1) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + n

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def entropy(counts: dict[str, int] | CountDistribution) -> float:
    """Natural-log entropy of a count distribution, sum of -p*ln(p)."""
    if isinstance(counts, CountDistribution):
        counts = counts.counts
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


def quantize(value: float, decimals: int | None) -> float:
    """Round half-to-even at *decimals* places; None means exact."""
    if decimals is None:
        return value
    return float(quantize_decimal(value, decimals))


@dataclass
class PhraseEntropyTable:
    """Slot distributions and entropies for one training corpus."""

    inventory: RuleInventory
    distributions: dict[Slot, CountDistribution]
    entropies: dict[Slot, float]

    def is_seen(self, slot: Slot) -> bool:
        return slot in self.entropies

    def value(self, slot: Slot) -> float:
        """Exact entropy; unseen slots read as 0."""
        return self.entropies.get(slot, 0.0)

    def published_value(self, slot: Slot, decimals: int | None = 2) -> float:
        """Entropy at the table's reporting precision."""
        return quantize(self.value(slot), decimals)


def _walk(tree, parent_context: str, table: dict[Slot, CountDistribution]) -> None:
    rule = tree.rule
    table.setdefault(Slot(rule, LHS_POSITION), CountDistribution()).add(parent_context)
    for k, child in enumerate(tree.children, start=1):
        dist = table.setdefault(Slot(rule, k), CountDistribution())
        if isinstance(child, LexLeaf):
            dist.add(LEX)
        else:
            dist.add(child.rule)
            _walk(child, f"{rule}/{k}", table)


def build_phrase_table(training: list, inv: RuleInventory) -> PhraseEntropyTable:
    """Count every slot over the training trees and take entropies."""
    dists: dict[Slot, CountDistribution] = {}
    for tree in training:
        if isinstance(tree, Internal):
            _walk(tree, ROOT_CONTEXT, dists)
    return PhraseEntropyTable(
        inventory=inv,
        distributions=dists,
        entropies={slot: entropy(d) for slot, d in dists.items()},
    )


def render_entropy_table(table: PhraseEntropyTable, decimals: int = 2) -> str:
    """TSV with one row per rule: LHS entropy then each RHS slot.

    Rules follow inventory order; slots a rule does not have print as
    ``---``; unseen slots print as 0 with a trailing ``*``.
    """
    inv = table.inventory
    width = max((r.arity for r in inv.in_order()), default=0)
    header = ["rule", "LHS"] + [f"RHS{k}" for k in range(1, width + 1)]
    lines = ["\t".join(header)]
    for rule in inv.in_order():
        row = [rule.rule_id]
        for pos in range(0, width + 1):
            if pos > rule.arity:
                row.append("---")
                continue
            slot = Slot(rule.rule_id, pos)
            cell = f"{table.published_value(slot, decimals):.{decimals}f}"
            if not table.is_seen(slot):
                cell += "*"
            row.append(cell)
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
