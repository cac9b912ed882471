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

from treecut.grammar import LEX, LexLeaf, RuleInventory, shape_groups

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


class _RuleCounts:
    """One rule's slots, their counts (None until first seen) and the
    contexts its children attach in, built once per rule."""

    __slots__ = ("slots", "counts", "contexts")

    def __init__(self, rule: str, arity: int):
        self.slots = [Slot(rule, k) for k in range(arity + 1)]
        self.counts: list[dict[str, int] | None] = [None] * (arity + 1)
        self.contexts = [f"{rule}/{k}" for k in range(1, arity + 1)]


def build_phrase_table(training: list, inv: RuleInventory) -> PhraseEntropyTable:
    """Count every slot over the training trees and take entropies.

    Slots read no words, so each distinct root shape is walked once and
    counted with its multiplicity.  Trees are walked in preorder with an
    explicit stack, so slots and their outcomes are first seen (and
    kept) in the same order as a recursive walk of every tree would see
    them: a repeated shape adds no outcome its first tree did not.
    """
    seen: list[tuple[Slot, dict[str, int]]] = []
    by_rule: dict[str, _RuleCounts] = {}

    def count(rule: _RuleCounts, k: int, outcome: str, n: int) -> None:
        counts = rule.counts[k]
        if counts is None:
            counts = rule.counts[k] = {}
            seen.append((rule.slots[k], counts))
        counts[outcome] = counts.get(outcome, 0) + n

    for tree, n in shape_groups(training):
        # (node, its LHS context, the parent's counts, its slot there);
        # each child is counted in its parent's slot just before its own
        # subtree
        stack = [(tree, ROOT_CONTEXT, None, 0)]
        while stack:
            node, context, parent, k = stack.pop()
            if node.__class__ is LexLeaf:
                if parent is not None:
                    count(parent, k, LEX, n)
                continue
            if parent is not None:
                count(parent, k, node.rule, n)
            children = node.children
            rule = by_rule.get(node.rule)
            if rule is None:
                rule = by_rule[node.rule] = _RuleCounts(node.rule, len(children))
            count(rule, LHS_POSITION, context, n)
            contexts = rule.contexts
            stack.extend(
                (children[j], contexts[j], rule, j + 1)
                for j in range(len(children) - 1, -1, -1)
            )
    dists = {slot: CountDistribution(counts) for slot, counts in seen}
    return PhraseEntropyTable(
        inventory=inv,
        distributions=dists,
        entropies={slot: entropy(d) for slot, d in dists.items()},
    )


def render_entropy_table(table: PhraseEntropyTable) -> str:
    """TSV with one row per rule: LHS entropy then each RHS slot, to 2 decimals.

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
            cell = f"{table.published_value(slot):.2f}"
            if not table.is_seen(slot):
                cell += "*"
            row.append(cell)
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
