"""Tiling test parses with specialized rules, and coverage statistics.

A tree is covered when it can be tiled: some rule's chunk matches at the
root, every frontier is tiled recursively by a rule of the frontier's
category, and every lexical slot lines up with a lexical lookup.  A
frontier also accepts a bare lexical lookup directly, since the lexicon
is always available at parse time.

Matching is top-down with backtracking over candidate rules, memoized by
subtree shape and required category.  Among alternatives it prefers the
longest reduction, then rule name order, so reported tilings are stable.
"""

from dataclasses import dataclass

from treecut.extraction import Frontier, LexSlot, RuleSet, SpecializedRule
from treecut.grammar import Internal, LexLeaf


@dataclass
class Tiling:
    """One rule application (or lexicon lookup when rule is None)."""

    rule: SpecializedRule | None
    children: tuple = ()

    def applications(self) -> list[SpecializedRule]:
        out = [] if self.rule is None else [self.rule]
        for child in self.children:
            out.extend(child.applications())
        return out


_MISS = object()


def covers(
    rules: RuleSet, tree, by_root: dict | None = None, memo: dict | None = None
) -> Tiling | None:
    """The preferred tiling of *tree*, or None when it has none.

    *by_root* is ``rules.by_root_rule()`` and *memo* a dict; callers
    tiling many trees with one rule set pass the same two each time, so
    the index is built once and each distinct subtree shape is tiled
    once per category.  The memo is keyed on ``(node.shape, category)``:
    a tiling never refers to tree nodes, so trees of one shape share it.
    """
    if by_root is None:
        by_root = rules.by_root_rule()
    if memo is None:
        memo = {}

    def tile(node, category: str | None) -> Tiling | None:
        if isinstance(node, LexLeaf):
            return Tiling(None)
        key = (node.shape, category)
        hit = memo.get(key, _MISS)
        if hit is not _MISS:
            return hit
        result = None
        for rule in by_root.get(node.rule, []):
            if category is not None and rule.lhs != category:
                continue
            frontiers: list[tuple] = []
            if _match(rule.chunk, node, frontiers):
                children = []
                for sub, cat in frontiers:
                    sub_tiling = tile(sub, cat)
                    if sub_tiling is None:
                        break
                    children.append(sub_tiling)
                else:
                    result = Tiling(rule, tuple(children))
                    break
        memo[key] = result
        return result

    return tile(tree, None)


def _match(chunk, node, frontiers: list) -> bool:
    """Whether *chunk* matches the structure at *node*.

    Appends ``(subtree, category)`` for each frontier, left to right.
    """
    if isinstance(chunk, LexSlot):
        return isinstance(node, LexLeaf)
    if isinstance(chunk, Frontier):
        frontiers.append((node, chunk.category))
        return True
    if not isinstance(node, Internal) or node.rule != chunk.rule:
        return False
    for sub_chunk, sub_node in zip(chunk.children, node.children):
        if not _match(sub_chunk, sub_node, frontiers):
            return False
    return True


def validate_tiling(tiling: Tiling, tree) -> bool:
    """Re-walk a tiling bottom-up to confirm it really derives *tree*."""
    if tiling.rule is None:
        return isinstance(tree, LexLeaf)
    frontiers: list[tuple] = []
    if not _match(tiling.rule.chunk, tree, frontiers):
        return False
    if len(frontiers) != len(tiling.children):
        return False
    for (sub, cat), child in zip(frontiers, tiling.children):
        if child.rule is not None and child.rule.lhs != cat:
            return False
        if not validate_tiling(child, sub):
            return False
    return True


@dataclass
class CoverageReport:
    verdicts: list[bool]
    tilings: list
    vacuous: bool = False

    @property
    def fraction(self) -> float:
        if not self.verdicts:
            return 1.0
        return sum(self.verdicts) / len(self.verdicts)


def evaluate_coverage(rules: RuleSet, trees: list) -> CoverageReport:
    """Tile every tree; an empty test set counts as (vacuously) covered.

    The trees share one tiling memo, so trees of one shape share their
    tiling.
    """
    report = CoverageReport([], [], vacuous=not trees)
    by_root = rules.by_root_rule()
    memo: dict = {}
    for tree in trees:
        tiling = covers(rules, tree, by_root, memo)
        report.verdicts.append(tiling is not None)
        report.tilings.append(tiling)
    return report


def coverage(rules: RuleSet, trees: list) -> float:
    return evaluate_coverage(rules, trees).fraction


BUCKETS = ("1", "2", "3", "4+")


def _bucket(length: int) -> str:
    return str(length) if length < 4 else "4+"


@dataclass
class ReductionStats:
    counts: dict[str, int]
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
    rules: RuleSet,
    trees: list | None = None,
    weighted: bool = False,
    tilings: list | None = None,
) -> ReductionStats:
    """Reduction-length histogram over buckets 1, 2, 3 and 4+.

    Unweighted counts each distinct rule once.  Weighted counts rule
    applications in the preferred tilings of *trees*; untileable trees
    are skipped and reported.  Pass *tilings* (a CoverageReport's) to
    reuse tilings already made instead of tiling *trees* again.
    """
    counts = {b: 0 for b in BUCKETS}
    if not weighted:
        for rule in rules:
            counts[_bucket(rule.reduction_length)] += 1
        return ReductionStats(counts)
    if tilings is None:
        tilings = evaluate_coverage(rules, trees or []).tilings
    skipped = 0
    for tiling in tilings:
        if tiling is None:
            skipped += 1
            continue
        for rule in tiling.applications():
            counts[_bucket(rule.reduction_length)] += 1
    return ReductionStats(counts, skipped=skipped)


def render_stats(stats: ReductionStats, title: str) -> str:
    lines = [f"# {title}", "reduction_length\tcount\tpercent"]
    pct = stats.percentages()
    for bucket in BUCKETS:
        lines.append(f"{bucket}\t{stats.counts[bucket]}\t{pct[bucket]:.1f}")
    if stats.skipped:
        lines.append(f"# skipped untileable trees: {stats.skipped}")
    return "\n".join(lines) + "\n"
