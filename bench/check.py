"""Correctness checks on the report files of one ``treecut run``.

Everything here is recomputed from the generated trees without
importing ``treecut``: the phrase table, the and-or index with its node
numbering, the cut-set closure and neighbour rule, and coverage by an
exhaustive tiler with no memo.  Each check returns a list of problems;
an empty list means the reports agree.
"""

import math
import os
import re

LEX = "lex"
ROOT_CONTEXT = "ROOT"


def read_report(out_dir: str, name: str) -> list[str]:
    """Lines of a report file, without its ``# config:`` header."""
    with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return [line for line in lines if not line.startswith("# config:")]


def key_values(out_dir: str) -> dict[str, str]:
    return dict(line.split("\t", 1) for line in read_report(out_dir, "threshold.txt"))


# ---- phrase table -------------------------------------------------------


def slot_counts(trees) -> dict:
    """Outcome counts per (rule, position); position 0 is the LHS."""
    counts: dict = {}

    def add(slot, outcome):
        dist = counts.setdefault(slot, {})
        dist[outcome] = dist.get(outcome, 0) + 1

    def walk(tree, context):
        rule = tree[0]
        add((rule, 0), context)
        for k, child in enumerate(tree[1:], start=1):
            add((rule, k), child[0])
            if child[0] != LEX:
                walk(child, f"{rule}/{k}")

    for tree in trees:
        walk(tree, ROOT_CONTEXT)
    return counts


def entropy(dist: dict) -> float:
    total = sum(dist.values())
    return -sum(c / total * math.log(c / total) for c in dist.values())


def check_phrase_table(trees, out_dir: str) -> list[str]:
    table = {slot: entropy(d) for slot, d in slot_counts(trees).items()}
    problems = []
    for row in read_report(out_dir, "entropy_table.tsv")[1:]:
        rule, *cells = row.split("\t")
        for pos, cell in enumerate(cells):
            if cell == "---":
                continue
            unseen = cell.endswith("*")
            value = float(cell.rstrip("*"))
            if unseen != ((rule, pos) not in table):
                problems.append(f"entropy table {rule}/{pos}: seen-ness differs")
            elif abs(value - table.get((rule, pos), 0.0)) > 0.005 + 1e-9:
                problems.append(
                    f"entropy table {rule}/{pos}: {value} vs recount "
                    f"{table[(rule, pos)]:.4f}"
                )
    return problems


# ---- and-or index ---------------------------------------------------------


class Index:
    """Distinct rule-labelled tree positions of the training trees.

    Position i has a category, arc counts by rule (``lex`` included),
    child positions per rule, a lexical-yield flag and the (rule, k)
    slot it fills.  ``ids`` follow the documented numbering: depth
    first, arcs in rule-id order, ``root`` then ``n1``.. for positions
    with a rule arc and ``t1``.. for lexical-only ones.
    """

    def __init__(self, trees, rhs_of: dict, top: str):
        self.rhs_of = rhs_of
        self.category = [top]
        self.slot = [None]
        self.arcs: list[dict] = [{}]
        self.kids: list[dict] = [{}]
        self.lexical = [False]
        for tree in trees:
            self._insert(0, tree)
        self.ids = [""] * len(self.category)
        self._number()
        self.by_id = {name: i for i, name in enumerate(self.ids)}

    def _insert(self, pos: int, tree) -> int:
        rule = tree[0]
        self.arcs[pos][rule] = self.arcs[pos].get(rule, 0) + 1
        if rule == LEX:
            self.lexical[pos] = True
            return 1
        kids = self.kids[pos].get(rule)
        if kids is None:
            kids = []
            for k, cat in enumerate(self.rhs_of[rule], start=1):
                kids.append(len(self.category))
                self.category.append(cat)
                self.slot.append((rule, k))
                self.arcs.append({})
                self.kids.append({})
                self.lexical.append(False)
            self.kids[pos][rule] = kids
        words = sum(self._insert(kid, sub) for kid, sub in zip(kids, tree[1:]))
        if words:
            self.lexical[pos] = True
        return words

    def _number(self) -> None:
        counters = {"n": 0, "t": 0}
        stack = [0]
        while stack:
            pos = stack.pop()
            if pos == 0:
                self.ids[pos] = "root"
            else:
                kind = "n" if any(r != LEX for r in self.arcs[pos]) else "t"
                counters[kind] += 1
                self.ids[pos] = f"{kind}{counters[kind]}"
            order = [kid for r in sorted(self.arcs[pos]) for kid in self.kids[pos].get(r, [])]
            stack.extend(reversed(order))

    def __len__(self) -> int:
        return len(self.category)


def check_index(index: Index, out_dir: str) -> list[str]:
    rows = [line.split("\t") for line in read_report(out_dir, "node_entropy.tsv")[1:]]
    if len(rows) != len(index):
        return [f"{len(rows)} or-nodes reported, {len(index)} distinct tree positions"]
    for node_id, category, _ in rows:
        pos = index.by_id.get(node_id)
        if pos is None or index.category[pos] != category:
            return [f"or-node {node_id} ({category}) is not a tree position"]
    return []


# ---- cut set --------------------------------------------------------------


def cut_classes(out_dir: str) -> list[tuple[str, frozenset]]:
    """(category, member ids) of each reported cut class."""
    classes = []
    for line in read_report(out_dir, "cutnodes.txt"):
        if line.startswith("("):
            continue
        _, category, members, _ = line.split("\t")
        classes.append((category, frozenset(members.strip("{}").split())))
    return classes


def close(index: Index, cut_ids) -> set[frozenset]:
    """Cut classes of the least coherent assignment holding *cut_ids*.

    A plain fixpoint: equate same-category cutnodes, equate children of
    equated positions along the same rule, cut every class holding a
    cutnode; then drop cut classes without lexical yield.
    """
    label = list(range(len(index)))
    members = {i: {i} for i in range(len(index))}
    cut = {index.by_id[n] for n in cut_ids}

    def merge(a, b) -> bool:
        la, lb = label[a], label[b]
        if la == lb:
            return False
        if len(members[la]) < len(members[lb]):
            la, lb = lb, la
        for m in members.pop(lb):
            label[m] = la
            members[la].add(m)
        return True

    changed = True
    while changed:
        changed = False
        first_of: dict[str, int] = {}
        for pos in sorted(cut):
            cat = index.category[pos]
            changed |= merge(first_of.setdefault(cat, pos), pos)
        for group in [list(g) for g in members.values() if len(g) > 1]:
            seen: dict[str, list] = {}
            for pos in group:
                for rule, kids in index.kids[pos].items():
                    if rule in seen:
                        for a, b in zip(seen[rule], kids):
                            changed |= merge(a, b)
                    else:
                        seen[rule] = kids
        for group in members.values():
            if group & cut and not group <= cut:
                cut |= group
                changed = True
    return {
        frozenset(index.ids[m] for m in group)
        for group in members.values()
        if group & cut and any(index.lexical[m] for m in group)
    }


def neighbour_conflicts(index: Index, trees, classes) -> list[str]:
    """Rules whose attachment and tightest slot are both cut.

    The tightest slot of a rule is its lowest-entropy RHS position at
    the table's two-decimal precision, lowest index on ties.
    """
    table = {slot: entropy(d) for slot, d in slot_counts(trees).items()}
    attached: set = set()
    occupied: set = set()
    for _, ids in classes:
        for node_id in ids:
            pos = index.by_id[node_id]
            attached.update(r for r in index.arcs[pos] if r != LEX)
            if index.slot[pos] is not None:
                occupied.add(index.slot[pos])
    problems = []
    for rule in sorted(attached):
        arity = len(index.rhs_of[rule])
        if not arity:
            continue
        k_star = min(
            range(1, arity + 1),
            key=lambda k: (round(table.get((rule, k), 0.0), 2), k),
        )
        if (rule, k_star) in occupied:
            problems.append(f"neighbour conflict left at {rule} slot {k_star}")
    return problems


def check_cutset(index: Index, trees, out_dir: str, restrictions: bool) -> list[str]:
    classes = cut_classes(out_dir)
    problems = []
    categories = [cat for cat, _ in classes]
    if len(categories) != len(set(categories)):
        problems.append(f"more than one cut class per category: {sorted(categories)}")
    cut_ids = set().union(*(ids for _, ids in classes)) if classes else set()
    if close(index, cut_ids) != {ids for _, ids in classes}:
        problems.append("closing the reported cut set changes it")
    if restrictions:
        problems.extend(neighbour_conflicts(index, trees, classes))
    return problems


# ---- coverage -------------------------------------------------------------

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_chunk(text: str):
    """A chunk s-expression as nested tuples; a bare symbol is a frontier."""
    stack: list[list] = [[]]
    for token in _TOKEN.findall(text):
        if token == "(":
            stack.append([])
        elif token == ")":
            done = tuple(stack.pop())
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    (chunk,) = stack[0]
    return chunk


def read_rules(out_dir: str) -> list[tuple[str, tuple]]:
    """(lhs, chunk) of every rule in rules.txt."""
    lines = read_report(out_dir, "rules.txt")
    rules = []
    for i, line in enumerate(lines):
        if line and not line.startswith(" "):
            lhs = line.split(":", 1)[1].split("=>", 1)[0].strip()
            rules.append((lhs, parse_chunk(lines[i + 1].strip())))
    return rules


def _match(chunk, tree, frontiers: list) -> bool:
    if isinstance(chunk, str):
        frontiers.append((tree, chunk))
        return True
    if chunk[0] == LEX:
        return tree[0] == LEX
    if tree[0] != chunk[0] or len(tree) != len(chunk):
        return False
    return all(_match(c, t, frontiers) for c, t in zip(chunk[1:], tree[1:]))


def tiles(by_root: dict, tree, category=None) -> bool:
    """Exhaustive search for a tiling; no memo, no preference order.

    A frontier also accepts a bare lexical lookup.
    """
    if tree[0] == LEX:
        return True
    for lhs, chunk in by_root.get(tree[0], ()):
        if category is not None and lhs != category:
            continue
        frontiers: list = []
        if _match(chunk, tree, frontiers) and all(
            tiles(by_root, sub, cat) for sub, cat in frontiers
        ):
            return True
    return False


def verdicts(rules, trees) -> list[bool]:
    by_root: dict = {}
    for lhs, chunk in rules:
        by_root.setdefault(chunk[0], []).append((lhs, chunk))
    return [tiles(by_root, tree) for tree in trees]


def check_coverage(test, out_dir: str) -> tuple[list[str], float]:
    """Reported per-tree verdicts against the exhaustive tiler."""
    got = verdicts(read_rules(out_dir), test)
    rows = read_report(out_dir, "coverage.tsv")[1:-1]
    reported = [row.split("\t")[1] == "yes" for row in rows]
    fraction = sum(got) / len(got)
    if reported != got:
        bad = sum(a != b for a, b in zip(reported, got)) + abs(len(reported) - len(got))
        return [f"coverage verdicts differ from the exhaustive tiler on {bad} trees"], fraction
    return [], fraction


def check_training_tiled(training, out_dir: str) -> list[str]:
    missed = verdicts(read_rules(out_dir), training).count(False)
    return [f"training rules fail to tile {missed} training trees"] if missed else []


def same_reports(first: str, other: str) -> list[str]:
    names = sorted(os.listdir(first))
    if names != sorted(os.listdir(other)):
        return [f"{other} holds other report files than {first}"]
    for name in names:
        with open(os.path.join(first, name), "rb") as a, open(
            os.path.join(other, name), "rb"
        ) as b:
            if a.read() != b.read():
                return [f"{name} differs between two runs"]
    return []
