"""And-or tree index over a treebank.

The index merges every training tree into one alternating structure:
an or-node collects the alternative expansions observed at one tree
position, and its ``arcs`` map each rule id (``lex`` included) to the
list of or-nodes for that rule's RHS slots, the and-node of the
alternation (``[]`` for ``lex``).  Arc traversal counts are kept so
downstream scoring can weight alternatives by relative frequency.

Node ids are assigned after construction by a DFS that orders arcs by
rule id, so any permutation of the training set produces the same ids:
the root is ``root``, or-nodes with at least one non-lex arc are
numbered ``n1``, ``n2``, ... in visit order, and or-nodes whose only
arcs are lexical are numbered ``t1``, ``t2``, ...
"""

from collections.abc import Iterator
from dataclasses import dataclass, field

from treecut.grammar import LEX, Internal, RuleInventory, Slot, shape_groups


class PathNotInIndexError(Exception):
    """A tree position has no matching or-node arc in the index."""


@dataclass(eq=False, repr=False)
class OrNode:
    """One tree position: each rule seen there maps to its child or-nodes,
    one per RHS slot.  Closures read ``arcs`` in place and never write
    into them."""

    category: str
    parent_slot: Slot | None
    arcs: dict[str, list["OrNode"]] = field(default_factory=dict)
    arc_counts: dict[str, int] = field(default_factory=dict)
    has_lexical_yield: bool = False
    node_id: str = ""
    seq: int = -1

    @property
    def visit_count(self) -> int:
        return sum(self.arc_counts.values())

    def sorted_arcs(self) -> list[tuple[str, list["OrNode"]]]:
        return sorted(self.arcs.items())

    def __repr__(self) -> str:  # one line: the fields reach the whole index
        return f"OrNode({self.node_id}, {self.category})"


@dataclass
class AndOrTree:
    """The index, every arc ``(or-node, rule)`` in the order it was
    created (``entropy.build_phrase_table`` sums them), and what
    ``cutnodes.closure`` keeps for it: the closed partitions, keyed on
    each cut set closed and on each closed result's own cut set.  The
    closure's union-find reads the or-nodes' own ``arcs``."""

    root: OrNode
    node_index: dict[str, OrNode]
    inventory: RuleInventory
    arc_order: list = field(default_factory=list, compare=False, repr=False)
    closures: dict = field(default_factory=dict, compare=False, repr=False)

    def __getitem__(self, node_id: str) -> OrNode:
        return self.node_index[node_id]

    def nodes(self) -> list[OrNode]:
        """Every or-node, in ``seq`` order (``_assign_ids`` inserts them so)."""
        return list(self.node_index.values())


def _insert(root: OrNode, tree, inv: RuleInventory, arc_order: list, pairs: dict):
    """Walk *tree* at *root* in preorder, creating the arcs it needs, and
    record each (or-node, subtree) pair in *pairs* with weight 0.  A pair
    met before is skipped: its subtree adds no arc there that it did
    not add the first time.  Each new arc is appended to *arc_order*."""
    stack = [(root, tree)]
    while stack:
        node, tree = stack.pop()
        group = pairs.get(node)
        if group is None:
            group = pairs[node] = {}
        elif id(tree) in group:
            continue
        group[id(tree)] = [tree, 0]
        if tree.length > 0:
            node.has_lexical_yield = True
        rule = tree.rule if tree.__class__ is Internal else LEX
        children = node.arcs.get(rule)
        if children is None:
            children = node.arcs[rule] = [] if rule == LEX else [
                OrNode(category=cat, parent_slot=Slot(rule, k))
                for k, cat in enumerate(inv[rule].rhs, start=1)
            ]
            node.arc_counts[rule] = 0
            arc_order.append((node, rule))
        if rule != LEX:
            stack.extend(reversed(list(zip(children, tree.children))))


def _assign_ids(root: OrNode) -> dict[str, OrNode]:
    """Number the or-nodes in preorder, arcs in rule-id order."""
    index: dict[str, OrNode] = {}
    counters = {"n": 0, "t": 0}
    stack = [root]
    while stack:
        node = stack.pop()
        if node is root:
            node.node_id = "root"
        else:
            kind = "n" if any(r != LEX for r in node.arcs) else "t"
            counters[kind] += 1
            node.node_id = f"{kind}{counters[kind]}"
        node.seq = len(index)
        index[node.node_id] = node
        stack.extend(
            child
            for _, children in reversed(node.sorted_arcs())
            for child in reversed(children)
        )
    return index


def index_treebank(training: list, inv: RuleInventory) -> AndOrTree:
    """Merge the training trees into one and-or tree.

    The work is bounded by the distinct (or-node, subtree object) pairs.
    The loader builds each word-blind subtree as one object, so a first
    pass walks each distinct root object (see ``shape_groups``) and skips
    any pair met before: it adds no or-node or arc, so the arcs come in
    the order a tree-by-tree merge creates them.  A second pass moves the
    multiplicities down, parent or-nodes first, into the arc counts.
    """
    root = OrNode(category=inv.top, parent_slot=None)
    arc_order: list = []
    # or-node -> {id(subtree): [subtree, weight]}; an or-node is first
    # reached after its parent, so the keys list parents first
    pairs: dict[OrNode, dict[int, list]] = {}
    for tree, n in shape_groups(training):
        _insert(root, tree, inv, arc_order, pairs)
        pairs[root][id(tree)][1] += n
    for node, group in pairs.items():  # parents first: each weight is whole
        for tree, weight in group.values():
            rule = tree.rule if tree.__class__ is Internal else LEX
            node.arc_counts[rule] += weight
            if rule != LEX:
                for child, subtree in zip(node.arcs[rule], tree.children):
                    pairs[child][id(subtree)][1] += weight
    return AndOrTree(root, _assign_ids(root), inv, arc_order)


def dump(aot: AndOrTree) -> Iterator[str]:
    """Readable indented lines: ids, categories, arcs and counts."""
    # (or-node, depth, None) still to visit, and (or-node, depth, rule)
    # for arc lines due before the or-nodes below them
    stack: list = [(aot.root, 0, None)]
    while stack:
        node, depth, rule = stack.pop()
        pad = "  " * depth
        if rule is not None:
            yield f"{pad}  -{rule} x{node.arc_counts[rule]}\n"
            continue
        flag = "" if node.has_lexical_yield else "  [no lexical yield]"
        yield f"{pad}{node.node_id} ({node.category}) visits={node.visit_count}{flag}\n"
        for rule, children in reversed(node.sorted_arcs()):
            stack.extend((child, depth + 2, None) for child in reversed(children))
            stack.append((node, depth, rule))
