import pathlib

import pytest

from treecut.andor import index_treebank
from treecut.entropy import build_phrase_table
from treecut.extraction import render_chunk
from treecut.grammar import LexLeaf, Treebank, parse_rule_inventory, parse_treebank
from treecut.node_entropy import EntropyScheme, compute_node_entropies

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOY = ROOT / "corpora" / "toy"


def chunk_keys(rules) -> frozenset[str]:
    """Every rule's chunk, rendered: what makes two rules the same rule."""
    return frozenset(render_chunk(r.chunk) for r in rules)


def blind(tree) -> str:
    """The word-blind rendering of *tree*, each lexical lookup as ``(lex)``:
    what makes two subtrees the same shape."""
    parts = []
    stack = [tree]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, LexLeaf):
            parts.append(" (lex)")
        else:
            parts.append(" (" + item.rule)
            stack.append(")")
            stack.extend(reversed(item.children))
    return "".join(parts)[1:]


@pytest.fixture(scope="session")
def toy_dir():
    return TOY


@pytest.fixture(scope="session")
def inventory():
    return parse_rule_inventory((TOY / "grammar.txt").read_text(), "s")


@pytest.fixture(scope="session")
def treebank(inventory):
    training = parse_treebank((TOY / "train.txt").read_text(), inventory)
    test = parse_treebank((TOY / "test.txt").read_text(), inventory)
    return Treebank(inventory, training, test)


@pytest.fixture(scope="session")
def table(aot):
    return build_phrase_table(aot)


@pytest.fixture(scope="session")
def aot(treebank):
    return index_treebank(treebank.training, treebank.inventory)


@pytest.fixture(scope="session")
def mixed_scores(aot, table):
    return compute_node_entropies(aot, table, EntropyScheme.MIXED)
