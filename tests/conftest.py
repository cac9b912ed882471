import pytest

from treecut.andor import index_treebank
from treecut.cutnodes import select_by_threshold
from treecut.entropy import build_phrase_table
from treecut.extraction import extract_training, name_rules
from treecut.grammar import Treebank, parse_rule_inventory, parse_treebank
from treecut.node_entropy import EntropyScheme, compute_node_entropies

from oracles import DEEP, TOY, chain_text


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


@pytest.fixture(scope="session")
def deep_chain(inventory):
    """One DEEP-level np_np_pp chain and its index."""
    (tree,) = parse_treebank(chain_text(DEEP), inventory, require_top=True)
    return tree, index_treebank([tree], inventory)


@pytest.fixture(scope="session")
def toy_cut(aot, table, mixed_scores):
    """The toy cut set at threshold 1.0."""
    return select_by_threshold(1.0, aot, table, mixed_scores)


@pytest.fixture(scope="session")
def toy_rules(treebank, aot, toy_cut):
    """The training rules of the toy cut set."""
    return name_rules(extract_training(treebank.training, aot, toy_cut), aot.inventory)
