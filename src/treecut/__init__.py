"""Grammar specialization by cutting treebank parses at entropy peaks."""

from treecut.andor import AndOrTree, OrNode, index_treebank
from treecut.coverage import evaluate_coverage, reduction_stats
from treecut.cutnodes import (
    CutnodeSet,
    EquivalenceClass,
    closure,
    neighbor_conflicts,
    select_by_threshold,
    select_iterative,
)
from treecut.entropy import PhraseEntropyTable, Slot, build_phrase_table, entropy
from treecut.extraction import (
    SpecializedRule,
    extract_andor,
    extract_training,
    name_rules,
    parse_rule_file,
    render_rule_file,
)
from treecut.grammar import (
    Internal,
    LexLeaf,
    RuleInventory,
    Treebank,
    parse_rule_inventory,
    parse_treebank,
    render_tree,
)
from treecut.node_entropy import (
    EntropyScheme,
    compute_node_entropies,
    unified_node_entropy,
)
from treecut.pipeline import PipelineConfig, run_pipeline
from treecut.threshold import ThresholdResult, bisect, search_unimodal

__version__ = "0.1.0"

__all__ = [
    "AndOrTree",
    "CutnodeSet",
    "EntropyScheme",
    "EquivalenceClass",
    "Internal",
    "LexLeaf",
    "OrNode",
    "PhraseEntropyTable",
    "PipelineConfig",
    "RuleInventory",
    "Slot",
    "SpecializedRule",
    "ThresholdResult",
    "Treebank",
    "bisect",
    "build_phrase_table",
    "closure",
    "compute_node_entropies",
    "entropy",
    "evaluate_coverage",
    "extract_andor",
    "extract_training",
    "index_treebank",
    "name_rules",
    "neighbor_conflicts",
    "parse_rule_file",
    "parse_rule_inventory",
    "parse_treebank",
    "reduction_stats",
    "render_rule_file",
    "render_tree",
    "run_pipeline",
    "search_unimodal",
    "select_by_threshold",
    "select_iterative",
    "unified_node_entropy",
]
