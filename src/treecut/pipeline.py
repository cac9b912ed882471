"""End-to-end run: load corpora, pick cutnodes, extract rules, score them.

``set_up`` builds what every command starts from: the corpus, its index,
the phrase table and the node scores.  The ``SearchContext`` it returns
computes the rest of a run on first read: the threshold and its cut set,
the named rules, their coverage and their stats.  ``REPORTS`` renders
each report file from a context, and ``run_pipeline`` writes them all.
All outputs are deterministic functions of the inputs and the config,
so a rerun into the same directory rewrites byte-identical files.
"""

import gc
import os
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

from treecut.andor import AndOrTree, dump, index_treebank
from treecut.coverage import CoverageReport, ReductionStats, evaluate_coverage
from treecut.coverage import VerdictTable, reduction_stats, render_coverage
from treecut.coverage import render_stats
from treecut.cutnodes import (
    MAX_ITERATIONS,
    CutnodeSet,
    render_cut_classes,
    select_by_threshold,
)
from treecut.entropy import PhraseEntropyTable, build_phrase_table, render_entropy_table
from treecut.extraction import ANDOR_ENUM, DEFAULT_MAX_CHUNKS, TRAINING_CUT
from treecut.extraction import ChunkCapError, Pieces, RuleFileError, SpecializedRule
from treecut.extraction import extract_andor, extract_training, name_rules
from treecut.extraction import render_rule_file
from treecut.grammar import RuleInventory, Treebank, parse_rule_inventory, parse_shapes
from treecut.sexpr import LineNumberedError
from treecut.node_entropy import (
    EntropyScheme,
    NodeEntropyMap,
    compute_node_entropies,
    render_node_entropies,
)
from treecut.threshold import ThresholdProbe, bisect, search_unimodal


@dataclass
class PipelineConfig:
    grammar_path: str
    train_path: str
    test_path: str | None = None
    top: str = "s"
    scheme: EntropyScheme = EntropyScheme.MIXED
    neighbor_restrictions: bool = False
    decimals: int | None = 2
    threshold: float | None = None
    coverage_target: float | None = None
    mode: str = TRAINING_CUT
    max_chunks: int = DEFAULT_MAX_CHUNKS
    delta_s: float = 0.01
    max_iterations: int = MAX_ITERATIONS
    weighted_stats: bool = False
    out_dir: str | None = None


def config_line(cfg: PipelineConfig) -> str:
    parts = [
        f"grammar={cfg.grammar_path}",
        f"train={cfg.train_path}",
        f"test={cfg.test_path or '-'}",
        f"top={cfg.top}",
        f"scheme={cfg.scheme.value}",
        f"restrictions={'on' if cfg.neighbor_restrictions else 'off'}",
        f"decimals={cfg.decimals if cfg.decimals is not None else 'exact'}",
        f"mode={cfg.mode}",
    ]
    if cfg.threshold is not None:
        parts.append(f"threshold={cfg.threshold:g}")
    if cfg.coverage_target is not None:
        parts.append(f"coverage_target={cfg.coverage_target:g}")
    return "# config: " + " ".join(parts)


class InputError(Exception):
    """A file could not be read or parsed; the message names it."""


def load_file(path: str, parse):
    """*parse* applied to the text of *path*, a leading byte-order mark
    left out; InputError names the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse(handle.read().removeprefix("\ufeff"))
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 text (byte offset {exc.start})"
        ) from exc
    except (LineNumberedError, RuleFileError) as exc:
        raise InputError(f"{path}: {exc}") from exc


class OutputError(Exception):
    """A report directory or file could not be written; the message names it."""


def load_trees(path: str, inv: RuleInventory) -> list:
    """The complete parses in the treebank file *path*, without their words.

    Each word-blind subtree of the file is one object (see
    ``grammar.parse_shapes``); no stage after loading reads a word.
    """
    return load_file(path, lambda text: parse_shapes(text, inv))


def load_treebank(cfg: PipelineConfig) -> Treebank:
    """Read and validate the grammar and tree files.

    Raises InputError, with the offending path and line in the message,
    for unreadable or malformed files, for a training file without
    trees, and for a test file without trees when a coverage target or
    weighted stats read it: no tree would be tiled, so every probe
    would read full coverage and no application would be counted.
    """
    inv = load_file(cfg.grammar_path, lambda t: parse_rule_inventory(t, cfg.top))
    training = load_trees(cfg.train_path, inv)
    if not training:
        raise InputError(f"{cfg.train_path}: no training trees")
    test = [] if cfg.test_path is None else load_trees(cfg.test_path, inv)
    if not test and (cfg.coverage_target is not None or cfg.weighted_stats):
        raise InputError(f"{cfg.test_path}: no test trees")
    return Treebank(inv, training, test)


def partition_key(cutnodes: CutnodeSet) -> tuple:
    """Every class's member seqs and cut flag: all that extraction reads."""
    return tuple(
        (tuple(m.seq for m in cls.members), cls.cut) for cls in cutnodes.classes
    )


@dataclass
class SearchContext:
    """One run: the fields ``set_up`` fills, and each later stage,
    computed on first read and kept, so a command computes only what its
    report reads.  ``choice`` is the threshold, the search that found it
    (None for a fixed one) and its cut set; ``rules`` names the chosen
    partition's chunks; ``coverage`` tiles the test set with them under
    the preference, and ``stats`` counts their reduction lengths.

    Under the mixed and rhs-local schemes node scores do not depend on
    the threshold, so coverage is a step function of it and a search
    keeps landing on partitions it has already seen.  Chunks in both
    extraction modes depend only on the closed partition, so *probe*
    extracts once per distinct partition, unnamed and in the order
    found, and *memo* keeps each one's chunks and coverage.  Every
    extraction of the run builds its chunks through the one *pieces*
    store, so a chunk that partitions share is one object, and the one
    ``verdicts`` table matches it against the test set once.  The
    reported tilings come from ``evaluate_coverage``, once a run, which
    tiles with a table of its own in the same children-first pass.
    """

    treebank: Treebank
    aot: AndOrTree
    table: PhraseEntropyTable
    cfg: PipelineConfig
    scores: NodeEntropyMap
    memo: dict = field(default_factory=dict, init=False)
    pieces: Pieces = field(default_factory=Pieces, init=False)

    def select(self, threshold: float) -> CutnodeSet:
        return select_by_threshold(
            threshold, self.aot, self.table, self.scores,
            restrictions=self.cfg.neighbor_restrictions,
            max_iterations=self.cfg.max_iterations,
        )

    def extract(self, threshold: float, cutnodes: CutnodeSet) -> list:
        """The ``[chunk, support]`` pairs of *cutnodes*, chosen at *threshold*."""
        if self.cfg.mode != ANDOR_ENUM:
            return extract_training(
                self.treebank.training, self.aot, cutnodes, pieces=self.pieces
            )
        try:
            return extract_andor(
                self.aot, cutnodes, max_chunks=self.cfg.max_chunks, pieces=self.pieces
            )
        except ChunkCapError as exc:
            raise ChunkCapError(
                f"{exc} at threshold {threshold:.6f}; --max-chunks sets the cap"
            ) from exc

    def probe(self, threshold: float) -> ThresholdProbe:
        cutnodes = self.select(threshold)
        key = partition_key(cutnodes)
        if key not in self.memo:
            chunks = self.extract(threshold, cutnodes)
            self.memo[key] = (chunks, self.verdicts.fraction(chunks))
        return ThresholdProbe(cutnodes, self.memo[key][1])

    @cached_property
    def verdicts(self) -> VerdictTable:
        return VerdictTable(self.treebank.test)

    @cached_property
    def choice(self) -> tuple:
        cfg = self.cfg
        if cfg.coverage_target is None:
            threshold = cfg.threshold if cfg.threshold is not None else 0.0
            return threshold, None, self.select(threshold)
        find = search_unimodal if cfg.neighbor_restrictions else bisect
        s_high = self.scores.max_value() + 1.0
        search = find(cfg.coverage_target, self.probe, s_high, cfg.delta_s)
        return search.threshold, search, search.probe.cutnodes

    @cached_property
    def rules(self) -> list[SpecializedRule]:
        threshold, _, cutnodes = self.choice
        # a search extracted its partition already; a fixed threshold has not
        seen = self.memo.get(partition_key(cutnodes))
        chunks = self.extract(threshold, cutnodes) if seen is None else seen[0]
        return name_rules(chunks, self.treebank.inventory)

    @cached_property
    def coverage(self) -> CoverageReport:
        return evaluate_coverage(self.rules, self.treebank.test)

    @cached_property
    def stats(self) -> ReductionStats:
        return reduction_stats(
            self.rules, weighted=self.cfg.weighted_stats, tilings=self.coverage.tilings
        )


def set_up(cfg: PipelineConfig) -> SearchContext:
    """Load the corpus and build its index, the phrase table at
    *cfg.decimals* and the node scores under *cfg.scheme*."""
    treebank = load_treebank(cfg)
    aot = index_treebank(treebank.training, treebank.inventory)
    table = build_phrase_table(aot, cfg.decimals)
    scores = compute_node_entropies(aot, table, cfg.scheme)
    return SearchContext(treebank, aot, table, cfg, scores)


@contextmanager
def collector_paused():
    """Pause the cyclic garbage collector, and restore the state it was
    found in, also when an error is raised.  A command builds a heap that
    lives to its end and makes almost no cyclic garbage, so a collection
    would only rescan the treebank, the index and the chunks."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


@collector_paused()
def run_pipeline(cfg: PipelineConfig) -> tuple[SearchContext, list[str]]:
    """Every stage of a run, then, given *cfg.out_dir*, its reports:
    the context and the paths written, with the collector paused."""
    if cfg.out_dir is not None:  # fail before the work, not after it
        try:
            os.makedirs(cfg.out_dir, exist_ok=True)
        except OSError as exc:
            reason = exc.strerror or exc
            raise OutputError(
                f"{cfg.out_dir}: cannot create report directory ({reason})"
            ) from exc
    context = set_up(cfg)
    context.stats  # reads every other stage; the reports only render
    written = [] if cfg.out_dir is None else write_reports(context)
    return context, written


def render_threshold_report(context: SearchContext) -> Iterator[str]:
    """threshold.txt's lines: the search's outcome, or the fixed threshold."""
    threshold, search, cutnodes = context.choice
    if search is None:
        yield "mode\tfixed\n"
        yield f"threshold\t{threshold:.6f}\n"
    else:
        yield "mode\tsearch\n"
        yield f"target\t{context.cfg.coverage_target:.6f}\n"
        yield f"attainable\t{'yes' if search.attainable else 'no'}\n"
        yield f"threshold\t{search.threshold:.6f}\n"
        yield f"coverage\t{search.probe.coverage:.6f}\n"
        if search.bracket_high is not None:
            yield f"bracket_high\t{search.bracket_high:.6f}\n"
            yield f"coverage_at_bracket_high\t{search.coverage_at_high:.6f}\n"
        yield f"probes\t{search.steps}\n"
    yield f"cut_classes\t{len(cutnodes.cut_classes())}\n"
    yield f"cut_nodes\t{len(cutnodes.cut_node_ids())}\n"


# Every report file and its renderer over a run's context: `run` writes
# them all, and each one-report command prints one.
REPORTS = {
    "andor_index.txt": lambda run: dump(run.aot),
    "coverage.tsv": lambda run: render_coverage(run.coverage),
    "cutnodes.txt": lambda run: render_cut_classes(run.choice[2], run.scores),
    "entropy_table.tsv": lambda run: render_entropy_table(run.table),
    "node_entropy.tsv": lambda run: render_node_entropies(run.aot, run.scores),
    "reduction_stats.tsv": lambda run: render_stats(run.stats),
    "rules.txt": lambda run: render_rule_file(run.rules),
    "threshold.txt": render_threshold_report,
}


def write_reports(context: SearchContext) -> list[str]:
    """Write every report into the existing ``cfg.out_dir``, each line as
    its renderer yields it, and coverage.tsv only for a given test file;
    returns the paths in write order."""
    cfg = context.cfg
    header = config_line(cfg) + "\n"
    written = []
    for name in sorted(REPORTS):
        if name == "coverage.tsv" and cfg.test_path is None:
            continue
        path = os.path.join(cfg.out_dir, name)
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(header)
                handle.writelines(REPORTS[name](context))
        except OSError as exc:
            raise OutputError(f"{path}: {exc.strerror or exc}") from exc
        written.append(path)
    return written
