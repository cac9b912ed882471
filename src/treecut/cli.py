"""Command line front end.

Exit codes: 0 on success, 2 when a requested coverage target is
unattainable, and 1 for every error in HANDLED_ERRORS: a bad flag,
unreadable or malformed input, or an unwritable report directory.
Commands raise them and ``main`` alone prints them and returns 1.
"""

import argparse
import math
import sys

from treecut.andor import index_treebank
from treecut.andor import dump as dump_index
from treecut.coverage import evaluate_coverage, reduction_stats
from treecut.coverage import render_coverage, render_stats
from treecut.cutnodes import IterationLimitError, render_cut_classes
from treecut.entropy import build_phrase_table, render_entropy_table
from treecut.extraction import (
    ANDOR_ENUM,
    DEFAULT_MAX_CHUNKS,
    TRAINING_CUT,
    ChunkExplosionError,
    RuleFileError,
    parse_rule_file,
    render_rule_file,
    validate_rules,
)
from treecut.node_entropy import (
    EntropyScheme,
    compute_node_entropies,
    render_node_entropies,
)
from treecut.pipeline import (
    InputError,
    OutputError,
    PipelineConfig,
    load_file,
    load_treebank,
    load_trees,
    render_threshold_report,
    run_pipeline,
)
from treecut.grammar import parse_rule_inventory


class FlagError(Exception):
    """A command-line value is out of range; the message names the flag."""


HANDLED_ERRORS = (
    FlagError,
    InputError,
    OutputError,
    RuleFileError,
    ChunkExplosionError,
    IterationLimitError,
)


def _add_corpus_args(p):
    p.add_argument("--grammar", required=True, help="grammar rule file")
    p.add_argument("--train", required=True, help="training treebank")
    p.add_argument("--test", help="held-out treebank")
    p.add_argument("--top", default="s", help="root category (default: s)")


def _add_scoring_args(p):
    p.add_argument(
        "--scheme",
        choices=[s.value for s in EntropyScheme],
        default=EntropyScheme.MIXED.value,
        help="node scoring scheme (default: mixed)",
    )
    p.add_argument(
        "--exact",
        action="store_true",
        help="score with full float precision instead of 2 decimals",
    )
    p.add_argument(
        "--restrictions",
        action="store_true",
        help="resolve neighboring-cut conflicts",
    )


def _add_extract_args(p):
    p.add_argument(
        "--mode",
        choices=[TRAINING_CUT, ANDOR_ENUM],
        default=TRAINING_CUT,
        help="chunk source (default: training)",
    )
    p.add_argument(
        "--max-chunks",
        type=int,
        default=DEFAULT_MAX_CHUNKS,
        help="abort andor enumeration past this many chunks",
    )


def _check_flags(args) -> None:
    coverage = getattr(args, "coverage", None)
    if coverage is not None and not 0.0 <= coverage <= 1.0:
        raise FlagError(f"--coverage must be a number in [0, 1], got {coverage}")
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not math.isfinite(threshold):
        raise FlagError(f"--threshold must be a finite number, got {threshold}")
    delta_s = getattr(args, "delta_s", None)
    if delta_s is not None and not (math.isfinite(delta_s) and delta_s > 0):
        raise FlagError(
            f"--delta-s must be a finite number above 0, got {delta_s}"
        )


def _config(args) -> PipelineConfig:
    _check_flags(args)
    return PipelineConfig(
        grammar_path=args.grammar,
        train_path=args.train,
        test_path=getattr(args, "test", None),
        top=args.top,
        scheme=EntropyScheme(getattr(args, "scheme", "mixed")),
        neighbor_restrictions=getattr(args, "restrictions", False),
        decimals=None if getattr(args, "exact", False) else 2,
        threshold=getattr(args, "threshold", None),
        coverage_target=getattr(args, "coverage", None),
        mode=getattr(args, "mode", TRAINING_CUT),
        max_chunks=getattr(args, "max_chunks", DEFAULT_MAX_CHUNKS),
        delta_s=getattr(args, "delta_s", 0.01),
        max_iterations=getattr(args, "max_iterations", 50),
        weighted_stats=getattr(args, "weighted", False),
        out_dir=getattr(args, "out", None),
    )


def cmd_entropy_table(args) -> int:
    cfg = _config(args)
    treebank = load_treebank(cfg)
    aot = index_treebank(treebank.training, treebank.inventory)
    sys.stdout.write(render_entropy_table(build_phrase_table(aot)))
    return 0


def cmd_index(args) -> int:
    cfg = _config(args)
    treebank = load_treebank(cfg)
    aot = index_treebank(treebank.training, treebank.inventory)
    if args.dump:
        sys.stdout.write(dump_index(aot))
        return 0
    phrase = sum(1 for n in aot.node_index if n.startswith("n"))
    lexical = sum(1 for n in aot.node_index if n.startswith("t"))
    print(f"or_nodes\t{len(aot.node_index)}")
    print(f"phrase_nodes\t{phrase}")
    print(f"lexical_nodes\t{lexical}")
    return 0


def cmd_entropy(args) -> int:
    cfg = _config(args)
    treebank = load_treebank(cfg)
    aot = index_treebank(treebank.training, treebank.inventory)
    table = build_phrase_table(aot)
    scores = compute_node_entropies(aot, table, cfg.scheme, decimals=cfg.decimals)
    sys.stdout.write(render_node_entropies(aot, scores))
    return 0


def cmd_cut(args) -> int:
    result = run_pipeline(_config(args))
    sys.stdout.write(render_cut_classes(result.cutnodes, result.scores))
    return 0


def cmd_bisect(args) -> int:
    cfg = _config(args)
    result = run_pipeline(cfg)
    sys.stdout.write(render_threshold_report(result, cfg))
    return 0 if result.attainable else 2


def cmd_extract(args) -> int:
    result = run_pipeline(_config(args))
    validate_rules(result.rules, result.treebank.inventory)
    sys.stdout.write(render_rule_file(result.rules))
    return 0


def cmd_evaluate(args) -> int:
    inv = load_file(args.grammar, lambda t: parse_rule_inventory(t, args.top))
    rules = load_file(args.rules, lambda t: validate_rules(parse_rule_file(t), inv))
    test = load_trees(args.test, inv)
    sys.stdout.write(render_coverage(evaluate_coverage(rules, test)))
    return 0


def cmd_stats(args) -> int:
    rules = load_file(args.rules, parse_rule_file)
    tilings = []
    if args.weighted:
        if not (args.grammar and args.test):
            raise FlagError("--weighted needs --grammar and --test")
        inv = load_file(args.grammar, lambda t: parse_rule_inventory(t, args.top))
        trees = load_trees(args.test, inv)
        try:  # the tiler takes the rules to be well typed for the grammar
            validate_rules(rules, inv)
        except RuleFileError as exc:
            raise InputError(f"{args.rules}: {exc}") from exc
        tilings = evaluate_coverage(rules, trees).tilings
    stats = reduction_stats(rules, weighted=args.weighted, tilings=tilings)
    sys.stdout.write(
        render_stats(stats, "weighted" if args.weighted else "unweighted")
    )
    return 0


def cmd_run(args) -> int:
    cfg = _config(args)
    if (cfg.threshold is None) == (cfg.coverage_target is None):
        raise FlagError("pass exactly one of --threshold / --coverage")
    result = run_pipeline(cfg)
    for path in result.written:
        print(f"wrote {path}")
    print(f"threshold\t{result.threshold:.6f}")
    print(f"rules\t{len(result.rules)}")
    if result.coverage is not None:
        print(f"coverage\t{result.coverage.fraction:.6f}")
    if not result.attainable:
        print("coverage target unattainable", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecut",
        description="Specialize a treebank grammar by cutting its parses "
        "at high-entropy phrase nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy-table", help="print the phrase entropy table")
    _add_corpus_args(p)
    p.set_defaults(handler=cmd_entropy_table)

    p = sub.add_parser("index", help="summarize or dump the parse index")
    _add_corpus_args(p)
    p.add_argument("--dump", action="store_true", help="print the full index")
    p.set_defaults(handler=cmd_index)

    p = sub.add_parser("entropy", help="print per-node entropy scores")
    _add_corpus_args(p)
    _add_scoring_args(p)
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("cut", help="select cutnode classes at a threshold")
    _add_corpus_args(p)
    _add_scoring_args(p)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--max-iterations", type=int, default=50)
    p.set_defaults(handler=cmd_cut)

    p = sub.add_parser("bisect", help="search the threshold for a coverage target")
    _add_corpus_args(p)
    _add_scoring_args(p)
    _add_extract_args(p)
    p.add_argument("--coverage", type=float, required=True)
    p.add_argument("--delta-s", dest="delta_s", type=float, default=0.01)
    p.set_defaults(handler=cmd_bisect)

    p = sub.add_parser("extract", help="extract specialized rules")
    _add_corpus_args(p)
    _add_scoring_args(p)
    _add_extract_args(p)
    p.add_argument("--threshold", type=float, required=True)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("evaluate", help="score a rule file against a treebank")
    p.add_argument("--grammar", required=True)
    p.add_argument("--rules", required=True, help="rule file to evaluate")
    p.add_argument("--test", required=True)
    p.add_argument("--top", default="s")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("stats", help="reduction-length histogram of a rule file")
    p.add_argument("--rules", required=True)
    p.add_argument("--grammar")
    p.add_argument("--test")
    p.add_argument("--top", default="s")
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("run", help="full pipeline writing report files")
    _add_corpus_args(p)
    _add_scoring_args(p)
    _add_extract_args(p)
    p.add_argument("--threshold", type=float)
    p.add_argument("--coverage", type=float)
    p.add_argument("--delta-s", dest="delta_s", type=float, default=0.01)
    p.add_argument("--max-iterations", type=int, default=50)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(handler=cmd_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except HANDLED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
