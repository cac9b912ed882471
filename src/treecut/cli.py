"""Command line front end.

Every command that reads a training corpus starts from
``pipeline.set_up``; ``cut`` stops after selection, ``bisect`` after
``choose_threshold``, ``extract`` after extraction and naming, and
``run`` goes on through ``run_pipeline``.

Exit codes: 0 on success, 2 when a requested coverage target is
unattainable, and 1 for every other fault: an error in HANDLED_ERRORS
(a bad, missing or malformed flag, unreadable or malformed input, or an
unwritable report directory) or a stdout that cannot be written.
Commands raise them and ``main`` alone prints them and returns 1.
"""

import argparse
import dataclasses
import math
import os
import sys

from treecut.andor import dump as dump_index
from treecut.coverage import evaluate_coverage, reduction_stats
from treecut.coverage import render_coverage, render_stats
from treecut.cutnodes import IterationLimitError, render_cut_classes
from treecut.entropy import render_entropy_table
from treecut.extraction import (
    ANDOR_ENUM,
    TRAINING_CUT,
    ChunkExplosionError,
    RuleFileError,
    name_rules,
    parse_rule_file,
    render_rule_file,
    validate_rules,
)
from treecut.node_entropy import EntropyScheme, render_node_entropies
from treecut.pipeline import (
    InputError,
    OutputError,
    PipelineConfig,
    choose_threshold,
    load_file,
    load_trees,
    render_threshold_report,
    run_pipeline,
    set_up,
)
from treecut.grammar import parse_rule_inventory


class FlagError(Exception):
    """A flag is missing, malformed or out of range; the message names it."""


HANDLED_ERRORS = (
    FlagError,
    InputError,
    OutputError,
    RuleFileError,
    ChunkExplosionError,
    IterationLimitError,
)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are flag errors, which exit 1."""

    def error(self, message):
        raise FlagError(message)


def _flag(p, *names, **kwargs):
    """A flag that fills the PipelineConfig field its dest names.  A flag
    not given stays unset, so the config's defaults are the only ones."""
    p.add_argument(*names, default=argparse.SUPPRESS, **kwargs)


def _add_corpus_args(p):
    _flag(p, "--grammar", dest="grammar_path", metavar="GRAMMAR",
          required=True, help="grammar rule file")
    _flag(p, "--train", dest="train_path", metavar="TRAIN", required=True,
          help="training treebank")
    _flag(p, "--test", dest="test_path", metavar="TEST",
          help="held-out treebank")
    _flag(p, "--top", help=f"root category (default: {PipelineConfig.top})")


def _add_scoring_args(p):
    _flag(
        p,
        "--scheme",
        choices=[s.value for s in EntropyScheme],
        help=f"node scoring scheme (default: {PipelineConfig.scheme.value})",
    )
    _flag(
        p,
        "--exact",
        dest="decimals",
        action="store_const",
        const=None,
        help="score with full float precision instead of 2 decimals",
    )
    _flag(
        p,
        "--restrictions",
        dest="neighbor_restrictions",
        action="store_true",
        help="resolve neighboring-cut conflicts",
    )


def _add_extract_args(p):
    _flag(
        p,
        "--mode",
        choices=[TRAINING_CUT, ANDOR_ENUM],
        help=f"chunk source (default: {PipelineConfig.mode})",
    )
    _flag(
        p,
        "--max-chunks",
        type=int,
        help="abort andor enumeration past this many chunks",
    )


def _check_flags(cfg: PipelineConfig) -> None:
    coverage = cfg.coverage_target
    if coverage is not None and not 0.0 <= coverage <= 1.0:
        raise FlagError(f"--coverage must be a number in [0, 1], got {coverage}")
    threshold = cfg.threshold
    if threshold is not None and not math.isfinite(threshold):
        raise FlagError(f"--threshold must be a finite number, got {threshold}")
    delta_s = cfg.delta_s
    if not (math.isfinite(delta_s) and delta_s > 0):
        raise FlagError(
            f"--delta-s must be a finite number above 0, got {delta_s}"
        )
    if cfg.max_iterations < 1:
        raise FlagError(
            f"--max-iterations must be at least 1, got {cfg.max_iterations}"
        )
    if cfg.max_chunks < 0:
        raise FlagError(f"--max-chunks must be at least 0, got {cfg.max_chunks}")


def _config(args) -> PipelineConfig:
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    given = {k: v for k, v in vars(args).items() if k in fields}
    if "scheme" in given:
        given["scheme"] = EntropyScheme(given["scheme"])
    cfg = PipelineConfig(**given)
    _check_flags(cfg)
    return cfg


def cmd_entropy_table(args) -> int:
    sys.stdout.writelines(render_entropy_table(set_up(_config(args)).table))
    return 0


def cmd_index(args) -> int:
    aot = set_up(_config(args)).aot
    if args.dump:
        sys.stdout.writelines(dump_index(aot))
        return 0
    phrase = sum(1 for n in aot.node_index if n.startswith("n"))
    lexical = sum(1 for n in aot.node_index if n.startswith("t"))
    print(f"or_nodes\t{len(aot.node_index)}")
    print(f"phrase_nodes\t{phrase}")
    print(f"lexical_nodes\t{lexical}")
    return 0


def cmd_entropy(args) -> int:
    context = set_up(_config(args))
    sys.stdout.writelines(render_node_entropies(context.aot, context.scores))
    return 0


def cmd_cut(args) -> int:
    cfg = _config(args)
    context = set_up(cfg)
    cutnodes = context.select(cfg.threshold)
    sys.stdout.writelines(render_cut_classes(cutnodes, context.scores))
    return 0


def cmd_bisect(args) -> int:
    cfg = _config(args)
    threshold, search, cutnodes = choose_threshold(set_up(cfg))
    sys.stdout.writelines(render_threshold_report(threshold, search, cutnodes, cfg))
    return 0 if search.attainable else 2


def cmd_extract(args) -> int:
    cfg = _config(args)
    context = set_up(cfg)
    chunks = context.extract(cfg.threshold, context.select(cfg.threshold))
    rules = name_rules(chunks, context.treebank.inventory)
    validate_rules(rules, context.treebank.inventory)
    sys.stdout.writelines(render_rule_file(rules))
    return 0


def cmd_evaluate(args) -> int:
    inv = load_file(args.grammar, lambda t: parse_rule_inventory(t, args.top))
    rules = load_file(args.rules, lambda t: validate_rules(parse_rule_file(t), inv))
    test = load_trees(args.test, inv)
    sys.stdout.writelines(render_coverage(evaluate_coverage(rules, test)))
    return 0


def cmd_stats(args) -> int:
    tilings = []
    if args.weighted:
        if not (args.grammar and args.test):
            raise FlagError("--weighted needs --grammar and --test")
        inv = load_file(args.grammar, lambda t: parse_rule_inventory(t, args.top))
        # the tiler takes the rules to be well typed for the grammar
        rules = load_file(args.rules, lambda t: validate_rules(parse_rule_file(t), inv))
        tilings = evaluate_coverage(rules, load_trees(args.test, inv)).tilings
    else:
        rules = load_file(args.rules, parse_rule_file)
    stats = reduction_stats(rules, weighted=args.weighted, tilings=tilings)
    sys.stdout.writelines(
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
    if result.search is not None and not result.search.attainable:
        print("coverage target unattainable", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    _flag(p, "--threshold", type=float, required=True)
    _flag(p, "--max-iterations", type=int)
    p.set_defaults(handler=cmd_cut)

    p = sub.add_parser("bisect", help="search the threshold for a coverage target")
    _add_corpus_args(p)
    _add_scoring_args(p)
    _add_extract_args(p)
    _flag(p, "--coverage", dest="coverage_target", metavar="COVERAGE",
          type=float, required=True)
    _flag(p, "--delta-s", type=float)
    p.set_defaults(handler=cmd_bisect)

    p = sub.add_parser("extract", help="extract specialized rules")
    _add_corpus_args(p)
    _add_scoring_args(p)
    _add_extract_args(p)
    _flag(p, "--threshold", type=float, required=True)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("evaluate", help="score a rule file against a treebank")
    p.add_argument("--grammar", required=True)
    p.add_argument("--rules", required=True, help="rule file to evaluate")
    p.add_argument("--test", required=True)
    p.add_argument("--top", default=PipelineConfig.top)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("stats", help="reduction-length histogram of a rule file")
    p.add_argument("--rules", required=True)
    p.add_argument("--grammar")
    p.add_argument("--test")
    p.add_argument("--top", default=PipelineConfig.top)
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("run", help="full pipeline writing report files")
    _add_corpus_args(p)
    _add_scoring_args(p)
    _add_extract_args(p)
    _flag(p, "--threshold", type=float)
    _flag(p, "--coverage", dest="coverage_target", metavar="COVERAGE",
          type=float)
    _flag(p, "--delta-s", type=float)
    _flag(p, "--max-iterations", type=int)
    _flag(p, "--weighted", dest="weighted_stats", action="store_true")
    _flag(p, "--out", dest="out_dir", metavar="OUT", required=True,
          help="report directory")
    p.set_defaults(handler=cmd_run)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()  # a fault in writing shows here, not at exit
    except HANDLED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Every file a command opens names its own faults, so this is
        # stdout's: a closed pipe or a full disk.  Stdout then points at
        # the null device, where the interpreter's last flush succeeds.
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        print(f"error: stdout: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
