"""Command line front end.

Every command that reads a training corpus starts from
``pipeline.set_up``; ``cut`` stops after selection, ``extract`` after
extraction and naming, ``bisect`` after ``choose_threshold``, and
``run`` goes on through ``run_pipeline``.  Each takes the flags of the
stages it runs, from STAGES, and its goal flags, from COMMANDS.

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


def _load_scored(args) -> tuple:
    """The rule file, checked against the grammar, and the test trees:
    the grammar is read first, then the rule file, then the test file."""
    inv = load_file(args.grammar, lambda t: parse_rule_inventory(t, args.top))
    # the tiler takes the rules to be well typed for the grammar
    rules = load_file(args.rules, lambda t: validate_rules(parse_rule_file(t), inv))
    return rules, load_trees(args.test, inv)


def cmd_evaluate(args) -> int:
    sys.stdout.writelines(render_coverage(evaluate_coverage(*_load_scored(args))))
    return 0


def cmd_stats(args) -> int:
    if args.weighted:
        if not (args.grammar and args.test):
            raise FlagError("--weighted needs --grammar and --test")
        rules, test = _load_scored(args)
        tilings = evaluate_coverage(rules, test).tilings
    else:
        for flag in ("grammar", "test"):
            if getattr(args, flag) is not None:
                raise FlagError(f"--{flag} needs --weighted")
        rules, tilings = load_file(args.rules, parse_rule_file), []
    stats = reduction_stats(rules, weighted=args.weighted, tilings=tilings)
    sys.stdout.writelines(render_stats(stats))
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


# The stages a corpus command runs, in order, each with the flags its
# work reads.  A command takes the flags of every stage up to the last
# one it runs, and its own goal flags.  A flag fills the PipelineConfig
# field its dest names; one not given stays unset, so the config's
# defaults are the only ones.
STAGES = [
    ("load", [
        ("--grammar", dict(dest="grammar_path", metavar="GRAMMAR", required=True,
                           help="grammar rule file")),
        ("--train", dict(dest="train_path", metavar="TRAIN", required=True,
                         help="training treebank")),
        ("--top", dict(help=f"root category (default: {PipelineConfig.top})")),
    ]),
    ("score", [
        ("--scheme", dict(
            choices=[s.value for s in EntropyScheme],
            help=f"node scoring scheme (default: {PipelineConfig.scheme.value})",
        )),
        ("--exact", dict(dest="decimals", action="store_const", const=None,
                         help="score with full float precision instead of 2 decimals")),
    ]),
    ("select", [
        ("--restrictions", dict(dest="neighbor_restrictions", action="store_true",
                                help="resolve neighboring-cut conflicts")),
        ("--max-iterations", dict(type=int)),
    ]),
    ("extract", [
        ("--mode", dict(choices=[TRAINING_CUT, ANDOR_ENUM],
                        help=f"chunk source (default: {PipelineConfig.mode})")),
        ("--max-chunks", dict(type=int,
                              help="abort andor enumeration past this many chunks")),
    ]),
    ("search", [
        ("--test", dict(dest="test_path", metavar="TEST", help="held-out treebank")),
        ("--delta-s", dict(type=float)),
    ]),
    ("report", [
        ("--weighted", dict(dest="weighted_stats", action="store_true")),
        ("--out", dict(dest="out_dir", metavar="OUT", required=True,
                       help="report directory")),
    ]),
]
THRESHOLD = dict(type=float)
COVERAGE = dict(dest="coverage_target", metavar="COVERAGE", type=float)

# Each corpus command: its handler, help, the last stage it runs and its
# goal flags.  `run` takes both goals and checks that it got exactly one.
COMMANDS = [
    ("entropy-table", cmd_entropy_table, "print the phrase entropy table",
     "load", []),
    ("index", cmd_index, "summarize or dump the parse index", "load",
     [("--dump", dict(action="store_true", default=False,
                      help="print the full index"))]),
    ("entropy", cmd_entropy, "print per-node entropy scores", "score", []),
    ("cut", cmd_cut, "select cutnode classes at a threshold", "select",
     [("--threshold", dict(THRESHOLD, required=True))]),
    ("extract", cmd_extract, "extract specialized rules", "extract",
     [("--threshold", dict(THRESHOLD, required=True))]),
    ("bisect", cmd_bisect, "search the threshold for a coverage target", "search",
     [("--coverage", dict(COVERAGE, required=True))]),
    ("run", cmd_run, "full pipeline writing report files", "report",
     [("--threshold", THRESHOLD), ("--coverage", COVERAGE)]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="treecut",
        description="Specialize a treebank grammar by cutting its parses "
        "at high-entropy phrase nodes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    order = [stage for stage, _ in STAGES]
    for command, handler, summary, last, goals in COMMANDS:
        p = sub.add_parser(command, help=summary)
        stages = STAGES[: order.index(last) + 1]
        for name, kwargs in [f for _, flags in stages for f in flags] + goals:
            p.add_argument(name, **{"default": argparse.SUPPRESS, **kwargs})
        p.set_defaults(handler=handler)

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
