"""Command line front end.

Every command that reads a training corpus starts from
``pipeline.set_up``.  Each one but ``run`` prints the one report that
COMMANDS names for it, rendered by ``pipeline.REPORTS`` as ``run``
writes it, and the context computes only the stages that report reads.
``run`` writes them all through ``run_pipeline``.  Each takes the flags
of the stages it runs, from STAGES, and its goal flags, from COMMANDS.

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

from treecut.coverage import evaluate_coverage, reduction_stats
from treecut.coverage import render_coverage, render_stats
from treecut.cutnodes import IterationLimitError
from treecut.extraction import (
    ANDOR_ENUM,
    TRAINING_CUT,
    ChunkExplosionError,
    RuleFileError,
    parse_rule_file,
    validate_rules,
)
from treecut.node_entropy import EntropyScheme
from treecut.pipeline import (
    REPORTS,
    InputError,
    OutputError,
    PipelineConfig,
    SearchContext,
    collector_paused,
    load_file,
    load_trees,
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
    # with no test trees, every probe reads full coverage and no tree is weighed
    if coverage is not None and cfg.test_path is None:
        raise FlagError("--coverage needs --test")
    if cfg.weighted_stats and cfg.test_path is None:
        raise FlagError("--weighted needs --test")


def _config(args) -> PipelineConfig:
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    given = {k: v for k, v in vars(args).items() if k in fields}
    if "scheme" in given:
        given["scheme"] = EntropyScheme(given["scheme"])
    cfg = PipelineConfig(**given)
    _check_flags(cfg)
    return cfg


def _unattainable(context: SearchContext) -> bool:
    """Whether the command searched for a coverage target it cannot reach."""
    return context.cfg.coverage_target is not None and not context.choice[1].attainable


def cmd_report(args) -> int:
    """Print the command's report, as `run` writes it without its header."""
    context = set_up(_config(args))
    if args.report == "rules.txt":  # `extract` checks the rules it prints
        validate_rules(context.rules, context.treebank.inventory)
    sys.stdout.writelines(REPORTS[args.report](context))
    return 2 if _unattainable(context) else 0


def cmd_index(args) -> int:
    if args.dump:
        return cmd_report(args)
    aot = set_up(_config(args)).aot
    phrase = sum(1 for n in aot.node_index if n.startswith("n"))
    lexical = sum(1 for n in aot.node_index if n.startswith("t"))
    print(f"or_nodes\t{len(aot.node_index)}")
    print(f"phrase_nodes\t{phrase}")
    print(f"lexical_nodes\t{lexical}")
    return 0


def _load_scored(args) -> tuple:
    """The rule file, checked against the grammar, and the test trees:
    the grammar is read first, then the rule file, then the test file,
    which must hold a tree to tile."""
    top = PipelineConfig.top if args.top is None else args.top
    inv = load_file(args.grammar, lambda t: parse_rule_inventory(t, top))
    # the tiler takes the rules to be well typed for the grammar
    rules = load_file(args.rules, lambda t: validate_rules(parse_rule_file(t), inv))
    test = load_trees(args.test, inv)
    if not test:
        raise InputError(f"{args.test}: no test trees")
    return rules, test


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
        for flag in ("grammar", "test", "top"):
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
    context, written = run_pipeline(cfg)
    for path in written:
        print(f"wrote {path}")
    print(f"threshold\t{context.choice[0]:.6f}")
    print(f"rules\t{len(context.rules)}")
    if cfg.test_path is not None:
        print(f"coverage\t{context.coverage.fraction:.6f}")
    if _unattainable(context):
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
        ("--max-iterations", dict(type=int, help=(
            "rounds an arc-frequency selection may take to settle "
            f"(default: {PipelineConfig.max_iterations})"
        ))),
    ]),
    ("extract", [
        ("--mode", dict(choices=[TRAINING_CUT, ANDOR_ENUM],
                        help=f"chunk source (default: {PipelineConfig.mode})")),
        ("--max-chunks", dict(type=int, help=(
            "abort andor enumeration past this many partial products of "
            "alternatives, wordless expansions included, not only emitted "
            f"chunks (default: {PipelineConfig.max_chunks})"
        ))),
    ]),
    ("search", [
        ("--test", dict(dest="test_path", metavar="TEST", help="held-out treebank")),
        ("--delta-s", dict(type=float, help=(
            "bracket width at which the threshold search stops "
            f"(default: {PipelineConfig.delta_s:g})"
        ))),
    ]),
    ("report", [
        ("--weighted", dict(
            dest="weighted_stats", action="store_true",
            help="count reduction lengths over the test set's tilings, not over rules",
        )),
        ("--out", dict(dest="out_dir", metavar="OUT", required=True,
                       help="report directory")),
    ]),
]
THRESHOLD = dict(type=float, help="cut the nodes scoring above this")
COVERAGE = dict(dest="coverage_target", metavar="COVERAGE", type=float,
                help="test-set coverage in [0, 1] to search the threshold for")

# Each corpus command: its handler, the report it prints (`index` under
# --dump), help, the last stage it runs and its goal flags.  `run` takes
# both goals and checks that it got exactly one.
COMMANDS = [
    ("entropy-table", cmd_report, "entropy_table.tsv",
     "print the phrase entropy table", "load", []),
    ("index", cmd_index, "andor_index.txt", "summarize or dump the parse index",
     "load", [("--dump", dict(action="store_true", default=False,
                              help="print the full index"))]),
    ("entropy", cmd_report, "node_entropy.tsv", "print per-node entropy scores",
     "score", []),
    ("cut", cmd_report, "cutnodes.txt", "select cutnode classes at a threshold",
     "select", [("--threshold", dict(THRESHOLD, required=True))]),
    ("extract", cmd_report, "rules.txt", "extract specialized rules", "extract",
     [("--threshold", dict(THRESHOLD, required=True))]),
    ("bisect", cmd_report, "threshold.txt",
     "search the threshold for a coverage target", "search",
     [("--coverage", dict(COVERAGE, required=True))]),
    ("run", cmd_run, None, "full pipeline writing report files", "report",
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
    for command, handler, report, summary, last, goals in COMMANDS:
        p = sub.add_parser(command, help=summary)
        stages = STAGES[: order.index(last) + 1]
        for name, kwargs in [f for _, flags in stages for f in flags] + goals:
            p.add_argument(name, **{"default": argparse.SUPPRESS, **kwargs})
        p.set_defaults(handler=handler, report=report)

    p = sub.add_parser("evaluate", help="score a rule file against a treebank")
    p.add_argument("--grammar", required=True, help="grammar rule file")
    p.add_argument("--rules", required=True, help="rule file to evaluate")
    p.add_argument("--test", required=True, help="treebank to tile")
    p.add_argument("--top", help=f"root category (default: {PipelineConfig.top})")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("stats", help="reduction-length histogram of a rule file")
    p.add_argument("--rules", required=True, help="rule file to count")
    p.add_argument("--grammar", help="grammar rule file, with --weighted")
    p.add_argument("--test", help="treebank to tile, with --weighted")
    p.add_argument("--top", help=(
        f"root category, with --weighted (default: {PipelineConfig.top})"
    ))
    p.add_argument("--weighted", action="store_true",
                   help="count rule applications in the test set's tilings")
    p.set_defaults(handler=cmd_stats)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with collector_paused():
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
