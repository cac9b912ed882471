import argparse
import gc
import os
import re
import subprocess
import sys

import pytest

from treecut import cli, pipeline
from treecut.cli import _config, build_parser, main
from treecut.pipeline import PipelineConfig

from oracles import ROOT, TOY, chain_text, corpus_texts

CORPUS = [
    "--grammar", str(TOY / "grammar.txt"),
    "--train", str(TOY / "train.txt"),
]
WITH_TEST = CORPUS + ["--test", str(TOY / "test.txt")]
# every report of `treecut run` with a test set, sorted by name
REPORTS = [
    "andor_index.txt", "coverage.tsv", "cutnodes.txt", "entropy_table.tsv",
    "node_entropy.tsv", "reduction_stats.tsv", "rules.txt", "threshold.txt",
]


@pytest.fixture
def opened(monkeypatch):
    """The paths passed to ``open`` while the test runs."""
    paths = []
    real_open = open
    monkeypatch.setattr(
        "builtins.open",
        lambda path, *args, **kwargs: paths.append(path)
        or real_open(path, *args, **kwargs),
    )
    return paths


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_table(capsys):
    code, out, _ = run_cli(capsys, "entropy-table", *CORPUS)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule\tLHS\tRHS1\tRHS2"
    assert "np_det_n\t1.33\t0.00\t0.00" in lines
    assert len(lines) == 10


def test_index_summary_and_dump(capsys):
    code, out, _ = run_cli(capsys, "index", *CORPUS)
    assert code == 0
    assert "or_nodes\t24" in out
    assert "phrase_nodes\t9" in out
    assert "lexical_nodes\t14" in out
    code, out, _ = run_cli(capsys, "index", "--dump", *CORPUS)
    assert code == 0
    assert "n6 (np) visits=2" in out
    assert "-lex x1" in out


def test_entropy_scores(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--scheme", "mixed", *CORPUS)
    assert code == 0
    assert "n3\tnp\t1.0800" in out
    assert "n6\tnp\t1.7600" in out
    code, out, _ = run_cli(capsys, "entropy", "--scheme", "rhs-local", *CORPUS)
    assert "n3\tnp\t0.6400" in out


def test_cut(capsys):
    code, out, _ = run_cli(capsys, "cut", "--threshold", "1.0", *CORPUS)
    assert code == 0
    assert out == "n3\tnp\t{n3 n4 n6 n9}\t1.7600\n"


def test_cut_iterative_scheme(capsys):
    code, out, _ = run_cli(
        capsys, "cut", "--threshold", "0.60", "--scheme", "arc-frequency", *CORPUS
    )
    assert code == 0
    assert out.startswith("n3\tnp\t{n3 n6}")


def test_extract_both_modes(capsys):
    code, out, _ = run_cli(capsys, "extract", "--threshold", "1.0", *CORPUS)
    assert code == 0
    assert out.count("support:") == 5
    assert "np_a3f29ca6: np => det n" in out
    code, out, _ = run_cli(
        capsys, "extract", "--threshold", "1.0", "--mode", "andor", *CORPUS
    )
    assert out.count("support:") == 7


def test_bisect_attainable(capsys):
    code, out, _ = run_cli(capsys, "bisect", "--coverage", "1.0", *WITH_TEST)
    assert code == 0
    assert "attainable\tyes" in out
    threshold = float(
        [l for l in out.splitlines() if l.startswith("threshold")][0].split("\t")[1]
    )
    assert threshold < 1.08


def test_bisect_unattainable(capsys, tmp_path):
    hard = tmp_path / "hard.txt"
    hard.write_text("(s_np_vp (np_num (lex Nine)) (vp_v (lex left)))\n")
    code, out, _ = run_cli(
        capsys, "bisect", "--coverage", "1.0", *CORPUS, "--test", str(hard)
    )
    assert code == 2
    assert "attainable\tno" in out
    assert "probes\t1" in out.splitlines()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize(
    "argv, want",
    [
        (["run", *WITH_TEST, "--threshold", "1.0", "--out", "{out}"], 0),
        (["bisect", *WITH_TEST, "--coverage", "0.9"], 0),
        (["run", *CORPUS[:2], "--train", "{hard}.none", "--threshold", "1.0",
          "--out", "{out}"], 1),
        (["bisect", "--coverage", "1.0", *CORPUS, "--test", "{hard}"], 2),
    ],
    ids=["run", "bisect", "input-error", "unattainable"],
)
def test_a_command_runs_with_the_collector_paused_and_restores_it(
    capsys, monkeypatch, tmp_path, enabled, argv, want
):
    hard = tmp_path / "hard.txt"
    hard.write_text("(s_np_vp (np_num (lex Nine)) (vp_v (lex left)))\n")
    argv = [a.format(out=tmp_path / "out", hard=hard) for a in argv]
    collecting = []
    load_treebank = pipeline.load_treebank

    def recording_load_treebank(cfg):
        collecting.append(gc.isenabled())
        return load_treebank(cfg)

    monkeypatch.setattr(pipeline, "load_treebank", recording_load_treebank)
    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        code = main(argv)
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()
    capsys.readouterr()
    assert code == want
    assert collecting == [False]


def test_run_search_on_a_fine_grid_keeps_to_the_probe_cap(capsys, tmp_path):
    # the unimodal search's grid at this delta would have 17,251 points
    code, out, _ = run_cli(
        capsys, "run", *WITH_TEST, "--coverage", "0.9", "--restrictions",
        "--delta-s", "1e-5", "--out", str(tmp_path),
    )
    assert code == 0
    report = (tmp_path / "threshold.txt").read_text().splitlines()
    probes = int([l for l in report if l.startswith("probes\t")][0].split("\t")[1])
    assert probes <= 200
    assert "attainable\tyes" in report


def test_run_reports_are_deterministic(capsys, tmp_path):
    args = ["run", *WITH_TEST, "--threshold", "1.0"]
    code, out, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    assert "coverage\t1.000000" in out
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert code == 0
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == REPORTS
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second, name
    # a rerun into the same directory rewrites identical bytes
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


@pytest.mark.parametrize("threshold", ["1.0", "0.0"])
def test_run_without_test_set_writes_reports_for_a_deep_chain(
    capsys, tmp_path, threshold
):
    # deeper than the recursion limit; andor_index.txt indents each
    # or-node by its depth, so its size grows with the square of it
    depth = sys.getrecursionlimit() + 500
    train = tmp_path / "train.txt"
    train.write_text(chain_text(depth))
    out = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "run", "--grammar", str(TOY / "grammar.txt"), "--train", str(train),
        "--threshold", threshold, "--out", str(out),
    )
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        name for name in REPORTS if name != "coverage.tsv"
    ]
    # the config line, then one line per or-node and one per arc: the
    # chain's or-nodes each have a single arc
    with open(out / "andor_index.txt") as handle:
        assert sum(1 for _ in handle) == 1 + 2 * (5 * depth + 5)
    assert "support: 1" in (out / "rules.txt").read_text()


@pytest.mark.parametrize("threshold, per_level", [("0.0", 3), ("1.0", 2)])
def test_run_tiles_a_test_chain_deeper_than_the_recursion_limit(
    capsys, tmp_path, threshold, per_level
):
    # training holds a two-level chain; the test chain nests the same
    # np_np_pp and pp_prep_np levels far deeper than the recursion limit
    depth = sys.getrecursionlimit() + 500
    train, test = tmp_path / "train.txt", tmp_path / "test.txt"
    train.write_text((TOY / "train.txt").read_text() + chain_text(2))
    test.write_text(chain_text(depth))
    out = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "run", "--grammar", str(TOY / "grammar.txt"), "--train", str(train),
        "--test", str(test), "--threshold", threshold, "--weighted",
        "--out", str(out),
    )
    assert code == 0
    # at 0.0 every level is its own application; at 1.0 each np_np_pp
    # rule inlines its pp: s, np_pron and vp_v come on top
    rows = (out / "coverage.tsv").read_text().splitlines()[1:]
    assert rows == [
        "tree\tcovered\tapplications",
        f"0\tyes\t{per_level * depth + 3}",
        "fraction\t1.000000\t",
    ]


def test_rules_of_a_chain_deeper_than_the_recursion_limit_read_back(
    capsys, tmp_path
):
    # one training tree cuts nowhere, so its one rule is the whole chain
    depth = sys.getrecursionlimit() + 500
    train = tmp_path / "train.txt"
    train.write_text(chain_text(depth))
    grammar = ["--grammar", str(TOY / "grammar.txt")]
    out = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "run", *grammar, "--train", str(train), "--threshold", "1.0",
        "--out", str(out),
    )
    assert code == 0
    rules = out / "rules.txt"
    code, text, _ = run_cli(
        capsys, "extract", *grammar, "--train", str(train), "--threshold", "1.0"
    )
    assert code == 0
    assert text == rules.read_text().split("\n", 1)[1]
    code, text, _ = run_cli(
        capsys, "evaluate", *grammar, "--rules", str(rules), "--test", str(train)
    )
    assert (code, text.splitlines()[1:]) == (0, ["0\tyes\t1", "fraction\t1.000000\t"])
    code, text, _ = run_cli(capsys, "stats", "--rules", str(rules))
    assert (code, text.splitlines()[-1]) == (0, "4+\t1\t100.0")
    code, text, _ = run_cli(
        capsys, "stats", "--rules", str(rules), "--weighted", *grammar,
        "--test", str(train),
    )
    assert (code, text.splitlines()[-1]) == (0, "4+\t1\t100.0")


# a chain with words, and a wordless a-chain under each of two roots
DEEP_CHAINS = {
    "np_np_pp": ((TOY / "grammar.txt").read_text(), chain_text),
    "wordless": (
        "s_a s -> a\na_a a -> a\na_aa a -> a a\na_w a -> w\na_none a ->\n",
        lambda depth: "(s_a (a_aa {0} (a_w (lex x))))\n"
        "(s_a (a_aa (a_w (lex y)) {0}))\n".format(
            "(a_a " * depth + "(a_none)" + ")" * depth
        ),
    ),
}


@pytest.mark.parametrize(
    "chain, threshold, rules",
    [("np_np_pp", "1.0", 1), ("np_np_pp", "0.0", 3), ("wordless", "0.0", 4)],
)
def test_run_andor_on_a_chain_deeper_than_the_recursion_limit(
    capsys, tmp_path, chain, threshold, rules
):
    # at 1.0 the enumeration expands the uncut np chain class by class;
    # at 0.0 every class with words is cut, the wordless walk visits the
    # whole index and the wordless chain is kept whole, inline
    low = 400
    grammar_text, treebank_text = DEEP_CHAINS[chain]
    grammar, train = tmp_path / "grammar.txt", tmp_path / "train.txt"
    grammar.write_text(grammar_text)
    train.write_text(treebank_text(low + 300))
    out = tmp_path / "out"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(low)
    try:
        code, text, err = run_cli(
            capsys, "run", "--grammar", str(grammar), "--train", str(train),
            "--mode", "andor", "--threshold", threshold, "--out", str(out),
        )
    finally:
        sys.setrecursionlimit(limit)
    assert (code, err) == (0, "")
    assert f"rules\t{rules}" in text.splitlines()
    records = (out / "rules.txt").read_text().split("\n\n")
    assert len(records) == rules


def test_run_requires_exactly_one_goal(capsys, tmp_path):
    want = "error: pass exactly one of --threshold / --coverage\n"
    code, _, err = run_cli(capsys, "run", *WITH_TEST, "--out", str(tmp_path))
    assert (code, err) == (1, want)
    code, _, err = run_cli(
        capsys, "run", *WITH_TEST, "--threshold", "1.0", "--coverage", "1.0",
        "--out", str(tmp_path),
    )
    assert (code, err) == (1, want)


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "entropy-table", "--grammar", str(TOY / "grammar.txt"),
        "--train", "/nonexistent/train.txt",
    )
    assert code == 1
    assert "error:" in err
    assert "/nonexistent/train.txt" in err


def test_malformed_grammar_names_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("s_np_vp s -> np vp\nbroken line\n")
    code, _, err = run_cli(
        capsys, "entropy-table", "--grammar", str(bad),
        "--train", str(TOY / "train.txt"),
    )
    assert code == 1
    assert "line 2" in err
    assert str(bad) in err


def test_evaluate_and_stats_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "extract", "--threshold", "1.0", *CORPUS)
    rules_file = tmp_path / "rules.txt"
    rules_file.write_text(out)

    code, out, _ = run_cli(
        capsys, "evaluate", "--grammar", str(TOY / "grammar.txt"),
        "--rules", str(rules_file), "--test", str(TOY / "test.txt"),
    )
    assert code == 0
    assert "0\tyes\t5" in out
    assert "fraction\t1.000000" in out

    code, out, _ = run_cli(capsys, "stats", "--rules", str(rules_file))
    assert code == 0
    assert "3\t2\t40.0" in out

    code, out, _ = run_cli(
        capsys, "stats", "--rules", str(rules_file), "--weighted",
        "--grammar", str(TOY / "grammar.txt"), "--test", str(TOY / "test.txt"),
    )
    assert code == 0
    assert "2\t2\t40.0" in out
    assert "3\t3\t60.0" in out


def run_then_evaluate(capsys, out, grammar, train, test, rules=None):
    """`run --threshold 1.0` into *out*, then `evaluate` on its rule file,
    or on *rules* when given: evaluate's outcome, and run's coverage.tsv
    without its config line."""
    code, _, err = run_cli(
        capsys, "run", "--grammar", str(grammar), "--train", str(train),
        "--test", str(test), "--threshold", "1.0", "--out", str(out),
    )
    assert (code, err) == (0, "")
    outcome = run_cli(
        capsys, "evaluate", "--grammar", str(grammar),
        "--rules", str(rules or out / "rules.txt"), "--test", str(test),
    )
    return outcome, (out / "coverage.tsv").read_text().split("\n", 1)[1]


@pytest.mark.parametrize("category", ["n:p", "n=>p"])
def test_a_rule_file_reads_back_when_a_category_holds_a_header_separator(
    capsys, tmp_path, category
):
    # a rule header is '<name>: <lhs> => <body>', and a category may hold
    # ':' or '=>': here every np of the toy grammar is renamed
    grammar = tmp_path / "grammar.txt"
    grammar.write_text(re.sub(r"\bnp\b", category, (TOY / "grammar.txt").read_text()))
    out = tmp_path / "out"
    (code, evaluated, err), coverage = run_then_evaluate(
        capsys, out, grammar, TOY / "train.txt", TOY / "test.txt"
    )
    assert f"{category}_" in (out / "rules.txt").read_text()
    assert (code, err) == (0, "")
    assert evaluated == coverage


@pytest.mark.parametrize("marked", ["grammar", "train", "test", "rules"])
def test_a_byte_order_mark_at_the_start_of_an_input_is_ignored(
    capsys, tmp_path, marked
):
    # the grammar, both treebanks and the rule file are each read with
    # a leading U+FEFF, and every outcome is the one without it
    plain, marks = tmp_path / "plain", tmp_path / "marked"
    files = {role: TOY / f"{role}.txt" for role in ("grammar", "train", "test")}
    run_then_evaluate(capsys, plain, *files.values())
    files["rules"] = plain / "rules.txt"
    with_bom = tmp_path / f"{marked}.txt"
    with_bom.write_text("\ufeff" + files[marked].read_text())
    files[marked] = with_bom
    (code, evaluated, err), coverage = run_then_evaluate(
        capsys, marks, files["grammar"], files["train"], files["test"],
        rules=files["rules"],
    )
    assert (code, err) == (0, "")
    assert evaluated == coverage
    for name in REPORTS:  # all but the config line, which names the files
        assert (marks / name).read_text().split("\n", 1)[1] == (
            (plain / name).read_text().split("\n", 1)[1]
        ), name


def test_stats_weighted_requires_corpus(capsys, tmp_path):
    rules_file = tmp_path / "rules.txt"
    rules_file.write_text("np_x: np => det n\n  (np_det_n (lex det) (lex n))\n")
    code, _, err = run_cli(capsys, "stats", "--rules", str(rules_file), "--weighted")
    assert (code, err) == (1, "error: --weighted needs --grammar and --test\n")


def test_stats_weighted_rejects_rules_that_do_not_fit_the_grammar(capsys, tmp_path):
    # the chunk is an np, but the record calls it a vp rule; the tiler
    # would take it for an np rule, so the rules are checked first
    rules_file = tmp_path / "rules.txt"
    rules_file.write_text("vp_x: vp => det n\n  (np_det_n (lex det) (lex n))\n")
    code, _, err = run_cli(
        capsys, "stats", "--rules", str(rules_file), "--weighted",
        "--grammar", str(TOY / "grammar.txt"), "--test", str(TOY / "test.txt"),
    )
    assert code == 1
    assert f"{rules_file}: rule 'vp_x' lhs mismatch" in err
    code, out, _ = run_cli(capsys, "stats", "--rules", str(rules_file))
    assert code == 0
    assert "2\t1\t100.0" in out


def test_stats_names_the_file_line_of_a_chunk_fault(capsys, tmp_path):
    rules_file = tmp_path / "r2.txt"
    rules_file.write_text(
        "np_a: np => pron\n  (np_pron (lex pron))\n  support: 1\n\n"
        "np_b: np => num\n  (np_num (lex num)))\n  support: 2\n"
    )
    code, out, err = run_cli(capsys, "stats", "--rules", str(rules_file))
    assert code == 1
    assert out == ""
    assert err == f"error: {rules_file}: line 6: unbalanced ')'\n"


def test_stats_names_the_file_line_of_a_rule_header_fault(capsys, tmp_path):
    rules_file = tmp_path / "r1.txt"
    rules_file.write_text(
        "np_a: np => pron\n  (np_pron (lex pron))\n  support: 1\n\n"
        "np_c00342fc: np  num\n  (np_num (lex num))\n  support: 2\n"
    )
    code, out, err = run_cli(capsys, "stats", "--rules", str(rules_file))
    assert code == 1
    assert out == ""
    assert err == (
        f"error: {rules_file}: line 5: malformed rule header: 'np_c00342fc: np  num'\n"
    )


def test_chunk_cap_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "extract", "--threshold", "1.0", "--mode", "andor",
        "--max-chunks", "3", *CORPUS,
    )
    assert code == 1
    assert "error:" in err


def test_chunk_cap_of_a_probe_names_the_flag_and_the_threshold(
    capsys, tmp_path, monkeypatch
):
    # threshold 0 enumerates 20 chunks or fewer; the second probe, at the
    # top of the bracket, passes the cap and ends the search
    probes = []
    probe = pipeline.SearchContext.probe
    monkeypatch.setattr(
        pipeline.SearchContext, "probe",
        lambda context, t: probes.append(t) or probe(context, t),
    )
    code, out, err = run_cli(
        capsys, "run", *WITH_TEST, "--mode", "andor", "--coverage", "0.9",
        "--max-chunks", "20", "--out", str(tmp_path / "out"),
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: more than 20 chunks at threshold 2.760000; "
        "--max-chunks sets the cap\n"
    )
    assert probes == [0.0, 2.76]


# what each command that names rules runs: how often it names them, and
# whether it tiles under the preference and computes stats
NAMING = [
    (["run", "--threshold", "1.0"], 1, True),
    (["run", "--coverage", "0.9"], 1, True),
    (["extract", "--threshold", "1.0"], 1, False),
    (["bisect", "--coverage", "0.9"], 0, False),
]


@pytest.mark.parametrize(
    "command, names, reports", NAMING,
    ids=["run-fixed", "run-search", "extract", "bisect"],
)
def test_rules_are_named_once_per_report_and_never_in_a_probe(
    capsys, tmp_path, monkeypatch, command, names, reports
):
    calls, probing = [], []
    probe = pipeline.SearchContext.probe

    def marked_probe(context, threshold):
        probing.append(threshold)
        try:
            return probe(context, threshold)
        finally:
            probing.pop()

    def counting(name, stage):
        def wrapper(*args, **kwargs):
            calls.append((name, bool(probing)))
            return stage(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(pipeline.SearchContext, "probe", marked_probe)
    for name in ("name_rules", "evaluate_coverage", "reduction_stats"):
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    out = ["--out", str(tmp_path / "out")] if command[0] == "run" else []
    corpus = CORPUS if command[0] == "extract" else WITH_TEST
    code, _, _ = run_cli(capsys, *command, *corpus, *out)
    assert code == 0
    assert calls.count(("name_rules", False)) == names
    assert not any(in_probe for _, in_probe in calls)
    assert (("evaluate_coverage", False) in calls) == reports
    assert (("reduction_stats", False) in calls) == reports


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--coverage", "1.5"], "--coverage"),
        (["--coverage", "-0.1"], "--coverage"),
        (["--coverage", "nan"], "--coverage"),
        (["--threshold", "nan"], "--threshold"),
        (["--threshold", "inf"], "--threshold"),
        (["--coverage", "0.9", "--delta-s", "0"], "--delta-s"),
        (["--coverage", "0.9", "--delta-s", "-0.5"], "--delta-s"),
        (["--coverage", "0.9", "--delta-s", "nan"], "--delta-s"),
        # counts that can never work
        (["--threshold", "0.2", "--restrictions", "--max-iterations", "-3"],
         "--max-iterations"),
        (["--threshold", "0.2", "--scheme", "arc-frequency", "--max-iterations", "0"],
         "--max-iterations"),
        (["--threshold", "1.0", "--mode", "andor", "--max-chunks", "-1"],
         "--max-chunks"),
        (["--coverage", "0.9", "--max-chunks", "-100"], "--max-chunks"),
    ],
)
def test_run_rejects_bad_search_flags_before_work(capsys, tmp_path, flags, named):
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, "run", *WITH_TEST, *flags, "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "--coverage", "0.9"], "--coverage"),
        (["bisect", "--coverage", "0.9"], "--coverage"),
        (["run", "--threshold", "1.0", "--weighted"], "--weighted"),
    ],
    ids=["run-coverage", "bisect-coverage", "run-weighted"],
)
def test_flags_that_read_the_test_set_need_one(capsys, tmp_path, opened, argv, flag):
    # with no test trees a search reads full coverage at any threshold,
    # and weighted stats count nothing
    out = tmp_path / "out"
    report = ["--out", str(out)] if argv[0] == "run" else []
    code, stdout, err = run_cli(capsys, *argv, *CORPUS, *report)
    assert (code, stdout, err) == (1, "", f"error: {flag} needs --test\n")
    assert opened == []
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--coverage", "0.9"],
        ["bisect", "--coverage", "0.9"],
        ["run", "--threshold", "1.0", "--weighted"],
    ],
    ids=["run-coverage", "bisect-coverage", "run-weighted"],
)
@pytest.mark.parametrize(
    "text", ["", "\n# no trees here\n\n"], ids=["empty", "comments"]
)
def test_flags_that_read_the_test_set_reject_one_without_trees(
    capsys, tmp_path, argv, text
):
    # a test set without trees is no better than none: a search would
    # answer from it with full coverage, and weighted stats with zeros
    test = tmp_path / "test.txt"
    test.write_text(text)
    out = tmp_path / "out"
    report = ["--out", str(out)] if argv[0] == "run" else []
    code, stdout, err = run_cli(capsys, *argv, *CORPUS, "--test", str(test), *report)
    assert (code, stdout, err) == (1, "", f"error: {test}: no test trees\n")
    assert not (out / "threshold.txt").exists()


@pytest.mark.parametrize(
    "command", [["evaluate"], ["stats", "--weighted"]], ids=["evaluate", "stats"]
)
@pytest.mark.parametrize(
    "text", ["", "\n# no trees here\n\n"], ids=["empty", "comments"]
)
def test_scoring_a_rule_file_rejects_a_test_set_without_trees(
    capsys, tmp_path, command, text
):
    # evaluate would read full coverage, and weighted stats zeros
    _, rules, _ = run_cli(capsys, "extract", "--threshold", "1.0", *CORPUS)
    rules_file = tmp_path / "rules.txt"
    rules_file.write_text(rules)
    test = tmp_path / "test.txt"
    test.write_text(text)
    code, stdout, err = run_cli(
        capsys, *command, "--grammar", str(TOY / "grammar.txt"),
        "--rules", str(rules_file), "--test", str(test),
    )
    assert (code, stdout, err) == (1, "", f"error: {test}: no test trees\n")


def test_a_test_set_without_trees_still_serves_a_fixed_threshold(capsys, tmp_path):
    test = tmp_path / "test.txt"
    test.write_text("# no trees here\n")
    out = tmp_path / "out"
    code, stdout, err = run_cli(
        capsys, "run", *CORPUS, "--test", str(test), "--threshold", "1.0",
        "--out", str(out),
    )
    assert (code, err) == (0, "")
    assert stdout.endswith("coverage\t1.000000\n")
    assert (out / "coverage.tsv").read_text().splitlines()[1:] == [
        "tree\tcovered\tapplications", "fraction\t1.000000\t",
    ]


def test_every_report_is_rendered_by_the_one_report_table(capsys, tmp_path):
    named = [report for _, _, report, *_ in cli.COMMANDS if report is not None]
    assert len(named) == len(cli.COMMANDS) - 1  # all but `run`
    assert set(named) <= set(pipeline.REPORTS)
    assert sorted(pipeline.REPORTS) == REPORTS
    without_test = [name for name in REPORTS if name != "coverage.tsv"]
    for corpus, want in [(WITH_TEST, REPORTS), (CORPUS, without_test)]:
        out = tmp_path / str(len(corpus))
        code, stdout, _ = run_cli(
            capsys, "run", *corpus, "--threshold", "1.0", "--out", str(out)
        )
        assert code == 0
        assert sorted(path.name for path in out.iterdir()) == want
        wrote = [f"wrote {out / name}" for name in want]
        assert stdout.splitlines()[: len(want)] == wrote


def test_smallest_working_counts_are_accepted():
    args = build_parser().parse_args(
        ["run", *CORPUS, "--threshold", "1.0", "--out", "o",
         "--max-iterations", "1", "--max-chunks", "0"]
    )
    assert (_config(args).max_iterations, _config(args).max_chunks) == (1, 0)


@pytest.mark.parametrize(
    "args, named",
    [
        (["bisect", "--coverage", "2"], "--coverage"),
        (["bisect", "--coverage", "1.0", "--delta-s", "0"], "--delta-s"),
        (["cut", "--threshold", "nan"], "--threshold"),
        (["extract", "--threshold=-inf"], "--threshold"),
        (["cut", "--threshold", "0.2", "--max-iterations", "0"], "--max-iterations"),
        (["extract", "--threshold", "1.0", "--max-iterations", "0"],
         "--max-iterations"),
        (["bisect", "--coverage", "0.9", "--max-iterations", "0"], "--max-iterations"),
        (["extract", "--threshold", "1.0", "--max-chunks", "-1"], "--max-chunks"),
        (["bisect", "--coverage", "0.9", "--max-chunks", "-1"], "--max-chunks"),
    ],
)
def test_subcommands_reject_bad_search_flags(capsys, args, named):
    corpus = WITH_TEST if args[0] == "bisect" else CORPUS
    code, out, err = run_cli(capsys, *args, *corpus)
    assert code == 1
    assert named in err
    assert out == ""


@pytest.mark.parametrize("which", ["--grammar", "--train"])
def test_non_utf8_input_exits_one(capsys, tmp_path, which):
    source = TOY / ("grammar.txt" if which == "--grammar" else "train.txt")
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(source.read_bytes() + "# café\n".encode("latin-1"))
    paths = {"--grammar": str(TOY / "grammar.txt"), "--train": str(TOY / "train.txt")}
    paths[which] = str(bad)
    code, _, err = run_cli(
        capsys, "entropy-table", "--grammar", paths["--grammar"],
        "--train", paths["--train"],
    )
    assert code == 1
    assert str(bad) in err
    assert "UTF-8" in err


def test_non_utf8_input_after_a_byte_order_mark_names_its_byte_in_the_file(
    capsys, tmp_path
):
    grammar = tmp_path / "grammar.txt"
    text = "\ufeff" + (TOY / "grammar.txt").read_text()
    grammar.write_bytes(text.encode() + "# café\n".encode("latin-1"))
    code, _, err = run_cli(
        capsys, "entropy-table", "--grammar", str(grammar),
        "--train", str(TOY / "train.txt"),
    )
    assert code == 1
    assert f"{grammar}: not UTF-8 text (byte offset {len(text.encode()) + 5})" in err


def test_evaluate_rejects_rule_with_wrong_arity(capsys, tmp_path):
    rules_file = tmp_path / "rules.txt"
    rules_file.write_text("np_x: np => det\n  (np_det_n (lex det))\n")
    code, out, err = run_cli(
        capsys, "evaluate", "--grammar", str(TOY / "grammar.txt"),
        "--rules", str(rules_file), "--test", str(TOY / "test.txt"),
    )
    assert code == 1
    assert out == ""
    assert str(rules_file) in err
    assert "arity" in err


def test_empty_training_treebank_exits_one(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no trees here\n")
    code, _, err = run_cli(
        capsys, "run", "--grammar", str(TOY / "grammar.txt"),
        "--train", str(empty), "--threshold", "1.0", "--out", str(tmp_path / "o"),
    )
    assert code == 1
    assert str(empty) in err
    assert "no training trees" in err


def test_uncreatable_out_dir_exits_one_before_loading(capsys, tmp_path, monkeypatch):
    from treecut import pipeline

    def never(cfg):
        raise AssertionError("the corpus was loaded before --out was checked")

    monkeypatch.setattr(pipeline, "load_treebank", never)
    blocker = tmp_path / "file.txt"
    blocker.write_text("not a directory\n")
    out_dir = blocker / "sub"
    code, out, err = run_cli(
        capsys, "run", *WITH_TEST, "--threshold", "1.0", "--out", str(out_dir)
    )
    assert code == 1
    assert out == ""
    assert str(out_dir) in err
    assert "Traceback" not in err


def test_unwritable_report_file_exits_one(capsys, tmp_path):
    out_dir = tmp_path / "o"
    (out_dir / "rules.txt").mkdir(parents=True)
    code, _, err = run_cli(
        capsys, "run", *WITH_TEST, "--threshold", "1.0", "--out", str(out_dir)
    )
    assert code == 1
    assert str(out_dir / "rules.txt") in err


@pytest.mark.parametrize(
    "command, required, fields",
    [
        ("entropy-table", [], {}),
        ("index", [], {}),
        ("entropy", [], {}),
        ("cut", ["--threshold", "1.5"], {"threshold": 1.5}),
        ("bisect", ["--coverage", "0.5", "--test", "x.txt"],
         {"coverage_target": 0.5, "test_path": "x.txt"}),
        ("extract", ["--threshold", "1.5"], {"threshold": 1.5}),
        ("run", ["--out", "reports"], {"out_dir": "reports"}),
    ],
)
def test_flags_not_given_leave_the_config_defaults(command, required, fields):
    args = build_parser().parse_args(
        [command, "--grammar", "g.txt", "--train", "t.txt", *required]
    )
    assert _config(args) == PipelineConfig("g.txt", "t.txt", **fields)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["cut", "--grammar", "g", "--train", "t", "--threshold", "abc"],
         "--threshold"),
        (["cut", "--grammar", "g", "--train", "t"], "--threshold"),
        (["cut", "--grammar", "g", "--train", "t", "--threshold", "1.0",
          "--scheme", "bogus"], "--scheme"),
        ([], "command"),
        # a flag of a stage the command does not run
        (["entropy-table", *CORPUS, "--test", "x.txt"], "--test"),
        (["index", *CORPUS, "--test", "x.txt"], "--test"),
        (["entropy", *CORPUS, "--test", "x.txt"], "--test"),
        (["cut", *CORPUS, "--threshold", "1.0", "--test", "x.txt"], "--test"),
        (["extract", *CORPUS, "--threshold", "1.0", "--test", "x.txt"], "--test"),
        (["entropy", *CORPUS, "--restrictions"], "--restrictions"),
        (["cut", *CORPUS, "--threshold", "1.0", "--mode", "andor"], "--mode"),
        (["extract", *CORPUS, "--threshold", "1.0", "--delta-s", "1"], "--delta-s"),
        (["bisect", *CORPUS, "--coverage", "0.9", "--out", "o"], "--out"),
    ],
    ids=["malformed", "missing", "bad-choice", "no-subcommand",
         "test-to-entropy-table", "test-to-index", "test-to-entropy", "test-to-cut",
         "test-to-extract", "restrictions-to-entropy", "mode-to-cut",
         "delta-s-to-extract", "out-to-bisect"],
)
def test_usage_errors_exit_one_naming_the_argument(capsys, opened, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, opened) == (1, "", [])  # before any file is opened
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "usage: treecut" in capsys.readouterr().out


# the flags of the stages up to each one, in the order the method runs them
LOAD = ["--grammar", "--train", "--top"]
SCORE = LOAD + ["--scheme", "--exact"]
SELECT = SCORE + ["--restrictions", "--max-iterations"]
EXTRACT = SELECT + ["--mode", "--max-chunks"]
SEARCH = EXTRACT + ["--test", "--delta-s"]
REPORT = SEARCH + ["--weighted", "--out"]
# each command's option strings: its stages' flags, then its goal flags
OPTIONS = {
    "entropy-table": LOAD,
    "index": LOAD + ["--dump"],
    "entropy": SCORE,
    "cut": SELECT + ["--threshold"],
    "extract": EXTRACT + ["--threshold"],
    "bisect": SEARCH + ["--coverage"],
    "run": REPORT + ["--threshold", "--coverage"],
    "evaluate": ["--grammar", "--rules", "--test", "--top"],
    "stats": ["--rules", "--grammar", "--test", "--top", "--weighted"],
}
REQUIRED = {
    "entropy-table": [], "index": [], "entropy": [], "cut": ["--threshold"],
    "extract": ["--threshold"], "bisect": ["--coverage"], "run": ["--out"],
}


def parsed_options():
    """Each subcommand's flag actions, in the order the parser lists them."""
    parser = build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    return {
        command: [a for a in p._actions if a.option_strings != ["-h", "--help"]]
        for command, p in commands.items()
    }


def test_each_command_takes_its_stages_flags_and_its_goal_flags():
    parsed = parsed_options()
    assert sorted(parsed) == sorted(OPTIONS)
    for command, actions in parsed.items():
        assert [o for a in actions for o in a.option_strings] == OPTIONS[command]
        if command in REQUIRED:
            required = [a.option_strings[0] for a in actions if a.required]
            assert required == ["--grammar", "--train", *REQUIRED[command]], command


FLAG = re.compile(r"--[a-z-]+")


def readme_flag_table():
    """README's stage table: each stage's flags, and each command's
    stages, in column order, and goal flags."""
    text = (ROOT / "README.md").read_text()
    lines = text[text.index("| stage | flags |"):].split("\n\n")[0].splitlines()
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    commands = [cell.strip("`") for cell in rows[0][2:]]
    stages, ticks, goals = [], {c: [] for c in commands}, {}
    for stage, flags, *cells in rows[2:]:
        if stage == "goal":
            goals = {c: FLAG.findall(cell) for c, cell in zip(commands, cells)}
            continue
        stages.append((stage, FLAG.findall(flags)))
        for command, cell in zip(commands, cells):
            if cell == "\u2713":
                ticks[command].append(stage)
    return stages, ticks, goals


def test_every_flag_has_a_help_text():
    parsed = parsed_options()
    assert [
        (command, a.option_strings[0])
        for command, actions in parsed.items()
        for a in actions
        if not a.help
    ] == []


def test_readme_flag_table_matches_the_parser():
    stages, ticks, goals = readme_flag_table()
    assert [(name, [f[0] for f in flags]) for name, flags in cli.STAGES] == stages
    order, flags_of = [name for name, _ in stages], dict(stages)
    parsed = parsed_options()
    assert sorted(ticks) == sorted(set(parsed) - {"evaluate", "stats"})
    for command, ran in ticks.items():
        assert ran == order[: len(ran)], command  # a prefix of the stages
        taken = [f for stage in ran for f in flags_of[stage]] + goals[command]
        assert taken == [o for a in parsed[command] for o in a.option_strings]


@pytest.mark.parametrize("iterations", ["1", "2"])
def test_bisect_and_extract_honour_max_iterations(capsys, tmp_path, iterations):
    # on the toy corpus one round of iterated selection never settles,
    # and two do; each command fails or prints as `run` with its flags
    flags = ["--scheme", "arc-frequency", "--restrictions",
             "--max-iterations", iterations]
    for command, goal, report in [
        ("bisect", ["--coverage", "0.9"], "threshold.txt"),
        ("extract", ["--threshold", "0.6"], "rules.txt"),
    ]:
        out = tmp_path / command
        want, _, want_err = run_cli(
            capsys, "run", *WITH_TEST, *flags, *goal, "--out", str(out)
        )
        corpus = WITH_TEST if command == "bisect" else CORPUS
        code, text, err = run_cli(capsys, command, *corpus, *flags, *goal)
        assert (code, err) == (want, want_err), command
        body = (out / report).read_text().split("\n", 1)[1] if code == 0 else ""
        assert text == body, command
    assert code == (1 if iterations == "1" else 0)


@pytest.mark.parametrize("flag", ["--grammar", "--test", "--top"])
def test_stats_without_weighted_rejects_its_corpus_flags(capsys, tmp_path, flag):
    rules_file = tmp_path / "rules.txt"
    rules_file.write_text("np_x: np => det n\n  (np_det_n (lex det) (lex n))\n")
    value = "zz" if flag == "--top" else str(TOY / "test.txt")
    code, out, err = run_cli(capsys, "stats", "--rules", str(rules_file), flag, value)
    assert (code, out, err) == (1, "", f"error: {flag} needs --weighted\n")


def treecut_in_child(*args, stdout):
    """``treecut *args`` in a fresh interpreter writing to *stdout*."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-m", "treecut.cli", *args], stdout=stdout,
        stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )


def test_a_closed_stdout_pipe_exits_one():
    read_end, write_end = os.pipe()
    os.close(read_end)  # as `| head -1` does once it has read its line
    try:
        done = treecut_in_child("index", "--dump", *CORPUS, stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "error: stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_one():
    with open("/dev/full", "w") as full:
        done = treecut_in_child("cut", "--threshold", "1.0", *CORPUS, stdout=full)
    assert done.returncode == 1
    assert done.stderr == "error: stdout: No space left on device\n"


# each command that prints one report, and the file of `run` it prints:
# `run` under the command's goal, or under --threshold 1.0 if it has none
ONE_REPORT = [
    (["cut", "--threshold", "1.0"], "cutnodes.txt"),
    (["extract", "--threshold", "1.0"], "rules.txt"),
    (["entropy-table"], "entropy_table.tsv"),
    (["entropy"], "node_entropy.tsv"),
    (["index", "--dump"], "andor_index.txt"),
    (["bisect", "--coverage", "0.9"], "threshold.txt"),
]
# stages a command must not reach, by command
NOT_RUN = {
    "cut": ["extract_training", "extract_andor", "evaluate_coverage"],
    "extract": ["evaluate_coverage"],
    "bisect": ["evaluate_coverage"],
}


@pytest.mark.parametrize("corpus", ["toy", "gen-toy"])
def test_one_report_commands_print_runs_file_and_stop_after_it(
    capsys, tmp_path, monkeypatch, corpus
):
    flags = []
    for role, text in zip(("grammar", "train", "test"), corpus_texts(corpus)):
        path = tmp_path / f"{role}.txt"
        path.write_text(text)
        flags += [f"--{role}", str(path)]
    flags, test = flags[:4], flags[4:]  # of these commands only bisect tiles
    runs = {}
    for goal in (["--threshold", "1.0"], ["--coverage", "0.9"]):
        out_dir = tmp_path / goal[0].strip("-")
        code, _, _ = run_cli(
            capsys, "run", *flags, *test, *goal, "--out", str(out_dir)
        )
        runs[goal[0]] = code, out_dir
    assert runs["--threshold"][0] == 0

    calls = {}

    def counting(name, stage):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return stage(*args, **kwargs)
        return wrapper

    for name in NOT_RUN["cut"]:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    for command, report in ONE_REPORT:
        calls.clear()
        want, out_dir = runs["--coverage" if "--coverage" in command else "--threshold"]
        corpus = flags + test if command[0] == "bisect" else flags
        code, out, _ = run_cli(capsys, *command, *corpus)
        assert code == want, command
        header, body = (out_dir / report).read_text().split("\n", 1)
        assert header.startswith("# config: ")
        assert out == body, command
        stopped = NOT_RUN.get(command[0], [])
        assert not any(calls.get(name) for name in stopped), (command, calls)
