"""The benchmark's stage boundaries still exist and are still crossed.

``bench/child.py`` wraps treecut functions by module and name, and the
benchmark exits without a result when one is missing or when a stage
its workload requires is never crossed.  These tests catch such a
rename or rerouting here, without running the benchmark.
"""

import importlib
import sys

import pytest

import treecut.cli
from treecut import pipeline
from treecut.grammar import parse_rule_inventory, parse_treebank

from oracles import TOY, load_bench_module

# the toy corpus files, as the benchmark's run_argv takes them
TOY_PATHS = {role: str(TOY / f"{role}.txt") for role in ("grammar", "train", "test")}


@pytest.fixture(scope="module")
def bench():
    saved = list(sys.path)  # the bench modules put their own directory first
    try:
        yield load_bench_module("child"), load_bench_module("run")
    finally:
        sys.path[:] = saved


def test_every_boundary_is_a_callable_of_its_module(bench):
    child, _ = bench
    for module_name, func_name, _, _ in child.LAYERS + child.END_TO_END:
        module = importlib.import_module(f"treecut.{module_name}")
        assert callable(getattr(module, func_name, None)), (module_name, func_name)


def rebind(monkeypatch, original, replacement):
    """Replace *original* wherever a treecut module binds it."""
    modules = [
        m for name, m in sys.modules.items()
        if name == "treecut" or name.startswith("treecut.")
    ]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def install_counters(monkeypatch, child):
    """Count calls at every boundary, wherever the function is bound."""
    calls, spans = {}, {}
    for module_name, func_name, span, _ in child.LAYERS:
        original = getattr(sys.modules[f"treecut.{module_name}"], func_name)

        def counting(*args, _original=original, _key=func_name, _span=span, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            spans[_span] = spans.get(_span, 0) + 1
            return _original(*args, **kwargs)

        rebind(monkeypatch, original, counting)
    return calls, spans


def install_bench_tracer(monkeypatch, child):
    """The benchmark's own tracer at every layer boundary, undone at
    teardown: every callable a treecut module binds is saved first."""
    for name, module in list(sys.modules.items()):
        if name == "treecut" or name.startswith("treecut."):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)
    tracer = child.Tracer(child.HostClock())
    child.install(tracer, child.LAYERS)
    return tracer


def test_toy_search_tiles_the_test_set_once_per_partition(
    bench, monkeypatch, tmp_path, capsys
):
    # the bench reads evaluate_coverage's arguments as (rules, trees);
    # if their meaning moved, its tiling counts would silently skew
    child, run = bench
    tracer = install_bench_tracer(monkeypatch, child)
    verdicts = []
    fraction = pipeline.VerdictTable.fraction
    monkeypatch.setattr(
        pipeline.VerdictTable, "fraction",
        lambda table, chunks: verdicts.append(len(table.trees)) or fraction(table, chunks),
    )
    test = tmp_path / "test.txt"
    test.write_text((TOY / "test.txt").read_text() + (TOY / "train.txt").read_text())
    code = treecut.cli.main(run.run_argv(
        {**TOY_PATHS, "test": str(test)},
        run.WORKLOADS["bisect-mixed"]["flags"],
        str(tmp_path / "out"),
    ))
    capsys.readouterr()
    assert code == 0
    inv = parse_rule_inventory((TOY / "grammar.txt").read_text(), "s")
    test_size = len(parse_treebank(test.read_text(), inv))
    assert len(tracer.cutsets) > 1
    # one verdict pass per distinct partition, unwrapped by the bench,
    # then one preferred tiling of the reported rules
    assert verdicts == [test_size] * len(tracer.cutsets)
    assert tracer.counts["trees_tiled"] == test_size
    assert tracer.counts.get("repeat_evaluations", 0) == 0


def test_arc_restricted_run_crosses_its_stages(bench, monkeypatch, tmp_path, capsys):
    child, run = bench
    workload = run.WORKLOADS["arc-restricted"]
    calls, spans = install_counters(monkeypatch, child)
    code = treecut.cli.main(  # looked up now, so its wrapper is called
        run.run_argv(TOY_PATHS, workload["flags"], str(tmp_path / "out"))
    )
    capsys.readouterr()
    assert code == 0
    for name in (
        "closure",
        "compute_node_entropies",
        "node_entropy_arc_frequency",
        "neighbor_conflicts",
        "select_iterative",
    ):
        assert calls.get(name), name
    missing = [s for s in ["select", "evaluate"] + workload["spans"] if not spans.get(s)]
    assert not missing


@pytest.mark.parametrize("name", ["bisect-mixed", "fixed-large", "arc-restricted"])
def test_each_workload_crosses_its_spans(bench, monkeypatch, tmp_path, capsys, name):
    # a small corpus of the workload's kind, run with its flags the way
    # a traced benchmark run wraps it: every required span is crossed,
    # and the counters read their boundaries' arguments as meant
    child, run = bench
    workload = run.WORKLOADS[name]
    training, test = child.gen.generate(workload["corpus"], 150, 30, 4.0)
    paths = child.gen.write_corpus(
        str(tmp_path / "corpus"), workload["corpus"], training, test
    )
    tracer = install_bench_tracer(monkeypatch, child)
    code = treecut.cli.main(
        run.run_argv(paths, workload["flags"], str(tmp_path / "out"))
    )
    capsys.readouterr()
    assert code == 0
    spans = ["select", "evaluate"] + workload["spans"]
    assert [s for s in spans if not tracer.calls.get(s)] == []
    assert tracer.counts["slots"] == len(child.check.slot_counts(training))
    rhs_of = {rid: rhs for rid, _, rhs in child.gen.GRAMMARS[workload["corpus"]]}
    index = child.check.Index(training, rhs_of, "s")
    assert tracer.counts["or_nodes"] == len(index)


def blind(tree):
    """A generated tree without its words: its word-blind shape."""
    if tree[0] == "lex":
        return ("lex",)
    return (tree[0], *map(blind, tree[1:]))


def words(tree):
    return 1 if tree[0] == "lex" else sum(map(words, tree[1:]))


def chunk_roots(index, tree, cut):
    """The chunks one tree is cut into: its root, and every rule
    application below it at a cut position that spans a word."""
    count = 1
    stack = [(0, tree)]
    while stack:
        pos, node = stack.pop()
        for kid, sub in zip(index.kids[pos].get(node[0], ()), node[1:]):
            if sub[0] != "lex":
                count += kid in cut and words(sub) > 0
                stack.append((kid, sub))
    return count


def run_small_fixed_large(bench, monkeypatch, tmp_path, capsys):
    """A 300/30-tree corpus of fixed-large's kind, run with its flags
    under the benchmark's tracer: its one probe extracts once.  Returns
    the generated training trees, the tracer and the report directory."""
    child, run = bench
    workload = run.WORKLOADS["fixed-large"]
    training, test = child.gen.generate(workload["corpus"], 300, 30, 4.0)
    paths = child.gen.write_corpus(
        str(tmp_path / "corpus"), workload["corpus"], training, test
    )
    tracer = install_bench_tracer(monkeypatch, child)
    out = tmp_path / "out"
    code = treecut.cli.main(run.run_argv(paths, workload["flags"], str(out)))
    capsys.readouterr()
    assert code == 0
    assert tracer.counts["probes"] == 1
    return training, tracer, out


def test_fixed_large_counts_the_chunk_roots_of_each_root_shape(
    bench, monkeypatch, tmp_path, capsys
):
    # extraction.chunks sums len(cut_tree(...)) over its calls: one per
    # distinct word-blind root shape, each giving that tree's chunk roots.
    # They are counted here from the generated trees and the reported cut
    # classes alone, so a rerouted or skewed counter shows.
    child, run = bench
    training, tracer, out = run_small_fixed_large(bench, monkeypatch, tmp_path, capsys)
    workload = run.WORKLOADS["fixed-large"]
    rhs_of = {rid: rhs for rid, _, rhs in child.gen.GRAMMARS[workload["corpus"]]}
    index = child.check.Index(training, rhs_of, "s")
    cut = {
        index.by_id[m]
        for _, members in child.check.cut_classes(str(out))
        for m in members
    }
    shapes = {blind(tree): tree for tree in training}
    assert len(shapes) < len(training)
    assert tracer.calls["cut_tree"] == len(shapes)
    want = sum(chunk_roots(index, tree, cut) for tree in shapes.values())
    assert want > len(shapes)
    assert tracer.counts["chunks"] == want


def test_fixed_large_counts_the_trees_and_rules_of_its_extraction(
    bench, monkeypatch, tmp_path, capsys
):
    # the extraction hook reads extract_training's arguments as
    # (training trees, ...) and its result as the list of rules; each
    # count is checked against the corpus and the rule file written
    training, tracer, out = run_small_fixed_large(bench, monkeypatch, tmp_path, capsys)
    assert tracer.counts["trees_extracted"] == len(training)
    lines = (out / "rules.txt").read_text().splitlines()
    records = sum(line.startswith("  support: ") for line in lines)
    assert records > 1
    assert tracer.counts["rules"] == records
