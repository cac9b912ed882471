"""The package's public surface.

No module of the package imports another's underscore-prefixed names,
and every name ``treecut.__all__`` exports resolves.  Each setting is
decided in one place: the reading precision is a property of the phrase
table, which alone applies it, ``PipelineConfig`` is the one config
class, and only the treebank loader touches the garbage collector.
Every report is rendered as a stream of lines, and a run keeps no
state in the package's modules.  No test file imports a test module,
and no public name of the package is reached by the tests alone.
"""

import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import treecut

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "treecut"


def private_imports(path: pathlib.Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        ours = module == "treecut" or module.startswith("treecut.")
        if node.level == 0 and not ours:
            continue
        found += [
            f"{path.name}:{node.lineno}: {module}.{alias.name}"
            for alias in node.names
            if alias.name.startswith("_")
        ]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 1
    assert [hit for path in modules for hit in private_imports(path)] == []


def package_imports(path: pathlib.Path) -> set[str]:
    """The package's modules that *path* imports from, at any depth."""
    return {
        m.split(".")[1] for m in imported_modules(path) if m.startswith("treecut.")
    }


def test_modules_import_one_another_without_a_cycle():
    graph = {
        path.stem: package_imports(path)
        for path in SRC.glob("*.py")
        if path.stem != "__init__"
    }
    done: set[str] = set()
    while len(done) < len(graph):
        # the modules whose imports are all in place already
        ready = {m for m, needs in graph.items() if m not in done and needs <= done}
        assert ready, sorted(set(graph) - done)
        done |= ready
    # the slot type lives in grammar, and entropy still hands it out
    assert importlib.import_module("treecut.entropy").Slot is treecut.grammar.Slot


def referenced_names(path: pathlib.Path) -> set[str]:
    """Every name *path* loads, reads as an attribute or imports, and
    every string constant: the benchmark names the functions it wraps
    by string."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_public_name_is_reached_outside_the_tests():
    # each top-level public def or class of the package is exported, or
    # referenced by the package or the benchmark
    bench = SRC.parent.parent / "bench"
    reached = set(treecut.__all__)
    for path in [*SRC.glob("*.py"), *bench.glob("*.py")]:
        reached |= referenced_names(path)
    found = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in reached
    ]
    assert found == []


def test_every_exported_name_resolves():
    assert [name for name in treecut.__all__ if not hasattr(treecut, name)] == []


# The functions that set or apply a precision, rather than read a table's.
PRECISION_SETTERS = {"build_phrase_table", "quantize_decimal"}


def test_only_the_table_builder_and_rounding_take_a_precision():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if node.name not in PRECISION_SETTERS and any(
                p.arg == "decimals" for p in params
            ):
                found.append(f"{path.name}:{node.lineno}: {node.name}")
    assert found == []


def imported_modules(path: pathlib.Path) -> set[str]:
    """Every module *path* imports, or imports names from, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module or "")
    return found


def test_no_test_file_imports_a_test_module():
    # oracles and shared helpers live in oracles.py and fixtures in
    # conftest.py; no test module reaches into another for them
    tests = pathlib.Path(__file__).resolve().parent
    local = {path.stem for path in tests.glob("*.py")} - {"conftest", "oracles"}
    found = [
        f"{path.name}: {module}"
        for path in sorted(tests.glob("*.py"))
        for module in imported_modules(path)
        if module.split(".")[0] in local
    ]
    assert found == []


def test_only_the_phrase_table_module_does_decimal_arithmetic():
    # the table applies its own precision; every other module reads it
    found = [
        path.name for path in sorted(SRC.glob("*.py"))
        if "decimal" in imported_modules(path) and path.name != "entropy.py"
    ]
    assert found == []


def test_only_the_loader_sets_a_collector_policy():
    # parse_treebank pauses the collector while it folds a text; no
    # other module turns it off, freezes or thaws objects
    found = [
        path.name for path in sorted(SRC.glob("*.py"))
        if "gc" in imported_modules(path) and path.name != "grammar.py"
    ]
    assert found == []
    assert "gc" in imported_modules(SRC / "grammar.py")


def test_pipeline_config_is_the_only_exported_config():
    configs = [name for name in treecut.__all__ if name.endswith("Config")]
    assert configs == ["PipelineConfig"]


# Every report file's renderer; render_chunk and render_tree render one
# expression, not a report.
REPORT_RENDERERS = [
    "entropy.render_entropy_table",
    "node_entropy.render_node_entropies",
    "andor.dump",
    "pipeline.render_threshold_report",
    "cutnodes.render_cut_classes",
    "extraction.render_rule_file",
    "coverage.render_stats",
    "coverage.render_coverage",
]


def test_every_report_renderer_yields_its_lines():
    # a report is written as it is rendered, never joined whole in memory
    joined = []
    for dotted in REPORT_RENDERERS:
        module, name = dotted.split(".")
        renderer = getattr(importlib.import_module(f"treecut.{module}"), name)
        if not inspect.isgeneratorfunction(renderer):
            joined.append(dotted)
    assert joined == []


# Runs treecut in a fresh interpreter and prints, as its last line, the
# size of every module-level dict, list and set of the package before
# and after each run, with the run's exit code.
STATE_PROBE = """
import importlib, json, pkgutil, sys
import treecut
from treecut.cli import main

modules = [importlib.import_module("treecut." + m.name)
           for m in pkgutil.iter_modules(treecut.__path__)]

def sizes():
    return {
        f"{module.__name__}.{name}": len(value)
        for module in modules for name, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and not name.startswith("__")
    }

runs = []
for argv in json.loads(sys.argv[1]):
    before = sizes()
    code = main(argv)
    runs.append([code, before, sizes()])
print(json.dumps([len(modules), runs]))
"""


def test_a_run_leaves_no_state_in_the_package(tmp_path):
    toy = SRC.parent.parent / "corpora" / "toy"
    corpus = [
        "--grammar", str(toy / "grammar.txt"), "--train", str(toy / "train.txt"),
        "--test", str(toy / "test.txt"),
    ]
    argvs = [
        ["run", *corpus, "--coverage", "0.9", "--out", str(tmp_path / "a")],
        ["run", *corpus, "--threshold", "1.0", "--mode", "andor",
         "--out", str(tmp_path / "b")],
        ["run", *corpus, "--scheme", "arc-frequency", "--restrictions",
         "--threshold", "0.2", "--out", str(tmp_path / "c")],
    ]
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", STATE_PROBE, json.dumps(argvs)],
        capture_output=True, text=True, env=env, check=True,
    )
    count, runs = json.loads(done.stdout.splitlines()[-1])
    assert count == len(list(SRC.glob("*.py"))) - 1  # all but __init__
    assert [code for code, _, _ in runs] == [0, 0, 0]
    for _, before, after in runs:
        assert after == before
