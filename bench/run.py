"""Benchmark of ``treecut run``: end-to-end times, or per-layer figures.

Usage::

    python3 bench/run.py --workload bisect-mixed --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; ``treecut`` is imported from
``src/``, nothing is installed.  The seeded generator writes the
workload's corpora under ``bench/out/`` before any timing starts.  Then
the command runs whole rounds, one ``treecut run`` per corpus, each in a
fresh process (``bench/child.py``), while the next round still fits in
``--seconds``, and reports the median over all runs.  With ``--trace 1``
the runs wrap every stage boundary and report the per-layer metrics
instead.  Last, it checks each corpus's reports against independent
recomputations (``bench/check.py``).

Every metric is printed with its name and unit, and the last line of
standard output is one JSON object: ``correct``, ``attempted`` (runs
started), ``failed`` (runs that crashed or exited non-zero) and
``metrics``.  Exits 2 without a result when ``src/treecut`` is missing
or a stage boundary the workload must cross was never crossed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import gen  # noqa: E402

CHILD_TIMEOUT_S = 60

# Spans every traced run crosses; see child.LAYERS for where they sit.
COMMON_SPANS = [
    "cli.main", "run_pipeline", "load", "write_reports", "read_all",
    "parse_treebank", "build_phrase_table", "index_treebank", "dump",
    "compute", "select", "closure", "extract", "cut_tree", "evaluate",
]

# A round runs treecut once on each of the workload's ``corpora``, all
# drawn from the seed.  bisect-mixed takes four: where the search ends
# up varies between corpora, and one corpus's run time moved by about
# 5 % (standard deviation) from seed to seed.  arc-restricted takes
# five: 4 corpora in 30 settled their selection in 11 or 15 closure
# calls instead of 20, and probe time varied by about 8 % among the
# rest.
WORKLOADS = {
    # the coverage search dominates: 11 probes, each selecting, extracting
    # and tiling a large test set that nests deeper than training
    "bisect-mixed": {
        "corpus": "toy", "train": 1000, "test": 200, "corpora": 4,
        "flags": ["--coverage", "0.9"],
        "spans": COMMON_SPANS,
    },
    # one probe: loading, the phrase table, the index and the reports
    # dominate, and resident memory is largest
    "fixed-large": {
        "corpus": "toy", "train": 20000, "test": 100, "corpora": 1,
        "flags": ["--threshold", "1.0"],
        "spans": COMMON_SPANS,
    },
    # iterated arc-frequency selection with neighbour restrictions over
    # an index of a few thousand or-nodes; search and tiler hardly run
    "arc-restricted": {
        "corpus": "layered", "train": 4000, "test": 100, "corpora": 5,
        "flags": ["--scheme", "arc-frequency", "--restrictions", "--threshold", "0.2"],
        "spans": COMMON_SPANS + ["arc_frequency", "neighbor_conflicts"],
    },
}


class BenchError(Exception):
    """The benchmark cannot measure this checkout; no result is printed."""


def run_argv(paths: dict, flags: list, out_dir: str) -> list:
    return [
        "run", "--grammar", paths["grammar"], "--train", paths["train"],
        "--test", paths["test"], "--top", "s", *flags, "--out", out_dir,
    ]


def run_child(argv: list, trace: int, spans: list) -> dict:
    spec = json.dumps({"argv": argv, "trace": trace, "required": spans})
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), spec],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode == 3:
        raise BenchError(proc.stderr.strip())
    if proc.returncode != 0:
        return {"code": None, "error": proc.stderr.strip()[-500:]}
    return json.loads(proc.stdout)


class Corpus:
    """One generated corpus: its trees, files and first reports."""

    def __init__(self, wl: dict, seed: str, work: str):
        self.work = work
        self.training, self.test = gen.generate(
            wl["corpus"], wl["train"], wl["test"], seed
        )
        absolute = gen.write_corpus(
            os.path.join(ROOT, work), wl["corpus"], self.training, self.test
        )
        self.paths = {role: os.path.relpath(p, ROOT) for role, p in absolute.items()}
        self.first_out = None


def ok(result: dict) -> bool:
    return result.get("code") == 0 and result.get("error") is None


def timed_rounds(corpora: list, wl: dict, trace: int, seconds: float):
    """Whole rounds while the next one fits in *seconds*; at least one.

    Keeps each corpus's first successful reports and compares every
    later run's reports with them byte for byte.
    """
    spans = wl["spans"] if trace else []
    runs, problems = [], []
    deadline = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        for corpus in corpora:
            out = os.path.join(corpus.work, f"report{len(runs)}")
            result = run_child(run_argv(corpus.paths, wl["flags"], out), trace, spans)
            runs.append(result)
            if not ok(result):
                continue
            if corpus.first_out is None:
                corpus.first_out = os.path.join(ROOT, out)
            else:
                problems += check.same_reports(corpus.first_out, os.path.join(ROOT, out))
                shutil.rmtree(os.path.join(ROOT, out))
        now = time.monotonic()
        if now + (now - started) > deadline:
            return runs, problems


def verify(name: str, wl: dict, corpus: Corpus) -> list[str]:
    """Independent checks of a corpus's first reports; returns the problems."""
    training, test = corpus.training, corpus.test
    out_dir = corpus.first_out
    if out_dir is None:
        return [f"every run on {corpus.work} failed, so nothing was checked"]
    rhs_of = {rid: rhs for rid, _, rhs in gen.GRAMMARS[wl["corpus"]]}
    index = check.Index(training, rhs_of, "s")
    problems = check.check_phrase_table(training, out_dir)
    problems += check.check_index(index, out_dir)
    problems += check.check_cutset(
        index, training, out_dir, "--restrictions" in wl["flags"]
    )
    problems += check.check_training_tiled(training, out_dir)
    cov_problems, fraction = check.check_coverage(test, out_dir)
    problems += cov_problems
    report = check.key_values(out_dir)
    if "--coverage" not in wl["flags"]:
        return problems

    target = float(wl["flags"][wl["flags"].index("--coverage") + 1])
    if report.get("attainable") != "yes":
        return problems + [f"{name}: coverage target reported unattainable"]
    if fraction < target or abs(fraction - float(report["coverage"])) > 1e-6:
        problems.append(
            f"coverage at the threshold is {fraction:.6f}, reported "
            f"{report['coverage']}, target {target}"
        )
    # The search's upper bracket must miss the target; rerun it fixed.
    high_out = os.path.join(corpus.work, "bracket_high")
    high = run_child(
        run_argv(corpus.paths, ["--threshold", report["bracket_high"]], high_out), 0, []
    )
    if high.get("code") != 0 or high.get("error"):
        return problems + [f"fixed run at bracket_high failed: {high.get('error')}"]
    _, high_fraction = check.check_coverage(test, os.path.join(ROOT, high_out))
    if high_fraction >= target or abs(
        high_fraction - float(report["coverage_at_bracket_high"])
    ) > 1e-6:
        problems.append(
            f"coverage at bracket_high is {high_fraction:.6f}, reported "
            f"{report['coverage_at_bracket_high']}, target {target}"
        )
    return problems


def declared_units(trace: int) -> dict:
    """Metric name to unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in declared}


def run_values(run: dict, trace: int) -> dict:
    if trace:
        return run["layers"]
    return dict(run["scaled"], peak_rss_mb=run["peak_rss_mb"])


def bench(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "treecut", "cli.py")):
        raise BenchError(f"no treecut sources under {ROOT}/src")
    wl = WORKLOADS[args.workload]
    work = os.path.join("bench", "out", f"{args.workload}-{args.seed}")
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    corpora = [
        Corpus(wl, f"{args.seed}.{j}", os.path.join(work, f"c{j}"))
        for j in range(wl["corpora"])
    ]

    runs, problems = timed_rounds(corpora, wl, args.trace, args.seconds)
    good = [r for r in runs if ok(r)]
    for r in runs:
        if not ok(r):
            print(f"failed run: code={r.get('code')} {r.get('error')}", file=sys.stderr)
    for corpus in corpora:
        problems += verify(args.workload, wl, corpus)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    metrics = {}
    if good:
        units = declared_units(args.trace)
        values = [run_values(r, args.trace) for r in good]
        if set(values[0]) != set(units):
            raise BenchError(
                f"measured metrics {sorted(values[0])} differ from the "
                f"declared ones {sorted(units)}"
            )
        for name, unit in units.items():
            median = statistics.median(v[name] for v in values)
            metrics[name] = {"value": median, "unit": unit}
        if not args.trace:
            for name in ("run_s", "setup_s", "probe_s"):
                raw = statistics.median(r["raw"][name] for r in good)
                print(f"raw.{name}\t{raw:.4f}\ts\t(unscaled, reference only)")
    for name, m in metrics.items():
        print(f"{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"runs\t{len(runs)}\tfailed\t{len(runs) - len(good)}")
    return {
        "correct": not problems and bool(good),
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = bench(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
