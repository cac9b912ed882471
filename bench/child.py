"""One timed ``treecut run`` in a fresh process.

Usage: ``python3 bench/child.py SPEC_JSON``.  The spec holds ``argv``
(the arguments of ``treecut.cli.main``), ``trace`` (0 or 1) and
``required`` (the spans this workload must cross).  Prints one JSON
object on stdout; exits 3 with a message on stderr when the benchmark
cannot measure the program.

Host speed drifts by a third within seconds on small shared machines.
So while ``treecut`` works, a timer signal runs a fixed reference loop
every ``TICK_S`` seconds.  Every time is reported raw (wall seconds
with the reference loop's own time taken out) and scaled by the loop's
speed over the same interval, which cancels most of the drift.

Stage boundaries are public functions of the ``treecut`` modules.  They
are wrapped wherever they are bound, so calls made from other modules
are seen too, and ``src/`` is left as it is.  A boundary that is missing
or that a workload must cross but never does is an error, not a zero.
"""

import contextlib
import functools
import gc
import io
import json
import os
import resource
import signal
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

TICK_S = 0.025
# Scaled times are seconds on a host where one reference loop takes
# REF_NOMINAL_S.  treecut slows down more than the reference loop when
# the host is busy: over ten-minute samples on a 2-core shared host, a
# run's time grew as the loop's time to a power of 1.16 to 1.46 across
# the three workloads, so the scale uses the power REF_EXPONENT.
REF_NOMINAL_S = 0.001
REF_EXPONENT = 1.25

sys.path.insert(0, BENCH_DIR)
import check  # noqa: E402
import gen  # noqa: E402

_REF_TRAIN, _REF_TEST = gen.generate("toy", 10, 5, 0)
_REF_RHS = {rule_id: rhs for rule_id, _, rhs in gen.TOY_RULES}
_REF_RULES = [("s", tree) for tree in _REF_TRAIN]


class BenchError(Exception):
    """The benchmark cannot measure this program; no result is printed."""


def reference_loop() -> int:
    """A fixed slice of treecut-like work on a fixed ten-tree corpus.

    It runs the benchmark's own index, phrase-table recount, tiler and
    closure.  A plain integer loop, or one of tuples and dicts, tracked
    treecut's slow-downs less well.
    """
    index = check.Index(_REF_TRAIN, _REF_RHS, "s")
    slots = check.slot_counts(_REF_TRAIN)
    total = sum(check.entropy(dist) for dist in slots.values())
    tiled = check.verdicts(_REF_RULES, _REF_TEST + _REF_TRAIN)
    closed = check.close(index, index.ids[1::5])
    return int(total) + sum(tiled) + len(closed)


class HostClock:
    """Wall clock without the reference loop, and the loop's samples."""

    def __init__(self):
        self.spent = 0.0
        self.samples: list[tuple[float, float]] = []

    def now(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        # the loop frees all it allocates; with the collector paused it
        # neither pays for nor triggers a collection of treecut's heap
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append((start - self.spent, took))
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, begin: float, end: float) -> float:
        """Factor from raw to scaled seconds for the interval [begin, end].

        It is REF_NOMINAL_S over the mean loop time inside the interval,
        to the power REF_EXPONENT.  An interval holding fewer than three
        samples uses all of them.
        """
        inside = [took for at, took in self.samples if begin <= at <= end]
        if len(inside) < 3:
            inside = [took for _, took in self.samples]
        if not inside:
            raise BenchError("no reference-loop samples were taken")
        return (REF_NOMINAL_S * len(inside) / sum(inside)) ** REF_EXPONENT


class Tracer:
    """Span times, call counts and counters at the wrapped boundaries."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.first_start: dict[str, float] = {}
        self.last_end: dict[str, float] = {}
        self.open: dict[str, int] = {}
        self.stack: list[list] = []
        self.cutsets: set = set()
        self.tiled: set = set()

    def enter(self, span: str) -> None:
        now = self.clock.now()
        self.first_start.setdefault(span, now)
        self.open[span] = self.open.get(span, 0) + 1
        self.stack.append([span, now, 0.0])

    def leave(self) -> None:
        span, start, inner = self.stack.pop()
        now = self.clock.now()
        took = now - start
        self.open[span] -= 1
        self.last_end[span] = now
        self.calls[span] = self.calls.get(span, 0) + 1
        self.self_time[span] = self.self_time.get(span, 0.0) + took - inner
        if not self.open[span]:
            self.total[span] = self.total.get(span, 0.0) + took
        if self.stack:
            self.stack[-1][2] += took

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


def install(tracer: Tracer, boundaries) -> None:
    """Wrap each (module, function, span, hook) wherever it is bound.

    The hook sees (tracer, args, result) of outermost calls only.
    """
    modules = [
        m for name, m in sys.modules.items()
        if name == "treecut" or name.startswith("treecut.")
    ]
    for module_name, func_name, span, hook in boundaries:
        module = sys.modules.get(f"treecut.{module_name}")
        original = getattr(module, func_name, None)
        if not callable(original):
            raise BenchError(f"boundary treecut.{module_name}.{func_name} not found")

        def make(original=original, span=span, hook=hook):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                outermost = not tracer.open.get(span)
                tracer.enter(span)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.leave()
                if hook is not None and outermost:
                    hook(tracer, args, result)
                return result

            return wrapper

        wrapped = make()
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def _counter(key, size):
    return lambda tracer, args, result: tracer.count(key, size(args, result))


def _selected(tracer, args, result) -> None:
    tracer.count("probes")
    tracer.cutsets.add(result.cut_node_ids())


def _extracted(tracer, args, result) -> None:
    tracer.count("trees_extracted", len(args[0]))
    tracer.count("rules", len(result))


def _tiled(tracer, args, result) -> None:
    rules, trees = args[0], args[1]
    tracer.count("trees_tiled", len(trees))
    key = (tuple(sorted(rule.name for rule in rules)), id(trees))
    if key in tracer.tiled:
        tracer.count("repeat_evaluations")
    tracer.tiled.add(key)


# Spans the end-to-end metrics are cut at; every workload crosses both.
END_TO_END = [
    ("cutnodes", "select_by_threshold", "select", None),
    ("cutnodes", "select_iterative", "select", None),
    ("coverage", "evaluate_coverage", "evaluate", None),
]

LAYERS = [
    ("cli", "main", "cli.main", None),
    ("pipeline", "run_pipeline", "run_pipeline", None),
    ("pipeline", "load_treebank", "load", None),
    ("pipeline", "write_reports", "write_reports", None),
    ("sexpr", "read_all", "read_all", _counter("read_chars", lambda a, r: len(a[0]))),
    ("grammar", "parse_treebank", "parse_treebank",
     _counter("trees_parsed", lambda a, r: len(r))),
    ("entropy", "build_phrase_table", "build_phrase_table",
     _counter("slots", lambda a, r: len(r.entropies))),
    ("andor", "index_treebank", "index_treebank",
     _counter("or_nodes", lambda a, r: len(r.node_index))),
    ("andor", "dump", "dump", None),
    ("node_entropy", "compute_node_entropies", "compute", None),
    ("node_entropy", "node_entropy_arc_frequency", "arc_frequency", None),
    ("cutnodes", "select_by_threshold", "select", _selected),
    ("cutnodes", "select_iterative", "select", _selected),
    ("cutnodes", "closure", "closure", None),
    ("cutnodes", "neighbor_conflicts", "neighbor_conflicts", None),
    ("extraction", "extract_training", "extract", _extracted),
    ("extraction", "extract_andor", "extract", None),
    ("extraction", "cut_tree", "cut_tree", _counter("chunks", lambda a, r: len(r))),
    ("coverage", "evaluate_coverage", "evaluate", _tiled),
]


def report_info(out_dir: str) -> tuple[int, int]:
    """Total bytes of the report files, and cut classes in threshold.txt."""
    total = 0
    cut_classes = None
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        total += os.path.getsize(path)
        if name == "threshold.txt":
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("cut_classes\t"):
                        cut_classes = int(line.split("\t")[1])
    if cut_classes is None:
        raise BenchError(f"{out_dir}/threshold.txt has no cut_classes line")
    return total, cut_classes


def _ratio(n, d) -> float:
    return n / d if d > 0 else 0.0


def layer_metrics(tr: Tracer, scale: float, out_dir: str) -> dict:
    """Per-layer metrics of one traced run; times are scaled."""

    def secs(span):
        return tr.total.get(span, 0.0) * scale

    c = tr.counts
    parse_self = tr.self_time.get("parse_treebank", 0.0) * scale
    report_bytes, cut_classes = report_info(out_dir)
    return {
        "sexpr.read_all_s": secs("read_all"),
        "sexpr.mb_per_s": _ratio(c.get("read_chars", 0) / 1e6, secs("read_all")),
        "grammar.parse_treebank_self_s": parse_self,
        "grammar.trees_per_s": _ratio(c.get("trees_parsed", 0), parse_self),
        "entropy.build_phrase_table_s": secs("build_phrase_table"),
        "entropy.slots": c.get("slots", 0),
        "andor.index_treebank_s": secs("index_treebank"),
        "andor.or_nodes": c.get("or_nodes", 0),
        "andor.or_nodes_per_s": _ratio(c.get("or_nodes", 0), secs("index_treebank")),
        "andor.dump_s": secs("dump"),
        "node_entropy.compute_calls": tr.calls.get("compute", 0),
        "node_entropy.compute_s": secs("compute"),
        "node_entropy.arc_frequency_s": secs("arc_frequency"),
        "node_entropy.arc_frequency_calls": tr.calls.get("arc_frequency", 0),
        "cutnodes.select_s": secs("select"),
        "cutnodes.closure_s": secs("closure"),
        "cutnodes.closure_calls": tr.calls.get("closure", 0),
        "cutnodes.neighbor_conflicts_s": secs("neighbor_conflicts"),
        "cutnodes.cut_classes": cut_classes,
        "extraction.extract_s": secs("extract"),
        "extraction.trees_per_s": _ratio(c.get("trees_extracted", 0), secs("extract")),
        "extraction.chunks": c.get("chunks", 0),
        "extraction.rules": c.get("rules", 0),
        "extraction.rules_per_chunk": _ratio(c.get("rules", 0), c.get("chunks", 0)),
        "coverage.evaluate_s": secs("evaluate"),
        "coverage.trees_tiled": c.get("trees_tiled", 0),
        "coverage.trees_per_s": _ratio(c.get("trees_tiled", 0), secs("evaluate")),
        "coverage.repeat_evaluations": c.get("repeat_evaluations", 0),
        "threshold.probes": c.get("probes", 0),
        "threshold.distinct_cutsets": len(tr.cutsets),
        "threshold.distinct_per_probe": _ratio(len(tr.cutsets), c.get("probes", 0)),
        "pipeline.load_s": secs("load"),
        "pipeline.write_reports_s": secs("write_reports"),
        "pipeline.report_bytes": report_bytes,
        "cli.overhead_s": secs("cli.main") - secs("run_pipeline"),
    }


def _out_dir(argv: list) -> str:
    return argv[argv.index("--out") + 1]


def measure(spec: dict) -> dict:
    if not os.path.isfile(os.path.join(SRC_DIR, "treecut", "cli.py")):
        raise BenchError(f"no treecut sources under {SRC_DIR}")
    sys.path.insert(0, SRC_DIR)
    import treecut.cli

    if not os.path.abspath(treecut.__file__).startswith(SRC_DIR + os.sep):
        raise BenchError(f"treecut was imported from {treecut.__file__}")
    clock = HostClock()
    tracer = Tracer(clock)
    install(tracer, LAYERS if spec["trace"] else END_TO_END)
    cli_main = sys.modules["treecut.cli"].main

    error = None
    code = None
    clock.start()
    try:
        t0 = clock.now()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli_main(spec["argv"])
            except Exception as exc:  # a crash of the program is a failed run
                error = f"{type(exc).__name__}: {exc}"
        t1 = clock.now()
    finally:
        clock.stop()
    result = {
        "code": code,
        "error": error,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if error is not None or code != 0:
        return result

    for span in ["select", "evaluate"] + spec["required"]:
        if not tracer.calls.get(span):
            raise BenchError(f"stage boundary '{span}' was never crossed")
    t_select = tracer.first_start["select"]
    t_tiled = tracer.last_end["evaluate"]
    windows = {
        "run_s": (t0, t1),
        "setup_s": (t0, t_select),
        "probe_s": (t_select, t_tiled),
    }
    result["raw"] = {k: end - begin for k, (begin, end) in windows.items()}
    result["scaled"] = {
        k: (end - begin) * clock.scale(begin, end)
        for k, (begin, end) in windows.items()
    }
    result["ref_samples"] = len(clock.samples)
    if spec["trace"]:
        result["layers"] = layer_metrics(
            tracer, clock.scale(t0, t1), _out_dir(spec["argv"])
        )
    return result


def main(argv) -> int:
    try:
        result = measure(json.loads(argv[0]))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
