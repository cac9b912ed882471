"""run_pipeline extracts each partition once and tiles the reported
rules once, for both its coverage and its stats, and leaves the garbage
collector as it found it."""

import gc

import pytest

from treecut import grammar, pipeline
from treecut.coverage import (
    evaluate_coverage,
    reduction_stats,
    render_coverage,
    render_stats,
)
from treecut.pipeline import run_pipeline

from oracles import TOY, toy_config

UNTILEABLE = "(s_np_vp (np_num (lex Nine)) (vp_v (lex left)))\n"


@pytest.fixture
def test_file(tmp_path):
    path = tmp_path / "test.txt"
    path.write_text((TOY / "test.txt").read_text() + UNTILEABLE)
    return path


@pytest.mark.parametrize(
    "goal", [{"threshold": 1.0}, {"coverage_target": 0.5}], ids=["fixed", "search"]
)
def test_reports_reuse_the_chosen_tiling(
    test_file, tmp_path, monkeypatch, goal
):
    tiled, verdicts, extracted = [], [], []
    evaluate, fraction = pipeline.evaluate_coverage, pipeline.VerdictTable.fraction
    extract = pipeline.SearchContext.extract
    monkeypatch.setattr(
        pipeline, "evaluate_coverage",
        lambda rules, trees: tiled.append(len(trees)) or evaluate(rules, trees),
    )
    monkeypatch.setattr(
        pipeline.VerdictTable, "fraction",
        lambda table, chunks: verdicts.append(len(table.trees)) or fraction(table, chunks),
    )
    monkeypatch.setattr(
        pipeline.SearchContext, "extract",
        lambda context, *args: extracted.append(args) or extract(context, *args),
    )
    selected = set()
    select = pipeline.select_by_threshold

    def recording_select(*args, **kwargs):
        cutnodes = select(*args, **kwargs)
        selected.add(pipeline.partition_key(cutnodes))
        return cutnodes

    monkeypatch.setattr(pipeline, "select_by_threshold", recording_select)
    cfg = toy_config(
        test_path=str(test_file), weighted_stats=True, out_dir=str(tmp_path / "out"),
        **goal,
    )
    context, _ = run_pipeline(cfg)
    test = context.treebank.test
    # each distinct partition is extracted once; a search takes one
    # verdict pass for each, and the reported rules are tiled once, preferred
    assert len(extracted) == len(selected)
    assert verdicts == [len(test)] * (len(selected) if context.choice[1] else 0)
    assert tiled == [len(test)]

    fresh = evaluate_coverage(context.rules, test)
    assert context.coverage.verdicts == fresh.verdicts == [True, False]
    assert (tmp_path / "out" / "coverage.tsv").read_text().splitlines()[1:] == (
        "".join(render_coverage(fresh)).splitlines()
    )
    stats = reduction_stats(context.rules, weighted=True, tilings=fresh.tilings)
    stats = "".join(render_stats(stats))
    assert "# skipped untileable trees: 1" in stats
    written = (tmp_path / "out" / "reduction_stats.tsv").read_text()
    assert written.split("\n", 1)[1] == stats


@pytest.mark.parametrize("host_frozen", [False, True], ids=["none", "host"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_leaves_the_collector_as_it_found_it(
    monkeypatch, enabled, host_frozen
):
    cfg = toy_config(test_path=None, threshold=1.0)

    def failing(*args):
        raise RuntimeError("failed")

    was = gc.isenabled()
    assert gc.get_freeze_count() == 0
    if host_frozen:
        host = [[k] for k in range(1000)]  # objects the caller froze
        gc.freeze()
        assert gc.get_freeze_count() >= len(host)
    entry = gc.get_freeze_count()
    gc.enable() if enabled else gc.disable()
    try:
        run_pipeline(cfg)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, entry)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "index_treebank", failing)
            with pytest.raises(RuntimeError):
                run_pipeline(cfg)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, entry)
        # and when the loader's fold raises
        with monkeypatch.context() as patch:
            patch.setattr(grammar, "Internal", failing)
            with pytest.raises(RuntimeError):
                run_pipeline(cfg)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, entry)
    finally:
        gc.enable() if was else gc.disable()
        gc.unfreeze()
