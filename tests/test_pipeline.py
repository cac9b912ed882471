"""run_pipeline reuses the search's tilings for its coverage and stats."""

import gc

import pytest

from treecut import pipeline
from treecut.coverage import (
    evaluate_coverage,
    reduction_stats,
    render_coverage,
    render_stats,
)
from treecut.pipeline import PipelineConfig, run_pipeline

UNTILEABLE = "(s_np_vp (np_num (lex Nine)) (vp_v (lex left)))\n"


@pytest.fixture
def test_file(tmp_path, toy_dir):
    path = tmp_path / "test.txt"
    path.write_text((toy_dir / "test.txt").read_text() + UNTILEABLE)
    return path


@pytest.mark.parametrize(
    "goal", [{"threshold": 1.0}, {"coverage_target": 0.5}], ids=["fixed", "search"]
)
def test_reports_reuse_the_chosen_tiling(
    toy_dir, test_file, tmp_path, monkeypatch, goal
):
    tiled = []
    evaluate = pipeline.evaluate_coverage
    monkeypatch.setattr(
        pipeline, "evaluate_coverage",
        lambda rules, trees: tiled.extend(trees) or evaluate(rules, trees),
    )
    selected = set()
    select = pipeline.select_by_threshold

    def recording_select(*args, **kwargs):
        cutnodes = select(*args, **kwargs)
        selected.add(pipeline.partition_key(cutnodes))
        return cutnodes

    monkeypatch.setattr(pipeline, "select_by_threshold", recording_select)
    cfg = PipelineConfig(
        grammar_path=str(toy_dir / "grammar.txt"),
        train_path=str(toy_dir / "train.txt"),
        test_path=str(test_file),
        weighted_stats=True,
        out_dir=str(tmp_path / "out"),
        **goal,
    )
    result = run_pipeline(cfg)
    test = result.treebank.test
    # the test set is tiled once per distinct partition, and never again
    assert len(tiled) == len(selected) * len(test)

    fresh = evaluate_coverage(result.rules, test)
    assert result.coverage.verdicts == fresh.verdicts == [True, False]
    assert (tmp_path / "out" / "coverage.tsv").read_text().splitlines()[1:] == (
        "".join(render_coverage(fresh)).splitlines()
    )
    stats = reduction_stats(result.rules, weighted=True, tilings=fresh.tilings)
    stats = "".join(render_stats(stats, "weighted"))
    assert "# skipped untileable trees: 1" in stats
    written = (tmp_path / "out" / "reduction_stats.tsv").read_text()
    assert written.split("\n", 1)[1] == stats


def test_run_freezes_the_treebank_and_thaws_it(toy_dir, monkeypatch):
    cfg = PipelineConfig(
        grammar_path=str(toy_dir / "grammar.txt"),
        train_path=str(toy_dir / "train.txt"),
        threshold=1.0,
    )
    frozen = []
    build = pipeline.build_phrase_table

    def recording_build(*args):
        frozen.append(gc.get_freeze_count())
        return build(*args)

    monkeypatch.setattr(pipeline, "build_phrase_table", recording_build)
    before = gc.get_freeze_count()
    run_pipeline(cfg)
    assert frozen[0] > before
    assert gc.get_freeze_count() == before

    def failing_index(*args):
        raise RuntimeError("index failed")

    monkeypatch.setattr(pipeline, "index_treebank", failing_index)
    with pytest.raises(RuntimeError):
        run_pipeline(cfg)
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("host_frozen", [False, True], ids=["none", "host"])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_loads_with_the_collector_off_and_freezes_before_restoring_it(
    toy_dir, monkeypatch, enabled, host_frozen
):
    cfg = PipelineConfig(
        grammar_path=str(toy_dir / "grammar.txt"),
        train_path=str(toy_dir / "train.txt"),
        threshold=1.0,
    )
    events = []
    load, build, freeze = (
        pipeline.load_treebank, pipeline.build_phrase_table, gc.freeze
    )

    def recording_load(*args):
        events.append(("load", gc.isenabled()))
        return load(*args)

    def recording_freeze():
        events.append(("freeze", gc.isenabled()))
        freeze()

    def recording_build(*args):
        events.append(("build", gc.isenabled()))
        return build(*args)

    monkeypatch.setattr(pipeline, "load_treebank", recording_load)
    monkeypatch.setattr(gc, "freeze", recording_freeze)
    monkeypatch.setattr(pipeline, "build_phrase_table", recording_build)
    was = gc.isenabled()
    assert gc.get_freeze_count() == 0
    if host_frozen:
        host = [[k] for k in range(1000)]  # objects the caller froze
        freeze()
    entry = gc.get_freeze_count()
    gc.enable() if enabled else gc.disable()
    try:
        run_pipeline(cfg)
        # the collector is off while loading and freezing, then as it was
        assert events == [("load", False), ("freeze", False), ("build", enabled)]
        assert gc.isenabled() == enabled
        # the run thaws only when nothing was frozen on entry
        if host_frozen:
            assert entry >= len(host)
            assert gc.get_freeze_count() >= entry
        else:
            assert gc.get_freeze_count() == 0

        events.clear()
        missing = PipelineConfig(
            grammar_path=cfg.grammar_path,
            train_path=str(toy_dir / "missing.txt"),
            threshold=1.0,
        )
        before = gc.get_freeze_count()
        with pytest.raises(pipeline.InputError):
            run_pipeline(missing)
        assert events == [("load", False)]
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == before
    finally:
        gc.enable() if was else gc.disable()
        gc.unfreeze()
