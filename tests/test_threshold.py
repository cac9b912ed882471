import pytest

from treecut.pipeline import PipelineConfig, SearchContext, partition_key
from treecut.threshold import MAX_STEPS, ThresholdProbe, bisect, search_unimodal


def profile(fn):
    """Evaluator over a synthetic coverage curve, tagging each probe."""
    calls = []

    def evaluate(t):
        calls.append(t)
        return ThresholdProbe(cutnodes=f"cut@{t}", coverage=fn(t))

    evaluate.calls = calls
    return evaluate


def test_bisect_finds_step_boundary():
    evaluate = profile(lambda t: 1.0 if t < 1.08 else 0.0)
    result = bisect(1.0, evaluate, 2.76, 0.01)
    assert result.attainable
    assert 1.08 - 0.01 <= result.threshold < 1.08
    assert result.probe.coverage == 1.0
    assert result.probe.cutnodes == f"cut@{result.threshold}"
    assert result.bracket_high >= 1.08
    assert result.coverage_at_high == 0.0
    assert result.bracket_high - result.threshold < 0.01


def test_bisect_zero_target_returns_initial_high():
    evaluate = profile(lambda t: 0.0)
    result = bisect(0.0, evaluate, 2.76, 0.01)
    assert result.attainable
    assert result.threshold == 2.76
    assert evaluate.calls == [0.0, 2.76]


def test_bisect_unattainable_reports_threshold_zero():
    evaluate = profile(lambda t: 0.4)
    result = bisect(0.95, evaluate, 2.0, 0.01)
    assert not result.attainable
    assert result.threshold == 0.0
    assert result.probe.coverage == 0.4
    assert evaluate.calls == [0.0]
    assert result.steps == 1


def test_bisect_probe_count_is_logarithmic():
    evaluate = profile(lambda t: 1.0 if t < 0.37 else 0.0)
    result = bisect(1.0, evaluate, 2.56, 0.01)
    # 2 endpoint probes plus at most ceil(log2(2.56 / 0.01)) midpoints.
    assert result.steps <= 2 + 9
    assert abs(result.threshold - 0.37) <= 0.01


def test_unimodal_bisects_falling_flank():
    evaluate = profile(lambda t: 1.0 - abs(t - 0.5))
    result = search_unimodal(0.8, evaluate, 1.0, 0.01)
    assert result.attainable
    assert abs(result.threshold - 0.7) <= 0.01
    assert result.probe.coverage >= 0.8
    assert result.coverage_at_high < 0.8


def test_unimodal_peak_below_target_is_unattainable():
    evaluate = profile(lambda t: 0.9 - abs(t - 0.5))
    result = search_unimodal(0.95, evaluate, 1.0, 0.01)
    assert not result.attainable
    # the best grid point: the grid steps by 16 * delta_s from 0
    assert result.threshold == pytest.approx(0.48)
    assert result.probe.coverage == pytest.approx(0.88)


def test_unimodal_constant_pass_returns_last_grid_point():
    evaluate = profile(lambda t: 1.0)
    result = search_unimodal(1.0, evaluate, 1.0, 0.01)
    assert result.attainable
    assert result.threshold == 1.0
    assert result.coverage_at_high == 1.0


def full_grid(s_high, delta_s):
    """Every point of the grid at step 16 * delta_s, however many."""
    grid = [0.0]
    while grid[-1] + 16 * delta_s < s_high:
        grid.append(grid[-1] + 16 * delta_s)
    if grid[-1] < s_high:
        grid.append(s_high)
    return grid


def test_unimodal_grid_of_at_most_max_steps_points_is_scanned_whole():
    # A grid is scanned whole when it leaves bisection the 5 probes that
    # narrow one grid step, 16 * delta_s, below delta_s.  Steps near
    # 1/194 give grids just inside and outside that cut-off, and steps
    # near 1/199 grids of MAX_STEPS points and more.
    sizes = set()
    near = (193, 193.5, 194.5, 199, 199.5, 200.5)
    for delta_s in (0.01, 0.003, *(1 / (16 * k) for k in near)):
        grid = full_grid(1.0, delta_s)
        sizes.add(len(grid))
        evaluate = profile(lambda t: 1.0 - abs(t - 0.5))
        result = search_unimodal(0.8, evaluate, 1.0, delta_s)
        if len(grid) <= MAX_STEPS - 5:
            assert evaluate.calls[: len(grid)] == grid, delta_s
        else:
            assert len(evaluate.calls) <= MAX_STEPS, delta_s
            assert evaluate.calls[:2] == [0.0, 1.0 / (MAX_STEPS // 2)], delta_s
        assert result.steps == len(evaluate.calls) <= MAX_STEPS
        assert result.threshold <= 0.7 < result.bracket_high
        assert result.bracket_high - result.threshold < delta_s, delta_s
    assert {MAX_STEPS - 5, MAX_STEPS - 4, MAX_STEPS, MAX_STEPS + 1} <= sizes


@pytest.mark.parametrize("delta_s", [1e-5, 1e-300])
def test_unimodal_search_on_a_fine_grid_keeps_to_max_steps(delta_s):
    # at 1e-5 the grid would have 17,251 points; at 1e-300 adding a
    # step soon stops growing the sum, so an uncapped scan never ends
    evaluate = profile(lambda t: 1.0 - abs(t - 0.5))
    result = search_unimodal(0.8, evaluate, 2.76, delta_s)
    assert result.steps == len(evaluate.calls) <= MAX_STEPS
    assert result.attainable
    assert result.threshold <= 0.7 < result.bracket_high
    assert abs(result.threshold - 0.7) <= max(delta_s, 1e-12)


def test_toy_bisection_stops_under_first_boundary(
    treebank, aot, table, mixed_scores
):
    cfg = PipelineConfig(grammar_path="", train_path="")
    context = SearchContext(treebank, aot, table, cfg, mixed_scores)
    evaluate = context.probe
    result = bisect(1.0, evaluate, 2.76, 0.01)
    assert result.attainable
    assert result.threshold < 1.08
    assert result.probe.coverage == 1.0
    # Re-verify both bracket ends independently.
    assert evaluate(result.threshold).coverage == 1.0
    assert evaluate(1.08).coverage < 1.0
    chunks, _ = context.memo[partition_key(result.probe.cutnodes)]
    assert len(chunks) == 5
