"""Search for an entropy threshold meeting a coverage target.

Coverage falls as the threshold rises (higher thresholds cut less, so
chunks are bigger and more specific), which makes plain interval
bisection sound.  With neighbor restrictions the profile is no longer
monotone, only peaked, so a coarse grid locates the peak first and
bisection then sharpens the decreasing flank.

Both searches probe a single callable from threshold to its cut set and
coverage, so they are independent of how probes are produced and need
no rules.  Every call counts as one search step, whether or not the
callable served it from a cache.
"""

from dataclasses import dataclass
from typing import Callable

from treecut.cutnodes import CutnodeSet


@dataclass
class ThresholdProbe:
    """Outcome of evaluating one threshold."""

    cutnodes: CutnodeSet
    coverage: float


Evaluator = Callable[[float], ThresholdProbe]


# Probes either search makes at most, its grid scan included.
MAX_STEPS = 200


@dataclass
class ThresholdResult:
    """The threshold found and the probe made at it."""

    threshold: float
    probe: ThresholdProbe
    attainable: bool
    bracket_high: float | None = None
    coverage_at_high: float | None = None
    steps: int = 0


def bisect(
    c0: float, evaluate: Evaluator, s_high: float, delta_s: float
) -> ThresholdResult:
    """Highest threshold up to s_high with coverage >= c0, to within delta_s.

    Assumes coverage is non-increasing in the threshold.  When even
    threshold 0 misses the target the result carries attainable = False
    and the threshold-0 outcome.
    """
    low = evaluate(0.0)
    if low.coverage < c0:
        return ThresholdResult(0.0, low, False, steps=1)
    high = evaluate(s_high)
    s_low, best = (s_high, high) if high.coverage >= c0 else (0.0, low)
    return _narrow(c0, evaluate, delta_s, s_low, best, s_high, high.coverage, 2)


def search_unimodal(
    c0: float, evaluate: Evaluator, s_high: float, delta_s: float
) -> ThresholdResult:
    """Grid scan for the coverage peak, then bisect its falling flank.

    The grid step is 16 * delta_s over [0, s_high].  A grid that would
    leave bisection fewer than the 5 probes that narrow one step below
    delta_s is cut to MAX_STEPS // 2 even steps instead, leaving
    bisection the rest of the probes.  When the peak itself misses the
    target the result is the peak, unattainable.
    """
    grid = _grid(s_high, delta_s * 16)
    if len(grid) > MAX_STEPS - 5:
        grid = _grid(s_high, s_high / (MAX_STEPS // 2))[:MAX_STEPS]
    probes = [evaluate(t) for t in grid]
    steps = len(grid)
    peak = max(range(len(grid)), key=lambda i: (probes[i].coverage, -i))
    if probes[peak].coverage < c0:
        return ThresholdResult(grid[peak], probes[peak], False, steps=steps)
    last_ok = peak
    while last_ok + 1 < len(grid) and probes[last_ok + 1].coverage >= c0:
        last_ok += 1
    miss = min(last_ok + 1, len(grid) - 1)  # the last point if none misses
    return _narrow(
        c0, evaluate, delta_s, grid[last_ok], probes[last_ok],
        grid[miss], probes[miss].coverage, steps,
    )


def _grid(s_high: float, step: float) -> list[float]:
    """0, step, 2 * step, ... while below s_high, then s_high itself.

    The scan stops past MAX_STEPS points, so a step too small to reach
    s_high (or to grow the sum at all) still ends.
    """
    grid = [0.0]
    while grid[-1] + step < s_high and len(grid) <= MAX_STEPS:
        grid.append(grid[-1] + step)
    if grid[-1] < s_high:
        grid.append(s_high)
    return grid


def _narrow(c0, evaluate, delta_s, s_low, best, s_high, cov_high, steps):
    """Halve [s_low, s_high] until it is narrower than delta_s.

    *best* is the probe at s_low, which meets *c0*; s_high misses it
    with *cov_high*, unless the bracket has width 0 and is narrow
    already.  *steps* probes were made before; the search stops at
    MAX_STEPS.
    """
    while s_high - s_low >= delta_s and steps < MAX_STEPS:
        mid = (s_low + s_high) / 2
        probe = evaluate(mid)
        steps += 1
        if probe.coverage < c0:
            s_high = mid
            cov_high = probe.coverage
        else:
            s_low = mid
            best = probe
    return ThresholdResult(s_low, best, True, s_high, cov_high, steps)
