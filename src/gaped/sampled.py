"""Row-sampled warm-up tester.

Samples grid rows at rate ~ c_s * ln(n) / t, keeps the band of 2t+1
diagonals at each sampled row, and thresholds the source-to-sink shortest
path at t.  Jumping from one sampled row to the next on the same diagonal
costs only the single character indicator at the departure row; that makes
the path cost a lower bound on any alignment routed through the sampled
rows, so answers of close are never wrong for inputs within the gap.

Queries are asymmetric by design: x is read once per sampled row, while y
reads fan out across the band, so only x enjoys the sublinear bound here.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

from .qstring import as_queried, bytes_match, ledger_snapshot
from .verdict import Answer, Verdict

_INF = 1 << 28


def check_parameters(t, c_s) -> None:
    """Reject a t that is not an integer >= 1 and a c_s that is not > 0.

    Python and numpy integers pass, floats such as 2.5 do not.  The test
    is `not c_s > 0` so that NaN, which min(1, nan) would turn into rate 1,
    is rejected too.
    """
    if not isinstance(t, numbers.Integral) or t < 1:
        raise ValueError(f"t must be an integer of at least 1, got {t!r}")
    if not c_s > 0:
        raise ValueError(f"sampling constant must be positive, got {c_s!r}")


def _one() -> int:
    return 1


def gap_sampler(rate: float, rng) -> Callable[[], int]:
    """A zero-argument draw of geometric_gap(rate, rng), set up once.

    log(1 - rate) and rng.random are bound when the sampler is built, so
    each draw is one rng call and one log.  Draws equal geometric_gap's
    draw for draw and leave rng in the same state.  rate >= 1 gives a
    draw that returns 1 without consuming randomness; a rate too small to
    move 1 - rate off 1.0 (rate <= 0 and NaN included) is a ValueError
    here, before any draw.
    """
    if rate >= 1.0:
        return _one
    if not 1.0 - rate < 1.0:  # rate <= 0, NaN, or so small that log(1 - rate) is 0
        raise ValueError(f"sampling rate {rate!r} must be positive with 1 - rate < 1")
    log = math.log
    log_q = log(1.0 - rate)
    random = rng.random

    def draw() -> int:
        return 1 + int(log(1.0 - random()) / log_q)

    return draw


def geometric_gap(rate: float, rng) -> int:
    """Distance to the next kept row when each row is kept w.p. rate.

    Returns k with probability rate * (1-rate)^(k-1), k >= 1; rate >= 1
    returns 1 without consuming randomness, and a rate too small to move
    1 - rate off 1.0 (rate <= 0 and NaN included) is a ValueError.  The
    one-shot form of gap_sampler, for callers that draw once per setting.
    """
    return gap_sampler(rate, rng)()


def sampling_rate(n: int, t: int, c_s: float, epsilon: float = 0.0) -> float:
    """Row sampling rate min(1, c_s*ln(n)/t^(1-epsilon)); 1 when n <= 0.

    epsilon = 0 is the warm-up tester's rate; the main tester raises the
    exponent to trade queries for gap.
    """
    if n <= 0:
        return 1.0
    return min(1.0, c_s * math.log(max(n, 2)) / (t ** (1.0 - epsilon)))


def sample_rows(n: int, t: int, c_s: float, rng) -> list[int]:
    """Sorted sample: row 0 plus each row in [1..n] kept w.p. c_s*ln(n)/t.

    Generated by geometric gap-skipping, so the cost is proportional to
    the sample size rather than n.
    """
    check_parameters(t, c_s)
    draw = gap_sampler(sampling_rate(n, t, c_s), rng)
    rows = [0]
    r = 0
    while True:
        r += draw()
        if r > n:
            return rows
        rows.append(r)


@dataclass(frozen=True)
class SampledGrid:
    """Sampled row set plus band radius; n is the row dimension (|x|)."""

    rows: tuple[int, ...]
    t: int
    n: int

    def __post_init__(self):
        if not self.rows or self.rows[0] != 0:
            raise ValueError("row 0 must head the sample")
        if any(b <= a for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError("rows must be strictly increasing")
        if self.rows[-1] > self.n:
            raise ValueError("rows must not pass the final row")


def shortest_path_cost(grid: SampledGrid, x, y) -> int:
    """Min-cost path from (0, diagonal 0) to the sink past the last row.

    Per sampled row, in diagonal order: an insertion edge to the next
    diagonal in the same row costs 1, staying on the diagonal to the next
    sampled row costs the mismatch indicator of the departure row's
    characters, and stepping down a diagonal to the next sampled row costs
    1.  From the last sampled row the sink charges the diagonal distance
    to the finishing diagonal.  Insertion edges are skipped on the last
    row; the sink edges subsume them.

    Once every cell of a row costs more than t the final cost must too
    (edge weights are nonnegative), so the scan stops there and returns
    that row's minimum.  Values at most t are always exact; values above
    t are certified lower bounds only.
    """
    x, y = as_queried(x), as_queried(y)
    if grid.n != len(x):
        raise ValueError("grid was built for a different row count")
    t = grid.t
    width = 2 * t + 1
    d_end = len(y) - len(x)
    dist = [_INF] * width
    dist[t] = 0
    rows = grid.rows
    for idx, r in enumerate(rows):
        if idx == len(rows) - 1:
            break
        for k in range(1, width):
            if dist[k - 1] + 1 < dist[k]:
                dist[k] = dist[k - 1] + 1
        nxt = [_INF] * width
        xc = x.read(r)
        for k in range(width):
            dv = dist[k]
            if dv >= _INF:
                continue
            w = 0 if bytes_match(xc, y.read(r + k - t)) else 1
            if dv + w < nxt[k]:
                nxt[k] = dv + w
            if k > 0 and dv + 1 < nxt[k - 1]:
                nxt[k - 1] = dv + 1
        dist = nxt
        floor = min(dist)
        if floor > t:
            return floor
    return min(dv + abs(k - t - d_end) for k, dv in enumerate(dist) if dv < _INF)


def run_sampled_tester(x, y, t: int, c_s: float, rng) -> Verdict:
    """Close iff the sampled-grid shortest path costs at most t.

    Close is reliable whenever the true distance is within t; far is
    correct with constant probability once the true distance passes order
    t^2 (the sampled rows then catch enough forced mismatches).
    """
    check_parameters(t, c_s)
    x, y = as_queried(x), as_queried(y)
    if abs(len(y) - len(x)) > t:
        return Verdict(Answer.FAR, t + 1, ledger_snapshot(x, y), 0)
    n = len(x)
    grid = SampledGrid(rows=tuple(sample_rows(n, t, c_s, rng)), t=t, n=n)
    cost = shortest_path_cost(grid, x, y)
    answer = Answer.CLOSE if cost <= t else Answer.FAR
    return Verdict(answer, min(cost, t + 1), ledger_snapshot(x, y), 0)
