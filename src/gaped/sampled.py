"""Row-sampled warm-up tester, and the gap streams every sampled row is drawn from.

Samples grid rows at rate ~ c_s * ln(n) / t, keeps the band of 2t+1
diagonals at each sampled row, and thresholds the source-to-sink shortest
path at t.  Jumping from one sampled row to the next on the same diagonal
costs only the single character indicator at the departure row; that makes
the path cost a lower bound on any alignment routed through the sampled
rows, so answers of close are never wrong for inputs within the gap.

The path is priced by diagonal transition; a cost above t is returned as
t + 1.  The ledger is the band scan's: x is read once per sampled row,
while y reads fan out across the band, so only x enjoys the sublinear
bound here.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import random
import sys
from dataclasses import dataclass

import numpy as np

from .qstring import as_queried, ledger_snapshot
from .verdict import Answer, Verdict


def check_parameters(t, c_s) -> None:
    """Reject a t that is not an integer in [1, max float] and a c_s not > 0.

    Python and numpy integers pass, floats such as 2.5 do not, and a larger
    t would overflow t ** (1 - epsilon).  The test is `not c_s > 0` so that
    NaN, which min(1, nan) would turn into rate 1, is rejected too.
    """
    if not isinstance(t, numbers.Integral) or not 1 <= t <= sys.float_info.max:
        raise ValueError(f"t must be an integer from 1 to {sys.float_info.max:.6g}, got {t!r}")
    if not c_s > 0:
        raise ValueError(f"sampling constant must be positive, got {c_s!r}")


BLOCK = 4096  # most gaps one block shows ahead
# Every stream's first buffer, shared: peek replaces it before showing a
# gap, and int64 keeps the first concatenate int64.
_NO_GAPS = np.empty(0, dtype=np.int64)


@functools.cache
def _unseeded():
    """A seed of zero words, which MT19937 copies without hashing; built at the
    first twin, so runs that never draw below rate 1 never import numpy.random."""
    class Unseeded(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)
    return Unseeded()


def numpy_twin(rng: random.Random) -> np.random.Generator:
    """A numpy Generator whose random() calls continue rng's bit for bit.

    rng.getstate() holds CPython's 624 Mersenne Twister words and its
    index into them, which numpy's MT19937 keeps as key and pos, and
    numpy's next_double is random()'s ((w1 >> 5) * 2**26 + (w2 >> 6)) *
    2**-53 on the same words.  The key goes in as getstate()'s list,
    which the state setter copies faster than an array.  rng itself is
    left where it was.
    """
    words = rng.getstate()[1]
    bits = np.random.MT19937(_unseeded())
    bits.state = {"bit_generator": "MT19937", "state": {"key": list(words[:-1]), "pos": words[-1]}}
    return np.random.Generator(bits)


class GapStream:
    """Geometric gaps at one rate, drawn one at a time or shown in numpy blocks.

    Each row is kept with probability rate, so a gap is k >= 1 with
    probability rate * (1 - rate)^(k - 1), drawn by inverse transform as
    1 + int(log(1 - u) / log(1 - rate)) from one uniform u = rng.random()
    (Devroye 1986).  rate >= 1 gives gaps of 1 and never touches rng,
    which may then be None; a rate too small to move 1 - rate off 1.0
    (rate <= 0 and NaN included) is a ValueError here, before any draw.

    Calling the stream takes the next gap; peek(k) shows the next k gaps
    as an int64 array without taking them, skip(k) takes k of them, and
    rows(r, stop) shows the rows they reach from r a block at a time.
    The gaps are the same draw for draw whichever way they are taken.  A
    stream that is only called makes one random() call per gap; peek
    draws ahead, so use it only on an rng that nothing else draws from.

    A stream on a plain random.Random replaces it by numpy_twin(rng) at
    its first peek that draws, and takes every later uniform, peeked or
    called, from the twin; rng is not advanced from then on.  Any other
    rng must offer numpy's random(size).  np.log may differ from
    math.log in the last ulp, which moves a truncated quotient only next
    to an integer, so those within 1e-9 (relative) of one are taken again.
    """

    def __init__(self, rate: float, rng):
        if rate >= 1.0:
            self._log_q = None  # every row is kept
        elif not 1.0 - rate < 1.0:  # rate <= 0, NaN, or so small that log(1 - rate) is 0
            raise ValueError(f"sampling rate {rate!r} must be positive with 1 - rate < 1")
        else:
            self._log_q = math.log(1.0 - rate)
        self._rng = rng  # replaced by its numpy twin at the first peek that draws
        self._gaps = _NO_GAPS
        self._at = 0

    def __call__(self) -> int:
        if self._at < len(self._gaps):
            self._at += 1
            return int(self._gaps[self._at - 1])
        if self._log_q is None:
            return 1
        return 1 + int(math.log(1.0 - self._rng.random()) / self._log_q)

    def peek(self, k: int) -> np.ndarray:
        if len(self._gaps) - self._at < k:
            # k draws, not the shortfall: numpy caches small buffers per size.
            fresh = np.ones(k, dtype=np.int64)
            if self._log_q is not None:
                if type(self._rng) is random.Random:
                    self._rng = numpy_twin(self._rng)
                u = self._rng.random(k)
                q = np.log(1.0 - u) / self._log_q
                fresh += q.astype(np.int64)
                near = np.abs(q - np.rint(q)) <= 1e-9 * np.maximum(q, 1.0)
                fresh[near] = [1 + int(math.log(1.0 - v) / self._log_q) for v in u[near]]
            self._gaps = np.concatenate((self._gaps[self._at:], fresh))
            self._at = 0
        return self._gaps[self._at:self._at + k]

    def skip(self, k: int) -> None:
        self._at += k

    def rows(self, r: int, stop: int) -> np.ndarray:
        """Row r, then the rows the next gaps reach from it, without taking them.

        Shows min(BLOCK, 2^ceil(log2(stop - r))) gaps: gaps are at least
        1, so stop - r of them reach stop, and rounding up to a power of
        two keeps few array sizes in numpy's per-size buffer cache.  A gap
        is cut to stop - r first: its row is at or past stop either way,
        and the running sums stay far from overflow at the smallest rate.
        """
        span = max(stop - r, 1)
        k = min(BLOCK, 1 << (span - 1).bit_length())
        gaps = np.minimum(self.peek(k), span)
        gaps[0] += r
        rows = np.empty(k + 1, dtype=np.int64)
        rows[0] = r
        np.cumsum(gaps, out=rows[1:])
        return rows


def geometric_gap(rate: float, rng) -> int:
    """The first gap of a fresh GapStream(rate, rng), with its rate rules.

    For callers that draw once per setting: the main tester's first
    sampled row.
    """
    return GapStream(rate, rng)()


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

    At rate 1 that is every row, and rng is not touched.  Below it, a
    fresh GapStream is only called, never peeked, so rng gives one
    random() per kept row and one for the draw that passes n; skipping
    geometric gaps keeps the cost proportional to the sample size rather
    than n.
    """
    check_parameters(t, c_s)
    rate = sampling_rate(n, t, c_s)
    if rate >= 1.0:
        return list(range(n + 1))
    draw = GapStream(rate, rng)
    rows, r = [0], draw()
    while r <= n:
        rows.append(r)
        r += draw()
    return rows


@dataclass(frozen=True)
class SampledGrid:
    """Sampled row set (sample_rows: row 0 first, increasing, none past |x|) plus band radius."""

    rows: tuple[int, ...]
    t: int


def shortest_path_cost(grid: SampledGrid, x, y) -> int:
    """Min-cost path from (0, diagonal 0) to the sink past the last row.

    Per sampled row: an insertion edge to the next diagonal in the same
    row costs 1, staying on the diagonal to the next sampled row costs the
    mismatch indicator of the departure row's characters, and stepping
    down a diagonal to the next sampled row costs 1.  From the last sampled
    row the sink charges the distance to the finishing diagonal.  Costs
    above t are returned as t + 1.

    Diagonal transition (Ukkonen 1985; Landau, Myers and Schmidt 1998):
    far[d] is the furthest sampled-row index diagonal d reaches at cost
    <= k, taken as the best of a stay, a step down from d + 1 and an
    insertion from d - 1, then slid while x[rows[r]] == y[rows[r] + d].
    The slide compares uncharged; the ledger is then charged with the band
    scan's reads: x and y on diagonals max(-t, -idx) <= d <= t at each
    sampled row idx before the last and before the first row whose every
    cell costs more than t.
    """
    x, y = as_queried(x), as_queried(y)
    t, rows = grid.t, grid.rows
    last, d_end = len(rows) - 1, len(y) - len(x)
    xs, ys, ny = x.data, y.data, len(y)

    def slide(r: int, d: int) -> int:  # rows[r] >= -d, so y is never read from its end
        while r < last and rows[r] + d < ny and xs[rows[r]] == ys[rows[r] + d]:
            r += 1
        return r

    far, best, k = {0: slide(0, 0)}, t + 1, 0
    while True:
        best = min([best] + [k + abs(d - d_end) for d, r in far.items() if r == last])
        if best <= k + 1:
            break
        k += 1
        # every |d| <= min(t, k) has a reached neighbour; -1 marks the rest
        far = {d: slide(min(last, max(far.get(d, -1) + 1, far.get(d + 1, -1) + 1,
                                      far.get(d - 1, -1))), d)
               for d in range(-min(t, k), min(t, k) + 1)}
    at = np.array(rows[:min(max(far.values()), last - 1) + 1], dtype=np.int64)
    x.charge(at)
    for d in range(-min(t, len(at)), min(t, ny) + 1):
        y.charge(at[max(0, -d):] + d)
    return best


def run_sampled_tester(x, y, t: int, c_s: float, rng) -> Verdict:
    """Close iff the sampled-grid shortest path costs at most t.

    Close is reliable whenever the true distance is within t; far is
    correct with constant probability once the true distance passes order
    t^2 (the sampled rows then catch enough forced mismatches).
    """
    check_parameters(t, c_s)
    t = operator.index(t)
    x, y = as_queried(x), as_queried(y)
    if abs(len(y) - len(x)) > t:
        return Verdict(Answer.FAR, t + 1, ledger_snapshot(x, y), 0)
    grid = SampledGrid(rows=tuple(sample_rows(len(x), t, c_s, rng)), t=t)
    cost = shortest_path_cost(grid, x, y)
    answer = Answer.CLOSE if cost <= t else Answer.FAR
    return Verdict(answer, cost, ledger_snapshot(x, y), 0)
