"""Shared test helpers.

ref_edit_distance is a deliberately plain O(nm) implementation kept
independent of the package's diagonal-transition oracle; the oracle tests
check one against the other, and everything downstream trusts the oracle.
ref_cost_table is the vectorized full DP over the whole grid, for pairs
too long for the plain loop, and ref_optimal_alignment is its traceback
with a fixed tie-break.  ref_banded_costs and ref_potent_sets are the
pure-Python references for the banded grid the selective scan walks.
ref_sampling_round is the main tester's row-by-row sampled-row check,
the reference for its block check, and ref_fail_row its failed-row
charge with the transition window and the probes walked row by row;
ref_probe_diagonal is that row-by-row probe walk, the reference for the
block probe, and ref_shortest_path_cost
is the warm-up tester's band scan over the sampled rows, the reference
for its diagonal transition.  ref_gap is the geometric gap draw written
out, the reference for every gap the sampler gives.
"""

from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import strategies as st

import gaped.scan
from gaped.alignment import DIAG_DOWN, DIAG_UP, SUBSTITUTION, SuccinctAlignment
from gaped.periodicity import find_period_transition, row_deviates
from gaped.qstring import as_queried, bytes_match
from gaped.scan import CostArray, advance_row

INF = 1 << 28  # cost of a missing cell in the banded reference tables


def ref_edit_distance(x: bytes, y: bytes) -> int:
    prev = list(range(len(y) + 1))
    for i, cx in enumerate(x, 1):
        cur = [i]
        for j, cy in enumerate(y, 1):
            cur.append(min(
                prev[j - 1] + (cx != cy),
                prev[j] + 1,
                cur[j - 1] + 1,
            ))
        prev = cur
    return prev[len(y)]


def ref_cost_table(x, y) -> np.ndarray:
    """The whole (|x|+1) x (|y|+1) DP matrix, read through as_queried.

    Row update: substitutions and deletions vectorize directly; the
    within-row insertion chain is min(tmp[k] + (j - k)) over k <= j, which
    is a running minimum of tmp[k] - k.
    """
    bx, by = as_queried(x).read_all(), as_queried(y).read_all()
    xa, ya = np.frombuffer(bx, dtype=np.uint8), np.frombuffer(by, dtype=np.uint8)
    idx = np.arange(len(by) + 1, dtype=np.int32)
    m = np.empty((len(bx) + 1, len(by) + 1), dtype=np.int32)
    m[0] = idx
    tmp = np.empty(len(by) + 1, dtype=np.int32)
    for i in range(1, len(bx) + 1):
        tmp[0] = i
        np.minimum(m[i - 1, :-1] + (ya != xa[i - 1]), m[i - 1, 1:] + 1, out=tmp[1:])
        m[i] = np.minimum.accumulate(tmp - idx) + idx
    return m


def ref_optimal_alignment(x, y) -> SuccinctAlignment:
    """An optimal alignment as a certificate; ties prefer match/substitute,
    then delete, then insert.

    The traceback walks back from (|x|, |y|) and opens each segment at its
    last row.  Deleting x[i - 1] steps down from diagonal d + 1 to d and
    skips row i - 1, so the segment on d starts at row i; inserting
    y[j - 1] steps up from d - 1 to d within row i.
    """
    bx, by = as_queried(x).read_all(), as_queried(y).read_all()
    m = ref_cost_table(bx, by)
    segments: list[tuple[int, int, int]] = []
    events: list[tuple[int, int, str]] = []
    i, j = len(bx), len(by)
    hi = i  # last row of the open segment
    while i > 0 or j > 0:
        d = j - i
        if i > 0 and j > 0:
            same = bx[i - 1] == by[j - 1]
            if m[i][j] == m[i - 1][j - 1] + (0 if same else 1):
                if not same:
                    events.append((i - 1, d, SUBSTITUTION))
                i -= 1
                j -= 1
                continue
        segments.append((i, hi, d))
        if i > 0 and m[i][j] == m[i - 1][j] + 1:
            events.append((i - 1, d, DIAG_DOWN))
            i -= 1
        else:
            events.append((i, d, DIAG_UP))
            j -= 1
        hi = i
    segments.append((0, hi, 0))
    segments.reverse()
    events.reverse()
    return SuccinctAlignment(segments=tuple(segments), events=tuple(events))


def mutate(rng: random.Random, x: bytes, k: int, alpha: bytes = b"abcd") -> bytes:
    """k mixed random edits applied to x; distance to x is at most k."""
    y = bytearray(x)
    for _ in range(k):
        op = rng.randrange(3)
        if not y:
            op = 1
        if op == 0:
            pos = rng.randrange(len(y))
            y[pos] = rng.choice([c for c in alpha if c != y[pos]])
        elif op == 1:
            y.insert(rng.randrange(len(y) + 1), rng.choice(alpha))
        else:
            del y[rng.randrange(len(y))]
    return bytes(y)


def random_bytes(rng: random.Random, n: int, alpha: bytes = b"abcd") -> bytes:
    return bytes(rng.choices(alpha, k=n))


@st.composite
def periodic_pairs(draw, max_g=3, max_sigma=3, max_edits=8):
    """A g-periodic x over sigma letters, y = x after a few edits, maybe swapped."""
    letters = b"abcd"[:max_sigma]
    g = draw(st.integers(min_value=1, max_value=max_g))
    sigma = draw(st.integers(min_value=1, max_value=max_sigma))
    base = draw(st.lists(st.sampled_from(letters[:sigma]), min_size=g, max_size=g))
    n = draw(st.integers(min_value=0, max_value=600))
    x = bytes(base) * (n // g) + bytes(base[: n % g])
    rng = random.Random(draw(st.integers(min_value=0, max_value=1 << 30)))
    y = mutate(rng, x, draw(st.integers(min_value=0, max_value=max_edits)), letters)
    return (y, x) if draw(st.booleans()) else (x, y)


class _Unpruned(CostArray):
    """Counters whose cost() lies below every threshold advance_row prunes at.

    advance_row reads cost() only to skip a diagonal whose counter exceeds
    t - |d - d_end|, which is at least -t inside the band; the potency rule
    reads the true counters from the lists directly.
    """

    __slots__ = ()

    def cost(self, d: int) -> int:
        return -self.t - 1


def traced_scan(x, y, t):
    """The unpruned scan observed row by row: (cost, rows, snapshots).

    Drives scan.advance_row on counters it never prunes: only the unpruned
    scan keeps the active sets equal to the true potent sets on far inputs.
    rows holds (i, diagonals kept as potent at row i); snapshots holds
    (i, d, counters indexed -t..t once diagonal d of row i is processed).
    A diagonal is processed when the next potency test starts or the row
    returns, so gaped.scan.is_potent is wrapped to take each snapshot then.
    cost is the finishing diagonal's counter, or None past t.
    """
    x, y = as_queried(x), as_queried(y)
    d_end = len(y) - len(x)
    rows, snapshots = [], []
    if abs(d_end) > t:
        return None, rows, snapshots
    costs = _Unpruned(t)
    pending = []

    def take_snapshot():
        if pending:
            i, d = pending.pop()
            snapshots.append((i, d, tuple(costs.a)))

    is_potent = gaped.scan.is_potent

    def observed(c, i, d, qx, qy):
        take_snapshot()
        pending.append((i, d))
        return is_potent(c, i, d, qx, qy)

    gaped.scan.is_potent = observed
    try:
        active = [0]
        for i in range(len(x)):
            active, _ = advance_row(costs, active, i, x, y, d_end)
            take_snapshot()
            rows.append((i, tuple(d for d in active if costs.potent_row[d + t] == i)))
            if not active:
                break
    finally:
        gaped.scan.is_potent = is_potent
    cost = costs.a[d_end + t]
    return (cost if cost <= t else None), rows, snapshots


class Boom:
    """An RNG stand-in for code that must not draw: any draw fails the test."""

    def random(self, size=None):
        raise AssertionError("rate 1 must not consume randomness")


def ref_gap(rate: float, rng) -> int:
    """One gap when each row is kept w.p. rate, drawn by inverse transform.

    1 + int(log(1 - u) / log(1 - rate)) for one u = rng.random(); rate >= 1
    returns 1 without touching rng.
    """
    if rate >= 1.0:
        return 1
    return 1 + int(math.log(1.0 - rng.random()) / math.log(1.0 - rate))


def ref_banded_costs(x: bytes, y: bytes, t: int) -> list[list[int]]:
    """Costs of the band-restricted grid the selective scan walks.

    Rows 0..|x|, diagonals -t..t in column d + t; cells with i + d < 0 do
    not exist and hold INF.  Positions past |y| hold fresh symbols that
    mismatch everything, and paths may not leave the band.  Independent of
    the scan's counters, so tests check those against this table.
    """
    ypad = list(y) + [-(k + 1) for k in range(len(x) + t)]
    width = 2 * t + 1
    rows = [[INF] * width for _ in range(len(x) + 1)]
    for k in range(t, width):
        rows[0][k] = k - t
    for i in range(1, len(x) + 1):
        prev, cur = rows[i - 1], rows[i]
        for k in range(width):
            d = k - t
            if i + d < 0:
                continue
            best = INF
            if prev[k] < INF:
                best = prev[k] + (0 if x[i - 1] == ypad[i - 1 + d] else 1)
            if k + 1 < width and prev[k + 1] < INF:
                best = min(best, prev[k + 1] + 1)
            if k >= 1 and cur[k - 1] < INF:
                best = min(best, cur[k - 1] + 1)
            cur[k] = best
    return rows


def ref_potent_sets(x: bytes, y: bytes, t: int) -> list[set[int]]:
    """Potent diagonals of every row, by direct evaluation of the definition.

    A cell (i, d) of cost h is dominated by its same-row left neighbor
    (i, d-1) when that neighbor costs h - 1, and by its upper-right neighbor
    (i-1, d+1) under the same condition; missing neighbors never dominate.
    The cell is potent unless some dominating neighbor fails its
    requirement: a left dominator must itself be potent at row i and have a
    mismatch at row i + 1 (bytes x[i], y[i+d-1]); an upper-right dominator
    must be potent at row i - 1 and have a mismatch at row i (bytes x[i-1],
    y[i+d]).  An undominated cell is potent outright.
    """

    def mismatch(r, d):
        # a read past either end mismatches everything
        return not (0 <= r < len(x) and 0 <= r + d < len(y)) or x[r] != y[r + d]

    costs = ref_banded_costs(x, y, t)
    width = 2 * t + 1
    table: list[set[int]] = []
    prev_potent: set[int] = set()
    for i, row in enumerate(costs):
        potent: set[int] = set()
        for k, h in enumerate(row):
            if h >= INF:  # missing cells, i + d < 0 included, never dominate
                continue
            d = k - t
            ok = True
            if k >= 1 and row[k - 1] == h - 1:
                ok = d - 1 in potent and mismatch(i, d - 1)
            if ok and i > 0 and k + 1 < width and costs[i - 1][k + 1] == h - 1:
                ok = d + 1 in prev_potent and mismatch(i - 1, d + 1)
            if ok:
                potent.add(d)
        table.append(potent)
        prev_potent = potent
    return table


def ref_probe_diagonal(x, y, d: int, lo: int, hi: int, draw_gap) -> bool:
    """gaped.periodicity.probe_diagonal walking one kept row at a time.

    The first row is lo - 1 + draw_gap(), each further draw adds a gap
    while the row is at most hi, and the draw that passes hi is made.
    A row with both reads in range reads x, then y; True on the first
    mismatch, which draws no further.
    """
    first, last = max(0, -d), min(len(x), len(y) - d) - 1
    j = lo - 1 + draw_gap()
    while j <= hi:
        if first <= j <= last and x.read(j) != y.read(j + d):
            return True
        j += draw_gap()
    return False


def ref_sampling_round(state, x, y, queued) -> int:
    """gaped.tester.sampling_round checking one row per call.

    queued is ignored: each call checks one row and returns 0, the rows
    left, setting state.block_failed if the row failed.  Each row reads x,
    then y unless x already broke the period pattern, and each passing row
    draws its gap from state.draw_gap on the spot; a failed row stays at
    state.i for run to hand to _fail_row (ref_fail_row).
    """
    period = state.period
    rs = state.i
    state.stats.sampled_rows += 1
    if period is None:
        passed = bytes_match(x.read(rs), y.read(rs + state.diagonals[0]))
    else:
        passed = not row_deviates(x, y, period, rs)
    state.block_failed = not passed
    if passed:
        state.i = rs + state.draw_gap()
    return 0


def ref_fail_row(state, x, y) -> None:
    """gaped.tester._fail_row with the transition window and the probes
    walking their rows one at a time (ref_probe_diagonal)."""
    rs = state.i
    period = state.period
    stats = state.stats
    costs = state.costs
    t = costs.t
    diags = state.diagonals
    if period is None:
        charged = {diags[0]}
    else:
        stats.search_rows.append(rs)
        j = find_period_transition(x, y, period, rs)
        lo, hi = j + 1, j + 1 + period.m
        charged = {d for d in diags if ref_probe_diagonal(x, y, d, lo, hi, lambda: 1)}
        uncharged = [d for d in diags if d not in charged]
        for d in uncharged:
            if ref_probe_diagonal(x, y, d, period.i_pat, rs, state.draw_probe_gap):
                charged.add(d)
    live = set(diags)
    for d in diags:
        costs.mark_potent(d, rs)
    for d in sorted(charged):
        costs.charge(d, rs)
        stats.events.append((rs, d, SUBSTITUTION))
        live.update(dd for dd in (d - 1, d + 1) if -t <= dd <= t)
    state.diagonals = sorted(live)
    state.quiet_rows = 0
    state.i = rs + 1


def ref_shortest_path_cost(grid, x, y) -> int:
    """gaped.sampled.shortest_path_cost as a scan over rows x (2t + 1) diagonals.

    Each row relaxes its insertion edges, then reads x at the row and y on
    every reached diagonal to step to the next sampled row.  The scan stops
    once every cell of a row costs more than t and returns that row's
    minimum, so values above t are lower bounds only; compare them capped
    at t + 1.  Insertion edges are skipped on the last row; the sink edges
    subsume them.
    """
    x, y = as_queried(x), as_queried(y)
    t = grid.t
    width = 2 * t + 1
    d_end = len(y) - len(x)
    dist = [INF] * width
    dist[t] = 0
    rows = grid.rows
    for r in rows[:-1]:
        for k in range(1, width):
            if dist[k - 1] + 1 < dist[k]:
                dist[k] = dist[k - 1] + 1
        nxt = [INF] * width
        xc = x.read(r)
        for k in range(width):
            dv = dist[k]
            if dv >= INF:
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
    return min(dv + abs(k - t - d_end) for k, dv in enumerate(dist) if dv < INF)
