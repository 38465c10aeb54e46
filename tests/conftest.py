"""Shared test helpers.

ref_edit_distance is a deliberately plain O(nm) implementation kept
independent of the package's vectorized oracles; the oracle tests check
one against the other, and everything downstream trusts the oracle.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

import gaped.scan
from gaped.qstring import as_queried
from gaped.scan import CostArray, advance_row


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
    reads the true counters through cost_at_row.
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
            rows.append((i, tuple(d for d in active if costs.was_potent(d, i))))
            if not active:
                break
    finally:
        gaped.scan.is_potent = is_potent
    cost = costs.a[d_end + t]
    return (cost if cost <= t else None), rows, snapshots


class Boom:
    """An RNG stand-in for code that must not draw: any draw fails the test."""

    def random(self):
        raise AssertionError("rate 1 must not consume randomness")


def ref_banded_costs(x: bytes, y: bytes, t: int) -> list[list[int]]:
    """Band-restricted grid costs over y padded with unique sentinels.

    Independent reference for the generalized grid the scan walks: rows
    0..|x|, diagonals -t..t, positions past |y| hold fresh symbols that
    mismatch everything, and paths may not leave the band.  Layout matches
    banded_cost_table (column d + t, missing cells INF).
    """
    inf = 1 << 28
    ypad = list(y) + [-(k + 1) for k in range(len(x) + t)]
    width = 2 * t + 1
    rows = [[inf] * width for _ in range(len(x) + 1)]
    for k in range(t, width):
        rows[0][k] = k - t
    for i in range(1, len(x) + 1):
        prev, cur = rows[i - 1], rows[i]
        for k in range(width):
            d = k - t
            if i + d < 0:
                continue
            best = inf
            if prev[k] < inf:
                cx = x[i - 1] if i - 1 < len(x) else None
                best = prev[k] + (0 if cx == ypad[i - 1 + d] else 1)
            if k + 1 < width and prev[k + 1] < inf:
                best = min(best, prev[k + 1] + 1)
            if k >= 1 and cur[k - 1] < inf:
                best = min(best, cur[k - 1] + 1)
            cur[k] = best
    return rows
