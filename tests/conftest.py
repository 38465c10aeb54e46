"""Shared test helpers.

ref_edit_distance is a deliberately plain O(nm) implementation kept
independent of the package's vectorized oracles; the oracle tests check
one against the other, and everything downstream trusts the oracle.
"""

from __future__ import annotations

import random


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
