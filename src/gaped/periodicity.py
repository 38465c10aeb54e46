"""Period-pattern bookkeeping for the sampling mode.

When the active diagonals go quiet for long enough, both strings have
settled into a common periodic pattern whose period g divides every
difference between active diagonals.  This module captures that regime
(PeriodState), verifies it, locates where it breaks (binary search for
the transition row), and identifies which diagonals must pay for the
break.

All indices are 0-based.  Row k of the pattern regime reads x[k] and, on
diagonal d, y[k+d]; the pattern slot for row k is (k - i_pat) mod g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstring import QueriedString
from .sampled import GapStream
# geometric_gap is not called here; it stays bound in this module because
# profiling harnesses rebind it by module attribute.
from .sampled import geometric_gap  # noqa: F401


class PeriodTransitionError(RuntimeError):
    """The transition search's precondition (an observed deviation) failed."""


@dataclass(frozen=True)
class PeriodState:
    """Snapshot of the periodic regime taken when contiguous scanning exits.

    i_pat: first row of the regime (the start of the quiet window).
    p: the period pattern x[i_pat .. i_pat+g-1]; its length g is the gcd
    of pairwise differences of the diagonal set.
    d_max: top diagonal of the set at entry; m is the set's spread, frozen
    at entry and never recomputed mid-regime.
    """

    i_pat: int
    p: bytes
    d_max: int
    m: int

    @classmethod
    def capture(cls, x: QueriedString, diagonals, i_pat: int) -> "PeriodState":
        """Capture from the sorted, duplicate-free active set (>= 2 members)."""
        g = math.gcd(*(b - a for a, b in zip(diagonals, diagonals[1:])))
        p = []
        for k in range(i_pat, i_pat + g):
            c = x.read(k)
            if c is None:
                raise ValueError("period pattern window runs past the string")
            p.append(c)
        return cls(i_pat=i_pat, p=bytes(p), d_max=diagonals[-1], m=diagonals[-1] - diagonals[0])


def row_deviates(x, y, state: PeriodState, k: int) -> bool:
    """Does row k break the pattern on x or on y along d_max?

    Reads past either end count as clean, matching the rest of the
    periodic machinery: rows truncated by a string boundary are priced
    by the contiguous scan's out-of-range mismatches, not reported as
    pattern breaks.
    """
    c = state.p[(k - state.i_pat) % len(state.p)]
    cx = x.read(k)
    if cx is not None and cx != c:
        return True
    cy = y.read(k + state.d_max)
    return cy is not None and cy != c


def find_period_transition(x, y, state: PeriodState, i: int) -> int:
    """Last fully pattern-consistent row before the regime breaks.

    Precondition: row i deviates (the caller observed the failure there).
    Returns j in [i_pat+2m .. i-1] such that every row j' in [j-2m .. j]
    satisfies x[j'] == y[j'+d_max] == pattern slot of j', while row j+1
    deviates on x or on y.  Binary search over "first deviating row": each
    probe of a candidate row scans at most 2m+1 rows, so the search reads
    O(m log n) characters.  Raises PeriodTransitionError if row i does not
    actually deviate.
    """
    m = state.m
    lo = state.i_pat + 2 * m + 1
    hi = i
    if hi < lo:
        raise PeriodTransitionError("deviation reported inside the quiet window")
    if not row_deviates(x, y, state, hi):
        raise PeriodTransitionError("no deviation at the reported row")
    # Invariant: all rows in [lo-2m-1 .. lo-1] are clean (initially the
    # quiet window), and hi is a verified deviating row.
    while lo < hi:
        mid = (lo + hi) // 2
        first_dev = None
        for k in range(max(lo, mid - 2 * m), mid + 1):
            if row_deviates(x, y, state, k):
                first_dev = k
                break
        if first_dev is None:
            lo = mid + 1
        else:
            hi = first_dev
    return lo - 1


def mismatched_diagonals(x, y, lo: int, hi: int, diagonals):
    """Diagonals with a direct mismatch in rows [lo .. hi] after a transition.

    Returns those d with x[j'] != y[j'+d] for some row j' with both reads
    in range.  Each diagonal reads its rows in order, x then y, up to its
    first mismatch: the reads of a rate-1 probe_diagonal over the window.
    Rows truncated by a string boundary never charge, which can leave more
    than one diagonal uncharged near the end of the strings (the caller
    probes the extras separately).
    """
    return {d for d in diagonals
            if any(x.read(j) != y.read(j + d)
                   for j in range(max(lo, 0, -d), min(hi, len(x) - 1, len(y) - 1 - d) + 1))}


def probe_diagonal(x, y, d: int, lo: int, hi: int, gaps: GapStream) -> bool:
    """Check the rows of [lo .. hi] that the gaps keep on diagonal d.

    True on the first mismatch.  The rows are lo - 1 plus the running
    sums of the gaps, walked a block at a time (GapStream.rows) with
    uncharged looks; only pairs with both reads in range count.  Each
    block charges x and y at the in-range rows it checked, up to and
    including a mismatch, and takes the gaps a row-by-row walk would
    have drawn: one per row up to a mismatch, or, on a miss, one more
    for the draw that passes hi.  A rate-1 stream draws nothing.
    """
    first, last = max(0, -d), min(len(x), len(y) - d) - 1
    r = lo - 1
    while True:
        rows = gaps.rows(r, hi + 1)[1:]
        kept = int(np.searchsorted(rows, hi, side="right"))
        a, b = np.searchsorted(rows[:kept], (first, last + 1)).tolist()
        at = rows[a:b]
        hit = x.look(at) != y.look(at + d)
        found = bool(hit.any())
        if found:
            at = at[:int(np.argmax(hit)) + 1]
        x.charge(at)
        y.charge(at + d)
        if found:
            gaps.skip(a + len(at))
            return True
        if kept < len(rows):  # the draw at kept passed hi
            gaps.skip(kept + 1)
            return False
        gaps.skip(kept)
        r = int(rows[-1])
