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

from .qstring import QueriedString
# geometric_gap is not called here; it stays bound in this module because
# profiling harnesses rebind it by module attribute.
from .sampled import geometric_gap  # noqa: F401


class PeriodTransitionError(RuntimeError):
    """The transition search's precondition (an observed deviation) failed."""


@dataclass(frozen=True)
class PeriodState:
    """Snapshot of the periodic regime taken when contiguous scanning exits.

    i_pat: first row of the regime (the start of the quiet window).
    g: period length, the gcd of pairwise differences of the diagonal set.
    p: the period pattern, p = x[i_pat .. i_pat+g-1].
    d_max: top diagonal of the set at entry; m is the set's spread, frozen
    at entry and never recomputed mid-regime.
    """

    i_pat: int
    g: int
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
        return cls(i_pat=i_pat, g=g, p=bytes(p), d_max=diagonals[-1],
                   m=diagonals[-1] - diagonals[0])


def row_deviates(x, y, state: PeriodState, k: int) -> bool:
    """Does row k break the pattern on x or on y along d_max?

    Reads past either end count as clean, matching the rest of the
    periodic machinery: rows truncated by a string boundary are priced
    by the contiguous scan's out-of-range mismatches, not reported as
    pattern breaks.
    """
    c = state.p[(k - state.i_pat) % state.g]
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

    Returns the set of diagonals d with x[j'] != y[j'+d] for some in-range
    row j' in the window.  Only pairs with both reads in range count; rows
    truncated by a string boundary never charge, which can leave more than
    one diagonal uncharged near the end of the strings (the caller probes
    the extras separately).
    """
    charged = set()
    for d in diagonals:
        for jp in range(max(lo, 0, -d), min(hi, len(x) - 1, len(y) - 1 - d) + 1):
            if x.read(jp) != y.read(jp + d):
                charged.add(d)
                break
    return charged


def probe_diagonal(x, y, d: int, lo: int, hi: int, draw_gap) -> bool:
    """Sample rows in [lo .. hi] on diagonal d; True on any mismatch.

    draw_gap() gives the distance to the next kept row, as a
    sampled.gap_sampler does: one draw per kept row, plus the draw that
    passes hi when no mismatch stops the probe first.  A sampler at rate
    >= 1 checks every row without consuming randomness.  Out-of-range
    pairs are skipped.
    """
    j = lo - 1 + draw_gap()
    while j <= hi:
        if 0 <= j < len(x) and 0 <= j + d < len(y):
            if x.read(j) != y.read(j + d):
                return True
        j += draw_gap()
    return False
