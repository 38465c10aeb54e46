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
from .sampled import geometric_gap


class PeriodTransitionError(RuntimeError):
    """The transition search's precondition (an observed deviation) failed."""


@dataclass(frozen=True)
class PeriodState:
    """Snapshot of the periodic regime taken when contiguous scanning exits.

    i_pat: first row of the regime (the start of the quiet window).
    g: period length, the gcd of pairwise differences of the diagonal set.
    p: the period pattern, p = x[i_pat .. i_pat+g-1].
    d_min, d_max: extremes of the diagonal set at entry; m = d_max - d_min.
    m is frozen at entry and never recomputed mid-regime.
    """

    i_pat: int
    g: int
    p: bytes
    d_min: int
    d_max: int
    m: int

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("period length must be positive")
        if len(self.p) != self.g:
            raise ValueError("pattern length must equal the period")
        if self.m != self.d_max - self.d_min or self.m < 1:
            raise ValueError("diagonal spread is inconsistent")

    @classmethod
    def capture(cls, x: QueriedString, diagonals, i_pat: int) -> "PeriodState":
        d_min, d_max = min(diagonals), max(diagonals)
        g = gcd_of_diffs(diagonals)
        p = []
        for k in range(i_pat, i_pat + g):
            c = x.read(k)
            if c is None:
                raise ValueError("period pattern window runs past the string")
            p.append(c)
        return cls(i_pat=i_pat, g=g, p=bytes(p), d_min=d_min, d_max=d_max,
                   m=d_max - d_min)

    def slot(self, k: int) -> int:
        """Pattern byte expected at row k."""
        return self.p[(k - self.i_pat) % self.g]


def gcd_of_diffs(diagonals) -> int:
    """gcd of all pairwise differences of a diagonal set with >= 2 members."""
    ds = sorted(set(diagonals))
    if len(ds) < 2:
        raise ValueError("need at least two diagonals to take a period")
    return math.gcd(*(b - a for a, b in zip(ds, ds[1:])))


def verify_periodicity_window(x, y, i: int, diagonals) -> bool:
    """Brute-force check of the shared window behind row i.

    True iff x[j'] == y[j'+d] for every d in the diagonal set and every
    row j' in [i-2m+1 .. i], where m is the spread of the set.  Raises if
    the window leaves either string.  Verification-only; the testers never
    call this.
    """
    ds = sorted(set(diagonals))
    if len(ds) < 2:
        raise ValueError("need at least two diagonals")
    m = ds[-1] - ds[0]
    lo = i - 2 * m + 1
    if lo < 0 or i >= len(x):
        raise ValueError("window leaves x")
    if lo + ds[0] < 0 or i + ds[-1] >= len(y):
        raise ValueError("window leaves y")
    for j in range(lo, i + 1):
        cx = x.read(j)
        for d in ds:
            if y.read(j + d) != cx:
                return False
    return True


def row_deviates(x, y, state: PeriodState, k: int) -> bool:
    """Does row k break the pattern on x or on y along d_max?

    Reads past either end count as clean, matching the rest of the
    periodic machinery: rows truncated by a string boundary are priced
    by the contiguous scan's out-of-range mismatches, not reported as
    pattern breaks.
    """
    c = state.slot(k)
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


def mismatched_diagonals(x, y, j: int, diagonals):
    """Diagonals with a direct mismatch in rows [j .. j+m] after a transition.

    Returns the set of diagonals d with x[j'] != y[j'+d] for some in-range
    row j' in the window.  Only pairs with both reads in range count; rows
    truncated by a string boundary never charge, which can leave more than
    one diagonal uncharged near the end of the strings (the caller probes
    the extras separately).
    """
    ds = sorted(set(diagonals))
    m = ds[-1] - ds[0]
    charged = set()
    for d in ds:
        for jp in range(j, j + m + 1):
            if jp < 0 or jp >= len(x):
                continue
            if jp + d < 0 or jp + d >= len(y):
                continue
            if x.read(jp) != y.read(jp + d):
                charged.add(d)
                break
    return charged


def probe_diagonal(x, y, d: int, lo: int, hi: int, rate: float, rng) -> bool:
    """Sample rows in [lo .. hi] at the given rate; True on any mismatch.

    Rows are kept independently with probability rate via geometric
    skipping; rate >= 1 checks every row without consuming randomness.
    Out-of-range pairs are skipped.
    """
    j = lo - 1 + geometric_gap(rate, rng)
    while j <= hi:
        if 0 <= j < len(x) and 0 <= j + d < len(y):
            if x.read(j) != y.read(j + d):
                return True
        j += geometric_gap(rate, rng)
    return False
