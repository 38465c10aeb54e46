"""Banded selective scan: exact edit distance by tracking potent diagonals.

The scan walks the grid row by row but touches only an active set of
diagonals.  A diagonal whose cell is *dominated* by a cheaper in-neighbor
only matters when that neighbor is itself potent and about to pay for a
mismatch; everything else can be discarded, because its cost cannot change
on the next row.  Active diagonals are charged exactly when a potent cell
faces a mismatch, so the per-diagonal counters trace true grid costs.

Bookkeeping: CostArray keeps one counter and two row stamps per
diagonal, enough to answer every query the potency rule makes, since the
rule only looks one row back.
Every cell the rule asks about exists: diagonals start at (0, 0) and
spread to d-1 on the next row and to d+1 on the same row, so each visited
cell has i + d >= 0, and row 0 visits only d >= 0.
"""

from __future__ import annotations

import operator

from .qstring import QueriedString, as_queried, bytes_match


class CostArray:
    """Per-diagonal cost counters over the band [-t, t].

    Diagonal d lives at slot k = d + t of three lists.  a[k] starts at |d|
    (the cost of ever reaching diagonal d).  The last two rows of values
    and the two potency flag rows the update rule needs are reconstructed
    from stamps.  `changed_row[k]` holds the row of the latest increment;
    every increment adds exactly 1 and a diagonal increments at most once
    per row, so at the start of row r, for the current and the previous
    row only, the diagonal held a[k] - (changed_row[k] >= r).
    `potent_row[k]` holds the last row at which the diagonal was judged
    potent: potent at row r iff potent_row[k] == r, and not potent by
    default.  is_potent and advance_row read and write the lists directly.
    """

    __slots__ = ("t", "a", "changed_row", "potent_row")

    def __init__(self, t: int):
        width = 2 * t + 1
        self.t = t
        self.a = [abs(k - t) for k in range(width)]
        self.changed_row = [-3] * width
        self.potent_row = [-3] * width

    def cost(self, d: int) -> int:
        return self.a[d + self.t]

    def charge(self, d: int, row: int) -> None:
        k = d + self.t
        self.changed_row[k] = row
        self.a[k] += 1

    def mark_potent(self, d: int, row: int) -> None:
        self.potent_row[d + self.t] = row


def is_potent(
    costs: CostArray, i: int, d: int, x: QueriedString, y: QueriedString
) -> bool:
    """Potency of (i, d) under the counters in `costs`.

    An in-neighbor dominates when it sits exactly one below the cell's
    cost; neighbors outside the band never dominate.  Nor, on the cells
    the callers visit, do those outside the grid: at i + d = 0 the cell
    holds |d| and its left neighbor at least |d| + 1; at row 0 the cell
    holds d and its upper-right neighbor d + 1.  A dominating left
    neighbor must be potent on this row and face a mismatch entering the
    next one; a dominating upper-right neighbor must have been potent on
    the previous row and face a mismatch entering this one.  Undominated
    cells are potent outright.
    """
    t, a, changed = costs.t, costs.a, costs.changed_row
    k = d + t
    below = a[k] - (changed[k] >= i) - 1
    left = d - 1 >= -t and a[k - 1] - (changed[k - 1] >= i) == below
    upper_right = d + 1 <= t and a[k + 1] - (changed[k + 1] >= i - 1) == below
    if left and (
        costs.potent_row[k - 1] != i or bytes_match(x.read(i), y.read(i + d - 1))
    ):
        return False
    if upper_right and (
        costs.potent_row[k + 1] != i - 1 or bytes_match(x.read(i - 1), y.read(i + d))
    ):
        return False
    return True


def advance_row(
    costs: CostArray,
    active: list[int],
    i: int,
    x: QueriedString,
    y: QueriedString,
    d_end: int,
) -> tuple[list[int], list[int]]:
    """Row i of the potency rule, for the scan and the tester alike.

    Visits the sorted active diagonals in ascending order, skipping those
    whose counter exceeds t - |d - d_end|.  A potent diagonal survives;
    on a mismatch it is charged and spreads to d-1 on the next row and to
    d+1 on this one, carried as the next diagonal to visit.  Returns
    (next_active, charged), both sorted.
    """
    t, a, changed, potent = costs.t, costs.a, costs.changed_row, costs.potent_row
    nxt: list[int] = []
    charged: list[int] = []
    carry = None
    k, size = 0, len(active)
    while k < size or carry is not None:
        if carry is None:
            d = active[k]
            k += 1
        else:
            # d+1 never exceeds the next active diagonal: visiting it now
            # keeps the walk ascending, and a duplicate is skipped
            d, carry = carry, None
            if k < size and active[k] == d:
                k += 1
        # pruning goes through cost(), which a subclass may override
        if costs.cost(d) > t - abs(d - d_end):
            continue
        if not is_potent(costs, i, d, x, y):
            continue
        slot = d + t
        potent[slot] = i
        if not bytes_match(x.read(i), y.read(i + d)):
            changed[slot] = i
            a[slot] += 1
            charged.append(d)
            if d + 1 <= t:
                carry = d + 1
            if d - 1 >= -t and (not nxt or nxt[-1] != d - 1):
                nxt.append(d - 1)
        nxt.append(d)
    return nxt, charged


def selective_scan(x, y, t: int) -> int | None:
    """Edit distance if it is at most t, else None (exceeds-t).

    Diagonals whose counter exceeds the budget left for returning to the
    finishing diagonal are dropped, and the scan exits early once the
    active set empties or the finishing diagonal's counter passes t.
    Dropped diagonals can never participate in a path of cost <= t, so the
    returned cost is unaffected.  The band is t, capped at max(|x|, |y|),
    since no distance lies past the longer length.
    """
    t = operator.index(t)
    x, y = as_queried(x), as_queried(y)
    nx, ny = len(x), len(y)
    d_end = ny - nx
    if abs(d_end) > t:
        return None
    costs = CostArray(min(t, max(nx, ny)))
    active = [0]
    for i in range(nx):
        active, _ = advance_row(costs, active, i, x, y, d_end)
        if not active or costs.cost(d_end) > t:
            return None
    return costs.cost(d_end)
