"""Exact edit-distance oracles over the diagonal grid.

Reference implementations with unrestricted queries: the full dynamic
program and its cost table, the diagonal-transition banded oracle, and an
optimal alignment with a fixed tie-break (as a ``SuccinctAlignment``, the
format the testers certify in).  Each reads both strings in full through
``as_queried``, so a ``QueriedString`` input's ledger shows every position
read.

Coordinates are 0-based throughout.  Cell ``(i, d)`` holds the edit distance
between the first ``i`` bytes of ``x`` and the first ``i + d`` bytes of
``y``; the step from row ``i`` to row ``i + 1`` on diagonal ``d`` compares
``x[i]`` with ``y[i + d]``.  Three step kinds exist: staying on the diagonal
(cost 0 on a match, 1 on a substitution), moving to diagonal ``d - 1`` while
advancing the row (deleting ``x[i]``, cost 1), and moving to diagonal
``d + 1`` within the row (inserting ``y[i + d]``, cost 1).
"""

from __future__ import annotations

import numpy as np

from .alignment import DIAG_DOWN, DIAG_UP, SUBSTITUTION, SuccinctAlignment
from .qstring import as_queried

_UNREACHED = -(1 << 40)  # far[] of a diagonal no path has reached
_GATHER = 4096  # elements per read-ahead gather of the banded slide


def _as_u8(b: bytes) -> np.ndarray:
    return np.frombuffer(b, dtype=np.uint8)


def _dp_rows(bx: bytes, by: bytes):
    """Rows 0..|x| of the full DP, each a fresh array of |y| + 1 costs.

    Row update: substitutions and deletions vectorize directly; the
    within-row insertion chain is min(tmp[k] + (j - k)) over k <= j, which
    is a running minimum of tmp[k] - k.
    """
    xa, ya = _as_u8(bx), _as_u8(by)
    idx = np.arange(len(by) + 1, dtype=np.int32)
    row = idx
    yield row
    tmp = np.empty(len(by) + 1, dtype=np.int32)
    for i in range(1, len(bx) + 1):
        tmp[0] = i
        np.minimum(row[:-1] + (ya != xa[i - 1]), row[1:] + 1, out=tmp[1:])
        row = np.minimum.accumulate(tmp - idx) + idx
        yield row


def edit_distance(x, y) -> int:
    """Exact edit distance by the full DP, keeping one row at a time."""
    bx, by = as_queried(x).read_all(), as_queried(y).read_all()
    if not bx or not by:
        return len(bx) + len(by)
    for row in _dp_rows(bx, by):
        pass
    return int(row[-1])


def banded_edit_distance(x, y, band: int) -> int | None:
    """Edit distance when it is <= band, else None; O(n + band^2) time.

    Diagonal transition (Ukkonen 1985; Myers 1986): ``far[d]`` is the
    furthest row reachable on diagonal d at cost <= k.  Level k takes the
    best of a substitution (far[d] + 1), a deletion from d + 1 (far[d+1]
    + 1) and an insertion from d - 1 (far[d-1]), capped at the last row of
    the diagonal, then slides down while x[i] == y[i + d].  The answer is
    the first k whose slide on d_end = |y| - |x| reaches row |x|.

    Cut-off: a cell of cost k still owes |d - d_end| diagonal moves, so
    level k only updates diagonals with |d| <= k and |d - d_end| <= band - k.
    A None therefore proves the distance exceeds band.  Both strings are
    read in full first, so the ledger is the same on every path.
    """
    bx, by = as_queried(x).read_all(), as_queried(y).read_all()
    nx, ny = len(bx), len(by)
    d_end = ny - nx
    if abs(d_end) > band:
        return None
    # Distinct pads past each end: a read there never matches.
    xp = np.append(_as_u8(bx).astype(np.int16), -1)
    yp = np.append(_as_u8(by).astype(np.int16), -2)
    o = band + 1  # column of diagonal 0; one unreached column on each side
    diag = np.arange(-o, o + 1)
    lim = np.minimum(nx, ny - diag)  # last row of each diagonal
    first = np.maximum(0, -diag)  # first row of each diagonal
    far = np.full(diag.size, _UNREACHED, dtype=np.int64)
    far[o] = -1  # so level 0 starts diagonal 0 at row 0
    for k in range(band + 1):
        lo = max(-k, d_end - (band - k)) + o
        hi = min(k, d_end + (band - k)) + o + 1
        row = np.maximum(np.maximum(far[lo:hi], far[lo + 1 : hi + 1]) + 1,
                         far[lo - 1 : hi - 1])
        np.minimum(row, lim[lo:hi], out=row)
        row[row < first[lo:hi]] = _UNREACHED
        _slide(row, diag[lo:hi], xp, yp)
        far[lo:hi] = row
        if far[d_end + o] == nx:
            return k
    return None


def _slide(rows: np.ndarray, ds: np.ndarray, xp: np.ndarray, yp: np.ndarray) -> None:
    """Advance each reached row in place while xp[i] == yp[i + d].

    One compare over every diagonal first, since most stop at once; the
    rest read ahead in 2-D gathers of at most _GATHER elements, reading
    twice as far on each pass.
    """
    nx, ny = xp.size - 1, yp.size - 1
    live = np.flatnonzero(rows >= 0)
    r = rows[live]
    live = live[xp[r] == yp[r + ds[live]]]
    rows[live] += 1
    span = 8
    while live.size:
        part, live = live[:_GATHER], live[_GATHER:]
        span = min(span, _GATHER // part.size)
        r = rows[part][:, None] + np.arange(span)
        miss = xp[np.minimum(r, nx)] != yp[np.minimum(r + ds[part][:, None], ny)]
        stop = miss.argmax(axis=1)
        done = miss[np.arange(part.size), stop]
        rows[part] += np.where(done, stop, span)
        live = np.concatenate((part[~done], live))
        span *= 2


def full_cost_table(x, y) -> np.ndarray:
    """The whole (|x|+1) x (|y|+1) DP matrix.  Test-only: desk-scale sizes."""
    return np.stack(list(_dp_rows(as_queried(x).read_all(), as_queried(y).read_all())))


# ---------------------------------------------------------------------------
# Optimal alignment with a fixed tie-break.


def optimal_alignment(x, y) -> SuccinctAlignment:
    """An optimal alignment as a certificate; ties prefer match/substitute,
    then delete, then insert.

    The traceback walks back from (|x|, |y|) and opens each segment at its
    last row.  Deleting x[i - 1] steps down from diagonal d + 1 to d and
    skips row i - 1, so the segment on d starts at row i; inserting
    y[j - 1] steps up from d - 1 to d within row i.
    """
    bx, by = as_queried(x).read_all(), as_queried(y).read_all()
    m = full_cost_table(bx, by)
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
