"""Exact edit distance by diagonal transition.

One kernel, ``banded_edit_distance`` (Ukkonen 1985; Landau, Myers and
Schmidt 1998), answers in O(n + band^2) time; ``edit_distance`` runs it at
the full band max(|x|, |y|), which no distance exceeds.  Each call reads
both strings in full through ``as_queried``, so a ``QueriedString``
input's ledger shows every position read.

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

from .qstring import as_queried

_UNREACHED = -(1 << 40)  # far[] of a diagonal no path has reached
_GATHER = 4096  # elements per read-ahead gather of the banded slide


def _as_u8(b: bytes) -> np.ndarray:
    return np.frombuffer(b, dtype=np.uint8)


def edit_distance(x, y) -> int:
    """Exact edit distance: the banded oracle at band max(|x|, |y|).

    It returns after ED + 1 levels, so the time is O(n + ED^2).
    """
    x, y = as_queried(x), as_queried(y)
    return banded_edit_distance(x, y, max(len(x), len(y)))


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
    band = min(band, max(nx, ny))  # no distance exceeds the longer length
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
