"""Exact edit distance by diagonal transition.

One kernel, ``banded_edit_distance`` (Ukkonen 1985; Landau, Myers and
Schmidt 1998), answers in O(n + band^2) time; ``edit_distance`` runs it at
the full band max(|x|, |y|), which no distance exceeds.  Each call reads
both strings in full through ``as_queried``, so a ``QueriedString``
input's ledger shows every position read.  The slide along a diagonal
compares eight bytes per numpy step, as little-endian words.

Coordinates are 0-based throughout.  Cell ``(i, d)`` holds the edit distance
between the first ``i`` bytes of ``x`` and the first ``i + d`` bytes of
``y``; the step from row ``i`` to row ``i + 1`` on diagonal ``d`` compares
``x[i]`` with ``y[i + d]``.  Three step kinds exist: staying on the diagonal
(cost 0 on a match, 1 on a substitution), moving to diagonal ``d - 1`` while
advancing the row (deleting ``x[i]``, cost 1), and moving to diagonal
``d + 1`` within the row (inserting ``y[i + d]``, cost 1).
"""

from __future__ import annotations

import operator

import numpy as np

from .qstring import as_queried

_UNREACHED = -(1 << 40)  # far[] of a diagonal no path has reached
_GATHER = 4096  # words per read-ahead gather of the banded slide


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
    + 1) and an insertion from d - 1 (far[d-1]), capped at the last row
    lim(d) of the diagonal, then slides down while x[i] == y[i + d].  The
    answer is the first k whose slide on d_end = |y| - |x| reaches row |x|.

    Cut-off: a cell of cost k still owes |d - d_end| diagonal moves, so
    level k only updates diagonals with |d| <= k and |d - d_end| <= band - k.
    A None therefore proves the distance exceeds band.  Every diagonal in
    that range is reached: its neighbour toward 0 was in range one level
    earlier, so the best candidate is a real row, at least the diagonal's
    first row max(0, -d).  Every row thus lies in [max(0, -d), lim(d)], so
    no row is masked and no read of the first compare is clamped.

    The slide compares eight bytes a step: ``_words`` holds the
    little-endian word at every position of each string, zero-padded, and
    a diagonal advances by the equal low bytes of x_word[i] ^ y_word[i + d],
    capped at lim(d).  The cap bounds every answer, so pad bytes need never
    mismatch.  Diagonals that matched all eight bytes and are still below
    lim(d) go on to ``_gather``.  Both strings are read in full first, so
    the ledger is the same on every path.
    """
    band = operator.index(band)
    bx, by = as_queried(x).read_all(), as_queried(y).read_all()
    nx, ny = len(bx), len(by)
    d_end = ny - nx
    if abs(d_end) > band:
        return None
    band = min(band, max(nx, ny))  # no distance exceeds the longer length
    xw, yw = _words(bx), _words(by)
    o = band + 1  # column of diagonal 0; one unreached column on each side
    diag = np.arange(-o, o + 1)
    lim = np.minimum(nx, ny - diag)  # last row of each diagonal
    far = np.full(diag.size, _UNREACHED, dtype=np.int64)
    far[o] = -1  # so level 0 starts diagonal 0 at row 0
    for k in range(band + 1):
        lo = max(-k, d_end - (band - k)) + o
        hi = min(k, d_end + (band - k)) + o + 1
        ds, lims = diag[lo:hi], lim[lo:hi]
        row = np.maximum(far[lo:hi], far[lo + 1 : hi + 1])
        row += 1
        np.maximum(row, far[lo - 1 : hi - 1], out=row)
        np.minimum(row, lims, out=row)
        z = xw[row] ^ yw[row + ds]
        row += _equal_bytes(z)
        np.minimum(row, lims, out=row)
        live = (z == 0).nonzero()[0]
        if live.size:
            _gather(row, ds, lims, live[row[live] < lims[live]], xw, yw)
        far[lo:hi] = row
        if far[d_end + o] == nx:
            return k
    return None


def _words(b: bytes) -> np.ndarray:
    """The little-endian word of the eight bytes at each position of b.

    Positions run to len(b), with zero bytes past the end.  The words are
    copied out of a one-byte-stride view, so that gathers read aligned
    words (several times faster than through the view).
    """
    buf = b + bytes(8)
    return np.ndarray((len(b) + 1,), dtype="<u8", buffer=buf, strides=(1,)).copy()


def _equal_bytes(z: np.ndarray) -> np.ndarray:
    """Equal low bytes of each XOR word: its trailing zero bits // 8 (8 on 0)."""
    return np.bitwise_count(~z & (z - 1)) >> 3


def _gather(row, ds, lims, live, xw, yw) -> None:
    """Slide the live diagonals on in place, a word per step.

    They read ahead in 2-D gathers of at most _GATHER words, twice as many
    words per diagonal on each pass; each stops at its first unequal byte
    or at lim.
    """
    span = 32  # words per live diagonal on a level's first pass
    while live.size:
        part, live = live[:_GATHER], live[_GATHER:]
        span = min(span, _GATHER // part.size)
        r = row[part]
        steps = 8 * np.arange(span)
        # Words past a string's end read its last word; the cap at lim
        # discards whatever they hold.
        z = (xw.take(r[:, None] + steps, mode="clip")
             ^ yw.take((r + ds[part])[:, None] + steps, mode="clip"))
        stop = (z != 0).argmax(axis=1)
        z = z[np.arange(part.size), stop]  # first unequal word, or 0
        r += np.where(z != 0, 8 * stop + _equal_bytes(z), 8 * span)
        np.minimum(r, lims[part], out=r)
        row[part] = r
        live = np.concatenate((part[(z == 0) & (r < lims[part])], live))
        span *= 2
