"""Succinct alignment certificates, the package's one alignment format.

A close verdict carries a compressed description of an alignment the run
believes in: a chain of row intervals, each pinned to one diagonal, plus
the charged edit events observed along the way.  Consecutive segments
share their boundary row, except that a move down a diagonal may skip
the row its deletion consumes.  The diagonal moves between segments are
recorded as explicit diag+1 / diag-1 events, so the whole object decodes
back into a concrete path through the grid whose cost can be priced
against the full strings.

Encoding is varint-based (LEB128 with zigzag for diagonals), so the size
is O((#segments + #events) * log n) bits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .qstring import as_queried

SUBSTITUTION = "substitution"
DIAG_UP = "diag+1"
DIAG_DOWN = "diag-1"

_KIND_CODES = {SUBSTITUTION: 0, DIAG_UP: 1, DIAG_DOWN: 2}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}


class MalformedAlignment(ValueError):
    """The segment chain does not describe a single connected path."""


def _write_uvarint(out: bytearray, v: int) -> None:
    if v < 0:
        raise ValueError("uvarint needs a nonnegative value")
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    shift = 0
    v = 0
    while True:
        if pos >= len(data):
            raise MalformedAlignment("truncated varint")
        b = data[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, pos
        shift += 7


def _zigzag(v: int) -> int:
    return 2 * v if v >= 0 else -2 * v - 1


def _unzigzag(v: int) -> int:
    return -(v + 1) // 2 if v & 1 else v // 2


@dataclass(frozen=True)
class SuccinctAlignment:
    """Row-interval segments on fixed diagonals, plus charged events.

    segments: tuple of (row_lo, row_hi, diagonal); consecutive segments
    satisfy next.row_lo == prev.row_hi (the boundary row is shared).
    events: tuple of (row, diagonal, kind) with kind one of
    "substitution", "diag+1", "diag-1".
    """

    segments: tuple[tuple[int, int, int], ...]
    events: tuple[tuple[int, int, str], ...]

    def encode(self) -> bytes:
        out = bytearray()
        _write_uvarint(out, len(self.segments))
        _write_uvarint(out, len(self.events))
        for lo, hi, d in self.segments:
            _write_uvarint(out, lo)
            _write_uvarint(out, hi - lo)
            _write_uvarint(out, _zigzag(d))
        for row, d, kind in self.events:
            _write_uvarint(out, row)
            _write_uvarint(out, _zigzag(d))
            _write_uvarint(out, _KIND_CODES[kind])
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "SuccinctAlignment":
        n_seg, pos = _read_uvarint(data, 0)
        n_ev, pos = _read_uvarint(data, pos)
        segments = []
        for _ in range(n_seg):
            lo, pos = _read_uvarint(data, pos)
            length, pos = _read_uvarint(data, pos)
            zd, pos = _read_uvarint(data, pos)
            segments.append((lo, lo + length, _unzigzag(zd)))
        events = []
        for _ in range(n_ev):
            row, pos = _read_uvarint(data, pos)
            zd, pos = _read_uvarint(data, pos)
            code, pos = _read_uvarint(data, pos)
            if code not in _CODE_KINDS:
                raise MalformedAlignment(f"unknown event kind code {code}")
            events.append((row, _unzigzag(zd), _CODE_KINDS[code]))
        if pos != len(data):
            raise MalformedAlignment("trailing bytes after alignment")
        return cls(segments=tuple(segments), events=tuple(events))

    @property
    def bit_size(self) -> int:
        return 8 * len(self.encode())


def validate_alignment(alignment: SuccinctAlignment, x, y) -> int:
    """Price the alignment's induced grid path against the full strings.

    Returns Hamming mismatches along each segment's diagonal plus one per
    unit diagonal move between consecutive segments.  Positions falling
    outside either string count as mismatches.  Raises MalformedAlignment
    when the segment chain is empty, broken or starts before row 0.  Reads
    everything; verification only, never called by the testers.
    """
    xb, yb = as_queried(x).data, as_queried(y).data  # unmetered
    segs = alignment.segments
    if not segs or segs[0][0] < 0:  # later segments start no earlier
        raise MalformedAlignment("segment chain is empty or starts before row 0")
    cost = 0
    prev_hi = segs[0][0]
    prev_d = segs[0][2]
    for lo, hi, d in segs:
        # A diagonal-down move consumes one row without comparing it (the
        # move itself pays), so the chain may skip up to (prev_d - d) rows
        # at a downward transition; otherwise boundaries must be shared.
        gap = lo - prev_hi
        if hi < lo or gap < 0 or gap > max(0, prev_d - d):
            raise MalformedAlignment("segment chain is not contiguous")
        cost += abs(d - prev_d)
        for k in range(lo, hi):
            j = k + d
            if k >= len(xb) or j < 0 or j >= len(yb) or xb[k] != yb[j]:
                cost += 1
        prev_hi, prev_d = hi, d
    return cost

