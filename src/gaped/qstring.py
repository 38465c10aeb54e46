"""Byte strings instrumented with query accounting.

Every algorithm in this package reads its inputs exclusively through
:class:`QueriedString`, so the number of positions an algorithm looked at is
an observable fact rather than an estimate.  A read inside the string's
bounds returns the byte value and is recorded; a read outside the bounds
returns ``None`` and leaves the ledger untouched.

Input rule, the package's only one: a string is ``bytes``, ``bytearray``,
``memoryview`` or ASCII ``str`` (a non-ASCII ``str`` is a ``ValueError``).
Anything else, ``int`` and ``None`` included, is a ``TypeError``.  Other
modules get their bytes through :func:`as_queried`.

Out-of-range semantics: a position outside the string compares unequal to
every in-range byte and unequal to other out-of-range positions.  Comparison
sites must therefore go through :func:`bytes_match` instead of ``==`` (two
``None`` results would otherwise compare equal).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QueryLedger:
    """Snapshot of query counts for one (x, y) pair.

    distinct counts are the number of distinct positions ever read in each
    string; total_accesses counts every in-range read, repeats included.
    Acceptance bounds are stated over distinct counts.
    """

    distinct_x: int
    distinct_y: int
    total_accesses: int

    @property
    def distinct_total(self) -> int:
        return self.distinct_x + self.distinct_y


class QueriedString:
    """An immutable byte string that counts reads.

    ``read(i)`` returns the byte at ``i`` as an int, or ``None`` when ``i``
    is outside ``[0, len)``.  Distinct and total counts cover in-range reads
    only: an out-of-range read never touches the data and never extends the
    ledger.
    """

    __slots__ = ("data", "_n", "_seen", "distinct", "total")

    def __init__(self, data: bytes | bytearray | memoryview | str):
        if isinstance(data, str):
            try:
                data = data.encode("ascii")
            except UnicodeEncodeError as exc:
                raise ValueError(f"str input must be ASCII; found {data[exc.start]!r} "
                                 f"at position {exc.start}") from None
        elif not isinstance(data, (bytes, bytearray, memoryview)):
            raise TypeError("a string must be bytes, bytearray, memoryview or str, "
                            f"got {type(data).__name__}")
        self.data = bytes(data)
        self._n = len(self.data)
        self._seen = bytearray(self._n)
        self.distinct = 0
        self.total = 0

    def __len__(self) -> int:
        return self._n

    def read(self, i: int) -> int | None:
        if 0 <= i < self._n:
            self.total += 1
            seen = self._seen
            if not seen[i]:
                seen[i] = 1
                self.distinct += 1
            return self.data[i]
        return None

    def read_all(self) -> bytes:
        """Mark every position read and return the data.

        The exact oracles look at everything by nature; routing them through
        this keeps their ledgers honest.
        """
        n = self._n
        self.total += n
        self._seen = bytearray(b"\x01") * n if n else bytearray()
        self.distinct = n
        return self.data

    def positions_read(self) -> list[int]:
        return [i for i, s in enumerate(self._seen) if s]


def bytes_match(a: int | None, b: int | None) -> bool:
    """True iff both reads are in range and equal.

    Encodes the out-of-range rule: an out-of-range position mismatches
    everything, including another out-of-range position.
    """
    return a is not None and b is not None and a == b


def as_queried(s: QueriedString | bytes | bytearray | memoryview | str) -> QueriedString:
    """s itself if already queried, else a QueriedString with a fresh ledger."""
    return s if isinstance(s, QueriedString) else QueriedString(s)


def ledger_snapshot(x: QueriedString, y: QueriedString) -> QueryLedger:
    """Current counts for the pair, cheap enough to call per row."""
    return QueryLedger(
        distinct_x=x.distinct,
        distinct_y=y.distinct,
        total_accesses=x.total + y.total,
    )
