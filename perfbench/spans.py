"""Spans recorded from outside gaped by rebinding its public names.

Each wrapped call records one span: its name, span id, parent span,
decision id, start and end (``perf_counter_ns``), and the distinct reads
it made, the change in ``.distinct`` of the decision's two
``QueriedString``s (a wrapper never calls ``read()``).  A decision's spans
stay in memory until the decision returns; ``fold`` then turns them into
per-name totals, outside any timed region.  Folding per decision keeps
memory flat: one pass of ``splice-128k`` makes about 18 million spans.  A
span's self time is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import itertools
import math
import statistics
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

import gaped.generators
import gaped.oracle
import gaped.periodicity
import gaped.sampled
import gaped.scan
import gaped.tester


def _transition_bound(args) -> int:
    """(2m+1) * ceil(log2 n): the read budget of one transition search."""
    x, y, state = args[0], args[1], args[2]
    return (2 * state.m + 1) * math.ceil(math.log2(max(len(x), len(y), 2)))


def _grid_rows(args) -> int:
    return len(args[0].rows)


def _scan_rows(args) -> int:
    return len(args[0])


def _dp_cells(args) -> int:
    return len(args[0]) * len(args[1])


def _band_cells(args) -> int:
    return len(args[0]) * (2 * args[2] + 1)


# (span name, owners whose binding is replaced, attribute, per-call size).
# Each name is rebound in every module that calls it, so calls made
# inside gaped are seen as well as the benchmark's own.
TRACED = (
    ("tester.run", (gaped.tester,), "run", None),
    ("tester.sampling_round", (gaped.tester,), "sampling_round", None),
    ("tester.contiguous_round", (gaped.tester,), "contiguous_round", None),
    ("sampled.run_sampled_tester", (gaped.sampled,), "run_sampled_tester", None),
    ("sampled.geometric_gap", (gaped.tester, gaped.periodicity, gaped.sampled),
     "geometric_gap", None),
    ("sampled.sample_rows", (gaped.sampled,), "sample_rows", None),
    ("sampled.shortest_path_cost", (gaped.sampled,), "shortest_path_cost", _grid_rows),
    ("periodicity.row_deviates", (gaped.tester, gaped.periodicity), "row_deviates", None),
    ("periodicity.find_period_transition", (gaped.tester,), "find_period_transition",
     _transition_bound),
    ("periodicity.mismatched_diagonals", (gaped.tester,), "mismatched_diagonals", None),
    ("periodicity.probe_diagonal", (gaped.tester,), "probe_diagonal", None),
    ("periodicity.capture", (gaped.periodicity.PeriodState,), "capture", None),
    ("scan.is_potent", (gaped.tester, gaped.scan), "is_potent", None),
    ("scan.selective_scan", (gaped.scan,), "selective_scan", _scan_rows),
    ("oracle.edit_distance", (gaped.oracle, gaped.generators), "edit_distance", _dp_cells),
    ("oracle.banded_edit_distance", (gaped.oracle, gaped.generators),
     "banded_edit_distance", _band_cells),
    ("generators.gen_random_edits", (gaped.generators,), "gen_random_edits", None),
    ("generators.gen_periodic_splice", (gaped.generators,), "gen_periodic_splice", None),
    ("generators.gen_independent_random", (gaped.generators,), "gen_independent_random",
     None),
    ("generators.gen_certified_far", (gaped.generators,), "gen_certified_far", None),
)


class _NoPair:
    """Stand-in pair outside decisions (set-up): no ledger to read."""

    distinct = 0


class Tracer:
    """Span recorder plus the per-name totals folded from its spans.

    A span is the tuple (name index, span id, parent span id, decision id,
    start ns, end ns, distinct reads during the span); the parent of a
    top-level span is -1.
    """

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self._spans: list[tuple[int, ...]] = []
        self._stack = [-1]
        self._ids = itertools.count()
        self._size: dict[int, int] = {}
        self.current = (-1, _NoPair, _NoPair)
        self.totals: dict[str, dict[str, float]] = {}

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def wrap(self, name: str, fn, size=None):
        """fn with one span per call; size(args) is kept per span if given."""
        ix = self._name_index(name)
        record = self._spans.append
        stack = self._stack
        new_id = self._ids.__next__
        sizes = self._size
        tracer = self

        def traced(*args, **kwargs):
            decision, x, y = tracer.current
            sid = new_id()
            parent = stack[-1]
            if size is not None:
                sizes[sid] = size(args)
            stack.append(sid)
            d0 = x.distinct + y.distinct
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                record((ix, sid, parent, decision, t0, t1, x.distinct + y.distinct - d0))

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        saved = []
        try:
            for name, owners, attr, size in TRACED:
                for owner in owners:
                    orig = owner.__dict__[attr]
                    saved.append((owner, attr, orig))
                    if isinstance(orig, classmethod):
                        wrapped = classmethod(self.wrap(name, orig.__func__, size))
                    else:
                        wrapped = self.wrap(name, orig, size)
                    setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def begin(self, decision: int, x, y) -> None:
        """Charge the spans that follow to this decision and its pair."""
        self.current = (decision, x, y)

    def fold(self) -> None:
        """Add the recorded spans to the totals and drop them.

        Call it only with no span open, so every parent is in the batch.
        """
        spans = self._spans
        if spans:
            self._add(np.fromiter(itertools.chain.from_iterable(spans), dtype=np.int64,
                                  count=7 * len(spans)).reshape(-1, 7))
        self.discard()

    def _add(self, cols) -> None:
        name, sid, parent = cols[:, 0], cols[:, 1], cols[:, 2]
        dur = cols[:, 5] - cols[:, 4]
        reads = cols[:, 6]
        first = int(sid.min())
        row_of = np.empty(len(cols), dtype=np.int64)
        row_of[sid - first] = np.arange(len(cols))
        has_parent = parent >= 0
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        span_ns = np.bincount(name, weights=dur, minlength=k)
        child_ns = np.bincount(name[row_of[parent[has_parent] - first]],
                               weights=dur[has_parent], minlength=k)
        read_sum = np.bincount(name, weights=reads, minlength=k)
        for ix in np.flatnonzero(calls):
            tot = self.totals.setdefault(self.names[ix], {
                "calls": 0, "span_ns": 0.0, "self_ns": 0.0, "reads": 0,
                "size": 0, "max_reads_per_size": 0.0,
            })
            tot["calls"] += int(calls[ix])
            tot["span_ns"] += float(span_ns[ix])
            tot["self_ns"] += float(span_ns[ix] - child_ns[ix])
            tot["reads"] += int(read_sum[ix])
        for s, size in self._size.items():
            row = row_of[s - first]
            tot = self.totals[self.names[name[row]]]
            tot["size"] += size
            if size:
                tot["max_reads_per_size"] = max(tot["max_reads_per_size"],
                                                int(reads[row]) / size)

    def discard(self) -> None:
        self._spans.clear()
        self._size.clear()
        self.current = (-1, _NoPair, _NoPair)

    def take_totals(self) -> dict[str, dict[str, float]]:
        totals, self.totals = self.totals, {}
        return totals


def empty_wrapper_ns(calls: int = 100_000, repeats: int = 5) -> float:
    """Median cost in ns of one call through a wrapper around a no-op."""

    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = perf_counter_ns()
        tracer.discard()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
