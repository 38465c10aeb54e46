"""The three gaped workloads: corpora built from a seed, the closed
decision loop, and the certificate checks.

Every decision gets fresh ``QueriedString``s, so its ledger covers that
decision alone, and goes through the public API looked up on its module
at call time (``gaped.tester.run``, ``gaped.sampled.run_sampled_tester``,
``gaped.scan.selective_scan``), so a traced run sees it.  The library
receives only the generated bytes and each decision's parameters.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

import gaped.generators
import gaped.oracle
import gaped.sampled
import gaped.scan
import gaped.tester
from gaped.alignment import MalformedAlignment, validate_alignment
from gaped.qstring import QueriedString
from gaped.tester import TesterConfig
from gaped.verdict import Verdict

# ROADMAP item 1: edit distance 3 = t/2 at t = 6, yet the main tester
# answers Far.  It stays in edits-4k so the known defect keeps showing.
REPRO_X = b"ab" * 139 + b"a"
REPRO_Y = REPRO_X[:6] + b"d" + REPRO_X[7:48] + b"c" + REPRO_X[48:177] + b"d" + REPRO_X[177:]
REPRO_T = 6


class SetupError(RuntimeError):
    """A generated pair lacks the certificate its workload promises."""


@dataclass(frozen=True)
class Decision:
    """One call into a tester.

    tester is "main", "warmup" or "scan"; pair is "close" or "far" (by
    certificate) or "repro" (the item-1 reproducer, Close by the exact
    oracle).  reference is the banded oracle's answer for scan decisions.
    """

    tester: str
    pair: str
    x: bytes
    y: bytes
    t: int
    eps: float = 0.0
    c_s: float = 3.0
    seed: int = 0
    reference: int | None = None

    @property
    def far_threshold(self) -> float:
        return 13 * self.t ** (2 - self.eps)

    @property
    def rate(self) -> float:
        """The main tester's sampling rate min(1, c_s ln n / t^(1-eps))."""
        n = max(len(self.x), len(self.y), 2)
        return min(1.0, self.c_s * math.log(n) / self.t ** (1 - self.eps))


def _seed(rng: random.Random) -> int:
    return rng.randrange(1 << 30)


def _build_splice(rng: random.Random) -> list[Decision]:
    # Close by certificate: equal lengths, so the Hamming distance on
    # diagonal 0 (4 for three transitions plus the opener) bounds ED.
    out = []
    for _ in range(70):
        x, y = gaped.generators.gen_periodic_splice(1 << 17, 2, 3, _seed(rng))
        ham = int(np.count_nonzero(np.frombuffer(x, np.uint8) != np.frombuffer(y, np.uint8)))
        if len(x) != len(y) or ham > 16 // 2:
            raise SetupError(f"splice pair has Hamming distance {ham}")
        out.append(Decision("main", "close", x, y, t=16, c_s=1.0, seed=_seed(rng)))
    return out


def _build_sparse(rng: random.Random) -> list[Decision]:
    # Close by construction: k <= 32 = t/2 edits.
    out = []
    for _ in range(48):
        k = rng.randint(0, 32)
        x, y = gaped.generators.gen_random_edits(1 << 16, k, _seed(rng))
        out.append(Decision("main", "close", x, y, t=64, eps=0.5, c_s=0.5, seed=_seed(rng)))
    return out


def _build_edits(rng: random.Random) -> list[Decision]:
    out = []
    for i in range(100):
        # Close by construction: k <= 4 = t/2 edits.
        x, y = gaped.generators.gen_random_edits(4096, rng.randint(0, 4), _seed(rng))
        out.append(Decision("main", "close", x, y, t=8, seed=_seed(rng)))
        if i < 20:
            out.append(Decision("warmup", "close", x, y, t=8, seed=_seed(rng)))
            ref = gaped.oracle.banded_edit_distance(x, y, 8)
            out.append(Decision("scan", "close", x, y, t=8, reference=ref))
    ed = gaped.oracle.edit_distance(REPRO_X, REPRO_Y)
    if ed > REPRO_T // 2:
        raise SetupError(f"reproducer has edit distance {ed}")
    out.append(Decision("main", "repro", REPRO_X, REPRO_Y, t=REPRO_T, seed=_seed(rng)))
    for _ in range(10):
        # Far by the exact oracle: ED > 13 * 8^2 = 832.
        x, y, _ = gaped.generators.gen_certified_far(4096, 8, _seed(rng))
        for _ in range(10):
            out.append(Decision("main", "far", x, y, t=8, seed=_seed(rng)))
            out.append(Decision("warmup", "far", x, y, t=8, seed=_seed(rng)))
    return out


BUILDERS = {
    "splice-128k": _build_splice,
    "sparse-64k": _build_sparse,
    "edits-4k": _build_edits,
}


def build(workload: str, seed: int) -> list[Decision]:
    """The workload's decision schedule; the same seed gives the same one."""
    return BUILDERS[workload](random.Random(f"{workload}/{seed}"))


def schedule_digest(schedule: list[Decision]) -> str:
    h = hashlib.sha256()
    for d in schedule:
        h.update(repr((d.tester, d.pair, d.t, d.eps, d.c_s, d.seed, d.reference)).encode())
        h.update(d.x)
        h.update(d.y)
    return h.hexdigest()


@dataclass
class Outcome:
    """What one decision returned, with its ledger and wall time."""

    ns: int
    result: object
    distinct: int
    total: int

    def fingerprint(self):
        """Everything the run must reproduce exactly, timing aside."""
        r = self.result
        if isinstance(r, Verdict):
            stats = r.stats
            extra = ()
            if stats is not None:
                extra = (stats.sampled_rows, stats.contiguous_rows)
            cert = r.alignment.encode() if r.alignment is not None else None
            r = (r.answer.value, r.final_a0, r.mode_transitions, extra, cert)
        elif isinstance(r, Exception):
            r = ("error", type(r).__name__, str(r))
        return (r, self.distinct, self.total)


_REF_DATA = random.Random(0).randbytes(1 << 16)
# The speed that drift-corrected times are quoted at: reference_ns() takes
# 0.9-1.0 ms on the host that recorded perfbench/meta.json when it runs at
# full speed, and up to 2 ms when it does not.
REFERENCE_NOMINAL_NS = 1_000_000


class _RefLedger:
    """A frozen model of a counted string: a read marks its position seen."""

    __slots__ = ("data", "seen", "distinct", "total")

    def __init__(self, data: bytes):
        self.data = data
        self.seen = bytearray(len(data))
        self.distinct = 0
        self.total = 0

    def read(self, i: int) -> int | None:
        if 0 <= i < len(self.data):
            self.total += 1
            if not self.seen[i]:
                self.seen[i] = 1
                self.distinct += 1
            return self.data[i]
        return None


def reference_ns() -> int:
    """Wall time of a fixed pure-Python computation, about 1 ms.

    It models a sampled tester row, with no gaped code in it: a geometric
    gap drawn from random.Random, a counted read of each of two 64 KiB
    strings, and a compare.  A shared host can change speed by up to 2x
    for seconds to minutes at a time; a time divided by this one, taken
    next to it, cancels most of that drift.
    """
    t0 = perf_counter_ns()
    rng = random.Random(7)
    x, y = _RefLedger(_REF_DATA), _RefLedger(_REF_DATA)
    last = len(_REF_DATA) - 1
    i = same = 0
    for _ in range(1200):
        i = (i + 1 + int(math.log(1.0 - rng.random()) / -0.3)) % last
        same += x.read(i) == y.read(i + 1)
    return perf_counter_ns() - t0


def execute(d: Decision, tracer=None, decision_id: int = -1) -> Outcome:
    """Run one decision on fresh QueriedStrings; exceptions are returned."""
    x, y = QueriedString(d.x), QueriedString(d.y)
    if tracer is not None:
        tracer.begin(decision_id, x, y)
    t0 = perf_counter_ns()
    try:
        if d.tester == "main":
            cfg = TesterConfig(t=d.t, epsilon=d.eps, c_s=d.c_s, seed=d.seed)
            result = gaped.tester.run(x, y, cfg)
        elif d.tester == "warmup":
            result = gaped.sampled.run_sampled_tester(x, y, d.t, d.c_s, random.Random(d.seed))
        else:
            result = gaped.scan.selective_scan(x, y, d.t)
    except Exception as exc:  # counted as a failed decision, never fatal
        result = exc
    ns = perf_counter_ns() - t0
    if tracer is not None:
        tracer.fold()
    return Outcome(ns, result, x.distinct + y.distinct, x.total + y.total)


def contradiction(d: Decision, out: Outcome) -> str | None:
    """How the outcome contradicts the pair's certificate, if it does."""
    r = out.result
    if isinstance(r, Exception):
        return None
    if d.tester == "scan":
        if r != d.reference:
            return f"selective_scan returned {r}, banded_edit_distance {d.reference}"
        return None
    if d.pair == "far":
        return None
    if not r.is_close:
        return f"{d.tester} tester answered Far on a certified-Close pair"
    if d.tester == "main":
        if r.alignment is None:
            return "Close verdict carries no certificate"
        try:
            cost = validate_alignment(r.alignment, d.x, d.y)
        except MalformedAlignment as exc:
            return f"Close certificate is malformed: {exc}"
        if cost > d.far_threshold:
            return f"Close certificate prices at {cost} > {d.far_threshold:g}"
    return None


class Loop:
    """Closed loop over a schedule: each decision starts when the last ends.

    The first pass is the checked pass: its outcomes are checked against
    the certificates and give every count.  Later passes must reproduce
    its fingerprints exactly and add timing samples.  Each main-tester
    Close decision is bracketed by two reference_ns() timings, outside
    its own timing.
    """

    def __init__(self, schedule: list[Decision]):
        self.schedule = schedule
        self.first: list[Outcome] = []
        # (schedule index, decision ns, mean of the bracketing reference ns)
        self.samples: list[tuple[int, int, float | None]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[tuple[int, str]] = []

    def _step(self, k: int, tracer=None) -> Outcome:
        d = self.schedule[k]
        bracket = d.tester == "main" and d.pair == "close"
        before = reference_ns() if bracket else 0
        out = execute(d, tracer, k)
        ref = (before + reference_ns()) / 2 if bracket else None
        self.attempted += 1
        self.samples.append((k, out.ns, ref))
        if isinstance(out.result, Exception):
            self.failures.append(f"decision {k} ({d.tester}/{d.pair}) raised {out.result!r}")
        if len(self.first) <= k:
            self.first.append(out)
            why = contradiction(d, out)
            if why is not None:
                self.errors.append((k, why))
        elif out.fingerprint() != self.first[k].fingerprint():
            self.failures.append(f"decision {k} did not repeat its first outcome")
        return out

    def run_pass(self, tracer=None) -> int:
        """One pass over the schedule; returns its summed decision time in ns."""
        return sum(self._step(k, tracer).ns for k in range(len(self.schedule)))

    def run_until(self, deadline_ns: int, between=lambda: None) -> None:
        """At least one full pass, then decisions in schedule order until
        the deadline; between() runs after every decision, untimed."""
        k = 0
        while k < len(self.schedule) or perf_counter_ns() < deadline_ns:
            self._step(k % len(self.schedule))
            between()
            k += 1
