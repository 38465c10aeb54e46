"""Bounded-exhaustive checks: every small input, every claim with no probability.

The Close claims hold for every seed and every rate, and the selective
scan is exact, so they can be checked on every input up to a size rather
than on sampled ones (the small-scope hypothesis).  Two families are
enumerated: every binary pair with |x|, |y| <= 4 and ||x| - |y|| <= 3 at
every t from 1 to 6 and c_s in {0.05, 3}, and a periodic x = (ab)^6
against x with three substitutions to c or d, both ways round, at t = 6
and c_s in {0.05, 0.5}.  Every run is at seed 0, and for every run:

- selective_scan returns ED when ED <= t, and None otherwise;
- the main tester answers Close, with final_a0 <= ED, when 2 ED <= t;
- the warm-up tester answers Close when ED <= t;
- a Close certificate of the main tester runs from row 0 on diagonal 0
  to row |x| on diagonal |y| - |x|, and passes validate_alignment at a
  price of at most 13 t^2;
- each ledger has distinct <= total and distinct <= |x| + |y|.

Close rests on final_a0 <= ED: the finishing diagonal's counter must not
pass the distance.  A tester that finishes on diagonal 0 after
max(|x|, |y|) rows, charging the rows past the shorter string, breaks
both that and the endpoint on unequal lengths (ROADMAP item 1, Cause B).
"""

import itertools
import random

import pytest

from conftest import ref_edit_distance
from gaped.alignment import validate_alignment
from gaped.qstring import QueriedString, ledger_snapshot
from gaped.sampled import run_sampled_tester
from gaped.scan import selective_scan
from gaped.tester import TesterConfig, run

pytestmark = pytest.mark.filterwarnings("ignore:t=.*exceeds sqrt")


def _assert_ledger(ledger, x, y, case):
    assert ledger.distinct_total <= ledger.total_accesses, case
    assert ledger.distinct_total <= len(x) + len(y), case


def _check_pair(x: bytes, y: bytes, ts, c_ss) -> int:
    """The scan at each t and both testers at each (t, c_s); returns the tester runs."""
    ed = ref_edit_distance(x, y)
    runs = 0
    for t in ts:
        qx, qy = QueriedString(x), QueriedString(y)
        assert selective_scan(qx, qy, t) == (ed if ed <= t else None), (x, y, t)
        _assert_ledger(ledger_snapshot(qx, qy), x, y, (x, y, t))
        for c_s in c_ss:
            case = (x, y, t, c_s)
            v = run(QueriedString(x), QueriedString(y), TesterConfig(t=t, c_s=c_s, seed=0))
            if 2 * ed <= t:
                assert v.is_close and v.final_a0 <= ed, case
            if v.is_close:
                segments = v.alignment.segments
                assert segments[0][::2] == (0, 0), case
                assert segments[-1][1:] == (len(x), len(y) - len(x)), case
                assert validate_alignment(v.alignment, x, y) <= 13 * t * t, case
            _assert_ledger(v.ledger, x, y, case)
            w = run_sampled_tester(x, y, t, c_s, random.Random(0))
            if ed <= t:
                assert w.is_close, case
            _assert_ledger(w.ledger, x, y, case)
            runs += 1
    return runs


def _binary_strings(most: int):
    for n in range(most + 1):
        for letters in itertools.product(b"ab", repeat=n):
            yield bytes(letters)


def test_every_small_binary_pair():
    strings = list(_binary_strings(4))
    runs = sum(_check_pair(x, y, range(1, 7), (0.05, 3.0))
               for x in strings for y in strings if abs(len(x) - len(y)) <= 3)
    assert runs == 929 * 6 * 2


def test_every_three_substitutions_of_a_periodic_string():
    x = b"ab" * 6
    runs = 0
    for at in itertools.combinations(range(len(x)), 3):
        for letters in itertools.product(b"cd", repeat=3):
            y = bytearray(x)
            for i, c in zip(at, letters):
                y[i] = c
            runs += _check_pair(x, bytes(y), (6,), (0.05, 0.5))
            runs += _check_pair(bytes(y), x, (6,), (0.05, 0.5))
    assert runs == 220 * 8 * 2 * 2
