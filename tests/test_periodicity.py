"""Period capture, deviation detection, transition search, zone attribution."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Boom, ref_probe_diagonal
from gaped.periodicity import (
    PeriodState,
    PeriodTransitionError,
    find_period_transition,
    mismatched_diagonals,
    probe_diagonal,
    row_deviates,
)
from gaped.qstring import QueriedString
from gaped.sampled import BLOCK, GapStream


def _periodic(pattern: bytes, n: int) -> bytes:
    return (pattern * (n // len(pattern) + 1))[:n]


def q(b) -> QueriedString:
    return QueriedString(bytes(b))


# ---------------------------------------------------------------------------
# PeriodState


def test_capture_takes_the_gcd_of_diagonal_differences():
    x = _periodic(b"abcdef", 40)
    for diagonals, g, m in (([0, 4], 4, 4), ([-2, 0, 4], 2, 6), ([0, 3, 9], 3, 9)):
        st = PeriodState.capture(q(x), diagonals, i_pat=5)
        assert (len(st.p), st.d_max, st.m) == (g, diagonals[-1], m)
        assert st.p == x[5 : 5 + g]


def test_capture_reads_the_trailing_pattern():
    x = _periodic(b"ab", 40)
    st = PeriodState.capture(q(x), [0, 2], i_pat=19)
    assert len(st.p) == 2
    assert st.m == 2
    assert st.p == x[19:21]
    assert st.d_max == 2
    # slots continue the tiling in both directions
    for k in (4, 19, 20, 22, 35):
        assert st.p[(k - st.i_pat) % len(st.p)] == x[k]


def test_capture_rejects_windows_off_the_string():
    with pytest.raises(ValueError):
        PeriodState.capture(q(b"abcd"), [0, 8], i_pat=3)


# ---------------------------------------------------------------------------
# deviation detection


def _state(x, diagonals, i_pat):
    return PeriodState.capture(q(x), diagonals, i_pat)


def test_row_deviates_sides():
    x = bytearray(_periodic(b"ab", 64))
    y = bytearray(_periodic(b"ab", 64))
    st = _state(bytes(x), [0, 2], 21)
    assert not row_deviates(q(x), q(y), st, 30)
    x2 = bytearray(x)
    x2[30] = ord("z")
    assert row_deviates(q(x2), q(y), st, 30)
    y2 = bytearray(y)
    y2[32] = ord("z")  # offset d_max ahead of the row
    assert row_deviates(q(x), q(y2), st, 30)


def test_row_deviates_out_of_range_reads_are_clean():
    x = _periodic(b"ab", 40)
    st = _state(x, [0, 2], 21)
    # row past the end of both strings touches nothing
    assert not row_deviates(q(x), q(x[:30]), st, 39)


def test_find_period_transition_matches_linear_scan():
    rng = random.Random(5)
    for _ in range(40):
        g = rng.choice((2, 4))
        pattern = bytes(rng.choices(b"abcd", k=g))
        if len(set(pattern)) == 1:
            continue
        n = 400
        x = bytearray(_periodic(pattern, n))
        y = bytearray(_periodic(pattern, n))
        st = _state(bytes(x), [0, g], 2 * g + 5)
        lo = st.i_pat + 2 * st.m + 1
        first_dev = rng.randrange(lo + 1, n - g - 1)
        side = rng.random() < 0.5
        if side:
            x[first_dev] ^= 3
        else:
            y[first_dev + st.d_max] ^= 3
        xs, ys = q(x), q(y)
        probe = first_dev + rng.randrange(0, 20)
        if not row_deviates(xs, ys, st, probe):
            continue
        got = find_period_transition(xs, ys, st, probe)
        assert got == first_dev - 1
        # every row in (got, probe] need not deviate, but got+1 must
        assert row_deviates(xs, ys, st, got + 1)
        for k in range(lo, got + 1):
            assert not row_deviates(xs, ys, st, k)


def test_find_period_transition_requires_a_deviating_row():
    x = _periodic(b"ab", 80)
    st = _state(x, [0, 2], 21)
    with pytest.raises(PeriodTransitionError):
        find_period_transition(q(x), q(x), st, 60)


def test_find_period_transition_rejects_inverted_range():
    x = _periodic(b"ab", 80)
    st = _state(x, [0, 2], 21)
    with pytest.raises(PeriodTransitionError):
        find_period_transition(q(x), q(x), st, st.i_pat + 2 * st.m)


def test_find_period_transition_query_budget():
    # binary search with a 2m-deep probe window stays logarithmic
    g = 4
    n = 1 << 14
    x = bytearray(_periodic(b"abcd", n))
    y = bytearray(_periodic(b"abcd", n))
    st = _state(bytes(x), [0, g], 40)
    y[9000 + st.d_max :] = b"z" * (n - 9000 - st.d_max)
    qx, qy = QueriedString(bytes(x)), QueriedString(bytes(y))
    got = find_period_transition(qx, qy, st, n - g - 2)
    assert got == 8999
    budget = 16 * (2 * st.m + 1) * (math.log2(n) + 1)
    assert qx.total + qy.total <= budget


# ---------------------------------------------------------------------------
# zone attribution


def test_mismatched_diagonals_charges_deviating_diagonals():
    # x leaves the period right after j: every tracked diagonal still
    # reading old-period y text mismatches within m rows
    g = 2
    x = bytearray(_periodic(b"ab", 200))
    y = bytes(_periodic(b"ab", 200))
    j = 100
    for k in range(j + 1, j + 40):
        x[k] = ord("z")
    first = mismatched_diagonals(q(x), q(y), j + 1, j + 3, [0, 2])
    assert first == {0: j + 1, 2: j + 1}


def test_mismatched_diagonals_spares_the_aligned_diagonal():
    # y takes a g-length foreign excursion at s, pushing its tail g rows
    # later: past the excursion the lag-g diagonal matches again while
    # the aligned one reads the excursion bytes
    g = 4
    n = 300
    x = bytes(_periodic(b"abcd", n))
    s = 150
    y = x[:s] + b"z" * g + x[s : n - g]
    first = mismatched_diagonals(q(x), q(y), s, s + g, [0, g])
    assert first == {0: s}


def test_mismatched_diagonals_truncates_at_string_end():
    x = _periodic(b"ab", 20)
    first = mismatched_diagonals(q(x), q(x), 19, 21, [0, 2])
    # only row 19..20 can be read; nothing mismatches
    assert first == {}


@st.composite
def _window_cases(draw):
    """Short strings over 1-3 letters, a window that may pass either end, and diagonals."""
    text = st.lists(st.sampled_from(b"abc"[:draw(st.integers(1, 3))]), max_size=40).map(bytes)
    lo = draw(st.integers(min_value=-3, max_value=45))
    hi = lo + draw(st.integers(min_value=0, max_value=6))
    diagonals = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4, unique=True))
    return draw(text), draw(text), lo, hi, diagonals


@given(case=_window_cases())
@settings(max_examples=300, deadline=None)
def test_mismatched_diagonals_matches_rate_one_probes(case):
    # The window walk makes the reads of a rate-1 row walk on each
    # diagonal: the same first mismatching rows, and ledgers down to the
    # positions.  The reference probes the window one row at a time.
    x, y, lo, hi, diagonals = case
    qx, qy, rx, ry = q(x), q(y), q(x), q(y)
    got = mismatched_diagonals(qx, qy, lo, hi, diagonals)
    want = {}
    for d in diagonals:
        row = ref_probe_diagonal(rx, ry, d, lo, hi, lambda: 1)
        if row is not None:
            want[d] = row
    assert got == want
    for walked, ref in ((qx, rx), (qy, ry)):
        assert (walked.distinct, walked.total, walked.positions_read()) == (
            ref.distinct, ref.total, ref.positions_read())


# ---------------------------------------------------------------------------
# probing


def test_probe_diagonal_rate_one_is_exhaustive():
    x = bytearray(_periodic(b"ab", 60))
    y = bytes(x)
    rng = Boom()
    assert probe_diagonal(q(x), q(y), 0, 10, 50, GapStream(1.0, rng)) is None
    x[37] = ord("z")
    x[45] = ord("z")
    assert probe_diagonal(q(x), q(y), 0, 10, 50, GapStream(1.0, rng)) == 37


def test_probe_diagonal_skips_out_of_range_rows():
    x = _periodic(b"ab", 30)
    rng = random.Random(0)
    # offset diagonal walks off y; those rows are unreadable, not mismatches
    assert probe_diagonal(q(x), q(x[:20]), 6, 10, 29, GapStream(1.0, rng)) is None


def test_probe_diagonal_low_rate_samples_each_row_independently():
    x = bytearray(_periodic(b"ab", 400))
    y = bytes(x)
    x[200] = ord("z")
    xs = bytes(x)
    hits = [probe_diagonal(q(xs), q(y), 0, 150, 250, GapStream(0.02, random.Random(s)))
            for s in range(400)]
    # one deviating row is seen only when sampled: rate 0.02, mean 8/400
    assert set(hits) <= {None, 200}
    assert 1 <= sum(h is not None for h in hits) <= 25
    x[150:251] = b"z" * 101
    xs = bytes(x)
    dense = sum(
        probe_diagonal(q(xs), q(y), 0, 150, 250, GapStream(0.02, random.Random(s))) is not None
        for s in range(400)
    )
    # 101 deviating rows: miss probability 0.98**101, mean ~347/400
    assert 300 <= dense <= 390


def test_probe_diagonal_rng_consumption_is_pinned():
    # one draw per kept row: an early hit stops drawing, a miss draws past hi;
    # the stream's next gap is the one drawn from the pinned next random()
    def gap(u):
        return 1 + int(math.log(1.0 - u) / math.log(1.0 - 0.02))

    y = _periodic(b"ab", 400)
    x = bytearray(y)
    x[150:251] = b"z" * 101
    gaps = GapStream(0.02, random.Random(5))
    assert probe_diagonal(q(x), q(y), 0, 150, 250, gaps) == 198
    assert gaps() == gap(0.7417869892607294)
    gaps = GapStream(0.02, random.Random(5))
    assert probe_diagonal(q(y), q(y), 0, 150, 250, gaps) is None
    assert gaps() == gap(0.7951935655656966)


@st.composite
def _probe_cases(draw):
    """A pair aligned on diagonal d, with a few rows broken, and a range to probe.

    y[j + d] == x[j] wherever both are in range, except at the broken
    rows.  Ranges start before row 0, end before they start or span more
    than BLOCK rows, and broken rows sit on the first and last row of a
    rate-1 block as well as anywhere.
    """
    d = draw(st.integers(min_value=-5, max_value=5))
    nx = draw(st.integers(min_value=0, max_value=2 * BLOCK + 300))
    ny = max(0, nx + draw(st.integers(min_value=-5, max_value=5)))
    lo = draw(st.integers(min_value=-8, max_value=draw(st.sampled_from([8, nx + 8]))))
    hi = lo + draw(st.sampled_from([-3, -1, 0, 1, 5, 200, BLOCK, BLOCK + 1, 2 * BLOCK + 40]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=1 << 30)))
    z = bytearray(rng.choice(b"ab") for _ in range(nx + ny + 20))
    x, y = z[10:10 + nx], z[10 - d:10 - d + ny]
    marks = st.one_of(st.sampled_from([lo, lo + 1, lo + BLOCK - 1, lo + BLOCK, hi, hi + 1]),
                      st.integers(min_value=lo, max_value=max(lo, hi)))
    for j in draw(st.lists(marks, min_size=draw(st.integers(0, 1)), max_size=3)):
        if 0 <= j < nx and 0 <= j + d < ny:
            y[j + d] = ord("c")
    return bytes(x), bytes(y), d, lo, hi


def _probe_against_the_row_walk(x, y, d, lo, hi, rate, seed):
    seen = []
    for probe in (ref_probe_diagonal, probe_diagonal):
        qx, qy, gaps = q(x), q(y), GapStream(rate, random.Random(seed))
        found = probe(qx, qy, d, lo, hi, gaps)
        seen.append((found, qx.distinct, qx.total, qy.distinct, qy.total,
                     qx.positions_read(), qy.positions_read(), [gaps() for _ in range(5)]))
    assert seen[1] == seen[0]
    return seen[0][0]


@given(case=_probe_cases(), rate=st.sampled_from([1.0, 0.9, 0.5, 0.05, 0.002, 2e-16]),
       seed=st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=300, deadline=None)
def test_probe_diagonal_matches_the_row_walk(case, rate, seed):
    # The block probe must make the row walk's reads and draws: the same
    # hit row, ledgers down to the positions, and the same gaps left next.
    # At rate 2e-16, near the smallest legal one, 4096 uncut gaps would
    # overflow their int64 running sum.
    _probe_against_the_row_walk(*case, rate, seed)


@pytest.mark.parametrize("broken", [0, BLOCK - 1, BLOCK, BLOCK + 99])
def test_probe_diagonal_finds_a_mismatch_on_a_block_edge(broken):
    # At rate 1 the first block holds rows lo .. lo + BLOCK - 1; break its
    # first or last row, the next block's first row, or the last row hi.
    lo, hi = 3, 3 + BLOCK + 99
    y = _periodic(b"ab", 2 * BLOCK)
    x = bytearray(y)
    x[lo + broken] = ord("z")
    assert _probe_against_the_row_walk(bytes(x), y, 0, lo, hi, 1.0, 0) == lo + broken
    _probe_against_the_row_walk(bytes(x), y, 0, lo, hi, 0.9, 7)
