"""The diagonal-transition oracle against the full-DP and banded references."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    INF,
    mutate,
    periodic_pairs,
    random_bytes,
    ref_banded_costs,
    ref_cost_table,
    ref_edit_distance,
    ref_optimal_alignment,
    ref_potent_sets,
)
import gaped.oracle
from gaped.alignment import validate_alignment
from gaped.oracle import banded_edit_distance, edit_distance
from gaped.qstring import QueriedString

short = st.binary(min_size=0, max_size=24)


def test_known_distances():
    assert edit_distance(b"kitten", b"sitting") == 3
    assert edit_distance(b"", b"abc") == 3
    assert edit_distance(b"abc", b"") == 3
    assert edit_distance(b"abc", b"abc") == 0
    assert edit_distance(b"flaw", b"lawn") == 2


@given(x=short, y=short)
def test_edit_distance_matches_reference(x, y):
    assert edit_distance(x, y) == ref_edit_distance(x, y)


@given(x=short, y=short)
def test_metric_properties(x, y):
    d = edit_distance(x, y)
    assert d == edit_distance(y, x)
    assert (d == 0) == (x == y)
    assert abs(len(x) - len(y)) <= d <= max(len(x), len(y))


def test_read_through_queried_strings_fills_ledger():
    x, y = QueriedString(b"abcd"), QueriedString(b"abed")
    assert edit_distance(x, y) == 1
    assert x.distinct == 4 and y.distinct == 4


@given(x=short, y=short, band=st.integers(min_value=0, max_value=12))
def test_banded_agrees_with_full(x, y, band):
    d = ref_edit_distance(x, y)
    got = banded_edit_distance(x, y, band)
    if d <= band:
        assert got == d
    else:
        assert got is None


def test_banded_none_is_a_certificate():
    # distance is exactly 8; any band below that must refuse
    x = b"a" * 40
    y = b"a" * 32
    for band in range(8):
        assert banded_edit_distance(x, y, band) is None
    assert banded_edit_distance(x, y, 8) == 8


@given(pair=periodic_pairs(), band=st.integers(min_value=0, max_value=40))
@settings(max_examples=300, deadline=None)
def test_banded_agrees_with_full_on_long_periodic_pairs(pair, band):
    # Long matching runs on many diagonals at once: slides cross gather
    # chunks, and the live range is clipped at d_end.
    x, y = pair
    d = int(ref_cost_table(x, y)[-1, -1])
    assert banded_edit_distance(x, y, band) == (d if d <= band else None)
    assert edit_distance(x, y) == d


@pytest.mark.parametrize("gather", [4096, 7, 1])
def test_banded_slides_many_diagonals_in_chunks(monkeypatch, gather):
    # Every live diagonal slides through the long run at once, so the
    # word read-ahead is split across gathers of at most `gather` words,
    # and the diagonal that reaches the end can sit in any of them.
    monkeypatch.setattr(gaped.oracle, "_GATHER", gather)
    handed = []  # live diagonals handed to each gather
    slide = gaped.oracle._gather

    def counted(row, ds, lims, live, *words):
        handed.append(live.size)
        slide(row, ds, lims, live, *words)

    monkeypatch.setattr(gaped.oracle, "_gather", counted)
    a = b"a" * 3000
    cases = ((a, b"a" * 2990 + b"b" * 10, 10), (a, b"b" * 10 + a, 10),
             (a, a[:2950], 50), (b"ab" * 1500, b"ba" * 1500, 2))
    for x, y, dist in cases:
        for band in (0, dist - 1, dist, dist + 1, 64):
            want = dist if band >= dist else None
            assert banded_edit_distance(x, y, band) == want, (len(x), len(y), band)
            assert banded_edit_distance(y, x, band) == want, (len(y), len(x), band)
    assert gather == 4096 or max(handed) > gather  # chunk boundaries crossed


@st.composite
def word_pairs(draw):
    """x of 0-40 bytes, near a multiple of the 8-byte word, over a few byte
    values (the zero pad byte among the candidates), and y = x after a few
    edits with any byte value, either way round."""
    n = min(40, max(0, 8 * draw(st.integers(0, 5)) + draw(st.integers(-1, 1))))
    letters = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4))
    x = bytes(draw(st.lists(st.sampled_from(letters), min_size=n, max_size=n)))
    y = bytearray(x)
    for _ in range(draw(st.integers(0, 4))):
        op, pos = draw(st.integers(0, 2)), draw(st.integers(0, len(y)))
        byte = draw(st.integers(0, 255))
        if op == 0:
            y.insert(pos, byte)
        elif pos < len(y):
            y[pos:pos + 1] = b"" if op == 1 else bytes([byte])
    return (bytes(y), x) if draw(st.booleans()) else (x, bytes(y))


@given(pair=word_pairs(), gather=st.sampled_from([4096, 1]))
@settings(max_examples=400, deadline=None)
def test_word_slides_match_the_full_dp(pair, gather):
    # Slides that stop inside a word, end exactly at a word boundary or at
    # the last row, with pad bytes that match the strings' own bytes; bands
    # at the distance and one either side.  One-word gathers make short
    # slides cross gather passes too.
    x, y = pair
    d = int(ref_cost_table(x, y)[-1, -1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gaped.oracle, "_GATHER", gather)
        assert edit_distance(x, y) == d == ref_edit_distance(x, y)
        for band in range(max(0, d - 1), d + 2):
            want = d if d <= band else None
            assert banded_edit_distance(x, y, band) == want, band


def test_every_byte_value_slides_to_the_end():
    # A run of one byte value to the end of both strings, for all 256
    # values: the zero run matches the pad, which the cap at lim must stop.
    for v in range(256):
        c, other = bytes([v]), bytes([v ^ 1])
        for n in (9, 16):
            x = c * n
            for y in (x, x[:-1], x[:-1] + other, c * (n + 8)):
                d = ref_edit_distance(x, y)
                for band in range(max(0, d - 1), d + 2):
                    want = d if d <= band else None
                    assert banded_edit_distance(x, y, band) == want, (v, n, y)
                    assert banded_edit_distance(y, x, band) == want, (v, n, y)


def test_banded_band_past_both_lengths_is_exact():
    # No distance exceeds max(|x|, |y|), so a larger band changes no
    # answer; the arrays are sized by the input, not by the band.
    for x, y in ((b"kitten", b"sitting"), (b"", b"abc"), (b"a", b""),
                 (b"abcd" * 50, b"abed" * 50)):
        assert banded_edit_distance(x, y, 10**15) == ref_edit_distance(x, y)


def test_banded_reads_everything_on_every_path():
    # a distance, a None from the band, and a None from the length check
    for x, y, band, want in ((b"abcd" * 50, b"abed" * 50, 60, 50),
                             (b"abcd" * 50, b"abed" * 50, 49, None),
                             (b"ab" * 40, b"ab" * 30, 5, None)):
        qx, qy = QueriedString(x), QueriedString(y)
        assert banded_edit_distance(qx, qy, band) == want
        assert qx.distinct == len(x) and qy.distinct == len(y)
        assert qx.total == len(x) and qy.total == len(y)


@given(x=short, y=short)
@settings(max_examples=40)
def test_full_cost_table_cells(x, y):
    m = ref_cost_table(x, y)
    assert m.shape == (len(x) + 1, len(y) + 1)
    assert list(m[0]) == list(range(len(y) + 1))
    assert [int(r[0]) for r in m] == list(range(len(x) + 1))
    assert int(m[len(x)][len(y)]) == ref_edit_distance(x, y)
    # spot-check interior cells as prefix distances
    rng = random.Random(len(x) * 31 + len(y))
    for _ in range(4):
        i = rng.randrange(len(x) + 1)
        j = rng.randrange(len(y) + 1)
        assert int(m[i][j]) == ref_edit_distance(x[:i], y[:j])


@given(x=short, y=short)
@settings(max_examples=60)
def test_optimal_alignment_replays_to_optimal_cost(x, y):
    assert validate_alignment(ref_optimal_alignment(x, y), x, y) == ref_edit_distance(x, y)


def test_banded_cost_table_matches_reference():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randrange(1, 40)
        x = random_bytes(rng, n)
        y = mutate(rng, x, rng.randrange(0, 6))
        t = rng.choice((2, 4, 8))
        rows = ref_banded_costs(x, y, t)
        m = ref_cost_table(x, y)
        for i in range(len(x) + 1):
            for k in range(2 * t + 1):
                d = k - t
                if i + d < 0:
                    assert rows[i][k] >= INF
                    continue
                # the band only adds constraints, so banded costs can
                # never undercut the unrestricted grid
                if i + d <= len(y):
                    assert rows[i][k] >= int(m[i][i + d])


def test_banded_cost_table_phantom_region():
    # past |y| the cheapest route inserts phantom characters, one per
    # diagonal step; staying on a diagonal there pays a mismatch per row
    rows = ref_banded_costs(b"aaaa", b"aa", 4)
    t = 4
    assert rows[2][2 + t] == 2  # (2, d=2): two phantom insertions
    assert rows[3][2 + t] == 3  # one real mismatch row later
    assert rows[3][0 + t] == 1  # (3, d=0): "aaa" vs "aa" + phantom


def test_potent_row0_cascade_is_mismatch_driven():
    # equal heads stop the row-0 cascade at diagonal 0
    assert ref_potent_sets(b"ab", b"ab", 2)[0] == {0}
    # all-mismatch heads cascade across the whole row
    assert ref_potent_sets(b"aa", b"bb", 2)[0] == {0, 1, 2}


def test_nonpotent_cells_freeze_and_potent_mismatches_pay():
    # the two cost-propagation laws the selective scan is built on:
    # non-potent cells keep their cost on the next row; potent cells pay
    # exactly the mismatch indicator.
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randrange(2, 35)
        x = random_bytes(rng, n, b"ab")
        y = mutate(rng, x, rng.randrange(0, 7), b"ab")
        t = 3
        costs = ref_banded_costs(x, y, t)
        potent = ref_potent_sets(x, y, t)
        for i in range(n):
            for k in range(2 * t + 1):
                d = k - t
                if i + d < 0 or costs[i][k] >= INF:
                    continue
                here, below = costs[i][k], costs[i + 1][k]
                xc = x[i] if i < len(x) else None
                yc = y[i + d] if 0 <= i + d < len(y) else None
                mis = xc is None or yc is None or xc != yc
                if d not in potent[i]:
                    assert below == here, (i, d)
                elif mis:
                    assert below == here + 1, (i, d)
                else:
                    assert below == here and d in potent[i + 1], (i, d)


def test_cost_tables_on_numpy_and_python_agree_for_large_alphabet():
    rng = random.Random(23)
    x = bytes(rng.randrange(256) for _ in range(50))
    y = bytes(rng.randrange(256) for _ in range(55))
    assert edit_distance(x, y) == ref_edit_distance(x, y)
    m = ref_cost_table(x, y)
    assert int(m[-1][-1]) == ref_edit_distance(x, y)
    assert np.all(np.diff(m[0]) == 1)
