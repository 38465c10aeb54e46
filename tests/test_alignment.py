"""Succinct alignment certificates: encoding, validation, full-DP alignments."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import mutate, random_bytes, ref_edit_distance, ref_optimal_alignment
from gaped.alignment import (
    DIAG_DOWN,
    DIAG_UP,
    SUBSTITUTION,
    MalformedAlignment,
    SuccinctAlignment,
    validate_alignment,
)
from gaped.qstring import QueriedString

KINDS = (SUBSTITUTION, DIAG_UP, DIAG_DOWN)

segments_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 40),
        st.integers(min_value=0, max_value=1 << 12),
        st.integers(min_value=-(1 << 20), max_value=1 << 20),
    ).map(lambda s: (s[0], s[0] + s[1], s[2])),
    min_size=0,
    max_size=10,
)
events_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1 << 40),
        st.integers(min_value=-(1 << 20), max_value=1 << 20),
        st.sampled_from(KINDS),
    ),
    min_size=0,
    max_size=10,
)


@given(segments=segments_st, events=events_st)
@example(segments=[(0, 1, 1 << 63)], events=[(0, 1 << 63, SUBSTITUTION)])
@example(segments=[(0, 1, -(1 << 63) - 1)], events=[(0, -(1 << 63) - 1, DIAG_DOWN)])
@example(segments=[(0, 1, (1 << 64) + 3)], events=[(0, (1 << 64) + 3, DIAG_UP)])
def test_encode_decode_round_trip(segments, events):
    a = SuccinctAlignment(segments=tuple(segments), events=tuple(events))
    data = a.encode()
    assert SuccinctAlignment.decode(data) == a
    assert a.bit_size == 8 * len(data)


def test_decode_rejects_truncation_and_trailing_bytes():
    a = SuccinctAlignment(
        segments=((0, 5, 0), (5, 9, -1)),
        events=((5, -1, DIAG_DOWN),),
    )
    data = a.encode()
    with pytest.raises(MalformedAlignment):
        SuccinctAlignment.decode(data[:-1])
    with pytest.raises(MalformedAlignment):
        SuccinctAlignment.decode(data + b"\x00")


def test_encode_rejects_a_backwards_segment():
    # a segment is stored as its low row and its length, which must be >= 0
    with pytest.raises(ValueError):
        SuccinctAlignment(segments=((5, 4, 0),), events=()).encode()


def test_decode_rejects_unknown_event_kind():
    raw = bytearray(SuccinctAlignment(segments=(), events=((1, 0, SUBSTITUTION),)).encode())
    raw[-1] = 9  # event kind code past the known range
    with pytest.raises(MalformedAlignment):
        SuccinctAlignment.decode(bytes(raw))


def test_validate_prices_hamming_plus_moves():
    x = b"abcdef"
    y = b"abXdef"
    flat = SuccinctAlignment(segments=((0, 6, 0),), events=())
    assert validate_alignment(flat, x, y) == 1
    # a detour up and back costs two moves plus whatever it mismatches
    detour = SuccinctAlignment(
        segments=((0, 3, 0), (3, 5, 1), (5, 6, 0)),
        events=(),
    )
    cost = validate_alignment(detour, x, y)
    assert cost >= 2


def test_validate_counts_out_of_range_rows_as_mismatches():
    a = SuccinctAlignment(segments=((0, 4, 0),), events=())
    assert validate_alignment(a, b"ab", b"ab") == 2
    assert validate_alignment(a, b"abcd", b"ab") == 2


def test_validate_accepts_every_byte_string_type():
    a = SuccinctAlignment(segments=((0, 2, 0),), events=())
    for x in (b"ab", bytearray(b"ab"), memoryview(b"ab"), "ab", QueriedString(b"ab")):
        assert validate_alignment(a, x, bytearray(b"aX")) == 1
    q = QueriedString(b"ab")
    validate_alignment(a, q, memoryview(b"ab"))
    assert q.distinct == q.total == 0  # certificate checks are unmetered
    for bad in (5, None, [97, 98]):
        with pytest.raises(TypeError):
            validate_alignment(a, bad, b"ab")


def test_validate_rejects_broken_chains():
    with pytest.raises(MalformedAlignment):
        validate_alignment(SuccinctAlignment(segments=(), events=()), b"a", b"a")
    gap_up = SuccinctAlignment(segments=((0, 2, 0), (3, 4, 1)), events=())
    with pytest.raises(MalformedAlignment):
        validate_alignment(gap_up, b"abcd", b"abcd")
    backwards = SuccinctAlignment(segments=((0, 2, 0), (1, 4, 0)), events=())
    with pytest.raises(MalformedAlignment):
        validate_alignment(backwards, b"abcd", b"abcd")
    # rows -2 and -1 lie outside x; they must not wrap to its end
    before_x = SuccinctAlignment(segments=((-2, 2, 2),), events=())
    with pytest.raises(MalformedAlignment):
        validate_alignment(before_x, b"abab", b"abab")


def test_validate_allows_deletion_gaps_up_to_the_drop():
    # moving down k diagonals may skip up to k rows: those rows are
    # consumed by the deletions themselves
    x, y = b"aXYab", b"aab"
    a = SuccinctAlignment(segments=((0, 1, 0), (3, 5, -2)), events=())
    assert validate_alignment(a, x, y) == 2
    too_far = SuccinctAlignment(segments=((0, 1, 0), (4, 5, -2)), events=())
    with pytest.raises(MalformedAlignment):
        validate_alignment(too_far, x, y)


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_oracle_alignments_convert_and_price_exactly(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**9)))
    n = rng.randrange(0, 50)
    x = random_bytes(rng, n)
    y = mutate(rng, x, rng.randrange(0, 10))
    succ = ref_optimal_alignment(x, y)
    # the chain covers both strings: it starts at (0, 0) and ends at (|x|, |y|)
    assert succ.segments[0][0] == succ.segments[0][2] == 0
    assert succ.segments[-1][1:] == (len(x), len(y) - len(x))
    assert validate_alignment(succ, x, y) == ref_edit_distance(x, y)
    # encoding survives the trip
    assert SuccinctAlignment.decode(succ.encode()) == succ


ORACLE_PINS = (
    (b"abcdef", b"abXdefg",
     ((0, 6, 0), (6, 6, 1)),
     ((2, 0, SUBSTITUTION), (6, 1, DIAG_UP))),
    (b"aXYab", b"aab",
     ((0, 1, 0), (2, 2, -1), (3, 5, -2)),
     ((1, -1, DIAG_DOWN), (2, -2, DIAG_DOWN))),
    (b"", b"ab",
     ((0, 0, 0), (0, 0, 1), (0, 0, 2)),
     ((0, 1, DIAG_UP), (0, 2, DIAG_UP))),
    (b"ab", b"",
     ((0, 0, 0), (1, 1, -1), (2, 2, -2)),
     ((0, -1, DIAG_DOWN), (1, -2, DIAG_DOWN))),
)


@pytest.mark.parametrize("x, y, segments, events", ORACLE_PINS)
def test_oracle_alignment_pins(x, y, segments, events):
    assert ref_optimal_alignment(x, y) == SuccinctAlignment(segments=segments, events=events)


def test_conversion_structure_for_a_known_case():
    # x -> y with one substitution and one insertion
    x, y = b"abcdef", b"abXdefg"
    succ = ref_optimal_alignment(x, y)
    assert succ.segments[0][0] == 0
    assert succ.segments[-1][1] == len(x)
    assert sum(1 for e in succ.events if e[2] == SUBSTITUTION) == 1
    assert sum(1 for e in succ.events if e[2] == DIAG_UP) == 1
    assert validate_alignment(succ, x, y) == 2
