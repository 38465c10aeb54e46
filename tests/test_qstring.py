"""Query-ledger accounting on instrumented strings, and the one input rule."""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaped.alignment import SuccinctAlignment, validate_alignment
from gaped.generators import certify_far
from gaped.oracle import banded_edit_distance, edit_distance
from gaped.qstring import QueriedString, as_queried, bytes_match, ledger_snapshot
from gaped.sampled import run_sampled_tester
from gaped.scan import selective_scan
from gaped.tester import TesterConfig, run


def test_read_in_range_returns_byte_value():
    s = QueriedString(b"abc")
    assert s.read(0) == ord("a")
    assert s.read(2) == ord("c")


def test_read_out_of_range_returns_none_and_is_free():
    s = QueriedString(b"abc")
    assert s.read(-1) is None
    assert s.read(3) is None
    assert s.distinct == 0
    assert s.total == 0


def test_distinct_counts_positions_once_total_counts_repeats():
    s = QueriedString(b"abcd")
    for _ in range(3):
        s.read(1)
    s.read(2)
    assert s.distinct == 2
    assert s.total == 4
    assert s.positions_read() == [1, 2]


def test_read_all_marks_everything():
    s = QueriedString(b"abcd")
    assert s.read_all() == b"abcd"
    assert s.distinct == 4
    assert s.positions_read() == [0, 1, 2, 3]


def test_str_input_is_ascii_encoded():
    assert QueriedString("abc").data == b"abc"


def test_non_ascii_str_input_is_a_value_error_naming_the_position():
    alignment = SuccinctAlignment(segments=((0, 3, 0),), events=())
    calls = {
        2: lambda: run("abé", "abc", TesterConfig(t=1)),
        1: lambda: selective_scan("abc", "aéc", 1),
        0: lambda: edit_distance("ébc", "abc"),
        3: lambda: validate_alignment(alignment, "abc", "abcé"),
    }
    for pos, call in calls.items():
        message = f"must be ASCII; found 'é' at position {pos}$"
        with pytest.raises(ValueError, match=message):
            call()


X, Y = b"the quick brown fox jumps", b"the quick brwn fox jumped"
_DIAGONAL = SuccinctAlignment(segments=((0, len(X), 0),), events=())
ENTRY_POINTS = {
    "run": lambda x, y: run(x, y, TesterConfig(t=4, seed=1)),
    "run_sampled_tester": lambda x, y: run_sampled_tester(x, y, 4, 1.0, random.Random(1)),
    "selective_scan": lambda x, y: selective_scan(x, y, 4),
    "edit_distance": edit_distance,
    "banded_edit_distance": lambda x, y: banded_edit_distance(x, y, 4),
    "certify_far": lambda x, y: certify_far(x, y, 2),
    "validate_alignment": lambda x, y: validate_alignment(_DIAGONAL, x, y),
    "QueriedString": lambda x, y: (QueriedString(x).data, QueriedString(y).data),
}
ACCEPTED = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": memoryview,
    "str": lambda b: b.decode("ascii"),
    "QueriedString": QueriedString,
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_share_one_input_rule(name):
    call = ENTRY_POINTS[name]
    for bad in (5, None, 2.5, [97]):
        with pytest.raises(TypeError, match=type(bad).__name__):
            call(bad, Y)
        with pytest.raises(TypeError, match=type(bad).__name__):
            call(X, bad)
    # the constructor takes the raw types; every other entry point also
    # takes a QueriedString
    skip = "QueriedString" if name == "QueriedString" else None
    forms = [form for kind, form in ACCEPTED.items() if kind != skip]
    results = [call(form(X), form(Y)) for form in forms]
    assert all(r == results[0] for r in results), name


def test_bytes_match_truth_table():
    assert bytes_match(65, 65)
    assert not bytes_match(65, 66)
    # out of range mismatches everything, other out-of-range reads included
    assert not bytes_match(None, 65)
    assert not bytes_match(65, None)
    assert not bytes_match(None, None)


def test_as_queried_passthrough_and_wrap():
    s = QueriedString(b"x")
    assert as_queried(s) is s
    assert isinstance(as_queried(b"x"), QueriedString)


def test_ledger_snapshot_sums_pairs():
    x, y = QueriedString(b"abc"), QueriedString(b"de")
    x.read(0)
    x.read(0)
    y.read(1)
    led = ledger_snapshot(x, y)
    assert (led.distinct_x, led.distinct_y) == (1, 1)
    assert led.total_accesses == 3
    assert led.distinct_total == 2


@given(
    data=st.binary(min_size=0, max_size=40),
    indices=st.lists(st.integers(min_value=-5, max_value=50), max_size=120),
)
def test_ledger_matches_direct_count(data, indices):
    s = QueriedString(data)
    for i in indices:
        got = s.read(i)
        assert got == (data[i] if 0 <= i < len(data) else None)
    in_range = [i for i in indices if 0 <= i < len(data)]
    assert s.total == len(in_range)
    assert s.distinct == len(set(in_range))
    assert s.positions_read() == sorted(set(in_range))



@given(
    data=st.binary(min_size=0, max_size=40),
    before=st.lists(st.integers(min_value=-5, max_value=50), max_size=30),
    batches=st.lists(st.sets(st.integers(min_value=-5, max_value=50), max_size=30),
                     max_size=5),
)
def test_batched_charge_equals_reads_one_at_a_time(data, before, batches):
    # Positions are distinct within one charge; they repeat across
    # charges and overlap the scalar reads made first.
    batched, scalar = QueriedString(data), QueriedString(data)
    for i in before:
        batched.read(i)
        scalar.read(i)
    for batch in batches:
        positions = np.array(sorted(batch), dtype=np.int64)
        assert batched.look(positions).tolist() == [
            data[i] if 0 <= i < len(data) else -1 for i in positions]
        batched.charge(positions)
        for i in positions.tolist():
            scalar.read(i)
        assert (batched.distinct, batched.total) == (scalar.distinct, scalar.total)
    assert batched.positions_read() == scalar.positions_read()


def test_look_is_uncharged_and_out_of_range_is_never_charged():
    s = QueriedString(b"abcd")
    positions = np.array([-3, -1, 0, 2, 4, 9], dtype=np.int64)
    assert s.look(positions).tolist() == [-1, -1, ord("a"), ord("c"), -1, -1]
    assert (s.distinct, s.total, s.positions_read()) == (0, 0, [])
    s.charge(positions)
    assert (s.distinct, s.total, s.positions_read()) == (2, 2, [0, 2])
    empty = QueriedString(b"")
    empty.charge(positions)
    assert empty.look(positions).tolist() == [-1] * 6
    assert (empty.distinct, empty.total) == (0, 0)
