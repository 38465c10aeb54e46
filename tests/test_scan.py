"""Selective scan: exactness, potency tracking, bookkeeping contracts."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    mutate,
    periodic_pairs,
    random_bytes,
    ref_banded_costs,
    ref_edit_distance,
    ref_potent_sets,
    traced_scan,
)
from gaped.oracle import banded_edit_distance
from gaped.qstring import QueriedString
from gaped.scan import CostArray, selective_scan


# ---------------------------------------------------------------------------
# exactness against the oracle


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_scan_matches_oracle_within_threshold(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**9)))
    n = rng.randrange(0, 80)
    t = rng.choice((1, 2, 4, 8))
    x = random_bytes(rng, n)
    y = mutate(rng, x, rng.randrange(0, 2 * t + 2))
    d = ref_edit_distance(x, y)
    got = selective_scan(x, y, t)
    if d <= t:
        assert got == d
    else:
        assert got is None


def test_scan_far_inputs_return_none():
    assert selective_scan(b"aaaaaaaa", b"bbbbbbbb", 4) is None
    # length difference alone can exceed the threshold
    assert selective_scan(b"a" * 30, b"a" * 10, 8) is None


def test_scan_edges():
    assert selective_scan(b"", b"", 1) == 0
    assert selective_scan(b"", b"abc", 3) == 3
    assert selective_scan(b"abc", b"", 3) == 3
    assert selective_scan(b"abc", b"abc", 1) == 0


def test_unpruned_scan_agrees_with_pruned():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(0, 60)
        x = random_bytes(rng, n)
        y = mutate(rng, x, rng.randrange(0, 10))
        t = rng.choice((2, 4))
        assert selective_scan(x, y, t) == traced_scan(x, y, t)[0]


@given(pair=periodic_pairs(max_g=6, max_sigma=4, max_edits=12),
       t=st.integers(min_value=1, max_value=16))
@settings(max_examples=300, deadline=None)
def test_scan_matches_banded_oracle_on_near_periodic_pairs(pair, t):
    # Long matching runs keep many diagonals potent at once, which the
    # random-string fuzz above rarely reaches.
    x, y = pair
    qx, qy = QueriedString(x), QueriedString(y)
    assert selective_scan(qx, qy, t) == banded_edit_distance(x, y, t)
    for q in (qx, qy):
        assert q.distinct <= min(q.total, len(q))


def test_scan_reads_each_position_of_x_at_most_dozens_of_times():
    # close instances keep the active set small, so total accesses stay
    # within a small multiple of n
    x = bytes(random.Random(1).choices(b"abcd", k=500))
    qx, qy = QueriedString(x), QueriedString(x)
    assert selective_scan(qx, qy, 8) == 0
    assert qx.distinct == len(x)
    assert qx.total + qy.total < 20 * len(x)


# ---------------------------------------------------------------------------
# potency bookkeeping against brute force


def test_active_sets_equal_brute_force_potent_sets():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 50)
        x = random_bytes(rng, n, b"abc")
        y = mutate(rng, x, rng.randrange(0, 8), b"abc")
        t = rng.choice((2, 3, 4))
        _, rows, _ = traced_scan(x, y, t)
        table = ref_potent_sets(x, y, t)
        seen = set()
        for i, kept in rows:
            assert set(kept) == table[i], (i, x, y, t)
            seen.add(i)
        if abs(len(y) - len(x)) > t:
            continue  # length shortcircuit, no rows scanned
        # an early stop is only allowed because potency died for good
        for i in range(len(x)):
            if i not in seen:
                assert table[i] == set()


def test_mid_scan_counters_follow_the_row_split():
    # after processing diagonal d of row i, counters at or below d hold
    # next-row costs and counters above d still hold current-row costs
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randrange(1, 40)
        x = random_bytes(rng, n, b"ab")
        y = mutate(rng, x, rng.randrange(0, 6), b"ab")
        t = 3
        _, _, snapshots = traced_scan(x, y, t)
        costs = ref_banded_costs(x, y, t)
        for i, d, vals in snapshots:
            for k, v in enumerate(vals):
                dp = k - t
                if dp <= d and i + 1 + dp >= 0:
                    assert v == costs[i + 1][k], (i, d, dp)
                elif dp > d and i + dp >= 0:
                    assert v == costs[i][k], (i, d, dp)


# ---------------------------------------------------------------------------
# CostArray units


def test_cost_array_initializes_to_band_distance():
    c = CostArray(3)
    assert [c.cost(d) for d in range(-3, 4)] == [3, 2, 1, 0, 1, 2, 3]


def test_cost_array_one_deep_history():
    c = CostArray(2)
    c.charge(1, row=5)
    assert c.cost(1) == 2
    assert c.cost_at_row(1, 5) == 1  # value on entry to the charging row
    assert c.cost_at_row(1, 6) == 2  # next row sees the increment
    c.charge(1, row=6)
    assert c.cost_at_row(1, 6) == 2
    assert c.cost(1) == 3


def test_cost_array_potency_is_per_row():
    c = CostArray(2)
    assert not c.was_potent(0, 0)
    c.mark_potent(0, 4)
    assert c.was_potent(0, 4)
    assert not c.was_potent(0, 3)
    assert not c.was_potent(0, 5)
