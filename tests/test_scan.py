"""Selective scan: exactness, potency tracking, bookkeeping contracts."""

import random
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

import gaped.scan
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
from gaped.tester import TesterConfig, run


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


def _potency_cells(call):
    """The (i, d) of every cell gaped.scan.is_potent is asked about during call()."""
    cells = []
    is_potent = gaped.scan.is_potent

    def observed(c, i, d, qx, qy):
        cells.append((i, d))
        return is_potent(c, i, d, qx, qy)

    gaped.scan.is_potent = observed
    try:
        call()
    finally:
        gaped.scan.is_potent = is_potent
    return cells


@st.composite
def edit_pairs(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
    x = random_bytes(rng, rng.randrange(0, 300))
    return x, mutate(rng, x, rng.randrange(0, 20))


@given(pair=st.one_of(periodic_pairs(max_g=6, max_sigma=4, max_edits=12), edit_pairs()),
       t=st.integers(min_value=1, max_value=16),
       c_s=st.sampled_from((0.3, 1.0, 3.0)),
       seed=st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=300, deadline=None)
def test_potency_is_asked_only_about_cells_of_the_grid(pair, t, c_s, seed):
    # is_potent bounds its neighbors by the band alone.  That is exact only
    # because every cell the scan and the tester ask about has i + d >= 0,
    # which at row 0 leaves d >= 0 alone (see the gaped.scan docstring).
    x, y = pair
    cells = _potency_cells(lambda: selective_scan(x, y, t))
    if x and abs(len(y) - len(x)) <= t:
        assert cells  # row 0 tests diagonal 0; an empty list would pass vacuously
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # t above sqrt(n) is allowed here
        cells += _potency_cells(lambda: run(x, y, TesterConfig(t=t, c_s=c_s, seed=seed)))
    assert all(i + d >= 0 for i, d in cells), min(cells, key=sum)


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


def _value_at_row(c, d, row):
    """The stamp rule of the CostArray docstring: a[d] at the start of `row`."""
    k = d + c.t
    return c.a[k] - (c.changed_row[k] >= row)


def test_cost_array_one_deep_history():
    c = CostArray(2)
    c.charge(1, row=5)
    assert c.cost(1) == 2
    assert _value_at_row(c, 1, 5) == 1  # value on entry to the charging row
    assert _value_at_row(c, 1, 6) == 2  # next row sees the increment
    c.charge(1, row=6)
    assert _value_at_row(c, 1, 6) == 2
    assert c.cost(1) == 3


def test_cost_array_potency_is_per_row():
    c = CostArray(2)
    k = 0 + c.t
    assert c.potent_row[k] != 0
    c.mark_potent(0, 4)
    assert c.potent_row[k] == 4
    assert c.potent_row[k] != 3
    assert c.potent_row[k] != 5
