"""Row sampling and the warm-up tester built on the sampled grid."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    Boom,
    mutate,
    periodic_pairs,
    random_bytes,
    ref_edit_distance,
    ref_gap,
    ref_shortest_path_cost,
)
from gaped.generators import gen_certified_far, gen_independent_random, gen_random_edits
from gaped.qstring import QueriedString
from gaped.sampled import (
    BLOCK,
    GapStream,
    SampledGrid,
    geometric_gap,
    numpy_twin,
    run_sampled_tester,
    sample_rows,
    sampling_rate,
    shortest_path_cost,
)


# ---------------------------------------------------------------------------
# geometric skipping


def test_geometric_gap_rate_one_is_deterministic():
    assert all(geometric_gap(1.0, Boom()) == 1 for _ in range(5))
    assert geometric_gap(2.5, Boom()) == 1


def test_geometric_gap_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        geometric_gap(0.0, random.Random(0))
    with pytest.raises(ValueError):
        geometric_gap(-0.5, random.Random(0))
    # positive, but log(1 - rate) rounds to 0.0
    with pytest.raises(ValueError):
        geometric_gap(1e-20, random.Random(0))
    # NaN fails both rate tests, so it must not pass as rate 1; and no
    # bad rate draws before it is rejected
    for rate in (0.0, -0.5, 1e-20, float("nan")):
        with pytest.raises(ValueError):
            geometric_gap(rate, Boom())


@given(rate=st.one_of(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
                      st.floats(min_value=1.0, max_value=1e6)),
       seed=st.integers(min_value=0, max_value=2**32),
       draws=st.integers(min_value=0, max_value=2000))
@settings(max_examples=150, deadline=None)
def test_called_gap_stream_and_geometric_gap_equal_ref_gap_draw_for_draw(rate, seed, draws):
    called, one_shot, plain = (random.Random(seed) for _ in range(3))
    stream = GapStream(rate, called)
    expected = [ref_gap(rate, plain) for _ in range(draws)]
    assert [stream() for _ in range(draws)] == expected
    assert [geometric_gap(rate, one_shot) for _ in range(draws)] == expected
    assert called.getstate() == one_shot.getstate() == plain.getstate()


def _stream_walk(stream, steps):
    """Gaps shown and taken by peek(k), skip(j) and single calls, in order."""
    shown, taken = [], []
    for k, j, singles in steps:
        ahead = stream.peek(k).tolist()
        shown.append(ahead)
        stream.skip(j)
        taken += ahead[:j]
        taken += [stream() for _ in range(singles)]
    return shown, taken


def _assert_ref_gap_walk(rate, seed, steps, shown, taken):
    """shown and taken are what _stream_walk saw on a stream of rate on Random(seed)."""
    plain = random.Random(seed)
    expected = [ref_gap(rate, plain) for _ in range(sum(k + singles for k, _, singles in steps))]
    at = 0
    for (k, j, singles), ahead in zip(steps, shown):
        assert ahead == expected[at:at + k]
        at += j + singles
    assert taken == expected[:at]


@given(rate=st.one_of(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
                      st.floats(min_value=1.0, max_value=1e6)),
       seed=st.integers(min_value=0, max_value=2**32),
       steps=st.lists(st.tuples(st.integers(min_value=0, max_value=600),
                                st.integers(min_value=0, max_value=600),
                                st.integers(min_value=0, max_value=3)), max_size=8))
@settings(max_examples=150, deadline=None)
def test_gap_stream_equals_ref_gap_draw_for_draw(rate, seed, steps):
    steps = [(k, min(j, k), singles) for k, j, singles in steps]
    shown, taken = _stream_walk(GapStream(rate, random.Random(seed)), steps)
    _assert_ref_gap_walk(rate, seed, steps, shown, taken)


@given(rate=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
       seed=st.integers(min_value=0, max_value=2**32),
       steps=st.lists(st.tuples(st.integers(min_value=0, max_value=3000),
                                st.integers(min_value=0, max_value=3000),
                                st.integers(min_value=0, max_value=3)), max_size=5))
@settings(max_examples=40, deadline=None)
def test_gap_stream_past_a_block_equals_ref_gap_and_leaves_rng_alone(rate, seed, steps):
    # Each step starts with its peek, so the first step with k > 0 starts
    # with the first peek that draws: the stream builds its numpy twin
    # there, and from then on every draw, peeked or called, comes from the
    # twin and the given rng's state stays where it was before that peek.
    # Two full blocks at the end take the walk well past BLOCK.
    steps = [(k, min(j, k), singles) for k, j, singles in steps]
    steps += [(BLOCK, BLOCK, 2), (BLOCK, 5, 3)]
    rng = random.Random(seed)
    stream = GapStream(rate, rng)
    shown, taken, frozen = [], [], None
    for step in steps:
        before = rng.getstate()
        seen, took = _stream_walk(stream, [step])
        shown += seen
        taken += took
        if frozen is None and step[0]:
            assert isinstance(stream._rng, np.random.Generator)
            frozen = before
        if frozen is not None:
            assert rng.getstate() == frozen
    _assert_ref_gap_walk(rate, seed, steps, shown, taken)


@pytest.mark.parametrize("before", [0, 1, 623, 624])
def test_numpy_twin_continues_random_bit_for_bit(before):
    # random() takes two of the 624 state words, so 0 and 624 prior calls
    # leave the index at the end of a block of words, 1 and 623 inside one.
    rng = random.Random(2024)
    for _ in range(before):
        rng.random()
    state = rng.getstate()
    twin = numpy_twin(rng)
    assert rng.getstate() == state
    got = twin.random(700).tolist() + [twin.random() for _ in range(5)]
    assert got == [rng.random() for _ in range(705)]


@given(rate=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
       seed=st.integers(min_value=0, max_value=2**32),
       k=st.one_of(st.sampled_from([1, 2, 3, 63, 64, 65, 4096]),
                   st.integers(min_value=1, max_value=5000)))
@settings(max_examples=150, deadline=None)
def test_gap_stream_block_draw_equals_single_draws(rate, seed, k):
    # peek(k) draws its k uniforms from the rng's numpy twin; the gaps must
    # be ref_gap's over k random() calls, and the rng must stay where it
    # was before the peek.
    blocked, single = random.Random(seed), random.Random(seed)
    got = GapStream(rate, blocked).peek(k).tolist()
    assert got == [ref_gap(rate, single) for _ in range(k)]
    assert blocked.getstate() == random.Random(seed).getstate()


class _Scripted:
    """An rng whose draws take the given values in order, with numpy's random(size)."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self, size=None):
        if size is None:
            return next(self.values)
        return np.array([next(self.values) for _ in range(size)])


def test_gap_stream_takes_near_integer_quotients_again_with_math_log():
    # With 1 - u = (1 - rate)^k the quotient log(1 - u) / log(1 - rate) is
    # k up to rounding, so the numpy block must hand it to math.log.  The
    # fourth value is one where np.log has been seen to truncate
    # differently from math.log inside a block.  The values are rounded to
    # the 2**-53 grid that random() and the numpy twin draw on.
    for rate in (0.05, 0.1, 0.25, 0.5, 0.74, 0.9):
        values = [1.0 - (1.0 - rate) ** k for k in range(1, 400)
                  if (1.0 - rate) ** k > 1e-3]
        values = values[:3] + [0.5123250208844704] + values[3:] * 20
        values = [round(v * 2**53) * 2**-53 for v in values]
        q = np.log(1.0 - np.array(values)) / math.log(1.0 - rate)
        assert np.sum(np.abs(q - np.rint(q)) <= 1e-9 * q) >= len(values) - 1, rate
        scripted = _Scripted(values)
        expected = [ref_gap(rate, scripted) for _ in values]
        assert GapStream(rate, _Scripted(values)).peek(len(values)).tolist() == expected


def test_gap_stream_rate_one_consumes_nothing_and_bad_rates_fail_at_build():
    for rate in (1.0, 2.5):
        called = GapStream(rate, Boom())
        assert [called() for _ in range(5)] == [1] * 5
        stream = GapStream(rate, Boom())
        assert stream.peek(64).tolist() == [1] * 64
        stream.skip(10)
        assert [stream() for _ in range(60)] == [1] * 60
    for rate in (0.0, -0.5, 1e-20, float("nan")):
        with pytest.raises(ValueError):
            GapStream(rate, Boom())


def test_geometric_gap_mean_matches_rate():
    rng = random.Random(11)
    rate = 0.25
    gaps = [geometric_gap(rate, rng) for _ in range(20000)]
    assert all(g >= 1 for g in gaps)
    mean = sum(gaps) / len(gaps)
    assert abs(mean - 1 / rate) < 0.15


# ---------------------------------------------------------------------------
# row choice


def test_sample_rows_always_includes_row_zero_and_stays_sorted():
    rng = random.Random(3)
    rows = sample_rows(5000, 64, 3.0, rng)
    assert rows[0] == 0
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert rows[-1] <= 5000


def test_sample_rows_rate_clamps_to_every_row():
    # c_s * ln(n) / t >= 1 keeps every row
    rows = sample_rows(200, 2, 3.0, Boom())
    assert rows == list(range(201))


def test_sample_rows_density_tracks_the_rate():
    n, t, c_s = 100000, 64, 3.0
    rate = c_s * math.log(n) / t
    rows = sample_rows(n, t, c_s, random.Random(9))
    assert 0.7 * rate * n <= len(rows) <= 1.3 * rate * n


def test_sample_rows_rng_consumption_is_pinned():
    # rate 0.5 ln(5000) / 64 < 1: one draw per kept row, then the one past n
    rng = random.Random(3)
    assert len(sample_rows(5000, 64, 0.5, rng)) == 331
    assert rng.random() == 0.17977244143167792


@given(n=st.integers(min_value=0, max_value=20000),
       t=st.integers(min_value=1, max_value=256),
       # log-uniform over 1e-4 .. 1e3: about 3 in 5 cases fall below rate 1
       c_s=st.floats(min_value=-4.0, max_value=3.0).map(lambda e: 10.0 ** e),
       seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_sample_rows_is_the_ref_gap_walk(n, t, c_s, seed):
    # row 0, then the running sums of ref_gap up to the draw that passes n,
    # with the rng left where those draws leave it; rate 1 draws nothing
    rate = sampling_rate(n, t, c_s)
    rng, plain = (Boom(), None) if rate >= 1.0 else (random.Random(seed), random.Random(seed))
    got = sample_rows(n, t, c_s, rng)
    expected, r = [0], ref_gap(rate, plain)
    while r <= n:
        expected.append(r)
        r += ref_gap(rate, plain)
    assert got == expected
    if rate < 1.0:
        assert rng.getstate() == plain.getstate()


def test_sample_rows_rejects_bad_threshold():
    for t, c_s in ((0, 3.0), (2.5, 3.0), (4, float("nan")), (4, 0.0)):
        with pytest.raises(ValueError):
            sample_rows(100, t, c_s, random.Random(0))


# ---------------------------------------------------------------------------
# exactness with every row kept


def test_dense_grid_shortest_path_is_the_edit_distance():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(0, 60)
        t = rng.choice((2, 4, 8))
        x = random_bytes(rng, n)
        y = mutate(rng, x, rng.randrange(0, t + 3))
        if abs(len(y) - len(x)) > t:
            continue
        grid = SampledGrid(rows=tuple(range(n + 1)), t=t)
        cost = shortest_path_cost(grid, QueriedString(x), QueriedString(y))
        d = ref_edit_distance(x, y)
        if d <= t:
            assert cost == d
        else:
            assert cost > t


@st.composite
def warm_up_grids(draw):
    """(x, y, grid): a periodic or random pair on a sampled, dense or one-row grid."""
    if draw(st.booleans()):
        x, y = draw(periodic_pairs(max_g=4, max_sigma=4, max_edits=12))
    else:
        rng = random.Random(draw(st.integers(min_value=0, max_value=1 << 30)))
        alpha = b"abcd"[:draw(st.integers(min_value=1, max_value=4))]
        x = random_bytes(rng, draw(st.integers(min_value=0, max_value=300)), alpha)
        if draw(st.booleans()):
            y = mutate(rng, x, draw(st.integers(min_value=0, max_value=12)))
        else:
            y = random_bytes(rng, draw(st.integers(min_value=0, max_value=300)), alpha)
    t = draw(st.integers(min_value=1, max_value=40))
    n = len(x)
    kind = draw(st.sampled_from(("dense", "one row", 0.05, 0.3, 1.0, 3.0)))
    if kind == "dense":
        rows = range(n + 1)
    elif kind == "one row":
        rows = (0,)
    else:
        seed = draw(st.integers(min_value=0, max_value=1 << 30))
        rows = sample_rows(n, t, kind, random.Random(seed))
    return x, y, SampledGrid(rows=tuple(rows), t=t)


def _priced(price, x, y, grid):
    """The capped cost, the ledgers and the positions read of one pricing."""
    qx, qy = QueriedString(x), QueriedString(y)
    cost = min(price(grid, qx, qy), grid.t + 1)
    return (cost, qx.distinct, qy.distinct, qx.total, qy.total,
            qx.positions_read(), qy.positions_read())


@given(case=warm_up_grids())
@settings(max_examples=300, deadline=None)
def test_shortest_path_cost_matches_the_band_scan(case):
    x, y, grid = case
    assert _priced(shortest_path_cost, x, y, grid) == _priced(ref_shortest_path_cost, x, y, grid)


# ---------------------------------------------------------------------------
# tester verdicts


def test_completeness_never_rejects_close_pairs():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randrange(40, 400)
        t = rng.choice((4, 8, 16))
        x = random_bytes(rng, n)
        y = mutate(rng, x, rng.randrange(0, t // 2 + 1))
        for seed in range(3):
            v = run_sampled_tester(
                QueriedString(x), QueriedString(y), t, 3.0, random.Random(seed)
            )
            assert v.is_close, (trial, seed)
            assert v.final_a0 <= t


def test_close_verdict_reports_the_exact_cost_at_full_rate():
    rng = random.Random(8)
    x = random_bytes(rng, 150)
    y = mutate(rng, x, 3)
    d = ref_edit_distance(x, y)
    # n=150, t=4: rate = 3 ln 150 / 4 > 1, every row sampled
    v = run_sampled_tester(QueriedString(x), QueriedString(y), 4, 3.0, random.Random(0))
    assert v.is_close and v.final_a0 == d
    assert v.mode_transitions == 0


def test_far_pairs_are_usually_rejected():
    rng = random.Random(2)
    x = random_bytes(rng, 1 << 12, b"abcdefgh")
    y = random_bytes(rng, 1 << 12, b"abcdefgh")
    t = 4
    rejections = sum(
        not run_sampled_tester(
            QueriedString(x), QueriedString(y), t, 3.0, random.Random(s)
        ).is_close
        for s in range(30)
    )
    assert rejections >= 24


def test_warm_up_ledgers_are_pinned():
    # (answer, final_a0, distinct_x, distinct_y, total_accesses) per run
    def ledger(x, y, t, c_s, seed):
        v = run_sampled_tester(QueriedString(x), QueriedString(y), t, c_s,
                               random.Random(seed))
        led = v.ledger
        return (v.answer.value, v.final_a0, led.distinct_x, led.distinct_y,
                led.total_accesses)

    x, y = gen_random_edits(4096, 3, seed=11)  # rate 1 at t=8
    assert ledger(x, y, 8, 3.0, 2) == ("close", 3, 4096, 4097, 73664)
    x, y = gen_random_edits(1 << 14, 32, seed=5)  # rate ~0.076
    assert ledger(x, y, 64, 0.5, 7) == ("close", 22, 1275, 16386, 163565)
    x, y, _ = gen_certified_far(4096, 8, 3)  # ED > 832: the scan stops after 13 rows
    assert ledger(x, y, 8, 3.0, 1) == ("far", 9, 13, 21, 198)
    x, _ = gen_random_edits(4096, 0, seed=11)
    y = x[:1000] + b"abc" + x[1000:2000] + b"d" + x[2001:]  # |y| - |x| = 3
    assert ledger(x, y, 8, 3.0, 4) == ("close", 4, 4096, 4099, 73677)
    assert ledger(y, x, 8, 3.0, 4) == ("close", 4, 4099, 4096, 73680)


def test_length_gap_shortcircuits_without_reads():
    x, y = QueriedString(b"a" * 100), QueriedString(b"a" * 80)
    v = run_sampled_tester(x, y, 8, 3.0, random.Random(0))
    assert not v.is_close
    assert v.final_a0 == 9
    assert x.total == 0 and y.total == 0


def test_bad_parameters_raise_whatever_the_lengths():
    # the length shortcut must not answer for parameters the tester rejects
    for x, y, t, c_s in (
        (b"ab", b"ab", -3, 3.0),
        (b"ab", b"ab", 0, 3.0),
        (b"abc", b"a", 0, 3.0),
        (b"", b"", 4, -1.0),
        (b"abcdefgh", b"a", 4, -1.0),
        (b"abcd", b"abcd", 4, 0.0),
        (b"abcd", b"abcd", 4, float("nan")),
        (b"abcdefgh", b"a", 4, float("nan")),
        (b"abcdefgh", b"a", 2.5, 3.0),
        (b"abcd", b"abcd", 4.0, 3.0),
    ):
        with pytest.raises(ValueError):
            run_sampled_tester(QueriedString(x), QueriedString(y), t, c_s,
                               random.Random(0))
    assert run_sampled_tester(b"abcd", b"abcd", np.int64(4), 3.0,
                              random.Random(0)).is_close
    # a numpy t must not reach the costs: final_a0 stays an int
    x, y = gen_independent_random(2000, seed=1)
    got, want = (run_sampled_tester(QueriedString(x), QueriedString(y), t, 3.0,
                                    random.Random(1)) for t in (np.int64(8), 8))
    assert not got.is_close and type(got.final_a0) is int
    assert got.final_a0 == want.final_a0 == 9 and got.ledger == want.ledger


def test_low_rate_reads_sublinearly_many_x_positions():
    n = 1 << 15
    t = 256
    x = QueriedString(b"ab" * (n // 2))
    y = QueriedString(b"ab" * (n // 2))
    v = run_sampled_tester(x, y, t, 3.0, random.Random(7))
    assert v.is_close and v.final_a0 == 0
    rate = 3.0 * math.log(n) / t
    assert rate < 0.2
    # x is read only on sampled rows
    assert x.distinct <= 2 * rate * n
