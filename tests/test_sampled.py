"""Row sampling and the warm-up tester built on the sampled grid."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Boom, mutate, random_bytes, ref_edit_distance
from gaped.generators import gen_random_edits
from gaped.qstring import QueriedString
from gaped.sampled import (
    GapStream,
    SampledGrid,
    gap_sampler,
    geometric_gap,
    run_sampled_tester,
    sample_rows,
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


@given(rate=st.one_of(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
                      st.floats(min_value=1.0, max_value=1e6)),
       seed=st.integers(min_value=0, max_value=2**32),
       draws=st.integers(min_value=0, max_value=2000))
@settings(max_examples=150, deadline=None)
def test_gap_sampler_equals_geometric_gap_draw_for_draw(rate, seed, draws):
    one_shot, hoisted, plain = (random.Random(seed) for _ in range(3))
    draw = gap_sampler(rate, hoisted)
    got = [draw() for _ in range(draws)]
    assert got == [geometric_gap(rate, one_shot) for _ in range(draws)]
    assert hoisted.getstate() == one_shot.getstate()
    # the inverse-transform draw written out, independent of both forms
    if rate < 1.0:
        expected = [1 + int(math.log(1.0 - plain.random()) / math.log(1.0 - rate))
                    for _ in range(draws)]
    else:
        expected = [1] * draws
    assert got == expected
    assert hoisted.getstate() == plain.getstate()


def test_gap_sampler_rate_one_consumes_nothing_and_bad_rates_fail_at_build():
    for rate in (1.0, 2.5):
        draw = gap_sampler(rate, Boom())
        assert [draw() for _ in range(5)] == [1] * 5
    for rate in (0.0, -0.5, 1e-20, float("nan")):
        with pytest.raises(ValueError):
            gap_sampler(rate, Boom())
        with pytest.raises(ValueError):
            geometric_gap(rate, Boom())


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


@given(rate=st.one_of(st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
                      st.floats(min_value=1.0, max_value=1e6)),
       seed=st.integers(min_value=0, max_value=2**32),
       steps=st.lists(st.tuples(st.integers(min_value=0, max_value=600),
                                st.integers(min_value=0, max_value=600),
                                st.integers(min_value=0, max_value=3)), max_size=8))
@settings(max_examples=150, deadline=None)
def test_gap_stream_equals_gap_sampler_draw_for_draw(rate, seed, steps):
    steps = [(k, min(j, k), singles) for k, j, singles in steps]
    shown, taken = _stream_walk(GapStream(rate, random.Random(seed)), steps)
    draw = gap_sampler(rate, random.Random(seed))
    expected = [draw() for _ in range(sum(k + singles for k, _, singles in steps))]
    at = 0
    for (k, j, singles), ahead in zip(steps, shown):
        assert ahead == expected[at:at + k]
        at += j + singles
    assert taken == expected[:at]


class _Scripted:
    """An rng whose random() returns the given values in order."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


def test_gap_stream_takes_near_integer_quotients_again_with_math_log():
    # With 1 - u = (1 - rate)^k the quotient log(1 - u) / log(1 - rate) is
    # k up to rounding, so the numpy block must hand it to math.log.  The
    # fourth value is one where np.log has been seen to truncate
    # differently from math.log inside a block.
    for rate in (0.05, 0.1, 0.25, 0.5, 0.74, 0.9):
        values = [1.0 - (1.0 - rate) ** k for k in range(1, 400)
                  if (1.0 - rate) ** k > 1e-3]
        values = values[:3] + [0.5123250208844704] + values[3:] * 20
        q = np.log(1.0 - np.array(values)) / math.log(1.0 - rate)
        assert np.sum(np.abs(q - np.rint(q)) <= 1e-9 * q) >= len(values) - 1, rate
        draw = gap_sampler(rate, _Scripted(values))
        expected = [draw() for _ in values]
        assert GapStream(rate, _Scripted(values)).peek(len(values)).tolist() == expected


def test_gap_stream_rate_one_consumes_nothing_and_bad_rates_fail_at_build():
    for rate in (1.0, 2.5):
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


def test_sample_rows_rejects_bad_threshold():
    for t, c_s in ((0, 3.0), (2.5, 3.0), (4, float("nan")), (4, 0.0)):
        with pytest.raises(ValueError):
            sample_rows(100, t, c_s, random.Random(0))


# ---------------------------------------------------------------------------
# grid validation


def test_sampled_grid_validates_shape():
    SampledGrid(rows=(0, 3, 7), t=2, n=10)
    with pytest.raises(ValueError):
        SampledGrid(rows=(1, 3), t=2, n=10)  # missing head row
    with pytest.raises(ValueError):
        SampledGrid(rows=(0, 3, 3), t=2, n=10)  # not strictly increasing
    with pytest.raises(ValueError):
        SampledGrid(rows=(0, 11), t=2, n=10)  # row past the string


def test_shortest_path_requires_matching_length():
    grid = SampledGrid(rows=(0, 4), t=2, n=4)
    with pytest.raises(ValueError):
        shortest_path_cost(grid, QueriedString(b"abc"), QueriedString(b"abc"))


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
        grid = SampledGrid(rows=tuple(range(n + 1)), t=t, n=n)
        cost = shortest_path_cost(grid, QueriedString(x), QueriedString(y))
        d = ref_edit_distance(x, y)
        if d <= t:
            assert cost == d
        else:
            assert cost > t


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
