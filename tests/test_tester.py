"""Adaptive tester: verdicts, mode switching, charge accounting, alignments."""

import hashlib
import json
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaped.scan
import gaped.tester
from conftest import mutate, periodic_pairs, random_bytes, ref_fail_row, ref_sampling_round
from gaped.alignment import SUBSTITUTION, validate_alignment
from gaped.generators import gen_independent_random, gen_periodic_splice, gen_random_edits
from gaped.oracle import edit_distance
from gaped.qstring import QueriedString
from gaped.sampled import BLOCK, GapStream
from gaped.scan import selective_scan
from gaped.tester import RunStats, TesterConfig, run
from gaped.verdict import Answer


def _run(x, y, **kw):
    cfg = TesterConfig(**kw)
    return run(QueriedString(x), QueriedString(y), cfg)


def _charges(v):
    return [(row, d) for row, d, kind in v.stats.events if kind == SUBSTITUTION]


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        TesterConfig(t=0)
    with pytest.raises(ValueError):
        TesterConfig(t=4, epsilon=1.0)
    with pytest.raises(ValueError):
        TesterConfig(t=4, epsilon=-0.1)
    with pytest.raises(ValueError):
        TesterConfig(t=4, c_s=0.0)
    # NaN would otherwise run at rate min(1, nan) = 1, and a fractional t
    # would reach the counters as a float
    with pytest.raises(ValueError):
        TesterConfig(t=4, c_s=float("nan"))
    for t in (2.5, 4.0):
        with pytest.raises(ValueError):
            TesterConfig(t=t)
    # past the float range, t ** (1 - epsilon) would overflow
    with pytest.raises(ValueError, match="t must be"):
        TesterConfig(t=10 ** 400)
    # a numpy t would make every counter a numpy scalar: slower, and a
    # final_a0 that json.dumps rejects
    t = TesterConfig(t=np.int64(4)).t
    assert t == 4 and type(t) is int
    # random.Random would seed None from the OS and hash a float or a str
    for seed in (None, 1.5, "3"):
        with pytest.raises(TypeError):
            TesterConfig(t=4, seed=seed)
    cfg = TesterConfig(t=16, c_s=0.3, seed=np.int64(3))
    assert cfg.seed == 3 and type(cfg.seed) is int
    x, y = gen_random_edits(20000, 3, seed=1)
    got, want = (run(QueriedString(x), QueriedString(y), c)
                 for c in (cfg, TesterConfig(t=16, c_s=0.3, seed=3)))
    assert (got.answer, got.ledger) == (want.answer, want.ledger)
    x, y = gen_random_edits(1 << 14, 20, seed=1)
    got, want = (_run(x, y, t=t, epsilon=0.5, c_s=0.5, seed=3) for t in (np.int64(64), 64))
    assert type(got.final_a0) is int and json.dumps(got.final_a0) == "28"
    assert (got.answer, got.final_a0, got.ledger) == (want.answer, want.final_a0, want.ledger)


def test_small_threshold_relative_to_n_warns():
    x = b"ab" * 8
    with pytest.warns(UserWarning):
        _run(x, x, t=8)


# ---------------------------------------------------------------------------
# basic verdicts


def test_identical_strings_are_close_at_zero():
    x = bytes(random.Random(0).choices(b"abcd", k=2048))
    v = _run(x, x, t=8, seed=1)
    assert v.is_close
    assert v.final_a0 == 0
    assert v.mode_transitions == 0
    assert _charges(v) == []


def test_large_length_gap_is_far_without_reads():
    v = _run(b"a" * 4096, b"a" * 4000, t=8)
    assert not v.is_close
    assert v.final_a0 == 9
    assert v.stats == RunStats()
    assert v.ledger.total_accesses == 0


def test_close_instances_verdict_and_cost():
    rng = random.Random(4)
    for trial in range(25):
        n = 2048
        k = rng.randrange(0, 5)
        x = random_bytes(rng, n)
        y = mutate(rng, x, k)
        d = edit_distance(x, y)
        v = _run(x, y, t=8, seed=trial)
        assert v.is_close, trial
        assert d <= v.final_a0 <= 8
        # the alignment is a certificate, not an optimum: switching
        # diagonals only when the counters tip leaves short stale runs,
        # so its realized cost can exceed a0 but stays within the bound
        realized = validate_alignment(v.alignment, x, y)
        assert d <= realized <= 13 * 8 * 8


def test_random_far_instances_are_rejected():
    rng = random.Random(9)
    rejected = 0
    for trial in range(20):
        x = random_bytes(rng, 4096, b"abcdefgh")
        y = random_bytes(rng, 4096, b"abcdefgh")
        v = _run(x, y, t=4, seed=trial)
        rejected += not v.is_close
    assert rejected >= 16


# ---------------------------------------------------------------------------
# frozen behavior on structured instances (regression pins)


def test_fully_periodic_pair_never_leaves_sampling_mode():
    x, y = gen_periodic_splice(4096, 2, 0, seed=0, sigma=8)
    assert x == y
    v = _run(x, y, t=16, seed=3)
    assert v.is_close and v.final_a0 == 0
    assert v.mode_transitions == 0
    assert len(v.stats.search_rows) == 0


def test_each_period_transition_triggers_one_search():
    for gseed in range(8):
        x, y = gen_periodic_splice(4096, 2, 5, seed=gseed, sigma=8)
        v = _run(x, y, t=16, seed=3)
        assert v.is_close, gseed
        assert len(v.stats.search_rows) == 5, gseed
        assert v.final_a0 in {7, 9, 10, 11}, (gseed, v.final_a0)


def test_one_sided_excursions_charge_the_deviating_side():
    x, y = gen_periodic_splice(4096, 4, 3, seed=5, y_only=True)
    # x is a single pattern switch followed by pure tiling, so every
    # later located transition certifies a deviation on the y side
    s0 = 4096 // 5
    assert x[s0 + 4 :] == x[s0:-4]
    assert x[4:s0] == x[: s0 - 4]
    v = _run(x, y, t=24, seed=3)
    assert v.is_close
    assert len(v.stats.search_rows) == 3
    assert v.stats.search_rows == [1634, 2449, 3264]
    assert v.final_a0 == 16
    assert edit_distance(x, y) == 13


def test_sparse_sampling_outcomes_are_seed_stable():
    x, y = gen_periodic_splice(4096, 2, 2, seed=0, sigma=8)
    expected = {
        0: (0, [], 0),
        1: (2, [2047, 3070], 5),
        2: (1, [3073], 2),
    }
    for tseed, (searches, rows, a0) in expected.items():
        v = _run(x, y, t=16, c_s=0.5, seed=tseed)
        assert v.is_close, tseed
        assert len(v.stats.search_rows) == searches, tseed
        assert v.stats.search_rows == rows, tseed
        assert v.final_a0 == a0, tseed


def _ledger_row(x, y, **kw):
    v = _run(x, y, **kw)
    s = v.stats
    cert = None if v.alignment is None else (
        hashlib.sha256(v.alignment.encode()).hexdigest()[:16])
    return (v.answer.value, v.final_a0, v.ledger.distinct_x, v.ledger.distinct_y,
            v.ledger.total_accesses, s.sampled_rows, s.contiguous_rows, len(s.events),
            v.mode_transitions, cert)


def test_run_ledgers_are_pinned():
    # (answer, final_a0, distinct_x, distinct_y, total_accesses,
    #  sampled_rows, contiguous_rows, len(events), mode_transitions,
    #  certificate sha256 prefix)
    # per run; the certificate pins where each segment starts and ends
    x, y = gen_periodic_splice(4096, 2, 5, seed=1, sigma=8)
    assert _ledger_row(x, y, t=16, seed=3) == (
        "close", 9, 4096, 4096, 9954, 3980, 116, 99, 12, "d7c04c486ae9c935")
    x, y = gen_random_edits(4096, 3, seed=11)  # rate 1 at t=8
    assert _ledger_row(x, y, t=8, seed=2) == (
        "close", 4, 4096, 4097, 8292, 4077, 20, 28, 7, "bb75be304bd0bc95")
    x, y = gen_random_edits(1 << 14, 32, seed=5)
    assert _ledger_row(x, y, t=64, epsilon=0.5, c_s=0.5, seed=7) == (
        "close", 30, 10238, 10317, 27268, 9388, 852, 1472, 51,
        "75be68f3b7e50678")
    rng = random.Random(21)
    x = random_bytes(rng, 4096)
    y = x[:1000] + x[1003:2500] + b"c" + x[2500:]
    assert _ledger_row(x, y, t=8, seed=4) == (
        "close", 6, 4096, 4094, 8304, 4083, 13, 36, 4, "0662abf3995b3bd5")
    assert _ledger_row(y, x, t=8, seed=4) == (
        "close", 6, 4094, 4096, 8310, 4081, 15, 40, 5, "324cd96d8cd56e41")
    x, y = gen_independent_random(4096, seed=3, sigma=8)
    assert _ledger_row(x, y, t=4, seed=1) == ("far", 5, 6, 6, 46, 1, 5, 13, 1, None)
    # the selective scan: (result, distinct_x, distinct_y, total_accesses)
    for (n, k, t, gseed), pinned in {
        (2000, 5, 16, 8): (5, 2000, 1998, 4314),
        (600, 12, 8, 9): (None, 391, 392, 964),
    }.items():
        x, y = gen_random_edits(n, k, seed=gseed)
        qx, qy = QueriedString(x), QueriedString(y)
        got = selective_scan(qx, qy, t)
        assert (got, qx.distinct, qy.distinct, qx.total + qy.total) == pinned


def test_one_round_call_per_counted_row(monkeypatch):
    # A traced benchmark run reads one sampling_round span per sampled row
    # and one contiguous_round span per contiguous row; a loop that handled
    # several rows in one call would break that silently.  sampled_rows is
    # counted once per checked block, so the last two cases (found by
    # fuzzing) end a run inside a block: a Close walk whose last block is
    # cut at ModeState.end, and a Far stop right after a failed sampled row.
    # Within a block, sampling_round hands out each checked row once: its
    # returns strictly decrease to 0, one call for each row _check_block
    # counted, and no call changes a counter, a diagonal or the events.
    # run hands a failed block's end row to _fail_row right after the
    # block's last call, and only then, so the _fail_row calls and the
    # True returns of contiguous_round are the run's mode transitions.
    calls = {"sampling_round": 0, "contiguous_round": 0, "_fail_row": 0}
    log, blocks, handouts = [], [], []

    def charges(state):
        return list(state.costs.a), list(state.diagonals), len(state.stats.events)

    for name in calls:
        inner = getattr(gaped.tester, name)

        def counted(state, *args, _name=name, _inner=inner):
            calls[_name] += 1
            before = charges(state)
            got = _inner(state, *args)
            log.append((_name, got))
            if _name == "sampling_round":
                handouts[-1].append(got)
                assert charges(state) == before
            return got

        monkeypatch.setattr(gaped.tester, name, counted)
    check_block = gaped.tester._check_block

    def recorded(state, x, y):
        # the size rule: the least power of two that covers the rows left, at most BLOCK
        size = min(BLOCK, 1 << (state.end - state.i - 1).bit_length())
        used = check_block(state, x, y)
        blocks.append((size, used, state.block_failed))
        handouts.append([])
        log.append(("_check_block", len(blocks) - 1))
        return used

    monkeypatch.setattr(gaped.tester, "_check_block", recorded)
    cases = [
        (gen_periodic_splice(4096, 2, 5, seed=1, sigma=8), dict(t=16, c_s=1.0, seed=3), None),
        (gen_random_edits(1 << 14, 32, seed=5), dict(t=64, epsilon=0.5, c_s=0.5, seed=7), None),
        (gen_random_edits(4096, 3, seed=11), dict(t=8, seed=2), None),  # rate 1
        (gen_independent_random(4096, seed=3, sigma=8), dict(t=4, seed=1), None),  # far
        (gen_random_edits(60, 2, seed=33523), dict(t=6, c_s=1.0, seed=53), "cut"),
        (gen_random_edits(57, 4, seed=27743), dict(t=2, c_s=0.3, seed=88), "failed"),
    ]
    for (x, y), kw, ending in cases:
        for name in calls:
            calls[name] = 0
        log.clear()
        blocks.clear()
        handouts.clear()
        v = _run(x, y, **kw)
        s = v.stats
        assert s.sampled_rows > 0, kw
        for (_, used, failed), got in zip(blocks, handouts, strict=True):
            assert len(got) == used, kw
            assert all(a > b for a, b in zip(got, got[1:])), kw
            assert got[-1] == 0, kw
        # what follows each block's last handout: _fail_row iff it failed
        starts = [k for k, (name, _) in enumerate(log) if name == "_check_block"]
        tail = log + [(None, None)]
        after = [tail[k + used + 1][0] for k, (_, used, _) in zip(starts, blocks)]
        assert [a == "_fail_row" for a in after] == [f for _, _, f in blocks], kw
        assert calls["_fail_row"] == sum(f for _, _, f in blocks), kw
        assert calls["sampling_round"] == s.sampled_rows, kw
        assert calls["contiguous_round"] == s.contiguous_rows, kw
        assert (calls["_fail_row"] + log.count(("contiguous_round", True))
                == v.mode_transitions), kw
        if ending == "cut":
            size, used, failed = blocks[-1]
            assert v.answer is Answer.CLOSE and log[-1] == ("sampling_round", 0)
            assert v.mode_transitions >= 2 and not failed and used < size
        elif ending == "failed":
            assert v.answer is Answer.FAR and log[-1] == ("_fail_row", None)
            assert blocks[-1][2]


@pytest.mark.parametrize("fn", [
    gaped.tester.sampling_round, gaped.tester.contiguous_round,
    gaped.tester._update_representative, gaped.scan.advance_row, gaped.scan.is_potent,
    QueriedString.read, GapStream.__call__,
], ids=lambda fn: fn.__qualname__)
def test_per_row_functions_capture_no_locals(fn):
    # CPython builds a cell for each captured local on every call, fast path too.
    assert fn.__code__.co_cellvars == ()


def test_sampling_round_keeps_its_frame_to_its_arguments():
    # It is called once per sampled row, and each frame slot costs on every
    # call: a 16-local frame measured ~10 ns a call above a 3-local one, so
    # the block check stays in _check_block and the frame holds only the
    # four arguments.
    assert gaped.tester.sampling_round.__code__.co_nlocals == 4


def test_a_short_run_peeks_no_more_gaps_than_its_rows(monkeypatch):
    # A block shows the least power of two of gaps that covers the rows
    # left, so a 60-row run below rate 1 never peeks more than 64 and a
    # 26-row run never more than 32, on the row stream or, in the second
    # run, the probe stream, however often it enters a regime.
    sizes = []
    peek = GapStream.peek

    def recorded(stream, k):
        sizes.append(k)
        return peek(stream, k)

    monkeypatch.setattr(GapStream, "peek", recorded)
    for (x, y), kw, most in [
        (gen_random_edits(60, 2, seed=33523), dict(t=6, c_s=1.0, seed=53), 64),
        ((b"a" * 24, b"acaaaaaaaaaaaaaaaabaaaaaac"), dict(t=4, c_s=0.3, seed=577), 32),
    ]:
        sizes.clear()
        v = _run(x, y, **kw)
        assert v.mode_transitions >= 2 and v.stats.sampled_rows > 0
        assert sizes and max(sizes) <= most


@st.composite
def _tester_pairs(draw):
    """Periodic bases with a few edits, periodic splices and random edits."""
    kind = draw(st.sampled_from(["periodic", "splice", "edits"]))
    seed = draw(st.integers(min_value=0, max_value=1 << 20))
    if kind == "periodic":
        x, y = draw(periodic_pairs(max_g=4, max_sigma=3, max_edits=10))
    elif kind == "splice":
        g = draw(st.sampled_from([2, 4, 6]))
        k = draw(st.integers(min_value=0, max_value=4))
        n = draw(st.integers(min_value=(k + 2) * (6 * g + 48) if k else 16, max_value=3000))
        x, y = gen_periodic_splice(n, g, k, seed=seed, y_only=draw(st.booleans()),
                                   sigma=draw(st.integers(min_value=2, max_value=8)))
    else:
        n = draw(st.integers(min_value=1, max_value=3000))
        x, y = gen_random_edits(n, draw(st.integers(min_value=0, max_value=min(n, 12))),
                                seed=seed)
    return (y, x) if draw(st.booleans()) else (x, y)


def _fingerprint(x, y, cfg):
    qx, qy = QueriedString(x), QueriedString(y)
    v = run(qx, qy, cfg)
    s = v.stats
    return (v.answer, v.final_a0, v.ledger, v.mode_transitions, s.sampled_rows,
            s.contiguous_rows, s.search_rows, v.alignment, s.events, qx.total, qy.total,
            qx.positions_read(), qy.positions_read())


@pytest.mark.filterwarnings("ignore:t=.*exceeds sqrt")
@given(pair=_tester_pairs(), t=st.integers(min_value=1, max_value=16),
       c_s=st.sampled_from([0.05, 0.3, 1.0, 3.0]), epsilon=st.sampled_from([0.0, 0.5]),
       seed=st.integers(min_value=0, max_value=1 << 30))
@settings(max_examples=300, deadline=None)
def test_block_check_matches_the_row_by_row_check(pair, t, c_s, epsilon, seed):
    # The block check must make the row-by-row check's draws and reads:
    # same rows, same ledgers down to the positions, same outcome.
    x, y = pair
    cfg = TesterConfig(t=t, epsilon=epsilon, c_s=c_s, seed=seed)
    with (mock.patch.object(gaped.tester, "sampling_round", ref_sampling_round),
          mock.patch.object(gaped.tester, "_fail_row", ref_fail_row)):
        expected = _fingerprint(x, y, cfg)
    assert _fingerprint(x, y, cfg) == expected


def test_a_probe_that_finds_a_mismatch_charges_its_diagonal(monkeypatch):
    # The transition window charges no diagonal here, so both survivors
    # are probed over the regime; the probe on diagonal 1 finds a
    # mismatch, and diagonal 1 is charged at the failed sampled row.
    probes = []
    inner = gaped.tester.probe_diagonal

    def recorded(*args):
        probes.append(inner(*args))
        return probes[-1]

    monkeypatch.setattr(gaped.tester, "probe_diagonal", recorded)
    v = _run(b"a" * 24, b"acaaaaaaaaaaaaaaaabaaaaaac", t=4, c_s=0.3, seed=577)
    assert probes == [False, True]
    assert v.stats.search_rows == [24]
    assert [(d, kind) for row, d, kind in v.stats.events if row == 24] == [
        (1, SUBSTITUTION)]
    assert (v.answer.value, v.final_a0) == ("close", 2)
    assert (v.ledger.distinct_x, v.ledger.distinct_y, v.ledger.total_accesses) == (
        22, 24, 85)


def test_an_emptied_active_set_is_far_below_the_threshold():
    # Every diagonal's counter passes its t - |d| budget while the
    # finishing diagonal's own counter is still at most t: the run stops
    # Far because no diagonal is left, not because a0 passed t.
    x, y = b"bbbbabbbaaaaab", b"aabbbbbbbabbbaa"
    v = _run(x, y, t=3, c_s=100, seed=5)
    assert (v.answer.value, v.final_a0, v.alignment) == ("far", 3, None)
    assert (v.stats.sampled_rows, v.stats.contiguous_rows, v.stats.search_rows) == (
        2, 8, [8])
    assert edit_distance(x, y) == 7


# ---------------------------------------------------------------------------
# charge accounting


def test_charge_events_are_ordered_and_in_band():
    x, y = gen_periodic_splice(4096, 2, 5, seed=1, sigma=8)
    v = _run(x, y, t=16, seed=0)
    events = _charges(v)
    assert events == sorted(events, key=lambda e: e[0])
    for row, d in events:
        assert 0 <= row <= len(x)
        assert -16 <= d <= 16


def test_close_alignment_decodes_and_validates():
    rng = random.Random(14)
    for trial in range(10):
        x = random_bytes(rng, 1024, b"abcdef")
        y = mutate(rng, x, rng.randrange(0, 4), b"abcdef")
        v = _run(x, y, t=8, seed=trial)
        assert v.is_close
        raw = v.alignment.encode()
        decoded = type(v.alignment).decode(raw)
        assert decoded == v.alignment
        assert validate_alignment(decoded, x, y) <= 13 * 8 * 8


# ---------------------------------------------------------------------------
# sampling rate plumbing


def test_epsilon_raises_the_sampling_rate_exponent():
    import math

    from gaped.sampled import sampling_rate

    n, t = 1 << 16, 64
    r_eps = min(1.0, 3.0 * math.log(n) / t**0.5)
    r_flat = min(1.0, 3.0 * math.log(n) / t)
    assert r_flat < r_eps
    assert sampling_rate(n, t, 3.0, 0.5) == pytest.approx(r_eps)
    assert sampling_rate(n, t, 3.0) == pytest.approx(r_flat)
    assert sampling_rate(0, t, 3.0) == 1.0
