"""Instance families: construction invariants, certification, round trips."""

import hashlib
import json
import logging
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ref_cost_table, ref_edit_distance
from gaped.generators import (
    _alphabet,
    _letters,
    certified_delta,
    gen_block_shift,
    gen_certified_far,
    gen_independent_random,
    gen_periodic_splice,
    gen_random_edits,
    write_instance,
)
from gaped.oracle import banded_edit_distance, edit_distance
from gaped.sampled import BLOCK


# ---------------------------------------------------------------------------
# shared properties


def test_generators_are_deterministic_per_seed():
    for fn, args in (
        (gen_random_edits, (512, 4, 7)),
        (gen_block_shift, (512, 8, 7)),
        (gen_periodic_splice, (1024, 2, 2, 7)),
        (gen_independent_random, (512, 7)),
    ):
        a = fn(*args)
        b = fn(*args)
        if fn is gen_independent_random:
            assert a == b
        else:
            assert a[0] == b[0] and a[1] == b[1]


# sha256 prefixes of x + b"\0" + y for strings drawn letter by letter with
# random.choices; a change to the draws that moves any byte of any family
# fails here.
PINS = [
    (gen_random_edits, (65536, 32, 1), {}, "28a995cfa6005cc8"),
    (gen_block_shift, (65536, 64, 2), {}, "af44772c6fbf7f63"),
    (gen_periodic_splice, (65536, 4, 3, 3), {}, "37c5598b313ebaec"),
    (gen_independent_random, (65536, 4), {}, "4cebd23c02819b7a"),
    (gen_random_edits, (4097, 9, 6), {"sigma": 3}, "a111c33826d52b10"),
    (gen_block_shift, (4095, 8, 8), {"sigma": 13}, "5ad8c77ea5cb60bd"),
    (gen_periodic_splice, (8192, 6, 2, 5), {"sigma": 5, "y_only": True}, "2de8b3ead3b16bd5"),
    (gen_independent_random, (8193, 7), {"sigma": 26}, "8bef5981bc6d1673"),
    (gen_certified_far, (4096, 8, 1), {}, "f72e6111f892d858"),
]


@pytest.mark.parametrize("fn, args, kwargs, pin", PINS,
                         ids=[f"{fn.__name__}{args}" for fn, args, _, _ in PINS])
def test_generators_reproduce_pinned_bytes(fn, args, kwargs, pin):
    x, y = fn(*args, **kwargs)[:2]
    assert hashlib.sha256(x + b"\0" + y).hexdigest()[:16] == pin


FAMILIES = {
    "random_edits": lambda n: gen_random_edits(n, 0, 0),
    "block_shift": lambda n: gen_block_shift(n, 2, 0),
    "periodic_splice": lambda n: gen_periodic_splice(n, 2, 0, 0),
    "independent_random": lambda n: gen_independent_random(n, 0),
    "certified_far": lambda n: gen_certified_far(n, 1, 0),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_negative_length_is_rejected_and_zero_is_legal(family):
    make = FAMILIES[family]
    with pytest.raises(ValueError, match=r"n = -5 must not be negative"):
        make(-5)
    if family != "certified_far":  # nothing certifies two empty strings as far
        assert make(0) == (b"", b"")


@given(
    n=st.one_of(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 3 * BLOCK]),
                st.integers(0, 3 * BLOCK)),
    sigma=st.integers(2, 26),
    seed=st.integers(0, 2**64),
)
@example(n=BLOCK - 1, sigma=3, seed=1)
@example(n=BLOCK, sigma=26, seed=2)
@example(n=BLOCK + 1, sigma=7, seed=3)
@settings(max_examples=200, deadline=None)
def test_letters_are_random_choices_byte_for_byte(n, sigma, seed):
    # a sigma that is not a power of two makes every bit of each uniform count
    alpha = _alphabet(sigma)
    rng, ref = random.Random(seed), random.Random(seed)
    assert _letters(rng, alpha, n) == bytes(ref.choices(alpha, k=n))
    assert rng.getstate() == ref.getstate()


def test_alphabet_bounds_are_enforced():
    with pytest.raises(ValueError):
        gen_random_edits(100, 1, 0, sigma=1)
    with pytest.raises(ValueError):
        gen_independent_random(100, 0, sigma=27)


# ---------------------------------------------------------------------------
# random edits


def test_random_edits_zero_budget_is_identity():
    for seed in range(5):
        x, y = gen_random_edits(1024, 0, seed)
        assert x == y


def test_random_edits_distance_is_the_requested_budget():
    # k independent edits at scattered positions rarely cancel; at
    # n=1024, k=3 the realized distance equals k for these seeds
    for seed in range(10):
        x, y = gen_random_edits(1024, 3, seed)
        d = edit_distance(x, y)
        assert 1 <= d <= 3
        assert d == 3, seed


def test_random_edits_rejects_oversized_budget():
    with pytest.raises(ValueError):
        gen_random_edits(10, 11, 0)
    with pytest.raises(ValueError):
        gen_random_edits(10, -1, 0)


# ---------------------------------------------------------------------------
# block shift


def test_block_shift_distance_scales_with_block_count():
    x, y = gen_block_shift(256, 4, 3)
    assert len(x) == len(y) == 256
    d = edit_distance(x, y)
    assert 0 < d <= 2 * 4


# ---------------------------------------------------------------------------
# periodic splice


def test_periodic_splice_validates_parameters():
    with pytest.raises(ValueError):
        gen_periodic_splice(1024, 3, 1, 0)  # odd period
    with pytest.raises(ValueError):
        gen_periodic_splice(1024, 0, 1, 0)
    with pytest.raises(ValueError):
        gen_periodic_splice(1024, 2, -1, 0)
    with pytest.raises(ValueError):
        gen_periodic_splice(64, 2, 50, 0)  # transitions too dense


def test_periodic_splice_no_transitions_is_a_perfect_tiling():
    for n, y_only in ((1024, False), (10, False), (1024, True)):
        x, y = gen_periodic_splice(n, 4, 0, seed=2, y_only=y_only)
        assert len(x) == n
        assert x == y
        assert x[4:] == x[:-4]


def test_periodic_splice_switch_rows():
    n, g, nt = 1024, 2, 1
    x, y = gen_periodic_splice(n, g, nt, seed=9)
    spacing = n // (nt + 2)
    s = spacing
    # x changes pattern at s, y follows half a period later
    assert x[:s] == y[:s]
    assert x[s : s + g] != y[s : s + g]
    assert x[s + g // 2] == y[s + g]  # y resumes x's new pattern, lagged
    d = ref_edit_distance(x, y)
    assert 0 < d <= 3 * g


def test_periodic_splice_y_only_keeps_x_single_switch():
    n, g = 1024, 4
    x, y = gen_periodic_splice(n, g, 2, seed=3, y_only=True)
    s0 = n // 4
    assert x[s0 + g :] == x[s0:-g]
    assert x[g:s0] == x[: s0 - g]
    assert x != y


# ---------------------------------------------------------------------------
# independent random


def test_independent_random_pairs_are_far_apart():
    x, y = gen_independent_random(4096, 1, sigma=8)
    assert banded_edit_distance(x, y, 208) is None


# ---------------------------------------------------------------------------
# certification


def test_certified_delta_small_instances():
    x, y = gen_random_edits(512, 2, 4)
    assert certified_delta(x, y) == ref_edit_distance(x, y)


def test_certified_delta_declines_large_instances():
    x = b"a" * 5000
    assert certified_delta(x, x) is None


def test_certify_far_uses_the_oracle_when_it_fits():
    x, y = gen_independent_random(1024, 2, sigma=8)
    d = int(ref_cost_table(x, y)[-1, -1])
    assert banded_edit_distance(x, y, d - 1) is None
    assert banded_edit_distance(x, y, d) == d


def test_certify_far_banded_path_on_large_instances():
    x, y = gen_independent_random(8192, 3, sigma=8)
    assert banded_edit_distance(x, y, 250) is None
    assert banded_edit_distance(x, y, 8192) is not None


def test_gen_certified_far_meets_its_threshold():
    x, y, threshold = gen_certified_far(4096, 4, 0)
    assert threshold == 13 * 16
    assert banded_edit_distance(x, y, threshold) is None


def test_gen_certified_far_gives_up_when_impossible():
    # distance can never exceed n, so a threshold at or past n is refused
    # before any candidate is drawn
    with pytest.raises(ValueError, match=r"threshold 409600 is not below n = 64"):
        gen_certified_far(64, 64, 0, far_factor=100.0)
    with pytest.raises(ValueError, match=r"threshold 64 is not below n = 64"):
        gen_certified_far(64, 8, 0, far_factor=1.0)


def test_gen_certified_far_resamples_a_failed_candidate(caplog):
    # seed 0's pair is at distance 34, within 36, so the next seed is drawn
    # and certified; both steps are logged
    with caplog.at_level(logging.INFO, logger="gaped.generators"):
        x, y, threshold = gen_certified_far(64, 1, 0, far_factor=36.0)
    assert (x, y) == gen_independent_random(64, 1)
    assert threshold == 36
    assert banded_edit_distance(x, y, threshold) is None
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, "far candidate (seed 0) failed certification; resampling"),
        (logging.INFO, "far instance certified after 1 resample(s)"),
    ]


def test_gen_certified_far_gives_up_after_its_tries():
    # 63 is below n = 64, but independent random 64-letter pairs are never
    # at distance 64, so every candidate fails certification
    with pytest.raises(RuntimeError, match="in 32 attempts"):
        gen_certified_far(64, 1, 0, far_factor=63.0)


# ---------------------------------------------------------------------------
# the files write_instance writes


def test_write_read_instance_round_trip(tmp_path):
    x, y = gen_random_edits(300, 2, 8)
    meta = {"family": "random_edits", "n": 300, "seed": 8}
    write_instance(tmp_path, x, y, meta)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["meta.json", "x.bin", "y.bin"]
    assert (tmp_path / "x.bin").read_bytes() == x
    assert (tmp_path / "y.bin").read_bytes() == y
    assert json.loads((tmp_path / "meta.json").read_text()) == meta
