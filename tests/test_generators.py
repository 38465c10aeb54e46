"""Instance families: construction invariants, certification, round trips."""

import json
import random

import pytest

from conftest import ref_edit_distance
from gaped.generators import (
    InstanceSpec,
    certified_delta,
    certify_far,
    gen_block_shift,
    gen_certified_far,
    gen_independent_random,
    gen_periodic_splice,
    gen_random_edits,
    instantiate,
    read_instance,
    write_instance,
)
from gaped.oracle import banded_edit_distance, edit_distance


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
    d = edit_distance(x, y)
    assert certify_far(x, y, d - 1)
    assert not certify_far(x, y, d)


def test_certify_far_banded_path_on_large_instances():
    x, y = gen_independent_random(8192, 3, sigma=8)
    assert certify_far(x, y, 250)
    assert not certify_far(x, y, 8192)


def test_gen_certified_far_meets_its_threshold():
    x, y, threshold = gen_certified_far(4096, 4, 0)
    assert threshold == 13 * 16
    assert banded_edit_distance(x, y, threshold) is None


def test_gen_certified_far_gives_up_when_impossible():
    # distance can never exceed n, so certification must keep failing
    with pytest.raises(RuntimeError):
        gen_certified_far(64, 64, 0, far_factor=100.0, max_tries=2)


# ---------------------------------------------------------------------------
# specs and the disk round trip


def test_instance_spec_same_spec_same_bytes():
    spec = InstanceSpec("periodic_splice", 2048, 5, {"g": 2, "num_transitions": 3})
    again = InstanceSpec("periodic_splice", 2048, 5, {"g": 2, "num_transitions": 3})
    x1, y1 = instantiate(spec)
    x2, y2 = instantiate(again)
    assert x1 == x2 and y1 == y2


def test_instance_spec_rejects_unknown_family():
    with pytest.raises(ValueError):
        InstanceSpec("mystery", 100, 0, {})


def test_write_read_instance_round_trip(tmp_path):
    x, y = gen_random_edits(300, 2, 8)
    meta = {"family": "random_edits", "n": 300, "seed": 8}
    write_instance(tmp_path, x, y, meta)
    x2, y2, meta2 = read_instance(tmp_path)
    assert (x2, y2) == (x, y)
    assert meta2 == meta
    stored = json.loads((tmp_path / "meta.json").read_text())
    assert stored == meta
