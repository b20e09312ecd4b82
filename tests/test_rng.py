"""Seed derivation: stable streams per purpose, distinct replicate seeds."""

import numpy as np
import pytest

from hawkes_meanfield.errors import ParameterError
from hawkes_meanfield.rng import (ACCEPT, CANDIDATES, NETWORK, replicate_seed,
                                  stream)


def test_stream_is_reproducible():
    a = stream(99, NETWORK).random(16)
    b = stream(99, NETWORK).random(16)
    np.testing.assert_array_equal(a, b)


def test_purposes_give_unrelated_draws():
    a = stream(99, CANDIDATES).random(64)
    b = stream(99, ACCEPT).random(64)
    assert not np.array_equal(a, b)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.4


def test_vertex_indexed_streams_differ():
    a = stream(7, CANDIDATES, 0).random(32)
    b = stream(7, CANDIDATES, 1).random(32)
    assert not np.array_equal(a, b)


def test_replicate_seed_stable_and_distinct():
    seeds = [replicate_seed(20240823, r) for r in range(1000)]
    assert seeds == [replicate_seed(20240823, r) for r in range(1000)]
    assert len(set(seeds)) == 1000
    assert all(0 <= s < 2**64 for s in seeds)


def test_replicate_seed_depends_on_master():
    assert replicate_seed(1, 0) != replicate_seed(2, 0)


@pytest.mark.parametrize("seed", [-1, 1.5, 2.0, True, "3", None, [3]])
def test_a_seed_is_an_integer_at_least_zero(seed):
    # numpy would refuse -1 with a bare ValueError, and int() would run 1.5
    # on seed 1
    with pytest.raises(ParameterError, match="^seed must be an integer >= 0"):
        stream(seed, NETWORK)
    with pytest.raises(ParameterError, match="^seed must be an integer >= 0"):
        replicate_seed(seed, 0)


def test_numpy_integer_seeds_are_seeds():
    for seed in (np.int64(99), np.uint32(99)):
        np.testing.assert_array_equal(stream(seed, NETWORK).random(4),
                                      stream(99, NETWORK).random(4))
        assert replicate_seed(seed, 3) == replicate_seed(99, 3)
