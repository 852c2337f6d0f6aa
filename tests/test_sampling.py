"""Tests for the stream table: the padding identities that keep each purpose's
statistical bytes, and the table's codes; for the memory blocks; and for the
moments merged chunk by chunk."""

import math

import numpy as np
import pytest

from symlab import sampling
from symlab.sampling import STREAMS, RunningMoments, blocks, standard_error, stream

SEEDS = [0, 1, 7, 20240, 2 ** 32 - 1]


def _state(rng):
    return rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_the_main_stream_is_default_rng_of_the_seed(seed):
    # a seed sequence pads its key with zeros: (seed, 0, 0) is the entropy of seed alone
    assert _state(stream(seed, "main")) == _state(np.random.default_rng(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("purpose", sorted(STREAMS))
def test_a_purposes_first_stream_is_default_rng_of_seed_and_code(seed, purpose):
    assert _state(stream(seed, purpose)) == _state(np.random.default_rng((seed, STREAMS[purpose])))
    assert _state(stream(seed, purpose, 3)) == _state(np.random.default_rng((seed, STREAMS[purpose], 3)))


def test_no_code_is_used_twice():
    assert len(set(STREAMS.values())) == len(STREAMS)
    assert STREAMS["main"] == 0


@pytest.mark.parametrize("count,each", [
    (0, 8), (1, 8), (10, 1 << 14), (1000, 3), (1000, 1 << 17), (7, 1 << 20), (5040, 98),
])
def test_blocks_partition_the_items_in_order_within_budget(count, each):
    slices = blocks(count, each)
    assert [i for sl in slices for i in range(count)[sl]] == list(range(count))
    assert all(sl.step is None and sl.start < sl.stop for sl in slices)
    for sl in slices:
        assert (sl.stop - sl.start) * each <= sampling.BLOCK_ENTRIES or sl.stop - sl.start == 1


def test_blocks_read_the_budget_when_called(monkeypatch):
    monkeypatch.setattr(sampling, "BLOCK_ENTRIES", 10)
    assert blocks(7, 3) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert blocks(3, 11) == [slice(0, 1), slice(1, 2), slice(2, 3)]


@pytest.mark.parametrize("count", [1, 2, 7, 512])
def test_one_chunk_of_moments_is_standard_error_bit_for_bit(count):
    values = np.random.default_rng(count).standard_normal(count) + 3.0
    moments = RunningMoments()
    moments.add(values)
    assert moments.mean == float(values.mean())
    se = standard_error(values)
    assert moments.standard_error() == se or math.isnan(se) and math.isnan(moments.standard_error())


def test_merged_moments_are_the_pooled_mean_and_spread():
    values = np.random.default_rng(5).standard_normal(1000) * 2.0 + 7.0
    moments = RunningMoments()
    for sl in (slice(0, 1), slice(1, 300), slice(300, 1000)):
        moments.add(values[sl])
    assert moments.count == 1000
    assert moments.mean == pytest.approx(values.mean(), rel=1e-14)
    assert moments.standard_error() == pytest.approx(standard_error(values), rel=1e-12)
