"""Tests for the stream table: the padding identities that keep each purpose's
statistical bytes, and the table's codes; for the memory blocks; for the
moments merged chunk by chunk; and for the input distributions' sizes."""

import math

import numpy as np
import pytest

from symlab import sampling
from symlab.sampling import STREAMS, RunningMoments, blocks, gaussian, sphere, stream

SEEDS = [0, 1, 7, 20240, 2 ** 32 - 1]


def _standard_error(values):
    # the reference: the sample standard deviation over sqrt(n), undefined below two values
    n = len(values)
    return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan


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
    mean, got = RunningMoments().add(values).estimate()
    assert mean == float(values.mean())
    se = _standard_error(values)
    assert got == se or math.isnan(se) and math.isnan(got)


def test_merged_moments_are_the_pooled_mean_and_spread():
    values = np.random.default_rng(5).standard_normal(1000) * 2.0 + 7.0
    moments = RunningMoments()
    for sl in (slice(0, 1), slice(1, 300), slice(300, 1000)):
        moments.add(values[sl])
    mean, se = moments.estimate()
    assert moments.count == 1000
    assert mean == pytest.approx(values.mean(), rel=1e-14)
    assert se == pytest.approx(_standard_error(values), rel=1e-12)


def test_moments_of_matrices_are_each_entrys_moments():
    # a sum over the leading axis of a stack adds row by row, a 1-D sum pairwise,
    # so the two agree to rounding, not bit for bit
    values = np.random.default_rng(6).standard_normal((1000, 2, 3)) + 5.0
    matrices = RunningMoments()
    for sl in (slice(0, 1), slice(1, 512), slice(512, 1000)):
        matrices.add(values[sl])
    mean, se = matrices.estimate()
    assert mean.shape == se.shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        column = values[:, i, j]
        assert mean[i, j] == pytest.approx(column.mean(), rel=1e-14)
        assert se[i, j] == pytest.approx(_standard_error(column), rel=1e-12)


def test_add_returns_the_moments_also_for_an_empty_chunk():
    moments = RunningMoments()
    assert moments.add(np.empty(0)) is moments
    assert moments.add(np.array([1.0, 3.0])) is moments
    assert moments.add(np.empty(0)) is moments


def test_moments_of_no_values_are_nan_and_an_empty_chunk_changes_nothing():
    moments = RunningMoments()
    moments.add(np.empty(0))
    assert moments.count == 0
    assert all(math.isnan(v) for v in moments.estimate())
    moments.add(np.array([1.0, 3.0]))
    moments.add(np.empty(0))
    assert moments.count == 2
    assert moments.estimate() == (2.0, 1.0)


@pytest.mark.parametrize("make,name", [(gaussian, "scale"), (sphere, "radius")])
@pytest.mark.parametrize("size", [0.0, -1.0, math.nan])
def test_a_distribution_of_size_zero_or_less_is_refused_by_name(make, name, size):
    # size 0 draws only the origin, a vacuous pass, and -s draws the law of +s under another hash
    with pytest.raises(ValueError, match=f"^{name} is {size!r}, not > 0$"):
        make(3, size)
