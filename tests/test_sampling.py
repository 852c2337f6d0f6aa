"""Tests for the stream table: the padding identities that keep each purpose's
statistical bytes, and the table's codes."""

import numpy as np
import pytest

from symlab.sampling import STREAMS, stream

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
