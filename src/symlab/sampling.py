"""Input distributions for Monte-Carlo estimates of mu-inner products; the
standard error every Monte-Carlo estimate reports, over a whole column or
merged chunk by chunk; the random streams an experiment draws from its
seed; and the blocks that bound the memory of a loop over many items.

Only distributions invariant under orthogonal actions are constructed
here: the isotropic Gaussian and the uniform sphere.  Every draw an
experiment makes from its seed goes through stream(seed, purpose, index),
so each purpose has its own stream and no two purposes share one.

A stream unit sets which draws go together, so changing one moves bytes;
a block, from blocks(count, each), is a memory unit only, and no value
depends on where the blocks fall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_ENTRIES", "Distribution", "RunningMoments", "STREAMS", "blocks", "gaussian", "sphere",
    "standard_error", "stream",
]

# float64 entries that one block of a memory-blocked loop keeps live (1 MB)
BLOCK_ENTRIES = 1 << 17

# purpose -> the code that keys its streams (seed, code, index); no code is used twice,
# and a seed below 2**32 is one word of the key, so no two keys draw the same stream.
# A seed sequence pads its key with zeros, so (seed, 0, 0) draws default_rng(seed) and
# (seed, c, 0) draws default_rng((seed, c)).
STREAMS = {
    "main": 0,  # an experiment's own draws
    "pairs": 7,  # estimate_N's pairs
    "krr_trials": 11,  # the KRR gap's chunks of noisy trials, one index per chunk
    "krr_bias": 12,  # the KRR bias estimate's chunks of noiseless trials
    "target": 13,  # gap-equivariant's random target
    "weights": 14,  # the CLI's random layer weights
    "orbit_trial": 15,  # equivalence_demo's trials, one index per trial
    "kernel_check": 16,  # build_averaged_kernel's checks of the averaged kernel
    "mk_probe": 55,  # the points that estimate sup k(x, x)
    "f_star_check": 101,  # KrrGapConfig's invariance check of f_star
}


@dataclass(frozen=True)
class Distribution:
    kind: str  # "gaussian" | "sphere"
    dim: int
    scale: float = 1.0  # std per coordinate for gaussian, radius for sphere

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return self.scale * rng.standard_normal((n, self.dim))
        if self.kind == "sphere":
            z = rng.standard_normal((n, self.dim))
            # scale * z / np.linalg.norm(z, axis=1, keepdims=True), in z's buffer
            norm = np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True))
            return np.divide(np.multiply(self.scale, z, out=z), norm, out=z)
        raise ValueError(f"unknown distribution kind {self.kind!r}")


def gaussian(dim: int, scale: float = 1.0) -> Distribution:
    return Distribution("gaussian", dim, scale)


def sphere(dim: int, radius: float | None = None) -> Distribution:
    # default radius sqrt(d) so that E[x_i^2] = 1, matching the Gaussian scale
    if radius is None:
        radius = float(np.sqrt(dim))
    return Distribution("sphere", dim, radius)


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """The generator of the index-th stream of `purpose` under an experiment's seed."""
    return np.random.default_rng((seed, STREAMS[purpose], index))


def blocks(count: int, each: int) -> list[slice]:
    """`count` items in order, in slices of as many items of `each` live
    entries as BLOCK_ENTRIES holds, and at least one item."""
    step = max(1, BLOCK_ENTRIES // max(1, each))
    return [slice(start, min(start + step, count)) for start in range(count)[::step]]


def standard_error(values: np.ndarray) -> float:
    """std(ddof=1) / sqrt(n) of n values; NaN below two values, where it is
    undefined, so a k-SE verdict on it fails."""
    n = len(values)
    return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan


class RunningMoments:
    """The count, mean and M2 (the sum of squared deviations from the mean) of
    the chunks of values added so far, so that no column of them is kept.

    Each chunk takes two passes, as standard_error does, and the chunks merge
    in order by the pairwise update of Chan et al.: with delta = m_b - m_a,
    mean = m_a + delta n_b / n and M2 = M2_a + M2_b + delta^2 n_a n_b / n.
    Running sums of x and x^2 would cancel on values that are equal up to
    rounding; M2 keeps their spread.  A chunk is an array whose leading axis
    runs over its values, so a chunk of (t, d, d) matrices keeps the moments
    of each of the d x d entries.  Over a single chunk the mean and the
    standard error are standard_error's bit for bit.  Before any value is
    added, the mean and the standard error are NaN.
    """

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, values: np.ndarray) -> None:
        """Merge a chunk of values; an empty chunk changes nothing."""
        n_b = len(values)
        if not n_b:
            return
        m_b = values.mean(axis=0)
        dev = values - m_b
        m2_b = np.square(dev, out=dev).sum(axis=0)
        n = self.count + n_b
        delta = m_b - self.mean
        share = n_b / n  # 1.0 for the first chunk, which is then taken as it is
        self.mean += delta * share
        self.m2 += m2_b + delta * delta * self.count * share
        self.count = n

    def estimate(self) -> tuple:
        """(mean, standard error): sqrt(M2 / (n - 1)) / sqrt(n), NaN below two values,
        as standard_error gives; both NaN when no value was added."""
        n = self.count
        mean = self.mean if n else math.nan
        return mean, np.sqrt(self.m2 / (n - 1)) / np.sqrt(n) if n > 1 else math.nan
