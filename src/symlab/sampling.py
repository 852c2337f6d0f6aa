"""Input distributions for Monte-Carlo estimates of mu-inner products, and
the standard error every Monte-Carlo estimate reports.

Only distributions invariant under orthogonal actions are constructed
here: the isotropic Gaussian and the uniform sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Distribution", "gaussian", "sphere", "standard_error"]


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


def standard_error(values: np.ndarray) -> float:
    """std(ddof=1) / sqrt(n) of n values; NaN below two values, where it is
    undefined, so a k-SE verdict on it fails."""
    n = len(values)
    return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan
