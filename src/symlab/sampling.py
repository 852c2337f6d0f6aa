"""Input distributions for Monte-Carlo estimates of mu-inner products.

Only distributions invariant under orthogonal actions are constructed
here (isotropic Gaussian, uniform sphere), plus the uniform law on an
explicit point list whose invariance is the caller's responsibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Distribution", "gaussian", "sphere", "point_set"]


@dataclass(frozen=True)
class Distribution:
    kind: str  # "gaussian" | "sphere" | "points"
    dim: int
    scale: float = 1.0  # std per coordinate for gaussian, radius for sphere
    points: np.ndarray | None = None

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return self.scale * rng.standard_normal((n, self.dim))
        if self.kind == "sphere":
            z = rng.standard_normal((n, self.dim))
            # scale * z / np.linalg.norm(z, axis=1, keepdims=True), in z's buffer
            norm = np.sqrt(np.add.reduce(z * z, axis=1, keepdims=True))
            return np.divide(np.multiply(self.scale, z, out=z), norm, out=z)
        if self.kind == "points":
            idx = rng.integers(0, self.points.shape[0], size=n)
            return self.points[idx]
        raise ValueError(f"unknown distribution kind {self.kind!r}")


def gaussian(dim: int, scale: float = 1.0) -> Distribution:
    return Distribution("gaussian", dim, scale)


def sphere(dim: int, radius: float | None = None) -> Distribution:
    # default radius sqrt(d) so that E[x_i^2] = 1, matching the Gaussian scale
    if radius is None:
        radius = float(np.sqrt(dim))
    return Distribution("sphere", dim, radius)


def point_set(points: np.ndarray) -> Distribution:
    pts = np.ascontiguousarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("point_set needs a non-empty (m, d) array")
    return Distribution("points", pts.shape[1], 1.0, pts)
