"""Seeded Monte Carlo estimators used only to cross-check the quadrature pipeline.

Sampling is counter-based (Philox keyed by seed and block index), so the
estimate for a given (inputs, seed, n) is bit-identical no matter how the
blocks are scheduled: block hit counts are integers and their sum is
order-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shapes import Shape, geometry

BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    n: int
    seed: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def sample_cauchy(d: int, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw n vectors with density p_1 via the ratio-of-normals representation."""
    out = np.empty((n, d))
    filled = 0
    while filled < n:
        need = n - filled
        g = rng.standard_normal((need, d))
        g0 = rng.standard_normal(need)
        ok = g0 != 0.0
        got = int(np.sum(ok))
        out[filled : filled + got] = g[ok] / np.abs(g0[ok])[:, None]
        filled += got
    return out


def _estimate(shape: Shape, n: int, seed: int, move) -> McEstimate:
    """|Omega| P(move(X, rng) in Omega) for X uniform on Omega, one stream per block."""
    if n < 1000:
        raise ValueError("need n >= 1000")
    vol = geometry(shape).volume
    hits = 0
    for block, done in enumerate(range(0, n, BLOCK_SIZE)):
        rng = _block_rng(seed, block)
        x = shape.sample(rng, min(BLOCK_SIZE, n - done))
        hits += int(np.sum(shape.contains(move(x, rng))))
    p = hits / n
    return McEstimate(
        mean=vol * p,
        stderr=vol * math.sqrt(max(p * (1.0 - p), 0.0) / n),
        n=n,
        seed=seed,
    )


def mc_heat_content(shape: Shape, t: float, n: int, seed: int) -> McEstimate:
    """Estimate H(t) = |Omega| P(X + t W in Omega), X uniform on Omega, W ~ p_1."""
    return _estimate(shape, n, seed, lambda x, rng: x + t * sample_cauchy(shape.dim, rng, len(x)))


def mc_covariance(shape: Shape, y, n: int, seed: int) -> McEstimate:
    """Estimate g(y) = |Omega| P(X - y in Omega), X uniform on Omega."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return _estimate(shape, n, seed, lambda x, rng: x - y)
