"""Seeded Monte Carlo estimators used only to cross-check the quadrature pipeline.

Sampling is counter-based (Philox keyed by seed and block index), so the
estimate for a given (inputs, seed, n) is bit-identical no matter how the
blocks are scheduled: block hit counts are integers and their sum is
order-invariant.  The blocks run concurrently, one in flight per usable CPU:
on the calling thread plus helper threads, which NumPy's random draws and
array loops let run in parallel.  Estimates are therefore the same for any
schedule and CPU count, and memory grows by one block's temporaries per CPU.

Block code touches only shape methods, ``_block_rng`` and ``sample_cauchy``;
argument checks and ``geometry`` run on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .kernel import _check_t
from .shapes import Shape, _rows, geometry

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
    g = rng.standard_normal((n, d))
    g0 = rng.standard_normal(n)
    while not g0.all():  # a zero g0 (possible in floating point): redraw its rows
        ok = g0 != 0.0
        more = n - int(np.sum(ok))
        g = np.concatenate([g[ok], rng.standard_normal((more, d))])
        g0 = np.concatenate([g0[ok], rng.standard_normal(more)])
    g /= np.abs(g0, out=g0)[:, None]
    return g


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _estimate(shape: Shape, n: int, seed: int, move) -> McEstimate:
    """|Omega| P(move(X, rng) in Omega) for X uniform on Omega, one stream per block."""
    if isinstance(n, bool) or not isinstance(n, Integral) or n < 1000:
        raise DomainError(f"n must be an integer >= 1000, got {n!r}")
    if isinstance(seed, bool) or not isinstance(seed, Integral) or not 0 <= seed < 1 << 64:
        raise DomainError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    vol = geometry(shape).volume
    n_blocks = -(-n // BLOCK_SIZE)
    lock = threading.Lock()
    claimed = iter(range(n_blocks))
    counts, failures = [], []  # list.append is atomic

    def work():
        hits = 0
        try:
            while not failures:
                with lock:
                    block = next(claimed, None)
                if block is None:
                    break
                rng = _block_rng(seed, block)
                size = min(BLOCK_SIZE, n - block * BLOCK_SIZE)
                # no name holds the block's arrays, so each is freed once the next step is done
                hits += int(np.count_nonzero(shape.contains(move(shape.sample(rng, size), rng))))
        except BaseException as exc:
            failures.append(exc)
        counts.append(hits)

    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(_usable_cpus(), n_blocks) - 1)]
    for helper in helpers:
        helper.start()
    work()
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    p = sum(counts) / n
    return McEstimate(
        mean=vol * p,
        stderr=vol * math.sqrt(max(p * (1.0 - p), 0.0) / n),
        n=n,
        seed=seed,
    )


def mc_heat_content(shape: Shape, t: float, n: int, seed: int) -> McEstimate:
    """Estimate H(t) = |Omega| P(X + t W in Omega), X uniform on Omega, W ~ p_1."""
    t = _check_t(t)

    def move(x, rng):
        w = sample_cauchy(shape.dim, rng, len(x))
        w *= t
        w += x
        return w

    return _estimate(shape, n, seed, move)


def mc_covariance(shape: Shape, y, n: int, seed: int) -> McEstimate:
    """Estimate g(y) = |Omega| P(X - y in Omega), X uniform on Omega."""
    ys, _ = _rows(y, shape.dim, "point")
    if len(ys) != 1:
        raise DimensionMismatchError(f"mc_covariance takes one point, got {len(ys)}")
    y = ys[0]

    def move(x, rng):
        x -= y
        return x

    return _estimate(shape, n, seed, move)
