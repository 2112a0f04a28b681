"""Seeded job lists for the three workloads.

A job is one public ``heatcov`` call.  Its name is fixed by the workload's
structure and never by the seed, so known defects and per-job results can
be compared across seeds; the seed only moves the numeric inputs (shape
parameters, times t, probe points, Monte Carlo seeds).  Inputs are drawn
from narrow strata so that a fresh seed costs about the same as any other.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("radial", "rectangles", "polygons")

MAX_DIM = 16
RADIAL_T_RANGE = (1e-9, 1e3)  # the documented range of t
RADIAL_T_STRATA = 8
RECT_T_RANGE = (1e-3, 1e-1)
POLY_GAMMA_KS = (8, 20, 32)  # 2^-8 is inside every polygon's quadratic range


@dataclass(frozen=True)
class ShapeSpec:
    """A shape as plain data: kind, a seed-independent label, parameters.

    kind is "ball" (d,), "interval" (L,), "rectangle" (h1, h2), or
    "polygon" (vertices,).  Rotated rectangles also carry their half-widths
    in ``frame`` so the rectangle oracles apply to them.
    """

    kind: str
    label: str
    params: tuple
    frame: tuple = ()


@dataclass(frozen=True)
class Job:
    name: str
    op: str
    shape: ShapeSpec | None
    args: tuple = ()
    ref: str | None = None  # job whose result is this job's reference


def _log_strata(rng: random.Random, lo: float, hi: float, n: int, spread: float) -> list:
    """One log-uniform value in each of n equal log-strata of [lo, hi].

    Each value is drawn from the middle ``spread`` fraction of its stratum.
    """
    a, b = math.log(lo), math.log(hi)
    return [
        math.exp(a + (b - a) * (i + 0.5 + spread * rng.uniform(-0.5, 0.5)) / n)
        for i in range(n)
    ]


def _unit(rng: random.Random, dim: int) -> tuple:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return tuple(x / n for x in v)


def ball(d: int) -> ShapeSpec:
    return ShapeSpec("ball", f"ball-d{d}", (d,))


# ---------------------------------------------------------------------------
# radial: unit balls d = 1..16 and intervals (0, L)
# ---------------------------------------------------------------------------

def _radial(rng: random.Random) -> list:
    jobs = []
    intervals = [
        ShapeSpec("interval", f"interval-{i}", (L,))
        for i, L in enumerate(_log_strata(rng, 0.25, 4.0, 3, 0.5), start=1)
    ]
    radial_shapes = [ball(d) for d in range(1, MAX_DIM + 1)] + intervals

    for d in range(1, MAX_DIM + 1):
        jobs.append(Job(f"kernel_constants/d{d}", "kernel_constants", None, (d,)))
    for spec in radial_shapes:
        jobs.append(Job(f"third_term/{spec.label}", "third_term", spec))
    for spec in radial_shapes:
        ts = _log_strata(rng, *RADIAL_T_RANGE, RADIAL_T_STRATA, 0.8)
        for j, t in enumerate(ts):
            jobs.append(Job(f"decomposition/{spec.label}/t{j}", "decomposition", spec, (t,)))
    for d in range(1, MAX_DIM + 1):
        for k in (1, 4, 8, 16, 24, 32):
            jobs.append(Job(f"gamma/ball-d{d}/k{k}", "gamma", ball(d), (k,)))
    # covariance only in d >= 3: no 2-D covariance in this workload
    for d in range(3, 11):
        rs = [2.5 * (i + rng.random()) / 40 for i in range(40)]
        for i, r in enumerate(rs):
            y = tuple(r * c for c in _unit(rng, d))
            jobs.append(Job(f"covariance/ball-d{d}/p{i}", "covariance", ball(d), (y,)))
    # Monte Carlo against the quadrature H of the same input
    for i, spec in enumerate([ball(3), ball(6), ball(10), intervals[0]], start=1):
        t = math.exp(rng.uniform(math.log(0.05), math.log(0.5)))
        ref = f"decomposition/{spec.label}/mc{i}"
        jobs.append(Job(ref, "decomposition", spec, (t,)))
        jobs.append(
            Job(f"mc_heat_content/{spec.label}/mc{i}", "mc_heat_content", spec,
                (t, 500_000, rng.randrange(2**31)), ref=ref)
        )
    for i, d in enumerate((4, 8), start=1):
        y = tuple(rng.uniform(0.3, 1.2) * c for c in _unit(rng, d))
        jobs.append(
            Job(f"mc_covariance/ball-d{d}/mc{i}", "mc_covariance", ball(d),
                (y, 500_000, rng.randrange(2**31)))
        )
    for d in range(1, MAX_DIM + 1):
        jobs.append(Job(f"cli/constants-d{d}", "cli", None, (("constants", "--dim", str(d)), "constants")))
    for i, t in enumerate(_log_strata(rng, 1e-4, 1.0, 2, 0.5), start=1):
        argv = ("expansion", "--shape", "ball3", "--t", repr(t))
        jobs.append(Job(f"cli/expansion-ball3-{i}", "cli", None, (argv, "expansion")))
    return jobs


# ---------------------------------------------------------------------------
# rectangles: the unit square and a seeded aspect ratio, with scaled copies
# ---------------------------------------------------------------------------

def _rectangles(rng: random.Random) -> list:
    jobs = []
    square = ShapeSpec("rectangle", "square", (1.0, 1.0))
    aspect = math.exp(rng.uniform(math.log(1.5), math.log(4.0)))
    size = rng.uniform(0.7, 1.2)
    rect = ShapeSpec("rectangle", "rect", (size * math.sqrt(aspect), size / math.sqrt(aspect)))

    t_square, t_rect = _log_strata(rng, *RECT_T_RANGE, 2, 0.2)
    for spec, t in ((square, t_square), (rect, t_rect)):
        lam = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        h1, h2 = spec.params
        scaled = ShapeSpec("rectangle", f"{spec.label}-scaled", (lam * h1, lam * h2))
        base = f"heat_content/{spec.label}"
        jobs.append(Job(base, "heat_content", spec, (t,)))
        # scaling law H_{lam Omega}(lam t) = lam^2 H_Omega(t)
        jobs.append(Job(f"heat_content/{scaled.label}", "heat_content", scaled, (lam * t, lam), ref=base))
        jobs.append(
            Job(f"mc_heat_content/{spec.label}", "mc_heat_content", spec,
                (t, 400_000, rng.randrange(2**31)), ref=base)
        )
    # gamma probes on the generic 2-D path (the unit square has a closed form)
    for k in range(1, 33):
        jobs.append(Job(f"gamma/{rect.label}/k{k}", "gamma", rect, (k,)))
    jobs.append(Job("third_term/square", "third_term", square))
    for spec in (square, rect):
        h1, h2 = spec.params
        for i in range(100):
            y = (rng.uniform(-2.4, 2.4) * h1, rng.uniform(-2.4, 2.4) * h2)
            jobs.append(Job(f"covariance/{spec.label}/p{i}", "covariance", spec, (y,)))
        y = (rng.uniform(0.0, 1.5) * h1, rng.uniform(0.0, 1.5) * h2)
        jobs.append(
            Job(f"mc_covariance/{spec.label}", "mc_covariance", spec,
                (y, 400_000, rng.randrange(2**31)))
        )
    jobs.append(Job("cli/verify-all", "cli", None, (("verify", "all"), "verify")))
    sweep = ("sweep", "--shape", "square", "--t-min", "0.25", "--t-max", "1", "--count", "2", "--format", "csv")
    jobs.append(Job("cli/sweep-1", "cli", None, (sweep, "sweep")))
    jobs.append(Job("cli/sweep-2", "cli", None, (sweep, "sweep"), ref="cli/sweep-1"))
    return jobs


# ---------------------------------------------------------------------------
# polygons: seeded triangle, hexagon and rotated rectangle
# ---------------------------------------------------------------------------

def _rotate(points, angle: float) -> tuple:
    c, s = math.cos(angle), math.sin(angle)
    return tuple((c * x - s * y, s * x + c * y) for x, y in points)


def _on_ellipse(rng: random.Random, n: int, jitter: float, symmetric: bool = False) -> tuple:
    """n vertices at jittered, evenly spaced angles on a bounded-aspect ellipse.

    Consecutive vertex angles differ by at least 2 pi / n - 2 jitter and the
    ellipse's aspect ratio is at most 1.1, which bounds how far the cost of
    any seed can stray from the others.  With ``symmetric`` (n even) the
    second half of the vertices mirrors the first through the centre.
    """
    aspect = rng.uniform(1.0, 1.1)
    free = n // 2 if symmetric else n
    phases = [2.0 * math.pi * i / n + rng.uniform(-jitter, jitter) for i in range(free)]
    if symmetric:
        phases += [p + math.pi for p in phases]
    pts = [(aspect * math.cos(p), math.sin(p)) for p in phases]
    return _rotate(pts, rng.uniform(0.0, 2.0 * math.pi))


def polygon_shapes(rng: random.Random) -> list:
    tri = ShapeSpec("polygon", "triangle", (_on_ellipse(rng, 3, 0.08),))
    hexagon = ShapeSpec("polygon", "hexagon", (_on_ellipse(rng, 6, 0.06, symmetric=True),))
    h1, h2 = rng.uniform(1.3, 1.5), rng.uniform(0.55, 0.65)
    angle = rng.uniform(0.1, 0.5 * math.pi - 0.1)
    corners = ((-h1, -h2), (h1, -h2), (h1, h2), (-h1, h2))
    rotrect = ShapeSpec("polygon", "rotrect", (_rotate(corners, angle),), frame=(h1, h2))
    return [tri, hexagon, rotrect]


def _polygons(rng: random.Random) -> list:
    jobs = []
    shapes = polygon_shapes(rng)
    tri = shapes[0]
    diam = max(math.dist(p, q) for p in tri.params[0] for q in tri.params[0])
    t = diam * rng.uniform(1.9, 2.1)
    jobs.append(Job("heat_content/triangle", "heat_content", tri, (t,)))
    jobs.append(
        Job("mc_heat_content/triangle", "mc_heat_content", tri,
            (t, 200_000, rng.randrange(2**31)), ref="heat_content/triangle")
    )
    for spec in shapes:
        for k in POLY_GAMMA_KS:
            jobs.append(Job(f"gamma/{spec.label}/k{k}", "gamma", spec, (k,)))
    for spec in shapes:
        verts = spec.params[0]
        ell = max(math.dist(p, q) for p in verts for q in verts)
        # 4 of 5 probes at |y| < 0.9 ell (mostly inside the support),
        # 1 of 5 beyond the diameter (always outside)
        for i in range(200):
            frac = rng.uniform(0.0, 0.9) if i % 5 else rng.uniform(1.0, 1.3)
            y = tuple(frac * ell * c for c in _unit(rng, 2))
            jobs.append(Job(f"covariance/{spec.label}/p{i}", "covariance", spec, (y,)))
    for spec in shapes[1:]:
        verts = spec.params[0]
        ell = max(math.dist(p, q) for p in verts for q in verts)
        y = tuple(rng.uniform(0.1, 0.3) * ell * c for c in _unit(rng, 2))
        jobs.append(
            Job(f"mc_covariance/{spec.label}", "mc_covariance", spec,
                (y, 200_000, rng.randrange(2**31)))
        )
    for spec in shapes:
        verts = spec.params[0]
        ell = max(math.dist(p, q) for p in verts for q in verts)
        for i in range(2):
            y = tuple(rng.uniform(0.05, 0.6) * ell * c for c in _unit(rng, 2))
            point = ",".join(repr(c) for c in y)
            argv = ("covariance", "--shape-file", f"@{spec.label}", f"--point={point}")
            jobs.append(Job(f"cli/covariance-{spec.label}-{i}", "cli", spec, (argv, "covariance")))
    return jobs


_GENERATORS = {"radial": _radial, "rectangles": _rectangles, "polygons": _polygons}


BLOCK = 10


def _cheap(job) -> bool:
    """A job that takes microseconds: alone, it would time mostly the cache
    misses left by the job before it, so up to BLOCK of them run together."""
    return job.op == "covariance" or (job.op == "gamma" and job.shape.kind == "ball")


def _interleave(rng: random.Random, job_list: list) -> list:
    """Shuffle the jobs in units, keeping each job right after the job it refers to.

    Interleaving spreads every operation's samples over the whole pass, so
    slow and fast spells of a shared machine reach all metrics alike.  A unit
    is a job with the jobs that refer to it, or a block of cheap jobs.
    """
    units = []
    unit_of = {}
    for job in job_list:
        if job.ref:
            unit = unit_of[job.ref]
        elif (_cheap(job) and units and len(units[-1]) < BLOCK
              and units[-1][-1].op == job.op and units[-1][-1].shape == job.shape):
            unit = units[-1]
        else:
            unit = []
            units.append(unit)
        unit.append(job)
        unit_of[job.name] = unit
    rng.shuffle(units)
    return [job for unit in units for job in unit]


def generate(workload: str, seed: int) -> list:
    """The job list of one pass over ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return _interleave(rng, _GENERATORS[workload](rng))
