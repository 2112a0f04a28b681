"""heatcov benchmark: one seeded workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload radial --seed 1 --seconds 30 --trace 0

Load is a closed loop: one process, one job outstanding, no worker threads,
BLAS pinned to one thread.  A job is one public heatcov call, timed from
call to return, and checked against an exact oracle afterwards.  A run makes
a fixed number of passes over the workload's job list, as many as fit in
--seconds at a nominal pace, so two runs of one seed attempt the same jobs.
With --trace 1 the run makes one traced pass and one untraced pass and
reports per-layer metrics instead.  The last line of stdout is a JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

from time import perf_counter

_START = perf_counter()  # set-up probes time everything from here

import argparse
import bisect
import contextlib
import fnmatch
import io
import json
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

if __name__ == "__main__":  # pin BLAS to one thread before NumPy loads
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import jobs  # noqa: E402
import oracles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 9


# ---------------------------------------------------------------------------
# Running one job
# ---------------------------------------------------------------------------

@dataclass
class Result:
    job: object
    seconds: float
    value: object = None
    error: str | None = None  # None when the job succeeded and met its oracle
    ref_units: float | None = None  # job time in reference computations

    @property
    def ok(self) -> bool:
        return self.error is None


# The machine's speed changes by up to a factor of two within a second
# (other tenants of the host; no steal time is visible).  While a pass runs,
# a SIGALRM timer therefore runs a small fixed reference computation, which
# does not touch heatcov, every PROBE_PERIOD seconds, even in the middle of a
# job.  Each stretch of job time is divided by the reference time measured
# around it, so wall_ref counts a pass in reference computations and cancels
# the speed changes; a change to heatcov moves only the job time.
PROBE_PERIOD = 0.04
_REF_X = [i * 1e-3 for i in range(1, 800)]


def reference_slice(np) -> float:
    """Seconds for one reference computation (about 1 ms), mixed like
    heatcov's own work: scalar Python float arithmetic, small NumPy arrays,
    and Gauss-Legendre nodes (a small dense eigenproblem)."""
    start = perf_counter()
    acc = 0.0
    for x in _REF_X:
        acc += math.exp(-x) * math.hypot(x, 1.0) / (1.0 + x * x) ** 1.5
    for x in _REF_X[:80]:
        v = np.array([x, 0.5])
        acc += float(np.dot(v, v))
    np.polynomial.legendre.leggauss(16)
    return perf_counter() - start


class SpeedProbe:
    """Runs the reference computation from a SIGALRM handler during a pass.

    ``events`` holds (enter, exit, reference seconds) per probe.  A Python
    signal handler runs between bytecodes of the main thread, so a probe can
    land inside a job; ``job_cost`` takes the probe's own time out again.
    """

    def __init__(self, np):
        self.np = np
        self.events = []
        self._enters = []

    def _handler(self, signum, frame):
        enter = perf_counter()
        ref = reference_slice(self.np)
        self.events.append((enter, perf_counter(), ref))
        self._enters.append(enter)

    def __enter__(self):
        self.events.clear()
        self._enters.clear()
        self._handler(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._handler(None, None)
        return False

    def job_cost(self, start: float, end: float) -> tuple:
        """(seconds, reference computations) of the job run from start to end,
        without the probes that ran inside it.

        Each stretch between two probes is divided by the mean reference
        time of the probes on either side of it.
        """
        ev, enters = self.events, self._enters
        k = bisect.bisect_right(enters, start)  # first probe after the start
        seconds = units = 0.0
        at = start
        while True:
            stop = min(enters[k], end) if k < len(ev) else end
            if stop > at:
                before = ev[k - 1][2] if k > 0 else ev[k][2]
                after = ev[k][2] if k < len(ev) else before
                seconds += stop - at
                units += (stop - at) / (0.5 * (before + after))
            if k >= len(ev) or enters[k] >= end:
                return seconds, units
            at = ev[k][1]
            k += 1


class Runner:
    """Builds library inputs for a job list and runs it, pass by pass."""

    def __init__(self, jobs_list, shape_dir: Path):
        import numpy as np
        from heatcov import asymptotics, cli, kernel, mc, shapes

        self.np = np
        self.asymptotics, self.cli, self.kernel, self.mc, self.shapes = asymptotics, cli, kernel, mc, shapes
        self.jobs = jobs_list
        self.pass_refs = []  # per untraced pass: median reference seconds
        self.shape_objs = {}
        self.shape_files = {}
        self._gamma_slopes = {}
        for job in jobs_list:
            spec = job.shape
            if spec is not None and spec not in self.shape_objs:
                self.shape_objs[spec] = self._build(spec)
                if spec.kind == "polygon":
                    path = shape_dir / f"{spec.label}.json"
                    path.write_text(json.dumps({"kind": "polygon", "vertices": spec.params[0]}))
                    self.shape_files[spec.label] = str(path)

    def _build(self, spec):
        s = self.shapes
        if spec.kind == "ball":
            return s.UnitBall(spec.params[0])
        if spec.kind == "interval":
            return s.Interval(0.0, spec.params[0])
        if spec.kind == "rectangle":
            return s.Rectangle(*spec.params)
        return s.ConvexPolygon(spec.params[0])

    # -- the timed call -----------------------------------------------------

    def _call(self, job):
        shape = self.shape_objs.get(job.shape)
        op, a = job.op, job.args
        if op == "kernel_constants":
            return self.kernel.KernelConstants.for_dim(a[0])
        if op == "third_term":
            return self.asymptotics.third_term(shape)
        if op == "decomposition":
            return self.asymptotics.decomposition(shape, a[0])
        if op == "heat_content":
            return self.asymptotics.heat_content(shape, a[0])
        if op == "gamma":
            return self.shapes.gamma(shape, 2.0 ** -a[0])
        if op == "covariance":
            return self.shapes.covariance(shape, self.np.array(a[0]))
        if op == "mc_heat_content":
            return self.mc.mc_heat_content(shape, a[0], a[1], a[2])
        if op == "mc_covariance":
            return self.mc.mc_covariance(shape, a[0], a[1], a[2])
        if op == "cli":
            argv = [self.shape_files[x[1:]] if x.startswith("@") else x for x in a[0]]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        raise ValueError(f"unknown op {op!r}")

    def run_pass(self, tracer=None) -> list:
        """Run every job once.  An untraced pass runs under a SpeedProbe and
        gives each result its reference cost; a traced pass does not."""
        results, spans = [], []
        by_name = {}
        with contextlib.nullcontext() if tracer else SpeedProbe(self.np) as probe:
            for job in self.jobs:
                frame = tracer.begin_job(job.name) if tracer else None
                start = perf_counter()
                try:
                    value = self._call(job)
                    error = None
                except Exception as exc:  # every failure is a recorded job outcome
                    value, error = None, f"{type(exc).__name__}: {exc}"
                end = perf_counter()
                if tracer:
                    tracer.end_job(frame)
                res = Result(job, end - start, value, error)
                if error is None:
                    res.error = self.check(job, value, by_name)
                by_name[job.name] = res
                results.append(res)
                spans.append((start, end))
        if probe:
            for res, (start, end) in zip(results, spans):
                res.seconds, res.ref_units = probe.job_cost(start, end)
            self.pass_refs.append(statistics.median(ev[2] for ev in probe.events))
        return results

    # -- oracles ------------------------------------------------------------

    def check(self, job, value, by_name) -> str | None:
        """None if the value meets the job's oracle, else the reason it does not."""
        try:
            return getattr(self, f"_check_{job.op}")(job, value, by_name)
        except oracles.OracleError as exc:
            return f"oracle unavailable: {exc}"

    def _volume(self, spec) -> float:
        if spec.kind == "ball":
            return oracles.ball_volume(spec.params[0])
        if spec.kind == "interval":
            return spec.params[0]
        if spec.kind == "rectangle":
            return 4.0 * spec.params[0] * spec.params[1]
        return oracles.polygon_area(self.np.array(spec.params[0]))

    def _exact_covariance(self, spec, y) -> float:
        if spec.kind == "ball":
            return oracles.ball_covariance(spec.params[0], math.sqrt(sum(c * c for c in y)))
        if spec.kind == "rectangle":
            return oracles.rectangle_covariance(*spec.params, y)
        return oracles.polygon_covariance(self.np.array(spec.params[0]), y)

    def _exact_gamma(self, spec, k: int) -> float:
        s = 2.0**-k
        if spec.kind == "ball":
            return oracles.ball_gamma(spec.params[0], s)
        if spec.kind == "rectangle" or spec.frame:
            h1, h2 = spec.params if spec.kind == "rectangle" else spec.frame
            return oracles.rectangle_gamma(h1, h2, 2.0 * math.hypot(h1, h2) * s)
        verts = self.np.array(spec.params[0])
        s_max = 2.0 ** -min(jobs.POLY_GAMMA_KS)
        if s > s_max:
            raise oracles.OracleError(f"s = 2^-{k} is above the certified 2^-{min(jobs.POLY_GAMMA_KS)}")
        if spec not in self._gamma_slopes:
            self._gamma_slopes[spec] = oracles.polygon_gamma_slope(verts, s_max)
        return oracles.polygon_diameter(verts) * s * self._gamma_slopes[spec]

    def _check_kernel_constants(self, job, kc, _):
        d = job.args[0]
        for label, got, want, tol in (
            ("kappa", kc.kappa, oracles.kappa(d), 1e-12 * oracles.kappa(d)),
            ("ball_volume", kc.ball_volume, oracles.ball_volume(d), 1e-12 * oracles.ball_volume(d)),
            ("sphere_area", kc.sphere_area, oracles.sphere_area(d), 1e-12 * oracles.sphere_area(d)),
            ("J_d", kc.tanh_deficit, oracles.tanh_deficit(d), 1e-10),
        ):
            if not abs(got - want) <= tol:
                return f"oracle: {label} = {got!r}, exact {want!r}"
        return None

    def _check_third_term(self, job, rep, _):
        closed = oracles.closed_form_constant(job.shape)
        err = rep.extrapolation_err
        if closed is not None:
            if not abs(rep.C_formula - closed) <= 1e-8:
                return f"oracle: C_formula = {rep.C_formula!r}, closed form {closed!r}"
            if not abs(rep.C_extrapolated - closed) <= err:
                return f"oracle: |C_extrapolated - C| = {abs(rep.C_extrapolated - closed):.3e} > err {err:.3e}"
        elif not abs(rep.C_formula - rep.C_extrapolated) <= err:
            return (f"oracle: |C_formula - C_extrapolated| = "
                    f"{abs(rep.C_formula - rep.C_extrapolated):.3e} > err {err:.3e}")
        return None

    def _check_h(self, spec, t, h) -> str | None:
        vol = self._volume(spec)
        if not 0.0 <= h <= vol:
            return f"oracle: H = {h!r} outside [0, |Omega| = {vol!r}]"
        if spec.kind == "interval":
            exact = oracles.interval_heat_content(spec.params[0], t)
            if not abs(h - exact) <= 1e-9 * max(exact, 1e-3):
                return f"oracle: H = {h!r}, exact {exact!r}"
        return None

    def _check_decomposition(self, job, bd, _):
        if not abs(bd.residual) <= 1e-7:
            return f"oracle: |residual| = {abs(bd.residual):.3e} > 1e-7"
        return self._check_h(job.shape, job.args[0], bd.H)

    def _check_heat_content(self, job, h, by_name):
        reason = self._check_h(job.shape, job.args[0], h)
        if reason or job.ref is None:
            return reason
        base = by_name[job.ref]
        if not base.ok:
            return f"reference {job.ref} failed"
        lam = job.args[1]
        want = lam * lam * base.value
        if not abs(h - want) <= 1e-8 * want:
            return f"oracle: scaling law H = {h!r}, lambda^2 H_ref = {want!r}"
        return None

    def _check_gamma(self, job, g, _):
        exact = self._exact_gamma(job.shape, job.args[0])
        if not abs(g - exact) <= oracles.GAMMA_ABS_TOL:
            return f"oracle: gamma = {g!r}, exact {exact!r}"
        return None

    def _check_covariance(self, job, g, _):
        exact = self._exact_covariance(job.shape, job.args[0])
        if not abs(g - exact) <= 1e-9 * max(1.0, self._volume(job.shape)):
            return f"oracle: g = {g!r}, exact {exact!r}"
        return None

    def _check_mc(self, est, reference) -> str | None:
        if not oracles.within_sigma(est.mean, est.stderr, reference):
            return f"oracle: MC {est.mean!r} +- {est.stderr:.3e} vs reference {reference!r} (> 5 sigma)"
        return None

    def _check_mc_heat_content(self, job, est, by_name):
        base = by_name[job.ref]
        if not base.ok:
            return f"reference {job.ref} failed"
        ref = base.value.H if job.ref.startswith("decomposition/") else base.value
        return self._check_mc(est, ref)

    def _check_mc_covariance(self, job, est, _):
        return self._check_mc(est, self._exact_covariance(job.shape, job.args[0]))

    def _check_cli(self, job, value, by_name):
        code, out, err = value
        kind = job.args[1]
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        if kind == "verify":
            return None if out.rstrip().endswith("RESULT: PASS") else "oracle: verify did not PASS"
        if kind == "sweep":
            header, *rows = out.split("\r\n")[:-1]
            col = header.split(",").index("residual")
            if not rows or any(abs(float(r.split(",")[col])) > 1e-7 for r in rows):
                return "oracle: sweep residual above 1e-7"
            if job.ref and out != by_name[job.ref].value[1]:
                return "oracle: sweep CSV differs from the first sweep"
            return None
        if kind == "constants":
            got = json.loads(out)["tanh_deficit"]
            want = oracles.tanh_deficit(int(job.args[0][2]))
            return None if abs(got - want) <= 1e-10 else f"oracle: J_d = {got!r}, exact {want!r}"
        if kind == "expansion":
            res = json.loads(out)["residual"]
            return None if abs(res) <= 1e-7 else f"oracle: |residual| = {abs(res):.3e}"
        if kind == "covariance":
            point = next(x for x in job.args[0] if x.startswith("--point="))
            y = [float(c) for c in point.split("=", 1)[1].split(",")]
            exact = self._exact_covariance(job.shape, y)
            got = float(out)
            return None if abs(got - exact) <= 1e-9 * max(1.0, exact) else f"oracle: g = {got!r}, exact {exact!r}"
        raise ValueError(f"unknown cli check {kind!r}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _ok_times(results, ops) -> list:
    return [r.seconds for r in results if r.ok and r.job.op in ops]


def _median(values):
    return statistics.median(values) if values else None


def tail_latency(latencies) -> tuple:
    """Latency at the highest percentile that has at least 10 samples beyond it."""
    xs = sorted(latencies)
    idx = max(len(xs) - 11, 0)
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def end_to_end(passes, refs, setup_times) -> dict:
    """Every end-to-end metric as name -> (value, unit, sample count)."""
    flat = [r for p in passes for r in p]
    walls = [sum(r.seconds for r in p) for p in passes]
    # the tail is taken per pass, over every attempted job (a failed job
    # spent its time too), so its rank always falls in the same kind of job
    tails = [tail_latency([r.seconds for r in p]) for p in passes]
    cov = _ok_times(flat, {"covariance"})
    mc_runs = [r for r in flat if r.ok and r.job.op.startswith("mc_")]
    return {
        "setup_s": (statistics.median(setup_times), "s", f"{len(setup_times)} set-ups"),
        "wall_s": (statistics.median(walls), "s", f"{len(walls)} passes"),
        "wall_ref": (statistics.median(sum(r.ref_units for r in p) for p in passes), "ref",
                     f"pass time in reference computations, {len(walls)} passes"),
        "ref_s": (statistics.median(refs), "s", "reference computation, median per pass"),
        "job_tail_s": (statistics.median(t for t, _ in tails), "s",
                       f"p{tails[0][1]:.1f} of {len(passes[0])} jobs, median of {len(passes)} passes"),
        "third_term_s": (_median(_ok_times(flat, {"third_term"})), "s",
                         f"{len(_ok_times(flat, {'third_term'}))} jobs"),
        "heat_content_s": (_median(_ok_times(flat, {"heat_content", "decomposition"})), "s",
                           f"{len(_ok_times(flat, {'heat_content', 'decomposition'}))} jobs"),
        "gamma_s": (_median(_ok_times(flat, {"gamma"})), "s", f"{len(_ok_times(flat, {'gamma'}))} probes"),
        "covariance_per_s": (len(cov) / sum(cov) if cov else None, "1/s", f"{len(cov)} evaluations"),
        "mc_samples_per_s": (
            sum(r.job.args[1] for r in mc_runs) / sum(r.seconds for r in mc_runs) if mc_runs else None,
            "1/s", f"{len(mc_runs)} runs"),
        "cli_s": (_median(_ok_times(flat, {"cli"})), "s", f"{len(_ok_times(flat, {'cli'}))} invocations"),
        "failed_frac": (sum(not r.ok for r in flat) / len(flat), "1",
                        f"{sum(not r.ok for r in flat)} of {len(flat)} jobs"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "this process"),
    }


# (traced function, counters reported for it)
LAYER_FIELDS = (
    ("quadrature.integrate_1d", ("calls", "evals", "self_s")),
    ("quadrature.integrate_circle", ("calls", "evals")),
    ("quadrature.extrapolate_limit", ("calls",)),
    ("shapes.covariance", ("calls", "self_s")),
    ("shapes.support_radius_at", ("calls",)),
    ("shapes.directional_variation", ("calls",)),
    ("shapes.gamma", ("calls", "self_s", "failed")),
    ("shapes.gamma_weighted_integral", ("calls",)),
    ("kernel.tanh_deficit", ("calls", "failed")),
    ("asymptotics.heat_content", ("self_s",)),
    ("asymptotics.big_R", ("calls",)),
    ("asymptotics.phi_over_t", ("calls",)),
    ("asymptotics.psi_F", ("calls",)),
    ("asymptotics.third_term", ("calls",)),
    ("mc.mc_heat_content", ("calls", "self_s")),
    ("mc.mc_covariance", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)
DERIVED_LAYER_METRICS = ("shapes.covariance.zero_frac", "shapes.geometry.calls_per_covariance",
                         "mc.samples", "cli.main.bytes_out", "trace.overhead_frac")
PER_LAYER_METRICS = tuple(
    f"{name}.{field}" for name, fields in LAYER_FIELDS for field in fields
) + DERIVED_LAYER_METRICS


def per_layer(tracer, traced, plain) -> dict:
    """Every per-layer metric as name -> (value, unit), from the traced pass."""
    st = tracer.stats

    def get(name, field):
        return getattr(st[name], field) if name in st else 0

    m = {}
    for name, fields in LAYER_FIELDS:
        for field in fields:
            m[f"{name}.{field}"] = (get(name, field), "s" if field.endswith("_s") else "count")
    cov_calls = get("shapes.covariance", "calls")
    m["shapes.covariance.zero_frac"] = (
        get("shapes.covariance", "zeros") / cov_calls if cov_calls else 0.0, "1")
    m["shapes.geometry.calls_per_covariance"] = (
        get("shapes.geometry", "calls") / cov_calls if cov_calls else 0.0, "1")
    m["mc.samples"] = (sum(r.job.args[1] for r in traced if r.job.op.startswith("mc_")), "count")
    m["cli.main.bytes_out"] = (
        sum(len(r.value[1].encode()) for r in traced if r.job.op == "cli" and r.value), "B")
    wall = sum(r.seconds for r in traced) / sum(r.seconds for r in plain)
    m["trace.overhead_frac"] = (wall - 1.0, "1")
    return m


# ---------------------------------------------------------------------------
# Known defects
# ---------------------------------------------------------------------------

def classify_failures(workload, results) -> tuple:
    """(known, unexpected, entries): failed job names mapped to (reason, entry)."""
    entries = json.loads((HERE / "known_failures.json").read_text())[workload]
    known, unexpected = {}, {}
    for r in results:
        if r.ok or r.job.name in known or r.job.name in unexpected:
            continue
        match = next((e for e in entries if fnmatch.fnmatchcase(r.job.name, e["jobs"])
                      and re.search(e["error"], r.error)), None)
        (known if match else unexpected)[r.job.name] = (r.error, match)
    return known, unexpected, entries


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# The gated end-to-end metrics (BENCHMARK.json); the others are printed only,
# because a shared machine's speed drift moves them past a 25 % bound (README.md).
E2E_METRICS = ("setup_s", "wall_ref", "peak_rss_mb")


# Seconds one pass takes in a slow spell of the 2-core machine the benchmark
# was tuned on.  A run makes as many passes as fit in --seconds at that pace,
# a number fixed in advance, so two runs of one seed attempt the same jobs.
PASS_SECONDS = {"radial": 7.0, "rectangles": 30.0, "polygons": 12.0}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_SECONDS[workload]))


def _fmt(x) -> str:
    return "n/a" if x is None else f"{x:.6g}"


def _setup_once(workload: str, seed: int) -> float:
    """Child-process body: seconds from interpreter start-up of this script
    through a cold `import heatcov` and the generation of the inputs."""
    runner_jobs = jobs.generate(workload, seed)
    shape_dir = OUT_DIR / f"setup-{os.getpid()}"
    shape_dir.mkdir(parents=True, exist_ok=True)
    try:
        Runner(runner_jobs, shape_dir)
    finally:
        shutil.rmtree(shape_dir, ignore_errors=True)
    return perf_counter() - _START


def measure_setup(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(repr(_setup_once(args.workload, args.seed)))
        return 0

    setup_times = measure_setup(args.workload, args.seed)
    job_list = jobs.generate(args.workload, args.seed)
    shape_dir = OUT_DIR / f"shapes-{os.getpid()}"
    shape_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(job_list, shape_dir)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            plain = runner.run_pass()
            passes = [traced, plain]
            tracer.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            passes = [runner.run_pass() for _ in range(pass_count(args.workload, args.seconds))]
    finally:
        shutil.rmtree(shape_dir, ignore_errors=True)

    flat = [r for p in passes for r in p]
    known, unexpected, entries = classify_failures(args.workload, flat)
    print(f"workload {args.workload}  seed {args.seed}  jobs/pass {len(job_list)}  passes {len(passes)}"
          f"{'  (pass 1 traced)' if args.trace else ''}")
    for name, (reason, entry) in sorted(known.items()):
        print(f"FAIL known  {name}: {reason[:160]}  [{entry['note']}]")
    for name, (reason, _) in sorted(unexpected.items()):
        print(f"FAIL UNEXPECTED  {name}: {reason[:300]}")
    for e in entries:
        if e.get("always") and not any(fnmatch.fnmatchcase(n, e["jobs"]) for n in known):
            print(f"note: known defect did not fail this run: {e['jobs']} ({e['note']})")

    first = 1 if args.trace else 0
    e2e = end_to_end(passes[first:], runner.pass_refs, setup_times)
    for name, (value, unit, count) in e2e.items():
        print(f"{name:<18} {_fmt(value):>12} {unit:<5} ({count})")
    correct = not unexpected and all(e2e[m][0] is not None for m in E2E_METRICS)
    if args.trace:
        layers = per_layer(tracer, traced, plain)
        for name, (value, unit) in layers.items():
            print(f"{name:<44} {_fmt(value):>12} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": e2e[k][1]} for k in E2E_METRICS}
    print(json.dumps({"correct": correct, "attempted": len(flat),
                      "failed": sum(not r.ok for r in flat), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    SRC = ROOT / "src"
    if not (SRC / "heatcov" / "__init__.py").is_file():
        print(f"error: no heatcov sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
