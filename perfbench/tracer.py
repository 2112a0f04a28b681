"""Per-layer tracing from outside the library.

The tracer rebinds public ``heatcov`` functions in every package module
that imports them, so calls between layers go through a wrapper that times
them.  Calls to most functions become spans (name, start, end, parent span,
job id) kept in memory; the hot leaves (covariance, geometry, the support
and variation helpers, and quadrature integrands) are too frequent for one
span per call, so each keeps a count and total time on its parent span.
Self time is a call's duration minus the time of the calls nested in it.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("heatcov", "heatcov.kernel", "heatcov.quadrature", "heatcov.shapes",
           "heatcov.asymptotics", "heatcov.mc", "heatcov.cli")

# (home module, function, role): role "integrator" also counts the
# evaluations of the integrand passed as the first argument.
TARGETS = (
    ("quadrature", "integrate_1d", "integrator"),
    ("quadrature", "integrate_circle", "integrator"),
    ("quadrature", "extrapolate_limit", "span"),
    ("shapes", "covariance", "leaf"),
    ("shapes", "geometry", "leaf"),
    ("shapes", "support_radius_at", "leaf"),
    ("shapes", "directional_variation", "leaf"),
    ("shapes", "gamma", "span"),
    ("shapes", "gamma_weighted_integral", "span"),
    ("kernel", "tanh_deficit", "span"),
    ("asymptotics", "heat_content", "span"),
    ("asymptotics", "decomposition", "span"),
    ("asymptotics", "big_R", "span"),
    ("asymptotics", "phi_over_t", "span"),
    ("asymptotics", "psi_F", "span"),
    ("asymptotics", "third_term", "span"),
    ("mc", "mc_heat_content", "span"),
    ("mc", "mc_covariance", "span"),
    ("cli", "main", "span"),
)


class Stat:
    __slots__ = ("calls", "evals", "total_s", "self_s", "failed", "zeros")

    def __init__(self):
        self.calls = self.evals = self.failed = self.zeros = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.spans = []  # [id, name, start, end, parent, job, {leaf: [count, seconds]}]
        self._stack = []  # frames: [start, child_seconds, span-or-None]
        self._span_stack = [None]
        self._job = None
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [importlib.import_module(m) for m in MODULES]
        for home, name, role in TARGETS:
            orig = getattr(importlib.import_module(f"heatcov.{home}"), name)
            wrapper = self._wrap(f"{home}.{name}", orig, role)
            for mod in mods:
                if mod.__dict__.get(name) is orig:
                    self._saved.append((mod, name, orig))
                    setattr(mod, name, wrapper)

    def uninstall(self):
        for mod, name, orig in reversed(self._saved):
            setattr(mod, name, orig)
        self._saved.clear()

    # -- frames -------------------------------------------------------------

    def _enter(self, name, leaf):
        if leaf:
            span = None
        else:
            span = [len(self.spans), name, perf_counter(), 0.0,
                    self._span_stack[-1][0] if self._span_stack[-1] else None, self._job, None]
            self.spans.append(span)
            self._span_stack.append(span)
        frame = [perf_counter(), 0.0, span]
        self._stack.append(frame)
        return frame

    def _exit(self, name, stat, frame, leaf):
        end = perf_counter()
        self._stack.pop()
        dur = end - frame[0]
        stat.calls += 1
        stat.total_s += dur
        stat.self_s += dur - frame[1]
        if self._stack:
            self._stack[-1][1] += dur
        if leaf:
            parent = self._span_stack[-1]
            if parent is not None:
                if parent[6] is None:
                    parent[6] = {}
                acc = parent[6].setdefault(name, [0, 0.0])
                acc[0] += 1
                acc[1] += dur
        else:
            frame[2][3] = end
            self._span_stack.pop()

    def _wrap(self, name, fn, role):
        stat = self.stats[name]
        leaf = role == "leaf"
        integrand_name = f"{name}.integrand"
        integrand_stat = self.stats[integrand_name]

        def counted(f):
            def integrand(x):
                stat.evals += getattr(x, "size", 1)
                frame = self._enter(integrand_name, True)
                try:
                    return f(x)
                finally:
                    self._exit(integrand_name, integrand_stat, frame, True)
            return integrand

        def wrapper(*args, **kwargs):
            if role == "integrator":
                args = (counted(args[0]),) + args[1:]
            frame = self._enter(name, leaf)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                self._exit(name, stat, frame, leaf)
            if isinstance(result, float) and result == 0.0:
                stat.zeros += 1
            return result

        return wrapper

    # -- jobs ---------------------------------------------------------------

    def begin_job(self, job_name):
        self._job = job_name
        return self._enter("job", False)

    def end_job(self, frame):
        self._exit("job", self.stats["job"], frame, False)
        self._job = None

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job, leaves in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "leaves": leaves or {}}))
                fh.write("\n")
