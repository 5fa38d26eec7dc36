"""Per-layer tracing from outside the program.

``Tracer.installed()`` wraps the public functions of the ``ldgas`` layer
modules for the duration of a ``with`` block and restores them afterwards.
Each wrapped call records a span (name, start, end, parent span, experiment
id); spans are kept in memory.  Hot inner calls -- dispersion evaluations
and the QUADPACK calls behind ``ldgas.thermo.quad`` -- run about 10^5 times
a pass, so counting them inside spans would charge the counter's own cost
to the enclosing layer.  ``Tracer.counting_hot_calls()`` counts them in a
pass of their own, which records no spans.

Layers are named after the package modules.  A wrapper replaces every
binding of the original function across ``ldgas.*`` modules, so calls
made through ``from .thermo import ...`` names are seen too.  Two private
hooks are wrapped as well, because the metrics need them: ``numpy.linalg.
eigvalsh`` (the counting eigensolve) and ``ldgas.harness._sweep`` (the
sweep thread pool).

``layer_metrics(tracers, hot)`` turns the spans and counters of several
traced passes, and the counts of one hot-call pass, into the per-layer
metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

# (name, unit, better); the order is the order of the printed metrics
LAYER_METRICS = [
    ("thermo.calls", "count", "lower"),
    ("thermo.self_s", "s", "lower"),
    ("thermo.call_ms.p50", "ms", "lower"),
    ("thermo.call_ms.p90", "ms", "lower"),
    ("thermo.quad_calls", "count", "lower"),
    ("thermo.failures", "count", "lower"),
    ("rate.points", "count", "lower"),
    ("rate.self_s", "s", "lower"),
    ("rate.point_ms.p50", "ms", "lower"),
    ("rate.point_ms.p90", "ms", "lower"),
    ("rate.thermo_calls_per_point", "ratio", "lower"),
    ("dispersion.eval_calls", "count", "lower"),
    ("dispersion.eval_points", "count", "lower"),
    ("kernel.builds", "count", "lower"),
    ("kernel.self_s", "s", "lower"),
    ("kernel.build_ms.p50", "ms", "lower"),
    ("kernel.grid_points", "count", "lower"),
    ("counting.matrices", "count", "lower"),
    ("counting.matrix_order_sum", "count", "lower"),
    ("counting.assemble_s", "s", "lower"),
    ("counting.eigh_s", "s", "lower"),
    ("counting.matrix_ms.p50", "ms", "lower"),
    ("counting.matrix_ms.p90", "ms", "lower"),
    ("counting.useful_eig_ratio", "ratio", "higher"),
    ("counting.pmf_s", "s", "lower"),
    ("counting.pmf_len_sum", "count", "lower"),
    ("counting.stats_s", "s", "lower"),
    ("modes.lattice_s", "s", "lower"),
    ("modes.lattice_builds", "count", "lower"),
    ("modes.modes_retained", "count", "lower"),
    ("modes.shells_retained", "count", "lower"),
    ("modes.pmf_s", "s", "lower"),
    ("modes.pmf_len_sum", "count", "lower"),
    ("modes.solve_s", "s", "lower"),
    ("modes.sample_s", "s", "lower"),
    ("modes.samples", "count", "higher"),
    ("harness.experiments", "count", "higher"),
    ("harness.self_s", "s", "lower"),
    ("harness.emit_s", "s", "lower"),
    ("harness.bytes_written", "count", "lower"),
    ("harness.pool_efficiency", "ratio", "higher"),
]

SPANNED_MODULES = ("thermo", "rate", "kernel", "counting", "modes", "harness")
_CLASS_CONSTRUCTORS = (("rate", "RateContext", "build"), ("modes", "ModeLattice", "build"))
# metrics counted in the hot-call pass
HOT_COUNTS = ("thermo.quad_calls", "dispersion.eval_calls", "dispersion.eval_points")
_DISPERSION_CONSTRUCTORS = ("nonrelativistic", "relativistic", "massless", "from_table")
_USEFUL_EIG = 1e-12   # an eigenvalue is useful above this share of the largest


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    exp: int | None
    ok: bool


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._experiments = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counts: list[dict] = []
        self.sweeps: list[tuple[float, int, float]] = []   # (wall, workers, busy)

    # -- recording -------------------------------------------------------
    def _frame(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.exp = [], None
        return local

    def add(self, key: str, n=1) -> None:
        """Bump a counter; counters are per thread and merged on read."""
        local = self._local
        counts = getattr(local, "counts", None)
        if counts is None:
            counts = local.counts = {}
            with self._lock:
                self._counts.append(counts)
        counts[key] = counts.get(key, 0) + n

    def counts(self) -> dict:
        total: dict = {}
        with self._lock:
            for counts in self._counts:
                for key, n in counts.items():
                    total[key] = total.get(key, 0) + n
        return total

    def wrap(self, name, fn, after=None, new_experiment=False):
        """``fn`` recording a span per call; ``after(tracer, result)`` adds counts."""
        spans, ids, frame = self.spans, self._ids, self._frame

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = frame()
            stack = local.stack
            parent = stack[-1] if stack else None
            saved_exp = local.exp
            if new_experiment:
                local.exp = next(self._experiments)
            sid = next(ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, local.exp, ok))
                local.exp = saved_exp
            if after is not None:
                after(self, result)
            return result

        return traced

    def counted(self, key, fn, points_key=None):
        """``fn`` bumping ``key`` per call (and ``points_key`` by input size)."""
        add = self.add

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            add(key)
            if points_key is not None:
                add(points_key, int(np.size(args[0])))
            return fn(*args, **kwargs)

        return counted

    def wrap_sweep(self, sweep, thread_count):
        """Time the sweep pool: wall time, worker count and per-item busy time."""
        tracer = self

        @functools.wraps(sweep)
        def traced_sweep(fn, sizes):
            local = tracer._frame()
            parent, exp = (local.stack[-1] if local.stack else None), local.exp
            busy = []

            def item(i, size):
                # worker threads attach their spans to the sweep's caller
                worker = tracer._frame()
                saved = worker.stack, worker.exp
                worker.stack, worker.exp = [parent] if parent is not None else [], exp
                start = time.perf_counter()
                try:
                    return fn(i, size)
                finally:
                    busy.append(time.perf_counter() - start)
                    worker.stack, worker.exp = saved

            workers = thread_count()
            start = time.perf_counter()
            out = sweep(item, sizes)
            tracer.sweeps.append((time.perf_counter() - start, workers, sum(busy)))
            return out

        return traced_sweep

    # -- installation ------------------------------------------------------
    @staticmethod
    @contextlib.contextmanager
    def _patching():
        """Yield ``patch(owner, attr, value)``; every patch is undone on exit."""
        patches = []

        def patch(owner, attr, value):
            patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr)))
            setattr(owner, attr, value)

        try:
            yield patch
        finally:
            for owner, attr, value in reversed(patches):
                setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Record spans of the layer functions for the duration of the block."""
        import ldgas  # noqa: F401  (loads every layer module)
        from ldgas import harness

        modules = [m for name, m in sys.modules.items()
                   if name == "ldgas" or name.startswith("ldgas.")]
        with self._patching() as patch:
            def rebind(original, wrapped):
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, attr, wrapped)

            for layer in SPANNED_MODULES:
                mod = sys.modules[f"ldgas.{layer}"]
                for fname in mod.__all__:
                    fn = getattr(mod, fname)
                    if inspect.isfunction(fn):
                        rebind(fn, self.wrap(f"{layer}.{fname}", fn, _AFTER.get(f"{layer}.{fname}"),
                                             new_experiment=(fname == "run_experiment")))
            for layer, cls_name, meth in _CLASS_CONSTRUCTORS:
                cls = getattr(sys.modules[f"ldgas.{layer}"], cls_name)
                name = f"{layer}.{cls_name}.{meth}"
                wrapped = self.wrap(name, cls.__dict__[meth].__func__, _AFTER.get(name))
                patch(cls, meth, classmethod(wrapped))
            patch(np.linalg, "eigvalsh", self.wrap("counting.eigh", np.linalg.eigvalsh))
            patch(harness, "_sweep", self.wrap_sweep(harness._sweep, harness._thread_count))
            yield self

    @contextlib.contextmanager
    def counting_hot_calls(self):
        """Count dispersion evaluations and QUADPACK calls; record no spans."""
        from ldgas import dispersion, thermo

        with self._patching() as patch:
            for meth in _DISPERSION_CONSTRUCTORS:
                cls = dispersion.DispersionRelation
                patch(cls, meth, classmethod(self._counting_dispersion(cls.__dict__[meth].__func__)))
            patch(thermo, "quad", self.counted("thermo.quad_calls", thermo.quad))
            yield self

    def _counting_dispersion(self, constructor):
        counted = self.counted

        @functools.wraps(constructor)
        def build(cls, *args, **kwargs):
            disp = constructor(cls, *args, **kwargs)
            return dataclasses.replace(disp, evaluate=counted(
                "dispersion.eval_calls", disp.evaluate, points_key="dispersion.eval_points"))

        return build


# -- counters taken from results ------------------------------------------

def _after_matrix(tracer, m):
    eig = np.abs(m.eigenvalues)
    tracer.add("counting.matrix_order_sum", int(eig.size))
    tracer.add("counting.useful_eigs", int(np.count_nonzero(eig > _USEFUL_EIG * eig.max())))


def _after_lattice(tracer, lat):
    tracer.add("modes.modes_retained", lat.mode_count)
    tracer.add("modes.shells_retained", int(lat.energies.size))


def _after_emit(tracer, paths):
    tracer.add("harness.bytes_written", sum(os.path.getsize(p) for p in paths))


_AFTER = {
    "counting.build_counting_matrix": _after_matrix,
    "counting.counting_pmf": lambda t, dist: t.add("counting.pmf_len_sum", int(dist.pmf.size)),
    "kernel.build_kernel": lambda t, tab: t.add("kernel.grid_points", int(tab.x.size)),
    "modes.ModeLattice.build": _after_lattice,
    "modes.box_pmf": lambda t, pmf: t.add("modes.pmf_len_sum", int(pmf.size)),
    "modes.sample_NV": lambda t, out: t.add("modes.samples", int(out.size)),
    "harness.emit": _after_emit,
}


# -- metrics -----------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = (s.end - s.start) - covered
    return out


def _pass_values(tracer: Tracer) -> tuple[dict, dict]:
    """Per-pass sums (counts and seconds per layer) and call times in ms."""
    spans = tracer.spans
    self_t = self_times(spans)
    by_id = {s.sid: s for s in spans}
    counts = tracer.counts()

    def named(name):
        return [s for s in spans if s.name == name]

    def layer(prefix):
        return [s for s in spans if s.name.startswith(prefix + ".")]

    def self_sum(prefix):
        return sum(self_t[s.sid] for s in layer(prefix))

    def total(name):
        return sum(s.end - s.start for s in named(name))

    def ms(group):
        return [1e3 * (s.end - s.start) for s in group]

    def under_rate_point(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == "rate.rate_value":
                return True
        return False

    # calls into thermo from outside it (nested thermo calls are not new work)
    thermo = [s for s in layer("thermo")
              if s.parent is None or not by_id[s.parent].name.startswith("thermo.")]
    points = named("rate.rate_value")
    matrices = named("counting.build_counting_matrix")
    stats = [s for s in layer("counting") if s.name not in
             ("counting.build_counting_matrix", "counting.eigh", "counting.counting_pmf")]
    order_sum = counts.get("counting.matrix_order_sum", 0)
    pool_wall = sum(wall * workers for wall, workers, _ in tracer.sweeps)
    sums = {
        "thermo.calls": len(thermo),
        "thermo.self_s": self_sum("thermo"),
        "thermo.failures": sum(not s.ok for s in thermo),
        "rate.points": len(points),
        "rate.self_s": self_sum("rate"),
        "rate.thermo_calls_per_point":
            sum(map(under_rate_point, thermo)) / len(points) if points else 0.0,
        "kernel.builds": len(named("kernel.build_kernel")),
        "kernel.self_s": self_sum("kernel"),
        "kernel.grid_points": counts.get("kernel.grid_points", 0),
        "counting.matrices": len(matrices),
        "counting.matrix_order_sum": order_sum,
        "counting.assemble_s": sum(self_t[s.sid] for s in matrices),
        "counting.eigh_s": total("counting.eigh"),
        "counting.useful_eig_ratio":
            counts.get("counting.useful_eigs", 0) / order_sum if order_sum else 0.0,
        "counting.pmf_s": total("counting.counting_pmf"),
        "counting.pmf_len_sum": counts.get("counting.pmf_len_sum", 0),
        "counting.stats_s": sum(self_t[s.sid] for s in stats),
        "modes.lattice_s": total("modes.ModeLattice.build"),
        "modes.lattice_builds": len(named("modes.ModeLattice.build")),
        "modes.modes_retained": counts.get("modes.modes_retained", 0),
        "modes.shells_retained": counts.get("modes.shells_retained", 0),
        "modes.pmf_s": total("modes.box_pmf"),
        "modes.pmf_len_sum": counts.get("modes.pmf_len_sum", 0),
        "modes.solve_s": total("modes.solve_lambda_V"),
        "modes.sample_s": total("modes.sample_NV"),
        "modes.samples": counts.get("modes.samples", 0),
        "harness.experiments": len(named("harness.run_experiment")),
        "harness.self_s": self_sum("harness"),
        "harness.emit_s": total("harness.emit"),
        "harness.bytes_written": counts.get("harness.bytes_written", 0),
        "harness.pool_efficiency":
            sum(busy for _, _, busy in tracer.sweeps) / pool_wall if pool_wall else 0.0,
    }
    samples = {
        "thermo.call_ms": ms(thermo),
        "rate.point_ms": ms(points),
        "kernel.build_ms": ms(named("kernel.build_kernel")),
        "counting.matrix_ms": ms(matrices),
    }
    return sums, samples


def _percentile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracers: list[Tracer], hot: Tracer) -> dict:
    """Per-layer metrics over traced passes and one hot-call pass.

    Sums are per pass (median over passes); call-time percentiles pool the
    calls of every pass.
    """
    per_pass = [_pass_values(t) for t in tracers]
    out = {key: statistics.median(sums[key] for sums, _ in per_pass) for key in per_pass[0][0]}
    for key in per_pass[0][1]:
        pooled = [v for _, samples in per_pass for v in samples[key]]
        out[f"{key}.p50"] = _percentile(pooled, 50)
        out[f"{key}.p90"] = _percentile(pooled, 90)
    counts = hot.counts()
    out.update({name: counts.get(name, 0) for name in HOT_COUNTS})
    return {name: out[name] for name, _, _ in LAYER_METRICS}
