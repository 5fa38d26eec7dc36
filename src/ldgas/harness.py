"""Experiment orchestration: configs, sweeps, records, CSV/JSON emission.

Configs are plain-text ``key = value`` files whose keys are the fields of
``ExperimentConfig`` (the README lists them); ``KINDS`` maps each experiment
kind to its runner, the keys it requires and the dimensions and statistics
it supports.  Records echo the config, hold one result row per sweep size
with oracle targets and gaps, and are written atomically (temp file +
rename).  Identical configs with identical seeds
produce byte-identical numeric payloads; wall-clock timings live in a
separate section excluded from such comparisons.

The ``LDGAS_THREADS`` environment variable parallelizes independent sweep
entries: at n > 1 the calling thread runs entries beside the n - 1 threads
of a pool made once per process and thread count (a forked child makes its
own).  Per-size seeds are derived from (seed, index), so the thread count
never changes numeric results.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict
from typing import Callable, NamedTuple

import numpy as np

from . import counting, kernel, modes, rate, thermo
from .dispersion import DispersionRelation
from .errors import ConfigError, DomainError
from .export import atomic_write, write_table
from .factors import chebyshev_bound, clt_cumulants, log_generating_function, window_log_prob
from .thermo import BE, FD, ThermoState

__all__ = ["ExperimentConfig", "ExperimentRecord", "run_experiment", "emit", "parse_config"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  Each field is set by the config key of its name;
    ``lam`` and ``out_dir`` carry theirs (``lambda``, ``out``) in metadata."""

    kind: str
    statistics: int = FD
    dispersion: str = "nonrelativistic"
    mass: float = 1.0
    c: float = 1.0
    table: str | None = None
    dimension: int = 1
    beta: float = 1.0
    mu: float = 0.0
    lam: float | None = field(default=None, metadata={"key": "lambda"})
    interval: tuple | None = None
    sizes: tuple = ()
    h: float = 0.05
    extent: float | None = None
    samples: int = 10_000
    seed: int = 1
    tolerance: float = 0.02
    quad_tol: float = 1e-10
    out_dir: str = field(default=".", metadata={"key": "out"})

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError("kind", f"unknown kind {self.kind!r}")
        if self.statistics not in _STATISTICS:
            raise ConfigError("statistics", f"expected FD or BE, got {self.statistics!r}")
        for key in ("mass", "c", "beta", "h", "extent", "tolerance", "quad_tol"):
            value = getattr(self, key)
            if value is not None and value <= 0:
                raise ConfigError(key, "must be positive")
        if self.dimension < 1:
            raise ConfigError("dimension", "must be at least 1")
        if self.statistics == BE and self.mu >= 0:
            raise ConfigError("mu", "BE requires mu < 0")
        if self.samples < 1:
            raise ConfigError("samples", "must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed", "must be non-negative")
        if self.sizes and any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ConfigError("sizes", "sweep must be strictly increasing")
        if self.sizes and self.sizes[0] <= 0:
            raise ConfigError("sizes", "sweep sizes must be positive")
        if self.interval is not None:
            a, b = self.interval
            if a > b:
                raise ConfigError("interval", "requires a <= b")
        if self.dispersion not in ("nonrelativistic", "relativistic", "massless", "table"):
            raise ConfigError("dispersion", f"unknown dispersion {self.dispersion!r}")
        if self.dispersion == "table" and not self.table:
            raise ConfigError("table", "table dispersion needs a file path")
        kind = KINDS[self.kind]
        for key in kind.required:
            if getattr(self, _FIELDS[key]) in (None, ()):
                raise ConfigError(key, f"required by {self.kind} experiments")
        if kind.dimensions and self.dimension not in kind.dimensions:
            supported = ", ".join(map(str, kind.dimensions))
            raise ConfigError("dimension", f"{self.kind} experiments support d = {supported}")
        if self.statistics not in kind.statistics:
            supported = " or ".join(_STATISTICS[s] for s in kind.statistics)
            raise ConfigError("statistics", f"{self.kind} experiments support {supported}")
        if kind.check is not None:
            kind.check(self)

    def build_dispersion(self) -> DispersionRelation:
        if self.dispersion == "nonrelativistic":
            return DispersionRelation.nonrelativistic(self.mass, self.dimension)
        if self.dispersion == "relativistic":
            return DispersionRelation.relativistic(self.mass, self.c, self.dimension)
        if self.dispersion == "massless":
            return DispersionRelation.massless(self.c, self.dimension)
        try:
            return DispersionRelation.load_table(self.table, self.dimension)
        except (OSError, ValueError) as exc:  # unreadable file or a table that is not a dispersion
            raise ConfigError("table", str(exc)) from exc

    def build_state(self) -> ThermoState:
        return ThermoState(self.beta, self.mu, self.statistics)


_STATISTICS = {FD: "FD", BE: "BE"}

# config key -> ExperimentConfig field
_FIELDS = {f.metadata.get("key", f.name): f.name for f in fields(ExperimentConfig)}


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment; a key may appear once."""
    raw, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(key, f"set again on line {lineno} (first on line {first_line[key]})")
        raw[key], first_line[key] = value, lineno
    return raw


def _number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _numbers(text: str) -> tuple:
    """Comma- or space-separated finite numbers, at least one."""
    values = tuple(_number(part) for part in text.replace(",", " ").split())
    if not values:
        raise ValueError("expected numbers, got none")
    return values


def _interval(text: str) -> tuple:
    values = _numbers(text)
    if len(values) != 2:
        raise ValueError("expected two numbers a, b")
    return values


# how each config key that is not a plain float is read; an unknown
# statistics label is passed on for ``ExperimentConfig`` to reject
_PARSERS = {
    "kind": str, "dispersion": str, "table": str, "out": str,
    "statistics": lambda text: {"FD": FD, "BE": BE}.get(text.upper(), text),
    "dimension": int, "samples": int, "seed": int,
    "interval": _interval, "sizes": _numbers,
}


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """Typed config from raw string values, naming bad keys."""
    kwargs = {}
    for key, text in raw.items():
        if key not in _FIELDS:
            raise ConfigError(key, "unknown configuration key")
        try:
            kwargs[_FIELDS[key]] = _PARSERS.get(key, _number)(text)
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from exc
    if "kind" not in kwargs:
        raise ConfigError("kind", "missing")
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return config_from_mapping(parse_config(fh.read()))


@dataclass
class ExperimentRecord:
    """Config echo, per-size rows, summary (targets / ratios / pass), timings."""

    config: dict
    results: list
    summary: dict
    timings: dict = field(default_factory=dict)
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.failure is None and bool(self.summary.get("passed", False))

    def numeric_payload(self) -> dict:
        """Deterministic portion: everything except timings."""
        return _jsonify({
            "config": self.config,
            "results": self.results,
            "summary": self.summary,
            "failure": self.failure,
        })


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("LDGAS_THREADS", "1")))
    except ValueError:
        return 1


# ``LDGAS_THREADS`` pools, keyed on (pid, n): a forked child makes its own
# instead of queueing work for its parent's threads, which it does not have
_POOLS = {}


def _pool(workers):
    key = (os.getpid(), workers)
    pool = _POOLS.get(key)
    if pool is None:
        # threads start at the first submit, so an executor that loses this
        # race costs nothing
        fresh = ThreadPoolExecutor(max_workers=workers - 1, thread_name_prefix="ldgas-sweep")
        pool = _POOLS.setdefault(key, fresh)
    return pool


def _sweep(fn, sizes):
    """Run fn(index, size) for each size and return the results in order.

    At ``LDGAS_THREADS`` = n > 1 the caller and the n - 1 threads of this
    process's pool take entries in index order, so at most n run at once.
    If entries raise, the sweep starts no further entry, waits for the ones
    already running and raises the lowest-index exception, the one a serial
    run would raise.  An entry must not run a sweep itself: that would put
    more than n entries in flight.
    """
    workers = _thread_count()
    if workers == 1:
        return [fn(i, s) for i, s in enumerate(sizes)]
    sizes = list(sizes)
    results = [None] * len(sizes)
    errors = {}
    lock = threading.Lock()
    indices = iter(range(len(sizes)))

    def drain():
        while True:
            with lock:
                i = None if errors else next(indices, None)
            if i is None:
                return
            try:
                results[i] = fn(i, sizes[i])
            except BaseException as exc:  # re-raised by the caller below
                errors[i] = exc

    helpers = min(workers - 1, len(sizes) - 1)
    futures = [_pool(workers).submit(drain) for _ in range(helpers)]
    drain()
    # a helper that has not started finds nothing left; cancel it rather
    # than wait for a free pool thread
    for future in futures:
        if not future.cancel():
            future.result()
    if errors:
        raise errors[min(errors)]
    return results


def _gap_summary(rows):
    """Successive gap ratios of a sweep and whether its gaps shrink strictly."""
    gaps = [r["gap"] for r in rows]
    return {
        "ratios": [(b / a) if a > 0 else None for a, b in zip(gaps, gaps[1:])],
        "monotone": all(b < a for a, b in zip(gaps, gaps[1:])),
    }


# ---------------------------------------------------------------------------
# per-kind runners
# ---------------------------------------------------------------------------

def _run_eos(cfg, state, disp):
    eos = thermo.equation_of_state(state, disp, cfg.quad_tol)
    rho_c = thermo.critical_density(cfg.beta, disp, statistics=cfg.statistics, tol=cfg.quad_tol)
    row = {
        "pressure": eos.pressure,
        "density": eos.density,
        "critical_density": rho_c,
        "pressure_error": eos.pressure_error,
        "density_error": eos.density_error,
    }
    return [row], {"passed": True}


def _run_rate(cfg, state, disp):
    ctx = rate.RateContext.build(state, disp, cfg.quad_tol)
    a, b = cfg.interval
    points = rate.rate_values((a, b), ctx)
    rows = [{"x": pt.x, "lambda0": pt.lam0, "f": pt.f} for pt in points]
    sup = rate.interval_rate(a, b, ctx, known=points)
    summary = {"interval_sup": sup, "rho_bar": ctx.rho_bar, "rho_c": ctx.rho_c, "passed": True}
    return rows, summary


def _run_kernel(cfg, state, disp):
    rho = -state.sigma * thermo.density(state, disp, cfg.quad_tol)  # the exact d(0)
    rows = []
    tables = []
    for extent in cfg.sizes or (cfg.extent,):
        tab = kernel.build_kernel(state, disp, cfg.h, extent)
        tables.append(tab)
        rows.append({
            "extent": tab.extent,
            "d0": tab.d0,
            "d0_gap": abs(tab.d0 - rho) / abs(rho),
            "l1_norm": tab.l1_norm,
            "sup_norm": tab.sup_norm,
            "boundary_ratio": tab.boundary_ratio,
        })
    summary = {"passed": rows[-1]["d0_gap"] <= cfg.tolerance}
    if len(tables) >= 2:
        change = abs(tables[-1].l1_norm - tables[-2].l1_norm) / tables[-2].l1_norm
        summary["l1_change"] = change
    window = (2.0, max(4.0, tables[-1].extent / 8.0))
    summary["decay_slope"] = kernel.decay_exponent(tables[-1], window)
    summary["decay_window"] = list(window)
    return rows, summary


def _run_gf(cfg, state, disp):
    lam = cfg.lam
    target = thermo.translated_pressure(lam, state, disp, order=0, tol=cfg.quad_tol)

    def one(i, length):
        m = counting.build_counting_matrix(state, disp, length)
        value = log_generating_function(m.law, m.volume, cfg.beta, lam) / cfg.beta
        return {"L": length, "value": value, "target": target,
                "gap": abs(value - target) / abs(target)}

    rows = _sweep(one, cfg.sizes)
    summary = _gap_summary(rows)
    summary["passed"] = summary["monotone"] and rows[-1]["gap"] <= cfg.tolerance
    return rows, summary


def _run_ldp(cfg, state, disp):
    a, b = cfg.interval
    ctx = rate.RateContext.build(state, disp, cfg.quad_tol)
    target = rate.interval_rate(a, b, ctx)

    def one(i, length):
        m = counting.build_counting_matrix(state, disp, length)
        value = window_log_prob(counting.counting_pmf(m).pmf, m.volume, cfg.beta, a, b)
        bound = chebyshev_bound(m.law, m.volume, cfg.beta, a)
        return {
            "L": length,
            "log_prob_rate": value,
            "target_f": target,
            "gap": abs(value - target),
            "chebyshev_bound": bound,
            "bound_satisfied": bool(value <= bound),
        }

    rows = _sweep(one, cfg.sizes)
    summary = dict(_gap_summary(rows), bounds_hold=all(r["bound_satisfied"] for r in rows))
    summary["passed"] = summary["monotone"] and summary["bounds_hold"]
    return rows, summary


def _run_clt(cfg, state, disp):
    target = thermo.translated_pressure(0.0, state, disp, order=2, tol=cfg.quad_tol) / cfg.beta

    def one(i, length):
        m = counting.build_counting_matrix(state, disp, length)
        _, c2, c3, c4 = clt_cumulants(m.law, m.volume)
        return {
            "L": length,
            "c2": c2,
            "c3": c3,
            "c4": c4,
            "c2_target": target,
            "c2_gap": abs(c2 - target) / target,
        }

    rows = _sweep(one, cfg.sizes)
    shrink = abs(rows[-1]["c3"]) < abs(rows[0]["c3"]) if len(rows) > 1 else True
    summary = {
        "c3_shrinks": shrink,
        "passed": shrink and rows[-1]["c2_gap"] <= cfg.tolerance,
    }
    return rows, summary


def _run_modes(cfg, state, disp):
    ctx = rate.RateContext.build(state, disp, cfg.quad_tol) if cfg.interval else None
    target = ctx.p_mu if ctx else thermo.pressure(state, disp, cfg.quad_tol)
    target_f = rate.interval_rate(*cfg.interval, ctx) if ctx else None

    def one(i, ell):
        lat = modes.ModeLattice.build(state, disp, ell)
        row = {
            "ell": ell,
            "modes": lat.mode_count,
            "box_pressure": modes.box_pressure(lat),
            "target_pressure": target,
        }
        row["gap"] = abs(row["box_pressure"] - target) / abs(target)
        if cfg.interval is not None:
            row["ldp_rate"] = window_log_prob(modes.box_pmf(lat), lat.volume, cfg.beta, *cfg.interval)
            row["target_f"] = target_f
        return row

    rows = _sweep(one, cfg.sizes)
    summary = {"passed": rows[-1]["gap"] <= cfg.tolerance}
    return rows, summary


def _run_kac(cfg, state, disp):
    rho_c = thermo.critical_density(cfg.beta, disp, tol=cfg.quad_tol)
    if cfg.interval is not None:
        a = cfg.interval[0]
    else:
        a = 2.0 * rho_c

    def one(i, ell):
        lat = modes.ModeLattice.build(state, disp, ell)
        res = modes.kac_test(lat, a, cfg.samples, seed=np.random.SeedSequence([cfg.seed, i]))
        return {
            "ell": ell,
            "ks_distance": res.ks_distance,
            "ks_box": res.ks_box,
            "lambda_v": res.lambda_v,
            "sample_mean": res.sample_mean,
            "sample_variance": res.sample_variance,
            "box_normal_density": res.box_normal_density,
        }

    rows = _sweep(one, cfg.sizes)
    variances = [r["sample_variance"] for r in rows]
    ratios = [b / a for a, b in zip(variances, variances[1:])]
    stable = all(0.5 <= r <= 2.0 for r in ratios)
    summary = {
        "target_location": rho_c,
        "target_scale": a - rho_c,
        "variance_ratios": ratios,
        "variance_stable": stable,
        # the limiting-law distance carries the box's O(1/ell) location
        # offset, so the pass rule reads the distance at the box location
        "passed": stable and rows[-1]["ks_box"] <= cfg.tolerance,
    }
    return rows, summary


def _check_gf(cfg):
    if cfg.lam == 0:
        raise ConfigError("lambda", "must be nonzero: the gap is relative to g(0) = 0")
    if cfg.statistics == BE and cfg.lam > -cfg.mu:
        raise ConfigError("lambda", f"BE requires lambda <= -mu = {-cfg.mu:g}")


def _check_kernel(cfg):
    if cfg.sizes:
        key, extents = "sizes", cfg.sizes
    elif cfg.extent is not None:
        key, extents = "extent", (cfg.extent,)
    else:  # the default extent, which h may not fit
        key = "h"
        extents = (kernel.default_extent(cfg.build_state(), cfg.build_dispersion(), cfg.h),)
    for extent in extents:
        try:
            kernel.grid_points(cfg.h, extent)
        except DomainError as exc:
            raise ConfigError(key, str(exc)) from exc


class Kind(NamedTuple):
    """An experiment kind: its runner, the config keys it requires, the
    dimensions (empty: any) and statistics it supports, and a check of the
    settings its runner would refuse (None: no more to check)."""

    runner: Callable
    required: tuple = ()
    dimensions: tuple = ()
    statistics: tuple = (FD, BE)
    check: Callable | None = None


KINDS = {
    "eos": Kind(_run_eos),
    "rate": Kind(_run_rate, ("interval",)),
    "kernel": Kind(_run_kernel, dimensions=(1, 3), check=_check_kernel),
    "gf": Kind(_run_gf, ("lambda", "sizes"), (1,), check=_check_gf),
    "ldp": Kind(_run_ldp, ("interval", "sizes"), (1,)),
    "clt": Kind(_run_clt, ("sizes",), (1,)),
    "modes": Kind(_run_modes, ("sizes",), (1, 2, 3)),
    "kac": Kind(_run_kac, ("sizes",), (3,), (BE,)),
}


def run_experiment(cfg: ExperimentConfig, out_dir=None, formats=("json",)) -> ExperimentRecord:
    """Dispatch the experiment, assemble the record, write outputs.

    On failure mid-sweep the partial record is still emitted, marked with
    the failure reason, and the exception is re-raised.
    """
    state = cfg.build_state()
    disp = cfg.build_dispersion()
    runner = KINDS[cfg.kind].runner
    record = ExperimentRecord(config=asdict(cfg), results=[], summary={}, timings={})
    start = time.perf_counter()
    try:
        rows, summary = runner(cfg, state, disp)
        record.results = rows
        record.summary = summary
    except Exception as exc:
        record.failure = f"{type(exc).__name__}: {exc}"
        record.timings["total_seconds"] = time.perf_counter() - start
        if out_dir is not None:
            emit(record, out_dir, formats)
        raise
    record.timings["total_seconds"] = time.perf_counter() - start
    if out_dir is not None:
        emit(record, out_dir, formats)
    return record


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _jsonify(obj):
    """Normalize numpy scalars/arrays and tuples for stable serialization."""
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def emit(record: ExperimentRecord, out_dir, formats=("json",)) -> list:
    """Write the record as CSV and/or JSON; returns the written paths.

    CSV holds one row per sweep entry with a documenting header comment;
    JSON holds the full record.  Both writes are atomic and byte-stable
    for identical records (timings are confined to their own JSON section).
    """
    os.makedirs(out_dir, exist_ok=True)
    kind = record.config.get("kind", "experiment")
    written = []
    if "csv" in formats or "both" in formats:
        columns = list(record.results[0].keys()) if record.results else []
        header = [f"# {kind} experiment record", "# columns: " + ",".join(columns), ",".join(columns)]
        path = os.path.join(out_dir, f"{kind}.csv")
        write_table(path, header, ([row.get(c) for c in columns] for row in record.results))
        written.append(path)
    if "json" in formats or "both" in formats:
        payload = dict(record.numeric_payload(), timings=_jsonify(record.timings))
        path = os.path.join(out_dir, f"{kind}.json")
        atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        written.append(path)
    return written
