"""Experiment orchestration: configs, sweeps, records, CSV/JSON emission.

Configs are plain-text ``key = value`` files whose keys are the fields of
``ExperimentConfig`` (the README lists them); ``KINDS`` maps each experiment
kind to its runner and the keys it requires.  Records echo the config, hold
one result row per sweep size with oracle targets and gaps, and are written
atomically (temp file + rename).  Identical configs with identical seeds
produce byte-identical numeric payloads; wall-clock timings live in a
separate section excluded from such comparisons.

The ``LDGAS_THREADS`` environment variable parallelizes independent sweep
entries; per-size seeds are derived from (seed, index), so the thread count
never changes numeric results.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import counting, kernel, modes, rate, thermo
from .dispersion import DispersionRelation
from .errors import ConfigError
from .export import atomic_write, write_table
from .factors import window_log_prob
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
        if self.statistics not in (BE, FD):
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
        if self.sizes and any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ConfigError("sizes", "sweep must be strictly increasing")
        if self.sizes and self.sizes[0] <= 0:
            raise ConfigError("sizes", "sweep sizes must be positive")
        if self.interval is not None:
            a, b = self.interval
            if a > b:
                raise ConfigError("interval", "requires a <= b")
        for key in KINDS[self.kind][1]:
            if getattr(self, _FIELDS[key]) in (None, ()):
                raise ConfigError(key, f"required by {self.kind} experiments")
        if self.dispersion not in ("nonrelativistic", "relativistic", "massless", "table"):
            raise ConfigError("dispersion", f"unknown dispersion {self.dispersion!r}")
        if self.dispersion == "table" and not self.table:
            raise ConfigError("table", "table dispersion needs a file path")

    def build_dispersion(self) -> DispersionRelation:
        if self.dispersion == "nonrelativistic":
            return DispersionRelation.nonrelativistic(self.mass, self.dimension)
        if self.dispersion == "relativistic":
            return DispersionRelation.relativistic(self.mass, self.c, self.dimension)
        if self.dispersion == "massless":
            return DispersionRelation.massless(self.c, self.dimension)
        return DispersionRelation.load_table(self.table, self.dimension)

    def build_state(self) -> ThermoState:
        return ThermoState(self.beta, self.mu, self.statistics)


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


def _sweep(fn, sizes):
    """Run fn(index, size) for each size, optionally threaded, in order."""
    workers = _thread_count()
    if workers == 1:
        return [fn(i, s) for i, s in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda args: fn(*args), enumerate(sizes)))


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

def _shared_kernel(cfg, state, disp, needed_length):
    extent = cfg.extent
    if extent is None:
        extent = max(2.0 * needed_length, kernel.default_extent(state, disp))
        extent = math.ceil(extent / cfg.h) * cfg.h
    return kernel.build_kernel(state, disp, cfg.h, extent)


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
    points = [rate.rate_value(x, ctx) for x in (a, b)]
    rows = [{"x": pt.x, "lambda0": pt.lam0, "f": pt.f} for pt in points]
    sup = rate.interval_rate(a, b, ctx, known=points)
    summary = {"interval_sup": sup, "rho_bar": ctx.rho_bar, "rho_c": ctx.rho_c, "passed": True}
    return rows, summary


def _run_kernel(cfg, state, disp):
    sizes = cfg.sizes or (kernel.default_extent(state, disp),)
    rho = thermo.density(state, disp, cfg.quad_tol) * (1 if cfg.statistics == FD else -1)
    rows = []
    tables = []
    for extent in sizes:
        tab = kernel.build_kernel(state, disp, cfg.h, extent)
        tables.append(tab)
        d0 = float(tab.at_offsets(np.array([0]))[0])
        rows.append({
            "extent": extent,
            "d0": d0,
            "d0_gap": abs(d0 - rho) / abs(rho),
            "l1_norm": tab.l1_norm,
            "sup_norm": tab.sup_norm,
            "boundary_ratio": tab.boundary_ratio,
        })
    summary = {"passed": rows[-1]["d0_gap"] <= cfg.tolerance}
    if len(tables) >= 2:
        change = abs(tables[-1].l1_norm - tables[-2].l1_norm) / tables[-2].l1_norm
        summary["l1_change"] = change
    window = (2.0, max(4.0, sizes[-1] / 8.0))
    summary["decay_slope"] = kernel.decay_exponent(tables[-1], window)
    summary["decay_window"] = list(window)
    return rows, summary


def _run_gf(cfg, state, disp):
    lam = cfg.lam
    target = thermo.translated_pressure(lam, state, disp, order=0, tol=cfg.quad_tol)
    tab = _shared_kernel(cfg, state, disp, max(cfg.sizes))

    def one(i, length):
        m = counting.build_counting_matrix(tab, length)
        value = counting.log_generating_function(m, lam) / cfg.beta
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
    tab = _shared_kernel(cfg, state, disp, max(cfg.sizes))

    def one(i, length):
        m = counting.build_counting_matrix(tab, length)
        value = counting.ldp_log_prob(m, a, b)
        bound = counting.chebyshev_bound(m, a)
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
    tab = _shared_kernel(cfg, state, disp, max(cfg.sizes))
    target = thermo.translated_pressure(0.0, state, disp, order=2, tol=cfg.quad_tol) / cfg.beta

    def one(i, length):
        m = counting.build_counting_matrix(tab, length)
        report = counting.cumulants_clt(m, variance_target=target)
        c1, c2, c3, c4 = report.values
        return {
            "L": length,
            "c2": c2,
            "c3": c3,
            "c4": c4,
            "c2_target": report.variance_target,
            "c2_gap": abs(c2 - report.variance_target) / report.variance_target,
        }

    rows = _sweep(one, cfg.sizes)
    shrink = abs(rows[-1]["c3"]) < abs(rows[0]["c3"]) if len(rows) > 1 else True
    summary = {
        "c3_shrinks": shrink,
        "passed": shrink and rows[-1]["c2_gap"] <= cfg.tolerance,
    }
    return rows, summary


def _run_modes(cfg, state, disp):
    target = thermo.pressure(state, disp, cfg.quad_tol)
    ctx = rate.RateContext.build(state, disp, cfg.quad_tol) if cfg.interval else None
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


# kind -> (runner, config keys the kind requires)
KINDS = {
    "eos": (_run_eos, ()),
    "rate": (_run_rate, ("interval",)),
    "kernel": (_run_kernel, ()),
    "gf": (_run_gf, ("lambda", "sizes")),
    "ldp": (_run_ldp, ("interval", "sizes")),
    "clt": (_run_clt, ("sizes",)),
    "modes": (_run_modes, ("sizes",)),
    "kac": (_run_kac, ("sizes",)),
}


def run_experiment(cfg: ExperimentConfig, out_dir=None, formats=("json",)) -> ExperimentRecord:
    """Dispatch the experiment, assemble the record, write outputs.

    On failure mid-sweep the partial record is still emitted, marked with
    the failure reason, and the exception is re-raised.
    """
    state = cfg.build_state()
    disp = cfg.build_dispersion()
    runner, _ = KINDS[cfg.kind]
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
