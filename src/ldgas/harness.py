"""Experiment orchestration: configs, sweeps, records, CSV/JSON emission.

Configs are plain-text ``key = value`` files (see ``CONFIG_KEYS``); records
echo the config, hold one result row per sweep size with oracle targets and
gaps, and are written atomically (temp file + rename).  Identical configs
with identical seeds produce byte-identical numeric payloads; wall-clock
timings live in a separate section excluded from such comparisons.

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
from dataclasses import dataclass, field, asdict

import numpy as np

from . import counting, kernel, modes, rate, thermo
from .dispersion import DispersionRelation
from .errors import ConfigError
from .export import atomic_write as _atomic_write, write_table
from .thermo import BE, FD, ThermoState

__all__ = ["ExperimentConfig", "ExperimentRecord", "run_experiment", "emit", "parse_config"]

KINDS = ("eos", "rate", "kernel", "gf", "ldp", "clt", "modes", "kac")

CONFIG_KEYS = {
    "kind": "experiment kind: " + " | ".join(KINDS),
    "statistics": "FD or BE",
    "dispersion": "nonrelativistic | relativistic | massless | table",
    "mass": "particle mass (nonrelativistic / relativistic)",
    "c": "speed constant (relativistic / massless)",
    "table": "path of a two-column (|k|, energy) dispersion file",
    "dimension": "spatial dimension",
    "beta": "inverse temperature > 0",
    "mu": "chemical potential (BE requires mu < 0)",
    "lambda": "tilt for gf experiments",
    "interval": "a, b density window for rate / ldp / modes",
    "sizes": "strictly increasing sweep of interval lengths / box sides / extents",
    "h": "kernel-table grid spacing (gf / ldp / clt / kernel)",
    "extent": "kernel extent override",
    "samples": "sample count for kac",
    "seed": "integer RNG seed",
    "tolerance": "pass/fail tolerance for the experiment's headline gap",
    "quad_tol": "relative tolerance for thermodynamic quadrature",
    "out": "output directory for emitted records",
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    statistics: int = FD
    dispersion: str = "nonrelativistic"
    mass: float = 1.0
    c: float = 1.0
    table: str | None = None
    dimension: int = 1
    beta: float = 1.0
    mu: float = 0.0
    lam: float | None = None
    interval: tuple | None = None
    sizes: tuple = ()
    h: float = 0.05
    extent: float | None = None
    samples: int = 10_000
    seed: int = 1
    tolerance: float = 0.02
    quad_tol: float = 1e-10
    out_dir: str = "."

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError("kind", f"unknown kind {self.kind!r}")
        if self.statistics not in (BE, FD):
            raise ConfigError("statistics", "must be FD or BE")
        if self.beta <= 0:
            raise ConfigError("beta", "must be positive")
        if self.statistics == BE and self.mu >= 0:
            raise ConfigError("mu", "BE requires mu < 0")
        if self.tolerance <= 0:
            raise ConfigError("tolerance", "must be positive")
        if self.quad_tol <= 0:
            raise ConfigError("quad_tol", "must be positive")
        if self.h <= 0:
            raise ConfigError("h", "must be positive")
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
        if self.kind == "gf" and self.lam is None:
            raise ConfigError("lambda", "gf experiments need a tilt")
        if self.kind in ("ldp", "rate") and self.interval is None:
            raise ConfigError("interval", f"{self.kind} experiments need an interval")
        if self.kind in ("gf", "ldp", "clt", "modes", "kac") and not self.sizes:
            raise ConfigError("sizes", f"{self.kind} experiments need a size sweep")
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


def parse_config(text: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    return raw


def config_from_mapping(raw: dict) -> ExperimentConfig:
    """Typed config from raw string values, naming bad fields."""
    def number(key, cast=float):
        try:
            return cast(raw[key])
        except ValueError as exc:
            raise ConfigError(key, str(exc)) from exc

    kwargs = {}
    known = set(CONFIG_KEYS)
    for key in raw:
        if key not in known:
            raise ConfigError(key, "unknown configuration key")
    if "kind" in raw:
        kwargs["kind"] = raw["kind"]
    else:
        raise ConfigError("kind", "missing")
    if "statistics" in raw:
        label = raw["statistics"].upper()
        if label not in ("FD", "BE"):
            raise ConfigError("statistics", f"expected FD or BE, got {raw['statistics']!r}")
        kwargs["statistics"] = FD if label == "FD" else BE
    for key, cast in (
        ("mass", float), ("c", float), ("beta", float), ("mu", float),
        ("h", float), ("tolerance", float), ("quad_tol", float),
    ):
        if key in raw:
            kwargs[key] = number(key, cast)
    for key in ("dimension", "samples", "seed"):
        if key in raw:
            kwargs[key] = number(key, int)
    if "dispersion" in raw:
        kwargs["dispersion"] = raw["dispersion"]
    if "table" in raw:
        kwargs["table"] = raw["table"]
    if "out" in raw:
        kwargs["out_dir"] = raw["out"]
    if "lambda" in raw:
        kwargs["lam"] = number("lambda")
    if "extent" in raw:
        kwargs["extent"] = number("extent")
    if "interval" in raw:
        parts = [p for p in raw["interval"].replace(",", " ").split() if p]
        if len(parts) != 2:
            raise ConfigError("interval", "expected two numbers a, b")
        kwargs["interval"] = (float(parts[0]), float(parts[1]))
    if "sizes" in raw:
        parts = [p for p in raw["sizes"].replace(",", " ").split() if p]
        if not parts:
            raise ConfigError("sizes", "empty sweep")
        kwargs["sizes"] = tuple(float(p) for p in parts)
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


def _gap_ratios(gaps):
    return [
        (gaps[i + 1] / gaps[i]) if gaps[i] > 0 else None
        for i in range(len(gaps) - 1)
    ]


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
    rows = []
    for x in (a, b):
        pt = rate.rate_value(x, ctx)
        rows.append({"x": pt.x, "lambda0": pt.lam0, "f": pt.f})
    sup = rate.interval_rate(a, b, ctx)
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
    gaps = [r["gap"] for r in rows]
    ratios = _gap_ratios(gaps)
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    summary = {
        "ratios": ratios,
        "monotone": monotone,
        "passed": monotone and gaps[-1] <= cfg.tolerance,
    }
    return rows, summary


def _run_ldp(cfg, state, disp):
    a, b = cfg.interval
    ctx = rate.RateContext.build(state, disp, cfg.quad_tol)
    target = rate.interval_rate(a, b, ctx)
    tab = _shared_kernel(cfg, state, disp, max(cfg.sizes))

    def one(i, length):
        m = counting.build_counting_matrix(tab, length)
        dist = counting.counting_pmf(m)
        value = counting.ldp_log_prob(m, a, b, dist)
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
    gaps = [r["gap"] for r in rows]
    summary = {
        "ratios": _gap_ratios(gaps),
        "monotone": all(b < a for a, b in zip(gaps, gaps[1:])),
        "bounds_hold": all(r["bound_satisfied"] for r in rows),
    }
    summary["passed"] = summary["monotone"] and summary["bounds_hold"]
    return rows, summary


def _run_clt(cfg, state, disp):
    tab = _shared_kernel(cfg, state, disp, max(cfg.sizes))

    def one(i, length):
        m = counting.build_counting_matrix(tab, length)
        report = counting.cumulants_clt(m)
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
            pmf = modes.box_pmf(lat)
            vol = lat.volume
            a, b = cfg.interval
            lo = max(0, int(math.ceil(a * vol - 1e-9)))
            hi = int(math.floor(b * vol + 1e-9))
            mass = float(np.sum(pmf[lo:hi + 1])) if hi >= lo else 0.0
            row["ldp_rate"] = math.log(mass) / (cfg.beta * vol) if mass > 0 else -math.inf
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


_RUNNERS = {
    "eos": _run_eos,
    "rate": _run_rate,
    "kernel": _run_kernel,
    "gf": _run_gf,
    "ldp": _run_ldp,
    "clt": _run_clt,
    "modes": _run_modes,
    "kac": _run_kac,
}


def run_experiment(cfg: ExperimentConfig, out_dir=None, formats=("json",)) -> ExperimentRecord:
    """Dispatch the experiment, assemble the record, write outputs.

    On failure mid-sweep the partial record is still emitted, marked with
    the failure reason, and the exception is re-raised.
    """
    state = cfg.build_state()
    disp = cfg.build_dispersion()
    record = ExperimentRecord(config=asdict(cfg), results=[], summary={}, timings={})
    start = time.perf_counter()
    try:
        rows, summary = _RUNNERS[cfg.kind](cfg, state, disp)
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
        payload = _jsonify({
            "config": record.config,
            "results": record.results,
            "summary": record.summary,
            "failure": record.failure,
            "timings": record.timings,
        })
        path = os.path.join(out_dir, f"{kind}.json")
        _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        written.append(path)
    return written
