#!/usr/bin/env python3
"""Benchmark of the ldgas experiment harness, end to end and per layer.

    python3 perfbench/run.py --workload interval --seed 1 --seconds 20 --trace 0

Runs the workload's experiments (see ``workloads.py``) through
``ldgas.harness.run_experiment`` in a closed loop -- one client, one
process, each pass after the previous one -- writing CSV and JSON records
to a temporary directory, so emission is on the timed path.  One warm-up
pass comes first; its outputs get the full independent checks of
``checks.py`` and every timed pass must reproduce its numeric payload.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``); ``--trace 1``
alternates untraced and traced passes, after one pass that only counts the
hot inner calls, and reports the per-layer metrics of
``tracing.LAYER_METRICS`` plus ``trace_overhead``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` (the
experiments that raised or failed a check; their ratio is the error rate)
and ``metrics``.  The full result -- environment, inputs, per-pass times,
check problems and, for traced runs, the spans -- goes to
``<out>/<workload>-seed<seed>-trace<t>.json``.

BLAS and OpenMP are pinned to one thread before numpy is imported, and
``LDGAS_THREADS`` is set per workload; the pinning is verified in the
loaded OpenBLAS libraries before any timing starts.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import SWEEP_THREADS, WORKLOADS, make_inputs  # noqa: E402

PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUP_PROBES = 5      # fresh processes per run; setup_s is their median
MIN_PASSES = 3        # timed passes per run (pairs of passes when traced)
FORMATS = ("csv", "json")


def pin_threads(workload: str) -> None:
    for var in PIN_VARS:
        os.environ[var] = "1"
    os.environ["LDGAS_THREADS"] = str(SWEEP_THREADS[workload])


def setup(workload: str, seed: int):
    """What a fresh process pays before its first experiment: imports and inputs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from ldgas.harness import config_from_mapping

    raws = make_inputs(workload, seed)
    return raws, [config_from_mapping(raw) for raw in raws]


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that only sets up."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True, timeout=120, cwd=ROOT,
    )
    return time.perf_counter() - start


# -- environment -------------------------------------------------------------

def openblas_libraries() -> dict:
    """Thread count and build string of each OpenBLAS loaded in this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.rsplit("/", 1)[-1]})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    info = {"threads": get_threads(), "config": get_config().decode()}
        out[os.path.basename(path)] = info
    return out


def git_commit() -> str | None:
    """HEAD of the checkout; None where git fails, as outside a repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workload: str) -> dict:
    import numpy
    import scipy
    from ldgas import harness

    blas = openblas_libraries()
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "variables": {var: os.environ.get(var) for var in PIN_VARS + ("LDGAS_THREADS",)},
    }
    wrong = [name for name, info in blas.items() if info.get("threads") != 1]
    if wrong or not blas:
        raise RuntimeError(f"BLAS thread pinning did not take effect: {blas}")
    if harness._thread_count() != SWEEP_THREADS[workload]:
        raise RuntimeError("LDGAS_THREADS pinning did not take effect")
    return env


# -- passes ------------------------------------------------------------------

def run_pass(configs, out_dir, runner):
    """Run every experiment once; an exception takes the place of its record."""
    records = []
    wall, cpu = time.perf_counter(), time.process_time()
    for cfg in configs:
        try:
            records.append(runner(cfg, out_dir=out_dir, formats=FORMATS))
        except Exception as exc:  # a failed experiment is counted, not fatal
            records.append(exc)
    return records, time.perf_counter() - wall, time.process_time() - cpu


def payload(record) -> str:
    return json.dumps(record.numeric_payload(), sort_keys=True)


def check_pass(raws, records, checker, reference) -> list[list[str]]:
    """Problems per experiment; ``reference`` holds the warm-up payloads."""
    problems = []
    for raw, record, ref in zip(raws, records, reference):
        if isinstance(record, Exception):
            problems.append([f"{raw['kind']} raised {type(record).__name__}: {record}"])
            continue
        found = checker.check(raw, record)
        if ref is not None and payload(record) != ref:
            found.append(f"{raw['kind']}: numeric payload differs from the checked warm-up pass")
        problems.append(found)
    return problems


@contextlib.contextmanager
def captured_laws():
    """Collect the particle-number laws computed inside the block."""
    from ldgas import counting, modes

    dists, pmfs = [], []
    counting_pmf, box_pmf = counting.counting_pmf, modes.box_pmf

    def capture_counting(m, *args, **kwargs):
        dists.append(counting_pmf(m, *args, **kwargs))
        return dists[-1]

    def capture_box(lat, *args, **kwargs):
        pmfs.append((lat.ell, box_pmf(lat, *args, **kwargs)))
        return pmfs[-1][1]

    counting.counting_pmf, modes.box_pmf = capture_counting, capture_box
    try:
        yield dists, pmfs
    finally:
        counting.counting_pmf, modes.box_pmf = counting_pmf, box_pmf


def warm_up(raws, configs, out_dir, checker, runner):
    """The checked pass: record checks plus the captured laws' own checks."""
    records, problems = [], []
    for raw, cfg in zip(raws, configs):
        with captured_laws() as (dists, pmfs):
            (record,), _, _ = run_pass([cfg], out_dir, runner)
        found = check_pass([raw], [record], checker, [None])[0]
        for dist in dists:
            found += checker.check_counting_dist(dist)
        for ell, pmf in pmfs:
            found += checker.check_box_pmf(raw, ell, pmf)
        records.append(record)
        problems.append(found)
    return records, problems


@dataclasses.dataclass
class Measurement:
    """Outcome of the warm-up and the timed passes of one run."""

    records: list                 # warm-up records (or exceptions)
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    walls: list = dataclasses.field(default_factory=list)
    cpus: list = dataclasses.field(default_factory=list)
    traced_walls: list = dataclasses.field(default_factory=list)
    setup_times: list = dataclasses.field(default_factory=list)
    tracers: list = dataclasses.field(default_factory=list)
    hot: object = None            # the tracer of the hot-call pass

    def count(self, problems) -> None:
        self.attempted += len(problems)
        self.failed += sum(bool(p) for p in problems)
        self.problems += [p for found in problems for p in found]


def measure(raws, configs, out_dir, checker, runner, seconds, trace,
            probe=None, probes=0) -> Measurement:
    """Warm-up pass, then timed passes until the next would overrun ``seconds``.

    With ``trace`` an untimed pass first counts the hot inner calls, and
    each untraced pass is followed by a traced one.  At least ``MIN_PASSES``
    timed passes (or pairs) run whatever ``seconds`` says.  ``probe()``, a
    set-up probe, runs ``probes`` times between passes, spread evenly over
    ``seconds``, so that set-up is timed under the same host conditions as
    the passes; its time does not count against ``seconds``.
    """
    from tracing import Tracer

    records, problems = warm_up(raws, configs, out_dir, checker, runner)
    m = Measurement(records=records)
    m.count(problems)
    reference = [None if isinstance(r, Exception) else payload(r) for r in records]
    if trace:
        m.hot = Tracer()
        with m.hot.counting_hot_calls():
            recs, _, _ = run_pass(configs, out_dir, runner)
        m.count(check_pass(raws, recs, checker, reference))
    elapsed = 0.0
    while True:
        lap = time.perf_counter()
        recs, wall, cpu = run_pass(configs, out_dir, runner)
        m.walls.append(wall)
        m.cpus.append(cpu)
        m.count(check_pass(raws, recs, checker, reference))
        if trace:
            tracer = Tracer()
            with tracer.installed():
                recs, wall, _ = run_pass(configs, out_dir, runner)
            m.traced_walls.append(wall)
            m.tracers.append(tracer)
            m.count(check_pass(raws, recs, checker, reference))
        spent = time.perf_counter() - lap
        elapsed += spent
        if len(m.setup_times) < probes and elapsed >= len(m.setup_times) * seconds / probes:
            m.setup_times.append(probe())
        if (len(m.walls) >= MIN_PASSES and len(m.setup_times) >= probes
                and elapsed + spent > seconds):
            return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(HERE, "results"),
                        help="directory for the full result file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_threads(args.workload)
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    try:
        raws, configs = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"set-up failed (is the program under {ROOT}/src?): {exc}", file=sys.stderr)
        return 2
    from ldgas import harness

    def run_experiment(cfg, **kwargs):
        # looked up per call, so a traced pass sees the wrapped function
        return harness.run_experiment(cfg, **kwargs)

    from checks import Checker
    from tracing import LAYER_METRICS, layer_metrics

    env = environment(args.workload)
    os.makedirs(args.out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=args.out) as emit_dir:
        m = measure(raws, configs, emit_dir, Checker(), run_experiment, args.seconds, args.trace,
                    probe=lambda: probe_setup(args.workload, args.seed),
                    probes=0 if args.trace else SETUP_PROBES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        values = layer_metrics(m.tracers, m.hot)
        values["trace_overhead"] = statistics.median(m.traced_walls) / statistics.median(m.walls)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        units["trace_overhead"] = "ratio"
    else:
        values = {"setup_s": statistics.median(m.setup_times), "pass_s": statistics.median(m.walls),
                  "cpu_s": statistics.median(m.cpus), "peak_rss_mb": peak_rss_mb}
        units = {name: unit for name, unit, _ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    ks16 = [row["ks_distance"] for raw, rec in zip(raws, m.records)
            if raw["kind"] == "kac" and not isinstance(rec, Exception)
            for row in rec.results if row["ell"] == 16.0]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "inputs": raws,
        "metrics": metrics, "attempted": m.attempted, "failed": m.failed,
        "pass_walls": m.walls, "pass_cpus": m.cpus, "traced_walls": m.traced_walls,
        "setup_times": m.setup_times,
        "kac_ks_ell16": ks16,
        "problems": sorted(set(m.problems)),
        "spans": [list(s) for s in m.tracers[-1].spans] if m.tracers else [],
    }
    path = os.path.join(args.out, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)

    print(f"workload {args.workload}, seed {args.seed}: {len(m.walls)} passes, "
          f"{m.attempted} experiments, {m.failed} failed; environment {json.dumps(env)}")
    for problem in result["problems"][:20]:
        print(f"check failed: {problem}")
    for ks in ks16:
        print(f"kac KS at ell=16: {ks:.4f} (criterion 12 fails at this size by design; not gated)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        layer_times = {name: values[name] for name, unit, _ in LAYER_METRICS if unit == "s"}
        print(f"dominant layer: {max(layer_times, key=layer_times.get)}")
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0 if m.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
