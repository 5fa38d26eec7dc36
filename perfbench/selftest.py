"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

The traced-run test starts the benchmark once per workload (about a
minute in all), so the file is kept out of the repository's default test
collection.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")

# layer metrics that must be nonzero in a traced run of each workload
NONZERO = {
    "interval": ["counting.matrices", "counting.matrix_order_sum", "counting.eigh_s",
                 "counting.assemble_s", "counting.pmf_s", "counting.pmf_len_sum",
                 "counting.stats_s", "counting.useful_eig_ratio", "kernel.builds",
                 "kernel.self_s", "kernel.grid_points", "thermo.calls", "rate.points",
                 "harness.experiments", "harness.emit_s", "harness.bytes_written"],
    "bulk": ["thermo.calls", "thermo.self_s", "thermo.quad_calls", "rate.points",
             "rate.self_s", "rate.thermo_calls_per_point", "dispersion.eval_calls",
             "dispersion.eval_points"],
    "box": ["modes.lattice_builds", "modes.lattice_s", "modes.modes_retained",
            "modes.shells_retained", "modes.pmf_s", "modes.pmf_len_sum", "modes.solve_s",
            "modes.sample_s", "modes.samples"],
    "fanout": ["harness.pool_efficiency", "counting.eigh_s", "counting.matrices"],
}
DOMINANT = {"interval": "counting.eigh_s", "bulk": "thermo.self_s", "box": "modes.sample_s"}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def inputs_digest(name, seed):
    blob = json.dumps(workloads.make_inputs(name, seed), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_fixed_seed_gives_byte_identical_inputs():
    code = ("import hashlib, json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "blob = json.dumps(workloads.make_inputs(sys.argv[2], 7), sort_keys=True).encode(); "
            "print(hashlib.sha256(blob).hexdigest())")
    for name in workloads.WORKLOADS:
        fresh = subprocess.run([sys.executable, "-c", code, HERE, name],
                               capture_output=True, text=True, check=True, timeout=60)
        assert fresh.stdout.strip() == inputs_digest(name, 7)
        assert inputs_digest(name, 8) != inputs_digest(name, 7)


def test_seed_changes_parameter_values_only():
    seeded = {"lambda", "interval", "seed"}
    for name in workloads.WORKLOADS:
        a, b = workloads.make_inputs(name, 1), workloads.make_inputs(name, 2)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.keys() == y.keys()
            assert {k: v for k, v in x.items() if k not in seeded} == \
                   {k: v for k, v in y.items() if k not in seeded}


def test_metric_names_and_spec_match_the_code():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in s["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in s["per_layer"]] == \
        LAYER_METRICS + [("trace_overhead", "ratio", "lower")]
    assert [w["name"] for w in s["workloads"]] == list(workloads.WORKLOADS)


def _corrupt(record):
    record.results[0]["pressure"] *= 1.0 + 1e-6
    return record


def test_wrong_or_raising_experiments_are_counted_as_failed(tmp_path):
    raws, configs = run.setup("bulk", 3)
    raws, configs = raws[-4:], configs[-4:]          # the eos experiments: fast
    from checks import Checker
    from ldgas import harness

    def corrupting(cfg, **kwargs):
        record = harness.run_experiment(cfg, **kwargs)
        return _corrupt(record) if cfg.dispersion == "relativistic" else record

    def raising(cfg, **kwargs):
        if cfg.statistics == 1:
            raise RuntimeError("deliberate")
        return harness.run_experiment(cfg, **kwargs)

    clean = run.measure(raws, configs, str(tmp_path), Checker(), harness.run_experiment, 0.0, 0)
    assert clean.failed == 0 and clean.attempted == 4 * (1 + run.MIN_PASSES)
    wrong = run.measure(raws, configs, str(tmp_path), Checker(), corrupting, 0.0, 0)
    assert wrong.failed == 2 * (1 + run.MIN_PASSES)   # two relativistic gases per pass
    broken = run.measure(raws, configs, str(tmp_path), Checker(), raising, 0.0, 0)
    assert broken.failed == 2 * (1 + run.MIN_PASSES)  # two BE gases per pass
    assert any("deliberate" in p for p in broken.problems)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_each_named_layer(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    assert [n for n in NONZERO[workload] if not metrics[n] > 0] == []
    if workload in DOMINANT:
        times = {n: metrics[n] for n, unit, _ in LAYER_METRICS if unit == "s"}
        assert max(times, key=times.get) == DOMINANT[workload]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_bytes(open(os.path.join(ROOT, "BENCHMARK.json"), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
