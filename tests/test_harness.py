import dataclasses
import json
import math
import multiprocessing
import os
import stat
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from ldgas import harness
from ldgas.cli import main
from ldgas.errors import AccuracyError, ConfigError, DomainError
from ldgas.export import atomic_write
from ldgas.harness import (
    KINDS,
    ExperimentConfig,
    ExperimentRecord,
    config_from_mapping,
    emit,
    load_config,
    parse_config,
    run_experiment,
)
from ldgas.dispersion import DispersionRelation
from ldgas.thermo import BE, FD, ThermoState

GF_CFG = """
    # generating-function sweep
    kind = gf
    statistics = FD
    dispersion = nonrelativistic
    mass = 0.5
    dimension = 1
    beta = 1.0
    mu = 0.0
    lambda = 0.5
    sizes = 10, 20, 40
    h = 0.05
    tolerance = 0.02
    seed = 7
"""


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return str(path)


def fail_mid_sweep(monkeypatch):
    """Make the counting build of the second sweep size raise ``AccuracyError``."""
    from ldgas import counting

    build = counting.build_counting_matrix

    def failing(state, disp, length):
        if length > 10.0:
            raise AccuracyError("Nystrom eigenvalues not certified", estimate=1.0)
        return build(state, disp, length)

    monkeypatch.setattr(counting, "build_counting_matrix", failing)


def test_clt_variance_target_computed_once(monkeypatch):
    from ldgas import thermo

    calls = []
    original = thermo.translated_pressure

    def counted(lam, state, disp, order=0, tol=1e-10):
        calls.append(order)
        return original(lam, state, disp, order=order, tol=tol)

    monkeypatch.setattr(thermo, "translated_pressure", counted)
    cfg = config_from_mapping({"kind": "clt", "statistics": "FD", "dispersion": "nonrelativistic",
                               "mass": "0.5", "dimension": "1", "beta": "1.0", "mu": "0.0",
                               "h": "0.05", "extent": "160.0", "sizes": "10, 20, 40"})
    record = run_experiment(cfg)
    assert len(record.results) == 3
    assert calls == [2]
    target = original(0.0, cfg.build_state(), cfg.build_dispersion(), order=2) / cfg.beta
    assert {row["c2_target"] for row in record.results} == {target}


def test_counting_sweep_does_not_read_table_samples(monkeypatch):
    # at mu = -0.1 the BE kernel has not decayed at the default extent, which
    # a kernel experiment refuses; the counting sweep reads only the symbol
    from ldgas import kernel

    raw = {"kind": "gf", "statistics": "BE", "mass": "0.5", "dimension": "1", "mu": "-0.1",
           "lambda": "0.05", "sizes": "10, 20, 40"}
    with pytest.raises(AccuracyError, match="not decayed"):
        run_experiment(config_from_mapping(dict(raw, kind="kernel", sizes="40")))

    def no_table(*args, **kwargs):
        raise AssertionError("a counting sweep built a kernel table")

    monkeypatch.setattr(kernel, "build_kernel", no_table)
    assert run_experiment(config_from_mapping(raw)).passed
    # gf, ldp and clt ignore h and extent, so grids a kernel table refuses
    # (extent not a multiple of h; too few samples) change no result
    for kind, extra in (("gf", {}), ("ldp", {"interval": "0.7, 0.8"}), ("clt", {})):
        default = dict(raw, kind=kind, **extra)
        want = run_experiment(config_from_mapping(default)).results
        for grid in ({"h": "0.05", "extent": "10.01"}, {"h": "2.0", "extent": "4.0"}):
            assert run_experiment(config_from_mapping(dict(default, **grid))).results == want


# the smallest valid config of each kind: one or two small sizes, few samples
SMOKE = {
    "eos": {},
    "rate": {"interval": "0.25, 0.30"},
    "kernel": {},
    "gf": {"lambda": "0.5", "sizes": "10"},
    "ldp": {"interval": "0.2, 0.3", "sizes": "10"},
    "clt": {"sizes": "10"},
    "modes": {"sizes": "8"},
    "kac": {"statistics": "BE", "dimension": "3", "mu": "-0.1", "sizes": "4, 6", "samples": "100"},
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_kind_runs_from_its_smallest_config(tmp_path, kind):
    cfg = config_from_mapping(dict(SMOKE[kind], kind=kind))
    record = run_experiment(cfg, tmp_path, ("both",))
    assert record.failure is None and record.results
    assert record.config == dataclasses.asdict(cfg)
    assert isinstance(record.summary["passed"], bool)
    assert sorted(os.listdir(tmp_path)) == [f"{kind}.csv", f"{kind}.json"]


class TestKernelExtents:
    def test_default_extent_is_a_multiple_of_h(self):
        # 40 thermal lengths of eps = k^2 / 2 is 28.28..., not a multiple of h
        record = run_experiment(config_from_mapping({"kind": "kernel", "mass": "1.0", "dimension": "1"}))
        assert record.passed
        (row,) = record.results
        assert row["extent"] == pytest.approx(28.3) and row["extent"] >= 40.0 / math.sqrt(2.0)

    def test_extent_key_sets_the_extent(self):
        record = run_experiment(config_from_mapping({"kind": "kernel", "mass": "0.5", "extent": "100.0"}))
        assert [row["extent"] for row in record.results] == [100.0]
        assert record.passed

    def test_sizes_are_swept(self):
        record = run_experiment(config_from_mapping(
            {"kind": "kernel", "mass": "0.5", "extent": "100.0", "sizes": "80, 160"}))
        assert [row["extent"] for row in record.results] == [80.0, 160.0]
        assert "l1_change" in record.summary

    # the massless |x|^{-4} tail converges like 1/X, so its L1 norm needs a
    # genuinely large extent to settle under doubling
    @pytest.mark.parametrize("gas", [
        {"mass": "0.5", "sizes": "160, 320"},
        {"dispersion": "massless", "dimension": "3", "sizes": "16384, 32768"},
    ], ids=["fd_d1", "massless_d3"])
    def test_l1_norm_stable_under_extent_doubling(self, gas):
        record = run_experiment(config_from_mapping(dict(gas, kind="kernel")))
        assert record.passed
        assert record.summary["l1_change"] < 1e-4


@pytest.mark.parametrize("interval", ["0.25, 0.30", "0.05, 0.10", "0.10, 0.30"])
def test_rate_experiment_solves_each_end_once(monkeypatch, interval):
    from ldgas import rate

    calls = []
    original = rate._solve

    def counted(x, ctx):  # one minimizer solve per x, whichever entry runs it
        calls.append(x)
        return original(x, ctx)

    cfg = config_from_mapping({"kind": "rate", "statistics": "FD", "dispersion": "nonrelativistic",
                               "mass": "0.5", "dimension": "1", "beta": "1.0", "mu": "0.0",
                               "interval": interval})
    ctx = rate.RateContext.build(cfg.build_state(), cfg.build_dispersion(), cfg.quad_tol)
    expected = rate.interval_rate(*cfg.interval, ctx)
    monkeypatch.setattr(rate, "_solve", counted)
    record = run_experiment(cfg)
    assert calls == list(cfg.interval)
    assert record.summary["interval_sup"] == expected  # bit for bit


class TestConfigParsing:
    def test_key_value_with_comments(self):
        raw = parse_config("a = 1  # inline\n# full line\nb= two\n")
        assert raw == {"a": "1", "b": "two"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("just a line\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"kind": "eos", "bogus": "1"})
        assert err.value.field == "bogus"

    def test_be_positive_mu_names_mu(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"kind": "eos", "statistics": "BE", "mu": "0.1"})
        assert err.value.field == "mu"

    def test_sizes_must_increase(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"kind": "gf", "lambda": "0.5", "sizes": "10, 10"})
        assert err.value.field == "sizes"

    def test_nonpositive_tolerance(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"kind": "eos", "tolerance": "0"})
        assert err.value.field == "tolerance"

    def test_gf_needs_lambda(self):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"kind": "gf", "sizes": "10, 20"})
        assert err.value.field == "lambda"

    @pytest.mark.parametrize("extra", [
        {"lambda": "0"},  # g(0) = 0, so the relative gap is undefined
        {"statistics": "BE", "mu": "-0.5", "lambda": "0.7"},  # g = inf beyond -mu
    ], ids=["zero", "be_beyond_minus_mu"])
    def test_gf_lambda_it_cannot_score_names_lambda(self, extra):
        with pytest.raises(ConfigError) as err:
            config_from_mapping(dict({"kind": "gf", "sizes": "10, 20"}, **extra))
        assert err.value.field == "lambda"

    def test_gf_be_lambda_at_minus_mu_gives_finite_rows(self):
        cfg = config_from_mapping({"kind": "gf", "statistics": "BE", "mu": "-0.5",
                                   "lambda": "0.5", "mass": "0.5", "sizes": "10, 20"})
        rows = run_experiment(cfg).results
        assert all(math.isfinite(row[key]) for row in rows for key in ("value", "target", "gap"))

    @pytest.mark.parametrize("grid, key", [
        ({"sizes": "40.01"}, "sizes"), ({"sizes": "0.2, 40"}, "sizes"),
        ({"extent": "40.01"}, "extent"), ({"extent": "0.2"}, "extent"),
        ({"extent": "0.2", "sizes": "40.01"}, "sizes"),
    ])
    def test_kernel_grid_it_cannot_build_names_key(self, grid, key):
        from ldgas.kernel import build_kernel

        raw = dict({"kind": "kernel", "mass": "0.5", "h": "0.05"}, **grid)
        with pytest.raises(ConfigError) as err:
            config_from_mapping(raw)
        assert err.value.field == key
        # the check is build_kernel's own grid rule, run before the experiment
        refused = next(x for x in (40.01, 0.2) if str(x) in raw[key])
        state, disp = ThermoState(1.0, 0.0, FD), DispersionRelation.nonrelativistic(0.5, 1)
        with pytest.raises(DomainError) as dom:
            build_kernel(state, disp, 0.05, refused)
        assert err.value.reason == str(dom.value)

    def test_kernel_default_extent_h_cannot_fit_names_h(self):
        # no sizes or extent: the extent is the default of 40 thermal lengths
        # (30 at h = 5, mass 1, d = 1), which holds only 6 grid points
        from ldgas.kernel import default_extent, grid_points

        cfg = {"kind": "kernel", "statistics": "FD", "dimension": "1", "h": "5"}
        with pytest.raises(ConfigError) as err:
            config_from_mapping(cfg)
        assert err.value.field == "h"
        extent = default_extent(ThermoState(1.0, 0.0, FD), DispersionRelation.nonrelativistic(1.0, 1), 5.0)
        assert extent == 30.0
        with pytest.raises(DomainError) as dom:
            grid_points(5.0, extent)
        assert err.value.reason == str(dom.value)

    def test_interval_parse(self):
        cfg = config_from_mapping(
            {"kind": "ldp", "interval": "0.25, 0.30", "sizes": "10, 20"}
        )
        assert cfg.interval == (0.25, 0.30)

    def test_full_file(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, GF_CFG))
        assert cfg.kind == "gf" and cfg.lam == 0.5 and cfg.sizes == (10.0, 20.0, 40.0)

    def test_every_field_set_by_its_key(self):
        # one valid text per config key and the field value it parses to, never the default
        samples = {
            "kind": ("kac", "kac"), "statistics": ("be", BE), "dispersion": ("table", "table"),
            "mass": ("0.75", 0.75), "c": ("2", 2.0), "table": ("k.txt", "k.txt"),
            "dimension": ("3", 3), "beta": ("2.5", 2.5), "mu": ("-1.5", -1.5),
            "lambda": ("0.5", 0.5), "interval": ("0.1, 0.2", (0.1, 0.2)),
            "sizes": ("10 20", (10.0, 20.0)), "h": ("0.1", 0.1), "extent": ("80", 80.0),
            "samples": ("50", 50), "seed": ("9", 9), "tolerance": ("0.1", 0.1),
            "quad_tol": ("1e-8", 1e-8), "out": ("results", "results"),
        }
        cfg = config_from_mapping({key: text for key, (text, _) in samples.items()})
        fields = dataclasses.fields(ExperimentConfig)
        assert len(fields) == len(samples) == 19
        for f in fields:
            _, value = samples[f.metadata.get("key", f.name)]
            assert getattr(cfg, f.name) == value != f.default

    @pytest.mark.parametrize("bad", ["x", "nan", "inf"])
    @pytest.mark.parametrize("key", ["mass", "c", "beta", "mu", "lambda", "h", "extent",
                                     "tolerance", "quad_tol", "interval", "sizes",
                                     "dimension", "samples", "seed"])
    def test_bad_number_names_key(self, key, bad):
        text = {"interval": f"0.2, {bad}", "sizes": f"10, {bad}"}.get(key, bad)
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"kind": "eos", key: text})
        assert err.value.field == key

    @pytest.mark.parametrize("key, text", [("mass", "-1"), ("c", "0"), ("dimension", "0"),
                                           ("extent", "-4"), ("seed", "-3")])
    def test_out_of_domain_names_key(self, key, text):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"kind": "eos", key: text})
        assert err.value.field == key

    @pytest.mark.parametrize("kind, key, text", [("gf", "dimension", "3"), ("ldp", "dimension", "2"),
                                                 ("modes", "dimension", "4"), ("kernel", "dimension", "2"),
                                                 ("kac", "dimension", "2"), ("kac", "statistics", "FD")])
    def test_unsupported_setting_names_key(self, kind, key, text):
        raw = {"kind": kind, "statistics": "BE", "mu": "-1", "dimension": "3", "lambda": "0.5",
               "interval": "0.1, 0.2", "sizes": "10"}
        with pytest.raises(ConfigError) as err:
            config_from_mapping(dict(raw, **{key: text}))
        assert err.value.field == key

    def test_repeated_key_names_key_and_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("mu = 0\n# comment\nmu = -1\n")
        assert err.value.field == "mu"
        assert "line 3" in err.value.reason


@pytest.fixture(scope="module")
def gf_record(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("gf")
    cfg = load_config(write_cfg(tmp, GF_CFG))
    return cfg, run_experiment(cfg, out_dir=str(tmp), formats=("csv", "json")), tmp


class TestRecords:
    def test_rows_and_pass(self, gf_record):
        _, record, _ = gf_record
        assert len(record.results) == 3
        assert record.passed

    def test_gap_ratios_near_half(self, gf_record):
        _, record, _ = gf_record
        ratios = record.summary["ratios"]
        assert all(0.3 <= r <= 0.8 for r in ratios)

    def test_determinism_byte_identical(self, gf_record):
        cfg, record, _ = gf_record
        again = run_experiment(cfg)
        blob1 = json.dumps(record.numeric_payload(), sort_keys=True)
        blob2 = json.dumps(again.numeric_payload(), sort_keys=True)
        assert blob1 == blob2

    def test_json_round_trip(self, gf_record):
        _, record, tmp = gf_record
        with open(tmp / "gf.json") as fh:
            payload = json.load(fh)
        assert payload["config"] == record.numeric_payload()["config"]
        assert payload["results"] == record.numeric_payload()["results"]
        assert "timings" in payload

    def test_csv_schema(self, gf_record):
        _, record, tmp = gf_record
        lines = (tmp / "gf.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "# columns: L,value,target,gap"
        assert lines[2] == "L,value,target,gap"
        assert len(lines) == 3 + len(record.results)

    def test_no_tmp_leftover(self, gf_record):
        _, _, tmp = gf_record
        assert not [p for p in os.listdir(tmp) if p.endswith(".tmp")]


class TestEmission:
    def test_empty_sweep_header_only(self, tmp_path):
        record = ExperimentRecord(
            config={"kind": "ldp"}, results=[], summary={"passed": True}
        )
        emit(record, tmp_path, formats=("csv", "json"))
        lines = (tmp_path / "ldp.csv").read_text().splitlines()
        assert lines[-1] == ""  # header block only, no data rows
        with open(tmp_path / "ldp.json") as fh:
            payload = json.load(fh)
        assert payload["results"] == []

    def test_atomic_on_failure(self, tmp_path):
        record = ExperimentRecord(
            config={"kind": "eos"},
            results=[{"bad": object()}],  # not serializable
            summary={},
        )
        with pytest.raises(TypeError):
            emit(record, tmp_path, formats=("json",))
        assert not (tmp_path / "eos.json").exists()

    def test_ldp_csv_columns_match_contract(self, tmp_path):
        cfg = ExperimentConfig(
            kind="ldp", statistics=FD, dispersion="nonrelativistic", mass=0.5,
            dimension=1, beta=1.0, mu=0.0, interval=(0.25, 0.30),
            sizes=(10.0, 20.0), h=0.05,
        )
        record = run_experiment(cfg, out_dir=str(tmp_path), formats=("csv",))
        header = (tmp_path / "ldp.csv").read_text().splitlines()[2]
        assert header == (
            "L,log_prob_rate,target_f,gap,chebyshev_bound,bound_satisfied"
        )
        assert record.summary["bounds_hold"]


    def test_concurrent_atomic_writes(self, tmp_path):
        path = str(tmp_path / "shared.json")
        payloads = {f"writer {t} call {i}\n" * 200 for t in range(8) for i in range(25)}
        errors = []

        def writer(t):
            try:
                for i in range(25):
                    atomic_write(path, f"writer {t} call {i}\n" * 200)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert not errors
        with open(path) as fh:
            assert fh.read() in payloads
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    @pytest.mark.parametrize("umask", [0o077, 0o027, 0o002], ids=["077", "027", "002"])
    def test_atomic_write_applies_the_current_umask(self, tmp_path, umask):
        previous = os.umask(umask)
        try:
            atomic_write(str(tmp_path / "atomic.txt"), "text\n")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("text\n")
        finally:
            os.umask(previous)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("atomic.txt", "plain.txt")]
        assert modes == [0o666 & ~umask] * 2


class TestKacPassRule:
    def test_passes_at_box_location(self):
        cfg = ExperimentConfig(
            kind="kac", statistics=BE, dispersion="nonrelativistic", mass=1.0,
            dimension=3, beta=1.0, mu=-1.0, sizes=(12.0, 16.0), samples=10_000,
            tolerance=0.05, seed=3,
        )
        record = run_experiment(cfg)
        last = record.results[-1]
        # the limiting-law distance carries the O(1/ell) location offset
        assert last["ks_distance"] > 0.05
        assert last["ks_box"] <= 0.05
        assert record.passed


BE_BOX_CFG = """
    statistics = BE
    dispersion = nonrelativistic
    mass = 1.0
    dimension = 3
    beta = 1.0
    mu = -1.0
    tolerance = 0.05
    seed = 7
"""


class TestThreading:
    @staticmethod
    def payloads(tmp_path, monkeypatch, body):
        """The numeric payloads of one config run at LDGAS_THREADS = 1 and 4."""
        cfg = load_config(write_cfg(tmp_path, body))
        out = []
        for threads in ("1", "4"):
            monkeypatch.setenv("LDGAS_THREADS", threads)
            out.append(json.dumps(run_experiment(cfg).numeric_payload()))
        return out

    def test_thread_count_does_not_change_results(self, tmp_path, monkeypatch):
        one, four = self.payloads(tmp_path, monkeypatch, GF_CFG)
        assert one == four

    @pytest.mark.parametrize("kind", [
        # box laws at lam = 0, from the power sums alone
        "kind = modes\nsizes = 8, 10, 12, 16\ninterval = 0.028, 0.032\n",
        # sample_NV's group laws near condensation, heavy shells convolved on
        "kind = kac\nsizes = 8, 10, 12\nsamples = 2000\n",
    ], ids=["modes", "kac"])
    def test_thread_count_does_not_change_box_results(self, tmp_path, monkeypatch, kind):
        one, four = self.payloads(tmp_path, monkeypatch, BE_BOX_CFG + kind)
        assert one == four


class TestSweepPool:
    """The ``LDGAS_THREADS`` pool: one per process and thread count, with the
    calling thread running entries beside its n - 1 threads."""

    def test_threaded_sweeps_share_one_executor(self, monkeypatch):
        made = []

        class Counted(harness.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(harness, "_POOLS", {})
        monkeypatch.setattr(harness, "ThreadPoolExecutor", Counted)
        monkeypatch.setenv("LDGAS_THREADS", "3")
        try:
            for _ in range(2):
                assert harness._sweep(lambda i, size: 2 * size, (1.0, 2.0, 3.0)) == [2.0, 4.0, 6.0]
            assert len(made) == 1
        finally:
            for pool in made:
                pool.shutdown()

    @pytest.mark.parametrize("threads", [2, 3])
    def test_at_most_n_entries_run_at_once(self, monkeypatch, threads):
        monkeypatch.setenv("LDGAS_THREADS", str(threads))
        lock = threading.Lock()
        active, peak, runners = [0], [0], set()

        def fn(i, size):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                runners.add(threading.current_thread())
            time.sleep(0.01)
            with lock:
                active[0] -= 1
            return i, size

        sizes = tuple(float(s) for s in range(12))
        assert harness._sweep(fn, sizes) == list(enumerate(sizes))
        assert peak[0] <= threads and len(runners) <= threads
        assert threading.current_thread() in runners  # the caller takes its share

    @pytest.mark.parametrize("first", ["caller", "pool"])
    def test_lowest_index_exception_after_started_entries_finish(self, monkeypatch, first):
        monkeypatch.setenv("LDGAS_THREADS", "2")
        caller = threading.current_thread()
        both_running = threading.Barrier(2, timeout=10)
        started, finished = {}, {}

        def fn(i, size):
            where = "caller" if threading.current_thread() is caller else "pool"
            started[i], finished[i] = where, threading.Event()
            if i < 2:  # one thread cannot hold both: the first two entries run side by side
                both_running.wait()
            if where != first:
                time.sleep(0.05)  # still running when the first thread's entry raises
            finished[i].set()
            if i < 2:
                raise ValueError(i)
            return size

        with pytest.raises(ValueError) as err:
            harness._sweep(fn, tuple(float(s) for s in range(6)))
        assert set(started.values()) == {"caller", "pool"}
        assert sorted(started) == [0, 1]  # no entry starts after one has raised
        assert err.value.args == (0,)  # whichever thread raised first
        assert all(event.is_set() for event in finished.values())

    def test_forked_child_makes_its_own_pool(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LDGAS_THREADS", "2")
        cfg = load_config(write_cfg(tmp_path, GF_CFG))
        want = json.dumps(run_experiment(cfg).numeric_payload())
        assert (os.getpid(), 2) in harness._POOLS

        def child():
            payload = json.dumps(run_experiment(cfg).numeric_payload())
            names = harness._sweep(lambda i, size: time.sleep(0.01) or threading.current_thread().name,
                                   tuple(float(s) for s in range(8)))
            queue.put((payload, any(name.startswith("ldgas-sweep") for name in names)))

        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        process = context.Process(target=child)
        process.start()
        try:
            payload, pool_ran = queue.get(timeout=60)
            process.join(timeout=60)
            assert not process.is_alive() and process.exitcode == 0
        finally:
            if process.is_alive():
                process.kill()
        assert payload == want and pool_ran


class TestCli:
    def test_pass_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, GF_CFG)
        assert main(["gf", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_tolerance_failure_exit_one(self, tmp_path):
        body = GF_CFG.replace("tolerance = 0.02", "tolerance = 1e-9")
        cfg = write_cfg(tmp_path, body)
        assert main(["gf", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_config_error_exit_two(self, tmp_path):
        cfg = write_cfg(tmp_path, "kind = eos\nstatistics = BE\nmu = 0.1\n")
        assert main(["eos", "--config", cfg]) == 2

    def test_bad_number_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "kind = rate\ninterval = 0.2, x\n")
        assert main(["rate", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: interval: ")

    @pytest.mark.parametrize("rows", [None, "0\n1\n2\n3\n"], ids=["missing", "one_column"])
    def test_bad_table_exit_two(self, tmp_path, capsys, rows):
        table = tmp_path / "eps.txt"
        if rows is not None:  # one column, no energies
            table.write_text(rows)
        cfg = write_cfg(tmp_path, f"kind = eos\ndispersion = table\ntable = {table}\n")
        assert main(["eos", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: table: ")

    @pytest.mark.parametrize("kind, body, key", [
        ("gf", GF_CFG.replace("lambda = 0.5", "lambda = 0"), "lambda"),
        ("gf", GF_CFG.replace("statistics = FD", "statistics = BE").replace(
            "mu = 0.0", "mu = -0.5").replace("lambda = 0.5", "lambda = 0.7"), "lambda"),
        ("kernel", "kind = kernel\nh = 0.05\nsizes = 40.01\n", "sizes"),
        ("kernel", "kind = kernel\nh = 0.05\nsizes = 0.2\n", "sizes"),
        ("kernel", "kind = kernel\nstatistics = FD\ndimension = 1\nh = 5\n", "h"),
    ], ids=["gf_zero_lambda", "gf_be_lambda_beyond_minus_mu", "kernel_off_grid", "kernel_too_few_points",
            "kernel_default_extent_too_few_points"])
    def test_unscorable_setting_exit_two(self, tmp_path, capsys, kind, body, key):
        cfg = write_cfg(tmp_path, body)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / f"{kind}.json").exists()

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["eos", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = write_cfg(tmp_path, GF_CFG)
        assert main(["eos", "--config", cfg]) == 2

    @pytest.mark.parametrize("kind, dimension", [("gf", 3), ("modes", 4)])
    def test_unsupported_dimension_exit_two(self, tmp_path, capsys, kind, dimension):
        body = GF_CFG.replace("kind = gf", f"kind = {kind}").replace(
            "dimension = 1", f"dimension = {dimension}")
        cfg = write_cfg(tmp_path, body)
        assert main([kind, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: dimension: ")
        assert not (tmp_path / f"{kind}.json").exists()

    def test_internal_error_exit_three(self, tmp_path, monkeypatch):
        fail_mid_sweep(monkeypatch)
        cfg = write_cfg(tmp_path, GF_CFG)
        assert main(["gf", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_seed_override(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            """
            kind = kac
            statistics = BE
            dispersion = nonrelativistic
            mass = 1.0
            dimension = 3
            beta = 1.0
            mu = -1.0
            sizes = 6
            samples = 200
            tolerance = 0.9
            seed = 1
            """,
        )
        assert main(["kac", "--config", cfg, "--out", str(tmp_path), "--seed", "2"]) == 0
        with open(tmp_path / "kac.json") as fh:
            payload = json.load(fh)
        assert payload["config"]["seed"] == 2

    def test_negative_seed_exit_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BE_BOX_CFG + "kind = kac\nsizes = 6\nsamples = 200\n")
        assert main(["kac", "--config", cfg, "--out", str(tmp_path), "--seed", "-3"]) == 2
        assert capsys.readouterr().err.startswith("config error: seed: ")
        assert not (tmp_path / "kac.json").exists()

    def test_failure_marker_persisted(self, tmp_path, monkeypatch):
        fail_mid_sweep(monkeypatch)
        cfg = write_cfg(tmp_path, GF_CFG)
        main(["gf", "--config", cfg, "--out", str(tmp_path)])
        with open(tmp_path / "gf.json") as fh:
            payload = json.load(fh)
        assert payload["failure"] is not None
