import dataclasses
import json
import math
import os
import sys
import textwrap
import threading

import numpy as np
import pytest

from ldgas.cli import main
from ldgas.errors import ConfigError
from ldgas.export import atomic_write
from ldgas.harness import (
    ExperimentConfig,
    ExperimentRecord,
    config_from_mapping,
    emit,
    load_config,
    parse_config,
    run_experiment,
)
from ldgas.thermo import BE, FD

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


def test_clt_variance_target_computed_once(monkeypatch):
    from ldgas import counting, thermo

    calls = []
    original = thermo.translated_pressure

    def counted(lam, state, disp, order=0, tol=1e-10):
        calls.append(order)
        return original(lam, state, disp, order=order, tol=tol)

    monkeypatch.setattr(thermo, "translated_pressure", counted)
    monkeypatch.setattr(counting, "translated_pressure", counted)
    cfg = config_from_mapping({"kind": "clt", "statistics": "FD", "dispersion": "nonrelativistic",
                               "mass": "0.5", "dimension": "1", "beta": "1.0", "mu": "0.0",
                               "h": "0.05", "extent": "160.0", "sizes": "10, 20, 40"})
    record = run_experiment(cfg)
    assert len(record.results) == 3
    assert calls == [2]
    target = original(0.0, cfg.build_state(), cfg.build_dispersion(), order=2) / cfg.beta
    assert {row["c2_target"] for row in record.results} == {target}


@pytest.mark.parametrize("interval", ["0.25, 0.30", "0.05, 0.10", "0.10, 0.30"])
def test_rate_experiment_solves_each_end_once(monkeypatch, interval):
    from ldgas import rate

    calls = []
    original = rate.rate_value

    def counted(x, ctx):
        calls.append(x)
        return original(x, ctx)

    cfg = config_from_mapping({"kind": "rate", "statistics": "FD", "dispersion": "nonrelativistic",
                               "mass": "0.5", "dimension": "1", "beta": "1.0", "mu": "0.0",
                               "interval": interval})
    ctx = rate.RateContext.build(cfg.build_state(), cfg.build_dispersion(), cfg.quad_tol)
    expected = rate.interval_rate(*cfg.interval, ctx)
    monkeypatch.setattr(rate, "rate_value", counted)
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
            "kind": ("gf", "gf"), "statistics": ("be", BE), "dispersion": ("table", "table"),
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
                                           ("extent", "-4")])
    def test_out_of_domain_names_key(self, key, text):
        with pytest.raises(ConfigError) as err:
            config_from_mapping({"kind": "eos", key: text})
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
        payload = json.load(open(tmp / "gf.json"))
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
        payload = json.load(open(tmp_path / "ldp.json"))
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


class TestThreading:
    def test_thread_count_does_not_change_results(self, tmp_path, monkeypatch):
        cfg = load_config(write_cfg(tmp_path, GF_CFG))
        monkeypatch.setenv("LDGAS_THREADS", "1")
        one = run_experiment(cfg)
        monkeypatch.setenv("LDGAS_THREADS", "4")
        four = run_experiment(cfg)
        assert json.dumps(one.numeric_payload()) == json.dumps(four.numeric_payload())


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

    def test_missing_file_exit_two(self, tmp_path):
        assert main(["eos", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = write_cfg(tmp_path, GF_CFG)
        assert main(["eos", "--config", cfg]) == 2

    def test_internal_error_exit_three(self, tmp_path):
        # interval longer than the kernel extent -> domain error inside the sweep
        body = GF_CFG.replace("sizes = 10, 20, 40", "extent = 30\n    sizes = 10, 40")
        cfg = write_cfg(tmp_path, body)
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
        payload = json.load(open(tmp_path / "kac.json"))
        assert payload["config"]["seed"] == 2

    def test_failure_marker_persisted(self, tmp_path):
        body = GF_CFG.replace("sizes = 10, 20, 40", "extent = 30\n    sizes = 10, 40")
        cfg = write_cfg(tmp_path, body)
        main(["gf", "--config", cfg, "--out", str(tmp_path)])
        payload = json.load(open(tmp_path / "gf.json"))
        assert payload["failure"] is not None
