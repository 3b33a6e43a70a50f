import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qelmsim import cli, harness
from qelmsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    config_digest,
    emit_records,
    main,
    parse_config,
)
from qelmsim.harness import ConfigError, ExperimentRecord, SweepConfig
from qelmsim.qelm import ShotMode, ShotModel
from qelmsim.harness import run_time_sweep


TINY_CONFIG = {
    "n_reservoir": 2,
    "topologies": ["C"],
    "schemes": ["SL"],
    "time_grid": [0.0, 1.0],
    "n_realizations": 2,
    "n_train": 6,
    "n_test": 6,
    "shot_model": {"mode": "joint_bitstrings", "shots": 100},
    "master_seed": 5,
}


CSV_TABLES = ("records.csv", "aggregates.csv", "holevo_nodes.csv")


def _cell(name, text):
    """One records.csv cell as the record field it was written from."""
    if name in ("realization_index", "n_reservoir", "seed"):
        return int(text)
    if name in ("topology", "scheme"):
        return text
    return None if text == "" else float(text)


def read_records_csv(path) -> list:
    """records.csv back as ExperimentRecords, chi_node_* cells gathered per record."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    records = []
    for row in rows:
        nodes = tuple(float(v) for k, v in row.items() if k.startswith("chi_node_") and v != "")
        fields = {k: _cell(k, v) for k, v in row.items() if not k.startswith("chi_node_")}
        records.append(ExperimentRecord(**fields, holevo_per_node=nodes or None))
    return records


def read_records_json(path) -> list:
    with open(path) as fh:
        items = json.load(fh)
    for item in items:
        if item["holevo_per_node"] is not None:
            item["holevo_per_node"] = tuple(item["holevo_per_node"])
    return [ExperimentRecord(**item) for item in items]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseConfig:
    def test_empty_file_gives_full_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        cfg = parse_config(str(path))
        assert cfg == SweepConfig()
        assert cfg.sizes == (7,)
        assert cfg.n_realizations == 500
        assert cfg.shot_model == ShotModel(ShotMode.JOINT_BITSTRINGS, 10**6)

    def test_none_path_gives_defaults(self):
        assert parse_config(None) == SweepConfig()

    def test_repeated_time_rejected_naming_field(self, tmp_path):
        path = write_config(tmp_path, {"time_grid": [0.0, 1.0, 1.0]})
        with pytest.raises(ConfigError, match="time_grid"):
            parse_config(path)

    def test_unknown_key_strict_vs_lax(self, tmp_path):
        path = write_config(tmp_path, {"n_qubits": 7})
        with pytest.raises(ConfigError, match="n_qubits"):
            parse_config(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cfg = parse_config(path, strict=False)
        assert any("n_qubits" in str(w.message) for w in caught)
        assert cfg == SweepConfig()

    def test_time_grid_object_form(self, tmp_path):
        path = write_config(tmp_path, {"time_grid": {"start": 0.0, "stop": 2.0, "points": 5}})
        cfg = parse_config(path)
        assert cfg.time_grid == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_shot_model_string_form(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, {"shot_model": "exact"}))
        assert cfg.shot_model.mode is ShotMode.EXACT

    def test_invalid_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(str(path))

    def test_out_of_range_value_names_field(self, tmp_path):
        path = write_config(tmp_path, {"n_realizations": 0})
        with pytest.raises(ConfigError, match="n_realizations"):
            parse_config(path)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ({"n_reservoir": True}, "n_reservoir"),
            ({"n_reservoir": [2, True]}, "n_reservoir"),
            ({"n_reservoir": [2.5]}, "n_reservoir"),
            ({"n_realizations": True}, "n_realizations"),
            ({"n_train": True}, "n_train"),
            ({"n_test": False}, "n_test"),
            ({"master_seed": False}, "master_seed"),
            ({"shot_model": {"shots": True}}, "shots"),
            ({"shot_model": {"shots": 2.5}}, "shots"),
            ({"shot_model": {"shots": None}}, "shot_model"),
            ({"time_grid": {"start": 0, "stop": 1, "points": 2.9}}, "points"),
            ({"time_grid": {"start": 0, "stop": 1, "points": True}}, "points"),
            ({"time_grid": {"start": False, "stop": 1, "points": 2}}, "time_grid"),
            ({"time_grid": [False, True]}, "time_grid"),
            ({"rcond": True}, "rcond"),
            ({"j_range": [False, True]}, "j_range"),
            ({"delta_range": [0, True]}, "delta_range"),
            ({"include_haar_baseline": "false"}, "include_haar_baseline"),
            ({"include_haar_baseline": 0.5}, "include_haar_baseline"),
            ({"bias_row": "no"}, "bias_row"),
            ({"bias_row": 1}, "bias_row"),
            ({"n_reservoir": [2, 2]}, "n_reservoir"),
            ({"rcond": "abc"}, "rcond"),
            ({"rcond": [1]}, "rcond"),
            ({"time_grid": ["a"]}, "time_grid"),
            ({"j_range": ["a", 1]}, "j_range"),
            ({"topologies": 5}, "topologies"),
            ({"metrics": 5}, "metrics"),
            ({"metrics": "mse"}, "metrics"),
            ({"shot_model": "bogus"}, "shot_model"),
            ({"j_range": {}}, "j_range"),
            ({"delta_range": {"lo": 0, "hi": 1}}, "delta_range"),
            ({"time_grid": ["1.0"]}, "time_grid"),
            ({"time_grid": {"start": "0", "stop": 1, "points": 2}}, "time_grid"),
            ({"time_grid": {"start": 0, "stop": "1", "points": 2}}, "time_grid"),
            ({"j_range": ["1", "2"]}, "j_range"),
            ({"j_range": "12"}, "j_range"),
            ({"j_range": [0, 1, 2]}, "j_range"),
            ({"delta_range": ["0", "0.1"]}, "delta_range"),
            ({"delta_range": "01"}, "delta_range"),
            ({"delta_range": [0, 0.1, 0.2]}, "delta_range"),
            ({"n_reservoir": 10**30}, "cap"),
            ({"shot_model": {"shots": 1e20}}, "shots"),
            ({"shot_model": {"mode": "binomial", "shots": 2**63}}, "shots"),
        ],
    )
    def test_booleans_and_fractional_counts_rejected(self, tmp_path, payload, field):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=field):
            parse_config(path)
        assert main(["sweep-time", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_integral_float_shots_and_points_accepted(self, tmp_path):
        payload = {"shot_model": {"shots": 1e6}, "time_grid": {"start": 0, "stop": 5, "points": 41.0}}
        assert parse_config(write_config(tmp_path, payload)) == SweepConfig()

    def test_overlay_fills_missing_keys_only(self, tmp_path):
        path = write_config(tmp_path, {"time_grid": [1.0, 2.0]})
        cfg = parse_config(path, overlay={"time_grid": [9.0], "n_realizations": 3})
        assert cfg.time_grid == (1.0, 2.0)
        assert cfg.n_realizations == 3

    def test_digest_stable_and_sensitive(self):
        a = SweepConfig(master_seed=1)
        b = SweepConfig(master_seed=1)
        c = SweepConfig(master_seed=2)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)
        assert config_digest(SweepConfig(master_seed=1, log_base=2.0)) == config_digest(a)

    def test_shipped_configs_parse(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        full = parse_config(root / "full-scale.json")
        assert full.n_realizations == 500
        assert full.shot_model.shots == 10**6
        assert len(full.time_grid) == 41
        assert full.include_haar_baseline
        quick = parse_config(root / "quick.json")
        assert quick.n_realizations == 20


class TestEmitRecords:
    def run_tiny(self):
        cfg = parse_config(None, overlay=TINY_CONFIG)
        return cfg, run_time_sweep(cfg)

    def test_csv_row_count_and_roundtrip(self, tmp_path):
        cfg, out = self.run_tiny()
        manifest = emit_records(out.records, "csv", tmp_path, config=cfg)
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == len(out.records) + 1  # header + one row per record
        assert manifest.record_count == 4 and manifest.failure_count == 0
        assert manifest.record_count + manifest.failure_count == harness.expected_record_count(
            cfg, "sweep-time"
        )
        parsed = read_records_csv(tmp_path / "records.csv")
        assert parsed == list(out.records)

    def test_json_roundtrip_matches_csv(self, tmp_path):
        cfg, out = self.run_tiny()
        emit_records(out.records, "json", tmp_path / "j", config=cfg)
        emit_records(out.records, "csv", tmp_path / "c", config=cfg)
        from_json = read_records_json(tmp_path / "j" / "records.json")
        from_csv = read_records_csv(tmp_path / "c" / "records.csv")
        assert from_json == from_csv == list(out.records)

    def test_csv_bodies_bit_identical_across_runs(self, tmp_path):
        cfg, out1 = self.run_tiny()
        _, out2 = self.run_tiny()
        emit_records(out1.records, "csv", tmp_path / "a", config=cfg)
        emit_records(out2.records, "csv", tmp_path / "b", config=cfg)
        for name in ("records.csv", "aggregates.csv", "holevo_nodes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seventeen_significant_digits(self, tmp_path):
        cfg, out = self.run_tiny()
        emit_records(out.records, "csv", tmp_path, config=cfg)
        parsed = read_records_csv(tmp_path / "records.csv")
        for before, after in zip(out.records, parsed):
            assert after.mse == before.mse  # exact float round-trip

    def test_rejects_empty_emission(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to emit"):
            emit_records([], "csv", tmp_path)

    def test_manifest_fields(self, tmp_path):
        cfg, out = self.run_tiny()
        emit_records(out.records, "csv", tmp_path, config=cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_digest"] == config_digest(cfg)
        assert manifest["tool_version"]
        assert manifest["record_count"] == len(out.records)


class TestCommands:
    def test_single_run_zero_time(self, capsys):
        code = main(
            [
                "single-run",
                "--topology",
                "C",
                "--scheme",
                "SL",
                "--n-reservoir",
                "2",
                "--time",
                "0",
                "--seed",
                "3",
                "--shot-mode",
                "exact",
            ]
        )
        assert code == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert abs(record["otoc_avg"]) <= 1e-12
        assert record["mse"] > 0.1

    def test_sweep_time_writes_outputs(self, tmp_path):
        config_path = write_config(tmp_path, TINY_CONFIG)
        out_dir = tmp_path / "out"
        code = main(["sweep-time", "--config", config_path, "--out", str(out_dir)])
        assert code == EXIT_OK
        assert (out_dir / "records.csv").exists()
        assert (out_dir / "aggregates.csv").exists()
        assert (out_dir / "manifest.json").exists()

    def test_threads_flag_reproduces_serial_output(self, tmp_path):
        config_path = write_config(tmp_path, TINY_CONFIG)
        out_serial, out_parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep-time", "--config", config_path, "--out", str(out_serial)]) == EXIT_OK
        assert (
            main(
                ["sweep-time", "--config", config_path, "--out", str(out_parallel), "--threads", "2"]
            )
            == EXIT_OK
        )
        for name in CSV_TABLES:
            assert (out_serial / name).read_bytes() == (out_parallel / name).read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, threads):
        config_path = write_config(tmp_path, TINY_CONFIG)
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-time", "--config", config_path, "--out", str(tmp_path / "o"), "--threads", threads])
        assert excinfo.value.code == EXIT_USAGE

    def test_csv_bodies_independent_of_blas_threads(self, tmp_path):
        # Four N=6 records: enough for 2 OpenBLAS threads to sum the
        # propagator and OTOC products in another order than 1 thread does.
        payload = dict(TINY_CONFIG, n_reservoir=6, topologies=["FC"], schemes=["ML"], time_grid=[0.5, 5.0])
        config_path = write_config(tmp_path, payload)
        src = Path(cli.__file__).resolve().parent.parent
        outs = []
        for blas in ("1", "2"):
            out = tmp_path / f"blas{blas}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=str(src))
            done = subprocess.run(
                [sys.executable, "-m", "qelmsim", "sweep-time", "--config", config_path, "--out", str(out)],
                env=env,
                capture_output=True,
                timeout=300,
            )
            assert done.returncode == EXIT_OK, done.stderr.decode()
            outs.append(out)
        for name in CSV_TABLES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_sweep_size_defaults(self, tmp_path):
        # without explicit keys the size sweep covers 2..7 at t in {0.25, 5};
        # sizes below 3 leave the ring out of the default topologies
        def load(*argv):
            return cli._load_sweep_config(cli._build_parser().parse_args(["sweep-size", *argv]), "sweep-size")

        with pytest.raises(ConfigError, match="topologies"):
            load()
        cfg = load("--config", write_config(tmp_path, {"topologies": ["C", "FC"]}))
        assert cfg.sizes == (2, 3, 4, 5, 6, 7)
        assert cfg.time_grid == (0.25, 5.0)

    def test_sweep_size_run_and_partial_failure_exit(self, tmp_path, monkeypatch):
        original = harness.sample_hamiltonian

        def failing_at_two(spec):
            if spec.n_reservoir == 2:
                raise ValueError("synthetic set-up failure")
            return original(spec)

        monkeypatch.setattr(harness, "sample_hamiltonian", failing_at_two)
        payload = dict(TINY_CONFIG)
        payload["n_reservoir"] = [2, 3]
        config_path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        code = main(["sweep-size", "--config", config_path, "--out", str(out_dir)])
        assert code == EXIT_PARTIAL
        assert (out_dir / "failures.csv").exists()
        failures = (out_dir / "failures.csv").read_text().splitlines()
        # header + (2 realizations x 2 grid times) of the failed n=2 units
        assert len(failures) == 1 + 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["--topology", "C", "--shots", str(10**20)],
            ["--topology", "R"],
            ["--topology", "C", "--metrics", ""],
        ],
        ids=["shots-overflow", "ring-below-three", "empty-metrics"],
    )
    def test_single_run_config_error_exit_code(self, argv, capsys):
        assert main(["single-run", "--scheme", "SL", "--n-reservoir", "2", *argv]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""

    def test_baseline_haar_and_metric_restriction(self, tmp_path):
        config_path = write_config(tmp_path, TINY_CONFIG)
        out_dir = tmp_path / "out"
        code = main(
            [
                "baseline-haar",
                "--config",
                config_path,
                "--out",
                str(out_dir),
                "--metrics",
                "mse,otoc",
            ]
        )
        assert code == EXIT_OK
        records = read_records_csv(out_dir / "records.csv")
        assert len(records) == 2
        for r in records:
            assert r.topology == "RU" and r.time is None
            assert r.mse is not None and r.otoc_avg is not None
            assert r.holevo_avg is None and r.condition_number is None

    def test_include_haar_baseline_merges(self, tmp_path):
        payload = dict(TINY_CONFIG)
        payload["include_haar_baseline"] = True
        config_path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert main(["sweep-time", "--config", config_path, "--out", str(out_dir)]) == EXIT_OK
        records = read_records_csv(out_dir / "records.csv")
        assert sum(1 for r in records if r.topology == "RU") == 2
        assert len(records) == harness.expected_record_count(
            parse_config(config_path), "sweep-time"
        )

    def test_config_error_exit_code(self, tmp_path):
        config_path = write_config(tmp_path, {"time_grid": [1.0, 1.0]})
        assert main(["sweep-time", "--config", config_path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-time", "--format", "xml"])
        assert excinfo.value.code == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / "envout"))
        config_path = write_config(tmp_path, TINY_CONFIG)
        assert main(["sweep-time", "--config", config_path]) == EXIT_OK
        assert (tmp_path / "envout" / "records.csv").exists()

    def test_seed_override_changes_digest(self, tmp_path):
        config_path = write_config(tmp_path, TINY_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["sweep-time", "--config", config_path, "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep-time", "--config", config_path, "--out", str(out_b), "--seed", "99"]) == EXIT_OK
        man_a = json.loads((out_a / "manifest.json").read_text())
        man_b = json.loads((out_b / "manifest.json").read_text())
        assert man_a["config_digest"] != man_b["config_digest"]

    def test_cli_rerun_byte_identical_csv(self, tmp_path):
        config_path = write_config(tmp_path, TINY_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep-time", "--config", config_path, "--out", str(out_a)]) == EXIT_OK
        assert main(["sweep-time", "--config", config_path, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "records.csv").read_bytes() == (out_b / "records.csv").read_bytes()
        assert (out_a / "aggregates.csv").read_bytes() == (out_b / "aggregates.csv").read_bytes()


class TestEmissionFormat:
    """Exact text of every table ``emit_records`` writes, from hand-built records."""

    RECORDS = [
        harness.ExperimentRecord(0, "C", "SL", 2, 0.0, 11, 0.1, 2.5, 0.0, 0.25, (0.5, 0.0)),
        harness.ExperimentRecord(1, "C", "SL", 2, 0.0, 12, 0.3, 4.0, 0.125, 0.5, (0.75, 0.25)),
        harness.ExperimentRecord(0, "FC", "ML", 3, 1.5, 13, None, float("inf"), 0.5, 1 / 3, (0.1, 0.2, 0.3)),
        harness.ExperimentRecord(0, "RU", "RU", 2, None, 14, 0.2, 3.0, 0.75, None, None),
    ]
    FAILURES = [
        harness.UnitFailure(1, "R", "SL", 2, 1.5, "ValueError: ring needs at least 3 sites"),
        harness.UnitFailure(1, "RU", "RU", 3, None, 'LinAlgError: eigh failed, "twice"'),
    ]

    RECORDS_CSV = (
        "realization_index,topology,scheme,n_reservoir,time,seed,mse,condition_number,otoc_avg,"
        "holevo_avg,chi_node_0,chi_node_1,chi_node_2\n"
        "0,C,SL,2,0,11,0.10000000000000001,2.5,0,0.25,0.5,0,\n"
        "1,C,SL,2,0,12,0.29999999999999999,4,0.125,0.5,0.75,0.25,\n"
        "0,FC,ML,3,1.5,13,,inf,0.5,0.33333333333333331,"
        "0.10000000000000001,0.20000000000000001,0.29999999999999999\n"
        "0,RU,RU,2,,14,0.20000000000000001,3,0.75,,,,\n"
    )
    AGGREGATES_CSV = (
        "topology,scheme,n_reservoir,time,metric,n,median,q1,q3\n"
        "C,SL,2,0,mse,2,0.20000000000000001,0.14999999999999999,0.25\n"
        "C,SL,2,0,condition_number,2,3.25,2.875,3.625\n"
        "C,SL,2,0,otoc_avg,2,0.0625,0.03125,0.09375\n"
        "C,SL,2,0,holevo_avg,2,0.375,0.3125,0.4375\n"
        "FC,ML,3,1.5,condition_number,1,inf,inf,inf\n"
        "FC,ML,3,1.5,otoc_avg,1,0.5,0.5,0.5\n"
        "FC,ML,3,1.5,holevo_avg,1,0.33333333333333331,0.33333333333333331,0.33333333333333331\n"
        "RU,RU,2,,mse,1,0.20000000000000001,0.20000000000000001,0.20000000000000001\n"
        "RU,RU,2,,condition_number,1,3,3,3\n"
        "RU,RU,2,,otoc_avg,1,0.75,0.75,0.75\n"
    )
    HOLEVO_NODES_CSV = (
        "topology,scheme,n_reservoir,time,node,n,median,q1,q3\n"
        "C,SL,2,0,0,2,0.625,0.5625,0.6875\n"
        "C,SL,2,0,1,2,0.125,0.0625,0.1875\n"
        "FC,ML,3,1.5,0,1,0.10000000000000001,0.10000000000000001,0.10000000000000001\n"
        "FC,ML,3,1.5,1,1,0.20000000000000001,0.20000000000000001,0.20000000000000001\n"
        "FC,ML,3,1.5,2,1,0.29999999999999999,0.29999999999999999,0.29999999999999999\n"
    )
    FAILURES_CSV = (
        "realization_index,topology,scheme,n_reservoir,time,error\n"
        "1,R,SL,2,1.5,ValueError: ring needs at least 3 sites\n"
        '1,RU,RU,3,,"LinAlgError: eigh failed, ""twice"""\n'
    )

    @staticmethod
    def stat_rows(keys, key_name, stats):
        return [
            {
                "topology": k[0],
                "scheme": k[1],
                "n_reservoir": k[2],
                "time": k[3],
                key_name: k[4],
                "stats": {"median": s[0], "q1": s[1], "q3": s[2], "n": s[3]},
            }
            for k, s in zip(keys, stats)
        ]

    def emit(self, tmp_path, fmt):
        out = tmp_path / fmt
        manifest = emit_records(self.RECORDS, fmt, out, failures=self.FAILURES)
        assert (manifest.record_count, manifest.failure_count) == (4, 2)
        return out

    def test_csv_tables_exact_text(self, tmp_path):
        out = self.emit(tmp_path, "csv")
        assert (out / "records.csv").read_text() == self.RECORDS_CSV
        assert (out / "aggregates.csv").read_text() == self.AGGREGATES_CSV
        assert (out / "holevo_nodes.csv").read_text() == self.HOLEVO_NODES_CSV
        assert (out / "failures.csv").read_text() == self.FAILURES_CSV
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregates.csv",
            "failures.csv",
            "holevo_nodes.csv",
            "manifest.json",
            "records.csv",
        ]

    def test_json_tables_content(self, tmp_path):
        out = self.emit(tmp_path, "json")
        records = json.loads((out / "records.json").read_text())
        assert records == [
            {
                "realization_index": r.realization_index,
                "topology": r.topology,
                "scheme": r.scheme,
                "n_reservoir": r.n_reservoir,
                "time": r.time,
                "seed": r.seed,
                "mse": r.mse,
                "condition_number": r.condition_number,
                "otoc_avg": r.otoc_avg,
                "holevo_avg": r.holevo_avg,
                "holevo_per_node": list(r.holevo_per_node) if r.holevo_per_node else None,
            }
            for r in self.RECORDS
        ]
        aggregates = json.loads((out / "aggregates.json").read_text())
        assert aggregates == self.stat_rows(
            [
                ("C", "SL", 2, 0.0, "mse"),
                ("C", "SL", 2, 0.0, "condition_number"),
                ("C", "SL", 2, 0.0, "otoc_avg"),
                ("C", "SL", 2, 0.0, "holevo_avg"),
                ("FC", "ML", 3, 1.5, "condition_number"),
                ("FC", "ML", 3, 1.5, "otoc_avg"),
                ("FC", "ML", 3, 1.5, "holevo_avg"),
                ("RU", "RU", 2, None, "mse"),
                ("RU", "RU", 2, None, "condition_number"),
                ("RU", "RU", 2, None, "otoc_avg"),
            ],
            "metric",
            [
                (0.2, 0.15, 0.25, 2),
                (3.25, 2.875, 3.625, 2),
                (0.0625, 0.03125, 0.09375, 2),
                (0.375, 0.3125, 0.4375, 2),
                (float("inf"), float("inf"), float("inf"), 1),
                (0.5, 0.5, 0.5, 1),
                (1 / 3, 1 / 3, 1 / 3, 1),
                (0.2, 0.2, 0.2, 1),
                (3.0, 3.0, 3.0, 1),
                (0.75, 0.75, 0.75, 1),
            ],
        )
        nodes = json.loads((out / "holevo_nodes.json").read_text())
        assert nodes == self.stat_rows(
            [
                ("C", "SL", 2, 0.0, 0),
                ("C", "SL", 2, 0.0, 1),
                ("FC", "ML", 3, 1.5, 0),
                ("FC", "ML", 3, 1.5, 1),
                ("FC", "ML", 3, 1.5, 2),
            ],
            "node",
            [
                (0.625, 0.5625, 0.6875, 2),
                (0.125, 0.0625, 0.1875, 2),
                (0.1, 0.1, 0.1, 1),
                (0.2, 0.2, 0.2, 1),
                (0.3, 0.3, 0.3, 1),
            ],
        )
        assert (out / "failures.csv").read_text() == self.FAILURES_CSV
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregates.json",
            "failures.csv",
            "holevo_nodes.json",
            "manifest.json",
            "records.json",
        ]

    def test_read_back_both_formats(self, tmp_path):
        assert read_records_csv(self.emit(tmp_path, "csv") / "records.csv") == self.RECORDS
        assert read_records_json(self.emit(tmp_path, "json") / "records.json") == self.RECORDS


class TestConfigDigestPinned:
    """The digest of the resolved config is part of every manifest; it must not drift."""

    def test_default_and_shipped_configs(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        assert config_digest(SweepConfig()) == "f1fa94d5a994e58ef0a2a0a7bd580a2a54721d42991b5b6b6ff263ac096a8925"
        assert (
            config_digest(parse_config(root / "quick.json"))
            == "9f99be7cf87c5d862a1915cd0027846119cc80c86e6f40e3590f5a27524e473f"
        )
        assert (
            config_digest(parse_config(root / "full-scale.json"))
            == "ff76b8554822c1e73ee2873f06f8905f024c2c76a4bc0d5983112548af2fb884"
        )
