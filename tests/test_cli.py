import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import qelmsim
from qelmsim import _process, cli, harness
from qelmsim.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_RUNTIME,
    EXIT_USAGE,
    config_digest,
    emit_records,
    main,
    parse_config,
)
from qelmsim.harness import ConfigError, ExperimentRecord, SweepConfig
from qelmsim.qelm import ShotMode, ShotModel
from qelmsim.harness import run_time_sweep
from qelmsim.reservoir import CouplingScheme


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
# The variables OpenBLAS reads its thread count from, in its order.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
        records.append(ExperimentRecord(**fields, holevo_per_node=nodes))
    return records


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
        assert cfg.n_reservoir == (7,)
        assert cfg.n_realizations == 500
        assert cfg.shot_model == ShotModel(ShotMode.JOINT_BITSTRINGS, 10**6)

    def test_none_path_gives_defaults(self):
        assert parse_config(None) == SweepConfig()

    def test_repeated_time_rejected_naming_field(self, tmp_path):
        path = write_config(tmp_path, {"time_grid": [0.0, 1.0, 1.0]})
        with pytest.raises(ConfigError, match="time_grid"):
            parse_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"n_qubits": 7})
        with pytest.raises(ConfigError, match="n_qubits"):
            parse_config(path)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"n_reservoir": 2, "n_realizations": 1, "n_reservoir": 3}', "n_reservoir"),
            ('{"n_reservoir": 3, "shot_model": {"mode": "exact", "shots": 10, "shots": 20}}', "shots"),
        ],
        ids=["top_level", "nested"],
    )
    def test_repeated_key_rejected_before_any_output(self, tmp_path, text, key):
        path = tmp_path / "config.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
            parse_config(str(path))
        out = tmp_path / "o"
        assert main(["sweep-time", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    def test_time_grid_object_form(self, tmp_path):
        path = write_config(tmp_path, {"time_grid": {"start": 0.0, "stop": 2.0, "points": 5}})
        cfg = parse_config(path)
        assert cfg.time_grid == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_shot_model_string_form(self, tmp_path):
        # shot_model is a {mode, shots} object; a bare mode string is not one
        with pytest.raises(ConfigError, match="^shot_model: must be a {mode, shots} object, got 'exact'$"):
            parse_config(write_config(tmp_path, {"shot_model": "exact"}))
        cfg = parse_config(write_config(tmp_path, {"shot_model": {"mode": "exact"}}))
        assert cfg.shot_model == ShotModel(ShotMode.EXACT)

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
            ({"j_range": [False, True]}, "j_range"),  # not a key: the model fixes both ranges
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
            ({"metrics": ["mse"]}, "metrics"),  # not a key: every record carries every metric
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
            ({"shot_model": {"mode": "joint_bitstrings", "shots": 2**63}}, "shots"),
            ({"shot_model": {"shots": float("inf")}}, "shots"),
            ({"shot_model": {"shots": [5]}}, "shots"),
            ({"shot_model": {"shots": 10**20}}, "shots"),
            ({"n_reservoir": 2, "topologies": ["R"]}, "topologies"),
            ({"metrics": []}, "metrics"),
            # keys the config does not have, and spellings it does not take
            ({"rcond": 1e-10}, "rcond"),
            ({"bias_row": False}, "bias_row"),
            ({"shot_model": "independent_binomial"}, "shot_model"),
            ({"shot_model": "joint"}, "shot_model"),
            ({"topologies": ["chain"]}, "topologies"),
            ({"schemes": ["sl"]}, "schemes"),
            ({"metrics": ["mse", "mse"]}, "metrics"),
            # one file form per value: a list of codes, a {mode, shots}
            # object, and integer counts
            ({"topologies": "C"}, "topologies"),
            ({"schemes": "SL"}, "schemes"),
            ({"shot_model": "exact"}, "shot_model"),
            ({"shot_model": {"shots": 1e6}}, "shots"),
            ({"time_grid": {"start": 0, "stop": 5, "points": 41.0}}, "points"),
            # a key the config does not have: sweeps report Holevo information in bits
            ({"log_base": 2}, "log_base"),
            ({"shot_model": {"mode": "exact", "shot": 5}}, "shot_model: unknown keys \\['shot'\\]"),
            ([1, 2], "top-level config must be an object"),
            # the object grid is built, so its size is capped
            ({"time_grid": {"start": 0, "stop": 5, "points": 10**6 + 1}}, "points"),
            ({"time_grid": {"start": 0, "stop": 5, "points": 2**63}}, "points"),
        ],
    )
    def test_booleans_and_fractional_counts_rejected(self, tmp_path, payload, field):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError, match=field):
            parse_config(path)
        assert main(["sweep-time", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"master_seed": 1} \xff\xfe')
        with pytest.raises(ConfigError, match=re.escape(str(path))):
            parse_config(path)
        out_dir = tmp_path / "out"
        assert main(["sweep-time", "--config", str(path), "--out", str(out_dir)]) == EXIT_CONFIG
        assert not out_dir.exists()

    def test_out_naming_a_file_fails_before_any_unit_runs(self, tmp_path, monkeypatch, capsys):
        calls = []
        unit = harness._hamiltonian_unit
        monkeypatch.setattr(harness, "_hamiltonian_unit", lambda cfg, key: calls.append(key) or unit(cfg, key))
        out = tmp_path / "taken"
        out.write_text("")
        argv = ["sweep-time", "--config", write_config(tmp_path, TINY_CONFIG), "--out", str(out)]
        assert main(argv) == EXIT_RUNTIME
        assert calls == []
        assert f"cannot create output directory {out}" in capsys.readouterr().err
        assert main([*argv[:-1], str(tmp_path / "free")]) == EXIT_OK
        assert len(calls) == 2

    def test_digest_stable_and_sensitive(self):
        a = SweepConfig(master_seed=1)
        b = SweepConfig(master_seed=1)
        c = SweepConfig(master_seed=2)
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)
        same = SweepConfig(master_seed=1, n_reservoir=7, time_grid={"start": 0, "stop": 5.0, "points": 41})
        assert config_digest(same) == config_digest(a)

    def test_shipped_configs_parse(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        full = parse_config(root / "full-scale.json")
        assert full.n_realizations == 500
        assert full.shot_model.shots == 10**6
        assert len(full.time_grid) == 41
        assert full.include_haar_baseline
        quick = parse_config(root / "quick.json")
        assert quick.n_realizations == 20
        size = parse_config(root / "size-sweep.json")
        assert size.n_reservoir == (2, 3, 4, 5, 6, 7)
        assert size.schemes == (CouplingScheme.SINGLE_LINK,)
        assert size.time_grid == (0.25, 5.0)


# The start and finish times a test passes to ``emit_records``.
STAMPS = ("2024-01-01T00:00:00+00:00", "2024-01-01T00:00:01+00:00")


class TestEmitRecords:
    def run_tiny(self):
        cfg = SweepConfig(**TINY_CONFIG)
        return cfg, run_time_sweep(cfg)

    def test_csv_row_count_and_roundtrip(self, tmp_path):
        cfg, out = self.run_tiny()
        manifest = emit_records(out, tmp_path, cfg, *STAMPS)
        lines = (tmp_path / "records.csv").read_text().splitlines()
        assert len(lines) == len(out.records) + 1  # header + one row per record
        assert manifest.record_count == 4 and manifest.failure_count == 0
        assert manifest.record_count + manifest.failure_count == harness.expected_record_count(
            cfg, "sweep-time"
        )
        parsed = read_records_csv(tmp_path / "records.csv")
        assert parsed == list(out.records)

    def test_csv_bodies_bit_identical_across_runs(self, tmp_path):
        cfg, out1 = self.run_tiny()
        _, out2 = self.run_tiny()
        emit_records(out1, tmp_path / "a", cfg, *STAMPS)
        emit_records(out2, tmp_path / "b", cfg, *STAMPS)
        for name in ("records.csv", "aggregates.csv", "holevo_nodes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seventeen_significant_digits(self, tmp_path):
        cfg, out = self.run_tiny()
        emit_records(out, tmp_path, cfg, *STAMPS)
        parsed = read_records_csv(tmp_path / "records.csv")
        for before, after in zip(out.records, parsed):
            assert after.mse == before.mse  # exact float round-trip

    def test_rejects_empty_emission(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to emit"):
            emit_records(harness.SweepResult((), ()), tmp_path, SweepConfig(**TINY_CONFIG), *STAMPS)

    def test_out_dir_under_a_file_fails(self, tmp_path):
        cfg, out = self.run_tiny()
        (tmp_path / "file").write_text("")
        with pytest.raises(RuntimeError, match="failed writing results"):
            emit_records(out, tmp_path / "file" / "out", cfg, *STAMPS)

    def test_manifest_fields(self, tmp_path):
        cfg, out = self.run_tiny()
        emit_records(out, tmp_path, cfg, *STAMPS)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_digest"] == config_digest(cfg)
        assert manifest["tool_version"]
        assert manifest["record_count"] == len(out.records)
        blas = _process.openblas()
        assert manifest["blas_threads"] == (1 if blas else None)
        assert manifest["blas_core"] == (blas.core if blas else None)

    def test_failed_emit_leaves_the_earlier_run_whole(self, tmp_path, monkeypatch):
        # a second emit whose aggregates.csv fails to write leaves exactly the
        # first emit's files and bytes, and no temporary directory
        cfg, out = self.run_tiny()
        emit_records(harness.SweepResult(out.records[:2], ()), tmp_path, cfg, *STAMPS)
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(first) == ["aggregates.csv", "holevo_nodes.csv", "manifest.json", "records.csv"]
        write_csv = cli._write_csv

        def failing_on_aggregates(path, header, rows):
            if Path(path).name == "aggregates.csv":
                raise OSError("injected")
            write_csv(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", failing_on_aggregates)
        with pytest.raises(RuntimeError, match="^failed writing results under .*injected"):
            emit_records(harness.SweepResult(out.records[:3], ()), tmp_path, cfg, "later", "later")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(first)
        assert {name: (tmp_path / name).read_bytes() for name in first} == first


class TestCommands:
    def test_one_point_exact_sweep_at_zero_time(self, tmp_path):
        # one realization at one time is a one-point config
        payload = {
            "n_reservoir": 2,
            "topologies": ["C"],
            "schemes": ["SL"],
            "time_grid": [0.0],
            "n_realizations": 1,
            "shot_model": {"mode": "exact"},
            "master_seed": 3,
        }
        out_dir = tmp_path / "out"
        assert main(["sweep-time", "--config", write_config(tmp_path, payload), "--out", str(out_dir)]) == EXIT_OK
        [record] = read_records_csv(out_dir / "records.csv")
        assert abs(record.otoc_avg) <= 1e-12
        assert record.mse > 0.1

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
        for blas in ("1", "2", None):  # None: no thread variable, so qelmsim loads OpenBLAS with one
            out = tmp_path / f"blas{blas}"
            env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
            env.update(PYTHONPATH=str(src), **({"OPENBLAS_NUM_THREADS": blas} if blas else {}))
            done = subprocess.run(
                [sys.executable, "-m", "qelmsim", "sweep-time", "--config", config_path, "--out", str(out)],
                env=env,
                capture_output=True,
                timeout=300,
            )
            assert done.returncode == EXIT_OK, done.stderr.decode()
            outs.append(out)
        for name in CSV_TABLES:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() == (outs[2] / name).read_bytes(), name

    def test_without_mallopt_the_run_writes_the_same_bytes(self, tmp_path, monkeypatch):
        config_path = write_config(tmp_path, TINY_CONFIG)
        _process.openblas()  # cached before ctypes.CDLL loses mallopt
        monkeypatch.setattr(_process.ctypes, "CDLL", lambda name: object())  # a C library without mallopt
        assert _process.sweep_process() is False
        assert main(["sweep-time", "--config", config_path, "--out", str(tmp_path / "without")]) == EXIT_OK
        monkeypatch.undo()
        assert main(["sweep-time", "--config", config_path, "--out", str(tmp_path / "with")]) == EXIT_OK
        for name in CSV_TABLES:
            assert (tmp_path / "without" / name).read_bytes() == (tmp_path / "with" / name).read_bytes(), name

    def test_sweep_size_run_and_partial_failure_exit(self, tmp_path, monkeypatch):
        original = harness.sample_hamiltonian

        def failing_at_two(spec):
            if spec.n_reservoir == 2:
                raise ValueError("synthetic set-up failure")
            return original(spec)

        monkeypatch.setattr(harness, "sample_hamiltonian", failing_at_two)
        # a size sweep is a sweep-time config with several sizes and the single link
        payload = dict(TINY_CONFIG, n_reservoir=[2, 3], schemes=["SL"])
        config_path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        code = main(["sweep-time", "--config", config_path, "--out", str(out_dir)])
        assert code == EXIT_PARTIAL
        assert (out_dir / "failures.csv").exists()
        failures = (out_dir / "failures.csv").read_text().splitlines()
        # header + (2 realizations x 2 grid times) of the failed n=2 units
        assert len(failures) == 1 + 4

    def test_rerun_removes_stale_optional_tables(self, tmp_path, monkeypatch):
        def failing(spec):
            raise RuntimeError("injected")

        out_dir = tmp_path / "out"
        argv = ["sweep-time", "--config", write_config(tmp_path, TINY_CONFIG), "--out", str(out_dir)]
        tables = ["aggregates.csv", "manifest.json", "records.csv"]
        assert main(argv) == EXIT_OK
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(tables + ["holevo_nodes.csv"])
        with monkeypatch.context() as patch:  # every unit fails: no records, so no per-node rows
            patch.setattr(harness, "sample_hamiltonian", failing)
            assert main(argv) == EXIT_PARTIAL
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(tables + ["failures.csv"])
        assert main(argv) == EXIT_OK
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(tables + ["holevo_nodes.csv"])
        assert json.loads((out_dir / "manifest.json").read_text())["failure_count"] == 0

    def test_baseline_haar(self, tmp_path):
        # Haar rows come only from the config's include_haar_baseline: no time,
        # every metric and one Holevo value per node
        config_path = write_config(tmp_path, dict(TINY_CONFIG, include_haar_baseline=True))
        out_dir = tmp_path / "out"
        assert main(["sweep-time", "--config", config_path, "--out", str(out_dir)]) == EXIT_OK
        haar = [r for r in read_records_csv(out_dir / "records.csv") if r.topology == "RU"]
        assert len(haar) == 2
        for r in haar:
            assert r.scheme == "RU" and r.time is None
            assert None not in (r.mse, r.condition_number, r.otoc_avg, r.holevo_avg)
            assert len(r.holevo_per_node) == r.n_reservoir

    def test_include_haar_baseline_merges(self, tmp_path):
        # the Haar rows follow the Hamiltonian rows in the one sweep's output
        payload = dict(TINY_CONFIG, include_haar_baseline=True)
        config_path = write_config(tmp_path, payload)
        out_dir = tmp_path / "out"
        assert main(["sweep-time", "--config", config_path, "--out", str(out_dir)]) == EXIT_OK
        records = read_records_csv(out_dir / "records.csv")
        haar = [r for r in records if r.topology == "RU"]
        assert len(haar) == 2 and records[-2:] == haar
        assert len(records) == harness.expected_record_count(
            parse_config(config_path), "sweep-time"
        )

    def test_config_error_exit_code(self, tmp_path):
        config_path = write_config(tmp_path, {"time_grid": [1.0, 1.0]})
        assert main(["sweep-time", "--config", config_path, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_usage_error_exit_code(self, tmp_path, capsys):
        # A value a flag rejects, the removed table-format, lax-key and metrics
        # flags, and the removed single-run and baseline-haar commands.
        base = ["sweep-time", "--config", write_config(tmp_path, TINY_CONFIG), "--out", str(tmp_path / "o")]
        for argv in (
            base + ["--seed", "abc"],
            base + ["--seed", "-1"],
            base + ["--format", "csv"],
            base + ["--lax"],
            base + ["--metrics", "mse"],
            ["single-run"],
            ["single-run", "--topology", "FC", "--scheme", "ML"],
            ["baseline-haar", "--config", write_config(tmp_path, TINY_CONFIG)],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == EXIT_USAGE, argv
        # argparse names the flag the user wrote, not the config key it overrides
        assert "argument --seed: must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_default_output_dir(self, tmp_path, monkeypatch):
        # --out is the one output-directory setting; without it, ./qelmsim-out
        monkeypatch.setenv("QELMSIM_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["sweep-time", "--config", write_config(tmp_path, TINY_CONFIG)]) == EXIT_OK
        assert (tmp_path / "qelmsim-out" / "records.csv").exists()
        assert not (tmp_path / "envout").exists()

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
        harness.ExperimentRecord(0, "FC", "ML", 3, 1.5, 13, 0.0625, float("inf"), 0.5, 1 / 3, (0.1, 0.2, 0.3)),
        harness.ExperimentRecord(0, "RU", "RU", 2, None, 14, 0.2, 3.0, 0.75, 0.125, (0.25, 0.0)),
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
        "0,FC,ML,3,1.5,13,0.0625,inf,0.5,0.33333333333333331,"
        "0.10000000000000001,0.20000000000000001,0.29999999999999999\n"
        "0,RU,RU,2,,14,0.20000000000000001,3,0.75,0.125,0.25,0,\n"
    )
    AGGREGATES_CSV = (
        "topology,scheme,n_reservoir,time,metric,n,median,q1,q3\n"
        "C,SL,2,0,mse,2,0.20000000000000001,0.14999999999999999,0.25\n"
        "C,SL,2,0,condition_number,2,3.25,2.875,3.625\n"
        "C,SL,2,0,otoc_avg,2,0.0625,0.03125,0.09375\n"
        "C,SL,2,0,holevo_avg,2,0.375,0.3125,0.4375\n"
        "FC,ML,3,1.5,mse,1,0.0625,0.0625,0.0625\n"
        "FC,ML,3,1.5,condition_number,1,inf,inf,inf\n"
        "FC,ML,3,1.5,otoc_avg,1,0.5,0.5,0.5\n"
        "FC,ML,3,1.5,holevo_avg,1,0.33333333333333331,0.33333333333333331,0.33333333333333331\n"
        "RU,RU,2,,mse,1,0.20000000000000001,0.20000000000000001,0.20000000000000001\n"
        "RU,RU,2,,condition_number,1,3,3,3\n"
        "RU,RU,2,,otoc_avg,1,0.75,0.75,0.75\n"
        "RU,RU,2,,holevo_avg,1,0.125,0.125,0.125\n"
    )
    HOLEVO_NODES_CSV = (
        "topology,scheme,n_reservoir,time,node,n,median,q1,q3\n"
        "C,SL,2,0,0,2,0.625,0.5625,0.6875\n"
        "C,SL,2,0,1,2,0.125,0.0625,0.1875\n"
        "FC,ML,3,1.5,0,1,0.10000000000000001,0.10000000000000001,0.10000000000000001\n"
        "FC,ML,3,1.5,1,1,0.20000000000000001,0.20000000000000001,0.20000000000000001\n"
        "FC,ML,3,1.5,2,1,0.29999999999999999,0.29999999999999999,0.29999999999999999\n"
        "RU,RU,2,,0,1,0.25,0.25,0.25\n"
        "RU,RU,2,,1,1,0,0,0\n"
    )
    FAILURES_CSV = (
        "realization_index,topology,scheme,n_reservoir,time,error\n"
        "1,R,SL,2,1.5,ValueError: ring needs at least 3 sites\n"
        '1,RU,RU,3,,"LinAlgError: eigh failed, ""twice"""\n'
    )

    def emit(self, tmp_path):
        result = harness.SweepResult(tuple(self.RECORDS), tuple(self.FAILURES))
        manifest = emit_records(result, tmp_path, SweepConfig(**TINY_CONFIG), *STAMPS)
        assert (manifest.record_count, manifest.failure_count) == (4, 2)
        return tmp_path

    def test_csv_tables_exact_text(self, tmp_path):
        out = self.emit(tmp_path)
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

    def test_read_back_both_formats(self, tmp_path):
        assert read_records_csv(self.emit(tmp_path) / "records.csv") == self.RECORDS


class TestConfigDigestPinned:
    """The digest of the resolved config is part of every manifest; it must not drift.

    ``j_range``, ``delta_range`` and ``log_base`` are no longer keys, so the
    canonical form lost ``"j_range": [-1.0, 1.0]``, ``"delta_range": [-0.1,
    0.1]`` and ``"log_base": 2``; adding those three back reproduces the
    earlier pins of all four configs.
    """

    def test_default_and_shipped_configs(self):
        root = Path(__file__).resolve().parent.parent / "configs"
        assert config_digest(SweepConfig()) == "03bbbc41d98c28e5a02ee188779eb09ac1e52262b36cefc56cb8b3bb0da4259c"
        assert (
            config_digest(parse_config(root / "quick.json"))
            == "873020fec1d58339806600cc7710ff8c3ae1412dac3540618f514d13b44ca1b0"
        )
        assert (
            config_digest(parse_config(root / "full-scale.json"))
            == "ee9b750359c08a980e3afa20563688e81c8eaf3a69594a180a459d3085d9a67d"
        )
        assert (
            config_digest(parse_config(root / "size-sweep.json"))
            == "8cb533e4f705ce9c44d1a4303e08c92102288a21b2c9ded7424c023d0be56446"
        )


def readme_bash_lines() -> list:
    """The lines of the README's ```bash blocks."""
    lines, in_bash = [], False
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_bash = line == "```bash"
        elif in_bash:
            lines.append(line)
    return lines


class TestReadme:
    def test_command_lines_parse(self):
        # every `qelmsim ...` line of the README's bash blocks is a valid command
        root = Path(__file__).resolve().parent.parent
        argvs = [shlex.split(line, comments=True)[1:] for line in readme_bash_lines() if line.startswith("qelmsim ")]
        assert {argv[0] for argv in argvs} == {"sweep-time"}
        for argv in argvs:
            args = cli._build_parser().parse_args(argv)
            config = getattr(args, "config", None)
            assert config is None or not config.startswith("configs/") or (root / config).is_file(), argv

    def test_example_configs_parse(self, tmp_path):
        # every config the README's bash blocks write with `echo '<json>' > FILE` resolves
        examples = [re.fullmatch(r"echo '(.*)' > (\S+)", line) for line in readme_bash_lines()]
        examples = [m.groups() for m in examples if m]
        assert examples
        for text, name in examples:
            path = tmp_path / name
            path.write_text(text)
            parse_config(path)

    def test_config_block_names_every_field(self):
        # the jsonc block under "Config file" documents exactly the SweepConfig fields
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = re.search(r"^## Config file\n.*?^```jsonc\n(.*?)^```", text, re.S | re.M).group(1)
        keys = re.findall(r'^  "(\w+)":', block, re.M)
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(SweepConfig))

    def test_building_blocks_are_package_names(self):
        # every name in the "Library use" building-block list is real API
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        listed = re.search(r"Lower-level building blocks \((.*?)\.\.\.\)", text, re.S)
        names = re.findall(r"`(\w+)`", listed.group(1))
        assert len(names) >= 10
        assert [name for name in names if not hasattr(qelmsim, name)] == []

    def test_common_flags_are_sweep_time_options(self):
        # the README's "Common flags" paragraph documents exactly the sweep-time options
        text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        paragraph = re.search(r"^Common flags:(.*?)\n\n", text, re.S | re.M).group(1)
        flags = set(re.findall(r"--[a-z][a-z-]*", paragraph))
        sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {o for o in sub.choices["sweep-time"]._option_string_actions if o.startswith("--")}
        assert flags == options - {"--help"}
