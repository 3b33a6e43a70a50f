import dataclasses
import json

import numpy as np

import bench_checks
from qelmsim import cli

from test_bench_trace import TINY


def _run(tmp_path):
    config_path = tmp_path / "tiny.json"
    config_path.write_text(json.dumps(TINY))
    out = tmp_path / "out"
    code = cli.main(["sweep-time", "--config", str(config_path), "--out", str(out), "--seed", "5"])
    config = dataclasses.replace(cli.parse_config(config_path), master_seed=5)
    return out, code, config


def test_clean_run_passes_every_check(tmp_path):
    out, code, config = _run(tmp_path)
    outcome = bench_checks.check_run(out, code, config, np.random.default_rng(0), samples=4)
    assert outcome.problems == []
    # 4 records, exit code, failures.csv, count, range, 2 recomputed values per record
    assert (outcome.attempted, outcome.failed, outcome.records) == (4 + 4 + 8, 0, 4)


def test_altered_otoc_and_missing_row_are_flagged(tmp_path):
    out, code, config = _run(tmp_path)
    path = out / "records.csv"
    lines = path.read_text().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    row = lines[2].rstrip("\n").split(",")
    col = header.index("otoc_avg")
    row[col] = repr(float(row[col]) + 1e-3)
    lines[2] = ",".join(row) + "\n"
    del lines[3]
    path.write_text("".join(lines))

    outcome = bench_checks.check_run(out, code, config, np.random.default_rng(0), samples=4)
    assert outcome.failed == 2
    assert outcome.problems[0] == "3 records, expected 4"
    assert outcome.problems[1].startswith("row 1 otoc_avg")


def test_same_bodies_flags_a_changed_file(tmp_path):
    out, _, _ = _run(tmp_path)
    twin = tmp_path / "twin"
    twin.mkdir()
    for name in bench_checks.OUTPUT_FILES:
        (twin / name).write_bytes((out / name).read_bytes())
    assert bench_checks.same_bodies(out, twin).failed == 0
    (twin / "aggregates.csv").write_text("changed\n")
    assert bench_checks.same_bodies(out, twin).problems == [f"aggregates.csv differs between {out} and {twin}"]
