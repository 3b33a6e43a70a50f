import json

import bench_trace
from qelmsim import cli, harness

TINY = {
    "n_reservoir": 2,
    "topologies": ["C"],
    "schemes": ["SL", "ML"],
    "time_grid": [0.5, 1.0],
    "n_realizations": 1,
    "n_train": 6,
    "n_test": 6,
    "shot_model": {"mode": "joint_bitstrings", "shots": 1000},
}


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        ["harness.unit", 0.0, 10.0, None],
        ["qelm.features", 1.0, 4.0, 0],
        ["qelm.readout", 2.0, 3.0, 1],
        ["qelm.features", 5.0, 9.0, 0],
        ["qelm.readout", 6.0, 7.0, 3],
        ["cli.emit", 10.5, 11.0, None],
    ]
    assert bench_trace.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0, 0.5]
    stages = bench_trace.stage_metrics(spans)
    assert stages["harness.unit"] == {"calls": 1, "busy_s": 10.0, "self_s": 3.0, "ms_p50": 10000.0}
    assert stages["qelm.features"] == {"calls": 2, "busy_s": 7.0, "self_s": 5.0, "ms_p50": 3500.0}
    assert stages["qelm.readout"]["self_s"] == 2.0
    assert stages["linalg.eigh"]["calls"] == 0
    assert bench_trace.unattributed(spans, 12.0) == 12.0 - 10.5


def test_tracer_nests_spans_with_its_clock():
    ticks = iter(range(100))
    tracer = bench_trace.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("qelm.readout", lambda x: x + 1)
    outer = tracer.wrap("harness.unit", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tracer.spans == [["harness.unit", 0.0, 3.0, None], ["qelm.readout", 1.0, 2.0, 0]]


def test_missing_target_is_reported_untraced_and_the_run_goes_on(tmp_path, monkeypatch):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    monkeypatch.delattr(harness, "_otoc_per_pair_from_unitary")
    original = harness._propagator_columns
    tracer = bench_trace.Tracer()
    with bench_trace.installed(tracer) as missing:
        assert harness._propagator_columns is not original
        code = cli.main(["sweep-time", "--config", str(config), "--out", str(tmp_path / "out")])
    assert harness._propagator_columns is original
    assert code == cli.EXIT_OK
    assert missing == {"scrambling.otoc_haar": ["harness._otoc_per_pair_from_unitary"]}
    stages = bench_trace.stage_metrics(tracer.spans)
    assert stages["scrambling.otoc_step"]["calls"] == 4
    assert stages["harness.unit"]["calls"] == 2
    assert stages["cli.emit"]["busy_s"] > stages["cli.emit"]["self_s"] > 0
