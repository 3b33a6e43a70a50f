import importlib.util
from pathlib import Path

import qelmsim

# The package-root names. Adding or removing one is an API change: edit this
# tuple and list the change in the README's "Library use".
PUBLIC_NAMES = (
    "ConfigError",
    "CouplingScheme",
    "EnsembleStats",
    "ExperimentRecord",
    "HamiltonianSpec",
    "HolevoResult",
    "OtocResult",
    "ReservoirHamiltonian",
    "ShotMode",
    "ShotModel",
    "SpectralDecomposition",
    "SweepConfig",
    "SweepResult",
    "Topology",
    "TrainedReadout",
    "aggregate_records",
    "aggregate_stats",
    "averaged_otoc",
    "condition_number",
    "edge_set",
    "embed_pauli",
    "evolve_unitary",
    "haar_unitary",
    "harness",
    "herm_eig",
    "linalg",
    "local_channel",
    "local_holevo_profile",
    "mse",
    "partial_trace",
    "pauli_targets",
    "predict",
    "qelm",
    "random_pure_qubit_states",
    "reservoir",
    "run_haar_baseline",
    "run_time_sweep",
    "sample_features",
    "sample_hamiltonian",
    "scrambling",
    "train_readout",
    "von_neumann_entropy",
)


def test_public_surface_is_pinned():
    assert tuple(qelmsim.__all__) == PUBLIC_NAMES


def test_benchmark_trace_targets_exist():
    """Every attribute ``bench/bench_trace.py`` wraps still exists.

    The traced benchmark times each stage by wrapping module attributes by
    name, such as ``harness._propagator_columns`` and the
    ``harness._otoc_per_pair_from_eig`` alias. A stage whose target is gone is
    reported as untraced instead of failing, and a traced run must report 0
    untraced stages (ROADMAP item 1), so only this test sees such a removal.
    """
    bench_trace = _bench_module("bench_trace")
    with bench_trace.installed(bench_trace.Tracer()) as missing:
        assert missing == {}


def test_benchmark_workloads_parse(tmp_path):
    """Every ``bench/run.py`` workload, inline or a config file, resolves
    through ``cli.parse_config`` with its record count; a config rule that
    rejected one would fail every benchmark run of it."""
    from qelmsim import cli, harness

    run = _bench_module("run")
    counts = {
        name: harness.expected_record_count(cli.parse_config(run.config_path(name, tmp_path)), "sweep-time")
        for name in run.WORKLOADS
    }
    assert counts == {"grid-n7": 164, "ensemble-n7": 56, "quick-1t": 900}


def _bench_module(name: str):
    """``bench/<name>.py`` loaded by path, under a private module name."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
