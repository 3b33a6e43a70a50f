import importlib.util
import re
from pathlib import Path

import qelmsim

# The package-root names. The root re-exports each module's ``__all__``, so
# adding or removing one is an API change in three places: this tuple, the
# module's ``__all__`` and the README's "Library use".
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
    "run_time_sweep",
    "sample_features",
    "sample_hamiltonian",
    "scrambling",
    "train_readout",
    "von_neumann_entropy",
)


def test_public_surface_is_pinned():
    assert tuple(qelmsim.__all__) == PUBLIC_NAMES


def test_root_names_are_the_module_lists():
    """Each module's ``__all__`` names only package-root names, no name twice."""
    modules = (qelmsim.harness, qelmsim.linalg, qelmsim.qelm, qelmsim.reservoir, qelmsim.scrambling)
    names = [m.__name__.rpartition(".")[2] for m in modules] + [n for m in modules for n in m.__all__]
    assert sorted(names) == sorted(PUBLIC_NAMES)


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
    """Every ``bench/run.py`` workload and every ``configs/*.json`` file
    resolves through ``cli.parse_config`` with its record count, and carries
    every ``config.<name>`` that ``bench/bench_checks.py`` reads. A change
    that drops a key a workload sets, or a name the checks read, fails here
    and not only in a benchmark run."""
    from qelmsim import cli, harness

    run = _bench_module("run")
    read = sorted(set(re.findall(r"\bconfig\.(\w+)", Path(run.__file__).with_name("bench_checks.py").read_text())))
    assert read
    paths = {name: run.config_path(name, tmp_path) for name in run.WORKLOADS}
    paths.update({f"configs/{p.name}": p for p in (run.ROOT / "configs").glob("*.json")})
    counts = {}
    for name, path in paths.items():
        config = cli.parse_config(path)
        counts[name] = harness.expected_record_count(config, "sweep-time")
        assert [attr for attr in read if not hasattr(config, attr)] == [], name
    assert counts == {
        "grid-n7": 164,
        "ensemble-n7": 56,
        "quick-1t": 900,
        "configs/quick.json": 900,
        "configs/size-sweep.json": 12000,
        "configs/full-scale.json": 123500,
    }


def _bench_module(name: str):
    """``bench/<name>.py`` loaded by path, under a private module name."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
