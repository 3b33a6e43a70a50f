import qelmsim

# The package-root names. Adding or removing one is an API change: edit this
# tuple and list the change in the README's "Library use".
PUBLIC_NAMES = (
    "ALL_METRICS",
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
    "random_pure_qubit_state",
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
