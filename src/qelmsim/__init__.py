"""Random spin-network reservoirs for linear-readout quantum state estimation.

The package simulates an (N+1)-qubit register in which a fixed, randomly
sampled spin-network Hamiltonian scatters a single input qubit across N
reservoir qubits. Per-site ``sigma_z`` expectation values -- exact or
estimated from a finite number of measurement shots -- feed a pseudoinverse-
trained linear readout that reconstructs the input Bloch vector, and two
information-spreading diagnostics (averaged out-of-time-ordered correlators
and per-node Holevo information) track why the reconstruction works when it
does. A seeded experiment harness and a CLI sweep ensembles over interaction
topologies, coupling schemes, reservoir sizes, and evolution times.
"""

__version__ = "0.1.0"

from .harness import (
    ConfigError,
    EnsembleStats,
    ExperimentRecord,
    SweepConfig,
    SweepResult,
    aggregate_records,
    aggregate_stats,
    run_haar_baseline,
    run_time_sweep,
)
from .linalg import (
    SpectralDecomposition,
    embed_pauli,
    evolve_unitary,
    haar_unitary,
    herm_eig,
    partial_trace,
    random_pure_qubit_states,
    von_neumann_entropy,
)
from .qelm import (
    ShotModel,
    ShotMode,
    TrainedReadout,
    condition_number,
    mse,
    pauli_targets,
    predict,
    sample_features,
    train_readout,
)
from .reservoir import (
    CouplingScheme,
    HamiltonianSpec,
    ReservoirHamiltonian,
    Topology,
    edge_set,
    sample_hamiltonian,
)
from .scrambling import (
    HolevoResult,
    OtocResult,
    averaged_otoc,
    local_channel,
    local_holevo_profile,
)

__all__ = [name for name in dir() if not name.startswith("_")]
