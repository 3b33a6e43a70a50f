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

# The root names are the modules' ``__all__`` lists and the modules themselves.
from .harness import *
from .linalg import *
from .qelm import *
from .reservoir import *
from .scrambling import *

__all__ = [name for name in dir() if not name.startswith("_")]
