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

import os as _os
import sys as _sys

# OpenBLAS starts its threads when numpy loads, and an idle one can spin for
# about 0.1 s of CPU. Every qelmsim kernel runs under
# ``linalg.single_blas_thread()``, so a second thread only ever spins: load
# numpy with one, unless the caller chose a count or loaded numpy first. The
# variable leaves again, so the caller and child processes see their own
# environment.
_BLAS_THREAD_VARS = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"}
if "numpy" not in _sys.modules and not _BLAS_THREAD_VARS & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

# The root names are the modules' ``__all__`` lists and the modules themselves.
from .harness import *
from .linalg import *
from .qelm import *
from .reservoir import *
from .scrambling import *

__all__ = [name for name in dir() if not name.startswith("_")]
