"""Linear-readout estimation pipeline.

Input qubit states are pushed through a fixed unitary acting on the
(N+1)-qubit register (reservoir initialized in |0...0>, input qubit last),
features are the expectation values of ``sigma_z`` on each reservoir qubit --
exact, or estimated from a finite number of measurement shots -- and a linear
map trained by pseudoinverse regression recovers the input Bloch vector.
``sample_features`` computes both kinds with the kernel that sweeps call; its
``exact`` mode gives the exact features.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg as la

__all__ = [
    "ShotMode",
    "ShotModel",
    "TrainedReadout",
    "sample_features",
    "pauli_targets",
    "train_readout",
    "predict",
    "mse",
    "condition_number",
]

# Reservoir probabilities more negative than this signal corrupted upstream
# numerics rather than roundoff.
_NEGATIVE_PROB_TOL = -1e-10
# Input states may miss unit trace by this much.
_TRACE_TOL = 1e-10

# Samplers draw counts as C longs.
_MAX_SHOTS = 2**63 - 1


class ShotMode(enum.Enum):
    EXACT = "exact"
    JOINT_BITSTRINGS = "joint_bitstrings"

    @classmethod
    def parse(cls, value) -> "ShotMode":
        return la._parse_member(cls, value, "shot mode")


@dataclass(frozen=True)
class ShotModel:
    """Measurement statistics model; ``shots`` is ignored in exact mode."""

    mode: ShotMode = ShotMode.JOINT_BITSTRINGS
    shots: int = 10**6

    def __post_init__(self):
        object.__setattr__(self, "mode", ShotMode.parse(self.mode))
        shots = la._count(self.shots, name="shots")
        if shots > _MAX_SHOTS:
            raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {self.shots!r}")
        object.__setattr__(self, "shots", shots)


@dataclass(frozen=True)
class TrainedReadout:
    """Linear readout W with the training diagnostics used to compute it."""

    w: np.ndarray
    singular_values: np.ndarray


@lru_cache(maxsize=None)
def _z_sign_matrix(n_reservoir: int) -> np.ndarray:
    """(N, 2^N) matrix of (-1)**bit_j(b) over reservoir basis states b."""
    b = np.arange(2**n_reservoir)
    rows = [1.0 - 2.0 * ((b >> (n_reservoir - 1 - j)) & 1) for j in range(n_reservoir)]
    signs = np.array(rows, dtype=float)
    signs.setflags(write=False)
    return signs


def _reservoir_basis_probs(v01: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Diagonal of the reservoir marginal of ``v01 @ rho @ v01^dag`` per state.

    ``rhos`` is one (2, 2) state or a (k, 2, 2) stack; the result has shape
    (2^N,) or (k, 2^N). The map is affine in rho: with the input columns a
    and b of ``v01`` and a Hermitian rho, row r of ``v01 @ rho @ v01^dag``
    has diagonal rho00 |a_r|^2 + rho11 |b_r|^2 + 2 Re(rho01 a_r conj(b_r)).
    So the probabilities are one real product of [rho00, rho11, 2 Re rho01,
    2 Im rho01] per state with C = [|a|^2, |b|^2, Re(a conj b), -Im(a conj b)],
    whose rows are summed over the input bit; mixed states included.
    """
    a, b = v01[:, 0], v01[:, 1]
    ab = a * b.conj()
    c = np.stack([a.real**2 + a.imag**2, b.real**2 + b.imag**2, ab.real, -ab.imag])
    c = c.reshape(4, -1, 2).sum(axis=-1)
    rho01 = rhos[..., 0, 1]
    coords = np.stack([rhos[..., 0, 0].real, rhos[..., 1, 1].real, 2.0 * rho01.real, 2.0 * rho01.imag], axis=-1)
    return coords @ c


def _qubit_states(states) -> np.ndarray:
    """(k, 2, 2) stack of 2x2 Hermitian unit-trace ``states``.

    Positivity is not checked. The error names the index of the first state
    that fails and, of its two checks, Hermiticity before the trace.
    """
    rhos = [np.asarray(rho, dtype=complex) for rho in states]
    for k, rho in enumerate(rhos):
        if rho.shape != (2, 2):
            raise ValueError(f"state {k} must be a 2x2 density matrix, got shape {rho.shape}")
    rhos = np.array(rhos, dtype=complex).reshape(-1, 2, 2)
    herm_dev = np.abs(rhos - rhos.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    traces = np.trace(rhos, axis1=1, axis2=2)
    bad = np.flatnonzero((herm_dev > la.HERMITIAN_TOL) | (np.abs(traces - 1.0) > _TRACE_TOL))
    if bad.size:
        k = bad[0]
        if herm_dev[k] > la.HERMITIAN_TOL:
            raise ValueError(
                f"state {k} is not Hermitian: max |A - A^dag| = {herm_dev[k]:.3e} > {la.HERMITIAN_TOL:.1e}"
            )
        raise ValueError(f"state {k} must have unit trace, got {complex(traces[k]):.12g}")
    return rhos


def _features_from_columns(
    v01: np.ndarray,
    states,
    n_reservoir: int,
    model: ShotModel,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """sigma_z feature columns computed from the input-subspace isometry.

    Joint-bitstring sampling draws the empirical counts of M computational
    basis measurements (a multinomial over the 2^N reservoir outcomes, which
    is exactly the distribution of M i.i.d. bitstring draws) and averages
    (-1)**bit_j per observable, so correlations between the commuting sigma_z
    readouts within a shot are kept.
    """
    signs = _z_sign_matrix(n_reservoir)
    q = _reservoir_basis_probs(v01, np.asarray(states, dtype=complex).reshape(-1, 2, 2))
    qmin = q.min(initial=0.0)
    if qmin < _NEGATIVE_PROB_TOL:
        raise ValueError(
            f"reservoir probability {qmin:.3e} below {_NEGATIVE_PROB_TOL:.0e}: "
            "upstream numerical corruption"
        )
    if model.mode is ShotMode.EXACT:
        # A stack of matrix-vector products rounds each state's sums as
        # ``signs @ q[k]`` alone does; one matrix product would not.
        return np.ascontiguousarray((signs @ q[:, :, None])[:, :, 0].T)
    q = np.clip(q, 0.0, None)
    q /= q.sum(axis=1, keepdims=True)
    # Draws broadcast over states take the stream state by state, as one draw
    # per state would.
    return (signs @ rng.multinomial(model.shots, q).T) / model.shots


def sample_features(
    u: np.ndarray,
    states,
    n_reservoir: int,
    model: ShotModel,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Finite-shot estimates of the per-site sigma_z features.

    ``joint_bitstrings`` samples whole computational-basis outcomes of the
    reservoir (all sigma_z values from one shot), and ``exact`` returns the
    expectation values themselves.
    """
    if model.mode is not ShotMode.EXACT and rng is None:
        raise ValueError("sampled shot modes need an explicit random generator")
    rhos = _qubit_states(states)
    v01 = la._input_columns(u, n_reservoir)
    return _features_from_columns(v01, rhos, n_reservoir, model, rng)


def pauli_targets(states) -> np.ndarray:
    """3 x n_states matrix of (<sigma_x>, <sigma_y>, <sigma_z>) per state."""
    rhos = _qubit_states(states)
    paulis = np.stack([la.PAULIS[axis] for axis in la.PAULI_AXES])
    return np.einsum("aij,kji->ak", paulis, rhos).real


def train_readout(p_train: np.ndarray, y_train: np.ndarray) -> TrainedReadout:
    """Least-squares readout ``W = Y @ pinv(P)`` via truncated-SVD pseudoinverse."""
    p_train = np.asarray(p_train, dtype=float)
    y_train = np.asarray(y_train, dtype=float)
    if p_train.ndim != 2 or y_train.ndim != 2:
        raise ValueError("feature and target matrices must be 2-D")
    if p_train.shape[1] != y_train.shape[1]:
        raise ValueError(
            f"feature matrix has {p_train.shape[1]} states but targets have {y_train.shape[1]}"
        )
    if p_train.shape[1] < 1:
        raise ValueError("training requires at least one state")
    pinv, singvals = la.svd_pseudoinverse(p_train)
    return TrainedReadout(w=y_train @ pinv, singular_values=singvals)


def predict(trained: TrainedReadout, p_test: np.ndarray) -> np.ndarray:
    """Apply the trained readout; no clipping to the Bloch ball is performed."""
    p_test = np.asarray(p_test, dtype=float)
    if p_test.ndim != 2 or trained.w.shape[1] != p_test.shape[0]:
        raise ValueError(
            f"readout expects {trained.w.shape[1]} feature rows, got shape {p_test.shape}"
        )
    return trained.w @ p_test


def mse(y_test: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean over states of the squared Euclidean target-prediction distance."""
    y_test = np.asarray(y_test, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_test.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_test.shape} vs {y_pred.shape}")
    diff = y_test - y_pred
    return float(np.mean((diff * diff).sum(axis=0)))


def condition_number(p: np.ndarray) -> float:
    """Ratio of extreme singular values, from the SVD ``train_readout`` takes,
    as sweep records read it; +inf when the smallest underflows."""
    _, s = la.svd_pseudoinverse(np.asarray(p, dtype=float))
    return _condition_from_singular_values(s)


def _condition_from_singular_values(s: np.ndarray) -> float:
    """s_max / s_min of the descending singular values ``s``."""
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("condition number of an all-zero matrix is undefined")
    if s[-1] < 1e-300:
        return float("inf")
    return float(s[0] / s[-1])
