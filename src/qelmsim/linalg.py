"""Dense complex linear algebra kernel for few-qubit simulations.

Everything operates on plain ``numpy`` arrays of ``complex128`` (operators)
or ``float64`` (spectra, probabilities). Conventions used across the package:

* qubit 0 is the leftmost, i.e. most significant, tensor factor;
* operators are dense square matrices of dimension ``2**n_qubits``;
* hbar = 1, so ``exp(-1j * H * t)`` propagates for a time ``t``.

All functions are pure: inputs are never mutated and random sampling takes an
explicit ``numpy.random.Generator``. Returned arrays should be treated as
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MAX_DIM",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY_2",
    "PAULIS",
    "PAULI_AXES",
    "SpectralDecomposition",
    "kron",
    "embed_pauli",
    "herm_eig",
    "evolve_unitary",
    "partial_trace",
    "von_neumann_entropy",
    "haar_unitary",
    "random_pure_qubit_state",
    "pseudoinverse",
    "svd_pseudoinverse",
    "default_rcond",
    "require_hermitian",
    "is_unitary",
    "require_density",
]

# Dense algebra on more than 12 qubits (dim 4096) is treated as a usage error;
# pass an explicit max_dim to lift the cap.
MAX_DIM = 4096

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
# Eigenvalues below this contribute 0 to the entropy (continuity of x*log x).
ENTROPY_EIGENVALUE_CUTOFF = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

PAULI_AXES = ("x", "y", "z")
PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

for _m in (PAULI_X, PAULI_Y, PAULI_Z, IDENTITY_2):
    _m.setflags(write=False)
del _m


def require_hermitian(a: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "operator") -> None:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > tol:
        raise ValueError(f"{name} is not Hermitian: max |A - A^dag| = {dev:.3e} > {tol:.1e}")


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    u = np.asarray(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    dev = np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0])))
    return bool(dev <= tol)


def require_density(rho: np.ndarray, tol: float = HERMITIAN_TOL, name: str = "rho") -> None:
    """Cheap density-matrix checks: square, Hermitian, unit trace.

    Positivity is O(dim^3) and is deliberately not verified here; callers that
    need it should inspect ``np.linalg.eigvalsh``.
    """
    rho = np.asarray(rho)
    require_hermitian(rho, tol, name)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > max(tol, 1e-10):
        raise ValueError(f"{name} must have unit trace, got {tr:.12g}")


def kron(a: np.ndarray, b: np.ndarray, max_dim: int = MAX_DIM) -> np.ndarray:
    """Kronecker product with a guard on the resulting dimension."""
    a = np.asarray(a)
    b = np.asarray(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > max_dim:
        raise ValueError(
            f"kron result would be {rows}x{cols}, beyond the configured maximum dim {max_dim}"
        )
    return np.kron(a, b)


def embed_pauli(axis: str, site: int, n_qubits: int, max_dim: int = MAX_DIM) -> np.ndarray:
    """Pauli ``sigma_axis`` acting on ``site`` of an ``n_qubits`` register.

    Identity on every other site; qubit 0 is the leftmost tensor factor.
    """
    if axis not in PAULIS:
        raise ValueError(f"axis must be one of {PAULI_AXES}, got {axis!r}")
    if not 0 <= site < n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
    if 2**n_qubits > max_dim:
        raise ValueError(f"2**{n_qubits} exceeds the configured maximum dim {max_dim}")
    op = PAULIS[axis]
    left = 2**site
    right = 2 ** (n_qubits - site - 1)
    if left > 1:
        op = np.kron(np.eye(left, dtype=complex), op)
    if right > 1:
        op = np.kron(op, np.eye(right, dtype=complex))
    return op


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenfactorization ``A = V diag(w) V^dag`` of a Hermitian operator.

    ``eigenvalues`` are real and sorted ascending; the columns of
    ``eigenvectors`` are the corresponding orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def herm_eig(a: np.ndarray, tol: float = HERMITIAN_TOL) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises ``ValueError`` if the input violates Hermiticity, and propagates
    ``numpy.linalg.LinAlgError`` on convergence failure (no partial result is
    ever returned).
    """
    a = np.asarray(a, dtype=complex)
    require_hermitian(a, tol)
    w, v = np.linalg.eigh(a)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def evolve_unitary(decomp: SpectralDecomposition, t: float) -> np.ndarray:
    """Propagator ``exp(-1j H t)`` from the eigendecomposition of H (hbar = 1)."""
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return (decomp.eigenvectors * phases) @ decomp.eigenvectors.conj().T


def partial_trace(rho: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """Trace out all qubits not listed in ``keep``.

    ``rho`` has dimension ``2**n_qubits``; the result is ordered by the sorted
    kept indices (qubit 0 = leftmost factor).
    """
    rho = np.asarray(rho)
    dim = 2**n_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"rho has shape {rho.shape}, expected ({dim}, {dim})")
    kept = sorted(set(int(q) for q in keep))
    if not kept:
        raise ValueError("keep must be a nonempty set of qubit indices")
    if kept[0] < 0 or kept[-1] >= n_qubits:
        raise ValueError(f"keep={kept} contains indices outside 0..{n_qubits - 1}")
    kept_set = set(kept)
    reshaped = rho.reshape((2,) * (2 * n_qubits))
    bra = list(range(n_qubits))
    # Traced qubits carry the same label on bra and ket side, so einsum sums them.
    ket = [n_qubits + q if q in kept_set else q for q in range(n_qubits)]
    out_labels = [q for q in kept] + [n_qubits + q for q in kept]
    reduced = np.einsum(reshaped, bra + ket, out_labels)
    d_keep = 2 ** len(kept)
    return reduced.reshape(d_keep, d_keep)


def von_neumann_entropy(rho: np.ndarray, log_base=2, cutoff: float = ENTROPY_EIGENVALUE_CUTOFF) -> float:
    """Entropy ``-sum(w * log(w))`` over eigenvalues above ``cutoff``.

    ``log_base`` is 2 (bits) or "e" (nats).
    """
    rho = np.asarray(rho)
    require_hermitian(rho, name="rho")
    w = np.linalg.eigvalsh(rho)
    w = w[w > cutoff]
    s = float(-(w * np.log(w)).sum()) if w.size else 0.0
    if log_base == 2:
        s /= np.log(2.0)
    elif log_base not in ("e", np.e):
        raise ValueError(f"log_base must be 2 or 'e', got {log_base!r}")
    return max(s, 0.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of the triangular factor is phase-corrected so the result
    carries the group-invariant measure.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    mag = np.abs(d)
    phases = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phases


def random_pure_qubit_state(rng: np.random.Generator) -> np.ndarray:
    """Rank-1 single-qubit density matrix, Haar-uniform on the Bloch sphere."""
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    norm = np.linalg.norm(v)
    while norm == 0.0:  # pragma: no cover - probability zero
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        norm = np.linalg.norm(v)
    v /= norm
    return np.outer(v, v.conj())


def default_rcond(shape) -> float:
    """Near-machine singular-value cutoff, relative to the largest one."""
    return 1e-12 * max(shape)


def svd_pseudoinverse(m: np.ndarray, rcond: float | None = None):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``rcond * sigma_max`` are zeroed. Returns the tuple
    ``(pinv, singular_values, rcond_used)`` with singular values sorted
    descending.
    """
    m = np.asarray(m)
    if rcond is None:
        rcond = default_rcond(m.shape)
    if rcond < 0:
        raise ValueError(f"rcond must be >= 0, got {rcond}")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    smax = s[0] if s.size else 0.0
    cutoff = rcond * smax
    inv = np.zeros_like(s)
    keep = s >= cutoff if cutoff > 0 else s > 0
    inv[keep] = 1.0 / s[keep]
    pinv = (vh.conj().T * inv) @ u.conj().T
    return pinv, s, float(rcond)


def pseudoinverse(m: np.ndarray, rcond: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative singular-value truncation."""
    pinv, _, _ = svd_pseudoinverse(m, rcond)
    return pinv
