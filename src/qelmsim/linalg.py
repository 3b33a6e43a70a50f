"""Dense complex linear algebra kernel for few-qubit simulations.

Everything operates on plain ``numpy`` arrays of ``complex128`` (operators)
or ``float64`` (spectra, probabilities). Conventions used across the package:

* qubit 0 is the leftmost, i.e. most significant, tensor factor;
* operators are dense square matrices of dimension ``2**n_qubits``, at most
  ``MAX_DIM``;
* the register is N reservoir qubits followed by the input qubit, and the
  reservoir starts in |0...0>, so a propagator acts on inputs through its
  first two columns (``_input_columns``);
* hbar = 1, so ``exp(-1j * H * t)`` propagates for a time ``t``.
* entropies are in bits.

All functions are pure: inputs are never mutated, random sampling takes an
explicit ``numpy.random.Generator``, and no process setting changes (those are
``_process``'s). Returned arrays should be treated as immutable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralDecomposition",
    "embed_pauli",
    "herm_eig",
    "evolve_unitary",
    "partial_trace",
    "von_neumann_entropy",
    "haar_unitary",
    "random_pure_qubit_states",
]

# Dense algebra on more than 12 qubits (dim 4096) is a usage error.
MAX_DIM = 4096

HERMITIAN_TOL = 1e-12
# Eigenvalues below this contribute 0 to the entropy (continuity of x*log x).
ENTROPY_EIGENVALUE_CUTOFF = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULI_AXES = ("x", "y", "z")
PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

for _m in (PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)
del _m


# Input rules, shared by ``reservoir.HamiltonianSpec``, ``qelm.ShotModel``,
# ``harness.SweepConfig`` and the functions here that take a qubit count or an
# index: each resolver maps a value to its resolved form or raises ValueError.


def _is_integer(value) -> bool:
    """True for Python and numpy integers; booleans are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


def _is_real(value) -> bool:
    """True for Python and numpy reals; booleans are not numbers here."""
    return isinstance(value, numbers.Real) and not _is_bool(value)


def _count(value, minimum: int = 1, name: str = "") -> int:
    """``value`` as an int >= ``minimum``, not a boolean; the error starts with ``name``."""
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}".lstrip())
    return int(value)


def _finite(value, label: str = "each entry") -> float:
    if not _is_real(value) or not math.isfinite(value):
        raise ValueError(f"{label} must be a finite real number, got {value!r}")
    return float(value)


def _entries(value, bare=()) -> tuple:
    """The entries of a list, tuple or array; a value of a ``bare`` type is a one-entry list."""
    if isinstance(value, bare):
        return (value,)
    if not isinstance(value, (list, tuple, np.ndarray)) or not np.iterable(value):
        raise ValueError(f"must be a list, got {value!r}")
    return tuple(value)


def _interval(value) -> tuple:
    pair = tuple(_finite(x) for x in _entries(value))
    if len(pair) != 2 or pair[0] > pair[1]:
        raise ValueError(f"must be a [lo, hi] pair with lo <= hi, got {value!r}")
    return pair


def _register_dim(n_qubits, name: str, extra: int = 0) -> int:
    """``2 ** (n_qubits + extra)``, once the count is an integer >= 1 and the
    register fits ``MAX_DIM``: the one rule for a qubit count.

    ``name`` is the caller's parameter, and ``extra`` the input qubit where
    ``n_qubits`` counts the reservoir only. The register is compared with
    log2(MAX_DIM) before the power is built, so a huge count fails at once.
    """
    n_total = _count(n_qubits, name=name) + extra
    if n_total > math.log2(MAX_DIM):
        raise ValueError(f"{n_total} qubits exceed the dense-algebra cap (dim {MAX_DIM})")
    return 2**n_total


def _parse_member(cls, value, kind: str):
    """The member of the enum ``cls`` that ``value`` is, or whose exact value it is."""
    try:
        return cls(value)
    except ValueError:
        expected = ", ".join(m.value for m in cls)
        raise ValueError(f"unknown {kind} {value!r} (expected one of {expected})") from None


def require_hermitian(a: np.ndarray, name: str = "operator") -> None:
    """Raise ValueError unless ``a`` is a Hermitian matrix or a (..., d, d) stack of them."""
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    dev = float(np.max(np.abs(a - a.conj().swapaxes(-1, -2)), initial=0.0))
    if dev > HERMITIAN_TOL:
        raise ValueError(f"{name} is not Hermitian: max |A - A^dag| = {dev:.3e} > {HERMITIAN_TOL:.1e}")


def embed_pauli(axis: str, site: int, n_qubits: int) -> np.ndarray:
    """Pauli ``sigma_axis`` acting on ``site`` of an ``n_qubits`` register.

    Identity on every other site; qubit 0 is the leftmost tensor factor.
    """
    if axis not in PAULIS:
        raise ValueError(f"axis must be one of {PAULI_AXES}, got {axis!r}")
    _register_dim(n_qubits, "n_qubits")
    site = _count(site, minimum=0, name="site")
    if site >= n_qubits:
        raise ValueError(f"site {site} out of range for {n_qubits} qubits")
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


def herm_eig(a: np.ndarray) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Raises ``ValueError`` if the input violates Hermiticity, and propagates
    ``numpy.linalg.LinAlgError`` on convergence failure (no partial result is
    ever returned).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"operator must be a square matrix, got shape {a.shape}")
    require_hermitian(a)
    w, v = np.linalg.eigh(a)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def evolve_unitary(decomp: SpectralDecomposition, t: float) -> np.ndarray:
    """Propagator ``exp(-1j H t)`` from the eigendecomposition of H (hbar = 1)."""
    if not np.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return (decomp.eigenvectors * phases) @ decomp.eigenvectors.conj().T


def _input_columns(u: np.ndarray, n_reservoir: int) -> np.ndarray:
    """The (2^(N+1), 2) isometry through which ``u`` acts on the input qubit.

    With the reservoir in |0...0> and the input qubit last, the register's
    initial state lives on the first two basis vectors, so every input is
    carried by the first two columns of ``u``.
    """
    u = np.asarray(u)
    dim = _register_dim(n_reservoir, "n_reservoir", extra=1)
    if u.shape != (dim, dim):
        raise ValueError(f"unitary has shape {u.shape}, expected ({dim}, {dim})")
    return u[:, :2]


def partial_trace(rho: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """Trace out all qubits not listed in ``keep``.

    ``rho`` has dimension ``2**n_qubits``; the result is ordered by the sorted
    kept indices (qubit 0 = leftmost factor).
    """
    rho = np.asarray(rho)
    dim = _register_dim(n_qubits, "n_qubits")
    if rho.shape != (dim, dim):
        raise ValueError(f"rho has shape {rho.shape}, expected ({dim}, {dim})")
    kept = sorted({_count(q, minimum=0, name="keep entry") for q in keep})
    if not kept:
        raise ValueError("keep must be a nonempty set of qubit indices")
    if kept[-1] >= n_qubits:
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


def von_neumann_entropy(rho: np.ndarray, log_base=2) -> float:
    """Entropy ``-sum(w * log2(w))`` in bits over eigenvalues above
    ``ENTROPY_EIGENVALUE_CUTOFF``. ``log_base`` accepts only 2."""
    if not (isinstance(log_base, numbers.Real) and log_base == 2):
        raise ValueError(f"log_base must be 2, got {log_base!r}")
    rho = np.asarray(rho)
    if rho.ndim != 2:
        raise ValueError(f"rho must be a square matrix, got shape {rho.shape}")
    require_hermitian(rho, name="rho")
    w = np.linalg.eigvalsh(rho)
    w = w[w > ENTROPY_EIGENVALUE_CUTOFF]
    s = float(-(w * np.log(w)).sum()) / np.log(2.0) if w.size else 0.0
    return max(s, 0.0)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The diagonal of the triangular factor is phase-corrected so the result
    carries the group-invariant measure.
    """
    dim = _count(dim, name="dim")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    mag = np.abs(d)
    phases = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    return q * phases


def random_pure_qubit_states(rng: np.random.Generator, k: int) -> np.ndarray:
    """(k, 2, 2) stack of pure qubit states, Haar-uniform on the Bloch sphere.

    Each state takes four normals from ``rng``, the real pair before the
    imaginary one, so one draw of k states equals k draws of one. The squared
    norm is summed as two stacked dot products, which rounds as
    ``np.linalg.norm`` of one vector does.
    """
    g = rng.standard_normal((_count(k, name="k"), 2, 2))
    re, im = g[:, :1], g[:, 1:]
    norm = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]
    v = g[:, 0] + 1j * g[:, 1]
    v /= norm
    return v[:, :, None] * v.conj()[:, None, :]


def svd_pseudoinverse(m: np.ndarray):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values below ``1e-12 * max(m.shape) * sigma_max`` are zeroed.
    Returns the pair ``(pinv, singular_values)`` with singular values sorted
    descending.
    """
    m = np.asarray(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    smax = s[0] if s.size else 0.0
    cutoff = 1e-12 * max(m.shape) * smax
    inv = np.zeros_like(s)
    keep = s >= cutoff if cutoff > 0 else s > 0
    inv[keep] = 1.0 / s[keep]
    pinv = (vh.conj().T * inv) @ u.conj().T
    return pinv, s

