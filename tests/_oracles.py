"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written the slow, obvious way (power series,
explicit index sums, permutation matrices) so the tests never share a code
path with the package internals they check.
"""

import numpy as np


def series_unitary(h: np.ndarray, t: float, terms: int = 40) -> np.ndarray:
    """exp(-1j h t) by truncated power series."""
    dim = h.shape[0]
    acc = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for k in range(1, terms + 1):
        term = term @ (-1j * t * h) / k
        acc = acc + term
    return acc


def partial_trace_indexsum(rho: np.ndarray, n_qubits: int, keep) -> np.ndarray:
    """Partial trace by explicit summation over computational-basis indices."""
    kept = sorted(keep)
    traced = [q for q in range(n_qubits) if q not in kept]
    dk = 2 ** len(kept)
    dt = 2 ** len(traced)

    def full_index(kept_bits: int, traced_bits: int) -> int:
        idx = 0
        for pos, q in enumerate(kept):
            bit = (kept_bits >> (len(kept) - 1 - pos)) & 1
            idx |= bit << (n_qubits - 1 - q)
        for pos, q in enumerate(traced):
            bit = (traced_bits >> (len(traced) - 1 - pos)) & 1
            idx |= bit << (n_qubits - 1 - q)
        return idx

    out = np.zeros((dk, dk), dtype=complex)
    for i in range(dk):
        for j in range(dk):
            total = 0.0 + 0.0j
            for k in range(dt):
                total += rho[full_index(i, k), full_index(j, k)]
            out[i, j] = total
    return out


def swap_unitary(n_qubits: int, a: int, b: int) -> np.ndarray:
    """Permutation matrix exchanging qubits a and b (qubit 0 = leftmost)."""
    dim = 2**n_qubits
    u = np.zeros((dim, dim), dtype=complex)
    pa, pb = n_qubits - 1 - a, n_qubits - 1 - b
    for idx in range(dim):
        bit_a = (idx >> pa) & 1
        bit_b = (idx >> pb) & 1
        swapped = idx & ~(1 << pa) & ~(1 << pb)
        swapped |= bit_b << pa
        swapped |= bit_a << pb
        u[swapped, idx] = 1.0
    return u


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unitary from QR; good enough where only unitarity matters."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def bloch_density(rx: float, ry: float, rz: float) -> np.ndarray:
    return 0.5 * np.array([[1.0 + rz, rx - 1j * ry], [rx + 1j * ry, 1.0 - rz]], dtype=complex)


def full_space_z_features(u: np.ndarray, states, n_reservoir: int) -> np.ndarray:
    """Tr[(Z_j x I) u (|0...0><0...0| x rho) u^dag] per reservoir site j (rows)
    and input state rho (columns), with every operator built by ``np.kron``
    on the whole register and no partial trace."""
    z = np.diag([1.0, -1.0]).astype(complex)
    fiducial = np.zeros((2**n_reservoir, 2**n_reservoir), dtype=complex)
    fiducial[0, 0] = 1.0
    feats = np.empty((n_reservoir, len(states)))
    for k, rho in enumerate(states):
        out = u @ np.kron(fiducial, rho) @ u.conj().T
        for j in range(n_reservoir):
            z_j = np.kron(np.kron(np.eye(2**j), z), np.eye(2 ** (n_reservoir - j)))
            feats[j, k] = np.trace(z_j @ out).real
    return feats


def reservoir_probabilities(v01: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Reservoir outcome probabilities of one input state ``rho``: the
    diagonal of ``v01 rho v01^dag`` (input qubit last), summed over the input
    bit by an explicit loop."""
    diag = np.diag(v01 @ rho @ v01.conj().T).real
    return np.array([diag[2 * m] + diag[2 * m + 1] for m in range(diag.size // 2)])


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def hamiltonian_terms(spec):
    """Yield ``(sites, coefficient, string)`` for every term of ``spec``'s
    Hamiltonian, in the documented draw order, with coefficients drawn here.

    A fresh generator on ``spec.seed`` draws one ``uniform`` 3x3 block per
    reservoir edge (the chain's edges, then a ring's closing edge, or every
    k < j pair in row order), one (N, 3) block of local fields, then one 3x3
    block per input link (site 0, or every site in ascending order). ``sites``
    is ``(k, j)`` for a coupling (j = N for a link) and ``(k,)`` for a field.
    ``string`` is the dense Pauli product, each factor embedded by ``np.kron``
    one site at a time (qubit 0 leftmost).
    """
    n = spec.n_reservoir
    single = [
        [np.kron(np.kron(np.eye(2**site), p), np.eye(2 ** (n - site))) for p in _PAULIS] for site in range(n + 1)
    ]
    chain = [(k, k + 1) for k in range(n - 1)]
    edges = {"C": chain, "R": chain + [(0, n - 1)], "FC": [(k, j) for k in range(n) for j in range(k + 1, n)]}
    links = [(k, n) for k in ([0] if spec.scheme.value == "SL" else range(n))]
    rng = np.random.default_rng(spec.seed)
    for k, j in edges[spec.topology.value]:
        jmat = rng.uniform(*spec.j_range, size=(3, 3))
        yield from (((k, j), jmat[a, b], single[k][a] @ single[j][b]) for a in range(3) for b in range(3))
    fields = rng.uniform(*spec.delta_range, size=(n, 3))
    yield from (((k,), fields[k, a], single[k][a]) for k in range(n) for a in range(3))
    for k, j in links:
        jmat = rng.uniform(*spec.j_range, size=(3, 3))
        yield from (((k, j), jmat[a, b], single[k][a] @ single[j][b]) for a in range(3) for b in range(3))


def dense_hamiltonian(spec) -> np.ndarray:
    """The register Hamiltonian of ``spec``: the sum of ``hamiltonian_terms``.

    The coefficients come from one draw per block, not the package's one draw
    along its bitmask plan, and the strings from ``np.kron``. Each term adds
    the same exact values in the same order as the package does, so the two
    agree bit for bit.
    """
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for _, coeff, string in hamiltonian_terms(spec):
        h += coeff * string
    return h
