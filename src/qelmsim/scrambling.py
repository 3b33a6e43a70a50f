"""Information-spreading diagnostics: averaged OTOCs and local Holevo profiles.

Both quantifiers live on the same (N+1)-qubit register as the estimation
pipeline: ``sigma_z`` on each reservoir site plays the role of the readout
operator, Paulis on the input qubit the role of the encoded degree of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la

__all__ = [
    "OtocResult",
    "HolevoResult",
    "PAULI_EIGENSTATES",
    "heisenberg_evolve",
    "otoc_pair",
    "averaged_otoc",
    "local_channel",
    "local_holevo_profile",
]

_INVOLUTION_TOL = 1e-10

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# Columns: the (plus, minus) eigenvectors of sigma_x, sigma_y, sigma_z.
_EIGENKETS = np.array(
    [[_SQRT_HALF, _SQRT_HALF, _SQRT_HALF, _SQRT_HALF, 1.0, 0.0],
     [_SQRT_HALF, -_SQRT_HALF, 1j * _SQRT_HALF, -1j * _SQRT_HALF, 0.0, 1.0]],
    dtype=complex,
)
_EIGENKETS.setflags(write=False)
PAULI_EIGENSTATES = {axis: (_EIGENKETS[:, 2 * a], _EIGENKETS[:, 2 * a + 1]) for a, axis in enumerate(la.PAULI_AXES)}


@dataclass(frozen=True)
class OtocResult:
    """Per-(reservoir site, input axis) correlators and their plain average.

    ``per_pair[i, a]`` pairs sigma_z on reservoir site i with the a-th input
    Pauli (x, y, z order); each value lies in [0, 2] under the full-register
    trace normalization and vanishes at t = 0.
    """

    per_pair: np.ndarray
    averaged: float


@dataclass(frozen=True)
class HolevoResult:
    """Holevo information of each single-site reservoir marginal.

    ``per_node_per_axis[j, a]`` is computed for the equiprobable pair of
    eigenstates of the a-th input Pauli, ``per_node`` averages over the three
    axes, ``averaged`` over the nodes.
    """

    per_node_per_axis: np.ndarray
    per_node: np.ndarray
    averaged: float
    log_base: object = 2


def heisenberg_evolve(u: np.ndarray, o: np.ndarray) -> np.ndarray:
    """Heisenberg picture operator ``u^dag @ o @ u``."""
    u = np.asarray(u)
    o = np.asarray(o)
    if u.shape != o.shape or u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"shape mismatch: unitary {u.shape} vs operator {o.shape}")
    return u.conj().T @ o @ u


def otoc_pair(o_a_t: np.ndarray, o_b: np.ndarray, dim: int) -> float:
    """``1 - Tr[A B A B] / dim`` for Hermitian, involutory A and B.

    ``dim`` is the trace normalization (the operator dimension in the standard
    convention). The tiny imaginary residue of the trace is discarded. Inputs
    that are not Hermitian unitaries are rejected: the simplified commutator
    formula only holds for operators squaring to the identity.
    """
    o_a_t = np.asarray(o_a_t)
    o_b = np.asarray(o_b)
    if o_a_t.shape != o_b.shape or o_a_t.ndim != 2 or o_a_t.shape[0] != o_a_t.shape[1]:
        raise ValueError(f"operators must be square and equal-shaped: {o_a_t.shape} vs {o_b.shape}")
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    eye = np.eye(o_a_t.shape[0])
    for name, op in (("o_a_t", o_a_t), ("o_b", o_b)):
        la.require_hermitian(op, tol=_INVOLUTION_TOL, name=name)
        dev = float(np.max(np.abs(op @ op - eye)))
        if dev > _INVOLUTION_TOL:
            raise ValueError(f"{name} is not involutory: max |O^2 - I| = {dev:.3e}")
    m = o_a_t @ o_b
    tr = np.einsum("ij,ji->", m, m)
    return float(1.0 - tr.real / dim)


def averaged_otoc(u: np.ndarray, n_reservoir: int) -> OtocResult:
    """OTOCs of all (sigma_z reservoir site, input Pauli) pairs under ``u``.

    The trace term is normalized by the full register dimension 2^(N+1),
    keeping every correlator in [0, 2].
    """
    u = np.asarray(u)
    dim = 2 ** (n_reservoir + 1)
    if u.shape != (dim, dim):
        raise ValueError(f"unitary has shape {u.shape}, expected ({dim}, {dim})")
    n_tot = n_reservoir + 1
    b_ops = [la.embed_pauli(axis, n_reservoir, n_tot) for axis in la.PAULI_AXES]
    per_pair = np.empty((n_reservoir, 3))
    for i in range(n_reservoir):
        a_t = heisenberg_evolve(u, la.embed_pauli("z", i, n_tot))
        for ai, b in enumerate(b_ops):
            m = a_t @ b
            tr = np.einsum("ij,ji->", m, m)
            per_pair[i, ai] = 1.0 - tr.real / dim
    return OtocResult(per_pair=per_pair, averaged=float(per_pair.mean()))


def local_channel(u: np.ndarray, rho_in: np.ndarray, n_reservoir: int, node: int) -> np.ndarray:
    """Single-qubit state of reservoir ``node`` after evolving |0...0> x rho_in."""
    if not 0 <= node < n_reservoir:
        raise ValueError(f"node {node} out of range for {n_reservoir} reservoir qubits")
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (2, 2):
        raise ValueError(f"input state must be 2x2, got shape {rho_in.shape}")
    u = np.asarray(u)
    dim = 2 ** (n_reservoir + 1)
    if u.shape != (dim, dim):
        raise ValueError(f"unitary has shape {u.shape}, expected ({dim}, {dim})")
    v01 = u[:, :2]
    out_full = (v01 @ rho_in) @ v01.conj().T
    return la.partial_trace(out_full, n_reservoir + 1, keep={node})


def _qubit_entropies(rhos: np.ndarray, log_base=2) -> np.ndarray:
    """Von Neumann entropies of a (..., 2, 2) stack of qubit density matrices.

    Same Hermiticity check, eigenvalue cutoff and clamp at 0 as
    ``la.von_neumann_entropy``, with the 2x2 spectrum in closed form:
    ``tr/2 +- sqrt(((a - d)/2)^2 + |rho_10|^2)``.
    """
    if log_base != 2 and log_base not in ("e", np.e):
        raise ValueError(f"log_base must be 2 or 'e', got {log_base!r}")
    dev = float(np.max(np.abs(rhos - rhos.conj().swapaxes(-1, -2)), initial=0.0))
    if dev > la.HERMITIAN_TOL:
        raise ValueError(f"rho is not Hermitian: max |A - A^dag| = {dev:.3e} > {la.HERMITIAN_TOL:.1e}")
    a = rhos[..., 0, 0].real
    d = rhos[..., 1, 1].real
    half_tr = 0.5 * (a + d)
    radius = np.sqrt((0.5 * (a - d)) ** 2 + np.abs(rhos[..., 1, 0]) ** 2)
    w = np.stack([half_tr - radius, half_tr + radius], axis=-1)
    keep = w > la.ENTROPY_EIGENVALUE_CUTOFF
    s = -np.where(keep, w * np.log(np.where(keep, w, 1.0)), 0.0).sum(axis=-1)
    if log_base == 2:
        s /= np.log(2.0)
    return np.maximum(s, 0.0)


def _holevo_from_columns(v01: np.ndarray, n_reservoir: int, log_base=2) -> HolevoResult:
    """Holevo profile from the (2^(N+1), 2) input-subspace isometry."""
    phis = np.ascontiguousarray((v01 @ _EIGENKETS).T)
    # rhos[a, 0 | 1 | 2, node]: the marginals of the plus and minus kets of
    # axis a at that node, and their equal mixture.
    rhos = np.empty((3, 3, n_reservoir, 2, 2), dtype=complex)
    for node in range(n_reservoir):
        psi = phis.reshape(6, 2**node, 2, 2 ** (n_reservoir - node))
        rhos[:, :2, node] = np.einsum("kabc,kadc->kbd", psi, psi.conj()).reshape(3, 2, 2, 2)
    rhos[:, 2] = 0.5 * (rhos[:, 0] + rhos[:, 1])
    s = _qubit_entropies(rhos, log_base)
    per = (s[:, 2] - 0.5 * (s[:, 0] + s[:, 1])).T
    per_node = per.mean(axis=1)
    return HolevoResult(
        per_node_per_axis=per,
        per_node=per_node,
        averaged=float(per_node.mean()),
        log_base=log_base,
    )


def local_holevo_profile(u: np.ndarray, n_reservoir: int, log_base=2) -> HolevoResult:
    """Holevo information per reservoir node for the three Pauli input ensembles.

    For each axis the input ensemble is the equiprobable pair of Pauli
    eigenstates; the channel evolves |0...0> x input by ``u`` and keeps a
    single node. ``log_base`` 2 gives bits, "e" gives nats.
    """
    return _holevo_from_columns(la._input_columns(u, n_reservoir), n_reservoir, log_base)
