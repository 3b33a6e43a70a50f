"""Information-spreading diagnostics: averaged OTOCs and local Holevo profiles.

Both quantifiers live on the same (N+1)-qubit register as the estimation
pipeline: ``sigma_z`` on each reservoir site plays the role of the readout
operator, Paulis on the input qubit the role of the encoded degree of freedom.
Sweeps compute Holevo information through ``_holevo_from_columns``, once per
unit on the stack of its times; ``local_holevo_profile`` calls it on one
isometry. Sweeps record only the mean OTOC, which the closed-form kernel in
``harness`` computes from the Pauli twirl.
``averaged_otoc``, ``local_channel`` and ``linalg.von_neumann_entropy`` stay
dense references that sweeps do not call, because ``bench/bench_checks.py``
recomputes records through them; the tests compare the kernels with them
too. Every marginal goes through the same Hermiticity check as any other
operator (``linalg.require_hermitian``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg as la

__all__ = [
    "OtocResult",
    "HolevoResult",
    "averaged_otoc",
    "local_channel",
    "local_holevo_profile",
]

_SQRT_HALF = 1.0 / np.sqrt(2.0)
# Columns: the (plus, minus) eigenvectors of sigma_x, sigma_y, sigma_z.
_EIGENKETS = np.array(
    [[_SQRT_HALF, _SQRT_HALF, _SQRT_HALF, _SQRT_HALF, 1.0, 0.0],
     [_SQRT_HALF, -_SQRT_HALF, 1j * _SQRT_HALF, -1j * _SQRT_HALF, 0.0, 1.0]],
    dtype=complex,
)
_EIGENKETS.setflags(write=False)


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
    axes, ``averaged`` over the nodes. A stack of isometries adds its axes in front.
    """

    per_node_per_axis: np.ndarray
    per_node: np.ndarray
    averaged: float


def averaged_otoc(u: np.ndarray, n_reservoir: int) -> OtocResult:
    """OTOCs ``1 - Tr[A_i(t) B_a A_i(t) B_a] / 2^(N+1)`` of all (sigma_z on
    reservoir site i, input Pauli a) pairs, with A_i(t) = u^dag A_i u.

    Normalizing by the full register dimension keeps every correlator in [0, 2].
    """
    u = np.asarray(u)
    la._input_columns(u, n_reservoir)  # checks n_reservoir and the shape of u
    dim = u.shape[0]
    n_tot = n_reservoir + 1
    b_ops = [la.embed_pauli(axis, n_reservoir, n_tot) for axis in la.PAULI_AXES]
    per_pair = np.empty((n_reservoir, 3))
    for i in range(n_reservoir):
        a_t = u.conj().T @ la.embed_pauli("z", i, n_tot) @ u
        for ai, b in enumerate(b_ops):
            m = a_t @ b
            tr = np.einsum("ij,ji->", m, m)
            per_pair[i, ai] = 1.0 - tr.real / dim
    return OtocResult(per_pair=per_pair, averaged=float(per_pair.mean()))


def local_channel(u: np.ndarray, rho_in: np.ndarray, n_reservoir: int, node: int) -> np.ndarray:
    """Single-qubit state of reservoir ``node`` after evolving |0...0> x rho_in."""
    v01 = la._input_columns(u, n_reservoir)
    node = la._count(node, minimum=0, name="node")
    if node >= n_reservoir:
        raise ValueError(f"node {node} out of range for {n_reservoir} reservoir qubits")
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (2, 2):
        raise ValueError(f"input state must be 2x2, got shape {rho_in.shape}")
    out_full = (v01 @ rho_in) @ v01.conj().T
    return la.partial_trace(out_full, n_reservoir + 1, keep={node})


def _qubit_entropies(rhos: np.ndarray) -> np.ndarray:
    """Von Neumann entropies in bits of a (..., 2, 2) stack of qubit density
    matrices.

    Same Hermiticity check, eigenvalue cutoff and clamp at 0 as
    ``la.von_neumann_entropy``, with the 2x2 spectrum in closed form:
    ``tr/2 +- sqrt(((a - d)/2)^2 + |rho_10|^2)``.
    """
    la.require_hermitian(rhos, name="rho")
    a = rhos[..., 0, 0].real
    d = rhos[..., 1, 1].real
    half_tr = 0.5 * (a + d)
    radius = np.sqrt((0.5 * (a - d)) ** 2 + np.abs(rhos[..., 1, 0]) ** 2)
    w = np.stack([half_tr - radius, half_tr + radius], axis=-1)
    keep = w > la.ENTROPY_EIGENVALUE_CUTOFF
    s = -np.where(keep, w * np.log(np.where(keep, w, 1.0)), 0.0).sum(axis=-1)
    s /= np.log(2.0)
    return np.maximum(s, 0.0)


def _holevo_from_columns(v01: np.ndarray, n_reservoir: int) -> HolevoResult:
    """Holevo profile in bits from (..., 2^(N+1), 2) input-subspace isometries,
    each entry of a stack bit for bit as alone."""
    lead = v01.shape[:-2]
    phis = np.ascontiguousarray(np.swapaxes(v01 @ _EIGENKETS, -1, -2))
    # rhos[..., a, 0 | 1 | 2, node]: the marginals of the plus and minus kets
    # of axis a at that node, and their equal mixture.
    rhos = np.empty((*lead, 3, 3, n_reservoir, 2, 2), dtype=complex)
    for node in range(n_reservoir):
        psi = phis.reshape(*lead, 6, 2**node, 2, 2 ** (n_reservoir - node))
        marginals = np.einsum("...kabc,...kadc->...kbd", psi, psi.conj())
        rhos[..., :2, node, :, :] = marginals.reshape(*lead, 3, 2, 2, 2)
    rhos[..., 2, :, :, :] = 0.5 * (rhos[..., 0, :, :, :] + rhos[..., 1, :, :, :])
    s = _qubit_entropies(rhos)
    per = np.swapaxes(s[..., 2, :] - 0.5 * (s[..., 0, :] + s[..., 1, :]), -1, -2)
    per_node = per.mean(axis=-1)
    return HolevoResult(per_node_per_axis=per, per_node=per_node, averaged=per_node.mean(axis=-1))


def local_holevo_profile(u: np.ndarray, n_reservoir: int) -> HolevoResult:
    """Holevo information in bits per reservoir node for the three Pauli input
    ensembles.

    For each axis the input ensemble is the equiprobable pair of Pauli
    eigenstates; the channel evolves |0...0> x input by ``u`` and keeps a
    single node.
    """
    return _holevo_from_columns(la._input_columns(u, n_reservoir), n_reservoir)
