"""End-to-end check: one sweep record recomputed from scratch.

Every quantity of a single exact-mode record is rebuilt here with independent
routes -- the Hamiltonian from coefficients drawn block by block from the
record seed, via products of singly-embedded Paulis, the propagator via
scipy's Pade expm instead of the eigendecomposition, features via the
full-space trace formula without partial traces, the readout via numpy's
pinv, and the entropies from eigenvalues computed on explicitly reshaped
marginals.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from qelmsim import linalg as la
from qelmsim.harness import SweepConfig, derive_rng, run_time_sweep
from qelmsim.qelm import ShotModel
from qelmsim.reservoir import HamiltonianSpec

from _oracles import dense_hamiltonian

N = 3
T = 1.3
SEED = 424242


def scratch_marginal(rho_full, keep_qubit):
    # reshape-based single-qubit marginal of a 4-qubit density matrix
    r = rho_full.reshape((2,) * 8)
    axes_bra = [q for q in range(4) if q != keep_qubit]
    out = r
    for q in sorted(axes_bra, reverse=True):
        out = np.trace(out, axis1=q, axis2=q + out.ndim // 2)
    return out


def scratch_entropy_bits(rho):
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def test_full_record_against_scratch_recomputation():
    cfg = SweepConfig(
        n_reservoir=N,
        topologies=("C",),
        schemes=("SL",),
        time_grid=(T,),
        n_realizations=1,
        n_train=12,
        n_test=12,
        shot_model=ShotModel("exact"),
        master_seed=SEED,
    )
    record = run_time_sweep(cfg).records[0]

    h = dense_hamiltonian(HamiltonianSpec(N, "C", "SL", seed=record.seed))
    u = expm(-1j * h * T)

    state_rng = derive_rng(SEED, 1, N, 0, 0, 0)
    train = la.random_pure_qubit_states(state_rng, 12)
    test = la.random_pure_qubit_states(state_rng, 12)

    reservoir_zero = np.zeros((2**N, 2**N), dtype=complex)
    reservoir_zero[0, 0] = 1.0
    z_full = [np.kron(la.embed_pauli("z", j, N), np.eye(2)) for j in range(N)]

    def features(states):
        p = np.empty((N, len(states)))
        for k, rho_in in enumerate(states):
            rho_out = u @ np.kron(reservoir_zero, rho_in) @ u.conj().T
            for j in range(N):
                p[j, k] = np.trace(z_full[j] @ rho_out).real
        return p

    def targets(states):
        paulis = (la.PAULI_X, la.PAULI_Y, la.PAULI_Z)
        return np.array([[np.trace(s @ rho).real for rho in states] for s in paulis])

    p_train, p_test = features(train), features(test)
    w = targets(train) @ np.linalg.pinv(p_train)
    diff = targets(test) - w @ p_test
    scratch_mse = float(np.mean((diff * diff).sum(axis=0)))
    assert record.mse == pytest.approx(scratch_mse, rel=1e-9, abs=1e-12)

    s = np.linalg.svd(p_train, compute_uv=False)
    assert record.condition_number == pytest.approx(float(s[0] / s[-1]), rel=1e-9)

    dim = 2 ** (N + 1)
    total = 0.0
    for i in range(N):
        a_t = u.conj().T @ z_full[i] @ u
        for axis in (la.PAULI_X, la.PAULI_Y, la.PAULI_Z):
            b = np.kron(np.eye(2**N), axis)
            total += 1.0 - np.trace(a_t @ b @ a_t @ b).real / dim
    assert record.otoc_avg == pytest.approx(total / (3 * N), abs=1e-9)

    eigenstates = {
        "x": (np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)),
        "y": (np.array([1, 1j]) / np.sqrt(2), np.array([1, -1j]) / np.sqrt(2)),
        "z": (np.array([1, 0]), np.array([0, 1])),
    }
    per_node = np.zeros(N)
    for plus, minus in eigenstates.values():
        rho_p_full = u @ np.kron(reservoir_zero, np.outer(plus, plus.conj())) @ u.conj().T
        rho_m_full = u @ np.kron(reservoir_zero, np.outer(minus, minus.conj())) @ u.conj().T
        for node in range(N):
            rho_p = scratch_marginal(rho_p_full, node)
            rho_m = scratch_marginal(rho_m_full, node)
            chi = scratch_entropy_bits(0.5 * (rho_p + rho_m)) - 0.5 * (
                scratch_entropy_bits(rho_p) + scratch_entropy_bits(rho_m)
            )
            per_node[node] += chi / 3.0
    assert np.allclose(record.holevo_per_node, per_node, atol=1e-9)
    assert record.holevo_avg == pytest.approx(float(per_node.mean()), abs=1e-9)
