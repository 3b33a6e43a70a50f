import numpy as np
import pytest

from qelmsim import linalg as la
from qelmsim.harness import _otoc_per_pair_from_unitary
from qelmsim.reservoir import HamiltonianSpec, sample_hamiltonian
from qelmsim.scrambling import (
    _EIGENKETS,
    _holevo_from_columns,
    _qubit_entropies,
    averaged_otoc,
    local_channel,
    local_holevo_profile,
)

from _oracles import bloch_density, random_density, random_unitary, swap_unitary

# (plus, minus) eigenkets of each input Pauli, in the kernel's column order.
EIGENKETS = {axis: (_EIGENKETS[:, 2 * a], _EIGENKETS[:, 2 * a + 1]) for a, axis in enumerate(la.PAULI_AXES)}


class TestOtocPair:
    """Single (sigma_z reservoir site, input Pauli) correlators of ``averaged_otoc``."""

    def test_commuting_pair_is_zero(self):
        # swapping two reservoir sites moves sigma_z to the other reservoir
        # site, where it still commutes with every input Pauli
        result = averaged_otoc(swap_unitary(3, 0, 1), 2)
        assert np.max(np.abs(result.per_pair)) <= 1e-14

    def test_equal_paulis(self):
        # after a swap with the input qubit, A(t) is sigma_z on the input,
        # which commutes with itself
        assert averaged_otoc(swap_unitary(2, 0, 1), 1).per_pair[0, 2] == pytest.approx(0.0, abs=1e-14)

    def test_anticommuting_pair(self):
        # sz sx sz sx = -I on the input, so the correlator saturates its maximum of 2
        per_pair = averaged_otoc(swap_unitary(2, 0, 1), 1).per_pair
        assert per_pair[0, 0] == pytest.approx(2.0, abs=1e-14)
        assert per_pair[0, 1] == pytest.approx(2.0, abs=1e-14)

    def test_conjugation_invariance(self):
        # a unitary diagonal in the computational basis commutes with every
        # sigma_z, so applying it after u leaves each A_i(t) unchanged
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 8)
        base = averaged_otoc(u, 2).per_pair
        for _ in range(3):
            w = np.diag(np.exp(1j * rng.uniform(0.0, 2 * np.pi, 8)))
            assert np.max(np.abs(averaged_otoc(w @ u, 2).per_pair - base)) <= 1e-10

    def test_sign_flip_of_b_invariant(self):
        # quadratic in the static operator: applying a Pauli p on the input
        # before u conjugates each B_a into +-B_a, which leaves every pair unchanged
        u = random_unitary(np.random.default_rng(4), 8)
        base = averaged_otoc(u, 2).per_pair
        for axis in la.PAULI_AXES:
            flipped = averaged_otoc(u @ la.embed_pauli(axis, 2, 3), 2).per_pair
            assert np.max(np.abs(flipped - base)) <= 1e-12


class TestAveragedOtoc:
    def test_identity_dynamics_zero(self):
        result = averaged_otoc(np.eye(8, dtype=complex), 2)
        assert result.per_pair.shape == (2, 3)
        assert np.max(np.abs(result.per_pair)) <= 1e-12
        assert abs(result.averaged) <= 1e-12

    def test_two_qubit_closed_form(self):
        # H = sx (x) sx anticommutes with sz (x) I, so the Heisenberg operator
        # rotates as cos(2t) sz(x)I + sin(2t) sy(x)sx; tracing the products by
        # hand gives C_x = 0 and C_y = C_z = 1 - cos(4t).
        h = np.kron(la.PAULI_X, la.PAULI_X)
        decomp = la.herm_eig(h)
        for t in (0.0, 0.2, 0.7, 1.3):
            u = la.evolve_unitary(decomp, t)
            result = averaged_otoc(u, 1)
            expected = np.array([[0.0, 1.0 - np.cos(4 * t), 1.0 - np.cos(4 * t)]])
            assert np.max(np.abs(result.per_pair - expected)) <= 1e-10
            assert result.averaged == pytest.approx(2.0 * (1.0 - np.cos(4 * t)) / 3.0, abs=1e-10)

    def test_swap_with_input_per_site(self):
        # swapping reservoir site i with the input qubit makes A_i(t) sigma_z on
        # the input: it anticommutes with sigma_x and sigma_y (2) and commutes
        # with sigma_z (0); every other site's sigma_z commutes with the input
        for n in (2, 3):
            for i in range(n):
                expected = np.zeros((n, 3))
                expected[i] = (2.0, 2.0, 0.0)
                result = averaged_otoc(swap_unitary(n + 1, i, n), n)
                assert np.max(np.abs(result.per_pair - expected)) <= 1e-14

    @pytest.mark.parametrize(
        "call",
        [lambda u: averaged_otoc(u, 0), lambda u: local_channel(u, np.eye(2) / 2, 0, 0)],
        ids=["averaged_otoc", "local_channel"],
    )
    def test_rejects_empty_reservoir(self, call):
        with pytest.raises(ValueError, match="n_reservoir must be an integer >= 1, got 0"):
            call(np.eye(2, dtype=complex))

    def test_range_bounds(self):
        rng = np.random.default_rng(6)
        for _ in range(3):
            result = averaged_otoc(random_unitary(rng, 16), 3)
            assert np.all(result.per_pair >= -1e-12)
            assert np.all(result.per_pair <= 2.0 + 1e-12)

    def test_growth_from_zero_time(self):
        # small-time consistency for sampled couplings: tiny at t=1e-3 and
        # monotone over the first decade of times
        for seed in (0, 1, 2):
            ham = sample_hamiltonian(HamiltonianSpec(3, "C", "ML", seed=seed))
            decomp = la.herm_eig(ham.h_total)
            times = np.logspace(-3, -2, 6)
            values = [averaged_otoc(la.evolve_unitary(decomp, t), 3).averaged for t in times]
            assert values[0] <= 1e-4
            assert all(b > a for a, b in zip(values, values[1:]))


class TestHaarLimit:
    """The paper's long-time claim rests on the Haar ensemble: the RU draws
    must give the OTOC mean a Haar second moment fixes."""

    @pytest.mark.parametrize("n, draws", [(1, 4000), (2, 4000), (3, 2000)])
    def test_otoc_mean_matches_haar_second_moment(self, n, draws):
        # For traceless A, B with A^2 = B^2 = I on dimension d, Weingarten
        # calculus gives E[Tr(A U B U^dag A U B U^dag)] = -d/(d^2 - 1) (Collins
        # & Sniady 2006; Roberts & Yoshida 2017), so each per-pair OTOC, and
        # their mean, averages to 1 + 1/(d^2 - 1) over Haar U.
        dim = 2 ** (n + 1)
        rng = np.random.default_rng(5)
        vals = np.array([_otoc_per_pair_from_unitary(la.haar_unitary(dim, rng), n) for _ in range(draws)])
        expected = 1.0 + 1.0 / (dim**2 - 1)
        assert abs(vals.mean() - expected) <= 4 * vals.std(ddof=1) / np.sqrt(draws)


class TestLocalChannel:
    def test_identity(self):
        rng = np.random.default_rng(8)
        out = local_channel(np.eye(16, dtype=complex), random_density(rng, 2), 3, node=1)
        assert np.max(np.abs(out - np.diag([1.0, 0.0]))) <= 1e-14

    def test_swap_transfers_input(self):
        rho_in = bloch_density(0.2, 0.4, -0.1)
        for node in (0, 1, 2):
            u = swap_unitary(4, node, 3)
            out = local_channel(u, rho_in, 3, node=node)
            assert np.max(np.abs(out - rho_in)) <= 1e-13

    def test_channel_properties(self):
        rng = np.random.default_rng(9)
        u = random_unitary(rng, 16)
        out = local_channel(u, random_density(rng, 2), 3, node=2)
        assert abs(np.trace(out) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_node_out_of_range(self):
        with pytest.raises(ValueError, match="node"):
            local_channel(np.eye(16, dtype=complex), np.eye(2) / 2, 3, node=3)

    def test_input_state_must_be_2x2(self):
        with pytest.raises(ValueError, match="must be 2x2"):
            local_channel(np.eye(16, dtype=complex), np.eye(3) / 3, 3, node=0)


class TestLocalHolevoProfile:
    def test_identity_dynamics_zero(self):
        result = local_holevo_profile(np.eye(16, dtype=complex), 3)
        assert result.per_node_per_axis.shape == (3, 3)
        assert np.max(np.abs(result.per_node_per_axis)) <= 1e-10
        assert abs(result.averaged) <= 1e-10

    def test_swap_gives_one_bit_at_target_node(self):
        u = swap_unitary(4, 1, 3)
        result = local_holevo_profile(u, 3)
        # the swapped node receives the input perfectly: 1 bit on every axis
        assert np.allclose(result.per_node_per_axis[1], 1.0, atol=1e-10)
        assert result.per_node[1] == pytest.approx(1.0, abs=1e-10)
        for node in (0, 2):
            assert abs(result.per_node[node]) <= 1e-10

    def test_bounds_random_unitaries(self):
        rng = np.random.default_rng(10)
        for _ in range(3):
            result = local_holevo_profile(random_unitary(rng, 16), 3)
            assert np.all(result.per_node_per_axis >= -1e-10)
            assert np.all(result.per_node_per_axis <= 1.0 + 1e-10)

    def test_full_output_is_one_bit_and_bounds_nodes(self):
        # without any partial trace the sigma_z ensemble stays orthogonal and
        # pure, so its Holevo information is exactly 1 bit under any unitary;
        # a single node can never beat it
        rng = np.random.default_rng(11)
        u = random_unitary(rng, 16)
        plus, minus = EIGENKETS["z"]
        full_p = u[:, :2] @ plus
        full_m = u[:, :2] @ minus
        rho_p = np.outer(full_p, full_p.conj())
        rho_m = np.outer(full_m, full_m.conj())
        s_mix = la.von_neumann_entropy(0.5 * (rho_p + rho_m), 2)
        chi_full = s_mix - 0.5 * (la.von_neumann_entropy(rho_p, 2) + la.von_neumann_entropy(rho_m, 2))
        assert chi_full == pytest.approx(1.0, abs=1e-10)
        result = local_holevo_profile(u, 3)
        assert np.all(result.per_node_per_axis[:, 2] <= chi_full + 1e-10)

    def test_pauli_eigenstates_are_eigenstates(self):
        for axis, pauli in zip("xyz", (la.PAULI_X, la.PAULI_Y, la.PAULI_Z)):
            plus, minus = EIGENKETS[axis]
            assert np.max(np.abs(pauli @ plus - plus)) <= 1e-15
            assert np.max(np.abs(pauli @ minus + minus)) <= 1e-15


class TestHolevoKernel:
    """The batched kernel against per-matrix ``la.von_neumann_entropy`` in bits."""

    @pytest.mark.parametrize("kind", ["haar", "identity"])
    def test_matches_entropy_loop(self, kind):
        n = 3
        dim = 2 ** (n + 1)
        u = la.haar_unitary(dim, np.random.default_rng(20)) if kind == "haar" else np.eye(dim, dtype=complex)
        ref = np.empty((n, 3))
        for ai, axis in enumerate(la.PAULI_AXES):
            plus, minus = (np.outer(ket, ket.conj()) for ket in EIGENKETS[axis])
            for node in range(n):
                rho_p = local_channel(u, plus, n, node)
                rho_m = local_channel(u, minus, n, node)
                s_mix = la.von_neumann_entropy(0.5 * (rho_p + rho_m))
                s_p = la.von_neumann_entropy(rho_p)
                s_m = la.von_neumann_entropy(rho_m)
                ref[node, ai] = s_mix - 0.5 * (s_p + s_m)
        got = _holevo_from_columns(u[:, :2], n)
        assert np.max(np.abs(got.per_node_per_axis - ref)) <= 1e-13
        assert np.max(np.abs(got.per_node - ref.mean(axis=1))) <= 1e-13
        assert got.averaged == pytest.approx(ref.mean(), abs=1e-13)

    def test_closed_form_entropies(self):
        rng = np.random.default_rng(21)
        mixed = [random_density(rng, 2) for _ in range(20)]
        pure = la.random_pure_qubit_states(rng, 20)
        rhos = np.array(mixed + list(pure) + [np.eye(2, dtype=complex) / 2, np.diag([1.0, 0.0]).astype(complex)])
        ref = np.array([la.von_neumann_entropy(rho) for rho in rhos])
        got = _qubit_entropies(rhos.reshape(2, -1, 2, 2)).reshape(-1)
        assert np.max(np.abs(got - ref)) <= 1e-13
        assert got[-2] == pytest.approx(1.0, abs=1e-15)

    def test_rejects_non_hermitian_marginal(self):
        rhos = np.array([np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            _qubit_entropies(rhos)
