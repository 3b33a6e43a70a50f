import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qelmsim import linalg as la
from qelmsim.scrambling import local_channel
from qelmsim.reservoir import edge_set, injection_sites

from _oracles import (
    partial_trace_indexsum,
    random_density,
    random_hermitian,
    random_unitary,
    series_unitary,
)


class TestEmbedPauli:
    def test_single_qubit(self):
        assert np.array_equal(la.embed_pauli("z", 0, 1), la.PAULI_Z)

    def test_site_one_of_two(self):
        assert np.array_equal(la.embed_pauli("x", 1, 2), np.kron(np.eye(2), la.PAULI_X))

    def test_square_trace(self):
        op = la.embed_pauli("y", 3, 5)
        assert np.trace(op @ op).real == pytest.approx(2**5)
        assert abs(np.trace(op)) < 1e-15

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            la.embed_pauli("x", 2, 2)
        with pytest.raises(ValueError, match="^site must be an integer >= 0, got -1$"):
            la.embed_pauli("x", -1, 2)
        with pytest.raises(ValueError, match="axis"):
            la.embed_pauli("w", 0, 2)


class TestHermEig:
    def test_pauli_z_spectrum(self):
        decomp = la.herm_eig(la.PAULI_Z)
        assert np.allclose(decomp.eigenvalues, [-1.0, 1.0])

    def test_pauli_x_eigenvectors(self):
        decomp = la.herm_eig(la.PAULI_X)
        assert np.allclose(decomp.eigenvalues, [-1.0, 1.0])
        minus, plus = decomp.eigenvectors[:, 0], decomp.eigenvectors[:, 1]
        # (|0> -/+ |1>)/sqrt(2) up to global phase
        assert abs(abs(minus @ np.array([1, -1]) / np.sqrt(2)) - 1) < 1e-12
        assert abs(abs(plus @ np.array([1, 1]) / np.sqrt(2)) - 1) < 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 8)
        decomp = la.herm_eig(h)
        rebuilt = (decomp.eigenvectors * decomp.eigenvalues) @ decomp.eigenvectors.conj().T
        scale = np.max(np.abs(h))
        assert np.max(np.abs(rebuilt - h)) <= 1e-10 * scale
        assert np.all(np.diff(decomp.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            la.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 2, 2)])
    def test_rejects_all_but_a_square_matrix(self, shape):
        a = np.zeros(shape)
        for fn in (la.herm_eig, la.von_neumann_entropy):
            with pytest.raises(ValueError, match="must be a square matrix"):
                fn(a)
        if len(shape) == 3:  # a stack of square matrices passes the Hermiticity check
            la.require_hermitian(a)
        else:
            with pytest.raises(ValueError, match="must be a square matrix"):
                la.require_hermitian(a)


class TestEvolveUnitary:
    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(9)
        decomp = la.herm_eig(random_hermitian(rng, 8))
        assert np.max(np.abs(la.evolve_unitary(decomp, 0.0) - np.eye(8))) <= 1e-12

    def test_pauli_z_quarter_period(self):
        decomp = la.herm_eig(la.PAULI_Z)
        u = la.evolve_unitary(decomp, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.max(np.abs(u - expected)) <= 1e-12

    def test_against_series(self):
        rng = np.random.default_rng(10)
        h = random_hermitian(rng, 16)
        u = la.evolve_unitary(la.herm_eig(h), 0.7)
        assert np.max(np.abs(u - series_unitary(h, 0.7, terms=40))) <= 1e-10

    def test_group_property(self):
        rng = np.random.default_rng(11)
        decomp = la.herm_eig(random_hermitian(rng, 8))
        for t1, t2 in [(0.3, 1.1), (-0.4, 2.2), (1.7, 1.7)]:
            lhs = la.evolve_unitary(decomp, t1) @ la.evolve_unitary(decomp, t2)
            rhs = la.evolve_unitary(decomp, t1 + t2)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_unitarity(self):
        rng = np.random.default_rng(12)
        u = la.evolve_unitary(la.herm_eig(random_hermitian(rng, 8)), 3.3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(8))) <= 1e-10

    def test_rejects_nonfinite_time(self):
        decomp = la.herm_eig(la.PAULI_Z)
        with pytest.raises(ValueError, match="finite"):
            la.evolve_unitary(decomp, np.inf)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(13)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        joint = np.kron(rho_a, rho_b)
        assert np.max(np.abs(la.partial_trace(joint, 2, {0}) - rho_a)) <= 1e-13
        assert np.max(np.abs(la.partial_trace(joint, 2, {1}) - rho_b)) <= 1e-13

    def test_bell_marginal(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert np.max(np.abs(la.partial_trace(rho, 2, {1}) - np.eye(2) / 2)) <= 1e-14

    def test_against_index_sum(self):
        rng = np.random.default_rng(14)
        rho = random_density(rng, 8)
        for keep in ({0}, {2}, {0, 1}, {0, 2}, {1, 2}):
            got = la.partial_trace(rho, 3, keep)
            want = partial_trace_indexsum(rho, 3, keep)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            rho = random_density(rng, 16)
            out = la.partial_trace(rho, 4, {1, 3})
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-10

    def test_errors(self):
        rho = np.eye(4) / 4
        with pytest.raises(ValueError, match="nonempty"):
            la.partial_trace(rho, 2, set())
        with pytest.raises(ValueError, match="outside"):
            la.partial_trace(rho, 2, {0, 5})
        with pytest.raises(ValueError, match="shape"):
            la.partial_trace(rho, 3, {0})


class TestEntropy:
    def test_pure_state(self):
        v = np.array([0.6, 0.8j])
        rho = np.outer(v, v.conj())
        assert la.von_neumann_entropy(rho, 2) <= 1e-10

    def test_maximally_mixed_qubit(self):
        assert la.von_neumann_entropy(np.eye(2) / 2, 2) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_hand_formula(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        expected = -(0.9 * np.log2(0.9) + 0.1 * np.log2(0.1))
        assert la.von_neumann_entropy(rho, 2) == pytest.approx(expected, abs=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(5):
            rho = random_density(rng, 8)
            u = random_unitary(rng, 8)
            s1 = la.von_neumann_entropy(rho, 2)
            s2 = la.von_neumann_entropy(u @ rho @ u.conj().T, 2)
            assert abs(s1 - s2) <= 1e-10

    def test_bounds(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 8)
        s = la.von_neumann_entropy(rho, 2)
        assert 0.0 <= s <= np.log2(8) + 1e-12

    def test_bad_base(self):
        # entropies are in bits only: no other base, nats included
        for base in (10, "e", np.e):
            with pytest.raises(ValueError, match="log_base must be 2, "):
                la.von_neumann_entropy(np.eye(2) / 2, base)


class TestHaarUnitary:
    def test_dim_one_unit_modulus(self):
        u = la.haar_unitary(1, np.random.default_rng(0))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_unitarity(self):
        u = la.haar_unitary(4, np.random.default_rng(1))
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-10

    def test_first_entry_moment(self):
        # |U_00|^2 is uniform on [0, 1] for dim 2, so mean 1/2, variance 1/12.
        rng = np.random.default_rng(2)
        n = 10**5
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs(la.haar_unitary(2, rng)[0, 0]) ** 2
        sigma = np.sqrt(1.0 / 12.0 / n)
        assert abs(vals.mean() - 0.5) <= 3 * sigma

    def test_left_invariance(self):
        # Fixed V times Haar U keeps the |entry|^2 moment at 1/dim.
        rng = np.random.default_rng(5)
        v = random_unitary(rng, 2)
        n = 2 * 10**4
        vals = np.empty(n)
        for i in range(n):
            vals[i] = abs((v @ la.haar_unitary(2, rng))[0, 0]) ** 2
        sigma = np.sqrt(1.0 / 12.0 / n)
        assert abs(vals.mean() - 0.5) <= 4 * sigma


class TestRandomPureQubit:
    def test_purity(self):
        [rho] = la.random_pure_qubit_states(np.random.default_rng(3), 1)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(rho) - 1.0) <= 1e-12

    def test_bloch_moments(self):
        rng = np.random.default_rng(4)
        n = 10**5
        paulis = np.stack([la.PAULI_X, la.PAULI_Y, la.PAULI_Z])
        bloch = np.einsum("aij,kji->ka", paulis, la.random_pure_qubit_states(rng, n)).real
        # mean Bloch vector -> 0 within 3 sigma; component variance is 1/3
        sigma_mean = np.sqrt(1.0 / 3.0 / n)
        assert np.all(np.abs(bloch.mean(axis=0)) <= 3 * sigma_mean)
        # E[<sigma_z>^2] = 1/3 for the uniform sphere; Var(z^2) = 1/5 - 1/9
        sigma_z2 = np.sqrt((1.0 / 5.0 - 1.0 / 9.0) / n)
        assert abs((bloch[:, 2] ** 2).mean() - 1.0 / 3.0) <= 3 * sigma_z2

    @pytest.mark.parametrize("seed", [0, 1, 7, 2024])
    @pytest.mark.parametrize("k", [1, 2, 5, 100])
    def test_batch_draw_equals_single_draws(self, seed, k):
        batch = la.random_pure_qubit_states(np.random.default_rng(seed), k)
        rng = np.random.default_rng(seed)
        singles = np.array([la.random_pure_qubit_states(rng, 1)[0] for _ in range(k)])
        assert batch.shape == (k, 2, 2)
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_batch_draw_rounds_as_a_vector_norm(self, seed):
        # The states one complex Gaussian pair at a time, normalized by
        # np.linalg.norm: seeded sweeps keep drawing these exact bits.
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(50):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            expected.append(np.outer(v, v.conj()))
        assert np.array_equal(la.random_pure_qubit_states(np.random.default_rng(seed), 50), expected)


class TestPseudoinverse:
    def test_identity(self):
        assert np.max(np.abs(la.svd_pseudoinverse(np.eye(5))[0] - np.eye(5))) <= 1e-12

    def test_diagonal_with_zero(self):
        out = la.svd_pseudoinverse(np.diag([2.0, 0.0]))[0]
        assert np.max(np.abs(out - np.diag([0.5, 0.0]))) <= 1e-12

    def test_moore_penrose_rectangular(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((5, 8))
        p = la.svd_pseudoinverse(m)[0]
        assert np.max(np.abs(m @ p @ m - m)) <= 1e-10

    def test_all_four_identities_full_rank(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        p = la.svd_pseudoinverse(m)[0]
        assert np.max(np.abs(m @ p @ m - m)) <= 1e-10
        assert np.max(np.abs(p @ m @ p - p)) <= 1e-10
        assert np.max(np.abs((m @ p).conj().T - m @ p)) <= 1e-10
        assert np.max(np.abs((p @ m).conj().T - p @ m)) <= 1e-10

    def test_rcond_truncates(self):
        # the fixed relative cutoff 1e-12 * max(shape) * sigma_max
        kept = la.svd_pseudoinverse(np.diag([1.0, 3e-12]))[0]
        assert kept[1, 1] == pytest.approx(1.0 / 3e-12)
        assert la.svd_pseudoinverse(np.diag([1.0, 1e-12]))[0][1, 1] == 0.0
        assert la.svd_pseudoinverse(np.diag([1e6, 1e-6]))[0][1, 1] == 0.0
        wide = np.zeros((2, 50))
        wide[0, 0], wide[1, 1] = 1.0, 3e-11
        assert la.svd_pseudoinverse(wide)[0][1, 1] == 0.0


class TestSingleBlasThread:
    def test_pins_one_thread_and_restores_the_callers_count(self):
        calls = la._openblas_threads()
        if calls is None:
            pytest.skip("no OpenBLAS thread setter found")
        get, put = calls
        original = get()
        try:
            put(2)
            with la.single_blas_thread() as pinned:
                assert pinned == 1 and get() == 1
            assert get() == 2
        finally:
            put(original)


class TestRegisterCap:
    @pytest.mark.parametrize(
        "call",
        [
            'HamiltonianSpec(10**30, "C", "SL")',
            'embed_pauli("z", 0, 10**30)',
            "partial_trace(np.eye(2), 10**30, [0])",
            'sample_features(np.eye(2), [np.eye(2) / 2], 10**30, ShotModel("exact"))',
            "averaged_otoc(np.eye(2), 10**30)",
            'edge_set("C", 10**30)',
            'injection_sites("ML", 10**30)',
        ],
    )
    def test_huge_count_fails_before_building_the_register(self, call):
        # In a child process: building 2 ** (10**30) never returns, and the
        # timeout turns that into a failure rather than a hung suite.
        code = (
            "import time\nimport numpy as np\nfrom qelmsim import *\nfrom qelmsim.reservoir import injection_sites\n"
            f"start = time.perf_counter()\ntry:\n    {call}\n"
            "except ValueError as exc:\n    print(time.perf_counter() - start, exc)\n"
        )
        src = Path(la.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
        assert done.returncode == 0 and done.stdout, done.stderr
        elapsed, message = done.stdout.split(" ", 1)
        assert float(elapsed) < 1.0
        assert "exceed the dense-algebra cap" in message

    @pytest.mark.parametrize("count", [2.0, True, 0], ids=["float", "bool", "zero"])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda n: edge_set("C", n), "n"),
            (lambda n: injection_sites("ML", n), "n"),
            (lambda n: injection_sites("SL", n), "n"),
            (lambda n: la.embed_pauli("z", 0, n), "n_qubits"),
            (lambda n: la.partial_trace(np.eye(2), n, [0]), "n_qubits"),
            (lambda n: la.haar_unitary(n, np.random.default_rng(0)), "dim"),
            (lambda n: la.random_pure_qubit_states(np.random.default_rng(0), n), "k"),
        ],
        ids=[
            "edge_set", "injection_sites-ML", "injection_sites-SL", "embed_pauli", "partial_trace", "haar_unitary",
            "random_pure_qubit_states",
        ],
    )
    def test_non_count_raises_naming_the_parameter(self, call, name, count):
        # one rule for every count: an integer >= 1, and a boolean is not one
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {re.escape(repr(count))}$"):
            call(count)


class TestIndexRule:
    @pytest.mark.parametrize("index", [1.5, True, -1], ids=["float", "bool", "negative"])
    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda i: la.embed_pauli("z", i, 3), "site"),
            (lambda i: la.partial_trace(np.eye(4) / 4, 2, [i]), "keep entry"),
            (lambda i: local_channel(np.eye(8, dtype=complex), np.eye(2) / 2, 2, i), "node"),
        ],
        ids=["embed_pauli", "partial_trace", "local_channel"],
    )
    def test_non_index_raises_naming_the_parameter(self, call, name, index):
        # an index follows the count rule with minimum 0 (a boolean is not an
        # integer); each caller then checks it against its register
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got {re.escape(repr(index))}$"):
            call(index)
