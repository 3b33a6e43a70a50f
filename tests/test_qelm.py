import re

import numpy as np
import pytest

from qelmsim import linalg as la
from qelmsim.qelm import (
    ShotMode,
    ShotModel,
    condition_number,
    mse,
    pauli_targets,
    predict,
    sample_features,
    train_readout,
)
from qelmsim.reservoir import HamiltonianSpec, sample_hamiltonian
from qelmsim.scrambling import local_holevo_profile

from _oracles import (
    bloch_density,
    full_space_z_features,
    random_density,
    random_unitary,
    reservoir_probabilities,
    swap_unitary,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


EXACT = ShotModel("exact")


class TestInputColumns:
    @pytest.mark.parametrize(
        "call",
        [
            lambda u, n: sample_features(u, [KET0], n, ShotModel("exact")),
            lambda u, n: local_holevo_profile(u, n),
        ],
        ids=["sample_features", "local_holevo_profile"],
    )
    def test_wrong_size_unitary_rejected(self, call):
        with pytest.raises(ValueError, match=r"unitary has shape \(8, 4\), expected \(8, 8\)"):
            call(np.eye(8, dtype=complex)[:, :4], 2)
        with pytest.raises(ValueError, match="n_reservoir must be an integer >= 1, got 0"):
            call(np.eye(2, dtype=complex), 0)
        with pytest.raises(ValueError, match="n_reservoir must be an integer >= 1, got 2.0"):
            call(np.eye(8, dtype=complex), 2.0)


class TestExactFeatures:
    def test_identity_rows_constant_one(self):
        states = [KET0, KET_PLUS, bloch_density(0.1, 0.2, -0.3)]
        feats = sample_features(np.eye(8, dtype=complex), states, 2, EXACT)
        assert feats.shape == (2, 3)
        assert np.max(np.abs(feats - 1.0)) <= 1e-13

    def test_swap_reads_input_z(self):
        u = swap_unitary(2, 0, 1)
        rho_in = bloch_density(0.0, 0.0, 0.3)
        feats = sample_features(u, [rho_in], 1, EXACT)
        assert feats[0, 0] == pytest.approx(0.3, abs=1e-13)

    def test_full_space_vs_marginal_oracle(self):
        # no-partial-trace oracle: Tr[(O_j x I) U rho_tot U^dag]
        rng = np.random.default_rng(2)
        u = random_unitary(rng, 8)
        states = [random_density(rng, 2) for _ in range(4)]
        feats = sample_features(u, states, 2, EXACT)
        assert np.max(np.abs(feats - full_space_z_features(u, states, 2))) <= 1e-12

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        u = random_unitary(rng, 8)
        states = [random_density(rng, 2) for _ in range(5)]
        feats = sample_features(u, states, 2, EXACT)
        perm = [3, 1, 4, 0, 2]
        feats_perm = sample_features(u, [states[p] for p in perm], 2, EXACT)
        assert np.max(np.abs(feats_perm - feats[:, perm])) <= 1e-14

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(4)
        u = random_unitary(rng, 16)
        states = [random_density(rng, 2) for _ in range(6)]
        feats = sample_features(u, states, 3, EXACT)
        assert np.all(np.abs(feats) <= 1.0 + 1e-9)


class TestSampleFeatures:
    def test_exact_mode_delegates(self):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 8)
        states = [random_density(rng, 2) for _ in range(3)]
        got = sample_features(u, states, 2, ShotModel("exact"))
        assert np.max(np.abs(got - full_space_z_features(u, states, 2))) <= 1e-14

    def test_large_sample_consistency(self):
        # CLT bound: 1e8 joint shots reproduce exact expectations to 5 SE
        rng = np.random.default_rng(6)
        u = random_unitary(rng, 8)
        states = [bloch_density(0.2, -0.4, 0.5), KET_PLUS]
        exact = full_space_z_features(u, states, 2)
        shots = 10**8
        sampled = sample_features(u, states, 2, ShotModel("joint_bitstrings", shots), np.random.default_rng(7))
        se = np.sqrt((1.0 - exact**2).clip(min=1e-12) / shots)
        assert np.all(np.abs(sampled - exact) <= 5 * se + 1e-12)

    def test_deterministic_marginal_gives_exact_one(self):
        # identity dynamics: reservoir stays |00>, so every sigma_z reads +1
        sampled = sample_features(
            np.eye(8, dtype=complex), [KET_PLUS], 2, ShotModel("joint_bitstrings", 17), np.random.default_rng(8)
        )
        assert np.array_equal(sampled, np.ones((2, 1)))

    def test_variance_matches_binomial_formula(self):
        rng = np.random.default_rng(9)
        u = random_unitary(rng, 4)
        state = bloch_density(0.3, 0.1, -0.2)
        v = full_space_z_features(u, [state], 1)[0, 0]
        shots = 400
        reps = 1000
        draws = np.empty(reps)
        srng = np.random.default_rng(10)
        model = ShotModel("joint_bitstrings", shots)
        for i in range(reps):
            draws[i] = sample_features(u, [state], 1, model, srng)[0, 0]
        expected_var = (1.0 - v**2) / shots
        assert abs(draws.var() - expected_var) <= 0.2 * expected_var

    def test_sampled_entries_within_unit_interval(self):
        rng = np.random.default_rng(13)
        u = random_unitary(rng, 8)
        states = [random_density(rng, 2) for _ in range(3)]
        sampled = sample_features(u, states, 2, ShotModel("joint_bitstrings", 50), np.random.default_rng(14))
        assert np.all(np.abs(sampled) <= 1.0)

    def test_negative_probability_rejected(self):
        # a corrupted input passes the cheap trace/hermiticity checks but its
        # negative weight survives into the reservoir marginal under a SWAP
        bad_state = np.diag([1.5, -0.5]).astype(complex)
        for states in ([bad_state], [KET0, KET_PLUS, bad_state]):
            with pytest.raises(ValueError, match="probability"):
                sample_features(
                    swap_unitary(2, 0, 1),
                    states,
                    1,
                    ShotModel("joint_bitstrings", 10),
                    np.random.default_rng(15),
                )

    def test_requires_rng(self):
        with pytest.raises(ValueError, match="generator"):
            sample_features(np.eye(4, dtype=complex), [KET0], 1, ShotModel("joint_bitstrings", 10))

    def test_multinomial_matches_explicit_bitstring_draws(self):
        # the joint mode draws multinomial counts; sampling M explicit
        # bitstrings and averaging gives the same law, checked on first and
        # second moments over many repetitions
        from qelmsim.qelm import _reservoir_basis_probs, _z_sign_matrix

        rng = np.random.default_rng(30)
        u = random_unitary(rng, 8)
        state = bloch_density(0.3, -0.2, 0.4)
        shots, reps = 500, 800
        model = ShotModel("joint_bitstrings", shots)
        srng = np.random.default_rng(31)
        ours = np.array([sample_features(u, [state], 2, model, srng)[:, 0] for _ in range(reps)])

        v01 = la._input_columns(u, 2)
        q = np.clip(_reservoir_basis_probs(v01, state), 0.0, None)
        q /= q.sum()
        signs = _z_sign_matrix(2)
        orng = np.random.default_rng(32)
        explicit = np.empty((reps, 2))
        for i in range(reps):
            draws = orng.choice(4, size=shots, p=q)
            explicit[i] = signs[:, draws].mean(axis=1)

        exact = signs @ q
        se = np.sqrt((1.0 - exact**2) / shots / reps)
        assert np.all(np.abs(ours.mean(axis=0) - explicit.mean(axis=0)) <= 8 * se)
        ratio = ours.var(axis=0) / explicit.var(axis=0)
        assert np.all((0.7 <= ratio) & (ratio <= 1.4))

    @pytest.mark.parametrize("mode", ["exact", "joint_bitstrings"])
    @pytest.mark.parametrize("n", [2, 5])
    def test_batched_features_match_per_state_loop(self, mode, n):
        # the batched kernel against one probability vector and one draw per
        # state, taking the generator stream in the same order
        from qelmsim.qelm import _features_from_columns, _reservoir_basis_probs, _z_sign_matrix

        rng = np.random.default_rng(40 + n)
        v01 = random_unitary(rng, 2 ** (n + 1))[:, :2]
        states = [*la.random_pure_qubit_states(rng, 20), random_density(rng, 2)]
        model = ShotModel(mode, 1000)
        got = _features_from_columns(v01, states, n, model, np.random.default_rng(41))

        signs = _z_sign_matrix(n)
        ref_rng = np.random.default_rng(41)
        ref = np.empty((n, len(states)))
        for k, rho in enumerate(states):
            q = _reservoir_basis_probs(v01, rho)
            if model.mode is ShotMode.EXACT:
                ref[:, k] = signs @ q
                continue
            q = np.clip(q, 0.0, None)
            q /= q.sum()
            ref[:, k] = (signs @ ref_rng.multinomial(model.shots, q)) / model.shots
        if model.mode is ShotMode.EXACT:
            assert np.max(np.abs(got - ref)) <= 1e-15
        else:
            assert np.array_equal(got, ref)

    def test_shot_model_validation(self):
        for shots in (0, None, [5], float("inf"), 2.5, True):
            with pytest.raises(ValueError, match="^shots must be an integer"):
                ShotModel("joint_bitstrings", shots)
        for shots in (1e6, 1000.0, np.float64(5)):  # an integral float is not an integer
            with pytest.raises(ValueError, match=f"^shots must be an integer >= 1, got {re.escape(repr(shots))}$"):
                ShotModel("joint_bitstrings", shots)
        assert ShotModel(ShotMode.JOINT_BITSTRINGS).mode is ShotMode.JOINT_BITSTRINGS
        for mode in ("joint", "independent_binomial", "EXACT"):
            with pytest.raises(ValueError, match="^unknown shot mode"):
                ShotModel(mode)
        assert ShotModel("exact").shots == 10**6


class TestReservoirProbabilities:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_affine_map_matches_dense_oracle(self, n):
        # the (k, 4) @ (4, 2^N) product against the diagonal of v01 rho v01^dag
        # summed over the input bit, for pure states, a mixed state, one (2, 2)
        # state and a (k, 2, 2) stack
        from qelmsim.qelm import _reservoir_basis_probs

        rng = np.random.default_rng(50 + n)
        v01 = random_unitary(rng, 2 ** (n + 1))[:, :2]
        kets = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        states = [np.outer(ket, ket.conj()) for ket in kets] + [random_density(rng, 2), bloch_density(0.2, -0.5, 0.1)]
        stack = _reservoir_basis_probs(v01, np.array(states))
        assert stack.shape == (len(states), 2**n)
        for k, rho in enumerate(states):
            ref = reservoir_probabilities(v01, rho)
            single = _reservoir_basis_probs(v01, rho)
            assert single.shape == (2**n,)
            assert np.max(np.abs(single - ref)) <= 1e-15
            assert np.max(np.abs(stack[k] - ref)) <= 1e-15


class TestPauliTargets:
    def test_known_states(self):
        targets = pauli_targets([KET0, KET_PLUS, np.eye(2, dtype=complex) / 2])
        assert np.allclose(targets[:, 0], [0.0, 0.0, 1.0], atol=1e-14)
        assert np.allclose(targets[:, 1], [1.0, 0.0, 0.0], atol=1e-14)
        assert np.allclose(targets[:, 2], [0.0, 0.0, 0.0], atol=1e-14)

    def test_column_norms(self):
        rng = np.random.default_rng(16)
        pure = la.random_pure_qubit_states(rng, 5)
        targets = pauli_targets(pure)
        norms = np.linalg.norm(targets, axis=0)
        assert np.all(norms <= 1.0 + 1e-9)
        assert np.all(np.abs(norms - 1.0) <= 1e-9)

    def test_rejects_non_qubit(self):
        with pytest.raises(ValueError, match="2x2"):
            pauli_targets([np.eye(4) / 4])
        with pytest.raises(ValueError, match="state 2 is not Hermitian"):
            pauli_targets([KET0, KET_PLUS, np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)])
        with pytest.raises(ValueError, match="state 1 must have unit trace"):
            pauli_targets([KET0, np.eye(2, dtype=complex)])

    def test_matches_per_state_traces(self):
        rng = np.random.default_rng(17)
        states = la.random_pure_qubit_states(rng, 50)
        ref = np.array(
            [[np.einsum("ij,ji->", la.PAULIS[axis], rho).real for rho in states] for axis in la.PAULI_AXES]
        )
        assert np.array_equal(pauli_targets(states), ref)


class TestTrainPredictMse:
    def test_identity_features(self):
        y = np.arange(9, dtype=float).reshape(3, 3)
        trained = train_readout(np.eye(3), y)
        assert np.max(np.abs(trained.w - y)) <= 1e-12

    def test_orthonormal_rows_exact_recovery(self):
        rng = np.random.default_rng(17)
        q = np.linalg.qr(rng.standard_normal((8, 8)))[0][:5]  # 5 orthonormal rows
        y = q[:3]
        trained = train_readout(q, y)
        expected = np.hstack([np.eye(3), np.zeros((3, 2))])
        assert np.max(np.abs(trained.w - expected)) <= 1e-10

    def test_noiseless_informationally_complete(self):
        # 7 evolved sigma_z readouts span the input Paulis at long times
        ham = sample_hamiltonian(HamiltonianSpec(7, "FC", "ML", seed=40))
        u = la.evolve_unitary(la.herm_eig(ham.h_total), 5.0)
        rng = np.random.default_rng(18)
        train = la.random_pure_qubit_states(rng, 50)
        feats = sample_features(u, train, 7, ShotModel("exact"))
        y = pauli_targets(train)
        trained = train_readout(feats, y)
        assert np.max(np.abs(trained.w @ feats - y)) <= 1e-8

    def test_singular_values_sorted(self):
        rng = np.random.default_rng(19)
        trained = train_readout(rng.standard_normal((4, 9)), rng.standard_normal((3, 9)))
        s = trained.singular_values
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_zero_readout_predicts_zero(self):
        trained = train_readout(np.zeros((2, 4)), np.zeros((3, 4)))
        assert np.max(np.abs(predict(trained, np.ones((2, 6))))) == 0.0

    def test_training_prediction_roundtrip(self):
        rng = np.random.default_rng(20)
        p = rng.standard_normal((4, 12))
        y = rng.standard_normal((3, 4)) @ p  # targets exactly in row space
        trained = train_readout(p, y)
        assert mse(y, predict(trained, p)) <= 1e-16

    def test_bias_only_affine(self):
        p = np.ones((1, 5))
        y = np.full((3, 5), 0.37)
        trained = train_readout(p, y)
        assert np.max(np.abs(predict(trained, np.ones((1, 2))) - 0.37)) <= 1e-12

    def test_residual_orthogonal_to_row_space(self):
        rng = np.random.default_rng(21)
        p = rng.standard_normal((5, 20))
        y = rng.standard_normal((3, 20))
        trained = train_readout(p, y)
        residual = trained.w @ p - y
        projector = la.svd_pseudoinverse(p)[0] @ p  # onto the row space of p
        assert np.max(np.abs(residual @ projector)) <= 1e-9

    def test_observable_relabeling_equivariance(self):
        rng = np.random.default_rng(22)
        p = rng.standard_normal((5, 10))
        y = rng.standard_normal((3, 10))
        trained = train_readout(p, y)
        perm = [4, 2, 0, 3, 1]
        w_perm = trained.w[:, perm]
        assert np.max(np.abs(w_perm @ p[perm] - trained.w @ p)) <= 1e-12

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="states"):
            train_readout(np.ones((2, 3)), np.ones((3, 4)))
        trained = train_readout(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="feature rows"):
            predict(trained, np.ones((5, 3)))


class TestMse:
    def test_identical(self):
        y = np.random.default_rng(23).standard_normal((3, 7))
        assert mse(y, y) == 0.0

    def test_single_state_definition(self):
        y = np.zeros((3, 1))
        pred = np.array([[0.1], [0.0], [0.0]])
        assert mse(y, pred) == pytest.approx(0.01)

    def test_two_states_definition(self):
        y = np.zeros((3, 2))
        pred = np.array([[0.1, 0.0], [0.0, 0.2], [0.0, 0.0]])
        assert mse(y, pred) == pytest.approx((0.01 + 0.04) / 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse(np.zeros((3, 2)), np.zeros((3, 3)))


class TestConditionNumber:
    def test_orthonormal_rows(self):
        q = np.linalg.qr(np.random.default_rng(24).standard_normal((6, 6)))[0][:3]
        assert condition_number(q) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert condition_number(np.diag([4.0, 1.0])) == pytest.approx(4.0)

    def test_infinite_sentinel(self):
        p = np.diag([1.0, 0.0])
        assert condition_number(p) == np.inf

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            condition_number(np.zeros((2, 2)))


class TestZeroTimeBehaviour:
    def test_constant_features_train_to_mean_predictor(self):
        rng = np.random.default_rng(25)
        train = la.random_pure_qubit_states(rng, 30)
        test = la.random_pure_qubit_states(rng, 30)
        u = np.eye(32, dtype=complex)
        feats_train = sample_features(u, train, 4, ShotModel("exact"))
        feats_test = sample_features(u, test, 4, ShotModel("exact"))
        assert np.max(np.abs(feats_train - feats_train[:, :1])) <= 1e-12  # identical columns
        y_train, y_test = pauli_targets(train), pauli_targets(test)
        trained = train_readout(feats_train, y_train)
        pred = predict(trained, feats_test)
        assert np.max(np.abs(pred - pred[:, :1])) <= 1e-9  # constant prediction
        # the constant is the training mean, so the MSE equals the spread
        # of the test targets around it
        mean_pred = y_train.mean(axis=1, keepdims=True)
        expected = float(((y_test - mean_pred) ** 2).sum(axis=0).mean())
        got = mse(y_test, pred)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got > 0.1


class TestShotNoiseScaling:
    def test_mse_halves_when_shots_double(self):
        # fixed dynamics in the shot-noise-dominated regime (signal singular
        # values well above the noise floor at these shot counts)
        ham = sample_hamiltonian(HamiltonianSpec(5, "FC", "ML", seed=40))
        u = la.evolve_unitary(la.herm_eig(ham.h_total), 5.0)
        rng = np.random.default_rng(26)
        train = la.random_pure_qubit_states(rng, 30)
        test = la.random_pure_qubit_states(rng, 30)
        y_train, y_test = pauli_targets(train), pauli_targets(test)
        srng = np.random.default_rng(27)
        medians = []
        for shots in (4000, 8000):
            model = ShotModel("joint_bitstrings", shots)
            errs = []
            for _ in range(120):
                p_train = sample_features(u, train, 5, model, srng)
                p_test = sample_features(u, test, 5, model, srng)
                trained = train_readout(p_train, y_train)
                errs.append(mse(y_test, predict(trained, p_test)))
            medians.append(np.median(errs))
        ratio = medians[0] / medians[1]
        assert 1.6 <= ratio <= 2.4
