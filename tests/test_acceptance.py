"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

The ensemble-backed criteria share one module-scoped sweep (50 realizations per
topology/scheme at 7 reservoir qubits and 50 Haar draws, 10^6 joint-bitstring
shots), so the whole module runs in a few minutes. Criteria 3 and 6 are implemented exactly
as stated and are expected to fail: the reference values they encode follow
different scalar conventions than the definitions fixed here (per-entry mean
square error, and the ratio over the rank-4 signal spectrum); the printed
diagnostics quantify both. See the README for the analysis.
"""

import os

import numpy as np
import pytest

import qelmsim.harness as harness
from qelmsim import cli, linalg as la, qelm
from qelmsim.harness import SweepConfig, derive_rng, run_time_sweep
from qelmsim.qelm import ShotModel
from qelmsim.reservoir import CouplingScheme, HamiltonianSpec, Topology, sample_hamiltonian
from qelmsim.scrambling import averaged_otoc

from _oracles import partial_trace_indexsum, random_density, series_unitary, swap_unitary

ACCEPT_SEED = 20260808
THREADS = min(4, os.cpu_count() or 1)

TOPOLOGIES = ("C", "R", "FC")
SCHEMES = ("SL", "ML")


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\nACCEPTANCE {number} ({name}): {status}{suffix}")


def median_of(records, field, **filters):
    values = [
        getattr(r, field)
        for r in records
        if all(getattr(r, k) == v for k, v in filters.items())
    ]
    return float(np.median(values))


@pytest.fixture(scope="module")
def long_time_ensemble():
    """All six topology/scheme combinations at t=5, 50 realizations each, and
    50 Haar draws: ``(cfg, hamiltonian_records, haar_records)``."""
    cfg = SweepConfig(
        n_reservoir=7,
        time_grid=(5.0,),
        n_realizations=50,
        master_seed=ACCEPT_SEED,
        include_haar_baseline=True,
    )
    out = run_time_sweep(cfg, threads=THREADS)
    assert not out.failures
    haar = [r for r in out.records if r.topology == harness.HAAR_LABEL]
    records = [r for r in out.records if r.topology != harness.HAAR_LABEL]
    return cfg, records, haar


class TestCriterion1ZeroTime:
    def test_zero_time_analytics(self):
        ok = True
        details = []
        for topo, scheme, seed in (("C", "SL", 11), ("R", "ML", 12), ("FC", "ML", 13)):
            cfg = SweepConfig(
                n_reservoir=5,
                topologies=(topo,),
                schemes=(scheme,),
                time_grid=(0.0,),
                n_realizations=1,
                n_train=50,
                n_test=50,
                shot_model=ShotModel("exact"),
                master_seed=ACCEPT_SEED,
            )
            record = run_time_sweep(cfg).records[0]
            ham = sample_hamiltonian(HamiltonianSpec(5, topo, scheme, seed=record.seed))
            u0 = la.evolve_unitary(la.herm_eig(ham.h_total), 0.0)
            rng = np.random.default_rng(seed)
            states = la.random_pure_qubit_states(rng, 10)
            feats = qelm.sample_features(u0, states, 5, ShotModel("exact"))
            columns_identical = np.max(np.abs(feats - feats[:, :1])) <= 1e-12
            ok &= abs(record.otoc_avg) <= 1e-12
            ok &= max(abs(x) for x in record.holevo_per_node) <= 1e-10
            ok &= columns_identical
            ok &= record.mse > 0.1
            details.append(f"{topo}/{scheme}: otoc={record.otoc_avg:.1e} chi_max={max(record.holevo_per_node):.1e} mse={record.mse:.2f}")
        report(1, "zero-time analytics", ok, "; ".join(details))
        assert ok


class TestCriterion2NoiselessReconstruction:
    def test_exact_mode_mse(self):
        cfg = SweepConfig(
            n_reservoir=7,
            topologies=("FC",),
            schemes=("ML",),
            time_grid=(5.0,),
            n_realizations=20,
            shot_model=ShotModel("exact"),
            master_seed=ACCEPT_SEED,
        )
        out = run_time_sweep(cfg, threads=THREADS)
        worst = max(r.mse for r in out.records)
        ok = len(out.records) == 20 and worst <= 1e-10
        report(2, "noiseless reconstruction", ok, f"worst of 20 realizations: mse={worst:.3e}")
        assert ok


class TestCriterion3MseAsymptote:
    def test_mse_asymptote(self, long_time_ensemble):
        _, records, _ = long_time_ensemble
        pooled = median_of(records, "mse")
        per_combo = {
            (t, s): median_of(records, "mse", topology=t, scheme=s)
            for t in TOPOLOGIES
            for s in SCHEMES
        }
        ok = 0.9e-4 <= pooled <= 3.6e-4
        detail = (
            f"pooled median mse={pooled:.3e} vs band [0.9e-4, 3.6e-4]; "
            f"per-entry mean (mse/3)={pooled / 3:.3e}; per combo: "
            + ", ".join(f"{t}/{s}={v:.2e}" for (t, s), v in per_combo.items())
        )
        report(3, "mse asymptote", ok, detail)
        # The reference scalar 1.8e-4 is reproduced by the per-entry mean
        # (mse/3); under the 3-component-sum definition used here the median
        # sits ~1.5x above the stated band, so this assertion fails.
        assert ok, detail


class TestCriterion4OtocSaturation:
    def test_otoc_saturation(self, long_time_ensemble):
        _, records, _ = long_time_ensemble
        pooled = median_of(records, "otoc_avg")
        ok = 0.99 <= pooled <= 1.0
        per_combo = {
            (t, s): median_of(records, "otoc_avg", topology=t, scheme=s)
            for t in TOPOLOGIES
            for s in SCHEMES
        }
        # the alternative trace normalization doubles the deviation from 1,
        # i.e. 1 - C_alt = 2 (1 - C); record where it would land
        alt = 1.0 - 2.0 * (1.0 - pooled)
        detail = (
            f"pooled median C={pooled:.5f} (band [0.99, 1.0]); "
            f"reservoir-dim normalization would give {alt:.5f}; per combo: "
            + ", ".join(f"{t}/{s}={v:.4f}" for (t, s), v in per_combo.items())
        )
        report(4, "otoc saturation", ok, detail)
        assert ok, detail


class TestCriterion5HolevoSaturation:
    def test_holevo_saturation(self, long_time_ensemble):
        _, records, _ = long_time_ensemble
        per_node_bits = np.array([x for r in records for x in r.holevo_per_node])
        median_bits = float(np.median(per_node_bits))
        median_nats = median_bits * float(np.log(2.0))
        lo, hi = 0.4e-3, 8e-3
        in_band = {"base 2": lo <= median_bits <= hi, "base e": lo <= median_nats <= hi}
        paper_band = (1.3e-3, 3.7e-3)
        matches_reference = {
            "base 2": paper_band[0] <= median_bits <= paper_band[1],
            "base e": paper_band[0] <= median_nats <= paper_band[1],
        }
        ok = any(in_band.values())
        detail = (
            f"median per-node chi: {median_bits:.3e} bits / {median_nats:.3e} nats; "
            f"band [0.4e-3, 8e-3] hit by: {[k for k, v in in_band.items() if v]}; "
            f"reference value 2.5e-3 matched by: {[k for k, v in matches_reference.items() if v]}"
        )
        report(5, "holevo saturation", ok, detail)
        assert ok, detail


class TestCriterion6ConditionNumber:
    def test_condition_number(self, long_time_ensemble):
        cfg, records, _ = long_time_ensemble
        medians = {
            s: float(np.median([r.condition_number for r in records if r.scheme == s]))
            for s in SCHEMES
        }
        bands = {"SL": (2.4, 6.8), "ML": (2.7, 7.5)}
        ok = all(bands[s][0] <= medians[s] <= bands[s][1] for s in SCHEMES)

        # diagnostic: the ratio over the rank-4 signal spectrum (the feature
        # matrix is affine in the input Bloch vector, so only 4 singular
        # values carry signal; the rest sit on the shot-noise floor)
        sig_ratio = {s: [] for s in SCHEMES}
        for rec in records:
            if rec.realization_index >= 8:
                continue
            topo_i = harness._TOPOLOGIES.index(Topology.parse(rec.topology))
            scheme_i = harness._SCHEMES.index(CouplingScheme.parse(rec.scheme))
            ham = sample_hamiltonian(
                HamiltonianSpec(7, rec.topology, rec.scheme, seed=rec.seed)
            )
            eig = la.herm_eig(ham.h_total)
            v01 = la.evolve_unitary(eig, 5.0)[:, :2]
            srng = derive_rng(cfg.master_seed, 1, 7, topo_i, scheme_i, rec.realization_index)
            train = la.random_pure_qubit_states(srng, cfg.n_train)
            shot = derive_rng(cfg.master_seed, 2, 7, topo_i, scheme_i, rec.realization_index, 0)
            weights, coords = qelm._reservoir_weights(v01), qelm._state_coords(train)
            p = qelm._features_from_columns(weights, coords, 7, cfg.shot_model, shot)
            s = np.linalg.svd(p, compute_uv=False)
            sig_ratio[rec.scheme].append(s[0] / s[3])
        sig_medians = {s: float(np.median(v)) for s, v in sig_ratio.items()}
        detail = (
            f"median kappa(full spectrum): SL={medians['SL']:.1f}, ML={medians['ML']:.1f} "
            f"vs bands {bands}; signal-spectrum ratio s1/s4: "
            f"SL={sig_medians['SL']:.2f}, ML={sig_medians['ML']:.2f} "
            f"(these land in the reference bands 4.6+-1.1 / 5.1+-1.2)"
        )
        report(6, "condition number", ok, detail)
        # With sigma_max/sigma_min over the full spectrum the median sits on
        # the shot-noise floor (~1.7e2), far above the stated band, so this
        # assertion fails; the rank-4 signal ratio lands on the reference.
        assert ok, detail


class TestCriterion7HaarEquivalence:
    def test_baseline_band_overlap(self, long_time_ensemble):
        _, records, haar = long_time_ensemble

        def band(values):
            stats = harness.aggregate_stats(values)
            iqr = stats.q3 - stats.q1
            return stats.median - iqr, stats.median + iqr

        ru_band = band([r.mse for r in haar])
        ok = True
        details = [f"RU band [{ru_band[0]:.2e}, {ru_band[1]:.2e}]"]
        for topo in TOPOLOGIES:
            for scheme in SCHEMES:
                values = [r.mse for r in records if r.topology == topo and r.scheme == scheme]
                lo, hi = band(values)
                overlaps = max(lo, ru_band[0]) <= min(hi, ru_band[1])
                ok &= overlaps
                details.append(f"{topo}/{scheme} [{lo:.2e}, {hi:.2e}] {'ok' if overlaps else 'DISJOINT'}")
        report(7, "haar baseline equivalence", ok, "; ".join(details))
        assert ok


class TestCriterion8SizeSweep:
    def test_size_sweep_shape(self, long_time_ensemble):
        _, records, _ = long_time_ensemble
        n7_median = median_of(records, "mse", topology="C", scheme="SL")

        small_cfg = SweepConfig(
            n_reservoir=[2, 3],
            topologies=("C",),
            schemes=("SL",),
            time_grid=(5.0,),
            n_realizations=50,
            master_seed=ACCEPT_SEED,
        )
        small = run_time_sweep(small_cfg, threads=THREADS)
        ratios = {
            n: median_of(small.records, "mse", n_reservoir=n) / n7_median for n in (2, 3)
        }
        undersized_ok = all(ratio >= 100.0 for ratio in ratios.values())

        short_cfg = SweepConfig(
            n_reservoir=7,
            topologies=TOPOLOGIES,
            schemes=("SL",),
            time_grid=(0.25,),
            n_realizations=50,
            master_seed=ACCEPT_SEED,
        )
        short = run_time_sweep(short_cfg, threads=THREADS)
        short_medians = {t: median_of(short.records, "mse", topology=t) for t in TOPOLOGIES}
        ordering_ok = (
            short_medians["FC"] < short_medians["C"] and short_medians["FC"] < short_medians["R"]
        )

        ok = undersized_ok and ordering_ok
        detail = (
            f"t=5 medians vs n=7: n=2 x{ratios[2]:.0f}, n=3 x{ratios[3]:.0f} (need >= 100x); "
            f"t=0.25 SL medians: "
            + ", ".join(f"{t}={short_medians[t]:.2e}" for t in TOPOLOGIES)
            + f" (FC lowest: {ordering_ok})"
        )
        report(8, "size sweep shape", ok, detail)
        assert ok


class TestCriterion9ShotNoiseScaling:
    def test_log_log_slope(self):
        ham = sample_hamiltonian(HamiltonianSpec(7, "FC", "ML", seed=ACCEPT_SEED))
        u = la.evolve_unitary(la.herm_eig(ham.h_total), 5.0)
        rng = np.random.default_rng(ACCEPT_SEED)
        train = la.random_pure_qubit_states(rng, 50)
        test = la.random_pure_qubit_states(rng, 50)
        y_train = qelm.pauli_targets(train)
        y_test = qelm.pauli_targets(test)
        shots_grid = (10**4, 4 * 10**4, 16 * 10**4)
        reps = 200
        srng = np.random.default_rng(ACCEPT_SEED + 1)
        medians = []
        for shots in shots_grid:
            model = ShotModel("joint_bitstrings", shots)
            errs = np.empty(reps)
            for i in range(reps):
                p_train = qelm.sample_features(u, train, 7, model, srng)
                p_test = qelm.sample_features(u, test, 7, model, srng)
                trained = qelm.train_readout(p_train, y_train)
                errs[i] = qelm.mse(y_test, qelm.predict(trained, p_test))
            medians.append(np.median(errs))
        slope = np.polyfit(np.log(shots_grid), np.log(medians), 1)[0]
        ok = -1.2 <= slope <= -0.8
        report(
            9,
            "shot-noise scaling",
            ok,
            f"median mse at {shots_grid} = {[f'{m:.2e}' for m in medians]}, log-log slope {slope:.3f}",
        )
        assert ok


class TestCriterion10OracleSuite:
    def test_oracle_suite(self, tmp_path):
        rng = np.random.default_rng(1)
        checks = {}

        rho = random_density(rng, 8)
        checks["partial trace vs index sum"] = all(
            np.max(np.abs(la.partial_trace(rho, 3, keep) - partial_trace_indexsum(rho, 3, keep)))
            <= 1e-12
            for keep in ({0}, {1, 2}, {0, 2})
        )

        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = (a + a.conj().T) / 2
        u = la.evolve_unitary(la.herm_eig(h), 0.7)
        checks["evolution vs power series"] = np.max(np.abs(u - series_unitary(h, 0.7, 40))) <= 1e-10

        m = rng.standard_normal((5, 8))
        p = la.svd_pseudoinverse(m)[0]
        checks["moore-penrose identities"] = (
            np.max(np.abs(m @ p @ m - m)) <= 1e-10
            and np.max(np.abs(p @ m @ p - p)) <= 1e-10
            and np.max(np.abs((m @ p).conj().T - m @ p)) <= 1e-10
            and np.max(np.abs((p @ m).conj().T - p @ m)) <= 1e-10
        )

        v = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))[0]
        checks["entropy unitary invariance"] = (
            abs(
                la.von_neumann_entropy(v @ rho @ v.conj().T, 2)
                - la.von_neumann_entropy(rho, 2)
            )
            <= 1e-10
        )

        # a swap with the input qubit leaves sigma_z on the input: 2 against
        # the anticommuting sigma_x and sigma_y, 0 against sigma_z itself
        checks["otoc hand values"] = (
            np.max(np.abs(averaged_otoc(swap_unitary(2, 0, 1), 1).per_pair - [[2.0, 2.0, 0.0]])) <= 1e-10
            and abs(averaged_otoc(np.eye(8, dtype=complex), 2).averaged) <= 1e-12
        )

        cfg = SweepConfig(
            n_reservoir=2,
            topologies=("C",),
            schemes=("SL",),
            time_grid=(0.5, 2.0),
            n_realizations=2,
            n_train=5,
            n_test=5,
            shot_model=ShotModel("joint_bitstrings", 200),
            master_seed=8,
        )
        for sub in ("a", "b"):
            out = run_time_sweep(cfg)
            cli.emit_records(out, tmp_path / sub, cfg, "2024-01-01T00:00:00+00:00", "2024-01-01T00:00:01+00:00")
        checks["deterministic csv bodies"] = (tmp_path / "a" / "records.csv").read_bytes() == (
            tmp_path / "b" / "records.csv"
        ).read_bytes() and (tmp_path / "a" / "aggregates.csv").read_bytes() == (
            tmp_path / "b" / "aggregates.csv"
        ).read_bytes()

        ok = all(checks.values())
        report(10, "oracle suite", ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}" for k, v in checks.items()))
        assert ok


class TestSupplementaryTopologyConvergence:
    def test_long_time_bands_overlap_across_topologies(self, long_time_ensemble):
        # at t=5 the (q1, q3) mse bands of C, R, FC overlap within each scheme
        _, records, _ = long_time_ensemble
        for scheme in SCHEMES:
            bands = []
            for topo in TOPOLOGIES:
                stats = harness.aggregate_stats(
                    [r.mse for r in records if r.topology == topo and r.scheme == scheme]
                )
                bands.append((stats.q1, stats.q3))
            lo = max(b[0] for b in bands)
            hi = min(b[1] for b in bands)
            assert lo <= hi, f"{scheme}: disjoint topology bands {bands}"
