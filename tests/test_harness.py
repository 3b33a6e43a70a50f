import concurrent.futures
import dataclasses
import os
import threading
import time

import numpy as np
import pytest

import qelmsim.harness as harness
from qelmsim import _process
from qelmsim import linalg as la
from qelmsim import qelm, scrambling
from qelmsim.harness import (
    ConfigError,
    SweepConfig,
    aggregate_records,
    aggregate_stats,
    derive_rng,
    run_time_sweep,
)
from qelmsim.qelm import ShotMode, ShotModel
from qelmsim.reservoir import HamiltonianSpec, sample_hamiltonian
from qelmsim.scrambling import averaged_otoc, local_holevo_profile

from _oracles import full_space_z_features, swap_unitary


def small_config(**overrides):
    base = dict(
        n_reservoir=3,
        topologies=("C",),
        schemes=("SL",),
        time_grid=(0.0, 1.0, 5.0),
        n_realizations=2,
        n_train=10,
        n_test=10,
        shot_model=ShotModel("exact"),
        master_seed=31,
    )
    base.update(overrides)
    return SweepConfig(**base)


def fail_set_up_at_two(monkeypatch):
    """Make every n=2 Hamiltonian unit fail in its set-up, in this process."""
    original = harness.sample_hamiltonian

    def failing(spec):
        if spec.n_reservoir == 2:
            raise ValueError("synthetic set-up failure")
        return original(spec)

    monkeypatch.setattr(harness, "sample_hamiltonian", failing)


class CompletingPool:
    """Stands in for the process pool: hands out real futures and completes
    them in this process, last submitted first (only the last ``complete``
    of them when that is set). Its shutdown is recorded and honours
    ``cancel_futures``."""

    def __init__(self, complete=None):
        self.tasks, self.shutdowns, self.complete = [], [], complete
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def submit(self, fn, *args):
        self.tasks.append((concurrent.futures.Future(), fn, args))
        return self.tasks[-1][0]

    def _run(self):
        # as_completed puts a waiter on each future it waits for, all at
        # once and after the last submit, so from then on it sees every
        # completion in order. A consumer that never calls it still gets its
        # results after 5 s, so such a regression fails instead of hanging.
        deadline = time.monotonic() + 5.0
        while not self.tasks or not all(future._waiters for future, _, _ in self.tasks):
            if time.monotonic() > deadline:
                break
            time.sleep(0.001)
        for future, fn, args in list(reversed(self.tasks))[: self.complete]:
            if future.set_running_or_notify_cancel():
                try:
                    future.set_result(fn(*args))
                except BaseException as exc:
                    future.set_exception(exc)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))
        if cancel_futures:
            for future, _, _ in self.tasks:
                future.cancel()
        if wait:
            self.thread.join()


class TestSweepConfig:
    def test_defaults_match_headline_parameters(self):
        cfg = SweepConfig()
        assert cfg.n_reservoir == (7,)
        assert cfg.n_realizations == 500
        assert cfg.n_train == cfg.n_test == 50
        assert cfg.shot_model.shots == 10**6
        assert cfg.time_grid[0] == 0.0 and cfg.time_grid[-1] == 5.0 and len(cfg.time_grid) == 41
        assert cfg.j_range == (-1.0, 1.0)
        assert cfg.delta_range == (-0.1, 0.1)

    def test_rejects_nonincreasing_time_grid(self):
        with pytest.raises(ConfigError, match="time_grid"):
            small_config(time_grid=(0.0, 1.0, 1.0))

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError, match="n_realizations"):
            small_config(n_realizations=0)

    def test_rejects_oversized_reservoir(self):
        with pytest.raises(ConfigError, match="cap"):
            small_config(n_reservoir=15)

    def test_size_list_normalized(self):
        cfg = small_config(n_reservoir=[2, 3])
        assert cfg.n_reservoir == (2, 3)
        assert small_config(n_reservoir=3).n_reservoir == (3,)

    def test_string_size_rejected(self):
        with pytest.raises(ConfigError, match="n_reservoir"):
            small_config(n_reservoir="12")

    def test_bare_string_topology_and_scheme_rejected(self):
        # topologies and schemes take a list; a bare code is not one
        for field, value in (("topologies", "FC"), ("schemes", "ML")):
            with pytest.raises(ConfigError, match=f"^{field}: must be a list, got '{value}'$"):
                small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("topologies", {"C", "FC", "R"}),
            ("topologies", frozenset({"C"})),
            ("schemes", {"SL": 0, "ML": 1}.keys()),
            ("time_grid", {"a": 1.0, "b": 2.0}.values()),
            ("time_grid", b"abc"),
            ("time_grid", bytearray(b"abc")),
            ("n_reservoir", b"\x03"),
        ],
        ids=["set", "frozenset", "keys-view", "values-view", "bytes", "bytearray", "bytes-size"],
    )
    def test_unordered_and_byte_lists_rejected(self, field, value):
        # a set has no order (a set of strings iterates by the hash seed), and bytes iterate as integers
        with pytest.raises(ConfigError, match=f"^{field}: must be a list, got "):
            small_config(**{field: value})

    def test_as_dict_round_trips(self):
        cfg = small_config(n_reservoir=[2, 4], include_haar_baseline=True)
        data = cfg.as_dict()
        rebuilt = SweepConfig(**{**data, "shot_model": ShotModel(**data["shot_model"])})
        assert rebuilt == cfg

    def test_file_forms_accepted(self):
        cfg = small_config(n_reservoir=[2, 4], include_haar_baseline=True)
        assert SweepConfig(**cfg.as_dict()) == cfg
        cfg = small_config(time_grid={"start": 0, "stop": 2, "points": 5}, shot_model={"mode": "exact"})
        assert cfg.time_grid == (0.0, 0.5, 1.0, 1.5, 2.0)
        assert cfg.shot_model == ShotModel(ShotMode.EXACT)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(SweepConfig)])
    def test_every_field_resolves_or_names_itself(self, field):
        for value in (None, True, 0, 1.5, "1", "s", [], [1, 2, 3], {}):
            try:
                SweepConfig(**{field: value})
            except ConfigError as exc:
                assert field in str(exc), (value, str(exc))


class TestAggregateStats:
    def test_singleton(self):
        stats = aggregate_stats([1.0])
        assert stats.median == stats.q1 == stats.q3 == 1.0
        assert stats.n == 1

    def test_linear_interpolation_convention(self):
        stats = aggregate_stats([1.0, 2.0, 3.0, 4.0])
        assert stats.median == pytest.approx(2.5)
        assert stats.q1 == pytest.approx(1.75)
        assert stats.q3 == pytest.approx(3.25)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        values = rng.standard_normal(31)
        s1 = aggregate_stats(values)
        s2 = aggregate_stats(rng.permutation(values))
        assert s1 == s2

    def test_ordering_invariant(self):
        stats = aggregate_stats(np.random.default_rng(1).standard_normal(20))
        assert stats.q1 <= stats.median <= stats.q3

    def test_bitwise_equal_to_numpy_on_finite_values(self):
        rng = np.random.default_rng(2)
        for size in range(1, 60):
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20)
            if size % 3 == 0:
                values = np.round(values, 1)  # ties
            q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
            stats = aggregate_stats(values)
            assert (stats.q1, stats.median, stats.q3) == (q1, median, q3)

    @pytest.mark.parametrize(
        "values, expected",
        [
            ([1.0, 2.0, np.inf], (1.5, 2.0, np.inf)),
            ([1.0, np.inf], (np.inf, np.inf, np.inf)),
            ([np.inf], (np.inf, np.inf, np.inf)),
            ([-np.inf, 1.0, 2.0, 3.0, 4.0], (1.0, 2.0, 3.0)),
            ([-np.inf, 1.0], (-np.inf, -np.inf, -np.inf)),
        ],
    )
    def test_limit_next_to_infinite_values(self, values, expected):
        stats = aggregate_stats(values)
        assert (stats.q1, stats.median, stats.q3) == expected

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_stats([])

    def test_nan_gives_nan(self):
        stats = aggregate_stats([1.0, np.nan])
        assert np.isnan([stats.q1, stats.median, stats.q3]).all() and stats.n == 2


class TestSweeps:
    def test_zero_time_analytics(self):
        record = run_time_sweep(small_config(time_grid=(0.0,), n_realizations=1)).records[0]
        assert abs(record.otoc_avg) <= 1e-12
        assert abs(record.holevo_avg) <= 1e-10
        assert record.mse > 0.1

    def test_record_count(self):
        out = run_time_sweep(small_config())
        assert len(out.records) == 2 * 1 * 3  # realizations x combos x times
        assert not out.failures
        keys = {(r.realization_index, r.topology, r.scheme, r.n_reservoir, r.time) for r in out.records}
        assert len(keys) == len(out.records)

    def test_determinism_across_worker_counts(self):
        cfg = small_config(n_realizations=3, shot_model=ShotModel("joint_bitstrings", 200))
        serial = run_time_sweep(cfg, threads=1)
        parallel = run_time_sweep(cfg, threads=3)
        assert serial == parallel
        cfg = dataclasses.replace(cfg, include_haar_baseline=True)
        assert run_time_sweep(cfg, threads=1) == run_time_sweep(cfg, threads=3)

    def test_unit_reruns_from_its_key(self, monkeypatch):
        """A sweep lists each unit key once, and ``_run_unit(cfg, key)`` alone
        returns the records and failures the sweep reports for that unit."""
        original = harness._propagator_columns

        def flaky(eig, t):
            if t == 1.0:
                raise FloatingPointError("synthetic mid-grid failure")
            return original(eig, t)

        monkeypatch.setattr(harness, "_propagator_columns", flaky)
        cfg = small_config(
            n_reservoir=[2, 3], schemes=("SL", "ML"), shot_model=ShotModel("joint_bitstrings", 100),
            include_haar_baseline=True,
        )
        keys = harness._units(cfg)
        assert len(set(keys)) == len(keys) == 2 * 2 * 2 + 2 * 2  # sizes x schemes x realizations, plus Haar
        out = run_time_sweep(cfg)
        for key, labels, counts in (((3, 0, 1, 1), ("C", "ML"), (2, 1)), ((2, 3, 2, 1), ("RU", "RU"), (1, 0))):
            assert key in keys
            unit = (key[0], *labels, key[3])
            expected = tuple(
                [r for r in rows if (r.n_reservoir, r.topology, r.scheme, r.realization_index) == unit]
                for rows in (out.records, out.failures)
            )
            assert tuple(map(len, expected)) == counts
            assert harness._run_unit(cfg, key) == expected

    def test_pool_never_exceeds_one_worker_per_unit(self, monkeypatch):
        seen = []
        ham, haar = "_hamiltonian_unit", "_haar_unit"

        class RecordingPool(CompletingPool):
            """Records its size, then at shutdown each unit's kind and size in
            submission order and the length of each chunk."""

            def __init__(self, max_workers, initializer):
                seen.append((max_workers, initializer))
                super().__init__()

            def shutdown(self, wait=True, cancel_futures=False):
                super().shutdown(wait, cancel_futures)
                chunks = [args[1] for _, _, args in self.tasks]
                units = [(haar if key[1:3] == (3, 2) else ham, key[0]) for keys in chunks for key in keys]
                seen.append((units, [len(keys) for keys in chunks]))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        assert 1 <= _process.usable_cpus() <= (os.cpu_count() or 1)
        monkeypatch.setattr(_process, "usable_cpus", lambda: 64)
        cfg = small_config()  # 2 units: 2 realizations of one topology and scheme
        assert run_time_sweep(cfg, threads=64) == run_time_sweep(cfg, threads=1)
        assert seen == [(2, _process.sweep_process), ([(ham, 3)] * 2, [1, 1])]
        seen.clear()
        cfg = small_config(include_haar_baseline=True)  # plus 2 Haar units, in the same pool
        assert run_time_sweep(cfg, threads=64) == run_time_sweep(cfg, threads=1)
        assert seen == [(4, _process.sweep_process), ([(ham, 3)] * 2 + [(haar, 3)] * 2, [1] * 4)]
        seen.clear()
        # largest size first, Haar units after the Hamiltonian units of their size
        cfg = small_config(n_reservoir=[2, 3], include_haar_baseline=True)
        assert run_time_sweep(cfg, threads=2) == run_time_sweep(cfg, threads=1)
        order = [(ham, 3)] * 2 + [(haar, 3)] * 2 + [(ham, 2)] * 2 + [(haar, 2)] * 2
        assert seen == [(2, _process.sweep_process), (order, [1] * 8)]
        seen.clear()
        # a chunk holds at most 16 units
        cfg = small_config(n_realizations=200, time_grid=(1.0,))
        assert run_time_sweep(cfg, threads=2) == run_time_sweep(cfg, threads=1)
        assert seen == [(2, _process.sweep_process), ([(ham, 3)] * 200, [16] * 12 + [8])]
        seen.clear()
        # never more workers than usable CPUs, and no pool on one CPU
        cfg = small_config(include_haar_baseline=True)  # 4 units
        monkeypatch.setattr(_process, "usable_cpus", lambda: 2)
        assert run_time_sweep(cfg, threads=64) == run_time_sweep(cfg, threads=1)
        assert seen == [(2, _process.sweep_process), ([(ham, 3)] * 2 + [(haar, 3)] * 2, [1] * 4)]
        seen.clear()
        monkeypatch.setattr(_process, "usable_cpus", lambda: 1)
        assert run_time_sweep(cfg, threads=64) == run_time_sweep(cfg, threads=1)
        assert seen == []

    def test_units_are_yielded_as_their_chunks_finish(self, monkeypatch):
        pools = []

        class Pool(CompletingPool):
            def __init__(self, max_workers, initializer):
                pools.append(self)
                super().__init__()

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(_process, "usable_cpus", lambda: 2)
        cfg = small_config(n_reservoir=[2, 3], n_realizations=5, time_grid=(1.0,))  # 10 units, chunks of 1
        units = harness._units(cfg)
        got = [key for key, _ in harness._map_units(cfg, units, threads=2)]
        (pool,) = pools
        submitted = [args[1] for _, _, args in pool.tasks]
        assert len(submitted) == 10 and sorted(got) == sorted(units)
        assert got == [key for keys in reversed(submitted) for key in keys]  # last chunk finished first
        assert pool.shutdowns == [(True, True)]

    def test_stopping_early_cancels_the_chunks_not_started(self, monkeypatch):
        pools = []

        class Pool(CompletingPool):
            def __init__(self, max_workers, initializer):
                pools.append(self)
                super().__init__(complete=1)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(_process, "usable_cpus", lambda: 2)
        cfg = small_config(n_realizations=8)
        outcomes = harness._map_units(cfg, harness._units(cfg), threads=2)
        _, (records, failures) = next(outcomes)
        assert len(records) == 3 and not failures
        (pool,) = pools
        assert pool.shutdowns == []
        outcomes.close()
        assert pool.shutdowns == [(True, True)]
        assert [future.cancelled() for future, _, _ in pool.tasks] == [True] * 7 + [False]

    def test_worker_initializer_pins_blas_and_keeps_freed_heap(self, monkeypatch):
        blas = _process.openblas()
        if blas is None:
            pytest.skip("no OpenBLAS thread setter found")
        get, put = blas.get_threads, blas.set_threads
        settings = []

        class Libc:
            def __init__(self, name):
                self.mallopt = lambda param, value: settings.append((param, value)) or 1

        monkeypatch.setattr(_process.ctypes, "CDLL", Libc)
        original = get()
        try:
            put(2)
            assert _process.sweep_process() is True
            assert get() == 1
        finally:
            put(original)
        assert settings == [(-3, 4 << 20), (-1, 256 << 20)]

    def test_caller_blas_threads_restored(self, monkeypatch):
        blas = _process.openblas()
        if blas is None:
            pytest.skip("no OpenBLAS thread setter found")
        get, put = blas.get_threads, blas.set_threads
        during = []
        original = harness.sample_hamiltonian

        def sample(spec):
            during.append(get())
            if spec.seed == interrupt_at:
                raise KeyboardInterrupt
            return original(spec)

        monkeypatch.setattr(harness, "sample_hamiltonian", sample)
        cfg = small_config(n_realizations=3)
        before = get()
        try:
            put(2)
            interrupt_at = None
            assert len(run_time_sweep(cfg).records) == 9
            assert get() == 2 and during == [1, 1, 1]
            interrupt_at = harness._derived_seed(cfg.master_seed, 0, 3, 0, 0, 1)  # the second unit
            with pytest.raises(KeyboardInterrupt):
                run_time_sweep(cfg)
            assert get() == 2 and during == [1] * 5
        finally:
            put(before)

    @pytest.mark.parametrize("threads", [2.5, "2", 0, -3, True])
    def test_threads_must_be_a_count(self, monkeypatch, threads):
        monkeypatch.setattr(_process, "usable_cpus", lambda: 8)
        with pytest.raises(ValueError, match=f"^threads must be an integer >= 1, got {threads!r}$"):
            run_time_sweep(small_config(), threads=threads)

    def test_rerun_bit_identical(self):
        cfg = small_config(shot_model=ShotModel("joint_bitstrings", 500))
        assert run_time_sweep(cfg) == run_time_sweep(cfg)

    def test_seed_streams_distinct(self):
        cfg = small_config(n_reservoir=[2, 3], topologies=("C", "FC"), schemes=("SL", "ML"), n_realizations=2)
        prefixes = set()
        count = 0
        for kind in (0, 1, 2):
            for n in cfg.n_reservoir:
                for ti in range(len(cfg.topologies)):
                    for si in range(len(cfg.schemes)):
                        for r in range(cfg.n_realizations):
                            rng = derive_rng(cfg.master_seed, kind, n, ti, si, r)
                            prefixes.add(tuple(rng.integers(0, 2**63, 4).tolist()))
                            count += 1
        assert len(prefixes) == count

    def test_fast_path_matches_reference_ops(self):
        # the eigendecomposition-reuse path must agree with re-exponentiating
        # and composing the public operations at every grid point
        cfg = small_config(topologies=("R",), schemes=("ML",), n_realizations=1, time_grid=(0.4, 2.9))
        out = run_time_sweep(cfg)
        seed = harness._derived_seed(cfg.master_seed, 0, 3, 1, 1, 0)
        ham = sample_hamiltonian(HamiltonianSpec(3, "R", "ML", seed=seed))
        decomp = la.herm_eig(ham.h_total)
        state_rng = derive_rng(cfg.master_seed, 1, 3, 1, 1, 0)
        train = la.random_pure_qubit_states(state_rng, cfg.n_train)
        test = la.random_pure_qubit_states(state_rng, cfg.n_test)
        for record, t in zip(out.records, cfg.time_grid):
            u = la.evolve_unitary(decomp, t)
            p_train = full_space_z_features(u, train, 3)
            p_test = full_space_z_features(u, test, 3)
            trained = qelm.train_readout(p_train, qelm.pauli_targets(train))
            ref_mse = qelm.mse(qelm.pauli_targets(test), qelm.predict(trained, p_test))
            assert record.mse == pytest.approx(ref_mse, abs=1e-10)
            assert record.condition_number == pytest.approx(qelm.condition_number(p_train), abs=1e-8)
            assert record.otoc_avg == pytest.approx(averaged_otoc(u, 3).averaged, abs=1e-10)
            profile = local_holevo_profile(u, 3)
            assert record.holevo_avg == pytest.approx(profile.averaged, abs=1e-10)
            assert np.allclose(record.holevo_per_node, profile.per_node, atol=1e-10)

    def test_stage_call_counts_per_record_and_unit(self, monkeypatch):
        """Per record: two feature calls, one SVD and three readout calls; per
        unit: one Holevo call on the stack of its times, and one Hamiltonian
        build per Hamiltonian unit.

        ``bench/bench_trace.py`` times stages by wrapping the feature kernel,
        the Hamiltonian build and the readout names (``train_readout``,
        ``predict``, ``mse``, ``condition_number``), and reports a stage's
        ``ms_p90`` only from 100 calls up. The traced ensemble-n7 run has 56
        records: 112 feature calls and 168 readout calls; the traced grid-n7
        run has 164 records and so 492 readout calls. A change that merged
        the train and test feature calls left 56, the key dropped out of the
        result and the run's last line was no longer a result. Fitting the
        readout once per unit instead of once per record would leave grid-n7
        12 readout calls (4 units of 3 calls each), below the same floor.
        The training SVD gives both the readout and the condition number, so
        a record takes one SVD and never calls ``condition_number``.
        """
        calls = {"features": 0, "holevo": 0, "hamiltonian": 0, "svd": 0, "readout": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(qelm, "_features_from_columns", counting("features", qelm._features_from_columns))
        monkeypatch.setattr(scrambling, "_holevo_from_columns", counting("holevo", scrambling._holevo_from_columns))
        monkeypatch.setattr(harness, "sample_hamiltonian", counting("hamiltonian", harness.sample_hamiltonian))
        monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
        for name in ("train_readout", "predict", "mse", "condition_number"):
            monkeypatch.setattr(qelm, name, counting("readout", getattr(qelm, name)))
        cfg = small_config(
            n_reservoir=2, topologies=("C", "FC"), schemes=("SL", "ML"), time_grid=(0.0, 1.5),
            shot_model=ShotModel("joint_bitstrings", 100), include_haar_baseline=True,
        )
        out = run_time_sweep(cfg)
        assert not out.failures
        records = len(out.records)
        assert records == 4 * 2 * 2 + 2  # pairs x realizations x times, plus Haar
        units = 4 * 2 + 2
        assert calls == {
            "features": 2 * records, "holevo": units, "hamiltonian": 4 * 2, "svd": records, "readout": 3 * records,
        }

    def test_condition_number_matches_training_features(self):
        """The record's condition number equals ``qelm.condition_number`` of
        the training features rebuilt from the record's own streams."""
        cfg = small_config(
            topologies=("C", "FC"), time_grid=(0.0, 0.7, 5.0), shot_model=ShotModel("joint_bitstrings", 300)
        )
        records = run_time_sweep(cfg).records
        assert len(records) == 2 * 2 * 3  # realizations x topologies x times

        (n,) = cfg.n_reservoir
        for record in records:
            spec = HamiltonianSpec(n, record.topology, record.scheme, seed=record.seed)
            key = (n, harness._TOPOLOGIES.index(spec.topology), harness._SCHEMES.index(spec.scheme), record.realization_index)
            u = la.evolve_unitary(la.herm_eig(sample_hamiltonian(spec).h_total), record.time)
            state_rng = derive_rng(cfg.master_seed, harness._KIND_STATES, *key)
            states = la.random_pure_qubit_states(state_rng, cfg.n_train + cfg.n_test)
            shot_rng = derive_rng(cfg.master_seed, harness._KIND_SHOTS, *key, cfg.time_grid.index(record.time))
            p_train = qelm.sample_features(u, states[: cfg.n_train], n, cfg.shot_model, shot_rng)
            assert qelm.condition_number(p_train) == record.condition_number

    def test_multi_link_scrambles_earlier(self):
        # with more injection links the averaged correlator passes 0.9 sooner
        cfg = SweepConfig(
            n_reservoir=4,
            topologies=("C",),
            schemes=("SL", "ML"),
            time_grid=tuple(np.linspace(0.25, 5.0, 12)),
            n_realizations=12,
            n_train=5,
            n_test=5,
            shot_model=ShotModel("exact"),
            master_seed=77,
        )
        out = run_time_sweep(cfg)

        def median_crossing(scheme):
            crossings = []
            for r in range(cfg.n_realizations):
                series = [
                    rec.otoc_avg
                    for rec in out.records
                    if rec.scheme == scheme and rec.realization_index == r
                ]
                above = [t for t, c in zip(cfg.time_grid, series) if c >= 0.9]
                crossings.append(above[0] if above else np.inf)
            return np.median(crossings)

        assert median_crossing("ML") < median_crossing("SL")


class TestFastPathKernels:
    def test_sigma_z_diag_matches_embedding(self):
        for n_reservoir in (1, 2, 3):
            rows = harness._otoc_eigenbasis_ops(n_reservoir)
            assert rows.shape == (n_reservoir, 2 ** (n_reservoir + 1))
            for site in range(n_reservoir):
                diag = np.diag(la.embed_pauli("z", site, n_reservoir + 1)).real
                assert np.array_equal(rows[site], diag)

    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("t", [None, 0.0, 0.5, 2.0, 5.0], ids=lambda t: "haar" if t is None else f"t{t}")
    def test_direct_otoc_route_matches_reference_op(self, n, t):
        if t is None:
            u = la.haar_unitary(2 ** (n + 1), np.random.default_rng(51 + n))
        else:
            spec = HamiltonianSpec(n, "FC", "ML", seed=51 + n)
            u = la.evolve_unitary(la.herm_eig(sample_hamiltonian(spec).h_total), t)
        mean = harness._otoc_per_pair_from_unitary(u, n)
        assert abs(mean - averaged_otoc(u, n).averaged) <= 1e-13

    @pytest.mark.parametrize("n", range(1, 8))
    def test_mean_otoc_exact_values(self, n):
        # no scrambling gives 0; swapping the input with site i gives OTOC 2
        # for (i, x) and (i, y) and 0 for the other 3N - 2 pairs
        assert abs(harness._otoc_per_pair_from_unitary(np.eye(2 ** (n + 1), dtype=complex), n)) <= 1e-15
        for site in range(n):
            mean = harness._otoc_per_pair_from_unitary(swap_unitary(n + 1, site, n), n)
            assert abs(mean - 4 / (3 * n)) <= 1e-15

    def test_mid_grid_failure_keeps_other_records(self, monkeypatch):
        cfg = small_config()
        original = harness._propagator_columns

        def flaky(eig, t):
            if t == 1.0:
                raise FloatingPointError("synthetic mid-grid failure")
            return original(eig, t)

        monkeypatch.setattr(harness, "_propagator_columns", flaky)
        out = run_time_sweep(cfg)
        assert len(out.records) == 4  # 2 realizations x surviving times {0, 5}
        assert len(out.failures) == 2
        assert all(f.time == 1.0 for f in out.failures)
        assert "FloatingPointError" in out.failures[0].error


class TestSizeSweep:
    def test_invalid_ring_units_reported_not_dropped(self, monkeypatch):
        # a ring below 3 sites is refused before any unit runs ...
        with pytest.raises(ConfigError, match="topologies"):
            small_config(n_reservoir=[2, 3], topologies=("R",))
        # ... and a unit that fails to set up is reported, not dropped
        fail_set_up_at_two(monkeypatch)
        cfg = small_config(n_reservoir=[2, 3], schemes=("SL",), time_grid=(0.25, 5.0), n_realizations=1)
        out = run_time_sweep(cfg)
        assert {r.n_reservoir for r in out.records} == {3}
        assert len(out.failures) == 2  # both grid times of the n=2 unit
        assert all(f.n_reservoir == 2 for f in out.failures)
        assert "synthetic set-up failure" in out.failures[0].error


class TestHaarBaseline:
    """The RU rows that ``run_time_sweep`` adds with ``include_haar_baseline``."""

    def test_exact_mode_reconstructs(self):
        cfg = small_config(n_reservoir=4, n_realizations=3, n_train=30, n_test=30, include_haar_baseline=True)
        out = run_time_sweep(cfg)
        assert not out.failures
        haar = [r for r in out.records if r.time is None]
        assert len(haar) == 3
        for r in haar:
            assert r.topology == r.scheme == "RU"
            assert r.mse <= 1e-10
            assert r.otoc_avg >= 0.9  # saturated scrambling for every draw

    def test_determinism(self):
        cfg = small_config(
            n_reservoir=3, n_realizations=2, shot_model=ShotModel("joint_bitstrings", 300), include_haar_baseline=True
        )
        assert run_time_sweep(cfg) == run_time_sweep(cfg)


class TestAggregateRecords:
    def test_groups_and_orders(self):
        cfg = small_config(n_realizations=3)
        out = run_time_sweep(cfg)
        metric_rows, node_rows = aggregate_records(out.records)
        mse_rows = [row for row in metric_rows if row.metric == "mse"]
        assert len(mse_rows) == len(cfg.time_grid)
        assert [row.time for row in mse_rows] == sorted(row.time for row in mse_rows)
        for row in metric_rows:
            assert row.stats.n == 3
            assert row.stats.q1 <= row.stats.median <= row.stats.q3
        # 3 nodes per grouping, one row each
        assert len(node_rows) == 3 * len(cfg.time_grid)

    def test_median_against_direct_computation(self):
        cfg = small_config(n_realizations=3)
        out = run_time_sweep(cfg)
        metric_rows, _ = aggregate_records(out.records)
        row = next(r for r in metric_rows if r.metric == "mse" and r.time == 5.0)
        values = [r.mse for r in out.records if r.time == 5.0]
        assert row.stats.median == pytest.approx(np.median(values))

    def test_expected_record_count_helper(self, monkeypatch):
        cfg = small_config(n_reservoir=[2, 3], n_realizations=2)
        assert harness.expected_record_count(cfg, "sweep-time") == 2 * 1 * 1 * 2 * 3
        out = run_time_sweep(cfg)
        assert len(out.records) + len(out.failures) == harness.expected_record_count(cfg, "sweep-time")
        # with the Haar baseline on and failing n=2 Hamiltonian units, the sweep
        # reports exactly the counted records plus failures, RU rows last
        fail_set_up_at_two(monkeypatch)
        cfg = small_config(
            n_reservoir=[2, 3], topologies=("C", "FC"), schemes=("SL", "ML"), n_realizations=2, include_haar_baseline=True
        )
        out = run_time_sweep(cfg)
        assert harness.expected_record_count(cfg, "sweep-time") == 2 * 2 * 2 * 2 * 3 + 2 * 2
        assert len(out.records) + len(out.failures) == 2 * 2 * 2 * 2 * 3 + 2 * 2
        assert sum(r.topology == "RU" for r in out.records) == 4
        haar_last = [r.topology == "RU" for r in out.records]
        assert haar_last == sorted(haar_last)
        assert {f.n_reservoir for f in out.failures} == {2}
        for command in ("sweep-all", "baseline-haar"):
            with pytest.raises(ValueError, match="unknown command"):
                harness.expected_record_count(cfg, command)
