"""Seeded ensemble sweeps over (topology, scheme, size, time) grids.

Work is partitioned into units of one Hamiltonian realization at one grid
point; every unit derives its own random streams from the master seed, so the
full record set is a pure function of the configuration regardless of how the
units are scheduled. Within a realization the Hamiltonian is diagonalized
once and each grid time builds its propagator from that factorization. One
evaluator turns a propagator -- from a Hamiltonian or a Haar draw -- into a
record's sampled readout features, OTOCs and per-node Holevo profile.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from . import qelm, scrambling
from .qelm import ShotMode, ShotModel
from .reservoir import (
    DEFAULT_DELTA_RANGE,
    DEFAULT_J_RANGE,
    CouplingScheme,
    HamiltonianSpec,
    ReservoirHamiltonian,
    Topology,
    sample_hamiltonian,
)

__all__ = [
    "ALL_METRICS",
    "HAAR_LABEL",
    "ConfigError",
    "SweepConfig",
    "EnsembleStats",
    "ExperimentRecord",
    "UnitFailure",
    "SweepResult",
    "AggregateRow",
    "HolevoNodeRow",
    "DEFAULT_TIME_GRID",
    "derive_rng",
    "run_single",
    "run_time_sweep",
    "run_size_sweep",
    "run_haar_baseline",
    "aggregate_stats",
    "aggregate_records",
    "expected_record_count",
]

ALL_METRICS = ("mse", "condition_number", "otoc", "holevo", "holevo_per_node")
HAAR_LABEL = "RU"

DEFAULT_TIME_GRID = tuple(float(t) for t in np.linspace(0.0, 5.0, 41))

# Stream namespaces for derived generators; indices 3 / 2 in the topology /
# scheme slots are reserved for the Haar baseline.
_KIND_HAMILTONIAN = 0
_KIND_STATES = 1
_KIND_SHOTS = 2
_KIND_HAAR = 3

_TOPOLOGY_INDEX = {Topology.CHAIN: 0, Topology.RING: 1, Topology.FULLY_CONNECTED: 2}
_SCHEME_INDEX = {CouplingScheme.SINGLE_LINK: 0, CouplingScheme.MULTI_LINK: 1}
_HAAR_TOPOLOGY_INDEX = 3
_HAAR_SCHEME_INDEX = 2


class ConfigError(ValueError):
    """A sweep configuration field is missing, malformed, or out of range."""


def _is_integer(value) -> bool:
    """True for Python and numpy integers; booleans are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved parameters of one ensemble run."""

    n_reservoir: object = 7
    topologies: tuple = (Topology.CHAIN, Topology.RING, Topology.FULLY_CONNECTED)
    schemes: tuple = (CouplingScheme.SINGLE_LINK, CouplingScheme.MULTI_LINK)
    time_grid: tuple = DEFAULT_TIME_GRID
    n_realizations: int = 500
    n_train: int = 50
    n_test: int = 50
    shot_model: ShotModel = ShotModel(ShotMode.JOINT_BITSTRINGS, 10**6)
    master_seed: int = 0
    rcond: float | None = None
    log_base: object = 2
    include_haar_baseline: bool = False
    metrics: tuple = ALL_METRICS
    j_range: tuple = DEFAULT_J_RANGE
    delta_range: tuple = DEFAULT_DELTA_RANGE
    bias_row: bool = False

    def __post_init__(self):
        sizes = self.n_reservoir
        if _is_integer(sizes):
            sizes = (sizes,)
        if isinstance(sizes, str) or not np.iterable(sizes) or not all(_is_integer(n) for n in sizes):
            raise ConfigError(f"n_reservoir must be an integer or a list of integers, got {self.n_reservoir!r}")
        sizes = tuple(int(n) for n in sizes)
        if not sizes:
            raise ConfigError("n_reservoir must contain at least one size")
        for n in sizes:
            if n < 1:
                raise ConfigError(f"n_reservoir sizes must be >= 1, got {n}")
            if 2 ** (n + 1) > la.MAX_DIM:
                raise ConfigError(f"n_reservoir={n} exceeds the dense-algebra cap (dim {la.MAX_DIM})")
        object.__setattr__(self, "n_reservoir", sizes if len(sizes) > 1 else sizes[0])
        object.__setattr__(self, "_sizes", sizes)

        raw_topologies = self.topologies
        if isinstance(raw_topologies, (str, Topology)):
            raw_topologies = (raw_topologies,)
        raw_schemes = self.schemes
        if isinstance(raw_schemes, (str, CouplingScheme)):
            raw_schemes = (raw_schemes,)
        try:
            topologies = tuple(Topology.parse(t) for t in raw_topologies)
            schemes = tuple(CouplingScheme.parse(s) for s in raw_schemes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not topologies or len(set(topologies)) != len(topologies):
            raise ConfigError("topologies must be a nonempty list without duplicates")
        if not schemes or len(set(schemes)) != len(schemes):
            raise ConfigError("schemes must be a nonempty list without duplicates")
        object.__setattr__(self, "topologies", topologies)
        object.__setattr__(self, "schemes", schemes)

        try:
            grid = tuple(float(t) for t in self.time_grid)
        except TypeError:
            raise ConfigError(f"time_grid must be a list of reals, got {self.time_grid!r}")
        if not grid:
            raise ConfigError("time_grid must contain at least one time")
        if not all(np.isfinite(grid)):
            raise ConfigError("time_grid must contain finite values only")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("time_grid must be strictly increasing")
        object.__setattr__(self, "time_grid", grid)

        for name in ("n_realizations", "n_train", "n_test"):
            value = getattr(self, name)
            if not _is_integer(value) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
            object.__setattr__(self, name, int(value))

        if not isinstance(self.shot_model, ShotModel):
            raise ConfigError(f"shot_model must be a ShotModel, got {type(self.shot_model).__name__}")

        if not _is_integer(self.master_seed) or self.master_seed < 0:
            raise ConfigError(f"master_seed must be a nonnegative integer, got {self.master_seed!r}")
        object.__setattr__(self, "master_seed", int(self.master_seed))

        if self.rcond is not None:
            if not np.isfinite(self.rcond) or self.rcond < 0:
                raise ConfigError(f"rcond must be >= 0 or null, got {self.rcond!r}")
            object.__setattr__(self, "rcond", float(self.rcond))

        if self.log_base not in (2, "e"):
            raise ConfigError(f"log_base must be 2 or 'e', got {self.log_base!r}")

        metrics = tuple(dict.fromkeys(self.metrics))
        if not metrics:
            raise ConfigError("metrics must contain at least one entry")
        unknown = [m for m in metrics if m not in ALL_METRICS]
        if unknown:
            raise ConfigError(f"metrics contains unknown entries {unknown}; valid: {list(ALL_METRICS)}")
        object.__setattr__(self, "metrics", metrics)

        for name in ("j_range", "delta_range"):
            pair = getattr(self, name)
            try:
                lo, hi = (float(pair[0]), float(pair[1]))
            except (TypeError, IndexError):
                raise ConfigError(f"{name} must be a [lo, hi] pair, got {pair!r}")
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                raise ConfigError(f"{name} must be a finite interval with lo <= hi, got ({lo}, {hi})")
            object.__setattr__(self, name, (lo, hi))

        object.__setattr__(self, "include_haar_baseline", bool(self.include_haar_baseline))
        object.__setattr__(self, "bias_row", bool(self.bias_row))

    @property
    def sizes(self) -> tuple:
        return self._sizes

    def as_dict(self) -> dict:
        """JSON-serializable canonical form (used for the config digest)."""
        return {
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
            "topologies": [t.value for t in self.topologies],
            "schemes": [s.value for s in self.schemes],
            "shot_model": {"mode": self.shot_model.mode.value, "shots": self.shot_model.shots},
        }


@dataclass(frozen=True)
class EnsembleStats:
    """Median with first and third quartiles (linear interpolation)."""

    median: float
    q1: float
    q3: float
    n: int


@dataclass(frozen=True)
class ExperimentRecord:
    """Metrics of one realization at one grid point.

    ``time`` is None for the time-independent Haar baseline; metrics that were
    not requested stay None. ``seed`` reproduces the realization (Hamiltonian
    coefficients, or the Haar draw) on its own.
    """

    realization_index: int
    topology: str
    scheme: str
    n_reservoir: int
    time: float | None
    seed: int
    mse: float | None = None
    condition_number: float | None = None
    otoc_avg: float | None = None
    holevo_avg: float | None = None
    holevo_per_node: tuple | None = None

    def key(self):
        return (self.realization_index, self.topology, self.scheme, self.n_reservoir, self.time)


@dataclass(frozen=True)
class UnitFailure:
    """A work unit that raised; kept so gaps in the record set are explicit."""

    realization_index: int
    topology: str
    scheme: str
    n_reservoir: int
    time: float | None
    error: str


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    failures: tuple


@dataclass(frozen=True)
class AggregateRow:
    topology: str
    scheme: str
    n_reservoir: int
    time: float | None
    metric: str
    stats: EnsembleStats


@dataclass(frozen=True)
class HolevoNodeRow:
    topology: str
    scheme: str
    n_reservoir: int
    time: float | None
    node: int
    stats: EnsembleStats


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    """Independent generator for the stream addressed by ``key``."""
    spawn_key = tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(int(master_seed), spawn_key=spawn_key))


def _derived_seed(master_seed: int, *key) -> int:
    ss = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _draw_inputs(cfg: SweepConfig, n: int, topo_i: int, scheme_i: int, realization: int, rng=None) -> tuple:
    """``(train, test, y_train, y_test)`` drawn from the realization's state stream.

    ``rng`` overrides the derived stream; the Bloch targets are None unless
    ``mse`` is requested.
    """
    if rng is None:
        rng = derive_rng(cfg.master_seed, _KIND_STATES, n, topo_i, scheme_i, realization)
    states = la._random_pure_qubit_states(rng, cfg.n_train + cfg.n_test)
    train, test = states[: cfg.n_train], states[cfg.n_train :]
    if "mse" not in cfg.metrics:
        return train, test, None, None
    return train, test, qelm.pauli_targets(train), qelm.pauli_targets(test)


# ---------------------------------------------------------------------------
# Per-record evaluation.
# ---------------------------------------------------------------------------


def _otoc_eigenbasis_ops(n_reservoir: int) -> np.ndarray:
    """sigma_z on each reservoir site in its eigenbasis, the computational one:
    one row of +-1 eigenvalues per site over the register, input qubit last."""
    return np.repeat(qelm._z_sign_matrix(n_reservoir), 2, axis=1)


def _otoc_per_pair_from_unitary(u: np.ndarray, n_reservoir: int) -> np.ndarray:
    """OTOC of each (sigma_z on reservoir site i, input Pauli a) pair under ``u``.

    B_a = u (I x sigma_a) u^dag is Hermitian, so with z_i the diagonal of
    sigma_z on site i, Tr[A_i(t) sigma_a A_i(t) sigma_a] = sum_mn z_i,m z_i,n
    |B_a,mn|^2. From the even and odd columns U0, U1 of ``u``, P = U0 U1^dag
    and Q = U0 U0^dag give B_x = P + P^dag, B_y = i(P^dag - P) and
    B_z = 2Q - I; the symmetric z-form turns the first two into
    2 z|P|^2z +- 2 z Re(P o P^T) z.
    """
    z = _otoc_eigenbasis_ops(n_reservoir)
    dim = u.shape[0]

    def z_forms(m):
        return ((z @ m) * z).sum(axis=1)

    u0, u1 = u[:, 0::2], u[:, 1::2]
    p = u0 @ u1.conj().T
    square = z_forms(p.real**2 + p.imag**2)
    cross = z_forms(p.real * p.real.T - p.imag * p.imag.T)
    b_z = 2.0 * (u0 @ u0.conj().T) - np.eye(dim)
    tr_z = z_forms(b_z.real**2 + b_z.imag**2)
    return 1.0 - np.stack([2.0 * (square + cross), 2.0 * (square - cross), tr_z], axis=1) / dim


# The same kernel under the name Hamiltonian records call it by, so that the
# stage tracer in bench/bench_trace.py times their OTOCs apart from the Haar
# draws'.
_otoc_per_pair_from_eig = _otoc_per_pair_from_unitary


def _propagator_columns(eig: la.SpectralDecomposition, t: float) -> np.ndarray:
    """exp(-iHt) at one grid time. The evaluator reads its first two columns
    for features and Holevo information, and all of it for the OTOCs."""
    return la.evolve_unitary(eig, t)


def _evaluate(cfg: SweepConfig, u: np.ndarray, n: int, inputs: tuple, shot_rng, otoc_pairs) -> dict:
    """Requested metric fields of one record under the propagator ``u``.

    Features and Holevo information see only the input subspace ``u[:, :2]``
    (the reservoir starts in |0...0>); the OTOCs need all of ``u`` and come
    from ``otoc_pairs(u, n)``.
    """
    want = set(cfg.metrics)
    train, test, y_train, y_test = inputs
    v01 = u[:, :2]
    fields = {}
    if {"mse", "condition_number"} & want:
        p_train = qelm._features_from_columns(v01, train, n, cfg.shot_model, shot_rng, cfg.bias_row)
        if "condition_number" in want:
            fields["condition_number"] = qelm.condition_number(p_train)
        if "mse" in want:
            p_test = qelm._features_from_columns(v01, test, n, cfg.shot_model, shot_rng, cfg.bias_row)
            trained = qelm.train_readout(p_train, y_train, cfg.rcond)
            fields["mse"] = qelm.mse(y_test, qelm.predict(trained, p_test))
    if "otoc" in want:
        fields["otoc_avg"] = float(otoc_pairs(u, n).mean())
    if {"holevo", "holevo_per_node"} & want:
        profile = scrambling._holevo_from_columns(v01, n, cfg.log_base)
        if "holevo" in want:
            fields["holevo_avg"] = profile.averaged
        if "holevo_per_node" in want:
            fields["holevo_per_node"] = tuple(float(x) for x in profile.per_node)
    return fields


def _record_at_time(
    cfg: SweepConfig,
    spec: HamiltonianSpec,
    eig: la.SpectralDecomposition,
    inputs: tuple,
    t: float,
    ti: int,
    realization: int,
) -> ExperimentRecord:
    """Record of one realization at its ``ti``-th grid time, with that time's shot stream."""
    n = spec.n_reservoir
    topo_i = _TOPOLOGY_INDEX[spec.topology]
    scheme_i = _SCHEME_INDEX[spec.scheme]
    shot_rng = derive_rng(cfg.master_seed, _KIND_SHOTS, n, topo_i, scheme_i, realization, ti)
    fields = _evaluate(cfg, _propagator_columns(eig, t), n, inputs, shot_rng, _otoc_per_pair_from_eig)
    return ExperimentRecord(
        realization, spec.topology.value, spec.scheme.value, n, float(t), spec.seed, **fields
    )


def run_single(
    ham: ReservoirHamiltonian,
    t: float,
    config: SweepConfig,
    state_rng: np.random.Generator | None = None,
    shot_rng: np.random.Generator | None = None,
    realization_index: int = 0,
) -> ExperimentRecord:
    """Evaluate one realization at one time; random streams derive from the
    config when not passed explicitly. Failures are re-raised tagged with the
    record key."""
    spec = ham.spec
    n = spec.n_reservoir
    topo_i = _TOPOLOGY_INDEX[spec.topology]
    scheme_i = _SCHEME_INDEX[spec.scheme]
    if shot_rng is None:
        shot_rng = derive_rng(config.master_seed, _KIND_SHOTS, n, topo_i, scheme_i, realization_index, 0)
    key = (realization_index, spec.topology.value, spec.scheme.value, n, t)
    try:
        inputs = _draw_inputs(config, n, topo_i, scheme_i, realization_index, state_rng)
        u = _propagator_columns(la.herm_eig(ham.h_total), t)
        fields = _evaluate(config, u, n, inputs, shot_rng, _otoc_per_pair_from_eig)
    except Exception as exc:
        raise RuntimeError(f"run_single failed for record key {key}: {exc}") from exc
    return ExperimentRecord(
        realization_index, spec.topology.value, spec.scheme.value, n, float(t), spec.seed, **fields
    )


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


def _hamiltonian_unit(args) -> tuple:
    """One (size, topology, scheme, realization) unit across the time grid."""
    cfg, n, topology, scheme, realization, times = args
    topology = Topology.parse(topology)
    scheme = CouplingScheme.parse(scheme)
    topo_i = _TOPOLOGY_INDEX[topology]
    scheme_i = _SCHEME_INDEX[scheme]

    def failure(t, exc):
        return UnitFailure(
            realization, topology.value, scheme.value, n, float(t), f"{type(exc).__name__}: {exc}"
        )

    try:
        seed = _derived_seed(cfg.master_seed, _KIND_HAMILTONIAN, n, topo_i, scheme_i, realization)
        spec = HamiltonianSpec(n, topology, scheme, cfg.j_range, cfg.delta_range, seed)
        ham = sample_hamiltonian(spec)
        inputs = _draw_inputs(cfg, n, topo_i, scheme_i, realization)
        eig = la.herm_eig(ham.h_total)
    except Exception as exc:
        return [], [failure(t, exc) for t in times]
    records, failures = [], []
    for ti, t in enumerate(times):
        try:
            records.append(_record_at_time(cfg, spec, eig, inputs, t, ti, realization))
        except Exception as exc:
            failures.append(failure(t, exc))
    return records, failures


def _haar_unit(args) -> tuple:
    """One Haar-baseline realization: a fresh global unitary, no time grid."""
    cfg, n, realization = args
    topo_i, scheme_i = _HAAR_TOPOLOGY_INDEX, _HAAR_SCHEME_INDEX
    try:
        seed = _derived_seed(cfg.master_seed, _KIND_HAAR, n, realization)
        u = la.haar_unitary(2 ** (n + 1), np.random.default_rng(seed))
        inputs = _draw_inputs(cfg, n, topo_i, scheme_i, realization)
        shot_rng = derive_rng(cfg.master_seed, _KIND_SHOTS, n, topo_i, scheme_i, realization, 0)
        fields = _evaluate(cfg, u, n, inputs, shot_rng, _otoc_per_pair_from_unitary)
    except Exception as exc:
        failure = UnitFailure(realization, HAAR_LABEL, HAAR_LABEL, n, None, f"{type(exc).__name__}: {exc}")
        return [], [failure]
    return [ExperimentRecord(realization, HAAR_LABEL, HAAR_LABEL, n, None, seed, **fields)], []


def _map_units(worker, args_list, threads: int):
    if threads <= 1 or len(args_list) <= 1:
        return [worker(args) for args in args_list]
    chunk = max(1, len(args_list) // (threads * 4))
    with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, args_list, chunksize=chunk))


def _time_key(t):
    return -np.inf if t is None else t


def _unit_order(r):
    """Sweep order of a record or failure: size, topology, scheme, realization, time."""
    return (r.n_reservoir, r.topology, r.scheme, r.realization_index, _time_key(r.time))


def _collect(outcomes) -> SweepResult:
    records, failures = [], []
    for recs, fails in outcomes:
        records.extend(recs)
        failures.extend(fails)
    records.sort(key=_unit_order)
    failures.sort(key=_unit_order)
    return SweepResult(records=tuple(records), failures=tuple(failures))


def _grid_units(cfg: SweepConfig):
    for n in cfg.sizes:
        for topology in cfg.topologies:
            for scheme in cfg.schemes:
                for realization in range(cfg.n_realizations):
                    yield (cfg, n, topology, scheme, realization, cfg.time_grid)


def run_time_sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    """One record per (realization, topology, scheme, size, grid time).

    Failed units are reported in ``failures`` with their keys, never dropped
    silently; the record order (and every metric value) is independent of the
    worker count.
    """
    outcomes = _map_units(_hamiltonian_unit, list(_grid_units(config)), threads)
    return _collect(outcomes)


def run_size_sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    """Time sweep over the configured sizes with the coupling fixed to a
    single link, so the number of injection links stays constant while the
    reservoir grows. Typical grids are short, e.g. (0.25, 5.0)."""
    cfg = dataclasses.replace(config, schemes=(CouplingScheme.SINGLE_LINK,))
    return run_time_sweep(cfg, threads)


def run_haar_baseline(config: SweepConfig, threads: int = 1) -> SweepResult:
    """Replace the Hamiltonian propagator by a fresh Haar unitary per
    realization (time-independent); downstream metrics are unchanged."""
    units = [(config, n, r) for n in config.sizes for r in range(config.n_realizations)]
    outcomes = _map_units(_haar_unit, units, threads)
    return _collect(outcomes)


def expected_record_count(config: SweepConfig, command: str) -> int:
    """Work-unit count implied by the config for one of the sweep commands."""
    per_size = len(config.topologies) * config.n_realizations * len(config.time_grid)
    if command == "sweep-time":
        count = len(config.sizes) * per_size * len(config.schemes)
    elif command == "sweep-size":
        count = len(config.sizes) * per_size
    elif command == "baseline-haar":
        count = len(config.sizes) * config.n_realizations
    else:
        raise ValueError(f"unknown command {command!r}")
    if command != "baseline-haar" and config.include_haar_baseline:
        count += len(config.sizes) * config.n_realizations
    return count


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def _quantile(x: list, q: float) -> float:
    """Type-7 sample quantile (Hyndman and Fan, 1996) of the ascending ``x``.

    Equal bit for bit to ``np.quantile`` on finite values. Next to an infinite
    neighbour it returns the limit of the interpolation, where numpy's
    ``a + (b - a) * t`` gives nan; a nan anywhere gives nan.
    """
    if math.isnan(x[-1]):
        return x[-1]
    h = (len(x) - 1) * q
    lo = int(h)
    t = h - lo
    a, b = x[lo], x[min(lo + 1, len(x) - 1)]
    if t == 0 or a == b:
        return a
    if math.isinf(a) or math.isinf(b):
        return a + b  # the infinite neighbour; nan between -inf and inf
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def aggregate_stats(values) -> EnsembleStats:
    """Median and quartiles by linear interpolation between order statistics."""
    x = np.sort(np.asarray(list(values), dtype=float)).tolist()
    if not x:
        raise ValueError("cannot aggregate an empty list")
    q1, median, q3 = (_quantile(x, q) for q in (0.25, 0.5, 0.75))
    return EnsembleStats(median=median, q1=q1, q3=q3, n=len(x))


_METRIC_FIELDS = ("mse", "condition_number", "otoc_avg", "holevo_avg")


def aggregate_records(records) -> tuple:
    """Median/quartile tables keyed by (topology, scheme, size, time).

    Returns ``(metric_rows, holevo_node_rows)``; only metrics actually present
    on the records appear.
    """
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.topology, rec.scheme, rec.n_reservoir, rec.time), []).append(rec)

    metric_rows, node_rows = [], []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], _time_key(k[3]))):
        topology, scheme, n, t = key
        bucket = groups[key]
        for field in _METRIC_FIELDS:
            values = [getattr(r, field) for r in bucket if getattr(r, field) is not None]
            if values:
                metric_rows.append(AggregateRow(topology, scheme, n, t, field, aggregate_stats(values)))
        per_node = [r.holevo_per_node for r in bucket if r.holevo_per_node is not None]
        if per_node:
            for node in range(len(per_node[0])):
                values = [nodes[node] for nodes in per_node]
                node_rows.append(HolevoNodeRow(topology, scheme, n, t, node, aggregate_stats(values)))
    return tuple(metric_rows), tuple(node_rows)
