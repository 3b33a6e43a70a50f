"""Seeded ensemble sweeps over (topology, scheme, size, time) grids.

A sweep runs one list of work units -- a Hamiltonian realization across the
time grid, or, with the Haar baseline, one Haar draw. A unit is its key
``(n, topology slot, scheme slot, realization)``: the key alone names the
unit and addresses its random streams under the master seed, so
``_run_unit(config, key)`` re-runs any unit by itself and the record set is
a pure function of the configuration however the units are scheduled. A
realization's Hamiltonian is diagonalized once; each grid time builds its
propagator from that factorization. Every record comes from one two-pass
evaluation of its unit (``_unit_outcomes``): the kernels that see only the
propagators' input columns run once on the stack of the unit's times.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _process, qelm, scrambling
from . import linalg as la
from .linalg import _count, _entries, _finite, _is_bool
from .qelm import ShotMode, ShotModel
from .reservoir import (
    CouplingScheme,
    HamiltonianSpec,
    Topology,
    sample_hamiltonian,
)

__all__ = [
    "ConfigError",
    "SweepConfig",
    "EnsembleStats",
    "ExperimentRecord",
    "SweepResult",
    "run_time_sweep",
    "aggregate_stats",
    "aggregate_records",
]

HAAR_LABEL = "RU"

# Stream namespaces for derived generators.
_KIND_HAMILTONIAN = 0
_KIND_STATES = 1
_KIND_SHOTS = 2
_KIND_HAAR = 3

# A unit key's topology and scheme slots are positions in these tuples, and
# the streams every output depends on are addressed by them: never reorder
# them. Haar keys carry the reserved slots 3 and 2.
_TOPOLOGIES = (Topology.CHAIN, Topology.RING, Topology.FULLY_CONNECTED)
_SCHEMES = (CouplingScheme.SINGLE_LINK, CouplingScheme.MULTI_LINK)
_HAAR_TOPOLOGY = 3
_HAAR_SCHEME = 2


class ConfigError(ValueError):
    """A sweep configuration field is missing, malformed, or out of range."""


# Config values: one resolver per kind of value maps a field's file form, or
# its resolved value, to the resolved value or raises ValueError. The rules for
# numbers, counts and the register size live in ``linalg``;
# ``reservoir.HamiltonianSpec`` resolves its inputs with them and its ranges too.


def _list_of(value, parse, bare=()) -> tuple:
    """Nonempty list of ``parse``d entries without repeats."""
    items = tuple(parse(x) for x in _entries(value, bare))
    if not items or len(set(items)) != len(items):
        raise ValueError(f"must be a nonempty list without repeats, got {value!r}")
    return items


def _sizes(value) -> tuple:
    """One size or a list of sizes, as a tuple."""
    sizes = _list_of(value, _count, bare=(int, np.integer))
    for n in sizes:
        la._register_dim(n, "n_reservoir", extra=1)
    return sizes


# The object form builds its grid, so a few bytes of JSON could ask for an
# array of any size; np.linspace fails on 2**63 points with IndexError.
_MAX_GRID_POINTS = 10**6


def _time_grid(value) -> tuple:
    """A strictly increasing list of times, or ``{start, stop, points}`` for
    ``points`` (at most ``_MAX_GRID_POINTS``) uniform times on [start, stop]."""
    if isinstance(value, dict):
        if set(value) != {"start", "stop", "points"}:
            keys = sorted(value, key=str)
            raise ValueError(f"an object needs exactly the keys start, stop and points, got {keys}")
        points = _count(value["points"], name="points")
        if points > _MAX_GRID_POINTS:
            raise ValueError(f"points must be an integer in [1, {_MAX_GRID_POINTS}], got {points!r}")
        start, stop = (_finite(value[key], key) for key in ("start", "stop"))
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing span gives nan, rejected below
            value = np.linspace(start, stop, points).tolist()
    times = tuple(_finite(t) for t in _entries(value))
    if not times:
        raise ValueError("must contain at least one time")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"must be strictly increasing, got {value!r}")
    return times


def _shot_model(value) -> ShotModel:
    if isinstance(value, ShotModel):
        return value
    if not isinstance(value, dict):
        raise ValueError(f"must be a {{mode, shots}} object, got {value!r}")
    unknown = set(value) - {"mode", "shots"}
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown, key=str)}")
    return ShotModel(**value)


def _flag(value) -> bool:
    if not _is_bool(value):
        raise ValueError(f"must be true or false, got {value!r}")
    return bool(value)


@dataclass(frozen=True)
class SweepConfig:
    """Fully resolved parameters of one ensemble run.

    Every field takes the form a JSON config file gives it, or its resolved
    value: ``time_grid`` a list of times or a ``{start, stop, points}`` object;
    ``shot_model`` a ``{mode, shots}`` object or a ``ShotModel``;
    ``n_reservoir`` one size or a list, resolved to a tuple; ``topologies``
    (C, R, FC) and ``schemes`` (SL, ML) a list of codes. Numbers must be
    numbers, not strings, and counts integers; a list of sizes or codes names
    no entry twice. A malformed or out-of-range value raises
    ConfigError naming its field; a ring topology listed with a size below 3
    raises one naming ``topologies``.
    """

    n_reservoir: tuple = (7,)
    topologies: tuple = _TOPOLOGIES
    schemes: tuple = _SCHEMES
    time_grid: tuple = tuple(float(t) for t in np.linspace(0.0, 5.0, 41))
    n_realizations: int = 500
    n_train: int = 50
    n_test: int = 50
    shot_model: ShotModel = ShotModel(ShotMode.JOINT_BITSTRINGS, 10**6)
    master_seed: int = 0
    include_haar_baseline: bool = False
    # Not fields: every record carries every metric of the one model; bench/bench_checks.py reads these.
    metrics: ClassVar[tuple] = ("mse", "condition_number", "otoc", "holevo", "holevo_per_node")
    j_range: ClassVar[tuple] = HamiltonianSpec.j_range  # the spec's defaults, which sweeps build with
    delta_range: ClassVar[tuple] = HamiltonianSpec.delta_range
    log_base: ClassVar[int] = 2

    def __post_init__(self):
        for field in dataclasses.fields(self):
            try:
                value = _RESOLVERS[field.name](getattr(self, field.name))
            except ValueError as exc:
                raise ConfigError(f"{field.name}: {exc}") from exc
            object.__setattr__(self, field.name, value)
        small = [n for n in self.n_reservoir if n < 3]
        if Topology.RING in self.topologies and small:
            raise ConfigError(f"topologies: the ring R needs sizes >= 3, got n_reservoir {small}")

    def as_dict(self) -> dict:
        """JSON-serializable canonical form (used for the config digest)."""
        return {
            **{f.name: getattr(self, f.name) for f in dataclasses.fields(self)},
            "topologies": [t.value for t in self.topologies],
            "schemes": [s.value for s in self.schemes],
            "shot_model": {"mode": self.shot_model.mode.value, "shots": self.shot_model.shots},
        }


_RESOLVERS = {
    "n_reservoir": _sizes,
    "topologies": lambda v: _list_of(v, Topology.parse),
    "schemes": lambda v: _list_of(v, CouplingScheme.parse),
    "time_grid": _time_grid,
    "n_realizations": _count,
    "n_train": _count,
    "n_test": _count,
    "shot_model": _shot_model,
    "master_seed": lambda v: _count(v, minimum=0),
    "include_haar_baseline": _flag,
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

    ``time`` is None for the time-independent Haar baseline. ``seed``
    reproduces the realization on its own: it is the ``HamiltonianSpec.seed``
    whose one draw gives every coefficient, or the seed of the Haar draw.
    """

    realization_index: int
    topology: str
    scheme: str
    n_reservoir: int
    time: float | None
    seed: int
    mse: float
    condition_number: float
    otoc_avg: float
    holevo_avg: float
    holevo_per_node: tuple


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
    """One sweep's records and failures, each in output order."""

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


def _draw_inputs(cfg: SweepConfig, key: tuple) -> tuple:
    """``(train, test, y_train, y_test)``: the coordinates
    (``qelm._state_coords``) of the train and test states drawn from the
    unit's state stream, and their Bloch targets, which draw nothing."""
    rng = derive_rng(cfg.master_seed, _KIND_STATES, *key)
    states = la.random_pure_qubit_states(rng, cfg.n_train + cfg.n_test)
    train, test = states[: cfg.n_train], states[cfg.n_train :]
    return qelm._state_coords(train), qelm._state_coords(test), qelm.pauli_targets(train), qelm.pauli_targets(test)


# ---------------------------------------------------------------------------
# Per-record evaluation.
# ---------------------------------------------------------------------------


def _otoc_eigenbasis_ops(n_reservoir: int) -> np.ndarray:
    """sigma_z on each reservoir site in its eigenbasis, the computational one:
    one row of +-1 eigenvalues per site over the register, input qubit last."""
    return np.repeat(qelm._z_sign_matrix(n_reservoir), 2, axis=1)


def _otoc_per_pair_from_unitary(u: np.ndarray, n_reservoir: int) -> float:
    """Mean OTOC under ``u`` over (sigma_z on reservoir site i, input Pauli a)
    pairs, the ``otoc_avg`` that sweeps record.

    With B_a = u (I x sigma_a) u^dag, z_i the diagonal of sigma_z on site i,
    and the even and odd columns U0, U1 of ``u``, P = U0 U1^dag and
    Q = U0 U0^dag give B_x = P + P^dag, B_y = i(P^dag - P) and B_z = 2Q - I.
    The one-qubit twirl sum_a sigma_a X sigma_a = 2 Tr(X) I - X on the input
    qubit cancels the x/y cross terms:
    sum_a Tr[Z_i B_a Z_i B_a] = 4 z_i^T (|P|^2 + |Q|^2) z_i - 4 Tr Q + dim,
    which is 4 z_i^T (|P|^2 + |Q|^2) z_i - dim for a unitary ``u``. Keeping
    the computed Tr Q holds the round-off to that of the 3N per-pair values
    1 - Tr/dim whose mean this is. The function returns only the mean; it
    keeps its name because bench/bench_trace.py wraps it by that name.
    """
    z = _otoc_eigenbasis_ops(n_reservoir)
    dim = u.shape[0]
    u0, u1 = u[:, 0::2], u[:, 1::2]
    p = u0 @ u1.conj().T
    q = u0 @ u0.conj().T
    m = p.real**2 + p.imag**2 + q.real**2 + q.imag**2
    twirled = 4.0 * ((z @ m) * z).sum() - n_reservoir * (4.0 * np.trace(q).real - dim)
    return float(1.0 - twirled / (3 * n_reservoir * dim))


# The same kernel under the name Hamiltonian records call it by, so that the
# stage tracer in bench/bench_trace.py times their OTOCs apart from the Haar
# draws'.
_otoc_per_pair_from_eig = _otoc_per_pair_from_unitary


# exp(-iHt) at one grid time, under its own name because bench/bench_trace.py
# times the propagators of Hamiltonian units by wrapping this name.
_propagator_columns = la.evolve_unitary


def _unit_outcomes(cfg: SweepConfig, key: tuple, labels: tuple, times, prepare, otoc_mean) -> tuple:
    """``(records, failures)`` of the unit ``key``, one per time, in time order.

    ``labels`` are the unit's (topology, scheme) names; ``prepare()`` returns
    the record seed and ``unitary(t)``, the propagator at time ``t``. Pass 1
    keeps each time's mean OTOC ``otoc_mean(u, n)`` and copies the input
    columns of ``u`` into a (T, 2^(N+1), 2) stack, on which the column kernels
    then run once. Pass 2 draws each time's train and test features from its
    own shot stream, around the one SVD that gives the readout and the
    condition number. A set-up error fails every time, an error in the stacked
    step every time that reached it, any other only its time.
    """
    n, realization = key[0], key[3]

    def failure(t, exc):
        return UnitFailure(realization, *labels, n, t, f"{type(exc).__name__}: {exc}")

    try:
        # Allocated before the unit's larger arrays, which measured a lower N=7
        # peak RSS; a failed time's columns stay zero.
        columns = np.zeros((len(times), 2 ** (n + 1), 2), dtype=complex)
        seed, unitary = prepare()
        train, test, y_train, y_test = _draw_inputs(cfg, key)
    except Exception as exc:
        return [], [failure(t, exc) for t in times]
    rows, otocs = [None] * len(times), {}  # rows: each time's record or failure
    for ti, t in enumerate(times):
        try:
            u = unitary(t)
            otocs[ti], columns[ti] = otoc_mean(u, n), la._input_columns(u, n)
        except Exception as exc:
            rows[ti] = failure(t, exc)
    try:
        profile, weights = scrambling._holevo_from_columns(columns, n), qelm._reservoir_weights(columns)
    except Exception as exc:
        rows = [failure(t, exc) if ti in otocs else row for ti, (t, row) in enumerate(zip(times, rows))]
        otocs = {}
    for ti, otoc in otocs.items():
        try:
            shot_rng = derive_rng(cfg.master_seed, _KIND_SHOTS, *key, ti)
            p_train = qelm._features_from_columns(weights[ti], train, n, cfg.shot_model, shot_rng)
            trained = qelm.train_readout(p_train, y_train)
            p_test = qelm._features_from_columns(weights[ti], test, n, cfg.shot_model, shot_rng)
            mse = qelm.mse(y_test, qelm.predict(trained, p_test))
            condition = qelm._condition_from_singular_values(trained.singular_values)
            holevo = float(profile.averaged[ti]), tuple(float(x) for x in profile.per_node[ti])
            rows[ti] = ExperimentRecord(realization, *labels, n, times[ti], seed, mse, condition, otoc, *holevo)
        except Exception as exc:
            rows[ti] = failure(times[ti], exc)
    return [r for r in rows if isinstance(r, ExperimentRecord)], [r for r in rows if isinstance(r, UnitFailure)]


def _hamiltonian_unit(cfg: SweepConfig, key: tuple) -> tuple:
    """One (size, topology, scheme, realization) unit across the time grid."""
    n, topo_i, scheme_i, _ = key
    topology, scheme = _TOPOLOGIES[topo_i], _SCHEMES[scheme_i]

    def prepare():
        seed = _derived_seed(cfg.master_seed, _KIND_HAMILTONIAN, *key)
        eig = la.herm_eig(sample_hamiltonian(HamiltonianSpec(n, topology, scheme, seed=seed)).h_total)
        return seed, lambda t: _propagator_columns(eig, t)

    labels = (topology.value, scheme.value)
    return _unit_outcomes(cfg, key, labels, cfg.time_grid, prepare, _otoc_per_pair_from_eig)


def _haar_unit(cfg: SweepConfig, key: tuple) -> tuple:
    """One Haar-baseline realization: a fresh global unitary, no time grid."""
    n, _, _, realization = key

    def prepare():
        seed = _derived_seed(cfg.master_seed, _KIND_HAAR, n, realization)
        u = la.haar_unitary(2 ** (n + 1), np.random.default_rng(seed))
        return seed, lambda t: u

    return _unit_outcomes(cfg, key, (HAAR_LABEL, HAAR_LABEL), (None,), prepare, _otoc_per_pair_from_unitary)


def _run_unit(cfg: SweepConfig, key: tuple) -> tuple:
    """``(records, failures)`` of the unit ``key`` of the sweep ``cfg``."""
    unit = _haar_unit if key[1] == _HAAR_TOPOLOGY else _hamiltonian_unit
    return unit(cfg, key)


# ---------------------------------------------------------------------------
# Sweeps.
# ---------------------------------------------------------------------------


def _units(config: SweepConfig) -> list:
    """Key ``(n, topology slot, scheme slot, realization)`` of every unit of a
    sweep, each once: per size, every configured (topology, scheme)
    realization, then the Haar units when the config sets
    ``include_haar_baseline``."""
    slots = [(_TOPOLOGIES.index(t), _SCHEMES.index(s)) for t in config.topologies for s in config.schemes]
    if config.include_haar_baseline:
        slots.append((_HAAR_TOPOLOGY, _HAAR_SCHEME))
    return [(n, *pair, r) for n in config.n_reservoir for pair in slots for r in range(config.n_realizations)]


def _run_units(cfg: SweepConfig, keys: list) -> list:
    """Outcomes of the unit ``keys`` of ``cfg``, in order: one pool task."""
    return [_run_unit(cfg, key) for key in keys]


def _map_units(cfg: SweepConfig, units, threads: int):
    """Yield ``(key, outcome)`` for every unit key of ``cfg`` as it finishes:
    in key order when serial, else chunk by chunk as chunks finish on at most
    ``threads`` processes, one per unit and per usable CPU. A chunk holds up to
    16 units, largest sizes first (Haar after the Hamiltonian units of their
    size), so no worker ends the run alone on a costly chunk and the parent,
    which shares the CPUs, handles few tasks. Stopping early, an error or an
    interrupt cancels the chunks not yet started. BLAS runs one thread until
    the end, so bytes match across paths; only ``run_time_sweep`` consumes it.
    The pool's modules (``concurrent.futures``, which loads ``logging``) are
    imported only here, so a serial run never loads them.
    """
    workers = min(threads, len(units), _process.usable_cpus())
    with _process.single_blas_thread():
        if workers <= 1:
            yield from ((key, _run_unit(cfg, key)) for key in units)
            return
        size = min(16, max(1, len(units) // (workers * 4)))
        ordered = sorted(units, key=lambda key: key[0], reverse=True)
        chunks = [ordered[i : i + size] for i in range(0, len(ordered), size)]
        import concurrent.futures

        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers, initializer=_process.sweep_process)
        try:
            pending = {pool.submit(_run_units, cfg, keys): keys for keys in chunks}
            for done in concurrent.futures.as_completed(pending):
                yield from zip(pending.pop(done), done.result())
        finally:
            pool.shutdown(cancel_futures=True)


def _time_key(t):
    return -np.inf if t is None else t


def _unit_order(r):
    """Output order of a record or failure: Haar baseline rows last, then size,
    topology, scheme, realization and time."""
    return (r.topology == HAAR_LABEL, r.n_reservoir, r.topology, r.scheme, r.realization_index, _time_key(r.time))


def run_time_sweep(config: SweepConfig, threads: int = 1) -> SweepResult:
    """One record per (realization, topology, scheme, size, grid time), and
    the Haar baseline's records last when the config includes it. A size
    sweep is a config with several sizes, a short grid such as (0.25, 5.0)
    and the single link as its only scheme (``configs/size-sweep.json``).

    Failed units are reported in ``failures`` with their keys, never dropped
    silently; the record order (and every metric value) is independent of the
    worker count. ``threads`` that is not an integer >= 1 raises ValueError.
    """
    threads = _count(threads, name="threads")
    outcomes = [outcome for _, outcome in _map_units(config, _units(config), threads)]
    records = sorted((r for recs, _ in outcomes for r in recs), key=_unit_order)
    failures = sorted((f for _, fails in outcomes for f in fails), key=_unit_order)
    return SweepResult(records=tuple(records), failures=tuple(failures))


def expected_record_count(config: SweepConfig, command: str) -> int:
    """Records plus failures that ``run_time_sweep`` reports for the config."""
    # ``command`` stays only because bench/bench_checks.py passes "sweep-time";
    # it leaves with ROADMAP item 1.
    if command != "sweep-time":
        raise ValueError(f"unknown command {command!r}")
    return sum(1 if key[1] == _HAAR_TOPOLOGY else len(config.time_grid) for key in _units(config))


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------


def _quantile(x: list, q: float) -> float:
    """Type-7 sample quantile (Hyndman and Fan, 1996) of the ascending ``x``.

    Equal bit for bit to ``np.quantile`` on finite values: it interpolates
    with numpy's arithmetic, whose weight at the top index is h + 1. (Where
    ``x`` mixes -0.0 and 0.0, numpy's partition picks which zero it meets, so
    there a zero result may differ in sign.) Next to an infinite neighbour it
    returns the limit of the interpolation, where numpy's ``a + (b - a) * t``
    gives nan; a nan anywhere gives nan.
    """
    if math.isnan(x[-1]):
        return x[-1]
    h = (len(x) - 1) * q
    lo = int(h)
    t = h - lo if lo < len(x) - 1 else h + 1
    a, b = x[lo], x[min(lo + 1, len(x) - 1)]
    if math.isinf(a) or math.isinf(b):  # the infinite neighbour; nan between -inf and inf
        return a if t == 0 or a == b else a + b
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

    Returns ``(metric_rows, holevo_node_rows)``.
    """
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.topology, rec.scheme, rec.n_reservoir, rec.time), []).append(rec)

    metric_rows, node_rows = [], []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], _time_key(k[3]))):
        topology, scheme, n, t = key
        bucket = groups[key]
        for field in _METRIC_FIELDS:
            stats = aggregate_stats(getattr(r, field) for r in bucket)
            metric_rows.append(AggregateRow(topology, scheme, n, t, field, stats))
        for node in range(n):
            stats = aggregate_stats(r.holevo_per_node[node] for r in bucket)
            node_rows.append(HolevoNodeRow(topology, scheme, n, t, node, stats))
    return tuple(metric_rows), tuple(node_rows)
