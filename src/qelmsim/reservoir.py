"""Random spin-network Hamiltonians on an (N+1)-qubit register.

The first N qubits form the reservoir, the last qubit (index N) carries the
input state. Reservoir qubits interact along a chain, ring, or fully connected
graph; the input qubit couples either to reservoir qubit 0 only (single link)
or to all reservoir qubits (multi link). Every two-site term carries an
independent 3x3 block of Pauli-Pauli couplings, every reservoir site an
independent local field; the input qubit carries no local field.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg as la

__all__ = [
    "Topology",
    "CouplingScheme",
    "HamiltonianSpec",
    "ReservoirHamiltonian",
    "DEFAULT_J_RANGE",
    "DEFAULT_DELTA_RANGE",
    "edge_set",
    "injection_sites",
    "sample_hamiltonian",
]

DEFAULT_J_RANGE = (-1.0, 1.0)
DEFAULT_DELTA_RANGE = (-0.1, 0.1)


# Value rules, shared with ``harness.SweepConfig``: each resolver maps a value
# to its resolved form or raises ValueError.


def _is_integer(value) -> bool:
    """True for Python and numpy integers; booleans are not counts."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_bool(value) -> bool:
    return isinstance(value, (bool, np.bool_))


def _is_real(value) -> bool:
    """True for Python and numpy reals; booleans are not numbers here."""
    return isinstance(value, numbers.Real) and not _is_bool(value)


def _count(value, minimum: int = 1) -> int:
    if not _is_integer(value) or value < minimum:
        raise ValueError(f"must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _finite(value, label: str = "each entry") -> float:
    if not _is_real(value) or not math.isfinite(value):
        raise ValueError(f"{label} must be a finite real number, got {value!r}")
    return float(value)


def _entries(value, bare=()) -> tuple:
    """The entries of a list value; a value of a ``bare`` type is a one-entry list."""
    if isinstance(value, bare):
        return (value,)
    if isinstance(value, (str, dict)) or not np.iterable(value):
        raise ValueError(f"must be a list, got {value!r}")
    return tuple(value)


def _interval(value) -> tuple:
    pair = tuple(_finite(x) for x in _entries(value))
    if len(pair) != 2 or pair[0] > pair[1]:
        raise ValueError(f"must be a [lo, hi] pair with lo <= hi, got {value!r}")
    return pair


class Topology(enum.Enum):
    """Interaction graph of the reservoir qubits."""

    CHAIN = "C"
    RING = "R"
    FULLY_CONNECTED = "FC"

    @classmethod
    def parse(cls, value) -> "Topology":
        if isinstance(value, cls):
            return value
        text = str(value).strip().upper().replace("-", "_").replace(" ", "_")
        aliases = {
            "C": cls.CHAIN,
            "CHAIN": cls.CHAIN,
            "R": cls.RING,
            "RING": cls.RING,
            "FC": cls.FULLY_CONNECTED,
            "FULLY_CONNECTED": cls.FULLY_CONNECTED,
        }
        if text not in aliases:
            raise ValueError(f"unknown topology {value!r} (expected one of C, R, FC)")
        return aliases[text]


class CouplingScheme(enum.Enum):
    """How the input qubit is wired to the reservoir."""

    SINGLE_LINK = "SL"
    MULTI_LINK = "ML"

    @classmethod
    def parse(cls, value) -> "CouplingScheme":
        if isinstance(value, cls):
            return value
        text = str(value).strip().upper().replace("-", "_").replace(" ", "_")
        aliases = {
            "SL": cls.SINGLE_LINK,
            "SINGLE_LINK": cls.SINGLE_LINK,
            "ML": cls.MULTI_LINK,
            "MULTI_LINK": cls.MULTI_LINK,
        }
        if text not in aliases:
            raise ValueError(f"unknown coupling scheme {value!r} (expected SL or ML)")
        return aliases[text]


def edge_set(topology, n: int) -> list[tuple[int, int]]:
    """Ordered (k < j) interaction edges for ``n`` reservoir qubits."""
    topology = Topology.parse(topology)
    if n < 1:
        raise ValueError(f"need at least one reservoir qubit, got n={n}")
    chain = [(k, k + 1) for k in range(n - 1)]
    if topology is Topology.CHAIN:
        return chain
    if topology is Topology.RING:
        if n < 3:
            raise ValueError(f"ring topology needs n >= 3 (n={n} would double an edge)")
        return chain + [(0, n - 1)]
    return [(k, j) for k in range(n) for j in range(k + 1, n)]


def injection_sites(scheme, n: int) -> list[int]:
    """Reservoir sites the input qubit couples to."""
    scheme = CouplingScheme.parse(scheme)
    if scheme is CouplingScheme.SINGLE_LINK:
        return [0]
    return list(range(n))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Everything needed to reproduce one reservoir realization."""

    n_reservoir: int
    topology: Topology
    scheme: CouplingScheme
    j_range: tuple[float, float] = DEFAULT_J_RANGE
    delta_range: tuple[float, float] = DEFAULT_DELTA_RANGE
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "topology", Topology.parse(self.topology))
        object.__setattr__(self, "scheme", CouplingScheme.parse(self.scheme))
        for name, resolve in _SPEC_RESOLVERS.items():
            try:
                object.__setattr__(self, name, resolve(getattr(self, name)))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from exc
        if self.topology is Topology.RING and self.n_reservoir < 3:
            raise ValueError("ring topology needs n_reservoir >= 3")
        if 2**self.n_total > la.MAX_DIM:
            raise ValueError(
                f"{self.n_total} qubits exceed the dense-algebra cap (dim {la.MAX_DIM})"
            )

    @property
    def n_total(self) -> int:
        return self.n_reservoir + 1

    @property
    def input_site(self) -> int:
        return self.n_reservoir

    @property
    def dim(self) -> int:
        return 2**self.n_total


_SPEC_RESOLVERS = {
    "n_reservoir": _count,
    "j_range": _interval,
    "delta_range": _interval,
    "seed": lambda v: _count(v, minimum=0),
}


@dataclass(frozen=True)
class ReservoirHamiltonian:
    """A sampled Hamiltonian together with the coefficients that built it.

    ``couplings_res`` maps reservoir edges (k, j) to 3x3 arrays J[alpha, beta],
    ``couplings_inj`` maps reservoir sites to the 3x3 input-coupling blocks,
    and ``local_fields`` is the (N, 3) array of per-site fields. ``h_total``
    equals the sum rebuilt from these coefficients.
    """

    spec: HamiltonianSpec
    h_total: np.ndarray
    couplings_res: dict[tuple[int, int], np.ndarray]
    couplings_inj: dict[int, np.ndarray]
    local_fields: np.ndarray


def _add_pauli_string(h: np.ndarray, coeff: float, factors, n_total: int) -> None:
    """``h += coeff * P`` for the Pauli string ``P`` given as ``(site, axis)`` factors.

    A Pauli string is a signed permutation: X and Y flip the site's bit, and
    Y and Z give each row a phase that depends on the bit. Every entry of
    ``coeff * P`` is exactly ``+-coeff`` or ``+-1j * coeff``.
    """
    rows = np.arange(h.shape[0])
    flip = 0
    phase = np.full(h.shape[0], coeff, dtype=complex)
    for site, axis in factors:
        shift = n_total - 1 - site
        sign = 1 - 2 * ((rows >> shift) & 1)
        if axis != "z":
            flip |= 1 << shift
        if axis == "y":
            phase *= -1j * sign
        elif axis == "z":
            phase *= sign
    h[rows, rows ^ flip] += phase


def _add_coupling_block(h: np.ndarray, jmat: np.ndarray, site_a: int, site_b: int, n_total: int) -> None:
    """``h += sum_ab J[a, b] sigma_a(site_a) sigma_b(site_b)``, in row-major (a, b) order."""
    for a, axis_a in enumerate(la.PAULI_AXES):
        for b, axis_b in enumerate(la.PAULI_AXES):
            _add_pauli_string(h, jmat[a, b], ((site_a, axis_a), (site_b, axis_b)), n_total)


def sample_hamiltonian(spec: HamiltonianSpec) -> ReservoirHamiltonian:
    """Draw the reservoir realization that ``spec.seed`` determines.

    A fresh generator seeded from ``spec.seed`` draws, in this fixed order,
    the per-edge 3x3 couplings in ``edge_set`` order, then the (N, 3) local
    fields, then the per-link input couplings in ascending site order.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n_reservoir
    n_tot = spec.n_total
    h = np.zeros((spec.dim, spec.dim), dtype=complex)

    couplings_res: dict[tuple[int, int], np.ndarray] = {}
    for k, j in edge_set(spec.topology, n):
        jmat = rng.uniform(spec.j_range[0], spec.j_range[1], size=(3, 3))
        couplings_res[(k, j)] = jmat
        _add_coupling_block(h, jmat, k, j, n_tot)

    local_fields = rng.uniform(spec.delta_range[0], spec.delta_range[1], size=(n, 3))
    for k in range(n):
        for a, axis in enumerate(la.PAULI_AXES):
            _add_pauli_string(h, local_fields[k, a], ((k, axis),), n_tot)

    couplings_inj: dict[int, np.ndarray] = {}
    for k in injection_sites(spec.scheme, n):
        jmat = rng.uniform(spec.j_range[0], spec.j_range[1], size=(3, 3))
        couplings_inj[k] = jmat
        _add_coupling_block(h, jmat, k, spec.input_site, n_tot)

    return ReservoirHamiltonian(
        spec=spec,
        h_total=h,
        couplings_res=couplings_res,
        couplings_inj=couplings_inj,
        local_fields=local_fields,
    )
