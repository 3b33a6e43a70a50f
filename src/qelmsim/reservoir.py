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


class Topology(enum.Enum):
    """Interaction graph of the reservoir qubits."""

    CHAIN = "C"
    RING = "R"
    FULLY_CONNECTED = "FC"

    @classmethod
    def parse(cls, value) -> "Topology":
        return la._parse_member(cls, value, "topology")


class CouplingScheme(enum.Enum):
    """How the input qubit is wired to the reservoir."""

    SINGLE_LINK = "SL"
    MULTI_LINK = "ML"

    @classmethod
    def parse(cls, value) -> "CouplingScheme":
        return la._parse_member(cls, value, "coupling scheme")


def edge_set(topology, n: int) -> list[tuple[int, int]]:
    """Ordered (k < j) interaction edges for ``n`` reservoir qubits."""
    topology = Topology.parse(topology)
    la._register_dim(n, "n", extra=1)
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
    la._register_dim(n, "n", extra=1)
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
        edge_set(self.topology, self.n_reservoir)  # the cap and the ring size

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
    "n_reservoir": la._count,
    "j_range": la._interval,
    "delta_range": la._interval,
    "seed": lambda v: la._count(v, minimum=0),
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
