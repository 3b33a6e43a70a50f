"""Random spin-network Hamiltonians on an (N+1)-qubit register.

The first N qubits form the reservoir, the last qubit (index N) carries the
input state. Reservoir qubits interact along a chain, ring, or fully connected
graph; the input qubit couples either to reservoir qubit 0 only (single link)
or to all reservoir qubits (multi link). Every two-site term carries an
independent 3x3 block of Pauli-Pauli couplings, every reservoir site an
independent local field; the input qubit carries no local field.

Each Pauli string is a signed permutation, so the strings of one (topology,
scheme, N) are cached once as an int8 sign plan (``_sign_plan``). A realization
is one ``uniform`` draw along that plan from a generator on its seed, so the
seed alone gives back every coefficient and the matrix they build.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import linalg as la

__all__ = [
    "Topology",
    "CouplingScheme",
    "HamiltonianSpec",
    "ReservoirHamiltonian",
    "edge_set",
    "sample_hamiltonian",
]


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
    j_range: tuple[float, float] = (-1.0, 1.0)
    delta_range: tuple[float, float] = (-0.1, 0.1)
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
    def dim(self) -> int:
        return 2 ** (self.n_reservoir + 1)


_SPEC_RESOLVERS = {
    "n_reservoir": la._count,
    "j_range": la._interval,
    "delta_range": la._interval,
    "seed": lambda v: la._count(v, minimum=0),
}


@dataclass(frozen=True)
class ReservoirHamiltonian:
    """A sampled Hamiltonian and the spec that draws it again.

    ``spec.seed`` fixes every coefficient: ``sample_hamiltonian(spec)`` gives
    the same ``h_total`` bit for bit, so the coefficients are not kept.
    """

    spec: HamiltonianSpec
    h_total: np.ndarray


@lru_cache(maxsize=None)
def _sign_plan(topology: Topology, scheme: CouplingScheme, n: int) -> tuple:
    """``(flips, imag, signs, field)`` of every Pauli string of the model, in draw order.

    A Pauli string is a signed permutation: X and Y flip the site's bit, Y and
    Z give each row a sign from the bit, and each Y a factor -i. So string s
    puts ``coeff * signs[s, r]`` at (r, r ^ flips[s]), in the imaginary part
    where ``imag[s]`` (one Y) and in the real part otherwise. The strings are
    the (a, b) blocks of ``edge_set``, the (k, a) fields (``field``, drawn
    from ``delta_range``), then the (a, b) blocks of ``injection_sites``.
    ``signs`` is int8, a byte per row.
    """
    rows, axes = np.arange(2 ** (n + 1)), la.PAULI_AXES
    blocks = [((k, a), (j, b)) for k, j in edge_set(topology, n) for a in axes for b in axes]
    blocks += [((k, a),) for k in range(n) for a in axes]
    blocks += [((k, a), (n, b)) for k in injection_sites(scheme, n) for a in axes for b in axes]
    flips, imag, signs = [], [], []
    for factors in blocks:
        flip, sign, n_y = 0, np.ones_like(rows), 0
        for site, axis in factors:
            shift = n - site
            if axis != "z":
                flip |= 1 << shift
            if axis != "x":
                sign *= 1 - 2 * ((rows >> shift) & 1)
            n_y += axis == "y"
        flips.append(flip)
        imag.append(n_y == 1)
        signs.append(-sign if n_y else sign)  # (-i)**1 = -i, (-i)**2 = -1
    field = np.array([len(factors) == 1 for factors in blocks])
    plan = (np.array(flips), np.array(imag), np.array(signs, dtype=np.int8), field)
    for part in plan:
        part.setflags(write=False)
    return plan


def sample_hamiltonian(spec: HamiltonianSpec) -> ReservoirHamiltonian:
    """Draw the reservoir realization that ``spec.seed`` determines.

    One ``uniform`` call on a fresh generator seeded from ``spec.seed`` draws
    every coefficient along ``_sign_plan``, each from its string's range: the
    per-edge 3x3 couplings in ``edge_set`` order, the (N, 3) local fields, then
    the per-link input couplings in ascending site order. That takes the
    stream as one call per block would. ``h_total`` is one ``bincount`` per
    part over the plan; ``bincount`` adds in input order, so each entry sums
    its strings in draw order, as adding one string at a time would (the zero
    that a string adds to its other part changes no sum).
    """
    flips, imag, signs, field = _sign_plan(spec.topology, spec.scheme, spec.n_reservoir)
    lo, hi = np.where(field[:, None], spec.delta_range, spec.j_range).T
    coeffs = np.random.default_rng(spec.seed).uniform(lo, hi)
    dim, rows = spec.dim, np.arange(spec.dim)
    h = np.empty((dim, dim), dtype=complex)
    for part, strings in ((h.real, ~imag), (h.imag, imag)):
        flat = rows ^ flips[strings, None]
        flat += rows * dim
        weights = coeffs[strings, None] * signs[strings]
        part[...] = np.bincount(flat.ravel(), weights.ravel(), minlength=dim * dim).reshape(h.shape)
    return ReservoirHamiltonian(spec, h)
