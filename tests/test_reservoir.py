import numpy as np
import pytest
from scipy import stats

from qelmsim import linalg as la
from qelmsim.qelm import ShotMode
from qelmsim.reservoir import (
    CouplingScheme,
    HamiltonianSpec,
    Topology,
    _sign_plan,
    edge_set,
    injection_sites,
    sample_hamiltonian,
)

from _oracles import dense_hamiltonian, hamiltonian_terms


class TestEdgeSet:
    def test_chain(self):
        assert edge_set("C", 3) == [(0, 1), (1, 2)]

    def test_ring(self):
        assert edge_set(Topology.RING, 4) == [(0, 1), (1, 2), (2, 3), (0, 3)]

    def test_fully_connected_count(self):
        edges = edge_set("FC", 7)
        assert len(edges) == 21
        assert len(set(edges)) == 21
        assert all(k < j for k, j in edges)

    def test_ring_too_small(self):
        with pytest.raises(ValueError, match="ring"):
            edge_set("R", 2)

    def test_nesting(self):
        for n in (3, 5, 7):
            chain = set(edge_set("C", n))
            ring = set(edge_set("R", n))
            fc = set(edge_set("FC", n))
            assert chain < ring <= fc

    def test_parse_aliases(self):
        # a member, or its exact value, is accepted; a member name, a case
        # variant, a "-" or space spelling or a short form such as "joint" is not
        spellings = {
            Topology.CHAIN: ["c", " C", "chain", "CHAIN"],
            Topology.RING: ["r", "ring", "RING"],
            Topology.FULLY_CONNECTED: ["fc", "Fc", "fully-connected", "fully connected", "FULLY_CONNECTED"],
            CouplingScheme.SINGLE_LINK: ["sl", "single-link", "single link", "SINGLE_LINK"],
            CouplingScheme.MULTI_LINK: ["ml", "multi-link", "MULTI_LINK"],
            ShotMode.EXACT: ["EXACT", " exact ", "Exact"],
            ShotMode.JOINT_BITSTRINGS: ["joint", "JOINT", "joint-bitstrings", "Joint Bitstrings", "JOINT_BITSTRINGS"],
        }
        kinds = {Topology: "topology", CouplingScheme: "coupling scheme", ShotMode: "shot mode"}
        for member, texts in spellings.items():
            cls = type(member)
            assert cls.parse(member) is member
            assert cls.parse(member.value) is member
            for text in texts:
                with pytest.raises(ValueError, match=f"^unknown {kinds[cls]} '{text}'"):
                    cls.parse(text)
        for cls, kind, text in [
            (Topology, "topology", "star"),
            (CouplingScheme, "coupling scheme", "XL"),
            (ShotMode, "shot mode", "binomial"),
            (ShotMode, "shot mode", "independent_binomial"),
        ]:
            with pytest.raises(ValueError, match=f"^unknown {kind} '{text}'"):
                cls.parse(text)


class TestHamiltonianSpec:
    def test_defaults(self):
        spec = HamiltonianSpec(7, "FC", "ML", seed=1)
        assert spec.j_range == (-1.0, 1.0)
        assert spec.delta_range == (-0.1, 0.1)
        assert spec.dim == 256

    def test_rejects_ring_of_two(self):
        with pytest.raises(ValueError, match="ring"):
            HamiltonianSpec(2, "R", "SL")

    def test_rejects_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            HamiltonianSpec(12, "C", "SL")

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError, match="j_range"):
            HamiltonianSpec(3, "C", "SL", j_range=(1.0, -1.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_reservoir", 2.5),
            ("n_reservoir", True),
            ("j_range", ("0", "1")),
            ("j_range", (0, 1, 2)),
            ("delta_range", (False, 0.1)),
            ("seed", True),
            ("seed", 1.5),
            ("seed", -1),
            # a range is a [lo, hi] list of two real numbers, never a string or an object
            ("j_range", [False, True]),
            ("j_range", ["a", 1]),
            ("j_range", {}),
            ("delta_range", {"lo": 0, "hi": 1}),
            ("delta_range", [0, 0.1, 0.2]),
            ("j_range", "12"),
            ("delta_range", "01"),
            # nor a set, which has no order, or bytes
            ("j_range", {0.0, 1.0}),
            ("delta_range", b"\x00\x01"),
        ],
        ids=[
            "n-float", "n-bool", "j-strings", "j-triple", "delta-bool", "seed-bool", "seed-float", "seed-negative",
            "j-bool", "j-letter", "j-dict", "delta-dict", "delta-triple", "j-string", "delta-string",
            "j-set", "delta-bytes",
        ],
    )
    def test_rejects_what_a_sweep_config_rejects(self, field, value):
        # the count and seed rules of SweepConfig, and the range rule, each error naming its field
        spec = {"n_reservoir": 3, "topology": "C", "scheme": "SL", field: value}
        with pytest.raises(ValueError, match=f"^{field}: "):
            HamiltonianSpec(**spec)


def projected_coefficients(h, terms) -> np.ndarray:
    """Each term's coefficient recovered from ``h``: Tr(P_s h) / dim for its
    Pauli string P_s (the strings are Hermitian and trace-orthogonal)."""
    return np.array([np.vdot(string, h).real / h.shape[0] for _, _, string in terms])


class TestSampleHamiltonian:
    def test_coefficient_count_n7_fc_ml(self):
        flips, imag, signs, field = _sign_plan(Topology.FULLY_CONNECTED, CouplingScheme.MULTI_LINK, 7)
        assert len(flips) == len(imag) == len(signs) == len(field) == 21 * 9 + 7 * 3 + 7 * 9
        assert field.sum() == 21 and field.dtype == bool

    def test_rebuild_matches_small(self):
        ham = sample_hamiltonian(HamiltonianSpec(2, "C", "SL", seed=6))
        assert ham.h_total.shape == (8, 8)
        assert np.array_equal(ham.h_total, dense_hamiltonian(ham.spec))

    def test_rebuild_matches_all_variants(self):
        cases = [(3, topo, scheme, 7) for topo in ("C", "R", "FC") for scheme in ("SL", "ML")]
        cases += [(7, topo, scheme, seed) for topo, scheme in (("C", "SL"), ("FC", "ML")) for seed in (0, 99)]
        cases += [
            (n, topo, scheme, seed)
            for n in (1, 2, 3, 4, 5)
            for topo in ("C", "R", "FC")
            if topo != "R" or n >= 3
            for scheme in ("SL", "ML")
            for seed in (0, 1, 99, 12345)
        ]
        for n, topo, scheme, seed in cases:
            ham = sample_hamiltonian(HamiltonianSpec(n, topo, scheme, seed=seed))
            assert np.array_equal(ham.h_total, dense_hamiltonian(ham.spec))

    @pytest.mark.parametrize("n, topo, scheme", [(1, "C", "ML"), (3, "R", "SL"), (4, "FC", "ML"), (7, "C", "ML")])
    def test_draw_order(self, n, topo, scheme):
        # the one uniform call along the plan takes the stream as the oracle's
        # one call per edge block, then the fields, then one per link block do
        spec = HamiltonianSpec(n, topo, scheme, seed=2024)
        ham = sample_hamiltonian(spec)
        assert np.array_equal(ham.h_total, dense_hamiltonian(spec))
        terms = list(hamiltonian_terms(spec))
        drawn = np.array([coeff for _, coeff, _ in terms])
        assert np.max(np.abs(projected_coefficients(ham.h_total, terms) - drawn)) <= 1e-14

    def test_determinism(self):
        spec = HamiltonianSpec(3, "R", "ML", seed=123)
        h1 = sample_hamiltonian(spec)
        h2 = sample_hamiltonian(spec)
        assert h1.spec == h2.spec == spec
        assert np.array_equal(h1.h_total, h2.h_total)

    def test_hermiticity(self):
        for seed in range(4):
            ham = sample_hamiltonian(HamiltonianSpec(4, "FC", "ML", seed=seed))
            assert np.max(np.abs(ham.h_total - ham.h_total.conj().T)) <= 1e-12

    def test_single_link_support(self):
        spec = HamiltonianSpec(4, "C", "SL", seed=9)
        ham = sample_hamiltonian(spec)
        assert injection_sites(spec.scheme, 4) == [0]
        # the link terms, with coefficients drawn from the seed in the documented order
        links = [term for term in hamiltonian_terms(spec) if spec.n_reservoir in term[0]]
        assert {sites for sites, _, _ in links} == {(0, spec.n_reservoir)}
        h_inj = sum(coeff * string for _, coeff, string in links)
        # and they are the link coefficients that h_total carries
        drawn = np.array([coeff for _, coeff, _ in links])
        assert np.max(np.abs(projected_coefficients(ham.h_total, links) - drawn)) <= 1e-14
        # Commutes with every Pauli on uncoupled reservoir sites, not with
        # operators on the coupled site or the input.
        n_tot = spec.n_reservoir + 1
        for site in (1, 2, 3):
            op = la.embed_pauli("z", site, n_tot)
            assert np.max(np.abs(h_inj @ op - op @ h_inj)) <= 1e-12
        for site in (0, spec.n_reservoir):
            op = la.embed_pauli("z", site, n_tot)
            assert np.max(np.abs(h_inj @ op - op @ h_inj)) > 1e-3

    def test_no_field_on_input_qubit(self):
        spec = HamiltonianSpec(3, "C", "ML", seed=10)
        ham = sample_hamiltonian(spec)
        for axis in la.PAULI_AXES:
            op = la.embed_pauli(axis, spec.n_reservoir, spec.n_reservoir + 1)
            assert abs(np.trace(op @ ham.h_total)) <= 1e-12
        assert _sign_plan(spec.topology, spec.scheme, 3)[3].sum() == 3 * 3

    def test_coupling_uniformity_kolmogorov_smirnov(self):
        # coefficients recovered from h_total by projection, split by the plan's field flag
        terms = list(hamiltonian_terms(HamiltonianSpec(3, "C", "SL")))
        field = _sign_plan(Topology.CHAIN, CouplingScheme.SINGLE_LINK, 3)[3]
        assert np.array_equal(field, [len(sites) == 1 for sites, _, _ in terms])
        coeffs = np.array([
            projected_coefficients(sample_hamiltonian(HamiltonianSpec(3, "C", "SL", seed=seed)).h_total, terms)
            for seed in range(500)
        ])
        js, deltas = coeffs[:, ~field].ravel(), coeffs[:, field].ravel()
        assert stats.kstest(js, stats.uniform(loc=-1.0, scale=2.0).cdf).pvalue > 0.01
        assert stats.kstest(deltas, stats.uniform(loc=-0.1, scale=0.2).cdf).pvalue > 0.01
