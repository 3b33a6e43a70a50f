import numpy as np
import pytest
from scipy import stats

from qelmsim import linalg as la
from qelmsim.qelm import ShotMode
from qelmsim.reservoir import (
    CouplingScheme,
    HamiltonianSpec,
    Topology,
    edge_set,
    injection_sites,
    sample_hamiltonian,
)

from _oracles import dense_hamiltonian

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
        assert spec.input_site == 7

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
        ],
        ids=[
            "n-float", "n-bool", "j-strings", "j-triple", "delta-bool", "seed-bool", "seed-float", "seed-negative",
            "j-bool", "j-letter", "j-dict", "delta-dict", "delta-triple", "j-string", "delta-string",
        ],
    )
    def test_rejects_what_a_sweep_config_rejects(self, field, value):
        # the count and seed rules of SweepConfig, and the range rule, each error naming its field
        spec = {"n_reservoir": 3, "topology": "C", "scheme": "SL", field: value}
        with pytest.raises(ValueError, match=f"^{field}: "):
            HamiltonianSpec(**spec)


class TestSampleHamiltonian:
    def test_coefficient_count_n7_fc_ml(self):
        ham = sample_hamiltonian(HamiltonianSpec(7, "FC", "ML", seed=5))
        n_res = sum(m.size for m in ham.couplings_res.values())
        n_inj = sum(m.size for m in ham.couplings_inj.values())
        assert n_res + ham.local_fields.size + n_inj == 21 * 9 + 7 * 3 + 7 * 9

    def test_rebuild_matches_small(self):
        ham = sample_hamiltonian(HamiltonianSpec(2, "C", "SL", seed=6))
        assert ham.h_total.shape == (8, 8)
        assert np.array_equal(ham.h_total, dense_hamiltonian(ham))

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
            assert np.array_equal(ham.h_total, dense_hamiltonian(ham))

    @pytest.mark.parametrize("n, topo, scheme", [(1, "C", "ML"), (3, "R", "SL"), (4, "FC", "ML"), (7, "C", "ML")])
    def test_draw_order(self, n, topo, scheme):
        # one uniform call per edge block, then the fields, then one per link
        # block, from a fresh generator on the spec's seed
        spec = HamiltonianSpec(n, topo, scheme, seed=2024)
        ham = sample_hamiltonian(spec)
        rng = np.random.default_rng(2024)
        edges = edge_set(topo, n)
        links = injection_sites(scheme, n)
        expected_res = {edge: rng.uniform(-1.0, 1.0, size=(3, 3)) for edge in edges}
        expected_fields = rng.uniform(-0.1, 0.1, size=(n, 3))
        expected_inj = {k: rng.uniform(-1.0, 1.0, size=(3, 3)) for k in links}
        assert list(ham.couplings_res) == edges and list(ham.couplings_inj) == links
        for edge in edges:
            assert np.array_equal(ham.couplings_res[edge], expected_res[edge])
        assert np.array_equal(ham.local_fields, expected_fields)
        for k in links:
            assert np.array_equal(ham.couplings_inj[k], expected_inj[k])

    def test_determinism(self):
        spec = HamiltonianSpec(3, "R", "ML", seed=123)
        h1 = sample_hamiltonian(spec)
        h2 = sample_hamiltonian(spec)
        assert np.array_equal(h1.h_total, h2.h_total)
        for key in h1.couplings_res:
            assert np.array_equal(h1.couplings_res[key], h2.couplings_res[key])
        assert np.array_equal(h1.local_fields, h2.local_fields)

    def test_hermiticity(self):
        for seed in range(4):
            ham = sample_hamiltonian(HamiltonianSpec(4, "FC", "ML", seed=seed))
            assert np.max(np.abs(ham.h_total - ham.h_total.conj().T)) <= 1e-12

    def test_single_link_support(self):
        spec = HamiltonianSpec(4, "C", "SL", seed=9)
        ham = sample_hamiltonian(spec)
        assert injection_sites(spec.scheme, 4) == [0]
        assert list(ham.couplings_inj) == [0]
        n_tot = spec.n_total
        h_inj = np.zeros((spec.dim, spec.dim), dtype=complex)
        for k, jmat in ham.couplings_inj.items():
            for a in range(3):
                for b in range(3):
                    h_inj += (
                        jmat[a, b]
                        * la.embed_pauli("xyz"[a], k, n_tot)
                        @ la.embed_pauli("xyz"[b], spec.input_site, n_tot)
                    )
        # Commutes with every Pauli on uncoupled reservoir sites, not with
        # operators on the coupled site or the input.
        for site in (1, 2, 3):
            op = la.embed_pauli("z", site, n_tot)
            assert np.max(np.abs(h_inj @ op - op @ h_inj)) <= 1e-12
        for site in (0, spec.input_site):
            op = la.embed_pauli("z", site, n_tot)
            assert np.max(np.abs(h_inj @ op - op @ h_inj)) > 1e-3

    def test_no_field_on_input_qubit(self):
        ham = sample_hamiltonian(HamiltonianSpec(3, "C", "ML", seed=10))
        assert ham.local_fields.shape == (3, 3)

    def test_coupling_uniformity_kolmogorov_smirnov(self):
        js, deltas = [], []
        for seed in range(500):
            ham = sample_hamiltonian(HamiltonianSpec(3, "C", "SL", seed=seed))
            js.extend(m.ravel() for m in ham.couplings_res.values())
            js.extend(m.ravel() for m in ham.couplings_inj.values())
            deltas.append(ham.local_fields.ravel())
        js = np.concatenate(js)
        deltas = np.concatenate(deltas)
        assert stats.kstest(js, stats.uniform(loc=-1.0, scale=2.0).cdf).pvalue > 0.01
        assert stats.kstest(deltas, stats.uniform(loc=-0.1, scale=0.2).cdf).pvalue > 0.01
