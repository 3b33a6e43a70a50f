"""Property-based checks of invariants that docstrings promise.

Every property runs under one profile: derandomized, with no example
database and no deadline, so the suite stays deterministic and writes no
``.hypothesis/`` directory. Each property stays at N <= 4, except the
stacked kernels' bit equality, which draws only isometries and runs to N = 7.
"""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from qelmsim import harness
from qelmsim import linalg as la
from qelmsim.cli import config_digest
from qelmsim.harness import ConfigError, SweepConfig, _otoc_per_pair_from_unitary, _quantile
from qelmsim.qelm import ShotModel, _features_from_columns, _reservoir_weights, _state_coords
from qelmsim.scrambling import _holevo_from_columns
from qelmsim.reservoir import HamiltonianSpec, sample_hamiltonian

from _oracles import dense_hamiltonian, partial_trace_indexsum, random_density, random_unitary

# Hypothesis also caches the constants it reads from local modules under its
# home directory. A home under os.devnull cannot be made, so it keeps them in
# memory and writes nothing.
set_hypothesis_home_dir(Path(os.devnull) / "hypothesis")
PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=50)

finite = st.floats(allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**64 - 1)


@PROFILE
@given(st.lists(finite, min_size=1, max_size=30), st.one_of(st.sampled_from([0.25, 0.5, 0.75]), st.floats(0.0, 1.0)))
@example([-0.0, -0.0], 0.25)  # numpy gives 0.0 here, as -0.0 + (b - a) * t does
@example([-0.0], 0.5)  # but -0.0 at the top index, where its weight is h + 1
@example([-1e308, 1e308], 0.0)  # b - a overflows: nan in both
def test_quantile_equals_numpy_bit_for_bit(values, q):
    x = sorted(values)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.quantile(x, q)
    got = _quantile(x, q)
    if {math.copysign(1.0, v) for v in x if v == 0} == {1.0, -1.0}:
        # numpy's partition picks which of -0.0 and 0.0 it meets, so the sign
        # of a zero result is not a function of the values
        assert got == expected
    else:
        assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@PROFILE
@given(seeds, st.integers(min_value=1, max_value=20))
def test_one_draw_of_k_states_equals_k_draws_of_one(seed, k):
    together = la.random_pure_qubit_states(np.random.default_rng(seed), k)
    rng = np.random.default_rng(seed)
    one_by_one = np.concatenate([la.random_pure_qubit_states(rng, 1) for _ in range(k)])
    assert np.array_equal(together, one_by_one)


def _time_grids():
    times = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=8, unique=True).map(sorted)
    spans = st.tuples(st.floats(0.0, 50.0), st.floats(0.1, 50.0), st.integers(1, 41))
    return st.one_of(times, spans.map(lambda s: {"start": s[0], "stop": s[0] + s[1], "points": s[2]}))


@st.composite
def sweep_configs(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    fields = {
        "n_reservoir": sizes[0] if draw(st.booleans()) else sizes,
        "topologies": draw(st.lists(st.sampled_from(["C", "R", "FC"]), min_size=1, max_size=3, unique=True)),
        "schemes": draw(st.lists(st.sampled_from(["SL", "ML"]), min_size=1, max_size=2, unique=True)),
        "time_grid": draw(_time_grids()),
        "n_realizations": draw(st.integers(1, 1000)),
        "n_train": draw(st.integers(1, 1000)),
        "n_test": draw(st.integers(1, 1000)),
        "shot_model": {"mode": draw(st.sampled_from(["exact", "joint_bitstrings"])), "shots": draw(st.integers(1, 2**63 - 1))},
        "master_seed": draw(seeds),
        "include_haar_baseline": draw(st.booleans()),
    }
    assume("R" not in fields["topologies"] or min(sizes) >= 3)
    try:
        return SweepConfig(**fields)
    except ConfigError:  # a linspace grid that rounds two times together
        assume(False)


@PROFILE
@given(sweep_configs())
def test_config_round_trips_through_its_dict(cfg):
    for form in (cfg.as_dict(), json.loads(json.dumps(cfg.as_dict()))):
        again = SweepConfig(**form)
        assert again == cfg
        assert config_digest(again) == config_digest(cfg)


@PROFILE
@given(st.integers(1, 3), st.sampled_from(["C", "R", "FC"]), st.sampled_from(["SL", "ML"]), seeds)
def test_hamiltonian_matches_dense_oracle(n, topology, scheme, seed):
    assume(topology != "R" or n >= 3)
    spec = HamiltonianSpec(n, topology, scheme, seed=seed)
    assert np.array_equal(sample_hamiltonian(spec).h_total, dense_hamiltonian(spec))


# Any value a JSON config can hold, with counts beyond every cap (2**63 does
# not fit a C long) and keys that the object forms read.
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 50),
    st.sampled_from([10**6 + 1, 2**63 - 1, 2**63, 2**100, -(2**100)]),
    st.floats(),
    st.text(max_size=4),
    st.sampled_from(["C", "R", "FC", "SL", "ML", "exact", "joint_bitstrings"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
        st.fixed_dictionaries({"start": inner, "stop": inner, "points": inner}),
        st.fixed_dictionaries({}, optional={"mode": inner, "shots": inner}),
    ),
    max_leaves=6,
)


@PROFILE
@given(st.sampled_from([f.name for f in dataclasses.fields(SweepConfig)]), _json_values)
@example("time_grid", {"start": 0, "stop": 1, "points": 2**63})  # was IndexError from np.linspace
@example("time_grid", {"start": -1e308, "stop": 1e308, "points": 3})  # was linspace's overflow RuntimeWarning
def test_every_field_value_resolves_or_names_its_field(name, value):
    # a size below 3 is fine beside a chain; the ring rule would name topologies
    base = {} if name == "topologies" else {"topologies": ["C"]}
    try:
        SweepConfig(**base, **{name: value})
    except ConfigError as exc:
        assert str(exc).startswith(f"{name}: "), str(exc)


@PROFILE
@given(st.integers(1, 3), seeds, st.floats(-2.0, 3.0))
def test_reservoir_probabilities_are_affine_and_the_dense_marginal(n, seed, weight):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2 ** (n + 1))
    rho, sigma = random_density(rng, 2), random_density(rng, 2)
    mix = weight * rho + (1.0 - weight) * sigma  # unit trace, Hermitian, not always positive
    probs = _state_coords(np.array([rho, sigma, mix])) @ _reservoir_weights(u[:, :2])
    assert np.max(np.abs(probs[2] - (weight * probs[0] + (1.0 - weight) * probs[1]))) <= 1e-13
    fiducial = np.zeros((2**n, 2**n))
    fiducial[0, 0] = 1.0
    for state, p in zip((rho, sigma), probs):
        marginal = partial_trace_indexsum(u @ np.kron(fiducial, state) @ u.conj().T, n + 1, range(n))
        assert np.max(np.abs(p - np.diag(marginal).real)) <= 1e-14


# The sweep kernels checked against identities that hold for every unitary u
# of the register (N reservoir qubits, then the input qubit), so no second
# implementation, and none of its conventions, is needed.
ROUND_OFF = 1e-13


def _exact_features(u, n, states):
    weights = _reservoir_weights(la._input_columns(u, n))
    return _features_from_columns(weights, _state_coords(np.asarray(states)), n, ShotModel("exact"), None)


@PROFILE
@given(st.integers(1, 4), seeds)
def test_a_frame_on_the_input_turns_the_state_and_keeps_the_otoc(n, seed):
    # u (I x W) carries rho as u carries W rho W^dag. The mean OTOC is
    # unchanged: sum_a sigma_a x sigma_a = 2 SWAP - I commutes with W x W
    # (the twirl of Hosur, Qi, Roberts and Yoshida, JHEP 2016).
    rng = np.random.default_rng(seed)
    u, w = random_unitary(rng, 2 ** (n + 1)), random_unitary(rng, 2)
    rhos = np.array([random_density(rng, 2) for _ in range(3)])
    framed = (u.reshape(-1, 2**n, 2) @ w).reshape(u.shape)
    turned = w @ rhos @ w.conj().T
    assert np.max(np.abs(_exact_features(framed, n, rhos) - _exact_features(u, n, turned))) <= ROUND_OFF
    assert abs(_otoc_per_pair_from_unitary(framed, n) - _otoc_per_pair_from_unitary(u, n)) <= ROUND_OFF


@PROFILE
@given(st.integers(1, 4), seeds)
def test_permuting_the_reservoir_after_u_permutes_the_nodes(n, seed):
    # P u, with P taking reservoir qubit perm[j] to site j: node j then sees
    # what node perm[j] saw, and the mean over sites of the OTOC is unchanged.
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2 ** (n + 1))
    perm = rng.permutation(n)
    axes = [*perm, n, n + 1]
    permuted = u.reshape((2,) * (n + 1) + (-1,)).transpose(axes).reshape(u.shape)
    rhos = np.array([random_density(rng, 2) for _ in range(3)])
    assert np.max(np.abs(_exact_features(permuted, n, rhos) - _exact_features(u, n, rhos)[perm])) <= ROUND_OFF
    before, after = (_holevo_from_columns(la._input_columns(v, n), n) for v in (u, permuted))
    assert np.max(np.abs(after.per_node - before.per_node[perm])) <= ROUND_OFF
    assert np.max(np.abs(after.per_node_per_axis - before.per_node_per_axis[perm])) <= ROUND_OFF
    assert abs(_otoc_per_pair_from_unitary(permuted, n) - _otoc_per_pair_from_unitary(u, n)) <= ROUND_OFF


@PROFILE
@given(st.integers(1, 4), seeds)
def test_phases_after_u_keep_the_features_and_the_otoc(n, seed):
    # D u with D diagonal in the computational basis: every reservoir
    # probability is a squared modulus, and every Z_i commutes with D.
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2 ** (n + 1))
    phased = np.exp(2j * np.pi * rng.random(2 ** (n + 1)))[:, None] * u
    rhos = np.array([random_density(rng, 2) for _ in range(3)])
    assert np.max(np.abs(_exact_features(phased, n, rhos) - _exact_features(u, n, rhos))) <= ROUND_OFF
    assert abs(_otoc_per_pair_from_unitary(phased, n) - _otoc_per_pair_from_unitary(u, n)) <= ROUND_OFF


@PROFILE
@given(st.integers(1, 4), seeds)
def test_local_unitaries_after_u_keep_every_holevo_value(n, seed):
    # (W_0 x ... x W_{N-1} x I) u conjugates node j's marginals by W_j, and
    # entropy is unitarily invariant (Nielsen and Chuang, section 11.3).
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2 ** (n + 1))
    local = functools.reduce(np.kron, [random_unitary(rng, 2) for _ in range(n)] + [np.eye(2)])
    before, after = (_holevo_from_columns(la._input_columns(v, n), n) for v in (u, local @ u))
    assert np.max(np.abs(after.per_node_per_axis - before.per_node_per_axis)) <= ROUND_OFF


@PROFILE
@given(st.integers(1, 4), seeds)
def test_permuting_the_reservoir_before_u_keeps_every_metric(n, seed):
    # u P with P permuting reservoir qubits: P fixes |0...0> x rho and
    # commutes with I x sigma_a.
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2 ** (n + 1))
    axes = [0, *(1 + rng.permutation(n)), n + 1]
    permuted = u.reshape((-1,) + (2,) * (n + 1)).transpose(axes).reshape(u.shape)
    rhos = np.array([random_density(rng, 2) for _ in range(3)])
    assert np.max(np.abs(_exact_features(permuted, n, rhos) - _exact_features(u, n, rhos))) <= ROUND_OFF
    before, after = (_holevo_from_columns(la._input_columns(v, n), n) for v in (u, permuted))
    assert np.max(np.abs(after.per_node_per_axis - before.per_node_per_axis)) <= ROUND_OFF
    assert abs(_otoc_per_pair_from_unitary(permuted, n) - _otoc_per_pair_from_unitary(u, n)) <= ROUND_OFF


@PROFILE
@given(st.integers(1, 4), seeds)
def test_complex_conjugation_keeps_holevo_and_otoc_and_conjugates_the_state(n, seed):
    # conj(u) maps each Pauli eigenstate pair to an equiprobable pair with
    # the same marginal entropies (y's plus and minus swap), and carries
    # conj(rho) as u carries rho.
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 2 ** (n + 1))
    rhos = np.array([random_density(rng, 2) for _ in range(3)])
    assert np.max(np.abs(_exact_features(u.conj(), n, rhos.conj()) - _exact_features(u, n, rhos))) <= ROUND_OFF
    before, after = (_holevo_from_columns(la._input_columns(v, n), n) for v in (u, u.conj()))
    assert np.max(np.abs(after.per_node_per_axis - before.per_node_per_axis)) <= ROUND_OFF
    assert abs(_otoc_per_pair_from_unitary(u.conj(), n) - _otoc_per_pair_from_unitary(u, n)) <= ROUND_OFF


@PROFILE
@given(st.integers(1, 7), st.integers(1, 5), seeds, st.booleans())
def test_stacked_column_kernels_equal_their_single_calls(n, times, seed, starts_at_zero_time):
    # A sweep calls both kernels once per unit, on the stack of its times'
    # input columns; the records must hold what each isometry alone gives,
    # bit for bit (byte comparison, so the sign of a zero counts too). The
    # first isometry may be the t = 0 one, whose Holevo values are zeros.
    rng = np.random.default_rng(seed)
    shape = (times, 2 ** (n + 1), 2)
    stack = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    if starts_at_zero_time:
        stack[0] = np.eye(2 ** (n + 1), 2)
    profile, weights = _holevo_from_columns(stack, n), _reservoir_weights(stack)
    assert weights.shape == (times, 4, 2**n) and profile.averaged.shape == (times,)
    for k, v01 in enumerate(stack):
        one = _holevo_from_columns(v01, n)
        assert weights[k].tobytes() == _reservoir_weights(v01).tobytes()
        assert profile.per_node_per_axis[k].tobytes() == one.per_node_per_axis.tobytes()
        assert profile.per_node[k].tobytes() == one.per_node.tobytes()
        assert profile.averaged[k].tobytes() == np.float64(one.averaged).tobytes()


def test_a_failing_property_is_reported_as_a_failed_test(tmp_path):
    # On a failing example, hypothesis's pytest plugin imports modules that
    # warn DeprecationWarning; under the project's error::DeprecationWarning
    # that aborted the whole session with INTERNALERROR, and the tests after
    # it never ran.
    (tmp_path / "test_throwaway.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None, deadline=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_after():
            pass
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    argv = [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(pyproject), "--rootdir", str(tmp_path)]
    run = subprocess.run([*argv, "test_throwaway.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert "FAILED test_throwaway.py::test_fails" in output and "1 failed, 1 passed" in output, output
    assert run.returncode == 1, output


@st.composite
def tiny_sweeps(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2, unique=True))
    codes = ["C", "R", "FC"] if min(sizes) >= 3 else ["C", "FC"]
    return SweepConfig(
        n_reservoir=sizes,
        topologies=draw(st.lists(st.sampled_from(codes), min_size=1, max_size=2, unique=True)),
        schemes=draw(st.lists(st.sampled_from(["SL", "ML"]), min_size=1, max_size=2, unique=True)),
        time_grid=draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=2, unique=True).map(sorted)),
        n_realizations=draw(st.integers(1, 2)),
        n_train=draw(st.integers(1, 6)),
        n_test=draw(st.integers(1, 6)),
        shot_model={"mode": draw(st.sampled_from(["exact", "joint_bitstrings"])), "shots": draw(st.integers(1, 1000))},
        master_seed=draw(seeds),
        include_haar_baseline=draw(st.booleans()),
    )


@PROFILE
@given(st.data())
def test_sweep_result_does_not_depend_on_unit_order(data):
    cfg = data.draw(tiny_sweeps())
    keys = harness._units(cfg)
    received = data.draw(st.permutations(keys))
    yielded = data.draw(st.permutations(range(len(keys))))
    map_units = harness._map_units

    def reordered(cfg, units, threads):
        assert units == keys
        outcomes = list(map_units(cfg, received, threads))
        assert [key for key, _ in outcomes] == received
        yield from (outcomes[i] for i in yielded)

    expected = harness.run_time_sweep(cfg)
    with mock.patch.object(harness, "_map_units", reordered):
        assert harness.run_time_sweep(cfg) == expected
