"""Gate actions, preparation protocols, inversion and the dynamic phase."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from fermitope import fock, gates, montecarlo, polytope, tomography
from fermitope.errors import InvalidDimensionError, InvalidGateError, InvalidPulseError
from fermitope.fock import (
    PureState,
    basis_vector,
    natural_occupations,
    one_rdm,
    random_pure_state,
    sector_dim,
    superposition,
)
from fermitope.gates import (
    CLASSES,
    GateOp,
    Protocol,
    PulseSpec,
    apply_gate,
    apply_protocol,
    build_protocol,
    controlled_rotation,
    dynamic_phase,
    gate_matrix,
    invert_protocol,
    phase_gate,
    rotation,
    target_state,
)
from oracles import protocol_states

SLATER = basis_vector(6, "101010")

# Intermediate states of the two preparation chains.  |psi4> carries the
# reordering sign on |011001>, matching the first-quantized wedge product.
PSI_I = superposition(6, {"101010": 1, "011010": 1})
PSI_1 = superposition(6, {"101010": 1, "011010": math.sqrt(2)})
PSI_2 = superposition(6, {"101010": 1, "011010": 1, "010110": 1})
PSI_3 = superposition(6, {"101010": 1, "011010": 1, "010101": 1})
PSI_4 = superposition(6, {"101010": 1, "010110": 1, "011001": -1})


def dense_rotation_generator(d: int, i: int, j: int, angle: float, n: int) -> np.ndarray:
    """(angle/2)(a_j^+ a_i - a_i^+ a_j) restricted to the sector, dense."""
    gen = (
        oracles.dense_creation(d, j) @ oracles.dense_annihilation(d, i)
        - oracles.dense_creation(d, i) @ oracles.dense_annihilation(d, j)
    ) * (angle / 2.0)
    return oracles.restrict(gen, d, n, n)


class TestRotation:
    def test_half_pi_creates_even_superposition(self):
        out = apply_gate(SLATER, rotation(1, 2, math.pi / 2))
        assert out.fidelity_to(PSI_I) == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_is_identity(self):
        state = superposition(6, {"101010": 0.6, "010101": 0.8})
        out = apply_gate(state, rotation(3, 4, 0.0))
        assert np.allclose(out.amplitudes, state.amplitudes)

    def test_pair_action_matches_definition(self):
        phi = 0.7
        out = apply_gate(basis_vector(2, "10"), rotation(1, 2, phi))
        assert out.amplitude("10") == pytest.approx(math.cos(phi / 2))
        assert out.amplitude("01") == pytest.approx(math.sin(phi / 2))
        out = apply_gate(basis_vector(2, "01"), rotation(1, 2, phi))
        assert out.amplitude("01") == pytest.approx(math.cos(phi / 2))
        assert out.amplitude("10") == pytest.approx(-math.sin(phi / 2))

    def test_identity_on_empty_and_full_pairs(self):
        for occ in ("001010", "111010"):
            state = basis_vector(6, occ)
            out = apply_gate(state, rotation(1, 2, 1.2345))
            assert np.allclose(out.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("angle", [math.pi, 0.7, -2.1])
    def test_distant_pair_matches_expm_oracle(self, angle):
        # d=6, N=2 sector is 15-dimensional; strings between sites 1 and 6
        # carry occupation-dependent signs that the oracle reproduces.
        u = gate_matrix(rotation(1, 6, angle), 6, 2)
        u_oracle = expm(dense_rotation_generator(6, 1, 6, angle, 2))
        assert np.allclose(u, u_oracle, atol=1e-12)

    def test_string_sign_appears_for_occupied_interior(self):
        # |110000>: site 2 occupied between sites 1 and 6.
        out = apply_gate(basis_vector(6, "110000"), rotation(1, 6, math.pi))
        assert out.amplitude("010001") == pytest.approx(-1.0)

    def test_double_pi_rotation_is_minus_identity_on_pair_subspace(self):
        state = superposition(6, {"101010": 1, "011010": -2j})
        once = apply_gate(state, rotation(1, 2, math.pi))
        twice = apply_gate(once, rotation(1, 2, math.pi))
        assert np.allclose(twice.amplitudes, -state.amplitudes, atol=1e-12)


class TestControlledRotation:
    def test_projector_definition(self):
        # Control occupied: rotate; control empty: identity.
        active = apply_gate(basis_vector(6, "011010"), controlled_rotation(2, 3, 4, math.pi))
        assert active.amplitude("010110") == pytest.approx(1.0)
        idle = apply_gate(basis_vector(6, "101010"), controlled_rotation(2, 3, 4, math.pi))
        assert idle.amplitude("101010") == pytest.approx(1.0)

    def test_matches_dense_projector_construction(self):
        from fermitope.fock import sector_basis

        d, n = 6, 3
        k, i, j = 2, 3, 4
        angle = 1.1
        u = gate_matrix(controlled_rotation(k, i, j, angle), d, n)
        r_dense = expm(dense_rotation_generator(d, i, j, angle, n))
        occ = np.array([int(b.occupations[k - 1]) for b in sector_basis(d, n)])
        p_k = np.diag(occ.astype(complex))
        u_oracle = p_k @ r_dense + (np.eye(sector_dim(d, n)) - p_k)
        assert np.allclose(u, u_oracle, atol=1e-12)

    def test_control_site_must_differ(self):
        with pytest.raises(InvalidGateError):
            controlled_rotation(3, 3, 4, 1.0)


class TestPhaseGate:
    def test_symmetric_phases_on_pair(self):
        theta = 0.9
        out = apply_gate(basis_vector(2, "10"), phase_gate(1, 2, theta))
        assert out.amplitude("10") == pytest.approx(np.exp(-1j * theta / 2))
        out = apply_gate(basis_vector(2, "01"), phase_gate(1, 2, theta))
        assert out.amplitude("01") == pytest.approx(np.exp(1j * theta / 2))

    def test_identity_outside_pair_subspace(self):
        state = basis_vector(6, "001010")
        out = apply_gate(state, phase_gate(1, 2, 2.2))
        assert np.allclose(out.amplitudes, state.amplitudes)


class TestGateContracts:
    @pytest.mark.parametrize(
        "gate",
        [
            rotation(1, 2, 0.8),
            rotation(2, 6, -1.7),
            controlled_rotation(2, 3, 4, 2.7),
            controlled_rotation(5, 1, 6, 0.4),
            phase_gate(3, 4, 1.3),
        ],
    )
    def test_unitary_on_sector(self, gate):
        u = gate_matrix(gate, 6, 3)
        assert np.max(np.abs(u @ u.conj().T - np.eye(20))) < 1e-12

    def test_out_of_range_site_raises(self):
        with pytest.raises(InvalidGateError):
            apply_gate(SLATER, rotation(1, 7, 1.0))

    def test_gate_validation(self):
        with pytest.raises(InvalidGateError):
            rotation(1, 1, 0.5)
        with pytest.raises(InvalidGateError):
            GateOp("rotation", (1, 2), float("nan"))
        with pytest.raises(InvalidGateError):
            GateOp("twist", (1, 2), 0.5)

    @pytest.mark.parametrize("site", [1.0, 1.5, True])
    def test_non_integer_site_rejected(self, site):
        """apply_gate would index the sector tables with 1.5 and raise a bare IndexError."""
        with pytest.raises(InvalidGateError, match="gate site must be an integer"):
            GateOp("rotation", (site, 2), 0.5)

    def test_gate_json_round_trip(self):
        gate = controlled_rotation(2, 3, 4, math.pi / 2, 60e-12)
        assert GateOp.from_json(gate.to_json()) == gate


def _occupations(state) -> np.ndarray:
    return np.linalg.eigvalsh(one_rdm(state))


class TestOneBodyInvariance:
    """rotation and phase are one-body unitaries: gamma -> u gamma u^+ keeps lambda."""

    @settings(max_examples=40, deadline=None)
    @given(
        sector=st.sampled_from([(6, 3), (7, 2), (8, 4)]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rotation_and_phase_keep_natural_occupations(self, sector, seed, data):
        d, n = sector
        sites = st.lists(st.integers(1, d), min_size=2, max_size=2, unique=True)
        angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
        sequence = data.draw(
            st.lists(st.tuples(st.sampled_from([rotation, phase_gate]), sites, angle), max_size=8)
        )
        state = random_pure_state(d, n, seed)
        lam = _occupations(state)
        for make, (i, j), theta in sequence:
            state = apply_gate(state, make(i, j, theta))
        assert np.max(np.abs(_occupations(state) - lam)) <= 1e-12

    def test_controlled_rotation_can_change_them(self):
        state = random_pure_state(6, 3, 11)
        out = apply_gate(state, controlled_rotation(1, 2, 3, 1.1))
        assert np.max(np.abs(_occupations(out) - _occupations(state))) > 1e-3


class TestGateSequencesMatchDenseOracle:
    """Random gate sequences against exp of the dense 2^d generators."""

    @pytest.mark.parametrize(
        "sector", [(d, n) for d in range(2, 9) for n in range(d + 1)], ids=str
    )
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_sequences_on_every_sector(self, sector, seed, data):
        d, n = sector
        makers = [rotation, phase_gate] + ([controlled_rotation] if d >= 3 else [])
        angle = st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False)
        sequence = []
        for make in data.draw(st.lists(st.sampled_from(makers), min_size=1, max_size=4)):
            n_sites = 3 if make is controlled_rotation else 2
            sites = data.draw(
                st.lists(st.integers(1, d), min_size=n_sites, max_size=n_sites, unique=True)
            )
            sequence.append(make(*sites, data.draw(angle)))
        state = random_pure_state(d, n, seed)
        expected = state.amplitudes
        for gate in sequence:
            gen = oracles.restrict(oracles.dense_gate_generator(gate, d), d, n, n)
            expected = expm(gen) @ expected
        got = apply_protocol(state, Protocol("random", tuple(sequence)))
        assert np.allclose(got.amplitudes, expected, atol=1e-12)


def _copying_apply(amps: np.ndarray, gate: GateOp, d: int, n: int) -> np.ndarray:
    """The gate applied along the last axis of a copy of ``amps``: the per-gate loop."""
    action = gates._gate_action(gate, d, n)
    if gate.kind == "phase":
        return amps * action
    src, dst, mix, c = action
    out = amps.copy()
    a10, a01 = amps[..., src], amps[..., dst]
    out[..., src] = c * a10 - mix * a01
    out[..., dst] = c * a01 + mix * a10
    return out


def _signed_zero_state(d: int, n: int, rng: np.random.Generator) -> PureState:
    """Gaussian amplitudes, a third of whose parts are +0.0 or -0.0."""
    dim = sector_dim(d, n)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    for part in (x.real, x.imag):
        at = rng.random(dim) < 1 / 3
        part[at] = rng.choice([0.0, -0.0], size=np.count_nonzero(at))
    return PureState(d, n, x)


def _random_gates(d: int, count: int, rng: np.random.Generator) -> tuple[GateOp, ...]:
    kinds = ("rotation", "phase") + (("controlled_rotation",) if d >= 3 else ())
    ops = []
    for _ in range(count):
        kind = kinds[rng.integers(len(kinds))]
        sites = rng.choice(d, size=3 if kind == "controlled_rotation" else 2, replace=False)
        ops.append(GateOp(kind, tuple(int(s) + 1 for s in sites), float(rng.uniform(-7, 7))))
    return tuple(ops)


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).view(np.uint64).tobytes()


class TestInPlaceKernelKeepsBits:
    """One copy and in-place gates give the bits of a copy per gate, signed zeros included."""

    @pytest.mark.parametrize("d", range(2, 15))
    def test_protocol_equals_sequential_gates(self, d):
        rng = np.random.default_rng(d)
        for n in sorted({1, d // 2, int(rng.integers(0, d + 1))}):
            for _ in range(4):
                state = _signed_zero_state(d, n, rng)
                protocol = Protocol("random", _random_gates(d, int(rng.integers(1, 7)), rng))
                got = apply_protocol(state, protocol).amplitudes
                assert _bits(got) == _bits(protocol_states(state, protocol)[-1].amplitudes)
                want = state.amplitudes
                for gate in protocol.gates:
                    want = _copying_apply(want, gate, d, n)
                assert _bits(got) == _bits(want)
            assert _bits(apply_protocol(state, Protocol("empty", ())).amplitudes) == _bits(
                state.amplitudes
            )

    @pytest.mark.parametrize("at", range(4))
    def test_bad_site_anywhere_raises_before_any_gate(self, at, monkeypatch):
        ops = list(_random_gates(6, 3, np.random.default_rng(at)))
        ops.insert(at, rotation(2, 7, 0.3))

        def applied(*args):
            raise AssertionError("a gate was applied")

        monkeypatch.setattr(gates, "_apply_in_place", applied)
        with pytest.raises(InvalidGateError, match="exceed d=6"):
            apply_protocol(SLATER, Protocol("bad", tuple(ops)))

    @pytest.mark.parametrize("d", range(2, 13))
    def test_gate_actions_match_the_bit_tests_of_the_masks(self, d):
        rng = np.random.default_rng(100 + d)
        for n in range(d + 1):
            masks = fock._sector_masks(d, n)

            def occupied(site):
                return (masks >> (d - site)) & 1 == 1

            for gate in _random_gates(d, 4, rng):
                if gate.kind == "phase":
                    ni, nj = occupied(gate.sites[0]), occupied(gate.sites[1])
                    want = np.ones(len(masks), dtype=np.complex128)
                    want[ni & ~nj] = np.exp(-1j * gate.angle / 2)
                    want[nj & ~ni] = np.exp(+1j * gate.angle / 2)
                    assert _bits(gates._gate_action(gate, d, n)) == _bits(want)
                elif gate.kind == "controlled_rotation":
                    src, dst, sign = fock._pair_transitions(d, n, *gate.sites[1:])
                    keep = occupied(gate.sites[0])[src]
                    half = gate.angle / 2
                    want = (src[keep], dst[keep], math.sin(half) * sign[keep], math.cos(half))
                    got = gates._gate_action(gate, d, n)
                    assert [np.asarray(x).tobytes() for x in got] == [
                        np.asarray(x).tobytes() for x in want
                    ]

    @pytest.mark.parametrize("d,n", [(2, 1), (4, 2), (6, 3), (7, 2), (8, 4)])
    def test_gate_matrix_equals_a_copying_loop(self, d, n):
        for gate in _random_gates(d, 6, np.random.default_rng(d + n)):
            rows = _copying_apply(np.eye(sector_dim(d, n), dtype=np.complex128), gate, d, n)
            assert _bits(gate_matrix(gate, d, n)) == _bits(rows.T)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_readout_modes_equal_a_copying_loop(self, d):
        stack = []
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                for part in ("real", "imag"):
                    rows = np.eye(d, dtype=np.complex128)
                    for gate in tomography.readout_sequence_offdiag(i, j, part).gates:
                        rows = _copying_apply(rows, gate, d, 1)
                    stack.append(rows)
        assert _bits(tomography._readout_modes(d)) == _bits(np.array(stack))


class TestProtocols:
    def test_epr_chain_and_intermediate(self):
        states = protocol_states(SLATER, build_protocol("epr"))
        assert states[0].fidelity_to(PSI_I) == pytest.approx(1.0, abs=1e-12)
        assert states[1].fidelity_to(target_state("epr")) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_extends_epr(self):
        epr, ghz = build_protocol("epr"), build_protocol("ghz")
        assert ghz.gates[: len(epr.gates)] == epr.gates
        final = apply_protocol(SLATER, ghz)
        assert final.fidelity_to(target_state("ghz")) == pytest.approx(1.0, abs=1e-12)

    def test_w_chain_hits_all_intermediates(self):
        states = protocol_states(SLATER, build_protocol("w"))
        for got, want in zip(states, (PSI_1, PSI_2, PSI_3, PSI_4, target_state("w"))):
            assert got.fidelity_to(want) == pytest.approx(1.0, abs=1e-12)

    def test_slater_protocol_is_identity(self):
        protocol = build_protocol("slater")
        assert protocol.gates == ()
        assert apply_protocol(SLATER, protocol).fidelity_to(SLATER) == 1.0

    @pytest.mark.parametrize("label", CLASSES)
    def test_targets_reproduce_reference_occupations(self, label):
        final = apply_protocol(SLATER, build_protocol(label))
        lam, _ = natural_occupations(one_rdm(final))
        assert np.allclose(lam, polytope.CLASS_OCCUPATIONS[label], atol=1e-12)

    def test_protocol_durations(self):
        protocol = build_protocol("w")
        assert protocol.total_duration() == pytest.approx(220e-12)

    def test_protocol_json_round_trip(self):
        protocol = build_protocol("ghz")
        assert Protocol.from_json(protocol.to_json()) == protocol


# Each class entry point, as bytes or a comparable value of one label.
CLASS_ENTRY_POINTS = {
    "target_state": lambda label: target_state(label).amplitudes.tobytes(),
    "build_protocol": build_protocol,
    "class_polytope": polytope.class_polytope,
    "theoretical_rdm": lambda label: montecarlo.theoretical_rdm(label).tobytes(),
    "PerturbationSpec": lambda label: montecarlo.sample_perturbed_rdm(
        montecarlo.PerturbationSpec(label, 0.1, 3, 7), 2
    ).tobytes(),
}


class TestClassTable:
    @pytest.mark.parametrize("entry", CLASS_ENTRY_POINTS)
    def test_entry_points_take_any_case_and_refuse_unknown_labels(self, entry):
        call = CLASS_ENTRY_POINTS[entry]
        for label in CLASSES:
            assert call(label.upper()) == call(label)
        with pytest.raises(InvalidDimensionError, match="unknown class"):
            call("bell")

    @pytest.mark.parametrize("label", [label for label, c in CLASSES.items() if c.merit])
    def test_canonical_merit_is_violated_at_the_class_occupations(self, label):
        entry = CLASSES[label]
        assert polytope._MERITS[entry.merit](np.array(entry.occupations)) < 0.0
        assert montecarlo.CANONICAL_PAIRING[label] == entry.merit


class TestInversion:
    def test_single_gate_inverse(self):
        inv = invert_protocol(Protocol("one", (rotation(1, 2, math.pi / 2),)))
        assert inv.gates == (rotation(1, 2, -math.pi / 2),)

    @pytest.mark.parametrize("label", ["epr", "ghz", "w"])
    def test_roundtrip_returns_to_start(self, label):
        protocol = build_protocol(label)
        back = apply_protocol(apply_protocol(SLATER, protocol), invert_protocol(protocol))
        assert back.fidelity_to(SLATER) >= 1 - 1e-10

    def test_inverse_matrix_is_adjoint(self):
        protocol = build_protocol("w")
        u = np.eye(20, dtype=complex)
        for gate in protocol.gates:
            u = gate_matrix(gate, 6, 3) @ u
        v = np.eye(20, dtype=complex)
        for gate in invert_protocol(protocol).gates:
            v = gate_matrix(gate, 6, 3) @ v
        assert np.allclose(v, u.conj().T, atol=1e-12)


class TestDynamicPhase:
    def test_vanishing_integrand(self):
        pulse = PulseSpec(lambda t: 0.0, lambda t: 0.0, detuning=1e9, duration=1e-9)
        assert dynamic_phase(pulse) == pytest.approx(0.0, abs=1e-15)

    def test_constant_pulse_closed_form(self):
        omega, delta, duration = 2e9, 5e8, 3e-9
        pulse = PulseSpec(lambda t: omega, lambda t: omega, delta, duration)
        expected = -duration * (math.sqrt(2 * omega**2 + delta**2 / 4) - delta / 2)
        assert dynamic_phase(pulse) == pytest.approx(expected, rel=1e-9)

    def test_gaussian_pulse_matches_trapezoid_oracle(self):
        def env(t):
            return 1e9 * math.exp(-(((t - 1e-9) / 3e-10) ** 2))

        pulse = PulseSpec(env, env, detuning=4e8, duration=2e-9)
        got = dynamic_phase(pulse)
        want = oracles.trapezoid_phase(env, env, 4e8, 2e-9)
        assert got == pytest.approx(want, rel=1e-8)

    def test_non_positive_for_non_negative_detuning(self):
        for delta in (0.0, 1e8, 3e9):
            pulse = PulseSpec(lambda t: 1e9, lambda t: 5e8, delta, 1e-9)
            assert dynamic_phase(pulse) <= 0.0

    def test_magnitude_grows_with_duration_and_spans_two_pi(self):
        def phase_at(delta, duration):
            return dynamic_phase(PulseSpec(lambda t: 1e9, lambda t: 1e9, delta, duration))

        assert abs(phase_at(5e8, 2e-9)) > abs(phase_at(5e8, 1e-9))
        values = [phase_at(delta, 8e-9) for delta in np.linspace(0, 4e9, 9)]
        assert max(values) - min(values) >= 2 * math.pi

    def test_invalid_pulse_raises(self):
        with pytest.raises(InvalidPulseError):
            PulseSpec(lambda t: 1.0, lambda t: 1.0, detuning=0.0, duration=0.0)
        bad = PulseSpec(lambda t: float("inf"), lambda t: 0.0, 0.0, 1e-9)
        with pytest.raises(InvalidPulseError):
            dynamic_phase(bad)
