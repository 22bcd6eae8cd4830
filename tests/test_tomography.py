"""Shot-sampled occupations, readout sequences and 1-RDM reconstruction."""

import math

import numpy as np
import pytest

import oracles
from fermitope import gates, tomography
from fermitope.errors import InvalidDimensionError, InvalidGateError
from fermitope.fock import (
    MixedState,
    basis_vector,
    natural_occupations,
    one_rdm,
    random_pure_state,
    superposition,
)
from fermitope.gates import target_state
from fermitope.tomography import (
    readout_sequence_offdiag,
    reconstruct_one_rdm,
    simulate_occupation_counts,
)


class TestOccupationCounts:
    def test_occupied_eigenstate_always_clicks(self):
        result = simulate_occupation_counts(basis_vector(6, "101010"), 1, 500, seed=0)
        assert result.ones == 500
        assert result.estimate == 1.0
        assert result.sigma == 0.0

    @pytest.mark.parametrize("site", [2.0, True])
    def test_non_integer_site_rejected(self, site):
        """Site 2.0 used to raise numpy's bare TypeError, and True read site 1."""
        with pytest.raises(InvalidDimensionError, match="site must be an integer"):
            simulate_occupation_counts(target_state("w"), site, 100, 0)

    def test_empty_site_of_epr_never_clicks(self):
        result = simulate_occupation_counts(target_state("epr"), 6, 10_000, seed=1)
        assert result.ones == 0

    def test_ghz_half_occupation_concentrates(self):
        shots = 100_000
        result = simulate_occupation_counts(target_state("ghz"), 1, shots, seed=2)
        assert abs(result.estimate - 0.5) < 3 / math.sqrt(4 * shots)

    def test_sigma_bounded_by_binomial_maximum(self):
        for seed in range(5):
            result = simulate_occupation_counts(
                random_pure_state(6, 3, seed), 3, 1000, seed=seed
            )
            assert result.sigma <= 1 / math.sqrt(4 * 1000) + 1e-12

    def test_deterministic_per_seed(self):
        a = simulate_occupation_counts(target_state("ghz"), 2, 1000, seed=7)
        b = simulate_occupation_counts(target_state("ghz"), 2, 1000, seed=7)
        assert a == b

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidDimensionError):
            simulate_occupation_counts(target_state("ghz"), 2, 1000, seed=-1)


class TestReadoutSequences:
    def test_adjacent_real_part_is_single_rotation(self):
        protocol = readout_sequence_offdiag(3, 4, "real")
        assert protocol.gates == (gates.rotation(3, 4, math.pi / 2),)

    def test_adjacent_imag_part_adds_quarter_phase(self):
        protocol = readout_sequence_offdiag(3, 4, "imag")
        assert protocol.gates == (
            gates.phase_gate(3, 4, math.pi / 2),
            gates.rotation(3, 4, math.pi / 2),
        )

    def test_distant_pair_swap_chain(self):
        protocol = readout_sequence_offdiag(1, 6, "real")
        swaps = protocol.gates[:-1]
        assert [g.sites for g in swaps] == [(1, 2), (2, 3), (3, 4), (4, 5)]
        assert all(g.angle == math.pi for g in swaps)
        assert protocol.gates[-1] == gates.rotation(5, 6, math.pi / 2)

    def test_same_site_rejected(self):
        with pytest.raises(InvalidGateError):
            readout_sequence_offdiag(2, 2, "real")
        with pytest.raises(InvalidGateError):
            readout_sequence_offdiag(4, 2, "real")

    def test_measured_diagonals_follow_transform_formulas(self):
        # alpha = beta = 1/2, x = 1/2, y = 0: rotated occupations (0, 1).
        from fermitope.fock import occupation_expectation

        pair = superposition(2, {"10": 1, "01": 1})
        out = gates.apply_protocol(pair, readout_sequence_offdiag(1, 2, "real"))
        assert occupation_expectation(out, 1) == pytest.approx(0.0, abs=1e-12)
        assert occupation_expectation(out, 2) == pytest.approx(1.0, abs=1e-12)
        # y = -1/2 state: quarter phase then rotation gives (1, 0).
        pair = superposition(2, {"10": 1, "01": 1j})
        out = gates.apply_protocol(pair, readout_sequence_offdiag(1, 2, "imag"))
        assert occupation_expectation(out, 1) == pytest.approx(1.0, abs=1e-12)
        assert occupation_expectation(out, 2) == pytest.approx(0.0, abs=1e-12)


def _random_mixed_state(d: int, n: int, seed: int) -> MixedState:
    """Mixture of three random pure states with random weights."""
    weights = np.random.default_rng(seed).dirichlet(np.ones(3))
    rho = sum(
        w * np.outer(psi.amplitudes, psi.amplitudes.conj())
        for w, psi in zip(weights, (random_pure_state(d, n, seed + k) for k in range(3)))
    )
    return MixedState(d, n, rho)


class TestOneBodyReadout:
    """Each setting's occupations, read from gamma, match the many-body readout."""

    @pytest.mark.parametrize("d,n", [(6, 3), (7, 2), (8, 4)])
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_setting_probabilities_match_many_body_oracle(self, monkeypatch, d, n, kind):
        seed = 100 * d + n
        state = random_pure_state(d, n, seed) if kind == "pure" else _random_mixed_state(d, n, seed)
        probs = []
        shot_sample = tomography._shot_sample

        def spy(p, shots, rng):
            probs.append(p)
            return shot_sample(p, shots, rng)

        monkeypatch.setattr(tomography, "_shot_sample", spy)
        reconstruct_one_rdm(state, shots=10, seed=1)

        expected = []
        for site in range(1, d + 1):
            expected += oracles.many_body_readout(state, gates.Protocol("diag", ()), [site])
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                for part in ("real", "imag"):
                    protocol = readout_sequence_offdiag(i, j, part)
                    expected += oracles.many_body_readout(state, protocol, [j - 1, j])
        assert len(probs) == len(expected) == d + 2 * d * (d - 1)
        assert np.max(np.abs(np.array(probs) - expected)) < 1e-12

    @pytest.mark.parametrize(
        "d,n",
        [(2, 1), (4, 2), (5, 3), (6, 3), (7, 2), (7, 4), (8, 3), (8, 4), (10, 5)]
        + [(24, 1), (24, 2), (24, 23)],
    )
    def test_infinite_shot_limit_on_random_mixed_states(self, d, n):
        state = _random_mixed_state(d, n, seed=10 * d + n)
        estimate = reconstruct_one_rdm(state, shots=None)
        assert np.max(np.abs(estimate.matrix - one_rdm(state))) < 1e-12
        again = reconstruct_one_rdm(state, shots=None)
        assert np.array_equal(estimate.matrix, again.matrix)
        assert estimate.settings == d * d


def _sectors_for_oracle():
    for d in range(2, 11):
        for n in range(d + 1) if d <= 6 else (1, d // 2, d - 1):
            yield d, n


class TestStackedReadout:
    """The stacked product reads every setting as the gate-by-gate loop did."""

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("d,n", list(_sectors_for_oracle()))
    def test_bit_identical_to_gate_by_gate_readout(self, d, n, kind):
        state_seed = 100 * d + n
        if kind == "pure":
            state = random_pure_state(d, n, state_seed)
        else:
            state = _random_mixed_state(d, n, state_seed)
        for shots in (None, 1, 7, 100_000):
            for seed in (0, 5, 2**40 + 3):
                got = reconstruct_one_rdm(state, shots, seed)
                want = oracles.readout_by_gates(state, shots, seed)
                assert np.array_equal(got.matrix, want.matrix)
                assert np.array_equal(got.sigma, want.sigma)
                assert got.settings == want.settings == d * d

    def test_mode_stack_is_read_only(self):
        modes = tomography._readout_modes(24)
        assert modes.shape == (552, 24, 24)
        with pytest.raises(ValueError):
            modes[0, 0, 0] = 2.0

    def test_sequences_built_once_per_d(self, monkeypatch):
        calls = []
        sequence = tomography.readout_sequence_offdiag

        def spy(i, j, part):
            calls.append((i, j, part))
            return sequence(i, j, part)

        monkeypatch.setattr(tomography, "readout_sequence_offdiag", spy)
        tomography._readout_modes.cache_clear()
        reconstruct_one_rdm(target_state("w"), shots=None)
        assert len(calls) == 30
        reconstruct_one_rdm(target_state("ghz"), shots=100, seed=2)
        assert len(calls) == 30

    @pytest.mark.parametrize("shots", [None, 100])
    def test_seeds_spawned_only_for_finite_shots(self, monkeypatch, shots):
        spawned = []

        class SpySeedSequence(np.random.SeedSequence):
            def spawn(self, n_children):
                spawned.append(n_children)
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "SeedSequence", SpySeedSequence)
        reconstruct_one_rdm(target_state("w"), shots, seed=4)
        assert spawned == ([] if shots is None else [36])


class TestReconstruction:
    @pytest.mark.parametrize("shots", [0, -3])
    def test_non_positive_shots_rejected(self, shots):
        with pytest.raises(InvalidDimensionError):
            reconstruct_one_rdm(target_state("w"), shots=shots)

    @pytest.mark.parametrize("shots", [None, 100])
    def test_negative_seed_rejected(self, shots):
        with pytest.raises(InvalidDimensionError):
            reconstruct_one_rdm(target_state("w"), shots=shots, seed=-1)

    @pytest.mark.parametrize("shots", [2.5, 100.0, True, 0, -1])
    def test_non_integer_shots_rejected(self, shots):
        """numpy would draw 2-shot binomials for 2.5 shots, and their counts be divided by 2.5."""
        message = "must be >= 1" if type(shots) is int else "must be an integer"
        with pytest.raises(InvalidDimensionError, match=f"shots {message}"):
            reconstruct_one_rdm(target_state("w"), shots, seed=0)

    @pytest.mark.parametrize("shots", [None, 100])
    def test_non_integer_seed_rejected(self, shots):
        with pytest.raises(InvalidDimensionError, match="seed must be an integer"):
            reconstruct_one_rdm(target_state("w"), shots, seed=2.5)

    def test_shots_beyond_a_c_long_rejected(self):
        """numpy's binomial takes shots as a C long: 2**63 would overflow it."""
        for shots in (2**63, 10**20):
            with pytest.raises(InvalidDimensionError, match=r"shots must be <= 2\*\*63 - 1"):
                reconstruct_one_rdm(target_state("w"), shots, seed=0)
            with pytest.raises(InvalidDimensionError, match=r"shots must be <= 2\*\*63 - 1"):
                simulate_occupation_counts(target_state("w"), 1, shots, seed=0)
        shots = 2**63 - 1
        assert reconstruct_one_rdm(target_state("w"), shots, seed=0).shots_per_setting == shots
        assert simulate_occupation_counts(target_state("w"), 1, shots, seed=0).shots == shots

    def test_seed_beyond_128_bits_accepted(self):
        """Only the Monte Carlo's Philox key is bounded; SeedSequence takes any size."""
        estimate = reconstruct_one_rdm(target_state("w"), 100, seed=2**200)
        assert np.all(np.isfinite(estimate.matrix))
        assert random_pure_state(6, 3, 2**128).norm == pytest.approx(1.0, abs=1e-12)

    def test_numpy_integer_shots_and_seed_accepted(self):
        a = reconstruct_one_rdm(target_state("w"), np.int64(50), seed=np.uint8(3))
        b = reconstruct_one_rdm(target_state("w"), 50, seed=3)
        assert np.array_equal(a.matrix, b.matrix) and a.shots_per_setting == 50

    def test_setting_count_is_d_squared(self):
        estimate = reconstruct_one_rdm(target_state("ghz"), shots=None)
        assert estimate.settings == 36

    def test_infinite_shot_limit_equals_exact_rdm(self):
        for seed in range(25):
            state = random_pure_state(6, 3, seed=2000 + seed)
            estimate = reconstruct_one_rdm(state, shots=None)
            assert np.max(np.abs(estimate.matrix - one_rdm(state))) < 1e-10

    def test_infinite_shot_limit_on_mixed_states(self):
        a, b = random_pure_state(6, 3, 1), random_pure_state(6, 3, 2)
        rho = 0.6 * np.outer(a.amplitudes, a.amplitudes.conj())
        rho += 0.4 * np.outer(b.amplitudes, b.amplitudes.conj())
        state = MixedState(6, 3, rho)
        estimate = reconstruct_one_rdm(state, shots=None)
        assert np.max(np.abs(estimate.matrix - one_rdm(state))) < 1e-10

    def test_slater_reconstruction_within_three_sigma(self):
        shots = 100_000
        estimate = reconstruct_one_rdm(basis_vector(6, "101010"), shots=shots, seed=3)
        target = np.diag([1.0, 0, 1, 0, 1, 0]).astype(complex)
        width = np.maximum(estimate.sigma, 1e-12)
        # Deterministic entries come out exact; noisy ones stay within 3 sigma
        # of the binomial width plus a floor for zero-count entries.
        assert np.all(np.abs(estimate.matrix - target) <= 3 * width + 3 / math.sqrt(4 * shots))

    def test_ghz_occupations_recovered_at_finite_shots(self):
        estimate = reconstruct_one_rdm(target_state("ghz"), shots=100_000, seed=11)
        hermitian = (estimate.matrix + estimate.matrix.conj().T) / 2
        lam, _ = natural_occupations(hermitian)
        assert np.max(np.abs(lam - 0.5)) < 0.01

    def test_estimates_are_seed_deterministic(self):
        a = reconstruct_one_rdm(target_state("w"), shots=2000, seed=9)
        b = reconstruct_one_rdm(target_state("w"), shots=2000, seed=9)
        assert np.array_equal(a.matrix, b.matrix)
        c = reconstruct_one_rdm(target_state("w"), shots=2000, seed=10)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_sigma_shrinks_with_shots(self):
        small = reconstruct_one_rdm(target_state("ghz"), shots=1000, seed=4)
        large = reconstruct_one_rdm(target_state("ghz"), shots=100_000, seed=4)
        assert large.sigma.max() < small.sigma.max()

    def test_json_export_schema(self):
        estimate = reconstruct_one_rdm(target_state("epr"), shots=100, seed=0)
        data = estimate.to_json()
        assert set(data) == {"matrix_re", "matrix_im", "sigma", "M", "settings"}
        assert data["settings"] == 36
        assert data["M"] == 100
