"""Dephasing channel, noisy trajectories, echo and the purity bound."""

import math

import numpy as np
import pytest

from fermitope import gates, noise
from fermitope.errors import (
    InvalidDimensionError, InvalidGateError, SectorMismatchError, StepSizeError,
)
from fermitope.fock import MixedState, basis_vector, maximally_mixed, one_rdm, random_pure_state
from fermitope.gates import Protocol, build_protocol, target_state
from fermitope.noise import (
    NoiseParams,
    evolve_noisy_protocol,
    fidelity,
    loschmidt_echo,
    purity,
    purity_lower_bound,
)

ZERO_NOISE = NoiseParams(dephasing_rate=0.0, emission_rate=0.0)
PAPER_NOISE = NoiseParams()
DT = 1e-12


class TestFidelityAndPurity:
    def test_pure_projector_has_unit_fidelity(self):
        psi = random_pure_state(6, 3, seed=1)
        assert fidelity(MixedState.from_pure(psi), psi) == pytest.approx(1.0)

    def test_maximally_mixed_fidelity_is_inverse_dimension(self):
        rho = maximally_mixed(6, 3)
        assert fidelity(rho, target_state("ghz")) == pytest.approx(1 / 20)

    def test_sector_mismatch_raises(self):
        with pytest.raises(SectorMismatchError):
            fidelity(maximally_mixed(6, 3), basis_vector(6, "110000"))

    def test_purity_of_pure_state(self):
        assert purity(MixedState.from_pure(random_pure_state(6, 3, 2))) == pytest.approx(1.0)

    def test_purity_of_two_state_mixture(self):
        a = basis_vector(6, "101010").amplitudes
        b = basis_vector(6, "010101").amplitudes
        rho = 0.5 * np.outer(a, a.conj()) + 0.5 * np.outer(b, b.conj())
        assert purity(MixedState(6, 3, rho)) == pytest.approx(0.5)

    def test_unequal_mixture_arithmetic(self):
        eps = 0.06
        a = basis_vector(6, "111000").amplitudes
        b = basis_vector(6, "110100").amplitudes
        rho = (1 - eps) * np.outer(a, a.conj()) + eps * np.outer(b, b.conj())
        assert purity(MixedState(6, 3, rho)) == pytest.approx((1 - eps) ** 2 + eps**2)


class TestEvolveNoisyProtocol:
    @pytest.mark.parametrize("label", ["epr", "ghz", "w"])
    def test_zero_noise_reproduces_pure_protocol(self, label):
        trajectory, final = evolve_noisy_protocol(build_protocol(label), ZERO_NOISE, DT)
        assert fidelity(final, target_state(label)) == pytest.approx(1.0, abs=1e-10)
        assert trajectory.purity[-1] == pytest.approx(1.0, abs=1e-10)

    def test_channel_preserves_trace_and_decreases_purity(self):
        trajectory, final = evolve_noisy_protocol(
            build_protocol("w"), NoiseParams(dephasing_rate=1e9), DT
        )
        assert np.trace(final.matrix).real == pytest.approx(1.0, abs=1e-10)
        assert np.all(np.diff(trajectory.purity) <= 1e-12)

    def test_paper_rates_margin_and_bands(self):
        for label in ("epr", "ghz", "w"):
            trajectory, final = evolve_noisy_protocol(
                build_protocol(label), PAPER_NOISE, DT, margin_epsilon=0.06
            )
            assert trajectory.fidelity[-1] > 0.9
            assert trajectory.purity[-1] > 0.9
            assert trajectory.margin_ok.all()

    def test_held_pair_dephasing_closed_form(self):
        # (|10>+|01>)/sqrt(2) held under pure dephasing: coherence decays at
        # the bare rate, purity -> 1/2 as (1 + exp(-2 rate t)) / 2.
        rate, hold = 2e9, 1.5e-9
        pair = gates.apply_gate(basis_vector(2, "10"), gates.rotation(1, 2, math.pi / 2))
        trajectory, final = evolve_noisy_protocol(
            Protocol("hold", ()),
            NoiseParams(dephasing_rate=rate),
            dt=1e-12,
            initial=pair,
            free_time=hold,
        )
        expected_purity = 0.5 * (1 + math.exp(-2 * rate * hold))
        expected_fidelity = 0.5 * (1 + math.exp(-rate * hold))
        assert purity(final) == pytest.approx(expected_purity, rel=1e-6)
        assert trajectory.fidelity[-1] == pytest.approx(expected_fidelity, rel=1e-6)

    def test_fully_dephased_epr_fidelity_is_half(self):
        trajectory, final = evolve_noisy_protocol(
            Protocol("hold", ()),
            NoiseParams(dephasing_rate=1e12),
            dt=1e-12,
            initial=target_state("epr"),
            free_time=5e-9,
        )
        assert fidelity(final, target_state("epr")) == pytest.approx(0.5, abs=1e-9)
        assert purity(final) == pytest.approx(0.5, abs=1e-9)

    def test_emission_knob_only_acts_in_gate_windows(self):
        lossy = NoiseParams(dephasing_rate=0.0, emission_rate=1e8)
        trajectory, final = evolve_noisy_protocol(build_protocol("epr"), lossy, DT)
        assert trajectory.fidelity[-1] < 1.0
        _, held = evolve_noisy_protocol(
            Protocol("hold", ()), lossy, DT, initial=target_state("epr"), free_time=1e-10
        )
        assert fidelity(held, target_state("epr")) == pytest.approx(1.0, abs=1e-12)

    def test_step_size_validation(self):
        with pytest.raises(StepSizeError):
            evolve_noisy_protocol(build_protocol("epr"), PAPER_NOISE, dt=5e-12)
        with pytest.raises(StepSizeError):
            evolve_noisy_protocol(build_protocol("epr"), PAPER_NOISE, dt=0.0)
        with pytest.raises(StepSizeError):
            evolve_noisy_protocol(build_protocol("epr"), PAPER_NOISE, dt=float("nan"))
        for free_time in (float("inf"), float("nan"), -1e-9):
            with pytest.raises(StepSizeError):
                evolve_noisy_protocol(build_protocol("epr"), PAPER_NOISE, DT, free_time=free_time)

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_rates_must_be_finite_and_non_negative(self, rate):
        with pytest.raises(StepSizeError):
            NoiseParams(dephasing_rate=rate)
        with pytest.raises(StepSizeError):
            NoiseParams(emission_rate=rate)

    def test_twelve_mode_sector(self):
        initial = random_pure_state(12, 6, seed=3)
        trajectory, final = evolve_noisy_protocol(
            Protocol("idle", ()), PAPER_NOISE, DT, initial=initial, free_time=DT
        )
        assert trajectory.lambdas.shape == (2, 12)
        want = np.linalg.eigvalsh(one_rdm(initial))[::-1]
        assert np.max(np.abs(trajectory.lambdas[0] - want)) <= 1e-12
        assert np.max(np.abs(trajectory.lambdas.sum(axis=1) - 6.0)) <= 1e-10
        assert np.max(np.abs(trajectory.lambdas[1] - np.linalg.eigvalsh(one_rdm(final))[::-1])) <= 1e-12

    @pytest.mark.parametrize("margin_epsilon", [3.0, float("nan"), -1.0])
    def test_margin_epsilon_checked_in_every_sector(self, margin_epsilon):
        # Outside d = 6 no snapshot reads the margin, so only the up-front
        # check can reject it.
        initial = random_pure_state(8, 4, seed=1)
        with pytest.raises(InvalidDimensionError, match="margin_epsilon"):
            evolve_noisy_protocol(
                Protocol("idle", ()), PAPER_NOISE, DT, initial=initial,
                margin_epsilon=margin_epsilon,
            )

    def test_missing_durations_rejected(self):
        protocol = Protocol("bare", (gates.rotation(1, 2, 1.0),))
        with pytest.raises(InvalidGateError):
            evolve_noisy_protocol(protocol, PAPER_NOISE, DT)

    def test_trajectory_rows_schema(self):
        trajectory, _ = evolve_noisy_protocol(build_protocol("epr"), PAPER_NOISE, DT)
        row = trajectory.rows()[0]
        assert list(row) == [
            "time_s", "fidelity", "purity",
            "lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "lambda6",
            "F1", "F2", "margin_ok",
        ]


class TestLoschmidtEcho:
    def test_noiseless_echo_is_exact(self):
        echo = loschmidt_echo(build_protocol("w"), ZERO_NOISE, DT)
        assert echo.echo_fidelity >= 1 - 1e-10

    @pytest.mark.parametrize("label", ["epr", "ghz", "w"])
    def test_echo_fidelity_below_forward_fidelity(self, label):
        protocol = build_protocol(label)
        forward, _ = evolve_noisy_protocol(protocol, PAPER_NOISE, DT)
        echo = loschmidt_echo(protocol, PAPER_NOISE, DT)
        assert echo.echo_fidelity <= forward.fidelity[-1] + 1e-12

    @pytest.mark.parametrize("label", ["epr", "ghz", "w"])
    def test_purity_bound_holds_on_echo_output(self, label):
        echo = loschmidt_echo(build_protocol(label), PAPER_NOISE, DT)
        assert purity_lower_bound(echo.state) <= purity(echo.state) + 1e-12


class TestPurityLowerBound:
    def test_slater_bound_is_tight(self):
        rho = MixedState.from_pure(basis_vector(6, "101010"))
        assert purity_lower_bound(rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_pairs_give_minus_half(self):
        assert purity_lower_bound(maximally_mixed(6, 3)) == pytest.approx(-0.5)

    def test_bound_below_purity_for_random_mixtures(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            block = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
            rho = block @ block.conj().T
            rho /= np.trace(rho).real
            state = MixedState(6, 3, (rho + rho.conj().T) / 2)
            assert purity_lower_bound(state) <= purity(state) + 1e-12

    def test_pairs_must_partition_sites(self):
        with pytest.raises(InvalidGateError):
            purity_lower_bound(maximally_mixed(6, 3), pairs=((1, 2), (3, 4), (5, 5)))


class TestMixednessCrossCheck:
    @pytest.mark.parametrize("label", ["epr", "ghz", "w"])
    def test_weakened_bounds_with_spectral_epsilon(self, label):
        from fermitope.polytope import check_weakened

        _, final = evolve_noisy_protocol(
            build_protocol(label), NoiseParams(dephasing_rate=5e8), DT
        )
        eps = 1.0 - final.largest_eigenvalue()
        lam = np.linalg.eigvalsh(one_rdm(final))[::-1]
        report = check_weakened(lam, eps)
        assert report.member
