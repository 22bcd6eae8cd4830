"""Dephasing channel, noisy trajectories, echo and the purity bound."""

import math

import numpy as np
import pytest

from fermitope import gates, noise
from fermitope.errors import (
    InvalidDimensionError, InvalidGateError, SectorMismatchError, StepSizeError,
)
from fermitope.fock import (
    MixedState, basis_vector, maximally_mixed, natural_occupations, one_rdm, random_pure_state,
)
from fermitope.gates import Protocol, build_protocol, target_state
from fermitope.noise import (
    NoiseParams,
    evolve_noisy_protocol,
    fidelity,
    loschmidt_echo,
    purity,
    purity_lower_bound,
)
from fermitope.polytope import check_weakened, merit_values

ZERO_NOISE = NoiseParams(dephasing_rate=0.0, emission_rate=0.0)
PAPER_NOISE = NoiseParams()
DT = 1e-12


def forbid_steps(monkeypatch):
    """Make every recorded step fail: the 1-RDM kernel runs once per step."""

    def no_step(*_, **__):
        raise AssertionError("a refused run took a step")

    monkeypatch.setattr(noise.fock, "_rdm_kernel", no_step)


class TestFidelityAndPurity:
    def test_pure_projector_has_unit_fidelity(self):
        psi = random_pure_state(6, 3, seed=1)
        assert fidelity(MixedState.from_pure(psi), psi) == pytest.approx(1.0)

    def test_maximally_mixed_fidelity_is_inverse_dimension(self):
        rho = maximally_mixed(6, 3)
        assert fidelity(rho, target_state("ghz")) == pytest.approx(1 / 20)

    @pytest.mark.parametrize("d,n,seed", [(6, 3, 1), (6, 3, 2), (8, 4, 3), (2, 1, 4)])
    def test_pure_state_fidelity_is_squared_overlap(self, d, n, seed):
        psi, t = random_pure_state(d, n, seed), random_pure_state(d, n, seed + 100)
        want = abs(np.vdot(t.amplitudes, psi.amplitudes)) ** 2
        assert fidelity(psi, t) == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert fidelity(psi, t) == pytest.approx(
            fidelity(MixedState.from_pure(psi), t), rel=1e-12, abs=1e-15
        )

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

    @pytest.mark.parametrize(
        "dt,free_time",
        [(1e-300, 0.0), (5e-324, 0.0), (1e-16, 0.0), (DT, 1.0), (DT, 1e300)],
        ids=["dt-tiny", "dt-subnormal", "dt-1e-16", "free-time-1s", "free-time-huge"],
    )
    def test_too_many_steps_refused_before_the_first(self, monkeypatch, dt, free_time):
        forbid_steps(monkeypatch)
        with pytest.raises(StepSizeError, match="Trotter steps"):
            evolve_noisy_protocol(build_protocol("w"), PAPER_NOISE, dt, free_time=free_time)

    @pytest.mark.parametrize(
        "initial",
        [
            maximally_mixed(6, 3),
            MixedState.from_pure(target_state("w")),
            target_state("w").amplitudes,
        ],
        ids=["maximally-mixed", "pure-projector", "bare-amplitudes"],
    )
    def test_start_that_is_not_a_pure_state_refused_before_the_first_step(
        self, monkeypatch, initial
    ):
        forbid_steps(monkeypatch)
        with pytest.raises(InvalidDimensionError, match="must be a PureState"):
            evolve_noisy_protocol(build_protocol("w"), PAPER_NOISE, DT, initial=initial)

    def test_gate_beyond_the_sector_refused_before_the_first_step(self, monkeypatch):
        # The first gate is valid; the second names site 7 of six.
        protocol = Protocol(
            "bad", (gates.rotation(1, 2, 1.0, 20e-12), gates.rotation(3, 7, 1.0, 20e-12))
        )
        forbid_steps(monkeypatch)
        with pytest.raises(InvalidGateError, match="exceed d=6"):
            evolve_noisy_protocol(protocol, PAPER_NOISE, DT)

    def test_step_cap_counts_gate_and_free_time_steps(self, monkeypatch):
        protocol = build_protocol("w")
        gate_steps = sum(math.ceil(g.duration / DT) for g in protocol.gates)
        # 8 * DT / DT is exactly 8: eight free-time steps.
        monkeypatch.setattr(noise, "_MAX_STEPS", gate_steps + 8)
        trajectory, _ = evolve_noisy_protocol(protocol, PAPER_NOISE, DT, free_time=8 * DT)
        assert len(trajectory.times) == gate_steps + 8 + 1
        monkeypatch.setattr(noise, "_MAX_STEPS", gate_steps + 7)
        with pytest.raises(StepSizeError):
            evolve_noisy_protocol(protocol, PAPER_NOISE, DT, free_time=8 * DT)

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

    @pytest.mark.parametrize("free_time", [0.0, 5 * DT], ids=["gates", "free-time"])
    @pytest.mark.parametrize("label", ["epr", "w", "ghz"])
    def test_every_row_matches_its_own_occupations(self, label, free_time):
        # At margin_epsilon = 0 some rows pass the margin and some fail, so
        # a batch off by one row or transposed shows in margin_ok too.
        protocol = build_protocol(label)
        planned = sum(math.ceil(g.duration / DT) for g in protocol.gates)
        planned += math.ceil(free_time / DT)
        for eps in (0.0, 0.06):
            trajectory, _ = evolve_noisy_protocol(
                protocol, PAPER_NOISE, DT, free_time=free_time, margin_epsilon=eps
            )
            assert len(trajectory.times) == planned + 1
            assert trajectory.lambdas.shape == (planned + 1, 6)
            for k, lam in enumerate(trajectory.lambdas):
                merits = merit_values(lam)
                assert trajectory.f1[k] == merits.f1
                assert trajectory.f2[k] == merits.f2
                assert trajectory.margin_ok[k] == check_weakened(lam, eps).member

    @pytest.mark.parametrize("free_time", [0.0, 5 * DT], ids=["gates", "free-time"])
    @pytest.mark.parametrize("label", ["epr", "w", "ghz"])
    def test_gate_boundaries_match_the_noiseless_protocol(self, label, free_time):
        protocol = build_protocol(label)
        trajectory, _ = evolve_noisy_protocol(protocol, ZERO_NOISE, DT, free_time=free_time)
        initial = target_state("slater")
        boundaries = np.cumsum([0] + [math.ceil(g.duration / DT) for g in protocol.gates])
        states = [initial, *gates.protocol_states(initial, protocol)]
        for k, state in zip(boundaries, states, strict=True):
            want, _ = natural_occupations(one_rdm(state))
            assert np.max(np.abs(trajectory.lambdas[k] - want)) <= 1e-12
        # Free time at zero noise leaves the last gate's state in place.
        assert np.max(np.abs(trajectory.lambdas[-1] - want)) <= 1e-12

    def test_trajectory_rows_schema(self):
        trajectory, _ = evolve_noisy_protocol(build_protocol("epr"), PAPER_NOISE, DT)
        rows = trajectory.rows()
        assert list(rows[0]) == [
            "time_s", "fidelity", "purity",
            "lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "lambda6",
            "F1", "F2", "margin_ok",
        ]
        assert len(rows) == len(trajectory.times)
        for k, row in enumerate(rows):
            want = [
                float(trajectory.times[k]), float(trajectory.fidelity[k]),
                float(trajectory.purity[k]), *map(float, trajectory.lambdas[k]),
                float(trajectory.f1[k]), float(trajectory.f2[k]), bool(trajectory.margin_ok[k]),
            ]
            assert list(row.values()) == want
            assert [type(v) for v in row.values()] == [type(v) for v in want]


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
        _, final = evolve_noisy_protocol(
            build_protocol(label), NoiseParams(dephasing_rate=5e8), DT
        )
        eps = 1.0 - final.largest_eigenvalue()
        lam = np.linalg.eigvalsh(one_rdm(final))[::-1]
        report = check_weakened(lam, eps)
        assert report.member
