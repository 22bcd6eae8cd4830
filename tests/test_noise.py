"""Dephasing channel, noisy trajectories, echo and the purity bound."""

import math
import tracemalloc

import numpy as np
import oracles
import pytest

from fermitope import fock, gates, noise
from fermitope.errors import (
    InvalidDimensionError, InvalidGateError, SectorMismatchError, StepSizeError,
)
from fermitope.fock import (
    MixedState, basis_vector, natural_occupations, one_rdm, random_pure_state,
)
from fermitope.gates import (
    Protocol, build_protocol, controlled_rotation, phase_gate, rotation, target_state,
)
from fermitope.noise import (
    NoiseParams,
    evolve_noisy_protocol,
    fidelity,
    loschmidt_echo,
    purity,
    purity_lower_bound,
)
from fermitope.polytope import check_weakened, merit_values
from oracles import maximally_mixed

ZERO_NOISE = NoiseParams(dephasing_rate=0.0, emission_rate=0.0)
PAPER_NOISE = NoiseParams()
DT = 1e-12


def forbid_steps(monkeypatch):
    """Make every Trotter step fail."""

    def no_step(*_, **__):
        raise AssertionError("a refused run took a step")

    monkeypatch.setattr(noise, "_step", no_step)


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

    def test_final_trace_is_restored_after_many_steps(self):
        """At dt = 2.8e-15 the w run takes 78,573 steps, and tr rho drifts by
        1.5e-12, beyond MixedState's 1e-12; the final state is still given."""
        trajectory, final = evolve_noisy_protocol(build_protocol("w"), PAPER_NOISE, 2.8e-15)
        assert len(trajectory.times) == 78_574
        assert abs(np.trace(final.matrix) - 1.0) <= 1e-15
        assert trajectory.fidelity[-1] > 0.9

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
        states = [initial, *oracles.protocol_states(initial, protocol)]
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


# One gate of each kind; every site lies within the smallest sector, d = 6.
SLICE_GATES = {
    "rotation-i-above-j": rotation(5, 2, 2.3, 20e-12),
    "controlled-inside-the-pair": controlled_rotation(3, 1, 5, -1.7, 60e-12),
    "controlled-outside-the-pair": controlled_rotation(6, 1, 4, 4.1, 60e-12),
    "phase": phase_gate(2, 5, 0.9, 20e-12),
}


class TestStepsAgainstDenseConjugation:
    @pytest.mark.parametrize("gate", SLICE_GATES.values(), ids=SLICE_GATES.keys())
    @pytest.mark.parametrize("d,n", [(6, 3), (8, 4), (10, 5)])
    def test_every_slice_is_the_dense_conjugation(self, d, n, gate):
        # A random Hermitian rho and an unrelated psi, four slices of one gate.
        dim = math.comb(d, n)
        rng = np.random.default_rng(d)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = (a + a.conj().T) / 2.0
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        start = np.vstack([rho, psi])
        steps, rate = 4, 1e10
        plan = [((gate, rate, gate.duration), steps)]
        work = start.copy()  # the working state: it ends as the last state
        ((times, states),) = noise._trotter_blocks(plan, work, d, n, steps + 1)
        assert np.array_equal(states[0], start)
        assert np.array_equal(states[-1], work)
        u = gates.gate_matrix(gate.scaled(1.0 / steps), d, n)
        kernel = oracles.dephasing_kernel(d, n, rate, gate.duration / steps)
        for state in states[1:]:
            rho, psi = kernel * (u @ rho @ u.conj().T), u @ psi
            assert np.max(np.abs(state[:-1] - rho)) <= 1e-14
            assert np.max(np.abs(state[-1] - psi)) <= 1e-14
        assert times[-1] == pytest.approx(gate.duration, rel=1e-15)


class TestTrajectoryAgainstDenseOracle:
    COLUMNS = ("times", "fidelity", "purity", "lambdas", "f1", "f2")

    @pytest.mark.parametrize("free_time", [0.0, 7 * DT], ids=["gates", "free-time"])
    @pytest.mark.parametrize("rate", [noise.PAPER_DEPHASING_RATE, 1e10], ids=["paper", "1e10"])
    @pytest.mark.parametrize("label", ["epr", "w", "ghz"])
    def test_protocol_targets(self, label, rate, free_time):
        params = NoiseParams(dephasing_rate=rate)
        self.check(build_protocol(label), params, target_state("slater"), free_time)

    def test_random_protocol_with_a_phase_gate(self):
        protocol = Protocol(
            "random",
            (
                rotation(4, 1, 2.2, 20e-12),
                phase_gate(6, 2, 1.3, 20e-12),
                controlled_rotation(5, 2, 6, -2.9, 60e-12),
                rotation(3, 6, 0.4, 20e-12),
            ),
        )
        params = NoiseParams(dephasing_rate=1e10, emission_rate=2e9)
        self.check(protocol, params, random_pure_state(6, 3, seed=7), 5 * DT)

    def check(self, protocol, params, initial, free_time):
        trajectory, final = evolve_noisy_protocol(
            protocol, params, DT, initial=initial, free_time=free_time
        )
        want, rho = oracles.dense_trajectory(protocol, params, DT, initial, free_time)
        for column in self.COLUMNS:
            assert np.max(np.abs(getattr(trajectory, column) - want[column])) <= 1e-12, column
        assert np.array_equal(trajectory.margin_ok, want["margin_ok"])
        assert np.max(np.abs(final.matrix - (rho + rho.conj().T) / 2.0)) <= 1e-12


class TestRecordedRdmsAgainstDenseOracle:
    """Every 1-RDM a random run records, against the dense 2^d oracle's 1-RDM
    of the same recorded rho.  evolve_noisy_protocol starts only from pure
    states, so a mixed start drives its block producer and observer."""

    DURATIONS = {"rotation": 20e-12, "controlled_rotation": 60e-12, "phase": 20e-12}
    PARAMS = NoiseParams(dephasing_rate=1e10, emission_rate=2e9)
    STEP = 2e-12

    def random_protocol(self, d: int, kinds, rng) -> Protocol:
        ops = []
        for kind in kinds:
            n_sites = 3 if kind == "controlled_rotation" else 2
            sites = tuple(int(s) + 1 for s in rng.choice(d, size=n_sites, replace=False))
            angle = float(rng.uniform(-math.pi, math.pi))
            ops.append(gates.GateOp(kind, sites, angle, self.DURATIONS[kind]))
        return Protocol(f"random-{d}", tuple(ops))

    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    @pytest.mark.parametrize(
        "d, n, kinds",
        [(8, 4, ("rotation", "controlled_rotation", "phase")), (10, 5, ("phase", "rotation"))],
    )
    def test_every_recorded_rdm(self, monkeypatch, d, n, kinds, mixed):
        rng = np.random.default_rng(10 * d + mixed)
        protocol = self.random_protocol(d, rng.permutation(kinds), rng)
        recorded, kernel = [], fock._rdm_kernel

        def spy(d_, n_, x, density=False):
            out = kernel(d_, n_, x, density)
            if density:
                recorded.append((x.copy(), out))
            return out

        monkeypatch.setattr(fock, "_rdm_kernel", spy)
        psi = random_pure_state(d, n, seed=d)
        steps = [math.ceil(g.duration / self.STEP) for g in protocol.gates]
        if mixed:
            other = random_pure_state(d, n, seed=d + 1).amplitudes
            a = psi.amplitudes
            rho = 0.7 * np.outer(a, a.conj()) + 0.3 * np.outer(other, other.conj())
            start = np.vstack([rho, a])
            rate = self.PARAMS.dephasing_rate + self.PARAMS.emission_rate
            plan = [((g, rate, g.duration), s) for g, s in zip(protocol.gates, steps)]
            size = max(1, noise._BLOCK_BYTES // start.nbytes)
            for _, states in noise._trotter_blocks(plan, start, d, n, size):
                noise._observe(states, d, n)
        else:
            evolve_noisy_protocol(protocol, self.PARAMS, self.STEP, initial=psi)
        rhos = np.concatenate([x for x, _ in recorded])
        gammas = np.concatenate([g for _, g in recorded])
        assert len(rhos) == 1 + sum(steps)
        want = oracles.dense_density_one_rdm(d, n, rhos)
        assert np.max(np.abs(gammas - want)) <= 1e-13
        assert np.max(np.abs(np.trace(gammas, axis1=1, axis2=2) - n)) <= 1e-12
        assert np.max(np.abs(gammas - gammas.conj().transpose(0, 2, 1))) <= 1e-12


def traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    # A (10, 5) run holds the recorded block (one state), the working state,
    # a spare and the float kernel, 3.5 rho; an in-place rotation's copy of
    # its pair rows adds up to about half a rho.
    RHO_BYTES = math.comb(10, 5) ** 2 * 16

    def check_large_sector_run(self, protocol, free_time, n_states):
        initial = random_pure_state(10, 5, seed=2)
        amplitudes = initial.amplitudes.copy()
        (trajectory, _), peak = traced_peak(
            lambda: evolve_noisy_protocol(protocol, PAPER_NOISE, 2e-12, initial, free_time)
        )
        assert len(trajectory.times) == n_states
        assert peak < 4.5 * self.RHO_BYTES + n_states * 10 * 10 * 16
        assert np.array_equal(initial.amplitudes, amplitudes)

    def test_large_sector_run_holds_a_few_states(self):
        # 41 recorded states of 1 MB each.
        protocol = Protocol("one", (rotation(1, 10, 1.0, 20e-12),))
        self.check_large_sector_run(protocol, 60e-12, 41)

    def test_large_sector_run_of_every_gate_kind(self):
        # A rotation with i > j, a controlled rotation, a phase gate (whose
        # complex kernel takes the spare) and free time: 56 recorded states.
        protocol = Protocol(
            "every-kind",
            (
                rotation(7, 2, 1.1, 20e-12),
                controlled_rotation(9, 3, 6, -2.0, 60e-12),
                phase_gate(4, 8, 0.7, 20e-12),
            ),
        )
        self.check_large_sector_run(protocol, 10e-12, 56)

    def test_long_run_does_not_hold_its_states(self):
        # 50,000 states of (20 + 1) x 20 entries would take 336 MB; the 1-RDMs
        # take 28.8 MB.
        initial, idle = random_pure_state(6, 3, seed=3), Protocol("idle", ())
        (trajectory, _), peak = traced_peak(
            lambda: evolve_noisy_protocol(idle, PAPER_NOISE, DT, initial, 50_000 * DT)
        )
        assert len(trajectory.times) == 50_001
        herm_bytes = 50_001 * 6 * 6 * 16
        assert peak < 1.5 * herm_bytes


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
