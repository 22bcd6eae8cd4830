"""Gaussian 1-RDM perturbations, violation probabilities, sigma thresholds."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fermitope import montecarlo as mc
from fermitope import polytope
from fermitope.errors import InvalidDimensionError
from fermitope.montecarlo import (
    PerturbationSpec,
    max_tolerated_sigma,
    merit_histogram,
    merit_samples,
    sample_perturbed_rdm,
    theoretical_rdm,
    violation_probability,
)

CANONICAL = (("epr", "f_slater"), ("w", "f_epr"), ("ghz", "f_w"))


def _status_is_monotone(base, merit):
    """merit(lambda(gamma0)) <= 0 and lambda1(gamma0) <= 1: the pruning condition."""
    lam0 = np.linalg.eigvalsh(theoretical_rdm(base))[::-1]
    return polytope._MERITS[merit](lam0) <= 0.0 and lam0[0] <= 1.0


@functools.lru_cache(maxsize=None)
def _exhaustive(base, merit, n_samples, seed):
    return oracles.exhaustive_max_tolerated_sigma(base, merit, n_samples=n_samples, seed=seed)


MONOTONE_PAIRS = [
    (base, merit)
    for base in polytope.CLASS_LABELS
    for merit in mc.MERIT_LABELS
    if _status_is_monotone(base, merit)
]

ALL_PAIRS = [(base, merit) for base in polytope.CLASS_LABELS for merit in mc.MERIT_LABELS]


@functools.lru_cache(maxsize=None)
def _sigma_star(base, merit, n_samples, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return max_tolerated_sigma(base, merit, n_samples=n_samples, seed=seed)


class TestPerturbedSampling:
    def test_zero_sigma_returns_theoretical_rdm(self):
        spec = PerturbationSpec("ghz", sigma=0.0, n_samples=3, seed=1)
        assert np.allclose(sample_perturbed_rdm(spec, 0), theoretical_rdm("ghz"))

    def test_site_basis_rdms_are_diagonal(self):
        for base in ("slater", "epr", "w", "ghz"):
            gamma = theoretical_rdm(base)
            assert np.allclose(gamma, np.diag(np.diag(gamma)), atol=1e-12)

    def test_samples_are_hermitian(self):
        spec = PerturbationSpec("w", sigma=0.1, n_samples=5, seed=2)
        for k in range(5):
            gamma = sample_perturbed_rdm(spec, k)
            assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12

    @pytest.mark.parametrize("base", ["epr", "ghz"])
    def test_one_sample_equals_its_row_of_the_full_batch(self, base, monkeypatch):
        spec = PerturbationSpec(base, sigma=0.2, n_samples=40, seed=8)
        gamma0, draws = mc._base_and_draws(base, spec.n_samples, spec.seed)
        batch = mc._perturbed_batch(gamma0, spec.sigma, draws)
        rows_drawn = []
        standard_draws = mc._standard_draws
        monkeypatch.setattr(
            mc, "_standard_draws", lambda n, seed: rows_drawn.append(n) or standard_draws(n, seed)
        )
        for k in (0, 1, 17, spec.n_samples - 1):
            assert np.array_equal(sample_perturbed_rdm(spec, k), batch[k])
        assert rows_drawn == [1, 2, 18, spec.n_samples]

    def test_epr_corner_entry_never_negative(self):
        spec = PerturbationSpec("epr", sigma=0.3, n_samples=500, seed=3)
        draws = np.array([sample_perturbed_rdm(spec, k)[5, 5].real for k in range(500)])
        assert np.all(draws >= 0.0)

    def test_sample_mean_concentrates_on_base(self):
        sigma, n = 0.05, 100_000
        draws = mc._standard_draws(n, 4)
        batch = mc._perturbed_batch(theoretical_rdm("ghz"), sigma, draws)
        mean = batch.mean(axis=0)
        tol = 3 * sigma / np.sqrt(n)
        assert np.max(np.abs(mean - theoretical_rdm("ghz"))) < tol

    def test_counter_based_reproducibility(self):
        a = merit_samples("ghz", "f_w", 0.05, 1000, seed=5)
        b = merit_samples("ghz", "f_w", 0.05, 1000, seed=5)
        assert np.array_equal(a, b)

    def test_spec_validation(self):
        with pytest.raises(InvalidDimensionError):
            PerturbationSpec("bell", 0.1, 10, 0)
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidDimensionError):
                PerturbationSpec("epr", sigma, 10, 0)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: merit_samples("epr", "f_slater", 0.05, 0, 0), id="samples-n0"),
            pytest.param(lambda: merit_samples("epr", "f_slater", -0.1, 10, 0), id="samples-neg"),
            pytest.param(
                lambda: merit_samples("epr", "f_slater", float("nan"), 10, 0), id="samples-nan"
            ),
            pytest.param(
                lambda: merit_samples("epr", "f_slater", float("inf"), 10, 0), id="samples-inf"
            ),
            pytest.param(lambda: violation_probability("epr", "f_slater", 0.05, 0), id="prob-n0"),
            pytest.param(lambda: violation_probability("epr", "f_slater", -0.1, 10), id="prob-neg"),
            pytest.param(lambda: merit_histogram("epr", "f_slater", 0.05, 0), id="hist-n0"),
            pytest.param(lambda: merit_histogram("epr", "f_slater", -0.1, 10), id="hist-neg"),
            pytest.param(
                lambda: max_tolerated_sigma("epr", "f_slater", n_samples=0), id="threshold-n0"
            ),
            pytest.param(
                lambda: max_tolerated_sigma("epr", "f_slater", n_samples=-3), id="threshold-neg"
            ),
            pytest.param(lambda: merit_samples("epr", "f_slater", 0.05, 10, -1), id="samples-seed"),
            pytest.param(
                lambda: max_tolerated_sigma("epr", "f_slater", n_samples=10, seed=-1),
                id="threshold-seed",
            ),
            pytest.param(
                lambda: sample_perturbed_rdm(PerturbationSpec("epr", 0.05, 10, -1)),
                id="sample-seed",
            ),
        ],
    )
    def test_sample_count_and_sigma_validated(self, call):
        with pytest.raises(InvalidDimensionError):
            call()

    def test_chunked_merits_match_one_shot_batch(self):
        n, k = 2 * mc._CHUNK_ROWS + 123, 1_000
        draws = mc._standard_draws(n, 9)
        for base, merit in CANONICAL:
            got = merit_samples(base, merit, 0.05, n, seed=9)
            assert np.array_equal(got, oracles.full_batch_merits(base, merit, 0.05, draws))
            assert np.array_equal(got[:k], merit_samples(base, merit, 0.05, k, seed=9))


class TestViolationProbability:
    def test_zero_sigma_concentrates_at_reference_value(self):
        assert violation_probability("epr", "f_slater", 0.0, 1000, seed=0) == 1.0
        assert violation_probability("w", "f_epr", 1e-6, 1000, seed=0) == 1.0

    def test_reference_sigma_keeps_high_confidence(self):
        prob = violation_probability("epr", "f_slater", 0.083, 100_000, seed=1)
        assert prob == pytest.approx(0.999, abs=2e-3)

    def test_large_sigma_loses_confidence(self):
        assert violation_probability("ghz", "f_w", 0.10, 50_000, seed=1) < 0.999

    def test_monotone_non_increasing_in_sigma(self):
        sigmas = np.linspace(0.0, 0.2, 9)
        for base, merit in (("epr", "f_slater"), ("w", "f_epr"), ("ghz", "f_w")):
            probs = [
                violation_probability(base, merit, float(s), 20_000, seed=6)
                for s in sigmas
            ]
            noise_floor = 2 * np.sqrt(0.25 / 20_000)
            assert all(b <= a + noise_floor for a, b in zip(probs, probs[1:]))

    def test_non_canonical_pairing_warns(self):
        with pytest.warns(UserWarning):
            violation_probability("ghz", "f_slater", 0.05, 100, seed=0)

    def test_zero_pivot_goes_to_eigvalsh(self):
        """At sigma = 0, I - gamma0 on epr has an exact zero pivot, which decides nothing.

        The LDL^H alone would count no negative pivot and call every sample
        an F_EPR violation; lambda1 = 1 is none.
        """
        gamma0, draws = mc._base_and_draws("epr", 1000, 0)
        batch = mc._perturbed_batch(gamma0, 0.0, draws).transpose(1, 2, 0)
        _, decided = mc._ldl_inertia(np.eye(6)[:, :, None] - batch)
        assert not np.any(decided)
        assert violation_probability("epr", "f_slater", 0.0, 1000, seed=0) == 1.0
        with pytest.warns(UserWarning):
            assert violation_probability("epr", "f_epr", 0.0, 1000, seed=0) == 0.0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("which", ["zero", "tiny", "star", "large"])
    @pytest.mark.parametrize("base, merit", ALL_PAIRS)
    def test_matches_full_batch_eigvalsh(self, base, merit, which):
        n, seed = 5_000, 13
        sigma = {"zero": 0.0, "tiny": 1e-6, "large": 0.3}.get(which)
        if sigma is None:
            sigma = _sigma_star(base, merit, n, seed)
        draws = mc._standard_draws(n, seed)
        want = float(np.mean(oracles.full_batch_merits(base, merit, sigma, draws) < 0.0))
        assert violation_probability(base, merit, sigma, n, seed) == want


class TestMaxToleratedSigma:
    def test_quick_thresholds_near_reference(self):
        # Coarse 2e4-sample check; the acceptance suite runs the full 1e5.
        for base, merit, ref in (
            ("epr", "f_slater", 0.083),
            ("w", "f_epr", 0.055),
            ("ghz", "f_w", 0.037),
        ):
            got = max_tolerated_sigma(base, merit, n_samples=20_000, seed=8)
            assert got == pytest.approx(ref, abs=0.01)

    def test_deterministic(self):
        a = max_tolerated_sigma("ghz", "f_w", n_samples=5_000, seed=3)
        b = max_tolerated_sigma("ghz", "f_w", n_samples=5_000, seed=3)
        assert a == b

    # n <= _CHUNK_ROWS (1, 2000, 2048) is answered by the pilot alone; 2049
    # leaves one sample outside it.
    @pytest.mark.parametrize(
        "seed, n_samples",
        [(0, 1), (7, 2_048), (42, 2_049), (0, 2_000), (7, 5_000), (42, 10_000)],
    )
    @pytest.mark.parametrize(
        "base, merit", CANONICAL + (("w", "f_slater"), ("slater", "f_w"))
    )
    def test_matches_exhaustive_bisection(self, base, merit, seed, n_samples):
        got = max_tolerated_sigma(base, merit, n_samples=n_samples, seed=seed)
        ref = oracles.exhaustive_max_tolerated_sigma(base, merit, n_samples=n_samples, seed=seed)
        assert got == ref

    @pytest.mark.parametrize("base, merit", CANONICAL)
    def test_full_size_search_is_the_last_passing_step(self, base, merit):
        """At (seed 0, 1e5), where 13 full batches per oracle run cost too much.

        With p non-increasing on the grid, the exhaustive bisection returns
        the one step that passes while the next fails, so both are checked
        on the full batch.
        """
        n, confidence = 100_000, 0.999
        got = max_tolerated_sigma(base, merit, confidence, n_samples=n, seed=0)
        draws = np.random.Generator(np.random.Philox(key=0)).standard_normal((n, 36))

        def passes(sigma):
            return np.mean(oracles.full_batch_merits(base, merit, sigma, draws) < 0) >= confidence

        assert 0.0 < got < 0.5
        assert passes(got)
        assert not passes(got + mc._STEP)

    @pytest.mark.parametrize("m_hat", [0, mc._TOP - 1])
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("base, merit", CANONICAL)
    def test_bad_pilot_still_gives_exhaustive_answer(self, base, merit, seed, m_hat, monkeypatch):
        n = 5_000
        searches = []
        search = mc._largest_passing_step

        def forced_pilot(status, confidence, lo, hi, v_lo, v_hi):
            searches.append((lo, hi))
            if len(searches) == 1:
                return m_hat
            return search(status, confidence, lo, hi, v_lo, v_hi)

        monkeypatch.setattr(mc, "_largest_passing_step", forced_pilot)
        got = max_tolerated_sigma(base, merit, n_samples=n, seed=seed)
        # m_hat = 0 leaves sigma* above the first full evaluation (a walk up);
        # m_hat = 4095 puts that evaluation at 0.5 (a walk down from the top).
        assert searches[1] == ((8, mc._TOP) if m_hat == 0 else (0, mc._TOP))
        assert got == _exhaustive(base, merit, n, seed)

    def test_rows_evaluated_per_search(self, monkeypatch):
        n = 100_000
        given_rows, eigvalsh_rows = [], []
        violations, merit_values = mc._violations, mc._merit_values

        def counting(gamma0, merit, sigma, draws, rows):
            given_rows.append(len(rows))
            return violations(gamma0, merit, sigma, draws, rows)

        def counting_eigvalsh(gamma0, merit_fn, sigma, draws, rows):
            eigvalsh_rows.append(len(rows))
            return merit_values(gamma0, merit_fn, sigma, draws, rows)

        monkeypatch.setattr(mc, "_violations", counting)
        monkeypatch.setattr(mc, "_merit_values", counting_eigvalsh)
        for base, merit in CANONICAL:
            given_rows.clear()
            eigvalsh_rows.clear()
            max_tolerated_sigma(base, merit, n_samples=n, seed=42)
            # 1.13-1.39 n at this seed; the full bisection took 3.19-5.28 n.
            assert n < sum(given_rows) <= 1.6 * n
            if merit in mc._INERTIA_FORMS:
                # 1.8% (epr) and 1.2% (w) of n at this seed.
                assert sum(eigvalsh_rows) <= 0.05 * n

    def test_pruning_condition_holds_off_slater(self):
        expected = {(b, m) for b in ("epr", "w", "ghz") for m in mc.MERIT_LABELS}
        assert expected <= set(MONOTONE_PAIRS)
        assert ("slater", "f_w") not in MONOTONE_PAIRS

    @settings(max_examples=25, deadline=None)
    @given(pair=st.sampled_from(MONOTONE_PAIRS), seed=st.integers(0, 2**32 - 1))
    def test_violation_status_non_increasing_in_sigma(self, pair, seed):
        base, merit = pair
        sigmas = np.linspace(0.0, 0.5, 51)[1:]
        status = np.array([merit_samples(base, merit, s, 256, seed) < 0.0 for s in sigmas])
        assert not np.any(status[1:] & ~status[:-1])

    def test_confidence_validated(self):
        with pytest.raises(InvalidDimensionError):
            max_tolerated_sigma("epr", "f_slater", confidence=0.3, n_samples=100)


INERTIA_PAIRS = [(base, merit) for base, merit in MONOTONE_PAIRS if merit in mc._INERTIA_FORMS]


class TestInertiaStatus:
    @settings(max_examples=40, deadline=None)
    @given(
        pair=st.sampled_from(INERTIA_PAIRS),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(-4, 4),
        pilot=st.sampled_from([None, 0.25, 0.5]),
    )
    def test_decided_rows_match_eigvalsh_and_the_rest_go_to_it(self, pair, seed, steps, pilot):
        """Near sigma* +- a few grid steps, and at the pilot's scale."""
        base, merit = pair
        n = mc._CHUNK_ROWS + 952
        sigma = pilot or max(0.0, _sigma_star(base, merit, 2_048, 0) + steps * mc._STEP)
        factored, routed = [], []
        ldl_inertia, merit_values = mc._ldl_inertia, mc._merit_values

        def spy_ldl(m):
            factored.append(ldl_inertia(m))
            return factored[-1]

        def spy_eigvalsh(gamma0, merit_fn, sigma, draws, rows):
            routed.append(rows)
            return merit_values(gamma0, merit_fn, sigma, draws, rows)

        gamma0, draws = mc._base_and_draws(base, n, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_ldl_inertia", spy_ldl)
            patch.setattr(mc, "_merit_values", spy_eigvalsh)
            got = mc._violations(gamma0, merit, sigma, draws, np.arange(n))

        want = oracles.full_batch_merits(base, merit, sigma, mc._standard_draws(n, seed)) < 0.0
        negatives = np.concatenate([neg for neg, _ in factored])
        decided = np.concatenate([dec for _, dec in factored])
        status = negatives <= mc._INERTIA_FORMS[merit]
        assert np.array_equal(status[decided], want[decided])
        assert np.array_equal(np.concatenate(routed), np.flatnonzero(~decided))
        assert np.array_equal(got, want)


class TestHistogram:
    def test_mass_above_zero_matches_confidence_at_threshold(self):
        sigma_star = max_tolerated_sigma("epr", "f_slater", n_samples=50_000, seed=12)
        values = merit_samples("epr", "f_slater", sigma_star, 50_000, seed=12)
        mass_above = float(np.mean(values >= 0))
        assert 0.0 <= mass_above <= 1.5e-3

    def test_histogram_totals(self):
        centers, counts = merit_histogram("ghz", "f_w", 0.05, 5_000, seed=1, bins=50)
        assert counts.sum() == 5_000
        assert len(centers) == 50
