"""Gaussian 1-RDM perturbations, violation probabilities, sigma thresholds."""

import functools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fermitope import montecarlo as mc
from fermitope import gates, polytope
from fermitope.errors import InvalidDimensionError, UnsupportedCaseError
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


@functools.lru_cache(maxsize=None)
def _oracle(base, merit, n_samples, seed):
    """sigma* at confidence 0.999 from one eigen-solve per sample for the
    canonical pairs (cross-checked in test_confidence_at_an_attained_fraction),
    from the exhaustive bisection's 13 passes for the others."""
    if (base, merit) in CANONICAL:
        return oracles.critical_max_tolerated_sigma(base, merit, n_samples=n_samples, seed=seed)
    return _exhaustive(base, merit, n_samples, seed)


MONOTONE_PAIRS = [
    (base, merit)
    for base in polytope.CLASS_LABELS
    for merit in mc.MERIT_LABELS
    if _status_is_monotone(base, merit)
]

ALL_PAIRS = [(base, merit) for base in polytope.CLASS_LABELS for merit in mc.MERIT_LABELS]


def _base_and_draws(base, n_samples, seed):
    """gamma0 and the (n_samples, 36) draws of ``_draw_blocks``, every block stacked."""
    return theoretical_rdm(base), np.concatenate(list(mc._draw_blocks(base, n_samples, seed)))


def _perturbed(gamma0, sigma, draws):
    """``_perturbed_batch`` of every row of ``draws``, in a buffer of its own."""
    return mc._perturbed_batch(gamma0, sigma, draws, np.empty(mc._MATRIX_FLOATS * len(draws)))


def _streamed_sigmas(monkeypatch) -> list[float]:
    """The sigma of each pass of ``_streamed_step`` over all samples, in order."""
    sigmas, streamed_step = [], mc._streamed_step

    def spy(gamma0, merit, sigma, *args):
        sigmas.append(sigma)
        return streamed_step(gamma0, merit, sigma, *args)

    monkeypatch.setattr(mc, "_streamed_step", spy)
    return sigmas


@functools.lru_cache(maxsize=None)
def _sigma_star(base, merit, n_samples, seed):
    """sigma* of the search, or of the exhaustive bisection for the pair it refuses."""
    if (base, merit) not in MONOTONE_PAIRS:
        return _exhaustive(base, merit, n_samples, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return max_tolerated_sigma(base, merit, n_samples=n_samples, seed=seed)


class TestPerturbedSampling:
    def test_zero_sigma_returns_theoretical_rdm(self):
        spec = PerturbationSpec("ghz", sigma=0.0, n_samples=3, seed=1)
        assert np.allclose(sample_perturbed_rdm(spec, 0), theoretical_rdm("ghz"))

    def test_site_basis_rdms_are_diagonal(self):
        for base in polytope.CLASS_LABELS:
            gamma = theoretical_rdm(base)
            assert np.allclose(gamma, np.diag(np.diag(gamma)), atol=1e-12)

    def test_samples_are_hermitian(self):
        spec = PerturbationSpec("w", sigma=0.1, n_samples=5, seed=2)
        for k in range(5):
            gamma = sample_perturbed_rdm(spec, k)
            assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12

    @pytest.mark.parametrize("base", ["epr", "ghz"])
    def test_one_sample_equals_its_row_of_the_full_batch(self, base, drawn_rows):
        spec = PerturbationSpec(base, sigma=0.2, n_samples=40, seed=8)
        gamma0, draws = _base_and_draws(base, spec.n_samples, spec.seed)
        batch = _perturbed(gamma0, spec.sigma, draws)
        for k in (0, 1, 17, spec.n_samples - 1):
            assert np.array_equal(sample_perturbed_rdm(spec, k), batch[k])
        # The full batch first, then each sample's own draw.
        assert drawn_rows == [spec.n_samples, 1, 2, 18, spec.n_samples]

    @pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 3 * 2048 + 5])
    @pytest.mark.parametrize("base", list(gates.CLASSES))
    def test_blocks_stack_to_the_one_shot_stream(self, base, n):
        blocks = list(mc._draw_blocks(base, n, 5))
        assert len(blocks[0]) == min(n, mc._CHUNK_ROWS)
        assert all(len(block) <= mc._CHUNK_ROWS for block in blocks)
        want = oracles.standard_draws(n, 5)
        folded = list(gates.CLASSES[base].folded_draws)
        want[:, folded] = np.abs(want[:, folded])
        assert np.array_equal(np.concatenate(blocks), want)

    @pytest.mark.parametrize("sigma", [0.0, 5e-324, 1e-300, 0.05, mc._MAX_SIGMA])
    @pytest.mark.parametrize("base", list(gates.CLASSES))
    def test_batch_has_the_bits_of_the_row_by_row_updates(self, base, sigma):
        """Every float, signed zeros included: sigma = 0 and the underflows of
        5e-324 make products of -0, which gamma0's +0 turns into +0; so do
        draws of +-0 and subnormal draws, set in the first rows here."""
        gamma0, draws = _base_and_draws(base, mc._CHUNK_ROWS, 11)
        draws[0] = 0.0
        draws[1] = -0.0
        draws[2, ::2], draws[2, 1::2] = 5e-324, -1e-310
        got = _perturbed(gamma0, sigma, draws)
        want = oracles.row_by_row_perturbed_batch(gamma0, sigma, draws)
        assert got.shape == want.shape and got.transpose(1, 2, 0).flags.c_contiguous
        assert np.array_equal(
            np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
        )

    def test_draw_columns_cover_the_draws_once(self):
        """Diagonal first, then each pair's real part above the diagonal and its
        imaginary part at the transposed entry."""
        table = mc._DRAW_COLUMN
        assert np.array_equal(np.sort(table, axis=None), np.arange(36))
        assert np.array_equal(np.diag(table), np.arange(6))
        upper = np.triu_indices(6, k=1)
        assert np.array_equal(table[upper] + 15, table.T[upper])

    def test_epr_corner_entry_never_negative(self):
        spec = PerturbationSpec("epr", sigma=0.3, n_samples=500, seed=3)
        draws = np.array([sample_perturbed_rdm(spec, k)[5, 5].real for k in range(500)])
        assert np.all(draws >= 0.0)

    def test_sample_mean_concentrates_on_base(self):
        sigma, n = 0.05, 100_000
        draws = oracles.standard_draws(n, 4)
        batch = _perturbed(theoretical_rdm("ghz"), sigma, draws)
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
        with pytest.raises(InvalidDimensionError, match="seed must be non-negative"):
            PerturbationSpec("w", 0.05, 10, -1)
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

    @pytest.mark.parametrize(
        "call, message",
        [
            pytest.param(
                lambda: max_tolerated_sigma("w", "f_epr", 0.999, 3000, seed=1.5),
                "seed must be an integer",
                id="threshold-seed",
            ),
            pytest.param(
                lambda: violation_probability("w", "f_epr", 0.05, n_samples=1.5),
                "n_samples must be an integer",
                id="prob-n",
            ),
            pytest.param(
                lambda: max_tolerated_sigma("w", "f_epr", n_samples=100.0),
                "n_samples must be an integer",
                id="threshold-n",
            ),
            pytest.param(
                lambda: merit_samples("w", "f_epr", 0.05, True, 0),
                "n_samples must be an integer",
                id="samples-bool",
            ),
            pytest.param(
                lambda: PerturbationSpec("w", 0.05, 10.0, 0),
                "n_samples must be an integer",
                id="spec-n",
            ),
            pytest.param(
                lambda: PerturbationSpec("w", 0.05, 10, 1.5), "seed must be an integer", id="spec-seed"
            ),
            pytest.param(
                lambda: merit_histogram("w", "f_epr", 0.05, 100, 0, bins=2.5),
                "bins must be an integer",
                id="hist-bins",
            ),
            pytest.param(
                lambda: sample_perturbed_rdm(PerturbationSpec("w", 0.05, 10, 0), 0.5),
                "sample_index must be an integer",
                id="sample-index",
            ),
            pytest.param(
                lambda: PerturbationSpec("w", 0.05, 0, 0), "n_samples must be >= 1", id="spec-n-zero"
            ),
            pytest.param(
                lambda: violation_probability("w", "f_epr", 0.05, n_samples=-1),
                "n_samples must be >= 1",
                id="prob-n-negative",
            ),
            pytest.param(
                lambda: max_tolerated_sigma("w", "f_epr", n_samples=0),
                "n_samples must be >= 1",
                id="threshold-n-zero",
            ),
            pytest.param(
                lambda: merit_histogram("w", "f_epr", 0.05, 100, 0, bins=-1),
                "bins must be >= 1",
                id="hist-bins-negative",
            ),
        ],
    )
    def test_non_integer_counts_and_seeds_rejected(self, call, message):
        """Philox would truncate seed 1.5 to 1; numpy raises TypeError on the other non-integers."""
        with pytest.raises(InvalidDimensionError, match=message):
            call()

    @pytest.mark.parametrize(
        "value", [True, False, np.True_, "0.05", None, 1j, np.complex128(0.05)], ids=repr
    )
    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(lambda v: PerturbationSpec("w", v, 10, 0), "sigma", id="spec"),
            pytest.param(lambda v: merit_samples("w", "f_epr", v, 10, 0), "sigma", id="samples"),
            pytest.param(
                lambda v: violation_probability("w", "f_epr", v, 100, 0), "sigma", id="prob"
            ),
            pytest.param(lambda v: merit_histogram("w", "f_epr", v, 100, 0), "sigma", id="hist"),
            pytest.param(
                lambda v: max_tolerated_sigma("w", "f_epr", v, 100, 0),
                "confidence",
                id="threshold",
            ),
        ],
    )
    def test_sigma_and_confidence_must_be_real_numbers(self, call, name, value, drawn_rows):
        """True would be taken as 1.0 (a probability of 0.0 at sigma = 1), and
        strings, None and complex values raised a bare TypeError."""
        with pytest.raises(InvalidDimensionError, match=f"{name} must be a real number, got "):
            call(value)
        assert drawn_rows == []

    def test_numpy_reals_and_integers_accepted_as_sigma_and_confidence(self):
        want = violation_probability("w", "f_epr", 0.05, 500, 0)
        assert violation_probability("w", "f_epr", np.float64(0.05), 500, 0) == want
        assert violation_probability("epr", "f_slater", 0, 500, 0) == 1.0
        assert violation_probability("epr", "f_slater", np.int8(0), 500, 0) == 1.0
        want = max_tolerated_sigma("w", "f_epr", 0.99, 500, 0)
        assert max_tolerated_sigma("w", "f_epr", np.float64(0.99), 500, 0) == want

    def test_numpy_integers_accepted(self):
        spec = PerturbationSpec("w", 0.05, np.int64(10), np.int32(3))
        assert np.array_equal(
            sample_perturbed_rdm(spec, np.uint8(9)),
            sample_perturbed_rdm(PerturbationSpec("w", 0.05, 10, 3), 9),
        )
        got = max_tolerated_sigma("w", "f_epr", n_samples=np.int64(3000), seed=np.int64(1))
        assert got == max_tolerated_sigma("w", "f_epr", n_samples=3000, seed=1)

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda n: PerturbationSpec("w", 0.05, n, 0), id="spec"),
            pytest.param(lambda n: merit_samples("w", "f_epr", 0.05, n, 0), id="samples"),
            pytest.param(lambda n: merit_histogram("w", "f_epr", 0.05, n, 0), id="hist"),
            pytest.param(lambda n: violation_probability("w", "f_epr", 0.05, n, 0), id="prob"),
            pytest.param(lambda n: max_tolerated_sigma("w", "f_epr", n_samples=n), id="threshold"),
            pytest.param(lambda n: max_tolerated_sigma("slater", "f_w", n_samples=n), id="slater"),
        ],
    )
    def test_sample_count_above_the_bound_is_refused_before_any_draw(self, call, drawn_rows):
        for n in (mc._MAX_SAMPLES + 1, 10**12):
            with pytest.raises(InvalidDimensionError, match="n_samples must be <= 10,000,000"):
                call(n)
        assert drawn_rows == []
        assert PerturbationSpec("w", 0.05, mc._MAX_SAMPLES, 0).n_samples == 10**7

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(
                lambda s: sample_perturbed_rdm(PerturbationSpec("w", 0.05, 3, s), 2), id="spec"
            ),
            pytest.param(lambda s: merit_samples("w", "f_epr", 0.05, 3, s), id="samples"),
            pytest.param(lambda s: merit_histogram("w", "f_epr", 0.05, 3, s), id="hist"),
            pytest.param(lambda s: violation_probability("w", "f_epr", 0.05, 3, s), id="prob"),
            pytest.param(lambda s: max_tolerated_sigma("w", "f_epr", 0.9, 3, s), id="threshold"),
        ],
    )
    def test_seed_beyond_the_philox_key_is_refused_before_any_draw(self, call, drawn_rows):
        """Philox keys have 128 bits; numpy's own refusal would be an untyped ValueError."""
        for seed in (2**128, 2**200):
            with pytest.raises(InvalidDimensionError, match=r"seed must be < 2\*\*128"):
                call(seed)
        assert drawn_rows == []
        call(2**128 - 1)
        assert drawn_rows == [3]

    def test_sigma_is_bounded_so_every_entry_stays_finite(self):
        above = np.nextafter(mc._MAX_SIGMA, np.inf)
        for sigma in (above, 1e308):
            with pytest.raises(InvalidDimensionError, match="sigma"):
                PerturbationSpec("epr", sigma, 10, 0)
            with pytest.raises(InvalidDimensionError, match="sigma"):
                merit_samples("epr", "f_slater", sigma, 10, 0)
            with pytest.raises(InvalidDimensionError, match="sigma"):
                violation_probability("epr", "f_slater", sigma, 10, 0)
        # At the bound, RuntimeWarnings (errors in this suite) would show overflow.
        for base, merit in CANONICAL:
            assert np.all(np.isfinite(merit_samples(base, merit, mc._MAX_SIGMA, 200, 0)))
            violation_probability(base, merit, mc._MAX_SIGMA, 200, 0)
        sample = sample_perturbed_rdm(PerturbationSpec("epr", mc._MAX_SIGMA, 1, 0))
        assert np.all(np.isfinite(sample))

    def test_chunked_merits_match_one_shot_batch(self):
        n, k = 2 * mc._CHUNK_ROWS + 123, 1_000
        draws = oracles.standard_draws(n, 9)
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

    @pytest.mark.parametrize(
        "base, merit, sigma", [("bell", "f_w", 0.05), ("ghz", "f_x", 0.05), ("ghz", "f_epr", -1.0)]
    )
    def test_rejected_input_does_not_warn(self, base, merit, sigma):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidDimensionError):
                violation_probability(base, merit, sigma, 100, seed=0)
        assert caught == []

    def test_unpaired_merit_warns_once_in_merit_samples_and_never_in_the_search(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            merit_samples("ghz", "f_slater", 0.05, 10, 0)
        assert [str(w.message) for w in caught] == [
            "'ghz' is conventionally paired with 'f_w', not 'f_slater'"
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            max_tolerated_sigma("ghz", "f_slater", n_samples=100, seed=0)
        assert caught == []

    def test_zero_pivot_goes_to_eigvalsh(self):
        """At sigma = 0, I - gamma0 on epr has an exact zero pivot, which decides nothing.

        The LDL^H alone would count no negative pivot and call every sample
        an F_EPR violation; lambda1 = 1 is none.
        """
        gamma0, draws = _base_and_draws("epr", 1000, 0)
        _, decided = mc._ldl_inertia(np.diag(gamma0).real, 0.0, draws)
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
        merits = polytope._MERITS[merit](oracles.eigenvalue_table(base, sigma, n, seed))
        assert violation_probability(base, merit, sigma, n, seed) == float(np.mean(merits < 0.0))


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
    @pytest.mark.parametrize("base, merit", CANONICAL + (("w", "f_slater"),))
    def test_matches_exhaustive_bisection(self, base, merit, seed, n_samples):
        """Against the critical-sigma oracle for the canonical pairs, the
        exhaustive bisection for w/F_Slater."""
        got = max_tolerated_sigma(base, merit, n_samples=n_samples, seed=seed)
        assert got == _oracle(base, merit, n_samples, seed)

    @pytest.mark.parametrize("base, merit", CANONICAL)
    def test_full_size_search_is_the_last_passing_step(self, base, merit):
        """At (seed 0, 1e5), where 13 full batches per oracle run cost too much.

        With p non-increasing on the grid, the exhaustive bisection returns
        the one step that passes while the next fails.  Each sample violates
        at sigma > 0 iff sigma is below its critical sigma_k, so both steps
        are checked on all samples from one eigen-solve each.
        """
        n, confidence = 100_000, 0.999
        got = max_tolerated_sigma(base, merit, confidence, n_samples=n, seed=0)
        critical = oracles.critical_sigmas(base, merit, oracles.standard_draws(n, 0))

        def passes(sigma):
            return np.mean(critical > sigma) >= confidence

        assert 0.0 < got < 0.5
        assert passes(got)
        assert not passes(got + mc._STEP)

    @pytest.mark.parametrize("base, merit", [*CANONICAL, ("w", "f_slater"), ("epr", "f_epr")])
    def test_critical_sigmas_give_each_sample_its_status(self, base, merit):
        """The oracle's sigma_k: each sample violates at sigma > 0 iff sigma < sigma_k,
        at sigma* and the steps around it, and at scales from 1e-6 to 0.5."""
        n, seed = 3_000, 5
        draws = oracles.standard_draws(n, seed)
        critical = oracles.critical_sigmas(base, merit, draws)
        star = oracles.critical_max_tolerated_sigma(base, merit, 0.99, n, seed)
        for sigma in (1e-6, 0.01, 0.05, 0.1, 0.5, star - mc._STEP, star, star + mc._STEP):
            if sigma > 0.0:
                want = oracles.full_batch_merits(base, merit, sigma, draws) < 0.0
                assert np.array_equal(critical > sigma, want)

    @pytest.mark.parametrize("m_hat", [0, mc._TOP - 1])
    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("base, merit", CANONICAL)
    def test_bad_pilot_still_gives_exhaustive_answer(self, base, merit, seed, m_hat, monkeypatch):
        n = 5_000
        searches, passes = [], _streamed_sigmas(monkeypatch)
        search = mc._largest_passing_step

        def forced_pilot(status, needed, lo, hi, v_lo, v_hi):
            searches.append((needed, lo, hi))
            if len(searches) == 1:
                return m_hat
            return search(status, needed, lo, hi, v_lo, v_hi)

        monkeypatch.setattr(mc, "_largest_passing_step", forced_pilot)
        got = max_tolerated_sigma(base, merit, n_samples=n, seed=seed)
        # The pilot's count is for its 2048 samples, the walk's for all n.
        assert searches[0][0] == mc._violators_needed(mc._CHUNK_ROWS, 0.999) == 2046
        # m_hat = 0 leaves sigma* above the first full evaluation, at hi = 8,
        # so all samples are evaluated again at 0.5 and the walk runs between;
        # m_hat = 4095 puts that evaluation at 0.5 (a walk down from the top).
        walk = (8, mc._TOP) if m_hat == 0 else (0, mc._TOP)
        assert searches[1:] == [(mc._violators_needed(n, 0.999), *walk)]
        assert passes == ([8 * mc._STEP, 0.5] if m_hat == 0 else [0.5])
        assert got == _oracle(base, merit, n, seed)

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("base, merit", CANONICAL)
    def test_one_pass_over_all_samples_when_the_pilot_holds(self, base, merit, seed, monkeypatch):
        """The pilot's answer m' on its 2048 samples puts sigma* below hi."""
        n = 5_000
        passes = _streamed_sigmas(monkeypatch)
        got = max_tolerated_sigma(base, merit, n_samples=n, seed=seed)
        m_hat = round(_oracle(base, merit, mc._CHUNK_ROWS, seed) / mc._STEP)
        assert passes == [min(mc._TOP, m_hat + max(mc._MARGIN_STEPS, m_hat // 4)) * mc._STEP]
        assert got == _oracle(base, merit, n, seed)

    def test_rows_evaluated_per_search(self, monkeypatch):
        """Rows are counted where they are certified: the pass at hi certifies
        each block as it is drawn, every other step through _violations."""
        n = 100_000
        given_rows, eigvalsh_rows = [], []
        certificate, merit_values = mc._certificate, mc._merit_values

        def counting(gamma0, merit, sigma, draws):
            given_rows.append(len(draws))
            return certificate(gamma0, merit, sigma, draws)

        def counting_eigvalsh(gamma0, merit_fn, sigma, draws, rows, workspace):
            eigvalsh_rows.append(len(rows))
            return merit_values(gamma0, merit_fn, sigma, draws, rows, workspace)

        monkeypatch.setattr(mc, "_certificate", counting)
        monkeypatch.setattr(mc, "_merit_values", counting_eigvalsh)
        for base, merit in CANONICAL:
            given_rows.clear()
            eigvalsh_rows.clear()
            max_tolerated_sigma(base, merit, n_samples=n, seed=42)
            if merit in mc._INERTIA_FORMS:
                # 1.15 n (epr) and 1.20 n (w) at this seed; the full bisection
                # took 3.19-5.28 n.
                assert n < sum(given_rows) <= 1.6 * n
                # 0 rows (epr and w) at this seed: the early stop settles every
                # step, the pilot's at sigma = 0.5 too, before its undecided rows.
                assert sum(eigvalsh_rows) <= 0.001 * n
            else:
                # 0.046 n through eigvalsh and 2.21 n certified at this seed:
                # rows left unresolved at a step are certified again later, and
                # each step resolves only as many rows as could settle it.
                assert sum(eigvalsh_rows) <= 0.06 * n
                assert sum(given_rows) <= 2.5 * n

    @pytest.mark.parametrize("seed", [0, 42])
    @pytest.mark.parametrize("base, merit", [("w", "f_epr"), ("epr", "f_slater")])
    def test_pilot_top_step_stops_before_eigvalsh(self, base, merit, seed, monkeypatch):
        """The pilot's step at sigma = 0.5 fails without resolving its undecided rows."""
        n = 5_000
        routed = []
        merit_values = mc._merit_values

        def spy_eigvalsh(gamma0, merit_fn, sigma, draws, rows, workspace):
            routed.append((sigma, len(rows)))
            return merit_values(gamma0, merit_fn, sigma, draws, rows, workspace)

        monkeypatch.setattr(mc, "_merit_values", spy_eigvalsh)
        got = max_tolerated_sigma(base, merit, n_samples=n, seed=seed)
        assert [rows for sigma, rows in routed if sigma == 0.5] == []
        assert got == _oracle(base, merit, n, seed)

    @pytest.mark.parametrize("base, merit", ALL_PAIRS)
    def test_refuses_only_slater_with_f_w_and_before_any_draw(self, base, merit, drawn_rows):
        """merit(lambda(gamma0)) > 0 only for slater/F_W (+1); w/F_W, epr/F_W and
        epr/F_EPR sit at exactly 0 and are searched.  The arguments are checked
        before the refusal, each with its own error."""
        lam0 = np.array(gates.CLASSES[base].occupations)
        if (base, merit) in (("w", "f_w"), ("epr", "f_w"), ("epr", "f_epr")):
            assert polytope._MERITS[merit](lam0) == 0.0
        if (base, merit) in MONOTONE_PAIRS:
            assert 0.0 <= max_tolerated_sigma(base, merit, n_samples=100, seed=0) <= 0.5
            assert drawn_rows == [100]
            return
        assert (base, merit) == ("slater", "f_w")
        with pytest.raises(UnsupportedCaseError, match=r"'slater' with 'f_w'"):
            max_tolerated_sigma(base, merit, n_samples=100, seed=0)
        for kwargs in ({"confidence": 0.3}, {"seed": 2**128}, {"seed": -1}, {"n_samples": 0}):
            with pytest.raises(InvalidDimensionError):
                max_tolerated_sigma(base, merit, **kwargs)
        assert drawn_rows == []

    @pytest.mark.filterwarnings("ignore::UserWarning")
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

        def spy_ldl(g, sigma, draws):
            factored.append(ldl_inertia(g, sigma, draws))
            return factored[-1]

        def spy_eigvalsh(gamma0, merit_fn, sigma, draws, rows, workspace):
            routed.append(rows)
            return merit_values(gamma0, merit_fn, sigma, draws, rows, workspace)

        gamma0, draws = _base_and_draws(base, n, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_ldl_inertia", spy_ldl)
            patch.setattr(mc, "_merit_values", spy_eigvalsh)
            got = mc._violations(gamma0, merit, sigma, draws, np.arange(n))

        draws = oracles.standard_draws(n, seed)
        want = oracles.full_batch_merits(base, merit, sigma, draws) < 0.0
        negatives = np.concatenate([neg for neg, _ in factored])
        decided = np.concatenate([dec for _, dec in factored])
        status = negatives <= mc._INERTIA_FORMS[merit]
        assert np.array_equal(status[decided], want[decided])
        routed = np.concatenate([np.empty(0, np.intp), *routed])
        assert np.array_equal(routed, np.flatnonzero(~decided))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("base, merit", INERTIA_PAIRS)
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fixed=st.sampled_from([None, 0.0, 1e-12, 0.5]),
        steps=st.integers(-4, 4),
    )
    def test_negative_pivots_match_the_dense_oracle(self, base, merit, seed, fixed, steps):
        """At sigma* +- a few grid steps, or at a fixed sigma, each decided row has as
        many negative pivots as gamma has eigenvalues above 1.

        sigma = 1e-12 leaves epr's pivot at its empty site near zero.
        """
        sigma = fixed
        if sigma is None:
            sigma = max(0.0, _sigma_star(base, merit, 2_048, 0) + steps * mc._STEP)
        _, draws = _base_and_draws(base, 2_000, seed)
        assert _inertia_disagreements(base, sigma, draws, draws) == 0

    @pytest.mark.parametrize("base", ["epr", "w"])
    def test_unflipped_imaginary_sign_is_caught(self, base):
        """A mutant: swapped pairs keep the imaginary sign of their unpermuted entry."""
        g = np.diag(theoretical_rdm(base)).real
        position = np.argsort(np.argsort(g, kind="stable"))
        rows, cols = np.triu_indices(6, k=1)
        swapped = 21 + np.flatnonzero(position[rows] > position[cols])
        assert len(swapped) > 0
        _, draws = _base_and_draws(base, 2_000, 0)
        mutant = draws.copy()
        mutant[:, swapped] *= -1.0
        for sigma in (_sigma_star(base, mc.CANONICAL_PAIRING[base], 2_048, 0), 0.5):
            assert _inertia_disagreements(base, sigma, draws, draws) == 0
            assert _inertia_disagreements(base, sigma, draws, mutant) > 0


def _inertia_disagreements(base, sigma, draws, kernel_draws) -> int:
    """Rows decided by ``_ldl_inertia`` on kernel_draws whose negative pivots differ
    from the count of eigenvalues above 1 of the dense oracle on draws."""
    g = np.diag(theoretical_rdm(base)).real
    negatives, decided = mc._ldl_inertia(g, sigma, kernel_draws)
    lam = oracles.full_batch_eigenvalues(base, sigma, draws)
    return int(np.count_nonzero(decided & (negatives != np.count_nonzero(lam > 1.0, axis=1))))


F_W_PAIRS = [(base, "f_w") for base in polytope.CLASS_LABELS]


def _hermitian_draws(h: np.ndarray) -> np.ndarray:
    """The draws whose perturbation of the zero matrix at sigma = 1 is h, (n, 6, 6)."""
    rows, cols = np.triu_indices(6, k=1)
    upper = h[:, rows, cols]
    return np.concatenate(
        [np.diagonal(h, axis1=1, axis2=2).real, upper.real, upper.imag], axis=1
    )


def _with_spectrum(rng, lam):
    """(len(lam), 6, 6) Hermitian matrices U diag(lam_r) U^H with random unitaries."""
    lam = np.asarray(lam, dtype=float)
    z = rng.standard_normal((len(lam), 6, 6)) + 1j * rng.standard_normal((len(lam), 6, 6))
    u = np.linalg.qr(z)[0]
    h = (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)
    return (h + h.conj().transpose(0, 2, 1)) / 2


class TestTopThreeBounds:
    """lambda1+lambda2+lambda3 from the trace and the traceless norm (F_W's certificate)."""

    @staticmethod
    def _bounds_and_sum(h):
        draws = _hermitian_draws(h)
        assert np.array_equal(_perturbed(np.zeros((6, 6)), 1.0, draws), h)
        lower, upper, margin = mc._top_three_bounds(np.zeros(6), 1.0, draws)
        top = np.linalg.eigvalsh(h)[:, ::-1][:, :3].sum(axis=1)
        return lower, upper, margin, top

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["gaussian", "near_identity", "rank_deficient"]),
        scale=st.sampled_from([1e-12, 1e-6, 1.0, 1e3]),
    )
    def test_bounds_hold_on_hermitian_matrices(self, seed, kind, scale):
        rng = np.random.default_rng(seed)
        n = 500
        z = rng.standard_normal((n, 6, 6)) + 1j * rng.standard_normal((n, 6, 6))
        h = scale * (z + z.conj().transpose(0, 2, 1)) / 2
        if kind == "near_identity":
            h = h * 1e-9 + rng.uniform(-2, 2, (n, 1, 1)) * np.eye(6)
        elif kind == "rank_deficient":
            lam = scale * rng.standard_normal((n, 6))
            lam[rng.random((n, 6)) < 0.5] = 0.0
            h = _with_spectrum(rng, lam)
        lower, upper, margin, top = self._bounds_and_sum(h)
        assert np.all(lower - margin <= top)
        assert np.all(top <= upper + margin)

    @pytest.mark.parametrize(
        "spectrum, bound",
        [((1, 1, 1, -1, -1, -1), "upper"), ((1, 1, 1, 1, 1, -5), "lower")],
    )
    def test_tight_spectra_reach_their_bound(self, spectrum, bound):
        rng = np.random.default_rng(4)
        scale = rng.uniform(0.1, 2.0, 200)
        shift = rng.uniform(-1.0, 1.0, 200)
        h = _with_spectrum(rng, scale[:, None] * np.array(spectrum) + shift[:, None])
        lower, upper, _, top = self._bounds_and_sum(h)
        assert np.max(np.abs({"lower": lower, "upper": upper}[bound] - top)) <= 1e-12

    @pytest.mark.parametrize("base", polytope.CLASS_LABELS)
    def test_traceless_norm_has_no_cancellation(self, base):
        """Near gamma0 = 1/2 I (ghz) S is sigma^2 times the draws' own norm, to a few ulps.

        S = ||gamma||_F^2 - t^2 / 6 would carry an absolute error near u, so
        sqrt(S) one near sqrt(u), far above the certificate's margin.
        """
        sigma = 1e-10
        gamma0, draws = _base_and_draws(base, 300, 5)
        g = np.diag(gamma0).real
        lower, upper, _ = mc._top_three_bounds(g, sigma, draws)
        diag = g + sigma * draws[:, :6]
        centred = diag - diag.mean(axis=1, keepdims=True)
        s = np.sum(centred**2, axis=1) + 2 * sigma**2 * np.sum(draws[:, 6:] ** 2, axis=1)
        t = diag.sum(axis=1)
        assert np.allclose(upper - t / 2, np.sqrt(1.5 * s), rtol=1e-6, atol=1e-17)
        assert np.allclose(lower - t / 2, np.sqrt(0.3 * s), rtol=1e-6, atol=1e-17)

    @settings(max_examples=40, deadline=None)
    @given(
        pair=st.sampled_from(F_W_PAIRS),
        seed=st.integers(0, 2**32 - 1),
        steps=st.integers(-4, 4),
        pilot=st.sampled_from([None, 0.25, 0.5]),
    )
    def test_decided_rows_match_eigvalsh_and_the_rest_go_to_it(self, pair, seed, steps, pilot):
        """Near sigma* +- a few grid steps, and at the pilot's scale."""
        base, merit = pair
        n = mc._CHUNK_ROWS + 952
        sigma = pilot or max(0.0, _sigma_star(base, merit, 2_048, 0) + steps * mc._STEP)
        certified, routed = [], []
        certificate, merit_values = mc._certificate, mc._merit_values

        def spy_certificate(gamma0, merit, sigma, draws):
            certified.append(certificate(gamma0, merit, sigma, draws))
            return certified[-1]

        def spy_eigvalsh(gamma0, merit_fn, sigma, draws, rows, workspace):
            routed.append(rows)
            return merit_values(gamma0, merit_fn, sigma, draws, rows, workspace)

        gamma0, draws = _base_and_draws(base, n, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_certificate", spy_certificate)
            patch.setattr(mc, "_merit_values", spy_eigvalsh)
            got = mc._violations(gamma0, merit, sigma, draws, np.arange(n))

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            draws = oracles.standard_draws(n, seed)
            want = oracles.full_batch_merits(base, merit, sigma, draws) < 0
        status = np.concatenate([violates for violates, _ in certified])
        decided = np.concatenate([dec for _, dec in certified])
        assert np.array_equal(status[decided], want[decided])
        routed = np.concatenate([np.empty(0, np.intp), *routed])
        assert np.array_equal(routed, np.flatnonzero(~decided))
        assert np.array_equal(got, want)


class TestEarlyStop:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 10**6),
        confidence=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_violators_needed_is_the_mean_test(self, n, confidence):
        k = mc._violators_needed(n, confidence)
        assert np.mean(np.arange(n) < k) >= confidence
        assert k == 0 or not np.mean(np.arange(n) < k - 1) >= confidence

    @settings(max_examples=300, deadline=None)
    @given(
        attained=st.integers(3, 10**6).flatmap(
            lambda n: st.tuples(st.integers(n // 2 + 1, n - 1), st.just(n))
        )
    )
    @example(attained=(64_443, 86_376))  # ceil(c n) = k + 1 at c = k / n
    def test_attained_fraction_needs_exactly_its_violators(self, attained):
        k, n = attained
        assert mc._violators_needed(n, k / n) == k

    @pytest.mark.parametrize("base, merit", CANONICAL)
    def test_confidence_at_an_attained_fraction(self, base, merit):
        """The step at sigma* passes with k / n == confidence exactly, and the next
        fails.  Both confidences cross-check the critical-sigma oracle against the
        exhaustive bisection."""
        n, seed = 5_000, 3
        sigma = _exhaustive(base, merit, n, seed)
        assert sigma == _oracle(base, merit, n, seed)
        merits = polytope._MERITS[merit](oracles.eigenvalue_table(base, sigma, n, seed))
        k = int(np.count_nonzero(merits < 0))
        assert k < n
        confidence = k / n
        got = max_tolerated_sigma(base, merit, confidence, n_samples=n, seed=seed)
        ref = oracles.exhaustive_max_tolerated_sigma(base, merit, confidence, n, seed)
        assert got == ref == sigma
        assert oracles.critical_max_tolerated_sigma(base, merit, confidence, n, seed) == ref

    @pytest.mark.parametrize("seed", [0, 42])
    def test_failing_step_leaves_rows_unresolved(self, seed, monkeypatch):
        """With 256-row chunks, a step that fails stops resolving before the last chunk."""
        n = 5_000
        steps = []
        violations, certificate, merit_values = mc._violations, mc._certificate, mc._merit_values
        counts = {"undecided": 0, "resolved": 0}

        def spy_certificate(gamma0, merit, sigma, draws):
            violates, decided = certificate(gamma0, merit, sigma, draws)
            counts["undecided"] += np.count_nonzero(~decided)
            return violates, decided

        def spy_eigvalsh(gamma0, merit_fn, sigma, draws, rows, workspace):
            counts["resolved"] += len(rows)
            return merit_values(gamma0, merit_fn, sigma, draws, rows, workspace)

        def spy_violations(gamma0, merit, sigma, draws, rows, needed=None):
            counts.update(undecided=0, resolved=0)
            out = violations(gamma0, merit, sigma, draws, rows, needed)
            steps.append((needed, np.count_nonzero(out), counts["undecided"], counts["resolved"]))
            return out

        monkeypatch.setattr(mc, "_CHUNK_ROWS", 256)
        monkeypatch.setattr(mc, "_certificate", spy_certificate)
        monkeypatch.setattr(mc, "_merit_values", spy_eigvalsh)
        monkeypatch.setattr(mc, "_violations", spy_violations)
        got = max_tolerated_sigma("ghz", "f_w", n_samples=n, seed=seed)
        cut = [
            s for s in steps if s[0] is not None and s[1] < s[0] and s[3] < s[2]
        ]
        assert cut, steps
        assert got == _oracle("ghz", "f_w", n, seed)


    @pytest.mark.parametrize("short", ["one violator", "every undecided row"])
    def test_pieces_hold_the_fewest_rows_that_could_settle_the_step(self, short, monkeypatch):
        """A step that one violator, or one non-violator, settles resolves _MIN_PIECE rows
        at a time, not whole chunks."""
        n, seed = 20_000, 0
        sigma = _sigma_star("ghz", "f_w", n, seed)
        gamma0, draws = _base_and_draws("ghz", n, seed)
        violates, decided = mc._certificate(gamma0, "f_w", sigma, draws)
        assert np.count_nonzero(~decided) > 2 * mc._MIN_PIECE
        needed = np.count_nonzero(violates) + 1
        if short == "every undecided row":
            needed += np.count_nonzero(~decided) - 1
        pieces = []
        merit_values = mc._merit_values

        def spy_eigvalsh(gamma0, merit_fn, sigma, draws, rows, workspace):
            pieces.append(len(rows))
            return merit_values(gamma0, merit_fn, sigma, draws, rows, workspace)

        monkeypatch.setattr(mc, "_merit_values", spy_eigvalsh)
        got = mc._violations(gamma0, "f_w", sigma, draws, np.arange(n), needed)
        assert pieces and max(pieces) == mc._MIN_PIECE
        draws = oracles.standard_draws(n, seed)
        want = oracles.full_batch_merits("ghz", "f_w", sigma, draws) < 0
        assert (np.count_nonzero(got) >= needed) == (np.count_nonzero(want) >= needed)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Traced peaks at n = 1e5, where all (n, 36) draws take 28.8 MB: only the
    merit values, or the rows a search can revisit, grow with n."""

    N = 100_000

    def test_merit_samples_hold_their_values_and_one_block(self):
        merit_samples("ghz", "f_w", 0.05, 3_000, 0)  # warm caches outside the trace
        peak = _traced_peak(lambda: merit_samples("ghz", "f_w", 0.05, self.N, 0))
        assert peak <= 4 * 10**6 + 16 * self.N

    def test_merit_distribution_holds_two_bounds_and_one_block(self):
        """5.2 MB: 1.6 MB of bounds and one block's draws, workspace and
        temporaries.  At sigma = 0 (5.9 MB) every row is in doubt, and the
        rows set aside for eigvalsh fill a chunk in every block."""
        for sigma in (0.05, 0.0):
            mc.merit_distribution("ghz", "f_w", sigma, 3_000, 0)
            peak = _traced_peak(lambda: mc.merit_distribution("ghz", "f_w", sigma, self.N, 0))
            assert peak <= 4 * 10**6 + 24 * self.N, sigma

    # 5.3 MB (w), 4.5 MB (epr) and 10.4 MB (ghz, whose F_W bounds leave a
    # quarter of the rows unproved at hi); all samples' draws held: 31-32 MB,
    # and ghz's kept draws concatenated from per-block pieces: 18.3 MB.
    @pytest.mark.parametrize(
        "base, merit, bound",
        [("w", "f_epr", 12 * 10**6), ("epr", "f_slater", 12 * 10**6), ("ghz", "f_w", 16 * 10**6)],
    )
    def test_search_holds_only_the_rows_it_can_revisit(self, base, merit, bound):
        max_tolerated_sigma(base, merit, n_samples=3_000, seed=0)
        peak = _traced_peak(lambda: max_tolerated_sigma(base, merit, n_samples=self.N, seed=0))
        assert peak <= bound

    def test_kept_draws_read_as_the_stacked_rows(self):
        rng = np.random.default_rng(3)
        pieces = [rng.standard_normal((size, 36)) for size in (0, 700, 2048, 1, 3000, 5)]
        kept = mc._KeptDraws()
        for piece in pieces:
            kept.append(piece)
        stacked = np.concatenate(pieces)
        assert kept.rows == len(stacked)
        assert [page.shape for page in kept.pages] == [(mc._CHUNK_ROWS, 36)] * 3
        for size in (0, 1, 64, mc._CHUNK_ROWS, len(stacked)):
            rows = np.sort(rng.choice(len(stacked), size, replace=False))
            assert np.array_equal(kept[rows], stacked[rows])


class TestHistogram:
    def test_mass_above_zero_matches_confidence_at_threshold(self):
        sigma_star = max_tolerated_sigma("epr", "f_slater", n_samples=50_000, seed=12)
        values = merit_samples("epr", "f_slater", sigma_star, 50_000, seed=12)
        mass_above = float(np.mean(values >= 0))
        assert 0.0 <= mass_above <= 1.5e-3

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bins_below_one_rejected(self, bins):
        """numpy raises a bare ValueError for bins=0."""
        with pytest.raises(InvalidDimensionError, match="bins must be >= 1"):
            merit_histogram("ghz", "f_w", 0.05, 100, seed=1, bins=bins)

    def test_histogram_totals(self):
        centers, counts = merit_histogram("ghz", "f_w", 0.05, 5_000, seed=1, bins=50)
        assert counts.sum() == 5_000
        assert len(centers) == 50


def _distribution_oracle(base, merit, sigma, n, seed, bins=mc._BINS, rows=None):
    """np.mean(v < 0) and the histogram of every merit from eigvalsh: v from the
    first n rows of the eigenvalue table of ``rows`` (default n) samples."""
    values = polytope._MERITS[merit](oracles.eigenvalue_table(base, sigma, rows or n, seed)[:n])
    return (float(np.mean(values < 0.0)), *mc._histogram(values, bins))


def _same_distribution(got, want) -> bool:
    return got[0] == want[0] and all(np.array_equal(g, w) for g, w in zip(got[1:], want[1:]))


class TestMeritDistribution:
    """merit_distribution encloses each merit and diagonalises only the rows an
    enclosure leaves in doubt; its numbers must be those of every merit."""

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("base, merit", ALL_PAIRS)
    def test_equals_the_histogram_of_every_merit(self, base, merit):
        for sigma in (0.0, 1e-6, 0.05, 0.3, mc._MAX_SIGMA):
            for n in (1, 2047, 2048, 2049, 20_000):
                try:
                    want = _distribution_oracle(base, merit, sigma, n, 7, rows=20_000)
                except ValueError:
                    # One sample of size 1e151: v - 0.5 == v + 0.5, no bins.
                    assert n == 1 and sigma == mc._MAX_SIGMA
                    with pytest.raises(InvalidDimensionError, match="with n_samples=1 "):
                        mc.merit_distribution(base, merit, sigma, n, 7)
                    continue
                got = mc.merit_distribution(base, merit, sigma, n, 7)
                assert _same_distribution(got, want), (sigma, n)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("base, merit", [*CANONICAL, ("slater", "f_w")])
    @pytest.mark.parametrize("bins", [1, 7, 200])
    def test_wide_enclosures_redraw_blocks_and_change_nothing(self, base, merit, bins, monkeypatch):
        """Six bisections leave enclosures wider than many bins: the rows over an
        edge are evaluated from their blocks, drawn again from the saved state."""
        drawn, draw_block = [], mc._draw_block
        monkeypatch.setattr(mc, "_BISECTIONS", 6)
        monkeypatch.setattr(
            mc, "_draw_block", lambda *args: drawn.append(args[2]) or draw_block(*args)
        )
        n = 3 * mc._CHUNK_ROWS + 100
        got = mc.merit_distribution(base, merit, 0.05, n, 3, bins)
        # The stream's four blocks, then those drawn again; one bin has no edge inside.
        assert drawn[:4] == [mc._CHUNK_ROWS] * 3 + [100]
        assert len(drawn) > 4 if bins > 1 else len(drawn) == 4
        assert _same_distribution(got, _distribution_oracle(base, merit, 0.05, n, 3, bins))
        centers, counts = merit_histogram(base, merit, 0.05, n, 3, bins)
        assert np.array_equal(centers, got[1]) and np.array_equal(counts, got[2])

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize(
        "base, merit, sigma", [("epr", "f_slater", 1e150), ("w", "f_epr", 1e14)]
    )
    def test_one_sample_too_large_for_bins_is_refused(self, base, merit, sigma, monkeypatch):
        """One merit v: numpy's 200 bins over [v - 0.5, v + 0.5] are finer than
        v's ulp.  The refusal names sigma and n_samples and comes before any
        block is drawn again."""
        drawn, draw_block = [], mc._draw_block
        monkeypatch.setattr(
            mc, "_draw_block", lambda *args: drawn.append(args[2]) or draw_block(*args)
        )
        message = re.escape(f"sigma={sigma:g} with n_samples=1 ")
        for run in (mc.merit_distribution, merit_histogram):
            with pytest.raises(InvalidDimensionError, match=message):
                run(base, merit, sigma, 1, 0)
        assert drawn == [1, 1]  # each run's stream, and no block drawn again

    def test_few_rows_reach_eigvalsh(self, monkeypatch):
        resolved, merit_values = [], mc._merit_values
        monkeypatch.setattr(
            mc,
            "_merit_values",
            lambda *args: resolved.append(len(args[4])) or merit_values(*args),
        )
        for base, merit in CANONICAL:
            resolved.clear()
            mc.merit_distribution(base, merit, 0.05, 20_000, 0)
            assert sum(resolved) <= 30, (base, sum(resolved))

    def test_one_eigvalsh_call_for_the_stream_and_one_per_block_drawn_again(self, monkeypatch):
        """The rows set aside in the stream are judged again by the final bounds
        and resolved at once: here the least and the largest merit, and at most
        one row more (4-8 rows without the second judgement).  Each block drawn
        again for the rows over an edge is resolved by one call of its own,
        right after it is drawn.  epr at sigma = 0.01 draws the most blocks again."""
        events, eigvalsh, draw_block = [], np.linalg.eigvalsh, mc._draw_block
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda a: events.append(len(a)) or eigvalsh(a)
        )
        monkeypatch.setattr(
            mc, "_draw_block", lambda *args: events.append("draw") or draw_block(*args)
        )
        n = 20_000
        stream = -(-n // mc._CHUNK_ROWS)
        redrawn = []
        for sigma in (0.01, 0.05):
            for base, merit in CANONICAL:
                events.clear()
                mc.merit_distribution(base, merit, sigma, n, 0)
                draws = [i for i, event in enumerate(events) if event == "draw"]
                end = draws[stream] if len(draws) > stream else len(events)
                calls = [rows for rows in events[:end] if rows != "draw"]
                assert len(calls) == 1 and calls[0] <= 3, (base, sigma, calls)
                again, k = events[end:], len(draws) - stream
                assert again[::2] == ["draw"] * k and len(again) == 2 * k, (base, sigma, again)
                assert all(0 < rows <= mc._CHUNK_ROWS for rows in again[1::2]), (base, sigma)
                redrawn.append(k)
        assert max(redrawn) >= 2
        # At sigma = 0 every row is in doubt: the rows set aside are resolved
        # before the next block's would overflow a chunk, so no call holds more.
        events.clear()
        mc.merit_distribution("w", "f_epr", 0.0, n, 0)
        calls = [rows for rows in events if rows != "draw"]
        assert sum(calls) == n and max(calls) == mc._CHUNK_ROWS and len(calls) == stream

    @pytest.mark.parametrize("depth", [mc._BISECTIONS, 64])
    @settings(max_examples=30, deadline=None)
    @given(
        base=st.sampled_from(list(gates.CLASSES)),
        merit=st.sampled_from(mc.MERIT_LABELS),
        seed=st.integers(0, 2**32 - 1),
        decade=st.integers(-9, 149),
        mantissa=st.floats(1.0, 9.99),
    )
    def test_enclosures_hold_the_eigvalsh_merit(self, depth, base, merit, seed, decade, mantissa):
        """At 64 bisections the interval shrinks to a few floats, so only the
        widening by _TAU (1 + ||T||_F) keeps eigvalsh's merit inside it."""
        sigma = min(mantissa * 10.0**decade, mc._MAX_SIGMA)
        gamma0, draws = _base_and_draws(base, 256, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "_BISECTIONS", depth)
            workspace = np.empty(mc._WORKSPACE_FLOATS * len(draws))
            lower, upper = mc._merit_enclosures(gamma0, merit, sigma, draws, workspace)
        merit_fn = polytope._MERITS[merit]
        want = mc._merit_values(gamma0, merit_fn, sigma, draws, slice(None), workspace)
        finite = np.isfinite(lower) & np.isfinite(upper)
        assert np.count_nonzero(finite) >= 250
        assert np.all(lower[finite] <= want[finite]) and np.all(want[finite] <= upper[finite])

    def test_tridiagonal_keeps_the_spectrum(self):
        rng = np.random.default_rng(5)
        for scale in (1e-8, 1.0, 1e150):
            z = scale * (rng.standard_normal((40, 6, 6)) + 1j * rng.standard_normal((40, 6, 6)))
            matrices = z + z.conj().transpose(0, 2, 1)
            a, e2 = mc._tridiagonal(matrices.transpose(1, 2, 0).copy(), np.empty(2 * 25 * 40))
            t = np.zeros((40, 6, 6))
            t[:, range(6), range(6)] = a.T
            t[:, range(1, 6), range(5)] = t[:, range(5), range(1, 6)] = np.sqrt(e2.T)
            want = np.linalg.eigvalsh(matrices)
            assert np.abs(np.linalg.eigvalsh(t) - want).max() <= 1e-14 * np.abs(want).max()
