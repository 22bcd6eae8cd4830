"""Error-margin analysis: how much 1-RDM noise still certifies violation.

Matrix entries of the theoretical 1-RDM gamma0 of a characteristic state
are perturbed by independent Gaussians of standard deviation sigma (real
diagonals; real and imaginary off-diagonal parts independently, mirrored
to keep the matrix Hermitian), so sample k is gamma0 + sigma * Delta_k.
A sample counts as a violation when the merit function of its sorted
eigenvalues is negative.  sigma* is the largest perturbation scale whose
violation probability p still reaches the requested confidence c, to the
resolution of 12 halvings of [0, 0.5] with common random numbers: every
point that bisection visits is a step m h of the grid h = 0.5 / 2**12.

For t > 1, gamma0 + t sigma Delta = t (gamma0 + sigma Delta) - (t-1) gamma0,
so by Ky Fan (lambda1 and lambda1+lambda2+lambda3 are convex) and
Courant-Fischer (lambda2(A + B) <= lambda2(A) + lambda1(B)), a sample
that does not violate at some sigma > 0 violates at no larger sigma,
provided merit(lambda(gamma0)) <= 0 and lambda1(gamma0) <= 1.  That holds
for every merit on epr, w and ghz.  Then p(m h) is non-increasing in
m >= 1, the bisection returns max{m h : p(m h) >= c} (0 if no step
passes), and so does any other search of the grid: m h is exact, and
each matrix's eigenvalues do not depend on the chunk it sits in.  A
sample violating at the upper end of a bracket violates at every step
inside it, one not violating at the lower end (m >= 1) at none, so a
step evaluates only the samples whose status differs between the ends.

The search first bisects the grid on the first _CHUNK_ROWS samples, a
pilot whose answer m' is final when there are no more samples.  All
samples are then evaluated once, at hi = min(2**12, m' + max(8, m' // 4)).
If p(hi) < c the search walks down over [0, hi], evaluating only the
samples that do not violate at hi, about 1 - c of them.  If p(hi) >= c
the pilot fell short: the samples violating at hi are evaluated at 0.5
and the search walks up over [hi, 2**12].  In all, about 1.1-1.4 full
evaluations of the samples, against 3.2-5.3 for a bisection down from
0.5 (the canonical pairs, n = 1e5).  Where the condition fails (slater
with F_W) the search is that bisection, evaluating every sample at
every step.

Samples are perturbed and diagonalised in fixed chunks of _CHUNK_ROWS
rows.  Sampling uses the counter-based Philox generator so runs are
reproducible regardless of how samples are batched.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock, gates, polytope
from .errors import InvalidDimensionError

MERIT_LABELS = ("f_slater", "f_epr", "f_w")

# Merit paired with the state expected to violate it.
CANONICAL_PAIRING = {"epr": "f_slater", "w": "f_epr", "ghz": "f_w"}

_N_MODES = 6

# Samples perturbed and diagonalised at once.  A chunk's temporaries
# (about 3 MB) stay small enough that the allocator reuses the same pages
# from chunk to chunk.  At 8192 rows and n_samples = 2e4, glibc returned
# them to the system after each chunk and faulted them in again: 12x the
# minor page faults of 2048 rows.  Per-chunk call overhead is below 1%.
_CHUNK_ROWS = 2048

# Bins of a merit histogram.
_BINS = 200

# sigma* lies on the grid m * _STEP, 0 <= m <= _TOP, that 12 halvings of
# [0, 0.5] resolve.  Both are exact binary fractions, so m * _STEP is the
# float each halving would compute.
_TOP = 2**12
_STEP = 0.5 / _TOP

# Steps above the pilot's answer at which all samples are first evaluated:
# at least _MARGIN_STEPS, or a quarter of the pilot's step.
_MARGIN_STEPS = 8


@dataclass(frozen=True)
class PerturbationSpec:
    """Gaussian perturbation of a characteristic state's 1-RDM."""

    base_state: str
    sigma: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        if self.base_state.lower() not in polytope.CLASS_LABELS:
            raise InvalidDimensionError(f"unknown base state {self.base_state!r}")
        if not 0.0 <= self.sigma < math.inf:
            raise InvalidDimensionError("sigma must be finite and non-negative")
        if self.n_samples < 1:
            raise InvalidDimensionError("n_samples must be >= 1")


def theoretical_rdm(base_state: str) -> np.ndarray:
    """Site-basis 1-RDM of a characteristic state (diagonal for all four)."""
    return fock.one_rdm(gates.target_state(base_state))


def _merit(merit: str):
    """The merit function over (..., 6) arrays of descending eigenvalues."""
    if merit not in MERIT_LABELS:
        raise InvalidDimensionError(f"unknown merit {merit!r}; choose from {MERIT_LABELS}")
    return polytope._MERITS[merit]


def _standard_draws(n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, 36) standard normals from a counter-based generator."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return rng.standard_normal((n_samples, 36))


def _base_and_draws(
    base_state: str, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """gamma0 of the base state and the draws of its ``n_samples`` perturbations."""
    if n_samples < 1:
        raise InvalidDimensionError("n_samples must be >= 1")
    base = base_state.lower()
    draws = _standard_draws(n_samples, fock.checked_seed(seed))
    if base == "epr":
        # gamma_66 = 0 would go negative; take |draw| for that entry.
        draws[:, 5] = np.abs(draws[:, 5])
    return theoretical_rdm(base), draws


def _perturbed_batch(gamma0: np.ndarray, sigma: float, draws: np.ndarray) -> np.ndarray:
    """(n, 6, 6) Hermitian matrices gamma0 + sigma * Delta, Delta from the draws."""
    d = _N_MODES
    n = draws.shape[0]
    re = draws[:, d : d + 15]
    im = draws[:, d + 15 :]

    out = np.broadcast_to(gamma0, (n, d, d)).astype(np.complex128)
    rows, cols = np.triu_indices(d, k=1)
    out[:, rows, cols] += sigma * (re + 1j * im)
    out[:, cols, rows] += sigma * (re - 1j * im)
    idx = np.arange(d)
    out[:, idx, idx] += sigma * draws[:, :d]
    return out


def _merit_values(
    gamma0: np.ndarray, merit_fn, sigma: float, draws: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Merits of the samples ``draws[rows]``, ``_CHUNK_ROWS`` at a time."""
    out = np.empty(len(rows))
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        lam = np.linalg.eigvalsh(_perturbed_batch(gamma0, sigma, draws[chunk]))[:, ::-1]
        out[start : start + len(chunk)] = merit_fn(lam)
    return out


def sample_perturbed_rdm(spec: PerturbationSpec, sample_index: int = 0) -> np.ndarray:
    """One Hermitian perturbed 1-RDM sample (sigma = 0 returns the base).

    Draws only the first ``sample_index + 1`` samples: Philox's first rows
    do not depend on how many rows are drawn.
    """
    if sample_index < 0 or sample_index >= spec.n_samples:
        raise InvalidDimensionError("sample_index outside 0..n_samples-1")
    gamma0, draws = _base_and_draws(spec.base_state, sample_index + 1, spec.seed)
    return _perturbed_batch(gamma0, spec.sigma, draws[sample_index:])[0]


def merit_samples(
    base_state: str, merit: str, sigma: float, n_samples: int, seed: int
) -> np.ndarray:
    """Merit values of ``n_samples`` perturbed 1-RDMs."""
    if not 0.0 <= sigma < math.inf:
        raise InvalidDimensionError("sigma must be finite and non-negative")
    merit_fn = _merit(merit)
    gamma0, draws = _base_and_draws(base_state, n_samples, seed)
    return _merit_values(gamma0, merit_fn, sigma, draws, np.arange(n_samples))


def violation_probability(
    base_state: str, merit: str, sigma: float, n_samples: int = 10**5, seed: int = 0
) -> float:
    """Fraction of perturbed samples with merit < 0."""
    base = base_state.lower()
    _warn_if_unpaired(base, merit)
    return _violating_fraction(merit_samples(base, merit, sigma, n_samples, seed))


def _warn_if_unpaired(base: str, merit: str) -> None:
    """Warn, on behalf of the caller's caller, when merit is not base's pairing."""
    if CANONICAL_PAIRING.get(base) != merit:
        warnings.warn(
            f"{base!r} is conventionally paired with {CANONICAL_PAIRING.get(base)!r},"
            f" not {merit!r}",
            stacklevel=3,
        )


def _violating_fraction(values: np.ndarray) -> float:
    return float(np.mean(values < 0.0))


def max_tolerated_sigma(
    base_state: str,
    merit: str,
    confidence: float = 0.999,
    n_samples: int = 10**5,
    seed: int = 0,
) -> float:
    """Largest sigma whose violation probability still reaches confidence.

    The float that 12 halvings of [0, 0.5] with common random numbers
    give: a step of the grid 0.5 / 2**12, or 0 if no step passes.  The
    module docstring describes the pilot, the one evaluation of all
    ``n_samples`` and the walk down or up that find it.
    """
    if not 0.5 < confidence < 1.0:
        raise InvalidDimensionError("confidence must lie in (0.5, 1)")
    merit_fn = _merit(merit)
    gamma0, draws = _base_and_draws(base_state, n_samples, seed)
    lam0 = np.linalg.eigvalsh(gamma0)[::-1]
    monotone = merit_fn(lam0) <= 0.0 and lam0[0] <= 1.0

    def status(m: int, v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
        """Violations at step m of the first len(v_hi) samples.

        v_lo and v_hi are their statuses at a lower step (all True at
        step 0, which tells nothing) and a higher one (all False if none).
        """
        out = v_hi.copy()
        rows = np.flatnonzero(v_lo & ~v_hi if monotone else np.ones_like(v_hi))
        out[rows] = _merit_values(gamma0, merit_fn, m * _STEP, draws, rows) < 0.0
        return out

    def search(lo: int, hi: int, v_lo: np.ndarray, v_hi: np.ndarray) -> int:
        return _largest_passing_step(status, confidence, lo, hi, v_lo, v_hi)

    everyone = np.ones(n_samples, dtype=bool)
    # Without monotonicity only the bisection over every sample is exact:
    # then the pilot takes every sample and is the whole search.
    k = min(n_samples, _CHUNK_ROWS) if monotone else n_samples
    m_hat = search(0, _TOP, everyone[:k], status(_TOP, everyone[:k], ~everyone[:k]))
    if k == n_samples:
        return m_hat * _STEP
    hi = min(_TOP, m_hat + max(_MARGIN_STEPS, m_hat // 4))
    v_hi = status(hi, everyone, ~everyone)
    if hi < _TOP and np.mean(v_hi) >= confidence:
        # The pilot fell short; only samples violating at hi can violate above it.
        return search(hi, _TOP, v_hi, status(_TOP, v_hi, ~everyone)) * _STEP
    return search(0, hi, everyone, v_hi) * _STEP


def _largest_passing_step(status, confidence, lo, hi, v_lo, v_hi) -> int:
    """Largest grid step in [lo, hi] whose violation fraction reaches confidence.

    ``v_lo`` and ``v_hi`` are the violation statuses at steps lo and hi;
    step lo is taken to pass.  ``status(m, v_lo, v_hi)`` gives the status
    at a step between them.  Started on [0, 2**12], its midpoints are the
    points the float bisection of [0, 0.5] visits.
    """
    if np.mean(v_hi) >= confidence:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v_mid = status(mid, v_lo, v_hi)
        if np.mean(v_mid) >= confidence:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return lo


def merit_histogram(
    base_state: str,
    merit: str,
    sigma: float,
    n_samples: int = 10**5,
    seed: int = 0,
    bins: int = _BINS,
) -> tuple[np.ndarray, np.ndarray]:
    """(bin_centers, counts) for the merit distribution at one sigma."""
    return _histogram(merit_samples(base_state.lower(), merit, sigma, n_samples, seed), bins)


def _histogram(values: np.ndarray, bins: int = _BINS) -> tuple[np.ndarray, np.ndarray]:
    counts, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts
