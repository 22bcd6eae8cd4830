"""Error-margin analysis: how much 1-RDM noise still certifies violation.

Matrix entries of the theoretical 1-RDM of a characteristic state are
perturbed by independent Gaussians of standard deviation sigma (real
diagonals; real and imaginary off-diagonal parts independently, mirrored
to keep the matrix Hermitian).  A sample counts as a violation when the
merit function of its sorted eigenvalues is negative.  Bisection on
sigma finds the largest perturbation scale for which the violation
probability still reaches the requested confidence.

Sampling uses the counter-based Philox generator so runs are reproducible
regardless of how samples are batched.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import fock, gates, polytope
from .errors import InvalidDimensionError

MERIT_LABELS = ("f_slater", "f_epr", "f_w")

# Merit paired with the state expected to violate it.
CANONICAL_PAIRING = {"epr": "f_slater", "w": "f_epr", "ghz": "f_w"}

_N_MODES = 6


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
        if self.sigma < 0:
            raise InvalidDimensionError("sigma must be non-negative")
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


def _perturbed_batch(
    base_state: str, sigma: float, draws: np.ndarray
) -> np.ndarray:
    """(n, 6, 6) Hermitian perturbed matrices from standard-normal draws."""
    d = _N_MODES
    gamma0 = theoretical_rdm(base_state)
    n = draws.shape[0]
    diag = draws[:, :d].copy()
    if base_state.lower() == "epr":
        # gamma_66 = 0 would go negative; take |draw| for that entry.
        diag[:, 5] = np.abs(diag[:, 5])
    re = draws[:, d : d + 15]
    im = draws[:, d + 15 :]

    out = np.broadcast_to(gamma0, (n, d, d)).astype(np.complex128)
    rows, cols = np.triu_indices(d, k=1)
    out[:, rows, cols] += sigma * (re + 1j * im)
    out[:, cols, rows] += sigma * (re - 1j * im)
    idx = np.arange(d)
    out[:, idx, idx] += sigma * diag
    return out


def sample_perturbed_rdm(spec: PerturbationSpec, sample_index: int = 0) -> np.ndarray:
    """One Hermitian perturbed 1-RDM sample (sigma = 0 returns the base)."""
    if sample_index < 0 or sample_index >= spec.n_samples:
        raise InvalidDimensionError("sample_index outside 0..n_samples-1")
    draws = _standard_draws(spec.n_samples, spec.seed)
    return _perturbed_batch(spec.base_state, spec.sigma, draws[sample_index : sample_index + 1])[0]


def merit_samples(
    base_state: str, merit: str, sigma: float, n_samples: int, seed: int
) -> np.ndarray:
    """Merit values of ``n_samples`` perturbed 1-RDMs."""
    draws = _standard_draws(n_samples, seed)
    batch = _perturbed_batch(base_state, sigma, draws)
    lam = np.linalg.eigvalsh(batch)[:, ::-1]
    return _merit(merit)(lam)


def violation_probability(
    base_state: str, merit: str, sigma: float, n_samples: int = 10**5, seed: int = 0
) -> float:
    """Fraction of perturbed samples with merit < 0."""
    base = base_state.lower()
    if CANONICAL_PAIRING.get(base) != merit:
        warnings.warn(
            f"{base!r} is conventionally paired with {CANONICAL_PAIRING.get(base)!r},"
            f" not {merit!r}",
            stacklevel=2,
        )
    values = merit_samples(base, merit, sigma, n_samples, seed)
    return float(np.mean(values < 0.0))


def max_tolerated_sigma(
    base_state: str,
    merit: str,
    confidence: float = 0.999,
    n_samples: int = 10**5,
    seed: int = 0,
    sigma_max: float = 0.5,
    iterations: int = 12,
) -> float:
    """Largest sigma whose violation probability still reaches confidence.

    Bisection over [0, sigma_max] with common random numbers across the
    evaluations; 12 iterations resolve sigma well below 0.001.
    """
    if not 0.5 < confidence < 1.0:
        raise InvalidDimensionError("confidence must lie in (0.5, 1)")
    base = base_state.lower()
    merit_fn = _merit(merit)
    draws = _standard_draws(n_samples, seed)

    def prob(sigma: float) -> float:
        batch = _perturbed_batch(base, sigma, draws)
        lam = np.linalg.eigvalsh(batch)[:, ::-1]
        return float(np.mean(merit_fn(lam) < 0.0))

    lo, hi = 0.0, sigma_max
    if prob(hi) >= confidence:
        return hi
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if prob(mid) >= confidence:
            lo = mid
        else:
            hi = mid
    return lo


def merit_histogram(
    base_state: str,
    merit: str,
    sigma: float,
    n_samples: int = 10**5,
    seed: int = 0,
    bins: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """(bin_centers, counts) for the merit distribution at one sigma."""
    values = merit_samples(base_state.lower(), merit, sigma, n_samples, seed)
    counts, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts
