"""Simulated measurement of the one-body reduced density matrix.

Diagonal entries are occupation expectations sampled with binomial shot
noise.  An off-diagonal entry gamma_ij is moved onto the diagonal by a
basis change: a swap chain brings site i next to site j, then a quarter
rotation (real part) or a quarter phase followed by a quarter rotation
(imaginary part) maps +-2x or +-2y onto the two measured occupations.
Every readout gate is one-body, so a setting whose sequence has mode
matrix u measures the diagonal of u gamma u^+, where gamma is the
state's d x d 1-RDM; full reconstruction uses exactly d^2 settings.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import InvalidDimensionError, InvalidGateError
from .fock import MixedState, PureState, occupation_expectation
from .gates import Protocol, _apply_to_amplitudes, phase_gate, rotation


@dataclass(frozen=True)
class ShotResult:
    """Binomial occupation sample at one site."""

    site: int
    shots: int
    ones: int
    estimate: float
    sigma: float

    def to_json(self) -> dict:
        return {
            "site": self.site,
            "shots": self.shots,
            "ones": self.ones,
            "estimate": self.estimate,
            "sigma": self.sigma,
        }


@dataclass(frozen=True)
class RDMEstimate:
    """Reconstructed 1-RDM with per-entry standard deviations."""

    matrix: np.ndarray
    sigma: np.ndarray
    shots_per_setting: int | None
    settings: int

    def to_json(self) -> dict:
        return {
            "matrix_re": self.matrix.real.tolist(),
            "matrix_im": self.matrix.imag.tolist(),
            "sigma": self.sigma.tolist(),
            "M": self.shots_per_setting,
            "settings": self.settings,
        }


def simulate_occupation_counts(
    state: PureState | MixedState, site: int, shots: int, seed: int
) -> ShotResult:
    """Sample ``shots`` projective occupation measurements of one site."""
    p = occupation_expectation(state, site)
    rng = np.random.default_rng(fock.checked_seed(seed))
    ones, estimate, sigma = _shot_sample(p, shots, rng)
    return ShotResult(site=site, shots=shots, ones=ones, estimate=estimate, sigma=sigma)


def _shot_sample(
    p: float, shots: int, rng: np.random.Generator
) -> tuple[int, float, float]:
    """(ones, estimate, sigma) of ``shots`` readouts of an occupation of mean p."""
    if fock.checked_integer(shots, "shots") < 1:
        raise InvalidDimensionError("shots must be >= 1")
    ones = int(rng.binomial(shots, min(max(p, 0.0), 1.0)))
    estimate = ones / shots
    return ones, estimate, math.sqrt(estimate * (1.0 - estimate) / shots)


def readout_sequence_offdiag(i: int, j: int, part: str) -> Protocol:
    """Gate sequence mapping Re or Im of gamma_ij onto site occupations.

    Non-adjacent sites are first brought together by pi-rotation swaps
    R_{i,i+1} ... R_{j-2,j-1}; the information then sits on the measured
    pair (j-1, j).
    """
    if i == j:
        raise InvalidGateError("off-diagonal readout needs two distinct sites")
    if not i < j:
        raise InvalidGateError("sites must satisfy i < j")
    if part not in ("real", "imag"):
        raise InvalidGateError(f"part must be 'real' or 'imag', got {part!r}")
    ops = [rotation(k, k + 1, math.pi) for k in range(i, j - 1)]
    if part == "imag":
        ops.append(phase_gate(j - 1, j, math.pi / 2))
    ops.append(rotation(j - 1, j, math.pi / 2))
    return Protocol(label=f"offdiag-{i}-{j}-{part}", gates=tuple(ops))


def reconstruct_one_rdm(
    state: PureState | MixedState, shots: int | None, seed: int = 0
) -> RDMEstimate:
    """Estimate the full 1-RDM from d^2 measurement settings.

    ``shots`` measurements are drawn per setting (``None`` uses exact
    expectation values, the infinite-shot limit).  Per-setting seeds are
    spawned deterministically from ``seed``.  The readout gates are
    one-body, so each setting's occupations are read from the state's
    1-RDM gamma0 as the diagonal of u gamma0 u^+.  The sequence's mode
    matrix u is its action on the one-particle sector: applying the gates
    to the rows of the d x d identity gives u^T.
    """
    d = state.d
    n_pairs = d * (d - 1) // 2
    n_settings = d + 2 * n_pairs
    seeds = iter(np.random.SeedSequence(fock.checked_seed(seed)).spawn(n_settings))
    gamma0 = fock.one_rdm(state)

    def read(measured: np.ndarray, sites) -> list[tuple[float, float]]:
        """(estimate, sigma) of each site's occupation in the next setting."""
        setting_seed = next(seeds)
        probs = [float(measured[site - 1, site - 1].real) for site in sites]
        if shots is None:
            return [(p, 0.0) for p in probs]
        rng = np.random.default_rng(setting_seed)
        return [_shot_sample(p, shots, rng)[1:] for p in probs]

    gamma = np.zeros((d, d), dtype=np.complex128)
    sigma = np.zeros((d, d), dtype=np.float64)

    for site in range(1, d + 1):
        [(est, sig)] = read(gamma0, [site])
        gamma[site - 1, site - 1] = est
        sigma[site - 1, site - 1] = sig

    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            parts = {}
            errs = {}
            for part in ("real", "imag"):
                rows = np.eye(d, dtype=np.complex128)
                for gate in readout_sequence_offdiag(i, j, part).gates:
                    rows = _apply_to_amplitudes(rows, gate, d, 1)
                (lo, sig_lo), (hi, sig_hi) = read(rows.T @ gamma0 @ rows.conj(), [j - 1, j])
                parts[part] = (hi - lo) / 2.0
                errs[part] = math.sqrt(sig_lo**2 + sig_hi**2) / 2.0
            gamma[i - 1, j - 1] = parts["real"] + 1j * parts["imag"]
            gamma[j - 1, i - 1] = parts["real"] - 1j * parts["imag"]
            sigma[i - 1, j - 1] = sigma[j - 1, i - 1] = math.sqrt(
                errs["real"] ** 2 + errs["imag"] ** 2
            )

    return RDMEstimate(
        matrix=gamma, sigma=sigma, shots_per_setting=shots, settings=n_settings
    )
