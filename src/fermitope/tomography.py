"""Simulated measurement of the one-body reduced density matrix.

Diagonal entries are occupation expectations sampled with binomial shot
noise.  An off-diagonal entry gamma_ij is moved onto the diagonal by a
basis change: a swap chain brings site i next to site j, then a quarter
rotation (real part) or a quarter phase followed by a quarter rotation
(imaginary part) maps +-2x or +-2y onto the two measured occupations.
Every readout gate is one-body, so a setting whose sequence has mode
matrix u measures the diagonal of u gamma u^+, where gamma is the
state's d x d 1-RDM; full reconstruction uses exactly d^2 settings.
The mode matrices depend on d alone: they are built once per d, and
every setting is read from one stacked product.  Per-setting seeds are
spawned only when shots are finite.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock
from .errors import InvalidDimensionError, InvalidGateError
from .fock import MixedState, PureState, occupation_expectation
from .gates import Protocol, _apply_in_place, phase_gate, rotation


@dataclass(frozen=True)
class ShotResult:
    """Binomial occupation sample at one site."""

    site: int
    shots: int
    ones: int
    estimate: float
    sigma: float


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
    fock._checked_count(shots, "shots")
    if shots > 2**63 - 1:  # numpy's binomial takes a C long
        raise InvalidDimensionError("shots must be <= 2**63 - 1")
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


@lru_cache(maxsize=None)
def _readout_modes(d: int) -> np.ndarray:
    """Read-only (d^2 - d, d, d) stack of the off-diagonal settings' u^T.

    Setting 2k is Re and 2k + 1 is Im of the k-th pair i < j in row-major
    order.  Each slice applies the gates of ``readout_sequence_offdiag`` to
    the rows of the d x d identity, so the rows of slice s are the images
    of the one-particle basis states under that setting's sequence.
    """
    stack = []
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            for part in ("real", "imag"):
                rows = np.eye(d, dtype=np.complex128)
                for gate in readout_sequence_offdiag(i, j, part).gates:
                    _apply_in_place(rows, gate, d, 1)
                stack.append(rows)
    modes = np.array(stack, dtype=np.complex128).reshape(d * d - d, d, d)
    modes.flags.writeable = False
    return modes


def reconstruct_one_rdm(
    state: PureState | MixedState, shots: int | None, seed: int = 0
) -> RDMEstimate:
    """Estimate the full 1-RDM from d^2 measurement settings.

    ``shots`` measurements are drawn per setting (``None`` uses exact
    expectation values, the infinite-shot limit).  The readout gates are
    one-body, so each setting's occupations are read from the state's
    1-RDM gamma0 as the diagonal of u gamma0 u^+, with u the sequence's
    mode matrix.  The d^2 - d off-diagonal u^T are built once per d
    (``_readout_modes``) and every setting is read from one stacked
    product.  For finite shots each setting draws from its own generator,
    seeded by one of d^2 children spawned from ``seed``; the exact limit
    validates ``seed`` but spawns nothing.
    """
    d = state.d
    seed = fock.checked_seed(seed)
    gamma0 = fock.one_rdm(state)
    modes = _readout_modes(d)
    measured = np.matmul(np.matmul(modes.swapaxes(1, 2), gamma0), modes.conj())
    # Setting s off the diagonal measures sites (j-1, j) of its pair i < j.
    upper = np.triu_indices(d, 1)
    measured_sites = np.repeat(upper[1], 2)[:, None] + [-1, 0]
    diag = gamma0.real.diagonal()
    pair = np.take_along_axis(
        measured.real.diagonal(axis1=1, axis2=2), measured_sites, axis=1
    )
    sigma = np.zeros((d, d), dtype=np.float64)
    if shots is not None:
        rngs = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(d * d))
        draws = [
            [_shot_sample(p, shots, rng)[1:] for p in probs]
            for rng, probs in zip(rngs, [[p] for p in diag.tolist()] + pair.tolist())
        ]
        diag_draws = np.array(draws[:d], dtype=np.float64).reshape(d, 2)
        pair_draws = np.array(draws[d:], dtype=np.float64).reshape(-1, 2, 2)
        diag, pair = diag_draws[:, 0], pair_draws[:, :, 0]
        np.fill_diagonal(sigma, diag_draws[:, 1])
        # Python's float ** rounds unlike numpy's square in rare last bits.
        errs = [
            math.sqrt(sig_lo**2 + sig_hi**2) / 2.0
            for sig_lo, sig_hi in pair_draws[:, :, 1].tolist()
        ]
        sigma[upper] = sigma.T[upper] = [
            math.sqrt(err_re**2 + err_im**2)
            for err_re, err_im in zip(errs[0::2], errs[1::2])
        ]

    half = (pair[:, 1] - pair[:, 0]) / 2.0
    re, im = half[0::2], half[1::2]
    gamma = np.zeros((d, d), dtype=np.complex128)
    np.fill_diagonal(gamma, diag)
    gamma[upper] = re + 1j * im
    gamma.T[upper] = re - 1j * im
    return RDMEstimate(
        matrix=gamma, sigma=sigma, shots_per_setting=shots, settings=d * d
    )
