"""Density-matrix evolution of the preparation protocols under dephasing.

The noise channel is pure dephasing in the site-occupation basis: over a
step dt, the coherence between basis states a and b decays by
exp(-rate * dt * hamming(a, b) / 2), so two patterns related by a single
hop (Hamming distance two) lose coherence at exactly ``rate``.  This is
the sector restriction of independent single-site dephasing, hence
completely positive and trace preserving.  Spontaneous emission never
enters the sector dynamics; an optional ``emission_rate`` adds extra
coherence decay during gate windows only.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock, gates, polytope
from .errors import InvalidDimensionError, InvalidGateError, SectorMismatchError, StepSizeError
from .fock import MixedState, PureState
from .gates import Protocol

PAPER_DEPHASING_RATE = 1.66e5  # 1/s at 4 K

DEFAULT_PAIRS = ((1, 2), (3, 4), (5, 6))


@dataclass(frozen=True)
class NoiseParams:
    """Dephasing rate (1/s) plus an optional gate-window emission knob."""

    dephasing_rate: float = PAPER_DEPHASING_RATE
    emission_rate: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.dephasing_rate < math.inf and 0.0 <= self.emission_rate < math.inf):
            raise StepSizeError("noise rates must be finite and non-negative")


@dataclass(frozen=True)
class Trajectory:
    """Per-step record of a noisy evolution."""

    times: np.ndarray
    fidelity: np.ndarray
    purity: np.ndarray
    lambdas: np.ndarray  # (n_steps, d)
    f1: np.ndarray
    f2: np.ndarray
    margin_ok: np.ndarray
    margin_epsilon: float

    def rows(self) -> list[dict]:
        out = []
        for k in range(len(self.times)):
            row = {
                "time_s": float(self.times[k]),
                "fidelity": float(self.fidelity[k]),
                "purity": float(self.purity[k]),
            }
            for i in range(self.lambdas.shape[1]):
                row[f"lambda{i + 1}"] = float(self.lambdas[k, i])
            row["F1"] = float(self.f1[k])
            row["F2"] = float(self.f2[k])
            row["margin_ok"] = bool(self.margin_ok[k])
            out.append(row)
        return out


@lru_cache(maxsize=None)
def _hamming_matrix(d: int, n_particles: int) -> np.ndarray:
    masks = fock._sector_masks(d, n_particles)
    hd = np.bitwise_count(masks[:, None] ^ masks[None, :]).astype(np.float64)
    hd.flags.writeable = False
    return hd


def _dephasing_kernel(d: int, n_particles: int, rate: float, dt: float) -> np.ndarray:
    return np.exp(-rate * dt * _hamming_matrix(d, n_particles) / 2.0)


def fidelity(state: MixedState | PureState, target: PureState) -> float:
    """<target|rho|target> (equals |<target|psi>|^2 for pure input)."""
    if (state.d, state.n_particles) != (target.d, target.n_particles):
        raise SectorMismatchError("state and target live on different sectors")
    t = target.normalized().amplitudes
    if isinstance(state, PureState):
        return state.fidelity_to(target)
    return float(np.real(t.conj() @ state.matrix @ t))


def purity(state: MixedState) -> float:
    """tr rho^2."""
    return float(np.sum(np.abs(state.matrix) ** 2))


def evolve_noisy_protocol(
    protocol: Protocol,
    params: NoiseParams,
    dt: float,
    initial: PureState | None = None,
    free_time: float = 0.0,
    margin_epsilon: float = 0.06,
) -> tuple[Trajectory, MixedState]:
    """Trotterized noisy protocol run from |101010> (or ``initial``).

    Each gate is sliced into steps no longer than ``dt``; every step
    applies the partial gate unitary and then the dephasing channel.
    ``free_time`` appends channel-only evolution after the last gate.
    Zero rates reproduce the noiseless protocol exactly.
    """
    if initial is None:
        initial = gates.target_state("slater")
    d, n = initial.d, initial.n_particles
    durations = [g.duration for g in protocol.gates]
    if any(dur is None for dur in durations):
        raise InvalidGateError("every gate needs a duration for noisy evolution")
    if not 0.0 < dt < math.inf:
        raise StepSizeError("dt must be positive and finite")
    if not 0.0 <= free_time < math.inf:
        raise StepSizeError("free_time must be finite and non-negative")
    if not 0.0 <= margin_epsilon <= 1.0:
        raise InvalidDimensionError("margin_epsilon must lie in [0, 1]")
    if durations and dt > min(durations) / 10.0:
        raise StepSizeError("dt must not exceed one tenth of the shortest gate")

    psi = initial.normalized().amplitudes.copy()
    rho = np.outer(psi, psi.conj())

    times = [0.0]
    records = [_snapshot(rho, psi, d, n, margin_epsilon)]
    t = 0.0

    gate_rate = params.dephasing_rate + params.emission_rate
    for gate in protocol.gates:
        steps = max(1, math.ceil(gate.duration / dt))
        delta = gate.duration / steps
        u_slice = gates.gate_matrix(gate.scaled(1.0 / steps), d, n)
        kernel = _dephasing_kernel(d, n, gate_rate, delta)
        for _ in range(steps):
            rho = u_slice @ rho @ u_slice.conj().T
            rho *= kernel
            psi = u_slice @ psi
            t += delta
            times.append(t)
            records.append(_snapshot(rho, psi, d, n, margin_epsilon))

    if free_time > 0.0:
        steps = max(1, math.ceil(free_time / dt))
        delta = free_time / steps
        kernel = _dephasing_kernel(d, n, params.dephasing_rate, delta)
        for _ in range(steps):
            rho *= kernel
            t += delta
            times.append(t)
            records.append(_snapshot(rho, psi, d, n, margin_epsilon))

    rho = (rho + rho.conj().T) / 2.0
    final = MixedState(d, n, rho)
    trajectory = Trajectory(
        times=np.array(times),
        fidelity=np.array([r[0] for r in records]),
        purity=np.array([r[1] for r in records]),
        lambdas=np.array([r[2] for r in records]),
        f1=np.array([r[3] for r in records]),
        f2=np.array([r[4] for r in records]),
        margin_ok=np.array([r[5] for r in records]),
        margin_epsilon=margin_epsilon,
    )
    return trajectory, final


def _snapshot(rho: np.ndarray, psi_ideal: np.ndarray, d: int, n: int, eps: float):
    fid = float(np.real(psi_ideal.conj() @ rho @ psi_ideal))
    pur = float(np.sum(np.abs(rho) ** 2))
    gamma = fock._rdm_kernel(d, n, rho, density=True)
    lam = np.linalg.eigvalsh((gamma + gamma.conj().T) / 2.0)[::-1]
    if d == 6:
        report = polytope.check_weakened(lam, eps)
        f1 = float(polytope._MERITS["f1"](lam))
        f2 = float(polytope._MERITS["f2"](lam))
        return (fid, pur, lam, f1, f2, report.member)
    # The margin check is specific to six modes; other sectors report
    # lambdas only.
    return (fid, pur, lam, float("nan"), float("nan"), True)


@dataclass(frozen=True)
class EchoResult:
    """Outcome of running a protocol forward and then exactly inverted."""

    state: MixedState
    echo_fidelity: float
    trajectory: Trajectory


def loschmidt_echo(
    protocol: Protocol,
    params: NoiseParams,
    dt: float,
) -> EchoResult:
    """Entangle-disentangle run from |101010>; fidelity is taken against it."""
    initial = gates.target_state("slater")
    roundtrip = Protocol(
        label=f"{protocol.label}-echo",
        gates=protocol.gates + gates.invert_protocol(protocol).gates,
    )
    trajectory, final = evolve_noisy_protocol(roundtrip, params, dt, initial=initial)
    return EchoResult(
        state=final,
        echo_fidelity=fidelity(final, initial),
        trajectory=trajectory,
    )


def purity_lower_bound(
    state: MixedState, pairs: tuple[tuple[int, int], ...] = DEFAULT_PAIRS
) -> float:
    """Pairwise-measurable lower bound on tr rho^2.

    For each pair of sites the two eigenvalues of the 2x2 block of the
    1-RDM restricted to that pair enter through their squared Euclidean
    norm; the bound is their sum minus (number of pairs - 1).
    """
    sites = [s for pair in pairs for s in pair]
    if sorted(sites) != list(range(1, state.d + 1)):
        raise InvalidGateError("pairs must partition the sites 1..d")
    gamma = fock.one_rdm(state)
    total = 0.0
    for a, b in pairs:
        block = gamma[np.ix_([a - 1, b - 1], [a - 1, b - 1])]
        lam = np.linalg.eigvalsh((block + block.conj().T) / 2.0)
        total += float(np.sum(lam**2))
    return total - (len(pairs) - 1)
