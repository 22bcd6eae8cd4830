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

import numpy as np

from . import fock, gates, polytope
from .errors import InvalidDimensionError, InvalidGateError, SectorMismatchError, StepSizeError
from .fock import MixedState, PureState
from .gates import Protocol

PAPER_DEPHASING_RATE = 1.66e5  # 1/s at 4 K

DEFAULT_PAIRS = ((1, 2), (3, 4), (5, 6))

# Most Trotter steps one run may take, gates and free time together.  A
# d = 6 step costs about 50 us on one CPU, so the longest run accepted
# there takes about 5 s.
_MAX_STEPS = 100_000


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
        columns = {
            "time_s": self.times, "fidelity": self.fidelity, "purity": self.purity,
            **{f"lambda{i + 1}": lam for i, lam in enumerate(self.lambdas.T)},
            "F1": self.f1, "F2": self.f2, "margin_ok": self.margin_ok,
        }
        values = zip(*(column.tolist() for column in columns.values()))
        return [dict(zip(columns, row)) for row in values]


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
    Zero rates reproduce the noiseless protocol exactly.  A start that is
    not a PureState, a run that needs more than ``_MAX_STEPS`` steps, or a
    gate on a site beyond ``initial.d``, is refused before the first step.
    """
    if initial is None:
        initial = gates.target_state("slater")
    if not isinstance(initial, PureState):
        raise InvalidDimensionError("the initial state must be a PureState")
    d, n = initial.d, initial.n_particles
    durations = [g.duration for g in protocol.gates]
    if any(dur is None for dur in durations):
        raise InvalidGateError("every gate needs a duration for noisy evolution")
    for gate in protocol.gates:
        gates._check_sites(gate, d)
    if not 0.0 < dt < math.inf:
        raise StepSizeError("dt must be positive and finite")
    if not 0.0 <= free_time < math.inf:
        raise StepSizeError("free_time must be finite and non-negative")
    if not 0.0 <= margin_epsilon <= 1.0:
        raise InvalidDimensionError("margin_epsilon must lie in [0, 1]")
    if durations and dt > min(durations) / 10.0:
        raise StepSizeError("dt must not exceed one tenth of the shortest gate")
    # Segments are (gate or None, dephasing rate, span); free time has no gate.
    gate_rate = params.dephasing_rate + params.emission_rate
    segments = [(g, gate_rate, g.duration) for g in protocol.gates]
    if free_time > 0.0:
        segments.append((None, params.dephasing_rate, free_time))
    # Each span's ratio is clamped before the ceiling, so that an infinite
    # one is counted as too many instead of raising OverflowError.
    plan = [max(1, math.ceil(min(span / dt, _MAX_STEPS + 1))) for *_, span in segments]
    n_steps = sum(plan)
    if n_steps > _MAX_STEPS:
        raise StepSizeError(f"the run needs more than {_MAX_STEPS} Trotter steps at dt={dt:g}")

    # One row per recorded state: the initial one and one after every step.
    # Each 1-RDM is stored as its Hermitian part, so the batch needs no
    # second (steps, d, d) array.
    times, fid, pur = np.empty((3, n_steps + 1))
    herm = np.empty((n_steps + 1, d, d), dtype=complex)
    states = _trotter_states(zip(segments, plan), initial.normalized().amplitudes, d, n)
    for k, (t, rho, psi) in enumerate(states):
        times[k] = t
        fid[k] = np.real(psi.conj() @ rho @ psi)
        pur[k] = np.sum(np.abs(rho) ** 2)
        gamma = fock._rdm_kernel(d, n, rho, density=True)
        herm[k] = (gamma + gamma.conj().T) / 2.0
    lambdas = np.linalg.eigvalsh(herm)[:, ::-1]
    if d == 6:
        f1, f2 = polytope._MERITS["f1"](lambdas), polytope._MERITS["f2"](lambdas)
        margin_ok = polytope._weakened_slacks(lambdas, margin_epsilon)[2]
    else:
        # The margin check is specific to six modes; other sectors report lambdas only.
        f1, f2 = np.full((2, len(times)), np.nan)
        margin_ok = np.ones(len(times), dtype=bool)

    rho = (rho + rho.conj().T) / 2.0
    final = MixedState(d, n, rho)
    trajectory = Trajectory(
        times=times,
        fidelity=fid,
        purity=pur,
        lambdas=lambdas,
        f1=f1,
        f2=f2,
        margin_ok=margin_ok,
        margin_epsilon=margin_epsilon,
    )
    return trajectory, final


def _trotter_states(planned_segments, psi: np.ndarray, d: int, n: int):
    """Yield (t, rho, psi) at t = 0 and after every step: the gate's slice,
    if any, then the dephasing channel.  ``rho`` changes in place after a
    yield, so read it before asking for the next step."""
    rho = np.outer(psi, psi.conj())
    masks = fock._sector_masks(d, n)
    hamming = np.bitwise_count(masks[:, None] ^ masks)
    t = 0.0
    yield t, rho, psi
    for (gate, rate, span), steps in planned_segments:
        delta = span / steps
        u = None if gate is None else gates.gate_matrix(gate.scaled(1.0 / steps), d, n)
        kernel = np.exp(-rate * delta * hamming / 2.0)
        for _ in range(steps):
            if u is not None:
                rho = u @ rho @ u.conj().T
                psi = u @ psi
            rho *= kernel
            t += delta
            yield t, rho, psi


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
