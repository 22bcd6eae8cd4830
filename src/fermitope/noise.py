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
from .gates import GateOp, Protocol

PAPER_DEPHASING_RATE = 1.66e5  # 1/s at 4 K

DEFAULT_PAIRS = ((1, 2), (3, 4), (5, 6))

# Most Trotter steps one run may take, gates and free time together.  A
# d = 6 step, observables included, costs 8-13 us on one CPU, so the
# longest run accepted there takes about 1.3 s.
_MAX_STEPS = 100_000

# Recorded states are observed in blocks of about this many bytes.
_BLOCK_BYTES = 2**20


@dataclass(frozen=True)
class NoiseParams:
    """Dephasing rate (1/s) plus an optional gate-window emission knob."""

    dephasing_rate: float = PAPER_DEPHASING_RATE
    emission_rate: float = 0.0

    def __post_init__(self) -> None:
        dephasing = fock._checked_real(self.dephasing_rate, "dephasing_rate")
        emission = fock._checked_real(self.emission_rate, "emission_rate")
        if not (0.0 <= dephasing < math.inf and 0.0 <= emission < math.inf):
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
    applies the partial gate unitary and then the dephasing channel, in
    O(dim^2): a rotation slice only mixes the basis pairs that the hop
    a_j^+ a_i connects, so it changes their rows and columns of rho, and a
    phase slice is diagonal, so it joins the channel's kernel.  Fidelity,
    purity and the 1-RDM are computed over blocks of recorded states of
    about ``_BLOCK_BYTES``, so only the d x d 1-RDMs grow with the steps.
    Besides them the run holds four arrays of about the size of rho: the
    recorded block (one state from (10, 5) up), the working state, one
    spare and the float kernel; the final state is built in the working
    state once the block is released.  ``free_time`` appends channel-only
    evolution after the last gate.  Zero rates reproduce the noiseless
    protocol exactly.  A start that is not a PureState, a run that needs
    more than ``_MAX_STEPS`` steps, or a gate on a site beyond
    ``initial.d``, is refused before the first step.
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
    if not 0.0 < fock._checked_real(dt, "dt") < math.inf:
        raise StepSizeError("dt must be positive and finite")
    if not 0.0 <= fock._checked_real(free_time, "free_time") < math.inf:
        raise StepSizeError("free_time must be finite and non-negative")
    if not 0.0 <= fock._checked_real(margin_epsilon, "margin_epsilon") <= 1.0:
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
    psi = initial.normalized().amplitudes
    w = np.empty((len(psi) + 1, len(psi)), dtype=complex)
    np.outer(psi, psi.conj(), out=w[:-1])
    w[-1] = psi
    size = min(n_steps + 1, max(1, _BLOCK_BYTES // w.nbytes))
    start = 0
    for block_times, states in _trotter_blocks(zip(segments, plan), w, d, n, size):
        block = slice(start, start + len(states))
        times[block] = block_times
        fid[block], pur[block], herm[block] = _observe(states, d, n)
        start = block.stop
    lambdas = np.linalg.eigvalsh(herm)[:, ::-1]
    if d == 6:
        f1, f2 = polytope._MERITS["f1"](lambdas), polytope._MERITS["f2"](lambdas)
        margin_ok = polytope._weakened_slacks(lambdas, margin_epsilon)[2]
    else:
        # The margin check is specific to six modes; other sectors report lambdas only.
        f1, f2 = np.full((2, len(times)), np.nan)
        margin_ok = np.ones(len(times), dtype=bool)

    # Rounding moves tr rho over many steps (1.5e-12 after 78,573): restore it.
    # (rho^H + rho) / (2 tr rho) is built in w, which holds the last state too,
    # and the block is released before MixedState checks it.
    rho, final = states[-1, :-1], w[:-1]
    np.conjugate(rho.T, out=final)
    final += rho
    final /= 2.0 * np.trace(rho).real
    del rho, states
    final = MixedState(d, n, final)
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


def _trotter_blocks(planned_segments, w: np.ndarray, d: int, n: int, size: int):
    """Yield (times, states) for t = 0 and after every step, in blocks of
    ``size`` states (the last may be shorter).  states[k, :-1] is rho and
    states[k, -1] is psi, the same run without noise, as a row.  The start
    ``w`` is the working state: it is overwritten, and holds the last state
    once the run ends.  Besides the block, the run holds one spare array of
    w's shape and the float kernel.  Both arrays yielded are overwritten
    once the next block is asked for.
    """
    times = np.zeros(size)
    states = np.empty((size,) + w.shape, dtype=complex)
    spare, kernel = np.empty_like(w), np.empty(w.shape)
    states[0], filled, t = w, 1, 0.0
    for (gate, rate, span), steps in planned_segments:
        delta = span / steps
        slice_ = None if gate is None else gate.scaled(1.0 / steps)
        rotation, factor, back = _segment(w, spare, kernel, slice_, rate * delta, d, n)
        for _ in range(steps):
            if filled == size:
                yield times, states
                filled = 0
            _step(w, rotation, factor)
            t += delta
            times[filled] = t
            if back is None:
                states[filled] = w
            else:
                _permute(w, back, spare, states[filled])
            filled += 1
        if back is not None:
            _permute(w, back, spare, w)
    yield times[:filled], states[:filled]


def _permute(x: np.ndarray, rows: np.ndarray, spare: np.ndarray, out: np.ndarray) -> None:
    """out = x[rows][:, rows[:-1]], row-wise into ``spare``, then column-wise into ``out``.

    ``out`` may be ``x``; ``spare`` shares memory with neither.
    """
    np.take(x, rows, axis=0, out=spare, mode="clip")
    np.take(spare, rows[:-1], axis=1, out=out, mode="clip")


def _segment(w: np.ndarray, spare, kernel, gate: GateOp | None, decay: float, d: int, n: int):
    """(rotation, factor, back) for the steps of one slice, or of free time.

    A rotation slice maps each of its pairs (a, b) = (src, dst) to
    (c a - mix b, c b + mix a); with a and b swapped where mix < 0, every
    pair turns by the same real matrix r = [[c, -|mix|], [|mix|, c]].  So w
    is permuted in place to a basis ordered by the pairs' a, then their b,
    then the rest, and ``rotation`` is r with the float views of the pairs'
    rows of rho and of their columns of w, which hold psi too.  ``back``
    permutes a state back to the sector basis (see _permute).  The float
    ``kernel`` is filled with the dephasing factors, which scale the
    coherence of two basis states by exp(-decay * hamming / 2), and is the
    ``factor``.  A phase slice is diagonal: rho -> p rho p^H and psi -> p psi
    join the kernel in ``spare``, which is then the ``factor``.
    """
    dim = w.shape[1]
    masks, rotation, back = fock._sector_masks(d, n), None, None
    if gate is not None and gate.kind != "phase":
        src, dst, mix, c = gates._gate_action(gate, d, n)
        flip = np.signbit(mix)
        rest = np.ones(dim, dtype=bool)
        rest[src] = rest[dst] = False
        rows = np.concatenate(
            [np.where(flip, dst, src), np.where(flip, src, dst), np.flatnonzero(rest), [dim]]
        )
        back = np.empty_like(rows)
        back[rows] = np.arange(dim + 1)
        _permute(w, rows, spare, w)
        masks = masks[rows[:-1]]
        m, s = len(src), abs(mix[0]) if len(src) else 0.0
        floats = w.view(float)
        rotation = (
            np.array([[c, -s], [s, c]]),
            floats[: 2 * m].reshape(2, 2 * m * dim),
            floats[:, : 4 * m].reshape(dim + 1, 2, 2 * m),
        )
    # The kernel depends on the Hamming distance alone: one exp per distance.
    # The XOR and its bit count are written as intp into the idle spare, so
    # the gather into the kernel allocates nothing.
    hamming = spare.view(np.intp).reshape(-1)[: dim * dim].reshape(dim, dim)
    np.bitwise_xor(masks[:, None], masks, out=hamming)
    np.bitwise_count(hamming, out=hamming)
    np.take(np.exp(-decay * np.arange(d + 1) / 2.0), hamming, out=kernel[:-1], mode="clip")
    kernel[-1] = 1.0
    if gate is None or gate.kind != "phase":
        return rotation, kernel, back
    phase = gates._gate_action(gate, d, n)
    np.outer(phase, phase.conj(), out=spare[:-1])
    spare[-1] = phase
    spare *= kernel
    return rotation, spare, back


def _step(w: np.ndarray, rotation, kernel: np.ndarray) -> None:
    """One Trotter step in place: the rotation slice, if any, then the kernel."""
    if rotation is not None:
        r, rows, cols = rotation
        np.matmul(r, rows, out=rows)
        np.matmul(r, cols, out=cols)
    w *= kernel


def _observe(states: np.ndarray, d: int, n: int):
    """Fidelity, purity and the Hermitian 1-RDM of a block of recorded states."""
    rho, psi = states[:, :-1], states[:, -1]
    flat = rho.reshape(len(rho), -1)
    gamma = fock._rdm_kernel(d, n, rho, density=True)
    return (
        np.real(psi.conj()[:, None, :] @ rho @ psi[:, :, None])[:, 0, 0],
        np.real(np.vecdot(flat, flat)),
        (gamma + np.swapaxes(gamma, 1, 2).conj()) / 2.0,
    )


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
