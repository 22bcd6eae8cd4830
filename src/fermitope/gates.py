"""Location-state gate set and the entangled-state preparation protocols.

The rotation gate acts on a pair of sites (i, j) as

    R_ij(phi) |1_i 0_j> =  cos(phi/2) |1_i 0_j> + sin(phi/2) |0_i 1_j>
    R_ij(phi) |0_i 1_j> = -sin(phi/2) |1_i 0_j> + cos(phi/2) |0_i 1_j>

and as the identity on |0_i 0_j> and |1_i 1_j>.  It is realized as the
exponential of the one-body generator (phi/2)(a_j^+ a_i - a_i^+ a_j), so
when sites between i and j are occupied the fermionic string sign enters
automatically.  The controlled rotation C^k_ij(phi) applies R_ij(phi) on
basis states with site k occupied and the identity otherwise.  The phase
gate acts as diag(e^{-i theta/2}, e^{+i theta/2}) on the ordered pair
(|1_i 0_j>, |0_i 1_j>).
"""

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import fock
from .errors import InvalidDimensionError, InvalidGateError, InvalidPulseError
from .fock import PureState, superposition

DEFAULT_ROTATION_DURATION = 20e-12
DEFAULT_CONTROLLED_DURATION = 60e-12

GATE_KINDS = ("rotation", "controlled_rotation", "phase")

# Relative tolerance of the dynamic-phase quadrature.
_PHASE_RTOL = 1e-9

# First rotation of the W chain: amplitudes (cos, sin) = (1/sqrt3, sqrt(2/3))
# on the pair, which in the half-angle convention above is the full angle
# 2*arcsin(sqrt(2/3)).
W_MIX_ANGLE = 2.0 * math.asin(math.sqrt(2.0 / 3.0))


@dataclass(frozen=True)
class GateOp:
    """A symbolic gate: kind, 1-based sites, angle (rad), optional duration (s).

    ``sites`` is (i, j) for rotation and phase gates and (k, i, j) for the
    controlled rotation, with k the control site.
    """

    kind: str
    sites: tuple[int, ...]
    angle: float
    duration: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise InvalidGateError(f"unknown gate kind {self.kind!r}")
        n_sites = 3 if self.kind == "controlled_rotation" else 2
        if len(self.sites) != n_sites:
            raise InvalidGateError(f"{self.kind} takes {n_sites} sites")
        try:
            for site in self.sites:
                fock._checked_integer(site, "gate site")
            fock._checked_real(self.angle, "gate angle")
            if self.duration is not None:
                fock._checked_real(self.duration, "gate duration")
        except InvalidDimensionError as err:
            raise InvalidGateError(str(err)) from None
        if len(set(self.sites)) != len(self.sites):
            raise InvalidGateError("gate sites must be distinct")
        if any(s < 1 for s in self.sites):
            raise InvalidGateError("sites are 1-based")
        if not math.isfinite(self.angle):
            raise InvalidGateError("gate angle must be finite")
        if self.duration is not None and not (
            math.isfinite(self.duration) and self.duration > 0
        ):
            raise InvalidGateError("gate duration must be positive")

    def inverse(self) -> "GateOp":
        return replace(self, angle=-self.angle)

    def scaled(self, fraction: float) -> "GateOp":
        return replace(self, angle=self.angle * fraction)

    def to_json(self) -> dict:
        return {
            "type": self.kind,
            "sites": list(self.sites),
            "angle_rad": self.angle,
            "duration_s": self.duration,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GateOp":
        return cls(
            kind=data["type"],
            sites=tuple(data["sites"]),
            angle=float(data["angle_rad"]),
            duration=data.get("duration_s"),
        )


def rotation(i: int, j: int, angle: float, duration: float | None = None) -> GateOp:
    return GateOp("rotation", (i, j), angle, duration)


def controlled_rotation(
    k: int, i: int, j: int, angle: float, duration: float | None = None
) -> GateOp:
    return GateOp("controlled_rotation", (k, i, j), angle, duration)


def phase_gate(i: int, j: int, angle: float, duration: float | None = None) -> GateOp:
    return GateOp("phase", (i, j), angle, duration)


@dataclass(frozen=True)
class Protocol:
    """An ordered, invertible gate sequence with a label."""

    label: str
    gates: tuple[GateOp, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))

    def total_duration(self) -> float:
        if any(g.duration is None for g in self.gates):
            raise InvalidGateError(f"protocol {self.label!r} has unset gate durations")
        return float(sum(g.duration for g in self.gates))

    def to_json(self) -> dict:
        return {"label": self.label, "gates": [g.to_json() for g in self.gates]}

    @classmethod
    def from_json(cls, data: dict) -> "Protocol":
        return cls(data["label"], tuple(GateOp.from_json(g) for g in data["gates"]))


# ---------------------------------------------------------------------------
# Gate application
# ---------------------------------------------------------------------------

def _check_sites(gate: GateOp, d: int) -> None:
    if max(gate.sites) > d:
        raise InvalidGateError(f"gate sites {gate.sites} exceed d={d}")


def _gate_action(gate: GateOp, d: int, n_particles: int):
    """How the gate acts on the sector basis; every gate application reads it.

    A phase gate is diagonal: the result is its phase vector p, a gather of
    (e^{+i angle/2}, 1, e^{-i angle/2}) at n_i - n_j + 1 from the cached
    ``fock._occupations``.  A rotation only mixes the pairs (src, dst) of
    ``fock._pair_transitions``, a controlled rotation those whose control
    row reads 1: the result is (src, dst, mix, c), and the gate maps
    a[src] -> c a[src] - mix a[dst] and a[dst] -> c a[dst] + mix a[src],
    with mix = sin(angle/2) times the pair's sign.
    """
    if gate.kind == "phase":
        i, j = gate.sites
        occupations = fock._occupations(d, n_particles)
        phases = np.array([np.exp(+1j * gate.angle / 2), 1.0, np.exp(-1j * gate.angle / 2)])
        return phases[occupations[i - 1] - occupations[j - 1] + 1]

    if gate.kind == "rotation":
        control = None
        i, j = gate.sites
    else:
        control, i, j = gate.sites

    src, dst, sign = fock._pair_transitions(d, n_particles, i, j)
    if control is not None:
        keep = fock._occupations(d, n_particles)[control - 1, src] == 1
        src, dst, sign = src[keep], dst[keep], sign[keep]
    return src, dst, math.sin(gate.angle / 2) * sign, math.cos(gate.angle / 2)


def _apply_in_place(amps: np.ndarray, gate: GateOp, d: int, n_particles: int) -> None:
    """Apply a gate along the last axis of an amplitude array, overwriting it."""
    if gate.kind == "phase":
        amps *= _gate_action(gate, d, n_particles)
        return
    src, dst, mix, c = _gate_action(gate, d, n_particles)
    a10 = amps[..., src]
    a01 = amps[..., dst]
    amps[..., src] = c * a10 - mix * a01
    amps[..., dst] = c * a01 + mix * a10


def apply_gate(state: PureState, gate: GateOp) -> PureState:
    """Unitary, particle-number-conserving action of one gate."""
    return _applied(state, (gate,))


def gate_matrix(gate: GateOp, d: int, n_particles: int) -> np.ndarray:
    """Dense unitary of the gate on the sector basis."""
    _check_sites(gate, d)
    rows = np.eye(fock.sector_dim(d, n_particles), dtype=np.complex128)
    _apply_in_place(rows, gate, d, n_particles)
    return rows.T


def apply_protocol(state: PureState, protocol: Protocol) -> PureState:
    return _applied(state, protocol.gates)


def _applied(state: PureState, ops: tuple[GateOp, ...]) -> PureState:
    """The state after ``ops``: every site checked first, one copy, one PureState."""
    for gate in ops:
        _check_sites(gate, state.d)
    amps = state.amplitudes.copy()
    for gate in ops:
        _apply_in_place(amps, gate, state.d, state.n_particles)
    return PureState(state.d, state.n_particles, amps)


def invert_protocol(protocol: Protocol) -> Protocol:
    """Reversed gate list with negated angles; exact inverse when noiseless."""
    return Protocol(
        label=f"{protocol.label}-inverse",
        gates=tuple(g.inverse() for g in reversed(protocol.gates)),
    )


# ---------------------------------------------------------------------------
# The four entanglement classes
# ---------------------------------------------------------------------------

_SQ2 = math.sqrt(2.0)
_SQ3 = math.sqrt(3.0)


@dataclass(frozen=True)
class EntanglementClass:
    """One class of three fermions in six modes, as the paper states it."""

    terms: dict[str, float]  # target amplitude per occupation string
    gates: tuple[GateOp, ...]  # chain preparing the target from |101010>
    occupations: tuple[float, ...]  # natural occupations, descending
    facets: tuple[tuple, ...]  # (coefficients, bound, sense, label) its polytope adds
    merit: str | None = None  # merit function the class is expected to violate
    folded_draws: tuple[int, ...] = ()  # perturbation draws taken as |draw|: gamma0_ii = 0


# The W target carries a minus sign on |011001>: written with ascending
# site order, reordering its creation operators costs one transposition.
# The final full-turn rotation of the W chain only contributes a global
# sign but is kept for its duration.  Facet coefficients keep the int or
# float literals that ``PolytopeSpec.to_json`` writes out.
CLASSES = {
    "slater": EntanglementClass(
        terms={"101010": 1.0},
        gates=(),
        occupations=(1.0, 1.0, 1.0, 0.0, 0.0, 0.0),
        facets=(
            ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 1.0, "==", "lam1=1"),
            ((0.0, 1.0, 0.0, 0.0, 0.0, 0.0), 1.0, "==", "lam2=1"),
            ((0.0, 0.0, 1.0, 0.0, 0.0, 0.0), 1.0, "==", "lam3=1"),
        ),
    ),
    "epr": EntanglementClass(
        terms={"101010": 1 / _SQ2, "010110": 1 / _SQ2},
        gates=(
            rotation(1, 2, math.pi / 2, DEFAULT_ROTATION_DURATION),
            controlled_rotation(2, 3, 4, math.pi, DEFAULT_CONTROLLED_DURATION),
        ),
        occupations=(1.0, 0.5, 0.5, 0.5, 0.5, 0.0),
        facets=(
            ((1.0, 0.0, 0.0, 0.0, 0.0, 0.0), 1.0, "==", "lam1=1"),
            ((0, 1, -1, 0, 0, 0), 0.0, "==", "lam2=lam3"),
        ),
        merit="f_slater",
        folded_draws=(5,),
    ),
    "w": EntanglementClass(
        terms={"101010": 1 / _SQ3, "010110": 1 / _SQ3, "011001": -1 / _SQ3},
        gates=(
            rotation(1, 2, W_MIX_ANGLE, DEFAULT_ROTATION_DURATION),
            controlled_rotation(2, 3, 4, math.pi / 2, DEFAULT_CONTROLLED_DURATION),
            controlled_rotation(4, 5, 6, math.pi, DEFAULT_CONTROLLED_DURATION),
            controlled_rotation(2, 3, 4, math.pi, DEFAULT_CONTROLLED_DURATION),
            rotation(1, 2, 2 * math.pi, DEFAULT_ROTATION_DURATION),
        ),
        occupations=(2 / 3, 2 / 3, 2 / 3, 1 / 3, 1 / 3, 1 / 3),
        facets=(
            ((1, 1, -1, 0, 0, 0), 1.0, "<=", "lam1+lam2-lam3<=1"),
            ((1.0, 1.0, 1.0, 0.0, 0.0, 0.0), 2.0, ">=", "lam1+lam2+lam3>=2"),
        ),
        merit="f_epr",
    ),
    "ghz": EntanglementClass(
        terms={"101010": 1 / _SQ2, "010101": 1 / _SQ2},
        gates=(
            rotation(1, 2, math.pi / 2, DEFAULT_ROTATION_DURATION),
            controlled_rotation(2, 3, 4, math.pi, DEFAULT_CONTROLLED_DURATION),
            controlled_rotation(4, 5, 6, math.pi, DEFAULT_CONTROLLED_DURATION),
        ),
        occupations=(0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
        facets=(((1, 1, -1, 0, 0, 0), 1.0, "<=", "lam1+lam2-lam3<=1"),),
        merit="f_w",
    ),
}


def entanglement_class(label: str) -> EntanglementClass:
    """The ``CLASSES`` entry of a label, in any case."""
    entry = CLASSES.get(label.lower())
    if entry is None:
        raise InvalidDimensionError(f"unknown class {label!r}; choose from {tuple(CLASSES)}")
    return entry


def target_state(label: str) -> PureState:
    """Canonical entangled target state of a class on the (d=6, N=3) sector."""
    return superposition(6, entanglement_class(label).terms)


def build_protocol(target: str) -> Protocol:
    """Gate chain preparing the target from |101010>.

    Applied to the Slater state, the chains visit the standard
    intermediate states and end on ``target_state(target)`` up to a
    global phase.
    """
    return Protocol(target.lower(), entanglement_class(target).gates)


# ---------------------------------------------------------------------------
# Dynamic phase of the driven pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PulseSpec:
    """Drive of one site pair: Rabi frequencies (rad/s), detuning, duration."""

    omega0: Callable[[float], float]
    omega1: Callable[[float], float]
    detuning: float
    duration: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.detuning) and math.isfinite(self.duration)):
            raise InvalidPulseError("detuning and duration must be finite")
        if self.duration <= 0:
            raise InvalidPulseError("pulse duration must be positive")


def dynamic_phase(pulse: PulseSpec) -> float:
    """Accumulated phase of the slow dressed state over the pulse.

    Evaluates -integral_0^T (sqrt(O0^2 + O1^2 + (Delta/2)^2) - Delta/2) dt
    by adaptive quadrature.  Non-positive for non-negative detuning.
    """
    half = pulse.detuning / 2.0

    def integrand(t: float) -> float:
        o0, o1 = pulse.omega0(t), pulse.omega1(t)
        return math.sqrt(o0 * o0 + o1 * o1 + half * half) - half

    probe = [integrand(t) for t in np.linspace(0.0, pulse.duration, 33)]
    if not all(math.isfinite(v) for v in probe):
        raise InvalidPulseError("pulse integrand is not finite on [0, T]")

    # Imported here so that ``import fermitope`` does not load scipy.
    from scipy.integrate import quad

    value, _ = quad(
        integrand, 0.0, pulse.duration, epsrel=_PHASE_RTOL, epsabs=1e-30, limit=500
    )
    return -value
