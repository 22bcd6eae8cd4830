"""Constraint machinery on natural-occupation vectors.

Covers the three-in-six setting: the pure-state occupation-number
inequality lam1 + lam2 + lam4 <= 2 with its pairing equalities
lam_i + lam_{7-i} = 1, the four entanglement-class polytopes, the merit
functions used to certify class violations, the few-fermion-entanglement
polytopes, the weakened inequalities valid for slightly mixed states, and
a stochastic search for states saturating them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock, gates
from .errors import InvalidDimensionError, UnsupportedCaseError
from .fock import MixedState

MEMBERSHIP_TOL = 1e-9

CLASS_LABELS = tuple(gates.CLASSES)
CLASS_OCCUPATIONS = {label: np.array(c.occupations) for label, c in gates.CLASSES.items()}

# Merit functions over (..., 6) arrays of descending occupations.
_MERITS = {
    "f_slater": lambda lam: lam[..., 1] - 1.0,
    "f_epr": lambda lam: lam[..., 0] - 1.0,
    "f_w": lambda lam: lam[..., 0] + lam[..., 1] + lam[..., 2] - 2.0,
    "f1": lambda lam: lam[..., 0] + lam[..., 1] - lam[..., 2],
    "f2": lambda lam: lam[..., 0] + lam[..., 1] + lam[..., 3],
}


def _as_lambda(occupations, length: int = 6) -> np.ndarray:
    lam = np.asarray(occupations, dtype=np.float64)
    if lam.shape != (length,):
        raise InvalidDimensionError(f"occupation vector must have length {length}")
    if not np.all(np.isfinite(lam)):
        raise InvalidDimensionError("occupation vector must be finite")
    return lam


@dataclass(frozen=True)
class LinearInequality:
    """A constraint  coefficients . lam  (<= | >= | ==)  bound."""

    coefficients: tuple[float, ...]
    bound: float
    sense: str
    label: str = ""

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise InvalidDimensionError(f"unknown sense {self.sense!r}")
        entries = (*self.coefficients, self.bound)
        if not all(math.isfinite(fock._checked_real(x, "inequality entry")) for x in entries):
            raise InvalidDimensionError("inequality entries must be finite")

    def value(self, lam: np.ndarray) -> float:
        return float(np.dot(self.coefficients, lam))

    def slack(self, lam: np.ndarray) -> float:
        """Signed slack; satisfied within tol iff slack >= -tol."""
        v = self.value(lam)
        if self.sense == "<=":
            return self.bound - v
        if self.sense == ">=":
            return v - self.bound
        return -abs(v - self.bound)

    def to_json(self) -> dict:
        return {
            "coefficients": list(self.coefficients),
            "bound": self.bound,
            "sense": self.sense,
            "label": self.label,
        }


@dataclass(frozen=True)
class PolytopeSpec:
    """A labelled set of linear constraints on (lam_1, ..., lam_6)."""

    label: str
    inequalities: tuple[LinearInequality, ...]

    def slacks(self, occupations) -> dict[str, float]:
        lam = _as_lambda(occupations)
        return {ineq.label: ineq.slack(lam) for ineq in self.inequalities}

    def contains(self, occupations, tol: float = MEMBERSHIP_TOL) -> bool:
        return all(s >= -tol for s in self.slacks(occupations).values())

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "inequalities": [ineq.to_json() for ineq in self.inequalities],
        }


def _e(*idx: int) -> tuple[float, ...]:
    c = [0.0] * 6
    for i in idx:
        c[i - 1] = 1.0
    return tuple(c)


def _common_constraints() -> list[LinearInequality]:
    cons = [
        LinearInequality(_e(1), 1.0, "<=", "lam1<=1"),
        LinearInequality((1, -1, 0, 0, 0, 0), 0.0, ">=", "lam1>=lam2"),
        LinearInequality((0, 1, -1, 0, 0, 0), 0.0, ">=", "lam2>=lam3"),
        LinearInequality(_e(3), 0.5, ">=", "lam3>=1/2"),
    ]
    for i in range(1, 4):
        cons.append(
            LinearInequality(_e(i, 7 - i), 1.0, "==", f"lam{i}+lam{7 - i}=1")
        )
    return cons


def class_polytope(label: str) -> PolytopeSpec:
    """Occupation polytope of one of the four entanglement classes."""
    facets = [LinearInequality(*facet) for facet in gates.entanglement_class(label).facets]
    return PolytopeSpec(label.lower(), tuple(_common_constraints() + facets))


# ---------------------------------------------------------------------------
# Merit functions and pure-state membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeritReport:
    """Merit-function values and per-constraint slacks at one lam."""

    f_slater: float
    f_epr: float
    f_w: float
    f1: float
    f2: float
    slacks: dict[str, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "F_Slater": self.f_slater,
            "F_EPR": self.f_epr,
            "F_W": self.f_w,
            "F1": self.f1,
            "F2": self.f2,
            "slacks": dict(self.slacks),
        }


def merit_values(occupations) -> MeritReport:
    """Merit functions of a sorted occupation vector.

    F_Slater = lam2 - 1 and F_EPR = lam1 - 1 are facet slacks of the
    Slater and EPR polytopes; F_W = lam1 + lam2 + lam3 - 2 is the W-facet
    slack oriented so that the characteristic states give the reference
    values -1/2, -1/3 and -1/2.  F1 and F2 are the two mixed-state
    figures of merit.
    """
    lam = _as_lambda(occupations)
    slacks = {
        "bd": 2.0 - _MERITS["f2"](lam),
        "pair_16": -abs(lam[0] + lam[5] - 1.0),
        "pair_25": -abs(lam[1] + lam[4] - 1.0),
        "pair_34": -abs(lam[2] + lam[3] - 1.0),
    }
    return MeritReport(
        **{name: float(merit(lam)) for name, merit in _MERITS.items()}, slacks=slacks
    )


def check_pure_bd(
    occupations, tol: float = MEMBERSHIP_TOL
) -> tuple[MeritReport, bool]:
    """Pure-state membership: the sum inequality plus pairing equalities."""
    lam = _as_lambda(occupations)
    if np.any(lam[:-1] < lam[1:] - tol):
        raise InvalidDimensionError("occupations must be sorted descending")
    if np.any(lam < -tol) or np.any(lam > 1 + tol):
        raise InvalidDimensionError("occupations must lie in [0, 1]")
    report = merit_values(lam)
    member = all(s >= -tol for s in report.slacks.values())
    return report, member


# ---------------------------------------------------------------------------
# Few-fermion entanglement polytopes
# ---------------------------------------------------------------------------

def check_m_fermion(
    occupations,
    n_particles: int,
    n_modes: int,
    m: int,
    tol: float = MEMBERSHIP_TOL,
) -> bool:
    """Membership in the (at most) m-fermion-entangled polytope.

    Requires the leading N - m occupations to equal one and the remaining
    tail to obey the constraints of m fermions in d - (N - m) modes.
    Known tails: a single fermion (rank-one), two fermions (pairwise
    degenerate, trailing zero when the mode count is odd), and the
    three-in-six case.
    """
    if not (1 <= m <= n_particles <= n_modes):
        raise UnsupportedCaseError(
            f"need 1 <= m <= N <= d, got m={m}, N={n_particles}, d={n_modes}"
        )
    lam = _as_lambda(occupations, length=n_modes)
    lead = n_particles - m
    if np.any(np.abs(lam[:lead] - 1.0) > tol):
        return False
    tail = lam[lead:]
    d_tail = n_modes - lead

    if m == 1:
        template = np.zeros(d_tail)
        template[0] = 1.0
        return bool(np.all(np.abs(tail - template) <= tol))
    if m == 2:
        pairs_ok = all(
            abs(tail[2 * k] - tail[2 * k + 1]) <= tol for k in range(d_tail // 2)
        )
        odd_ok = d_tail % 2 == 0 or abs(tail[-1]) <= tol
        return bool(pairs_ok and odd_ok)
    if m == 3 and d_tail == 6:
        try:
            _, member = check_pure_bd(tail, tol=tol)
        except InvalidDimensionError:
            return False
        return member
    raise UnsupportedCaseError(
        f"no constraint table for m={m} fermions in {d_tail} modes"
    )


# ---------------------------------------------------------------------------
# Weakened conditions for slightly mixed states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeakenedReport:
    """Slacks of the two weakened inequalities at a given mixedness."""

    epsilon: float
    slack_f1: float
    slack_f2: float
    member: bool

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "slack_f1": self.slack_f1,
            "slack_f2": self.slack_f2,
            "member": self.member,
        }


def _weakened_slacks(lam: np.ndarray, epsilon: float):
    """(slack_f1, slack_f2, member) of check_weakened over (..., 6) arrays."""
    s1 = (1.0 + epsilon) - _MERITS["f1"](lam)
    s2 = (2.0 + epsilon) - _MERITS["f2"](lam)
    return s1, s2, (s1 >= -MEMBERSHIP_TOL) & (s2 >= -MEMBERSHIP_TOL)


def check_weakened(occupations, epsilon: float) -> WeakenedReport:
    """Slacks of lam1+lam2-lam3 <= 1+eps and lam1+lam2+lam4 <= 2+eps.

    No pairing equalities are assumed; for a mixed state the two
    inequalities are independent.
    """
    if not 0.0 <= fock._checked_real(epsilon, "epsilon") <= 1.0:
        raise InvalidDimensionError("epsilon must lie in [0, 1]")
    s1, s2, member = _weakened_slacks(_as_lambda(occupations), epsilon)
    return WeakenedReport(
        epsilon=epsilon,
        slack_f1=float(s1),
        slack_f2=float(s2),
        member=bool(member),
    )


# ---------------------------------------------------------------------------
# Stochastic search for extremal slightly mixed states
# ---------------------------------------------------------------------------

# The hill climb's settings: purification rank, first step, annealing
# (step *= 0.95 after every 100 consecutive rejections), the block norm
# at or below which a proposal is skipped, and the proposals scored per
# round, fewer than 100 so that a round's steps anneal at most once.
# Fewer than 1% of proposals are accepted, so scoring 32 at once from the
# current state wastes little: those after an accepted one are scored
# again from the new state.
_RANK = 2
_INITIAL_STEP = 0.5
_ANNEAL_FACTOR = 0.95
_ANNEAL_AFTER = 100
_DEGENERATE_NORM = 1e-14
_PROPOSALS = 32


@dataclass(frozen=True)
class HillClimbResult:
    """The best state found; ``evaluations`` counts the proposals scored,
    including those a round scores after the one it accepts."""

    state: MixedState
    value: float
    objective: str
    epsilon: float
    iterations: int
    accepted: int
    evaluations: int
    final_step: float


def _norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of complex (..., n) vectors.

    Summed as ``np.linalg.norm`` sums one vector, one dot product for the
    real parts and one for the imaginary parts, so a batched climb
    reproduces the sequential one bit for bit.
    """
    re, im = x.real[..., None, :], x.imag[..., None, :]
    sq = re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2)
    return np.sqrt(sq[..., 0, 0])


def _mixture_lambdas(psi0: np.ndarray, block: np.ndarray, epsilon: float) -> np.ndarray:
    """Sorted 1-RDM eigenvalues of (1-eps)|psi0><psi0| + eps * BB^+/tr(BB^+).

    Takes (..., 20) states psi0 and (..., 20, rank) blocks B, and returns
    (..., 6) occupations.  The mixture's 1-RDM is the sum of the unnormalized
    ones of its 1 + rank purification rows, one Gram product per mixture.
    """
    trace = np.einsum("...cr,...cr->...", block.conj(), block).real
    rows = np.empty(psi0.shape[:-1] + (1 + block.shape[-1], psi0.shape[-1]), dtype=complex)
    np.multiply(psi0, math.sqrt(1.0 - epsilon), out=rows[..., 0, :])
    scale = np.sqrt(epsilon / trace)[..., None, None]
    np.multiply(scale, np.swapaxes(block, -1, -2), out=rows[..., 1:, :])
    gamma = fock._rdm_kernel(6, 3, rows)
    return np.linalg.eigvalsh(gamma)[..., ::-1]


def _project_out(block: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., 20, rank) blocks without their psi component, and their norms."""
    block = block - psi[..., :, None] * (psi.conj()[..., None, :] @ block)
    return block, _norms(block.reshape(*block.shape[:-2], -1))


def _round_steps(step: float, rejections: int, k: int) -> np.ndarray:
    """The step after j more consecutive rejections, for j < k, given rejections <
    _ANNEAL_AFTER and k <= _ANNEAL_AFTER: each step is annealed at most once."""
    annealed = np.arange(rejections, rejections + k) >= _ANNEAL_AFTER
    return np.where(annealed, step * _ANNEAL_FACTOR, step)


def hill_climb_extremal(
    epsilon: float,
    objective: str = "f1",
    seed: int = 0,
    iterations: int = 100_000,
) -> HillClimbResult:
    """Random search maximizing f1 or f2 over states of fixed mixedness.

    The state keeps the form rho = (1-eps)|psi0><psi0| + eps*rho1 with
    rho1 orthogonal to psi0 (a rank-2 purification block).  Both psi0 and
    the block receive Gaussian perturbations; a move is accepted when the
    objective increases, and the step size anneals by 0.95 after every
    100 consecutive rejections.  A proposal whose block lies in the span
    of psi0 is skipped.

    Each proposal sees the normals and the step a one-at-a-time loop
    would give it: its 120 normals come next from ``default_rng(seed)``,
    and its step assumes every earlier proposal of its round was
    rejected, which holds for every proposal up to the accepted one.
    """
    if not 0.0 < fock._checked_real(epsilon, "epsilon") < 1.0:
        raise InvalidDimensionError("epsilon must lie in (0, 1)")
    fock._checked_count(iterations, "iterations")
    if objective not in ("f1", "f2"):
        raise InvalidDimensionError(f"objective must be 'f1' or 'f2', got {objective!r}")
    merit = _MERITS[objective]

    rng = np.random.default_rng(fock.checked_seed(seed))
    dim = fock.sector_dim(6, 3)

    def random_unit(shape) -> np.ndarray:
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return v / np.linalg.norm(v)

    psi0 = random_unit(dim)
    block, norm = _project_out(random_unit((dim, _RANK)), psi0)
    block = block / norm

    best = float(merit(_mixture_lambdas(psi0, block, epsilon)))
    step, rejections = _INITIAL_STEP, 0
    accepted = evaluations = done = 0
    # Each proposal's normals in draw order: psi re, psi im, block re, block im.
    normals = np.empty((0, 2 * dim * (1 + _RANK)))
    while done < iterations:
        k = min(_PROPOSALS, iterations - done)
        if len(normals) < k:
            fresh = rng.standard_normal((k - len(normals), normals.shape[1]))
            normals = np.concatenate([normals, fresh])
        psi_re_im = normals[:k, : 2 * dim].reshape(k, 2, dim)
        blk_re_im = normals[:k, 2 * dim :].reshape(k, 2, dim, _RANK)
        # steps[j]: the step after j rejections, proposal j's for j < k.
        steps = _round_steps(step, rejections, k + 1)

        cand_psi = psi0 + steps[:k, None] * (psi_re_im[:, 0] + 1j * psi_re_im[:, 1])
        cand_psi = cand_psi / _norms(cand_psi)[:, None]
        d_blk = blk_re_im[:, 0] + 1j * blk_re_im[:, 1]
        cand_blk, norms = _project_out(block + steps[:k, None, None] * d_blk, cand_psi)
        # Score up to the first degenerate block; it is skipped, not rejected.
        live = norms > _DEGENERATE_NORM
        n = k if live.all() else int(np.argmin(live))
        cand_blk = cand_blk[:n] / norms[:n, None, None]
        values = merit(_mixture_lambdas(cand_psi[:n], cand_blk, epsilon))
        evaluations += n

        better = np.flatnonzero(values > best)
        if len(better):
            j = int(better[0])
            best = float(values[j])
            psi0, block = cand_psi[j], cand_blk[j]
            step, rejections = steps[j], 0
            accepted += 1
            used = j + 1
        else:
            step, rejections = steps[n], (rejections + n) % _ANNEAL_AFTER
            used = min(n + 1, k)
        normals = normals[used:]
        done += used

    weights = np.einsum("cr,cr->r", block.conj(), block).real
    rho1 = (block * (1.0 / weights.sum())) @ block.conj().T
    rho = (1.0 - epsilon) * np.outer(psi0, psi0.conj()) + epsilon * rho1
    rho = (rho + rho.conj().T) / 2
    return HillClimbResult(
        state=MixedState(6, 3, rho),
        value=best,
        objective=objective,
        epsilon=epsilon,
        iterations=iterations,
        accepted=accepted,
        evaluations=evaluations,
        final_step=float(step),
    )
