"""Entropy functional over occupation polytopes.

For a class polytope the functional is the maximum Shannon entropy of the
scaled occupations lam/N over the polytope.  In the three-in-six setting
the pairing equalities reduce the problem to the coordinates
(lam1, lam2, lam3).  The entropy is strictly concave and separable and the
polytope is convex, so the local maximum SLSQP finds is the global one; a
phase-1 linear program supplies a feasible start or proves the polytope
empty.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasiblePolytopeError,
    InvalidDistributionError,
    ToolkitError,
    UnsupportedCaseError,
)
from .polytope import PolytopeSpec

_N_PARTICLES = 3
_CLIP = 1e-12


def shannon_entropy(distribution) -> float:
    """Shannon entropy (nats) of a probability vector, with 0 log 0 = 0."""
    p = np.asarray(distribution, dtype=np.float64)
    if p.ndim != 1 or not np.all(np.isfinite(p)):
        raise InvalidDistributionError("distribution must be a finite 1-d vector")
    if np.any(p < -1e-12):
        raise InvalidDistributionError("distribution entries must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise InvalidDistributionError("distribution must sum to 1 within 1e-9")
    p = np.clip(p, 0.0, None)
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


@dataclass(frozen=True)
class EntropyValue:
    """Maximal scaled-occupation entropy and where it is attained."""

    value: float
    argmax: np.ndarray

    def to_json(self) -> dict:
        return {"E": self.value, "argmax": [float(x) for x in self.argmax]}


def _full_lambda(x: np.ndarray) -> np.ndarray:
    """(..., 3) reduced coordinates -> (..., 6) occupations via pairings."""
    return np.concatenate([x, 1.0 - x[..., ::-1]], axis=-1)


def _entropy_reduced(x: np.ndarray) -> np.ndarray:
    """Entropy of lam/N at reduced coordinates x, batched over rows."""
    lam = np.clip(_full_lambda(x), 0.0, None) / _N_PARTICLES
    terms = np.where(lam > 0, lam * np.log(np.where(lam > 0, lam, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def _entropy_gradient(x: np.ndarray) -> np.ndarray:
    """d/dx_i of the reduced entropy; finite thanks to interior clipping."""
    xc = np.clip(x, _CLIP, 1.0 - _CLIP)
    return np.log((1.0 - xc) / xc) / _N_PARTICLES


def _reduce_spec(spec: PolytopeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eliminate lam4..lam6 through the pairing equalities.

    Returns (A_eq, b_eq, A_ub, b_ub) over x = (lam1, lam2, lam3) with all
    inequalities oriented as A_ub @ x <= b_ub.
    """
    rows = spec.inequalities
    if any(np.shape(ineq.coefficients) != (6,) for ineq in rows):
        raise UnsupportedCaseError("functional requires length-6 constraints")
    c = np.array([ineq.coefficients for ineq in rows], dtype=np.float64).reshape(-1, 6)
    sense = np.array([ineq.sense for ineq in rows], dtype=str)
    sign = np.where(sense == ">=", -1.0, 1.0)
    a = sign[:, None] * (c[:, :3] - c[:, 3:][:, ::-1])
    bound = np.array([ineq.bound for ineq in rows], dtype=np.float64)
    b = sign * (bound - c[:, 3:].sum(axis=1))
    eq = sense == "=="
    pairing = eq & np.all(np.abs(a) <= 1e-8, axis=1) & (np.abs(b) < 1e-12)
    if pairing.sum() < 3:
        raise UnsupportedCaseError("polytope must include the three pairing equalities")
    kept = eq & ~pairing
    return a[kept], b[kept], a[~eq], b[~eq]


def quantum_functional(spec: PolytopeSpec) -> EntropyValue:
    """Maximize the scaled-occupation entropy over a polytope.

    Returns the maximum together with the maximizing occupation vector.
    Occupations are confined to [0, 1] (the Pauli bound) on top of ``spec``.
    SLSQP starts from the Chebyshev centre, since from a start outside the
    polytope it can stall in a line search and end outside it.
    """
    # Imported here so that ``import fermitope`` does not load scipy.
    from scipy.optimize import linprog, minimize

    A_eq, b_eq, A_ub, b_ub = _reduce_spec(spec)
    # Phase 1 over (x, r) in [0, 1]^4: max r, A_eq x = b_eq, A_ub x + |a_i| r <= b_ub.
    lp = linprog(
        c=[0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([A_ub, np.linalg.norm(A_ub, axis=1)[:, None]]),
        b_ub=b_ub,
        A_eq=np.hstack([A_eq, np.zeros((len(A_eq), 1))]),
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * 4,
    )
    if lp.status == 2:
        raise InfeasiblePolytopeError(f"{spec.label!r} has no feasible point")
    if lp.status != 0:
        raise ToolkitError(f"phase-1 program of {spec.label!r} failed: {lp.message}")
    res = minimize(
        lambda x: -_entropy_reduced(x),
        lp.x[:3],
        jac=lambda x: -_entropy_gradient(x),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * 3,
        # The default ftol of 1e-6 stops up to 5e-7 short of E on cut polytopes.
        options={"ftol": 1e-14},
        constraints=[
            {"type": "eq", "fun": lambda x: A_eq @ x - b_eq, "jac": lambda x: A_eq},
            {"type": "ineq", "fun": lambda x: b_ub - A_ub @ x, "jac": lambda x: -A_ub},
        ],
    )
    # res.success is no gate: SLSQP can report status 8 at a correct optimum.
    lam = _full_lambda(res.x)
    if not spec.contains(lam):
        raise InfeasiblePolytopeError(f"solver left {spec.label!r}: {res.message}")
    return EntropyValue(float(_entropy_reduced(res.x)), lam)
