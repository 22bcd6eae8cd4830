"""Entropy functional over occupation polytopes: the maximum Shannon entropy of lam/N.

The pairings leave x = (lam1, lam2, lam3) and E = ln 3 + (1/3) sum_i H(x_i), H the binary
entropy, over rows A x <= b and the box.  Vertices: every triple of rows, box rows included, is
solved at once and kept if feasible within 1e-9.  None means no feasible point; coordinates at 0
or 1 on all of them are pinned, rows tight on all of them are equalities.  Dual (Boyd &
Vandenberghe, Convex Optimization, 2004, ch. 5): for mu >= 0 (free on equalities),
E <= ln 3 + D(mu) with D(mu) = b.mu + (1/3) sum_i softplus(-3 (A^T mu)_i), the Lagrangian's
peak, at x_i = 1 / (1 + exp(3 (A^T mu)_i)).  The vertices' mean is strictly feasible, so D
attains its minimum, where the bound is tight: Newton's method finds it; the gap certifies E."""

import itertools
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
_TOL = 1e-9
_CHUNK = 3 << 15  # row indices, 2^15 triples, per batched solve: bounds the memory


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


def _reduce_spec(spec: PolytopeSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eliminate lam4..lam6: (A_eq, b_eq, A_ub, b_ub) over (lam1, lam2, lam3), A_ub x <= b_ub."""
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


def _vertices(rows: np.ndarray, rhs: np.ndarray, eq: np.ndarray) -> np.ndarray:
    """Points of rows @ x <= rhs (== on eq, as two rows) where three independent rows are tight."""
    both, limit = np.vstack([rows, -rows[eq]]), np.concatenate([rhs, -rhs[eq]]) + _TOL
    triples = itertools.chain.from_iterable(itertools.combinations(range(len(rows)), 3))
    found = [np.empty((0, 3))]
    while len(idx := np.fromiter(itertools.islice(triples, _CHUNK), int)):
        r = rows[idx := idx.reshape(-1, 3)]
        idx = idx[np.abs(np.einsum("ij,ij->i", r[:, 0], np.cross(r[:, 1], r[:, 2]))) > 1e-12]
        x = np.linalg.solve(rows[idx], rhs[idx][..., None])[..., 0]
        x = x[np.all(np.abs(x - 0.5) <= 0.5 + _TOL, axis=1)]  # the box first: it is cheap
        found.append(x[np.all(x @ both.T <= limit, axis=1)])
    return np.concatenate(found)


def _dual(a: np.ndarray, b: np.ndarray, mu: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """D(mu), its gradient b - a x and x, the Lagrangian's argmax; batched over mu's rows."""
    s = 3.0 * (mu @ a)
    x = np.exp(-np.logaddexp(0.0, s))
    return mu @ b + np.logaddexp(0.0, -s).sum(axis=-1) / 3.0, b - x @ a.T, x


def _newton(a: np.ndarray, b: np.ndarray, eq: np.ndarray) -> np.ndarray:
    """Projected Newton on D over mu >= 0 (free on eq); along the Hessian's null space, where
    D is linear, until a multiplier reaches 0.  Once the search no longer moves mu, one more
    Newton step with signs free puts x on the rows that hold it."""
    mu = np.zeros(len(b))
    for _ in range(300):
        _, grad, x = _dual(a, b, mu)
        free = eq | (mu > 0) | (grad < -1e-14)
        w, v = np.linalg.eigh(3.0 * (a[free] * (x * (1.0 - x))) @ a[free].T)
        keep, proj = w > 1e-12 * w.max(initial=1.0), v.T @ grad[free]
        newton, flat = np.zeros_like(mu), np.zeros_like(mu)
        newton[free] = -v @ np.where(keep, proj / np.where(keep, w, 1.0), 0.0)
        newton /= max(1.0, np.abs(newton @ a).max(initial=0.0))  # x near 0 or 1: no curvature
        flat[free] = v @ np.where(keep, 0.0, proj)
        lift = ~eq & (flat > 1e-12)
        step = newton - max(0.0, min((mu + newton)[lift] / flat[lift], default=0.0)) * flat
        # One batch of trials: the full step, then halvings from where a multiplier hits 0.  D is
        # convex, so it did not rise where its gradient opposes the move (its value would round).
        block = ~eq & (mu > 0) & (step < 0)
        t = np.append(1.0, min(mu[block] / -step[block], default=1.0) * 0.5 ** np.arange(30))
        trials = np.where(eq | ((trials := mu + t[:, None] * step) > 1e-12), trials, 0.0)
        ok = np.einsum("ij,ij->i", _dual(a, b, trials)[1], trials - mu) <= 0.0
        if not ok.any() or np.array_equal(trials[ok.argmax()], mu):
            return mu + newton
        mu = trials[ok.argmax()]
    return mu


def quantum_functional(spec: PolytopeSpec) -> EntropyValue:
    """Maximal entropy of lam/N over ``spec`` and [0, 1]^6 (the Pauli bound), and its argmax."""
    A_eq, b_eq, A_ub, b_ub = _reduce_spec(spec)
    rows = np.vstack([A_eq, A_ub, np.eye(3), -np.eye(3)])
    # Rows with coefficients below 1 are scaled up to 1: the tolerance is a slack, as in
    # PolytopeSpec.contains, or else a distance.  Past 4 times them, b decides the whole box.
    big = np.maximum(np.abs(rows).max(axis=1), np.all(rows == 0.0, axis=1))
    rhs = np.clip(np.concatenate([b_eq, b_ub, np.ones(3), np.zeros(3)]), -4 * big, 4 * big)
    scale = np.minimum(big, 1.0)
    rows, rhs, eq = rows / scale[:, None], rhs / scale, np.arange(len(rows)) < len(A_eq)
    if not len(vertices := _vertices(rows, rhs, eq)):
        raise InfeasiblePolytopeError(f"{spec.label!r} has no feasible point")
    eq |= np.all(rhs - vertices @ rows.T <= _TOL, axis=0)
    pinned = (ones := vertices.min(axis=0) >= 1.0 - _TOL) | (vertices.max(axis=0) <= _TOL)
    # Equalities, and rows the vertices' mean misses within the tolerance, go through it.
    x = np.where(pinned, ones, vertices.mean(axis=0))
    rhs = np.where(eq, rows @ x, np.maximum(rhs, rows @ x)) - rows[:, pinned] @ x[pinned]
    a, b = rows[:-6, ~pinned], rhs[:-6]  # the box rows go: the entropy's domain is the box
    bound, _, x[~pinned] = _dual(a, b, _newton(a, b, eq[:-6]))
    if not spec.contains(lam := np.concatenate([x, 1.0 - x[::-1]])):
        raise InfeasiblePolytopeError(f"solver left {spec.label!r}")
    if np.log(_N_PARTICLES) + bound - (value := shannon_entropy(lam / _N_PARTICLES)) > 1e-9:
        raise ToolkitError(f"duality gap of {spec.label!r} exceeds 1e-9")
    return EntropyValue(value, lam)
