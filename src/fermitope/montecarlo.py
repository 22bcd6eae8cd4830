"""Error-margin analysis: how much 1-RDM noise still certifies violation.

Matrix entries of the theoretical 1-RDM gamma0 of a characteristic state
are perturbed by independent Gaussians of standard deviation sigma (real
diagonals; real and imaginary off-diagonal parts independently, mirrored
to keep the matrix Hermitian), so sample k is gamma0 + sigma * Delta_k.
A sample counts as a violation when the merit function of its sorted
eigenvalues is negative.  sigma* is the largest perturbation scale whose
violation probability p still reaches the requested confidence c, to the
resolution of 12 halvings of [0, 0.5] with common random numbers: every
point that bisection visits is a step m h of the grid h = 0.5 / 2**12.

For t > 1, gamma0 + t sigma Delta = t (gamma0 + sigma Delta) - (t-1) gamma0,
so by Ky Fan (lambda1 and lambda1+lambda2+lambda3 are convex) and
Courant-Fischer (lambda2(A + B) <= lambda2(A) + lambda1(B)), a sample
that does not violate at some sigma > 0 violates at no larger sigma,
provided merit(lambda(gamma0)) <= 0 and lambda1(gamma0) <= 1.  That holds
for every merit on epr, w and ghz.  Then p(m h) is non-increasing in
m >= 1, the bisection returns max{m h : p(m h) >= c} (0 if no step
passes), and so does any other search of the grid: m h is exact, and
each matrix's eigenvalues do not depend on the chunk it sits in.  A
sample violating at the upper end of a bracket violates at every step
inside it, one not violating at the lower end (m >= 1) at none, so a
step evaluates only the samples whose status differs between the ends.

The search first bisects the grid on the first _CHUNK_ROWS samples, a
pilot whose answer m' is final when there are no more samples.  All
samples are then evaluated once, at hi = min(2**12, m' + max(8, m' // 4)).
If p(hi) < c the search walks down over [0, hi], evaluating only the
samples that do not violate at hi, about 1 - c of them.  If p(hi) >= c
the pilot fell short: the samples violating at hi are evaluated at 0.5
and the search walks up over [hi, 2**12].  In all, about 1.1-1.4 full
evaluations of the samples, against 3.2-5.3 for a bisection down from
0.5 (the canonical pairs, n = 1e5; ghz/F_W hands 2.0-2.1 n rows to its
certificate, because the early stop below leaves rows to later steps).
Where the condition fails (slater with F_W) the search is that
bisection, evaluating every sample at every step.

F_EPR and F_Slater ask a question of inertia.  With A = I - gamma,
lambda1 < 1 iff A has no eigenvalue <= 0, and lambda2 < 1 iff A has at
most one.  So their status, in the search and in violation_probability,
comes from an LDL^H of A (L unit lower triangular, D = diag(d_k) real)
with no pivoting inside a row.  One symmetric permutation, fixed by
gamma0, puts the sites with the smallest 1 - gamma0_ii last: a site at
1 (epr's) gives a pivot near zero, and the last pivot divides nothing.
By Sylvester's law of inertia, A has as many negative eigenvalues as D
has negative pivots.  A row is decided when

    min_k |d_k| >= _TAU g^2 (1 + w),  g = prod_k (1 + |l_k|),
                                      w = sum_k |d_k| (1 + |l_k|^2),

with l_k the multipliers below pivot k and |.| the 2-norm.  Every other
row goes to eigvalsh.  A decided row gets the status that eigvalsh gives
it.  Let u = 2**-53, gamma the float sample that eigvalsh sees and M the
computed I - gamma, which differs from A by one rounding of each
diagonal entry: ||M - A|| <= u ||M||.

- The computed factors are exact for B = M + E, |E| <= c1 u |L||D||L^H|
  (the backward error of LDL^T without pivoting, c1 u = gamma_3n in real
  arithmetic and a small multiple of it in complex arithmetic; the
  rounding dropped with each pivot's imaginary part belongs to E).
  |L||D||L^H| = sum_k |d_k| |(1, l_k)| |(1, l_k)|^T, so ||E|| <= c1 u w,
  ||M|| <= (1 + c1 u) w and ||gamma|| <= 1 + (1 + u) ||M|| <= 1 + 2w.
- L is the product of the I + l_k e_k^T, and ||I - l_k e_k^T|| <=
  1 + |l_k|, so ||L^-1|| <= g: every eigenvalue of B has modulus at
  least min_k |d_k| / g^2 >= _TAU (1 + w).
- eigvalsh is backward stable: its eigenvalues are exact for gamma + F,
  ||F|| <= c2 u ||gamma|| <= c2 u (1 + 2w), c2 a modest constant.

By Weyl, A's eigenvalues lie within ||E|| + ||M - A|| <= (c1 + 2) u w
of B's, and the computed lambda_i within c2 u (1 + 2w) of 1 - A's.  Both
bounds are far below _TAU (1 + w): _TAU / u = 2**23, while c1 and c2 are
at most a few hundred at n = 6, and the rounding of g, w and the test
itself is a few u relative.  So every eigenvalue of A is further than
c2 u ||gamma|| from 0 and has the sign of B's, and lambda_i - 1 (whose
sign a float subtraction gets right) is positive for exactly as many i
as there are negative pivots.  Rows stay undecided near a singular
I - gamma (epr's zero pivot at sigma = 0, or lambda_i within about _TAU
of 1) or when the multipliers grow: 1.1-2.5% of n in a canonical search
at n = 1e5 (seeds 0 and 42), about 1,050 of them in the pilot's steps at
sigma = 0.5 and 0.25.  With the early stop below, 0-3 rows reach eigvalsh.

F_W = lambda1 + lambda2 + lambda3 - 2 needs no matrix.  Let t = tr gamma,
x the descending eigenvalues of gamma - (t/6) I, which sum to 0, y =
x1 + x2 + x3 >= 0 and S = |x|^2, the squared Frobenius norm of gamma's
traceless part.  Then lambda1 + lambda2 + lambda3 = t/2 + y and

    t/2 + sqrt(0.3 S) <= lambda1 + lambda2 + lambda3 <= t/2 + sqrt(1.5 S).

- Upper: y = (1/2) sum_i s_i x_i with s = (1, 1, 1, -1, -1, -1), so y <=
  (1/2) |s| sqrt(S) = sqrt(1.5 S) by Cauchy-Schwarz; equal at the
  spectrum (1, 1, 1, -1, -1, -1).
- Lower: for a fixed y the x with x_i >= x_(i+1), sum 0 and x1 + x2 + x3 =
  y form a bounded polytope of dimension 4, and the convex S is largest
  at one of its vertices, where 4 of the 5 order constraints are tight:
  x equals p on its first j entries and q on the rest.  For j = 1..5 that
  gives S = 10, 4, 2, 4, 10 times y^2/3.  The largest, at x = (y - 2z, z,
  z, z, z, -y - 2z) with |z| = y/3, gives S <= 10 y^2 / 3, so y >=
  sqrt(0.3 S); equal at the spectrum (1, 1, 1, 1, 1, -5).

gamma0 is diagonal (g) for every base, so both bounds come from the
draws: t = t0 + sigma sum_i d_i over the diagonal draws d, the traceless
diagonal v = (g - t0/6) + sigma (d - mean d), S = v.v + 2 sigma^2 times
the squared norm of the 30 off-diagonal draws, and ||gamma||_F^2 = t^2/6
+ S.  S is summed from centred terms: ||gamma||_F^2 - t^2/6 cancels (for
ghz, gamma0 = I/2) to an absolute error near u, which puts an error near
sqrt(u) on sqrt(S), above the margin.  A row is decided violating when
the upper bound is below 2 - _TAU (1 + ||gamma||_F), and not violating
when the lower bound is above 2 + _TAU (1 + ||gamma||_F).  The margin
covers every rounding between these bounds and eigvalsh's status:

- Each entry of the float sample eigvalsh sees takes at most two
  roundings (sigma times a draw, plus g_i), so it is within 2u
  ||gamma||_F of gamma in the Frobenius norm, and lambda1 + lambda2 +
  lambda3 moves by at most sqrt(3) times that.
- t and v carry absolute errors of a few u (|t0| + sigma |d|_1), and the
  norms relative errors of a few u.  ||gamma0||_F <= sqrt(6) and sigma |d|
  <= ||gamma||_F + sqrt(6), so the computed t/2 and sqrt(S) are within a
  few tens of u (1 + ||gamma||_F) of the exact ones.
- eigvalsh's backward error moves the sum by at most 3 c2 u ||gamma||, and
  the merit's three float operations add a few u (|lambda| + 2).

All of this stays far below _TAU (1 + ||gamma||_F) = 2**23 u (1 +
||gamma||_F), so a decided row gets eigvalsh's status.  At sigma* (n =
1e5) the upper bound alone decides 98.4-98.6% of the ghz rows.

The rows a certificate leaves undecided go to eigvalsh one chunk at a
time.  In the monotone search a step passes when k / n >= c, k its
violators (np.mean's float test), so the step can tell _violations how
many violators it needs.  Resolution stops once the violators found
reach that number (the step passes) or the violators found plus the rows
left fall short of it (it fails).  The rows left are then marked
violating in a passing step and not violating in a failing one.  Each
step's outcome is exact, and so is every status read later: a failing
step only ever becomes the upper end v_hi of a bracket, where only its
True statuses are used, and those are proved; a passing step only the
lower end v_lo, where only its False statuses are used, and those are
proved too.  A row whose status was guessed lies in v_lo & ~v_hi and is
evaluated again at the next step.  So the search visits the same steps
with the same outcomes, and sigma* does not change.  In a ghz/F_W search
at n = 1e5, 0.07-0.08 n rows reach eigvalsh (1.39 n without the bounds).
violation_probability and the non-monotone bisection resolve every row.

Samples are perturbed and diagonalised in fixed chunks of _CHUNK_ROWS
rows.  Sampling uses the counter-based Philox generator so runs are
reproducible regardless of how samples are batched.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock, gates, polytope
from .errors import InvalidDimensionError

# Merit paired with the state expected to violate it, and those merits.
CANONICAL_PAIRING = {label: c.merit for label, c in gates.CLASSES.items() if c.merit}
MERIT_LABELS = tuple(CANONICAL_PAIRING.values())

_N_MODES = 6

# Samples perturbed and diagonalised at once.  A chunk's temporaries
# (about 3 MB) stay small enough that the allocator reuses the same pages
# from chunk to chunk.  At 8192 rows and n_samples = 2e4, glibc returned
# them to the system after each chunk and faulted them in again: 12x the
# minor page faults of 2048 rows.  Per-chunk call overhead is below 1%.
_CHUNK_ROWS = 2048

# Bins of a merit histogram.
_BINS = 200

# sigma* lies on the grid m * _STEP, 0 <= m <= _TOP, that 12 halvings of
# [0, 0.5] resolve.  Both are exact binary fractions, so m * _STEP is the
# float each halving would compute.
_TOP = 2**12
_STEP = 0.5 / _TOP

# Steps above the pilot's answer at which all samples are first evaluated:
# at least _MARGIN_STEPS, or a quarter of the pilot's step.
_MARGIN_STEPS = 8

# Merits whose status is the inertia of I - gamma: a sample violates when
# I - gamma has at most this many negative eigenvalues.
_INERTIA_FORMS = {"f_epr": 0, "f_slater": 1}

# Largest sigma accepted.  numpy's ziggurat returns standard normals below
# 14 in magnitude (a tail draw is r + x, r = 3.654, x <= 53 ln 2 / r), so
# sigma * |draw| < 1.4e151, and its square summed over a sample's 36
# entries stays below 1e305: every perturbed entry and norm is finite.
_MAX_SIGMA = 1e150

# Certificate of a decided LDL^H row, 2**23 times the unit roundoff; the
# module docstring shows that this keeps it far above both methods' error.
_TAU = 2.0**-30


@dataclass(frozen=True)
class PerturbationSpec:
    """Gaussian perturbation of a characteristic state's 1-RDM."""

    base_state: str
    sigma: float
    n_samples: int
    seed: int

    def __post_init__(self) -> None:
        gates.entanglement_class(self.base_state)
        _check_sigma(self.sigma)
        if fock.checked_integer(self.n_samples, "n_samples") < 1:
            raise InvalidDimensionError("n_samples must be >= 1")


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= sigma <= _MAX_SIGMA:
        raise InvalidDimensionError(f"sigma must lie in [0, {_MAX_SIGMA:g}]")


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


def _base_and_draws(
    base_state: str, n_samples: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """gamma0 of the base state and the draws of its ``n_samples`` perturbations."""
    if fock.checked_integer(n_samples, "n_samples") < 1:
        raise InvalidDimensionError("n_samples must be >= 1")
    folded = list(gates.entanglement_class(base_state).folded_draws)
    draws = _standard_draws(n_samples, fock.checked_seed(seed))
    draws[:, folded] = np.abs(draws[:, folded])
    return theoretical_rdm(base_state), draws


def _perturbed_batch(gamma0: np.ndarray, sigma: float, draws: np.ndarray) -> np.ndarray:
    """(n, 6, 6) Hermitian matrices gamma0 + sigma * Delta, Delta from the draws.

    Stored with the sample axis last: ``.transpose(1, 2, 0)`` of the
    result is a C-contiguous (6, 6, n) array.
    """
    d = _N_MODES
    draws = draws.T
    re = draws[d : d + 15]
    im = draws[d + 15 :]

    out = np.empty((d, d, draws.shape[1]), dtype=np.complex128)
    out[...] = gamma0[:, :, None]
    rows, cols = np.triu_indices(d, k=1)
    out[rows, cols] += sigma * (re + 1j * im)
    out[cols, rows] += sigma * (re - 1j * im)
    idx = np.arange(d)
    out[idx, idx] += sigma * draws[:d]
    return out.transpose(2, 0, 1)


def _merit_values(
    gamma0: np.ndarray, merit_fn, sigma: float, draws: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Merits of the samples ``draws[rows]``, ``_CHUNK_ROWS`` at a time."""
    out = np.empty(len(rows))
    for start in range(0, len(rows), _CHUNK_ROWS):
        chunk = rows[start : start + _CHUNK_ROWS]
        lam = np.linalg.eigvalsh(_perturbed_batch(gamma0, sigma, draws[chunk]))[:, ::-1]
        out[start : start + len(chunk)] = merit_fn(lam)
    return out


def _violations(
    gamma0: np.ndarray,
    merit: str,
    sigma: float,
    draws: np.ndarray,
    rows: np.ndarray,
    needed: int | None = None,
) -> np.ndarray:
    """Whether each sample ``draws[rows]`` violates (merit < 0).

    ``_certificate`` decides what it can, chunk by chunk; the other rows go
    through ``_merit_values`` one chunk at a time.  Given ``needed``, the
    violators among ``rows`` that a search step needs to pass, the
    resolution stops once the count can no longer change whether it
    passes: the rows left are then marked violating if it passes and not
    violating if it fails.
    """
    merit_fn = polytope._MERITS[merit]
    out = np.empty(len(rows), dtype=bool)
    decided = np.empty(len(rows), dtype=bool)
    for start in range(0, len(rows), _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        out[part], decided[part] = _certificate(gamma0, merit, sigma, draws[rows[part]])
    rest = np.flatnonzero(~decided)
    found = np.count_nonzero(out)
    for start in range(0, len(rest), _CHUNK_ROWS):
        if needed is not None and not found < needed <= found + len(rest) - start:
            out[rest[start:]] = found >= needed
            break
        chunk = rest[start : start + _CHUNK_ROWS]
        out[chunk] = _merit_values(gamma0, merit_fn, sigma, draws, rows[chunk]) < 0.0
        found += np.count_nonzero(out[chunk])
    return out


def _certificate(
    gamma0: np.ndarray, merit: str, sigma: float, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(violates, decided) for each perturbation in ``draws``; violates is False where undecided.

    F_EPR and F_Slater read the inertia of I - gamma from ``_ldl_inertia``,
    and F_W bounds the sum of the top three eigenvalues by ``_top_three_bounds``.
    """
    if merit in _INERTIA_FORMS:
        order = np.argsort(np.diag(gamma0).real, kind="stable")
        m = _perturbed_batch(gamma0, sigma, draws).transpose(1, 2, 0)
        m = m[order[:, None], order]
        negatives, decided = _ldl_inertia(np.subtract(np.eye(_N_MODES)[:, :, None], m, out=m))
        return decided & (negatives <= _INERTIA_FORMS[merit]), decided
    lower, upper, margin = _top_three_bounds(np.diag(gamma0).real, sigma, draws)
    violates = upper < 2.0 - margin
    return violates, violates | (lower > 2.0 + margin)


def _top_three_bounds(
    g: np.ndarray, sigma: float, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, upper, margin) per perturbation of diag(g): bounds on lambda1+lambda2+lambda3.

    t / 2 + sqrt(0.3 S) and t / 2 + sqrt(1.5 S), with t = tr gamma and S
    the squared norm of gamma's traceless part, summed from the centred
    diagonal and the off-diagonal draws; margin = _TAU (1 + ||gamma||_F).
    """
    t0 = g.sum()
    diag = draws[:, :_N_MODES]
    t = t0 + sigma * diag.sum(axis=1)
    v = (g - t0 / _N_MODES) + sigma * (diag - diag.mean(axis=1, keepdims=True))
    off = draws[:, _N_MODES:]
    s = np.einsum("ij,ij->i", v, v) + 2.0 * sigma**2 * np.einsum("ij,ij->i", off, off)
    margin = _TAU * (1.0 + np.sqrt(t**2 / _N_MODES + s))
    return t / 2.0 + np.sqrt(0.3 * s), t / 2.0 + np.sqrt(1.5 * s), margin


def _ldl_inertia(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(negative pivots, decided) of the LDL^H of each matrix m[:, :, r].

    ``m`` is (n, n, rows), Hermitian in its first two axes, and is
    overwritten.  A row stays decided while its pivots and multipliers
    pass the certificate of the module docstring; once it fails, its
    multipliers are set to zero, so no division by a small pivot and no
    growth of its entries follows.
    """
    n, _, n_rows = m.shape
    negatives = np.zeros(n_rows, dtype=np.int64)
    decided = np.ones(n_rows, dtype=bool)
    smallest = np.full(n_rows, np.inf)
    growth = np.ones(n_rows)  # g
    weight = np.ones(n_rows)  # 1 + w
    for k in range(n):
        d = m[k, k].real
        size = np.abs(d)
        negatives += d < 0.0
        np.minimum(smallest, size, out=smallest)
        decided &= smallest >= _TAU * growth**2 * (weight + size)
        if k == n - 1:
            break
        col = m[k + 1 :, k] / np.where(decided, d, 1.0)
        col *= decided
        norm2 = np.einsum("ij,ij->j", col.real, col.real) + np.einsum(
            "ij,ij->j", col.imag, col.imag
        )
        growth *= 1.0 + np.sqrt(norm2)
        weight += size * (1.0 + norm2)
        m[k + 1 :, k + 1 :] -= col[:, None, :] * (col.conj() * d)
    return negatives, decided


def sample_perturbed_rdm(spec: PerturbationSpec, sample_index: int = 0) -> np.ndarray:
    """One Hermitian perturbed 1-RDM sample (sigma = 0 returns the base).

    Draws only the first ``sample_index + 1`` samples: Philox's first rows
    do not depend on how many rows are drawn.
    """
    if not 0 <= fock.checked_integer(sample_index, "sample_index") < spec.n_samples:
        raise InvalidDimensionError("sample_index outside 0..n_samples-1")
    gamma0, draws = _base_and_draws(spec.base_state, sample_index + 1, spec.seed)
    return _perturbed_batch(gamma0, spec.sigma, draws[sample_index:])[0]


def merit_samples(
    base_state: str, merit: str, sigma: float, n_samples: int, seed: int
) -> np.ndarray:
    """Merit values of ``n_samples`` perturbed 1-RDMs."""
    merit_fn, gamma0, draws = _checked_base_and_draws(base_state, merit, sigma, n_samples, seed)
    return _merit_values(gamma0, merit_fn, sigma, draws, np.arange(n_samples))


def violation_probability(
    base_state: str, merit: str, sigma: float, n_samples: int = 10**5, seed: int = 0
) -> float:
    """Fraction of perturbed samples with merit < 0."""
    _, gamma0, draws = _checked_base_and_draws(base_state, merit, sigma, n_samples, seed)
    return float(np.mean(_violations(gamma0, merit, sigma, draws, np.arange(n_samples))))


def _checked_base_and_draws(
    base_state: str, merit: str, sigma: float, n_samples: int, seed: int
):
    """Checked merit function, gamma0 and draws; warns the caller's caller if merit is unpaired."""
    _check_sigma(sigma)
    merit_fn = _merit(merit)
    gamma0, draws = _base_and_draws(base_state, n_samples, seed)
    base = base_state.lower()
    if CANONICAL_PAIRING.get(base) != merit:
        warnings.warn(
            f"{base!r} is conventionally paired with {CANONICAL_PAIRING.get(base)!r},"
            f" not {merit!r}",
            stacklevel=3,
        )
    return merit_fn, gamma0, draws


def max_tolerated_sigma(
    base_state: str,
    merit: str,
    confidence: float = 0.999,
    n_samples: int = 10**5,
    seed: int = 0,
) -> float:
    """Largest sigma whose violation probability still reaches confidence.

    The float that 12 halvings of [0, 0.5] with common random numbers
    give: a step of the grid 0.5 / 2**12, or 0 if no step passes.  The
    module docstring describes the pilot, the one evaluation of all
    ``n_samples`` and the walk down or up that find it.
    """
    if not 0.5 < confidence < 1.0:
        raise InvalidDimensionError("confidence must lie in (0.5, 1)")
    merit_fn = _merit(merit)
    gamma0, draws = _base_and_draws(base_state, n_samples, seed)
    lam0 = np.linalg.eigvalsh(gamma0)[::-1]
    monotone = merit_fn(lam0) <= 0.0 and lam0[0] <= 1.0

    def status(m: int, v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
        """Violations at step m of the first len(v_hi) samples.

        v_lo and v_hi are their statuses at a lower step (all True at
        step 0, which tells nothing) and a higher one (all False if none).
        """
        out = v_hi.copy()
        if monotone:
            rows = np.flatnonzero(v_lo & ~v_hi)
            needed = _violators_needed(len(v_hi), confidence) - np.count_nonzero(v_hi)
        else:
            rows, needed = np.arange(len(v_hi)), None
        out[rows] = _violations(gamma0, merit, m * _STEP, draws, rows, needed)
        return out

    def search(lo: int, hi: int, v_lo: np.ndarray, v_hi: np.ndarray) -> int:
        return _largest_passing_step(status, confidence, lo, hi, v_lo, v_hi)

    everyone = np.ones(n_samples, dtype=bool)
    # Without monotonicity only the bisection over every sample is exact:
    # then the pilot takes every sample and is the whole search.
    k = min(n_samples, _CHUNK_ROWS) if monotone else n_samples
    m_hat = search(0, _TOP, everyone[:k], status(_TOP, everyone[:k], ~everyone[:k]))
    if k == n_samples:
        return m_hat * _STEP
    hi = min(_TOP, m_hat + max(_MARGIN_STEPS, m_hat // 4))
    v_hi = status(hi, everyone, ~everyone)
    if hi < _TOP and np.mean(v_hi) >= confidence:
        # The pilot fell short; only samples violating at hi can violate above it.
        return search(hi, _TOP, v_hi, status(_TOP, v_hi, ~everyone)) * _STEP
    return search(0, hi, everyone, v_hi) * _STEP


def _violators_needed(n: int, confidence: float) -> int:
    """Fewest violators k among n samples with k / n >= confidence, the test of np.mean."""
    k = math.ceil(confidence * n)
    while k > 0 and (k - 1) / n >= confidence:
        k -= 1
    while k / n < confidence:
        k += 1
    return k


def _largest_passing_step(status, confidence, lo, hi, v_lo, v_hi) -> int:
    """Largest grid step in [lo, hi] whose violation fraction reaches confidence.

    ``v_lo`` and ``v_hi`` are the violation statuses at steps lo and hi;
    step lo is taken to pass.  ``status(m, v_lo, v_hi)`` gives the status
    at a step between them.  Started on [0, 2**12], its midpoints are the
    points the float bisection of [0, 0.5] visits.
    """
    if np.mean(v_hi) >= confidence:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v_mid = status(mid, v_lo, v_hi)
        if np.mean(v_mid) >= confidence:
            lo, v_lo = mid, v_mid
        else:
            hi, v_hi = mid, v_mid
    return lo


def merit_histogram(
    base_state: str,
    merit: str,
    sigma: float,
    n_samples: int = 10**5,
    seed: int = 0,
    bins: int = _BINS,
) -> tuple[np.ndarray, np.ndarray]:
    """(bin_centers, counts) for the merit distribution at one sigma."""
    return _histogram(merit_samples(base_state, merit, sigma, n_samples, seed), bins)


def _histogram(values: np.ndarray, bins: int = _BINS) -> tuple[np.ndarray, np.ndarray]:
    counts, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts
