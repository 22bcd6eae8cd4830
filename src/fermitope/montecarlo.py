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
for every pair but slater with F_W (merit 1), which max_tolerated_sigma
refuses, reading lambda(gamma0) from the class table.  Then p(m h) is
non-increasing in m >= 1, the bisection returns max{m h : p(m h) >= c}
(0 if no step passes), and so does any other search of the grid: m h is
exact, and each matrix's eigenvalues do not depend on the chunk it sits
in.  A sample violating at the upper end of a bracket violates at every
step inside it, one not violating at the lower end (m >= 1) at none, so
a step evaluates only the samples whose status differs between the ends.

The search first bisects the grid on the first _CHUNK_ROWS samples, a
pilot whose answer m' is final when there are no more samples.  All
samples are then evaluated once, at hi = min(2**12, m' + max(8, m' // 4)),
each block as it is drawn, and only those that the certificate does not
prove violating at hi are kept.  If p(hi) >= c and hi < 2**12, the
pilot fell short: all samples are drawn and evaluated again, at 0.5, the
same way.  The search then bisects [0, hi] or [hi, 2**12], evaluating
only the samples violating at the lower end and not at the upper one,
all kept there (about 1 - c of all samples below hi).

F_EPR and F_Slater ask a question of inertia.  With A = I - gamma,
lambda1 < 1 iff A has no eigenvalue <= 0, and lambda2 < 1 iff A has at
most one.  So their status, in the search and in violation_probability,
comes from an LDL^H of A (L unit lower triangular, D = diag(d_k) real)
with no pivoting inside a row.  One symmetric permutation, fixed by
gamma0, puts the sites with the smallest 1 - gamma0_ii last: a site at
1 (epr's) gives a pivot near zero, and the last pivot divides nothing.
The factorisation reads the permuted lower triangle straight from the
draws, in real arithmetic with one real and one imaginary array per
entry: with gamma0 = diag(g) (below), the diagonal (1 - g_i) - sigma
d_i, and below it -sigma (re - i im), conjugated where the permutation
swaps a pair's two sites.  By Sylvester's law of inertia, A has as many
negative eigenvalues as D has negative pivots.  A row is decided when

    min_k |d_k| >= _TAU g^2 (1 + w),  g = prod_k (1 + |l_k|),
                                      w = sum_k |d_k| (1 + |l_k|^2),

with l_k the multipliers below pivot k and |.| the 2-norm.  Every other
row goes to eigvalsh.  A decided row gets the status that eigvalsh gives
it.  Let u = 2**-53, gamma the float sample that eigvalsh sees (diagonal
fl(g_i + fl(sigma d_i)), off-diagonal parts fl(sigma re) and
fl(sigma im)), A = I - gamma exactly, and M the matrix the factorisation
starts from.  M's off-diagonal entries are A's (negation is exact).  Its
diagonal fl(fl(1 - g_i) - fl(sigma d_i)) differs from A's by the
roundings of 1 - g_i, of g_i + sigma d_i in gamma and of the
subtraction, at most u (|1 - g_i| + |gamma_ii| + |M_ii|) with 0 <= g_i
<= 1, so ||M - A|| <= 3u (1 + ||M||).

- The computed factors are exact for B = M + E, |E| <= c1 u |L||D||L^H|
  (the backward error of LDL^T without pivoting, c1 u = gamma_3n in real
  arithmetic and a small multiple of it for entries held as real and
  imaginary parts; each multiplier takes one more rounding, from the
  reciprocal of its pivot, and that belongs to E too).
  |L||D||L^H| = sum_k |d_k| |(1, l_k)| |(1, l_k)|^T, so ||E|| <= c1 u w,
  ||M|| <= (1 + c1 u) w and ||gamma|| <= 1 + ||A|| <= 2 (1 + w).
- L is the product of the I + l_k e_k^T, and ||I - l_k e_k^T|| <=
  1 + |l_k|, so ||L^-1|| <= g: every eigenvalue of B has modulus at
  least min_k |d_k| / g^2 >= _TAU (1 + w).
- eigvalsh is backward stable: its eigenvalues are exact for gamma + F,
  ||F|| <= c2 u ||gamma|| <= 2 c2 u (1 + w), c2 a modest constant.

By Weyl, A's eigenvalues lie within ||E|| + ||M - A|| <= (c1 + 7) u
(1 + w) of B's, and the computed lambda_i within 2 c2 u (1 + w) of 1 -
A's.  Both bounds are far below _TAU (1 + w): _TAU / u = 2**23, while c1
and c2 are at most a few hundred at n = 6, and the rounding of g, w and
the test itself is a few u relative.  So every eigenvalue of A is
further than c2 u ||gamma|| from 0 and has the sign of B's, and
lambda_i - 1 (whose sign a float subtraction gets right) is positive for
exactly as many i as there are negative pivots.  Rows stay undecided
near a singular I - gamma (epr's zero pivot at sigma = 0, or lambda_i
within about _TAU of 1) or when the multipliers grow.

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
||gamma||_F), so a decided row gets eigvalsh's status.

The rows a certificate leaves undecided go to eigvalsh in pieces of at
most _CHUNK_ROWS rows.  A step over n samples passes with
_violators_needed(n, c) violators (np.mean's test k / n >= c), counted
once for the pilot and once for all samples, and tells _violations how
many it still needs.  Resolution stops once the violators found reach
that number (the step passes) or the violators found plus the rows left
fall short of it (it fails), so each piece holds the fewest rows that
could settle the step, min(needed - found, found + left - needed + 1),
but at least _MIN_PIECE.  The rows left are then marked violating in a
passing step and not violating in a failing one.  Each step's outcome is
exact, and so is every status read later: a failing step only ever
becomes the upper end v_hi of a bracket, where only its True statuses
are used, and those are proved; a passing step only the lower end v_lo,
where only its False statuses are used, and those are proved too.  A row
whose status was guessed lies in v_lo & ~v_hi and is evaluated again at
the next step.  So the search visits the same steps with the same
outcomes, and sigma* does not change.  violation_probability resolves
every row.

merit_distribution (the CLI's --sigma) gives np.mean(v < 0) and
np.histogram(v, bins) of v = merit_samples(...) bit for bit, without
diagonalising every sample.  np.histogram's edges depend only on min v
and max v, and it puts x in the bin k with edges[k] <= x < edges[k+1]
(the last bin closed): it scales x to an index and corrects that by one
step against the edges.  So a merit is needed exactly only if it could
be the least or the largest, or its sign or bin is in doubt; anywhere
else the lower end of a proved enclosure of it has its sign and its bin.

Each block is perturbed (_perturbed_batch, the float matrices G that
eigvalsh sees) and reduced to a real tridiagonal T (diagonal a,
off-diagonal e) by Householder reflections over the whole block
(_tridiagonal).  Each descending eigenvalue the merit reads (lambda1 for
F_EPR, lambda2 for F_Slater, lambda1..lambda3 for F_W) is bisected
_BISECTIONS times with Sturm counts from Gershgorin's interval
(_sturm_bisection), and the interval [l, l + 2h] it ends with is widened
by _TAU (1 + ||T||_F) on each side.  The merit function, run on the lower
and on the upper ends, bounds the float merit_samples gives: each merit
is a float sum of the eigenvalues it reads, less a constant, and a float
sum is non-decreasing in each term.  Let u = 2**-53 and j the number of
eigenvalues below the one bisected.  The widened interval holds
eigvalsh's float lambda:

- Householder's reduction is backward stable: T is exactly unitarily
  similar to G + E1, ||E1|| <= c1 u ||G||_F with c1 a modest multiple of
  n^2 (Wilkinson, The Algebraic Eigenvalue Problem, 1965; Higham,
  Accuracy and Stability of Numerical Algorithms, 2002, sec. 19.3).  E1
  takes in the rounding of the sums of squares kept as e^2 and the
  imaginary rounding left on the diagonal, which is dropped.  The floor
  _E2_FLOOR on e^2 moves T by at most 2**-499 more.
- A Sturm count at a float x, the number of q_i = (a_i - x) - e_(i-1)^2 /
  q_(i-1) whose sign bit is set, is the exact number of eigenvalues below
  x of a tridiagonal T_x whose a_i - x differ from T's by u relative and
  whose e^2 by 2u relative (Kahan, 1966; Demmel, Dhillon and Ren, ETNA 3
  (1995) 116-149), so ||T_x - T|| <= u (|x| + 4 ||T||).  The floor keeps
  0/0 out, and a q_i of +-0 acts as one of that sign and vanishing size:
  the division gives the infinity such a q_i approaches, and the sign bit
  counts -0 as negative.  The counts need not be monotone in x; each is
  exact for its own T_x.
- l is Gershgorin's lower end or a point counted at most j, and the last
  point counted above j (or Gershgorin's upper end) is at most l + 2h plus
  a rounding of each step's x = l + h, a few u |x|.  Every x lies in
  Gershgorin's interval, |x| <= 3 ||T||_F, so by Weyl T's eigenvalue lies
  in [l - 7u ||T||_F, l + 2h + (7 + 3 _BISECTIONS) u ||T||_F].
- eigvalsh's eigenvalues are within c2 u ||G|| of G's (the error bound of
  LAPACK's Hermitian eigensolvers), c2 modest.

So eigvalsh's lambda lies within (c1 + c2 + 3 _BISECTIONS + 7) u ||G||_F +
2**-499 of [l, l + 2h], and the widening's own rounding is a few u |l|.
_TAU (1 + ||T||_F) = 2**23 u (1 + ||T||_F) is far above both, c1 and c2
being at most a few hundred at n = 6.  A row whose T, interval or merit
is not finite gets no enclosure and goes to eigvalsh.

The enclosures are made as each block is drawn.  The rows in doubt are
those whose enclosure holds 0 or is not finite, and those that could be
the least or the largest merit: the rows whose lower end is at most the
least upper end so far, of the enclosures and of the merits resolved (and
the same for the largest).  These bounds only tighten, so the draws of
the rows in doubt as their block is drawn are set aside in a list.
Before a block's rows would take it past _CHUNK_ROWS rows, and once more
after the stream, the rows in the list are judged again by the bounds so
far, those still in doubt go to eigvalsh in one call, and their merits
tighten the bounds.  Every other row's enclosure [lo, hi] then has min v
< lo <= hi < max v, and the least and the largest merit are resolved.
Once min v and max v give the edges, each block with rows whose
enclosure reaches an edge is drawn again from the Philox state saved
before it, up to its last such row, and those rows go to eigvalsh in one
call of its own.  One np.histogram of the exact merits where resolved
and the lower ends elsewhere then counts every bin as merit_samples'
values would.  At sigma = 0 every row ties for the least merit, and at
sigma = 1e-6 the widening is a tenth of a bin, so nearly every row goes
to eigvalsh after its enclosure.

The draws come from one counter-based Philox generator, _CHUNK_ROWS
rows at a time in stream order (_draw_blocks).  numpy fills each block
one normal after another, so the blocks stacked are the one-shot draw,
and no result depends on how samples are batched.  Samples are perturbed
and diagonalised in the same blocks, their matrices in one workspace
per call of merit_samples, merit_distribution or _resolve.  merit_samples
keeps only the n merit values, merit_distribution two bounds per sample,
one block's workspace and the draws of at most _CHUNK_ROWS rows set
aside, and violation_probability only its count of violators.
The search holds the pilot's block, then a few boolean masks over all n
samples and the draws and indices of the samples kept at hi, the draws
in pages of _CHUNK_ROWS rows (_KeptDraws), like the pilot's.  A pass at
0.5 keeps nearly every sample, 296 B each, which _MAX_SAMPLES bounds at
3.0 GB.
"""

import itertools
import math
import warnings
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import fock, gates, polytope
from .errors import InvalidDimensionError, UnsupportedCaseError

# Merit paired with the state expected to violate it, and those merits.
CANONICAL_PAIRING = {label: c.merit for label, c in gates.CLASSES.items() if c.merit}
MERIT_LABELS = tuple(CANONICAL_PAIRING.values())

_N_MODES = 6

# The draw of each entry of Delta: the diagonal draws, then the real parts of
# the 15 pairs above the diagonal, row by row, then their imaginary parts below.
_UPPER = np.triu_indices(_N_MODES, k=1)
_DRAW_COLUMN = np.diag(np.arange(_N_MODES))
_DRAW_COLUMN[_UPPER] = np.arange(_N_MODES, _N_MODES + 15)
_DRAW_COLUMN.T[_UPPER] = np.arange(_N_MODES + 15, 36)

# Samples drawn, perturbed and diagonalised at once.  A block's draws and
# temporaries take about 2.4 MB.  At 8192 rows and n_samples = 2e4, glibc
# returned them to the system after each chunk and faulted them in again:
# 12x the minor page faults of 2048 rows.  Per-chunk call overhead is below 1%.
_CHUNK_ROWS = 2048

# Floats per row of a perturbed matrix (36 complex entries), and per row of
# the workspace that merit_distribution reuses for every block's enclosures:
# that matrix and its Householder reduction's work (25).  Made anew for each
# block, these 2 MB went back to the system and were faulted in again, 290
# minor page faults per block and a fifth of the enclosures' time.
_MATRIX_FLOATS = 2 * _N_MODES**2
_WORKSPACE_FLOATS = _MATRIX_FLOATS + 2 * (_N_MODES - 1) ** 2

# Fewest undecided rows a search step sends to eigvalsh at once.  At 16, a
# ghz/F_W search (n = 1e5) sends 4,754 rows, not 4,759, in 2.4x the calls.
_MIN_PIECE = 64

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

# Descending eigenvalues (0 = lambda1) that each merit reads, the ones
# merit_distribution encloses.  An entry left out would only send every row
# to eigvalsh: the ends it is not given are NaN.
_EIGENVALUES_READ = {"f_epr": [0], "f_slater": [1], "f_w": [0, 1, 2]}

# Sturm bisections of each enclosed eigenvalue.  Each halves the enclosure;
# at 24 about one sample in 20,000 straddles a bin edge at sigma = 0.05 and
# needs its block drawn again, and a step more costs as much as that draw.
_BISECTIONS = 24

# Floor of the squared off-diagonal of a tridiagonal: no Sturm count divides
# 0 by 0, and T moves by at most 2**-499.
_E2_FLOOR = 2.0**-1000

# Largest sigma accepted.  numpy's ziggurat returns standard normals below
# 14 in magnitude (a tail draw is r + x, r = 3.654, x <= 53 ln 2 / r), so
# sigma * |draw| < 1.4e151, and its square summed over a sample's 36
# entries stays below 1e305: every perturbed entry and norm is finite.
_MAX_SIGMA = 1e150

# Largest n_samples accepted.  Draws are made and used _CHUNK_ROWS rows at
# a time, so what grows with n_samples is: 16 B per sample for the merit
# enclosures of merit_distribution (the CLI's --sigma), and 0.4 B for the
# generator states it saves; 8 B for the values of merit_samples; in a
# sigma* search, its 1 B masks and the samples it keeps, 296 B each (draws
# and index): nearly every sample after a pass at 0.5, 3.0 GB at this bound.
_MAX_SAMPLES = 10**7

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
        _check_samples(self.n_samples)
        _check_seed(self.seed)


def _check_sigma(sigma: float) -> None:
    if not 0.0 <= fock._checked_real(sigma, "sigma") <= _MAX_SIGMA:
        raise InvalidDimensionError(f"sigma must lie in [0, {_MAX_SIGMA:g}]")


def _check_samples(n_samples: int) -> None:
    fock._checked_count(n_samples, "n_samples")
    if n_samples > _MAX_SAMPLES:
        raise InvalidDimensionError(f"n_samples must be <= {_MAX_SAMPLES:,}")


def _check_seed(seed: int) -> None:
    if fock.checked_seed(seed) >= 2**128:  # Philox's key has 128 bits
        raise InvalidDimensionError(f"seed must be < 2**128, got {seed}")


def theoretical_rdm(base_state: str) -> np.ndarray:
    """Site-basis 1-RDM of a characteristic state (diagonal for all four)."""
    return fock.one_rdm(gates.target_state(base_state))


def _merit(merit: str):
    """The merit function over (..., 6) arrays of descending eigenvalues."""
    if merit not in MERIT_LABELS:
        raise InvalidDimensionError(f"unknown merit {merit!r}; choose from {MERIT_LABELS}")
    return polytope._MERITS[merit]


def _draw_blocks(
    base_state: str, n_samples: int, seed: int, states: list | None = None
) -> Iterator[np.ndarray]:
    """The draws of the first ``n_samples`` perturbations of the base state, in
    stream order and blocks of at most ``_CHUNK_ROWS`` rows.

    One Philox generator fills each block one normal after another, so the
    blocks stacked are its one-shot (n_samples, 36) draw bit for bit.  The
    body runs only when the first block is asked for: ``_base_and_blocks``
    checks the arguments.  A list ``states`` receives the generator's state
    before each block, from which ``_draw_block`` draws that block again.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, n_samples, _CHUNK_ROWS):
        if states is not None:
            states.append(rng.bit_generator.state)
        yield _draw_block(base_state, rng, min(_CHUNK_ROWS, n_samples - start))


def _draw_block(base_state: str, rng: np.random.Generator, rows: int) -> np.ndarray:
    """The next ``rows`` draws of ``rng``, the base state's folded draws taken as |draw|."""
    block = rng.standard_normal((rows, 36))
    folded = list(gates.entanglement_class(base_state).folded_draws)
    block[:, folded] = np.abs(block[:, folded])
    return block


def _base_and_blocks(
    base_state: str, n_samples: int, seed: int, states: list | None = None
) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """gamma0 of the base state and the ``_draw_blocks`` of its ``n_samples``
    perturbations; every argument is checked before a block is drawn."""
    _check_samples(n_samples)
    _check_seed(seed)
    gamma0 = theoretical_rdm(base_state)
    return gamma0, _draw_blocks(base_state, n_samples, seed, states)


def _perturbed_batch(
    gamma0: np.ndarray, sigma: float, draws: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """(n, 6, 6) Hermitian matrices gamma0 + sigma * Delta, Delta from the draws.

    Stored with the sample axis last: ``.transpose(1, 2, 0)`` of the
    result is a C-contiguous (6, 6, n) array.  gamma0 is diagonal (g), so
    the real and imaginary parts are written straight into the result's
    floats: g_r + sigma d_r on the diagonal with imaginary part +0, and
    0 + sigma re, 0 + sigma im above it and 0 + sigma re, 0 - sigma im
    below.  These are the floats of the complex sums gamma0 + sigma (re +-
    i im): adding gamma0's +0 turns a product of -0 (sigma = 0, or an
    underflow) into +0.  The one temporary holds 15 n values.  The first
    _MATRIX_FLOATS n values of ``out``, a contiguous float array, hold the result.
    """
    n = len(draws)
    draws = draws.T
    out = out[: _MATRIX_FLOATS * n].reshape(_N_MODES, _N_MODES, n, 2)
    rows, cols = _UPPER
    part = np.multiply(draws[_N_MODES : _N_MODES + 15], sigma)
    part += 0.0
    out[rows, cols, :, 0] = out[cols, rows, :, 0] = part
    np.multiply(draws[_N_MODES + 15 :], sigma, out=part)
    part += 0.0
    out[rows, cols, :, 1] = part
    out[cols, rows, :, 1] = np.subtract(0.0, part, out=part)
    diag = np.multiply(draws[:_N_MODES], sigma, out=part[:_N_MODES])
    diag += np.diag(gamma0).real[:, None]
    sites = range(_N_MODES)
    out[sites, sites, :, 0] = diag
    out[sites, sites, :, 1] = 0.0
    return out.view(np.complex128)[..., 0].transpose(2, 0, 1)


def _merit_values(
    gamma0: np.ndarray,
    merit_fn,
    sigma: float,
    draws: np.ndarray,
    rows: np.ndarray,
    workspace: np.ndarray,
) -> np.ndarray:
    """Merits of the samples ``draws[rows]``, at most ``_CHUNK_ROWS`` of them; their
    matrices are held in ``workspace`` (``_perturbed_batch``'s out)."""
    matrices = _perturbed_batch(gamma0, sigma, draws[rows], workspace)
    return merit_fn(np.linalg.eigvalsh(matrices)[:, ::-1])


def _violations(
    gamma0: np.ndarray,
    merit: str,
    sigma: float,
    draws: np.ndarray,
    rows: np.ndarray,
    needed: int | None = None,
) -> np.ndarray:
    """Whether each sample ``draws[rows]`` violates (merit < 0).

    ``_certificate`` decides what it can, chunk by chunk, and ``_resolve``
    the other rows.  Given ``needed``, the violators among ``rows`` that a
    search step needs to pass, only as many rows are resolved as could
    settle whether it passes.
    """
    out, decided = np.empty((2, len(rows)), dtype=bool)
    for start in range(0, len(rows), _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        out[part], decided[part] = _certificate(gamma0, merit, sigma, draws[rows[part]])
    rest = np.flatnonzero(~decided)
    if needed is not None:
        needed -= np.count_nonzero(out)
    out[rest] = _resolve(gamma0, merit, sigma, draws, rows[rest], needed)
    return out


def _resolve(
    gamma0: np.ndarray,
    merit: str,
    sigma: float,
    draws: np.ndarray,
    rows: np.ndarray,
    needed: int | None = None,
) -> np.ndarray:
    """Whether each sample ``draws[rows]``, left undecided by its certificate, violates.

    The rows go through ``_merit_values`` at most a chunk at a time, all in
    one workspace.  Given ``needed``, the violators among ``rows`` that a
    search step still needs to pass, each piece holds the fewest rows that
    could settle whether it passes, and the resolution stops once the count
    can no longer change that: the rows left are then marked violating if
    it passes and not violating if it fails.
    """
    merit_fn = polytope._MERITS[merit]
    out = np.empty(len(rows), dtype=bool)
    workspace = np.empty(_MATRIX_FLOATS * min(len(rows), _CHUNK_ROWS))
    found = done = 0
    while done < len(rows):
        size, left = _CHUNK_ROWS, len(rows) - done
        if needed is not None:
            if not found < needed <= found + left:
                out[done:] = found >= needed
                break
            fewest = min(needed - found, found + left - needed + 1)
            size = min(size, max(_MIN_PIECE, fewest))
        piece = out[done : done + size]
        values = _merit_values(gamma0, merit_fn, sigma, draws, rows[done : done + size], workspace)
        piece[:] = values < 0.0
        found += np.count_nonzero(piece)
        done += size
    return out


def _certificate(
    gamma0: np.ndarray, merit: str, sigma: float, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(violates, decided) for each perturbation in ``draws``; violates is False where undecided.

    F_EPR and F_Slater read the inertia of I - gamma from ``_ldl_inertia``,
    and F_W bounds the sum of the top three eigenvalues by ``_top_three_bounds``.
    """
    g = np.diag(gamma0).real
    if merit in _INERTIA_FORMS:
        negatives, decided = _ldl_inertia(g, sigma, draws)
        return decided & (negatives <= _INERTIA_FORMS[merit]), decided
    lower, upper, margin = _top_three_bounds(g, sigma, draws)
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
    diag = draws.take(np.diag(_DRAW_COLUMN), axis=1)
    t = t0 + sigma * diag.sum(axis=1)
    v = (g - t0 / _N_MODES) + sigma * (diag - diag.mean(axis=1, keepdims=True))
    off = draws[:, _N_MODES:]  # _DRAW_COLUMN puts every off-diagonal draw after these
    s = np.einsum("ij,ij->i", v, v) + 2.0 * sigma**2 * np.einsum("ij,ij->i", off, off)
    margin = _TAU * (1.0 + np.sqrt(t**2 / _N_MODES + s))
    return t / 2.0 + np.sqrt(0.3 * s), t / 2.0 + np.sqrt(1.5 * s), margin


def _ldl_inertia(g: np.ndarray, sigma: float, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(negative pivots, decided) of the LDL^H of I - gamma per perturbation of diag(g).

    Entry (a, b), a > b, of the permuted I - gamma is -sigma (re - i im)
    of the draws of sites (order[a], order[b]), conjugated where order[a]
    < order[b].  A row stays decided while its pivots and multipliers
    pass the certificate of the module docstring; once it fails, its
    multipliers are set to zero, so no division by a small pivot and no
    growth of its entries follows.
    """
    n, rows = _N_MODES, len(draws)
    order = np.argsort(g, kind="stable")
    a, b = np.tril_indices(n, k=-1)
    i, j = order[a], order[b]
    p, q = np.minimum(i, j), np.maximum(i, j)  # the pair's real part at (p, q), imaginary at (q, p)
    draws = draws.T
    lower = list(zip(a.tolist(), b.tolist()))
    re = dict(zip(lower, -sigma * draws[_DRAW_COLUMN[p, q]]))
    im = dict(zip(lower, np.where(i > j, sigma, -sigma)[:, None] * draws[_DRAW_COLUMN[q, p]]))
    diag = list((1.0 - g[order])[:, None] - sigma * draws[_DRAW_COLUMN[order, order]])

    negatives = np.zeros(rows, dtype=np.int64)
    decided = np.ones(rows, dtype=bool)
    smallest = np.full(rows, np.inf)
    growth = np.ones(rows)  # g
    weight = np.ones(rows)  # 1 + w
    for k, d in enumerate(diag):
        size = np.abs(d)
        negatives += d < 0.0
        np.minimum(smallest, size, out=smallest)
        decided &= smallest >= _TAU * growth**2 * (weight + size)
        if k == n - 1:
            break
        inv = decided / np.where(decided, d, 1.0)
        below = range(k + 1, n)
        l_re = {r: re[r, k] * inv for r in below}
        l_im = {r: im[r, k] * inv for r in below}
        norm2 = sum(l_re[r] ** 2 + l_im[r] ** 2 for r in below)
        growth *= 1.0 + np.sqrt(norm2)
        weight += size * (1.0 + norm2)
        # Entry (r, c) loses l_r conj(l_c) d = l_r conj(entry (c, k)).
        for r in below:
            diag[r] -= l_re[r] * re[r, k] + l_im[r] * im[r, k]
            for c in range(k + 1, r):
                re[r, c] -= l_re[r] * re[c, k] + l_im[r] * im[c, k]
                im[r, c] -= l_im[r] * re[c, k] - l_re[r] * im[c, k]
    return negatives, decided


def sample_perturbed_rdm(spec: PerturbationSpec, sample_index: int = 0) -> np.ndarray:
    """One Hermitian perturbed 1-RDM sample (sigma = 0 returns the base).

    Draws only the first ``sample_index + 1`` samples, and holds one block
    of them at a time: Philox's first rows do not depend on how many rows
    are drawn.
    """
    if not 0 <= fock._checked_integer(sample_index, "sample_index") < spec.n_samples:
        raise InvalidDimensionError("sample_index outside 0..n_samples-1")
    gamma0, blocks = _base_and_blocks(spec.base_state, sample_index + 1, spec.seed)
    last = deque(blocks, maxlen=1)[0]
    return _perturbed_batch(gamma0, spec.sigma, last[-1:], np.empty(_MATRIX_FLOATS))[0]


def merit_samples(
    base_state: str, merit: str, sigma: float, n_samples: int, seed: int
) -> np.ndarray:
    """Merit values of ``n_samples`` perturbed 1-RDMs, each block diagonalised as it is drawn."""
    merit_fn, gamma0, blocks = _checked_base_and_blocks(base_state, merit, sigma, n_samples, seed)
    out, start = np.empty(n_samples), 0
    workspace = np.empty(_MATRIX_FLOATS * min(n_samples, _CHUNK_ROWS))
    for block in blocks:
        # slice(None): the whole block as a view, not a copy.
        values = _merit_values(gamma0, merit_fn, sigma, block, slice(None), workspace)
        out[start : start + len(block)] = values
        start += len(block)
    return out


def violation_probability(
    base_state: str, merit: str, sigma: float, n_samples: int = 10**5, seed: int = 0
) -> float:
    """Fraction of perturbed samples with merit < 0, counted block by block as drawn."""
    _, gamma0, blocks = _checked_base_and_blocks(base_state, merit, sigma, n_samples, seed)
    violators = sum(
        np.count_nonzero(_violations(gamma0, merit, sigma, block, np.arange(len(block))))
        for block in blocks
    )
    return float(violators / n_samples)


def _checked_base_and_blocks(
    base_state: str,
    merit: str,
    sigma: float,
    n_samples: int,
    seed: int,
    states: list | None = None,
):
    """Checked merit function, gamma0 and draw blocks (their states put in
    ``states``, if given); warns the caller's caller if merit is unpaired."""
    _check_sigma(sigma)
    merit_fn = _merit(merit)
    gamma0, blocks = _base_and_blocks(base_state, n_samples, seed, states)
    base = base_state.lower()
    if CANONICAL_PAIRING.get(base) != merit:
        warnings.warn(
            f"{base!r} is conventionally paired with {CANONICAL_PAIRING.get(base)!r},"
            f" not {merit!r}",
            stacklevel=3,
        )
    return merit_fn, gamma0, blocks


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
    module docstring describes the pilot, the passes over all ``n_samples``
    at hi (and at 0.5 if hi passes), the bisection between them that finds
    it, and which draws each of them holds.  It is exact only where no
    violation returns as sigma grows, so a pair with merit > 0 or lambda1 > 1
    at sigma = 0 (slater with F_W) raises UnsupportedCaseError before any draw.
    """
    if not 0.5 < fock._checked_real(confidence, "confidence") < 1.0:
        raise InvalidDimensionError("confidence must lie in (0.5, 1)")
    merit_fn = _merit(merit)
    gamma0, blocks = _base_and_blocks(base_state, n_samples, seed)
    lam0 = np.array(gates.entanglement_class(base_state).occupations)
    if merit_fn(lam0) > 0.0 or lam0[0] > 1.0:
        raise UnsupportedCaseError(f"no sigma* search for {base_state!r} with {merit!r}")

    def status(m: int, needed: int, v_lo: np.ndarray, v_hi: np.ndarray) -> np.ndarray:
        """Violations at step m of the first len(v_hi) samples, exact as far as
        whether ``needed`` of them violate, from their statuses v_lo and v_hi
        at a lower and a higher step.  Sample kept[i] is draws[i], and every
        sample evaluated is kept."""
        out = v_hi.copy()
        rows = np.flatnonzero(v_lo & ~v_hi)
        at = np.searchsorted(kept, rows)
        out[rows] = _violations(gamma0, merit, m * _STEP, draws, at, needed - out.sum())
        return out

    draws = _KeptDraws()
    draws.append(next(blocks))
    kept, everyone = np.arange(draws.rows), np.ones(n_samples, dtype=bool)
    v_lo, needed = everyone[: len(kept)], _violators_needed(len(kept), confidence)
    lo, hi, v_hi = 0, _TOP, status(_TOP, needed, v_lo, ~v_lo)
    if len(kept) < n_samples:
        m_hat = _largest_passing_step(status, needed, lo, hi, v_lo, v_hi)
        needed, v_lo = _violators_needed(n_samples, confidence), everyone
        hi = min(_TOP, m_hat + max(_MARGIN_STEPS, m_hat // 4))
        # The pilot's one page is its whole first block.
        v_hi, kept, draws = _streamed_step(
            gamma0, merit, hi * _STEP, itertools.chain(draws.pages, blocks), n_samples, needed
        )
        if hi < _TOP and np.count_nonzero(v_hi) >= needed:
            # The pilot fell short: only samples violating at hi can violate above it.
            lo, v_lo, hi = hi, v_hi, _TOP
            blocks = _draw_blocks(base_state, n_samples, seed)
            v_hi, kept, draws = _streamed_step(gamma0, merit, hi * _STEP, blocks, n_samples, needed)
    return _largest_passing_step(status, needed, lo, hi, v_lo, v_hi) * _STEP


def _streamed_step(
    gamma0: np.ndarray,
    merit: str,
    sigma: float,
    blocks: Iterable[np.ndarray],
    n_samples: int,
    needed: int,
) -> tuple[np.ndarray, np.ndarray, "_KeptDraws"]:
    """(violates, kept, draws[kept]) at sigma for the ``n_samples`` samples in ``blocks``.

    Each block is certified as it comes; only the samples not proved
    violating are kept, by index and by draws.  Their undecided rows are
    resolved as in ``_violations``, exact as far as whether ``needed`` of
    all the samples violate.
    """
    kept, draws, undecided, start = [], _KeptDraws(), [], 0
    for block in blocks:
        violates, decided = _certificate(gamma0, merit, sigma, block)
        rows = np.flatnonzero(~violates)
        kept.append(start + rows)
        draws.append(block[rows])
        undecided.append(~decided[rows])
        start += len(block)
    kept = np.concatenate(kept)
    rest = np.flatnonzero(np.concatenate(undecided))
    out = np.ones(n_samples, dtype=bool)
    out[kept] = False
    out[kept[rest]] = _resolve(gamma0, merit, sigma, draws, rest, needed - (n_samples - len(kept)))
    return out, kept, draws


class _KeptDraws:
    """The draws of the samples a search keeps, in pages of _CHUNK_ROWS rows.

    Rows are appended in order and read as the rows of one stacked array,
    which is never made: concatenating per-block pieces would hold the kept
    draws twice, in arrays of a new size in every search that fragment the
    heap, so that the peak RSS of a run of searches would scatter with the
    rows each one kept.  The allocator hands pages of one size from one
    search to the next.
    """

    def __init__(self) -> None:
        self.pages: list[np.ndarray] = []
        self.rows = 0

    def append(self, draws: np.ndarray) -> None:
        done = 0
        while done < len(draws):
            at = self.rows % _CHUNK_ROWS
            if at == 0:
                self.pages.append(np.empty((_CHUNK_ROWS, 36)))
            take = min(_CHUNK_ROWS - at, len(draws) - done)
            self.pages[-1][at : at + take] = draws[done : done + take]
            done += take
            self.rows += take

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        """The draws of the kept samples at the ascending positions ``rows``."""
        out, start = np.empty((len(rows), 36)), 0
        pages = range(rows[0] // _CHUNK_ROWS, rows[-1] // _CHUNK_ROWS + 1) if len(rows) else ()
        for p, end in zip(pages, np.searchsorted(rows, (np.array(pages) + 1) * _CHUNK_ROWS)):
            # mode="raise" would copy through a buffer; every position is in range.
            offsets = rows[start:end] - p * _CHUNK_ROWS
            np.take(self.pages[p], offsets, axis=0, out=out[start:end], mode="clip")
            start = end
        return out


def _violators_needed(n: int, confidence: float) -> int:
    """Fewest violators k among n samples with k / n >= confidence, the test of np.mean."""
    k = max(0, math.ceil(confidence * n) - 2)  # c n, k / n round by < 1 sample for n < 2**52
    while k / n < confidence:
        k += 1
    return k


def _largest_passing_step(status, needed, lo, hi, v_lo, v_hi) -> int:
    """Largest grid step in [lo, hi] with at least ``needed`` violators.

    ``v_lo`` and ``v_hi`` are the violation statuses at steps lo and hi;
    step lo is taken to pass.  ``status(m, needed, v_lo, v_hi)`` gives the
    status at a step between them.  Started on [0, 2**12], its midpoints
    are the points the float bisection of [0, 0.5] visits.
    """
    if np.count_nonzero(v_hi) >= needed:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        v_mid = status(mid, needed, v_lo, v_hi)
        if np.count_nonzero(v_mid) >= needed:
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
    return merit_distribution(base_state, merit, sigma, n_samples, seed, bins)[1:]


def merit_distribution(
    base_state: str,
    merit: str,
    sigma: float,
    n_samples: int = 10**5,
    seed: int = 0,
    bins: int = _BINS,
) -> tuple[float, np.ndarray, np.ndarray]:
    """(violation probability, bin_centers, counts) of the merits at one sigma.

    Bit for bit np.mean(v < 0) and the histogram of v = ``merit_samples``,
    with eigvalsh run only on the rows whose sign or bin an enclosure leaves
    in doubt (module docstring): once for the rows set aside in the stream
    (once more for each chunk of them), and once for each block drawn
    again for its rows over a bin edge.  Holds two floats per sample, one
    block's workspace and at most a chunk of draws set aside.  A range of
    merits too narrow for ``bins`` edges of finite width raises
    InvalidDimensionError.
    """
    fock._checked_count(bins, "bins")
    states: list = []
    merit_fn, gamma0, blocks = _checked_base_and_blocks(
        base_state, merit, sigma, n_samples, seed, states
    )
    lower, upper = np.empty((2, n_samples))
    workspace = np.empty(_WORKSPACE_FLOATS * min(n_samples, _CHUNK_ROWS))
    # Some merit is at most least_upper and one at least largest_lower, each
    # an end of an enclosure or a merit resolved: only a row reaching past
    # them can be an extreme.  Both only tighten, so a row out of doubt stays so.
    least_upper, largest_lower = np.inf, -np.inf

    def in_doubt(at) -> np.ndarray:
        lo, hi = lower[at], upper[at]
        finite = np.isfinite(lo) & np.isfinite(hi)
        return ~finite | ((lo < 0.0) & (hi >= 0.0)) | (lo <= least_upper) | (hi >= largest_lower)

    def resolve_set_aside() -> None:
        """Resolve the rows set aside that the bounds so far leave in doubt."""
        nonlocal least_upper, largest_lower
        at, draws = (np.concatenate(parts) for parts in zip(*set_aside))
        set_aside.clear()
        rows = np.flatnonzero(in_doubt(at))
        if len(rows):
            values = _merit_values(gamma0, merit_fn, sigma, draws, rows, workspace)
            lower[at[rows]] = upper[at[rows]] = values
            least_upper = min(least_upper, values.min())
            largest_lower = max(largest_lower, values.max())

    set_aside: list = []  # (positions, draws) of the rows in doubt as their block was drawn
    for start, block in zip(range(0, n_samples, _CHUNK_ROWS), blocks):
        at = slice(start, start + len(block))
        lower[at], upper[at] = _merit_enclosures(gamma0, merit, sigma, block, workspace)
        finite = np.isfinite(lower[at]) & np.isfinite(upper[at])
        least_upper = min(least_upper, np.min(upper[at], where=finite, initial=np.inf))
        largest_lower = max(largest_lower, np.max(lower[at], where=finite, initial=-np.inf))
        rows = np.flatnonzero(in_doubt(at))
        if len(rows) + sum(len(piece) for piece, _ in set_aside) > _CHUNK_ROWS:
            resolve_set_aside()
        if len(rows):
            set_aside.append((start + rows, block[rows]))
    if set_aside:
        resolve_set_aside()
    # np.histogram's edges: the least and the largest merit were resolved, and
    # every row left has low < lo <= hi < high.  The blocks of the rows whose
    # enclosure reaches the next edge are drawn again, each up to its last
    # such row, and those rows resolved.  numpy refuses a range whose edges
    # its floats cannot tell apart: one merit v spans [v - 0.5, v + 0.5], too
    # narrow once |v| > ~2**52 / bins.
    low, high = lower.min(), upper.max()
    try:
        edges = np.histogram_bin_edges([low, high], bins)
    except ValueError:
        raise InvalidDimensionError(
            f"sigma={sigma:g} with n_samples={n_samples} puts the merits in "
            f"[{low:g}, {high:g}], too narrow a range for {bins} bins of finite width"
        ) from None
    next_edge = np.append(edges, np.inf)
    for start, state in zip(range(0, n_samples, _CHUNK_ROWS), states):
        lo, hi = lower[start : start + _CHUNK_ROWS], upper[start : start + _CHUNK_ROWS]
        rows = np.flatnonzero(hi >= next_edge[np.searchsorted(edges, lo, "right")])
        if len(rows):
            bit_generator = np.random.Philox()
            bit_generator.state = state
            block = _draw_block(base_state, np.random.Generator(bit_generator), rows[-1] + 1)
            lo[rows] = _merit_values(gamma0, merit_fn, sigma, block, rows, workspace)
    del workspace, upper  # not held through np.histogram's temporaries
    centers, counts = _histogram(lower, bins)
    return float(np.mean(lower < 0.0)), centers, counts


def _merit_enclosures(
    gamma0: np.ndarray,
    merit: str,
    sigma: float,
    draws: np.ndarray,
    workspace: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bounds per perturbation in ``draws`` on the float merit
    that ``_merit_values`` gives it; one is not finite where none was found.

    Each eigenvalue the merit reads is bisected in the tridiagonal form of
    its matrix, and the interval widened by _TAU (1 + ||T||_F) on each side;
    the merit function is non-decreasing in each of them, and so is every
    float sum it takes, so it maps the lower and upper ends to bounds.  The
    matrices and the reduction's work are held in ``workspace``, a
    contiguous float array of at least _WORKSPACE_FLOATS values per row.
    """
    reads = _EIGENVALUES_READ[merit]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        matrices = _perturbed_batch(gamma0, sigma, draws, workspace)
        work = workspace[_MATRIX_FLOATS * len(draws) :]
        a, e2 = _tridiagonal(matrices.transpose(1, 2, 0), work)
        np.maximum(e2, _E2_FLOOR, out=e2)
        e = np.sqrt(e2)
        radius = np.zeros_like(a)
        radius[1:] += e
        radius[:-1] += e
        start = (a - radius).min(axis=0)  # Gershgorin's interval
        width = (a + radius).max(axis=0) - start
        margin = _TAU * (1.0 + np.sqrt(np.einsum("im,im->m", a, a) + 2.0 * e2.sum(axis=0)))
        below = _N_MODES - 1 - np.array(reads)  # eigenvalues under each one read
        low, half = _sturm_bisection(a, e2, below, start, width)
        lam = np.full((2, len(draws), _N_MODES), np.nan)
        lam[0][:, reads] = (low - margin).T
        lam[1][:, reads] = (low + 2.0 * half + margin).T
        bounds = polytope._MERITS[merit](lam)
    return bounds[0], bounds[1]


def _tridiagonal(matrices: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, e2): the diagonal (n, m) and the squared off-diagonal (n - 1, m) of a
    real tridiagonal unitarily similar to each Hermitian matrix of the
    (n, n, m) stack, which is overwritten; the first 2 (n - 1)^2 m values of
    the contiguous float array ``work`` are its scratch.

    Householder's reduction, column k for every matrix at once: with x the
    column below the diagonal, v = x + (x_0 / |x_0|) |x| e_1 and tau = 2 /
    |v|^2 = 1 / (|x| (|x| + |x_0|)), I - tau v v^H maps x to a multiple of e_1
    of modulus |x|, and the block B below and right of the diagonal becomes
    B - v w^H - w v^H, w = p - (tau / 2) (v^H p) v, p = tau B v.  The phases
    of the off-diagonal do not change the eigenvalues, so only |x|^2 is kept.
    """
    n, _, m = matrices.shape
    e2 = np.empty((n - 1, m))
    work = work[: 2 * (n - 1) ** 2 * m].view(complex).reshape(n - 1, n - 1, m)
    for k in range(n - 2):
        x = matrices[k + 1 :, k]
        np.einsum("im,im->m", x.real, x.real, out=e2[k])
        e2[k] += np.einsum("im,im->m", x.imag, x.imag)
        norm, size = np.sqrt(e2[k]), np.abs(x[0])
        scale = norm * (norm + size)
        tau = (scale > 0.0) / np.where(scale > 0.0, scale, 1.0)
        x[0] += np.where(size > 0.0, x[0] / np.where(size > 0.0, size, 1.0), 1.0) * norm
        v, block, w = x, matrices[k + 1 :, k + 1 :], work[: n - 1 - k, : n - 1 - k]
        np.multiply(block, v, out=w)
        p = w.sum(axis=1)
        p *= tau
        p -= (0.5 * tau * np.einsum("im,im->m", v.conj(), p).real) * v
        np.multiply(v[:, None], p.conj(), out=w)
        block -= w
        np.multiply(p[:, None], v.conj(), out=w)
        block -= w
    last = matrices[n - 1, n - 2]
    e2[n - 2] = last.real**2 + last.imag**2
    return np.einsum("iim->im", matrices).real.copy(), e2


def _sturm_bisection(
    a: np.ndarray, e2: np.ndarray, below: np.ndarray, start: np.ndarray, width: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(low, half): the eigenvalue of each tridiagonal (a, e2) with ``below[i]``
    eigenvalues under it lies in [low[i], low[i] + 2 half], up to the roundings
    of the module docstring, after _BISECTIONS halvings of [start, start + width].

    A Sturm count at x is the number of q_i = (a_i - x) - e2_(i-1) / q_(i-1)
    whose sign bit is set; low only ever moves to an x whose count is at
    most below[i].
    """
    n, m = a.shape
    low = np.empty((len(below), m))
    low[...] = start
    half = width * 0.5
    x, t, down = np.empty_like(low), np.empty_like(low), np.empty(low.shape, dtype=bool)
    q = np.empty((n, *low.shape))
    for _ in range(_BISECTIONS):
        np.add(low, half, out=x)
        np.subtract(a[:, None], x, out=q)
        for i in range(1, n):
            np.divide(e2[i - 1], q[i - 1], out=t)
            q[i] -= t
        counts = np.signbit(q).view(np.int8).sum(axis=0, dtype=np.int8)
        np.less_equal(counts, below[:, None], out=down)
        np.copyto(low, x, where=down)
        half *= 0.5
    return low, half


def _histogram(values: np.ndarray, bins: int = _BINS) -> tuple[np.ndarray, np.ndarray]:
    counts, edges = np.histogram(values, bins=bins)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts
