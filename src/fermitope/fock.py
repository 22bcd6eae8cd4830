"""Exact few-fermion states on fixed particle-number sectors.

Conventions used throughout the package:

* Sites (modes) are numbered 1..d, site 1 being the leftmost entry of an
  occupation string such as ``"101010"`` (electrons on sites 1, 3, 5).
* A sector basis is ordered lexicographically with occupied before empty,
  i.e. by decreasing value of the occupation string read as a binary
  number.  ``sector_basis(6, 3)[0]`` is ``|111000>``.
* Ladder operators follow the ordering
  ``|n_1 .. n_d> = (a_1^+)^{n_1} .. (a_d^+)^{n_d} |0>``, so acting on
  site ``i`` picks up the parity of the occupied sites with index
  strictly below ``i``.

All state values are immutable; operations return new values.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal

import numpy as np

from .errors import (
    DegenerateInputError,
    InvalidDimensionError,
    InvalidRDMError,
    SectorMismatchError,
    ZeroStateError,
)

MAX_MODES = 24

# Construction / eigensolver / property-test tolerances.
ATOL_STATE = 1e-12
ATOL_EIG = 1e-10


def _check_sector(d: int, n_particles: int) -> None:
    if not (1 <= _checked_integer(d, "d") <= MAX_MODES):
        raise InvalidDimensionError(f"mode count d={d} outside 1..{MAX_MODES}")
    if not (0 <= _checked_integer(n_particles, "n_particles") <= d):
        raise InvalidDimensionError(
            f"particle count N={n_particles} outside 0..{d}"
        )


def sector_dim(d: int, n_particles: int) -> int:
    """Dimension binomial(d, N) of the N-particle sector on d modes."""
    _check_sector(d, n_particles)
    return math.comb(d, n_particles)


@lru_cache(maxsize=None)
def _sector_masks(d: int, n_particles: int) -> np.ndarray:
    """Occupation bitmasks of the sector, descending (site 1 = bit d-1).

    Built by Pascal's rule on the top bit: the (j, k) masks are those of
    (j-1, k-1) with bit j-1 set, then those of (j-1, k), which keeps them
    descending.  Level j keeps only the k that can still reach N.
    """
    _check_sector(d, n_particles)
    empty = np.empty(0, dtype=np.int64)
    level = {0: np.zeros(1, dtype=np.int64)}
    for j in range(1, d + 1):
        top = 1 << (j - 1)
        level = {
            k: np.concatenate((level[k - 1] | top if k else empty, level.get(k, empty)))
            for k in range(max(0, n_particles - d + j), min(n_particles, j) + 1)
        }
    masks = level[n_particles]
    masks.flags.writeable = False
    return masks


def _positions(d: int, n_particles: int, masks) -> np.ndarray:
    """Sector indices of basis-state masks; one outside the sector raises InvalidDimensionError."""
    ascending = _sector_masks(d, n_particles)[::-1]
    masks = np.asarray(masks, dtype=np.int64)
    found = np.searchsorted(ascending, masks)
    outside = ascending[np.minimum(found, len(ascending) - 1)] != masks
    if np.any(outside):
        bad = format(int(masks[outside][0]), f"0{d}b")
        raise InvalidDimensionError(f"|{bad}> is not in the (d={d}, N={n_particles}) sector")
    return len(ascending) - 1 - found


@lru_cache(maxsize=None)
def _occupations(d: int, n_particles: int) -> np.ndarray:
    """Read-only int8 (d, dim) table: row i - 1 holds n_i of every basis state.

    d dim bytes (48 kB at (14, 7), 65 MB at (24, 12)), built one site at a time.
    """
    masks = _sector_masks(d, n_particles)
    table = np.empty((d, len(masks)), dtype=np.int8)
    for row in range(d):
        table[row] = (masks >> (d - 1 - row)) & 1
    table.flags.writeable = False
    return table


def _site_bit(d: int, site: int) -> int:
    if not 1 <= _checked_integer(site, "site") <= d:
        raise InvalidDimensionError(f"site {site} outside 1..{d}")
    return d - site


@dataclass(frozen=True)
class BasisState:
    """A single occupation-number basis vector."""

    occupations: str
    weight: int

    def __post_init__(self) -> None:
        if set(self.occupations) - {"0", "1"}:
            raise InvalidDimensionError("occupations must be a 0/1 string")
        if self.occupations.count("1") != self.weight:
            raise InvalidDimensionError("weight must equal the number of set bits")

    @property
    def d(self) -> int:
        return len(self.occupations)

    @property
    def mask(self) -> int:
        return int(self.occupations, 2)

    @classmethod
    def from_mask(cls, d: int, mask: int) -> "BasisState":
        occ = format(mask, f"0{d}b")
        return cls(occupations=occ, weight=occ.count("1"))

    def __str__(self) -> str:
        return f"|{self.occupations}>"


def sector_basis(d: int, n_particles: int) -> list[BasisState]:
    """Ordered basis of the fixed-N sector (lexicographic, occupied first)."""
    return [BasisState.from_mask(d, int(m)) for m in _sector_masks(d, n_particles)]


def _as_amplitudes(d: int, n_particles: int, amplitudes) -> np.ndarray:
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.shape != (sector_dim(d, n_particles),):
        raise InvalidDimensionError(
            f"amplitude vector must have length {sector_dim(d, n_particles)}"
        )
    if not np.all(np.isfinite(amps)):  # a complex entry is finite iff both parts are
        raise InvalidDimensionError("amplitudes must be finite")
    return amps


@dataclass(frozen=True)
class PureState:
    """Amplitude vector over the fixed-N occupation basis of d modes.

    The vector is stored as given; use :meth:`normalized` before treating
    it as a physical state.  Operator actions (e.g. annihilating an empty
    mode) may legitimately return the zero vector.
    """

    d: int
    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _as_amplitudes(self.d, self.n_particles, self.amplitudes)
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @property
    def is_zero(self) -> bool:
        return self.norm <= ATOL_STATE

    def normalized(self) -> "PureState":
        n = self.norm
        if n <= ATOL_STATE:
            raise ZeroStateError("cannot normalize a zero vector")
        return PureState(self.d, self.n_particles, self.amplitudes / n)

    def overlap(self, other: "PureState") -> complex:
        _same_sector(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity_to(self, other: "PureState") -> float:
        """|<self|other>|^2 for the normalized states (global-phase free)."""
        a, b = self.normalized(), other.normalized()
        return float(abs(a.overlap(b)) ** 2)

    def amplitude(self, occupations: str) -> complex:
        """The amplitude of |occupations>, a 0/1 string of length d and weight N."""
        _check_occupations(self.d, [occupations])
        return complex(self.amplitudes[_positions(self.d, self.n_particles, int(occupations, 2))])

    def to_json(self) -> dict:
        return {
            "d": int(self.d),
            "N": int(self.n_particles),
            "basis_order": "lex",
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PureState":
        if data.get("basis_order", "lex") != "lex":
            raise InvalidDimensionError("only the lexicographic basis order is supported")
        amps = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return cls(int(data["d"]), int(data["N"]), amps)


def _same_sector(a, b) -> None:
    if (a.d, a.n_particles) != (b.d, b.n_particles):
        raise SectorMismatchError(
            f"sector mismatch: ({a.d}, {a.n_particles}) vs ({b.d}, {b.n_particles})"
        )


def _check_occupations(d: int, terms: Iterable[str]) -> None:
    if any(len(occ) != d or set(occ) - {"0", "1"} for occ in terms):
        raise InvalidDimensionError("occupations must be 0/1 strings of length d")


def basis_vector(d: int, occupations: str) -> PureState:
    """The basis state |occupations>, e.g. ``basis_vector(6, "101010")``."""
    return superposition(d, {occupations: 1.0})


def superposition(d: int, terms: dict[str, complex]) -> PureState:
    """Normalized superposition from a mapping occupations -> amplitude."""
    _check_occupations(d, terms)
    weights = {occ.count("1") for occ in terms}
    if len(weights) != 1:
        raise InvalidDimensionError("all terms must share one particle number")
    n = weights.pop()
    amps = np.zeros(sector_dim(d, n), dtype=np.complex128)
    amps[_positions(d, n, [int(occ, 2) for occ in terms])] += list(terms.values())
    return PureState(d, n, amps).normalized()


@dataclass(frozen=True)
class MixedState:
    """Hermitian, unit-trace, positive-semidefinite sector density matrix."""

    d: int
    n_particles: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dim = sector_dim(self.d, self.n_particles)
        rho = np.asarray(self.matrix, dtype=np.complex128)
        if rho.shape != (dim, dim):
            raise InvalidDimensionError(f"density matrix must be {dim}x{dim}")
        if not np.all(np.isfinite(rho)):
            raise InvalidRDMError("density matrix must be finite")
        # One work array holds rho^H - rho, then rho + 1e-10 I.
        work = np.empty((dim, dim), dtype=np.complex128)
        np.subtract(np.conjugate(rho.T, out=work), rho, out=work)
        if np.max(np.abs(work)) > 1e-12:
            raise InvalidRDMError("density matrix is not Hermitian within 1e-12")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise InvalidRDMError("density matrix trace must be 1 within 1e-12")
        np.copyto(work, rho)
        work.reshape(-1)[:: dim + 1] += 1e-10
        try:  # rho + 1e-10 I has a Cholesky factor iff no eigenvalue is below -1e-10, to rounding
            np.linalg.cholesky(work)
        except np.linalg.LinAlgError:
            raise InvalidRDMError("density matrix has an eigenvalue below -1e-10") from None
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "matrix", rho)

    @classmethod
    def from_pure(cls, state: PureState) -> "MixedState":
        psi = state.normalized().amplitudes
        return cls(state.d, state.n_particles, np.outer(psi, psi.conj()))

    def largest_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[-1])


# ---------------------------------------------------------------------------
# Ladder operators
# ---------------------------------------------------------------------------

def apply_ladder(
    state: PureState, mode: int, kind: Literal["creation", "annihilation"]
) -> PureState:
    """Apply a_mode^+ or a_mode, landing in the N+1 or N-1 sector.

    Creation on an occupied mode (annihilation on an empty one) yields the
    zero vector.  Annihilating the vacuum (or creating on a full sector)
    also gives the identically zero result; since the zero vector carries
    no particle number it is returned in the input sector.  The fermionic
    sign is (-1)^(number of occupied modes with index strictly below
    ``mode``).
    """
    d, n = state.d, state.n_particles
    _site_bit(d, mode)
    if kind not in ("creation", "annihilation"):
        raise InvalidDimensionError(f"unknown ladder kind {kind!r}")
    n_out = n + 1 if kind == "creation" else n - 1
    if not 0 <= n_out <= d:
        return PureState(d, n, np.zeros_like(state.amplitudes))
    if kind == "creation":
        return PureState(d, n_out, _create(state.amplitudes, d, n, np.eye(d)[mode - 1]))
    # <k| a_mode |psi> = S[k, mode] psi[C[k, mode]]; adding +0.0 turns -0.0 into +0.0.
    index, signs = _creation_table(d, n)
    psi = state.amplitudes.take(index[:, mode - 1], mode="wrap")
    return PureState(d, n_out, signs[:, mode - 1] * psi + 0.0)


def _create(amps: np.ndarray, d: int, n_particles: int, v: np.ndarray) -> np.ndarray:
    """sum_i v_i a_i^+ on N-particle amplitudes, as amplitudes of the N+1 sector.

    The rows of the N+1 creation table are the N-particle states, so site
    i scatters v_i S[k, i] psi[k] to C[k, i], sites in ascending order.
    Every output starts from +0.0, so no -0.0 is returned.
    """
    index, signs = _creation_table(d, n_particles + 1)
    out = np.zeros(math.comb(d, n_particles + 1), dtype=np.complex128)
    for i in np.flatnonzero(v):
        live = np.flatnonzero(signs[:, i])
        out[index[live, i] % len(out)] += v[i] * (signs[live, i] * amps[live])
    return out


@lru_cache(maxsize=None)
def _pair_transitions(
    d: int, n_particles: int, i: int, j: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Transition table of a_j^+ a_i on the sector: (src, dst, sign).

    ``src`` indexes basis states with site i occupied and site j empty,
    in ascending order, ``dst`` the corresponding states with the particle
    moved to j, and ``sign`` (int8, +1 or -1) the parity of the occupied
    sites strictly between i and j.  Over the (N-1)-states k with both
    sites empty, a_j^+ a_i maps C[k, i] to C[k, j] with sign S[k, i] S[k, j],
    and both indices ascend with k.  So the table of (j, i) is (dst, src,
    sign) of (i, j), the same read-only arrays: only i < j builds any, 17 B
    per transition and unordered pair (1.4 MB at (14, 7), 3.3 GB at (24, 12)).
    """
    for site in (i, j):
        _site_bit(d, site)
    if i > j:
        src, dst, sign = _pair_transitions(d, n_particles, j, i)
        return dst, src, sign
    index, signs = _creation_table(d, n_particles)
    dim = math.comb(d, n_particles)
    rows = np.flatnonzero(signs[:, i - 1] * signs[:, j - 1])
    src, dst = index[rows, i - 1] % dim, index[rows, j - 1] % dim
    sign = signs[rows, i - 1] * signs[rows, j - 1]
    for arr in (src, dst, sign):
        arr.flags.writeable = False
    return src, dst, sign


# ---------------------------------------------------------------------------
# The creation table and the one-body reduced density matrix
# ---------------------------------------------------------------------------
#
# One cached table per sector holds every fermionic sign in the package:
# the creation table over the (N-1)-particle states k.  C[k, i] is the
# N-sector index of a_{i+1}^+ |k> and S[k, i] its fermionic sign, 0 where
# site i+1 is already occupied in k.  It keeps S, and C as the signed index
# C' = C, C + dim or 2 dim (C = 0) where S = +1, -1 or 0; the ladder operators
# and the gates' hops a_j^+ a_i above read C' mod dim.  <k| a_{i+1} |psi> =
# S[k, i] psi[C[k, i]], so amplitudes give gamma = Phi^T Phi^* with
# Phi = S * psi[C] = ext[C'], ext being psi times the +1, -1 and 0 that S casts
# to: one gather with each product's bits, signed zeros included.  A density
# matrix gives gamma_ij = sum_k S[k, i] S[k, j] rho[C[k, i], C[k, j]].
#
# A term is live only where sites i+1 and j+1 are both empty in k:
# C(d-1, N-1) terms per diagonal entry, C(d-2, N-1) per other one, 1,400 of
# 3,584 at (8, 4).  The kernel gathers them as two blocks (terms, entries)
# and sums down the columns from +0.0 by np.add.reduce, which adds in order
# (not pairwise) over a non-inner axis: each gamma_ij gets its products in
# ascending k, as np.einsum over all K d^2 terms adds them.  The terms left
# out are 0 * rho = +-0.0, which leave a sum that starts at +0.0 unchanged, so
# the bits agree for finite rho (0 * inf is nan), which MixedState enforces.
_SIGNS = np.array([[1], [-1], [0]], dtype=np.complex128)


@lru_cache(maxsize=None)
def _creation_table(d: int, n_particles: int) -> tuple[np.ndarray, np.ndarray]:
    """(C', S), both (binomial(d, N-1), d); empty for N = 0.

    C' is np.intp, the dtype numpy gathers with, and writeable, since np.take
    copies a read-only index on every call (336 kB at (14, 7)); S is int8 and
    read-only: 9 bytes per entry.  Both are built one column at a time.
    """
    _check_sector(d, n_particles)
    dim = math.comb(d, n_particles)
    masks = _sector_masks(d, n_particles - 1) if n_particles else np.zeros(0, np.int64)
    index = np.full((len(masks), d), 2 * dim, dtype=np.intp)
    signs = np.zeros((len(masks), d), dtype=np.int8)
    for col in range(d):
        bit = d - 1 - col
        rows = np.flatnonzero(((masks >> bit) & 1) == 0)
        k = masks[rows]
        parity = (np.bitwise_count(k >> (bit + 1)) & 1).astype(np.intp)
        signs[rows, col] = 1 - 2 * parity
        index[rows, col] = _positions(d, n_particles, k | (1 << bit)) + dim * parity
    signs.flags.writeable = False
    return index, signs


@lru_cache(maxsize=None)
def _density_terms(d: int, n_particles: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """The live terms S[k, i] S[k, j] rho[C[k, i], C[k, j]]: (src, sign, entries) per group.

    The groups are the diagonal of gamma and the rest.  ``entries`` holds flat
    indices i d + j into gamma; ``src`` (np.intp) and ``sign`` (int8), 9 bytes
    per term, are C-ordered (terms per entry, entries), so the kernel's gather
    keeps terms outside entries: column e holds entry e's flat indices
    C[k, i] dim + C[k, j] into rho and signs S[k, i] S[k, j] in ascending k.
    """
    rows, signs = _creation_table(d, n_particles)
    dim = math.comb(d, n_particles)
    rows, empty = rows % dim, signs.T != 0
    groups = []
    for i, j in (np.diag_indices(d), np.nonzero(~np.eye(d, dtype=bool))):
        live = empty[i] & empty[j]  # (entries, K): nonzero lists each entry's k ascending
        k = np.nonzero(live)[1].reshape(len(i), np.count_nonzero(live[:1])).T.copy()
        groups.append((rows[k, i] * dim + rows[k, j], signs[k, i] * signs[k, j], i * d + j))
        for arr in groups[-1]:
            arr.flags.writeable = False
    return tuple(groups)


def _rdm_kernel(d: int, n_particles: int, x: np.ndarray, density: bool = False) -> np.ndarray:
    """<a_j^+ a_i> for purifications (..., r, dim) or density matrices (..., dim, dim).

    Nothing is normalized: amplitudes of norm r give r^2 times the 1-RDM.
    The r rows of a purification (one for a pure state) give the sum of their
    1-RDMs, by one gather at the signed index and one product over their r K
    gathered rows.  A density matrix is read only at its live terms, gathered
    per group as (batch, terms, entries) and summed over the terms in ascending
    k (see the comment above _creation_table): the bits of S * psi[C] and its
    product, and of the full einsum, for every finite input.
    """
    if density:
        flat = x.reshape(math.prod(x.shape[:-2]), x.shape[-1] ** 2)
        gamma = np.empty((len(flat), d * d), dtype=x.dtype)
        for src, sign, entries in _density_terms(d, n_particles):
            terms = flat[:, src]
            terms *= sign
            gamma[:, entries] = np.add.reduce(terms, axis=1, initial=0.0)
        return gamma.reshape(x.shape[:-2] + (d, d))
    ext = (x[..., None, :] * _SIGNS).reshape(x.shape[:-1] + (3 * x.shape[-1],))
    phi = np.take(ext, _creation_table(d, n_particles)[0], axis=-1)
    phi = phi.reshape(phi.shape[:-3] + (math.prod(phi.shape[-3:-1]), d))
    return np.swapaxes(phi, -1, -2) @ phi.conj()


def one_rdm(state: PureState | MixedState) -> np.ndarray:
    """gamma_ij = <a_j^+ a_i>, a Hermitian d x d matrix with trace N."""
    if isinstance(state, MixedState):
        return _rdm_kernel(state.d, state.n_particles, state.matrix, density=True)
    norm2 = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if norm2 <= ATOL_STATE**2:
        raise DegenerateInputError("one_rdm of a zero-norm state")
    return _rdm_kernel(state.d, state.n_particles, state.amplitudes[None]) / norm2


def natural_occupations(rdm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues of a 1-RDM and a diagonalizing unitary U.

    Returns ``(lam, U)`` with ``U @ rdm @ U^+ = diag(lam)``.  Ties between
    degenerate eigenvalues are resolved arbitrarily.
    """
    gamma = np.asarray(rdm, dtype=np.complex128)
    if gamma.ndim != 2 or gamma.shape[0] != gamma.shape[1]:
        raise InvalidRDMError("1-RDM must be a square matrix")
    if np.max(np.abs(gamma - gamma.conj().T)) > ATOL_EIG:
        raise InvalidRDMError(f"1-RDM is not Hermitian within {ATOL_EIG}")
    w, v = np.linalg.eigh((gamma + gamma.conj().T) / 2)
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order].conj().T


def occupation_expectation(state: PureState | MixedState, site: int) -> float:
    """<n_site> for a pure or mixed sector state."""
    _site_bit(state.d, site)
    occ = _occupations(state.d, state.n_particles)[site - 1]
    if isinstance(state, PureState):
        norm2 = float(np.vdot(state.amplitudes, state.amplitudes).real)
        if norm2 <= ATOL_STATE**2:
            raise DegenerateInputError("occupation of a zero-norm state")
        return float(occ @ (np.abs(state.amplitudes) ** 2) / norm2)
    return float(occ @ np.diag(state.matrix).real)


# ---------------------------------------------------------------------------
# State constructions
# ---------------------------------------------------------------------------

def _checked_integer(value, name: str) -> int:
    """``value`` itself if an int or numpy integer; else (bools too) InvalidDimensionError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidDimensionError(f"{name} must be an integer, got {value!r}")
    return value


def _checked_real(value, name: str) -> float:
    """``value`` itself if an int, a float or a numpy real; else (bools too) InvalidDimensionError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise InvalidDimensionError(f"{name} must be a real number, got {value!r}")
    return value


def _checked_count(value, name: str) -> None:
    """InvalidDimensionError unless ``value`` is an integer >= 1."""
    if _checked_integer(value, name) < 1:
        raise InvalidDimensionError(f"{name} must be >= 1")


def checked_seed(seed: int) -> int:
    """``seed`` itself; a negative or non-integer seed raises InvalidDimensionError."""
    if _checked_integer(seed, "seed") < 0:
        raise InvalidDimensionError(f"seed must be non-negative, got {seed}")
    return seed


def random_pure_state(d: int, n_particles: int, seed: int) -> PureState:
    """Haar-like random state: iid standard complex Gaussian amplitudes."""
    dim = sector_dim(d, n_particles)
    rng = np.random.default_rng(checked_seed(seed))
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(d, n_particles, amps).normalized()


def wedge_embed(state: PureState, vectors: Iterable[np.ndarray]) -> PureState:
    """Wedge single-particle vectors onto a state and normalize.

    Each vector v adds one particle through sum_i v_i a_i^+.  The result
    vanishes when a vector lies in the span already occupied, in which
    case a ZeroStateError is raised.
    """
    out = state
    for vec in vectors:
        v = np.asarray(vec, dtype=np.complex128)
        if v.shape != (state.d,):
            raise InvalidDimensionError("embedding vectors must have length d")
        if out.n_particles >= state.d:
            raise ZeroStateError("sector is full; wedge product vanishes")
        if not v.any():
            raise ZeroStateError("embedding vector is zero")
        amps = _create(out.amplitudes, state.d, out.n_particles, v)
        out = PureState(state.d, out.n_particles + 1, amps)
    if out.norm <= 1e-12:
        raise ZeroStateError("wedge product vanished")
    return out.normalized()
