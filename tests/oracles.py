"""Independent oracles used to pin expected values.

Everything here is built from first principles (dense Kronecker products
on the full 2^d Fock space, grids, quadrature) without reusing the
package's bit-twiddling code paths.
"""

import functools
import math

import numpy as np
from scipy.optimize import linprog

from fermitope import fock, gates, polytope, tomography
from fermitope.errors import UnsupportedCaseError

_SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # |1><0|
_Z = np.diag([1.0, -1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)


def dense_creation(d: int, mode: int) -> np.ndarray:
    """a_mode^+ on the full 2^d Fock space, site 1 = first tensor factor.

    The parity string sits on the factors left of the acted site, which
    matches the (a_1^+)^{n_1} ... (a_d^+)^{n_d} |0> ordering convention.
    """
    factors = []
    for site in range(1, d + 1):
        if site < mode:
            factors.append(_Z)
        elif site == mode:
            factors.append(_SIGMA_PLUS)
        else:
            factors.append(_I2)
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def dense_annihilation(d: int, mode: int) -> np.ndarray:
    return dense_creation(d, mode).conj().T


def dense_gate_generator(gate: gates.GateOp, d: int) -> np.ndarray:
    """Anti-Hermitian G with the gate equal to exp(G) on the full 2^d space.

    rotation (i, j): (angle/2)(a_j^+ a_i - a_i^+ a_j); the controlled
    rotation multiplies that by n_k, which commutes with it, so exp(G)
    rotates where site k is occupied and is the identity elsewhere; phase
    (i, j): -i (angle/2)(n_i - n_j).  G conserves particle number, so the
    sector block of exp(G) is exp of the sector block of G.
    """
    def number(site):
        return dense_creation(d, site) @ dense_annihilation(d, site)

    half = gate.angle / 2.0
    if gate.kind == "phase":
        i, j = gate.sites
        return -1j * half * (number(i) - number(j))
    i, j = gate.sites[-2:]
    hop = dense_creation(d, j) @ dense_annihilation(d, i)
    gen = half * (hop - hop.conj().T)
    if gate.kind == "controlled_rotation":
        gen = number(gate.sites[0]) @ gen
    return gen


def sector_indices(d: int, n_particles: int) -> np.ndarray:
    """Full-Fock indices of the sector basis, in the package's order.

    With site 1 as the first tensor factor and |0>, |1> per factor, the
    full-Fock index of an occupation string is its value as a binary
    number, i.e. exactly the package's bitmask.
    """
    return np.array([b.mask for b in fock.sector_basis(d, n_particles)])


def restrict(op: np.ndarray, d: int, n_in: int, n_out: int) -> np.ndarray:
    """Restrict a full-Fock operator to sector blocks (rows n_out, cols n_in)."""
    rows = sector_indices(d, n_out)
    cols = sector_indices(d, n_in)
    return op[np.ix_(rows, cols)]


def embed_state(state: fock.PureState) -> np.ndarray:
    """Amplitudes of a sector state on the full 2^d Fock space."""
    full = np.zeros(2**state.d, dtype=complex)
    full[sector_indices(state.d, state.n_particles)] = state.amplitudes
    return full


def dense_one_rdm(state: fock.PureState) -> np.ndarray:
    """gamma_ij = <a_j^+ a_i> from dense full-space operators."""
    psi = embed_state(state)
    norm2 = float(np.vdot(psi, psi).real)
    d = state.d
    gamma = np.zeros((d, d), dtype=complex)
    for i in range(1, d + 1):
        a_i = dense_annihilation(d, i)
        for j in range(1, d + 1):
            a_j_dag = dense_creation(d, j)
            gamma[i - 1, j - 1] = np.vdot(psi, a_j_dag @ a_i @ psi) / norm2
    return gamma


def einsum_density_rdm(d: int, n_particles: int, rho: np.ndarray) -> np.ndarray:
    """gamma_ij = sum_k S[k, i] S[k, j] rho[C[k, i], C[k, j]] over all K d^2 terms.

    Every entry is gathered and np.einsum multiplies most of them by a zero
    sign.  Its bits, sign bits included, are the ones the live-term density
    branch of ``fock._rdm_kernel`` must reproduce.
    """
    index, signs = fock._creation_table(d, n_particles)
    gathered = rho[..., index[:, :, None], index[:, None, :]]
    return np.einsum("kij,...kij->...ij", signs[:, :, None] * signs[:, None, :], gathered)


def dense_density_one_rdm(d: int, n_particles: int, rho: np.ndarray) -> np.ndarray:
    """gamma_ij = tr(rho a_{j+1}^+ a_{i+1}) for a stack (s, dim, dim) of sector
    density matrices, N >= 1.

    Each hop is the product of the dense creation and annihilation operators
    restricted to the N-1 <-> N sector blocks.  One row i of hops is held at
    a time, d dim^2 entries: all d^2 would take 101 MB at (10, 5).
    """
    raising = [restrict(dense_creation(d, site), d, n_particles - 1, n_particles)
               for site in range(1, d + 1)]
    flat = rho.reshape(len(rho), -1)
    gamma = np.empty((len(rho), d, d), dtype=complex)
    for i in range(d):
        lowering = raising[i].conj().T
        # tr(rho E) = sum_ab rho_ab E_ba
        hops_t = np.stack([(raising[j] @ lowering).T for j in range(d)])
        gamma[:, i, :] = flat @ hops_t.reshape(d, -1).T
    return gamma


def dephasing_kernel(d: int, n_particles: int, rate: float, delta: float) -> np.ndarray:
    """exp(-rate * delta * hamming(a, b) / 2) over the sector's basis states,
    with Hamming distances taken from their full-Fock indices."""
    masks = sector_indices(d, n_particles)
    hamming = np.array([[bin(a ^ b).count("1") for b in masks] for a in masks])
    return np.exp(-rate * delta * hamming / 2.0)


def dense_trotter_states(protocol, params, dt, initial, free_time=0.0):
    """Yield (t, rho, psi) at t = 0 and after every Trotter step.

    Each step conjugates rho by the dense `gate_matrix` of the gate's slice,
    moves psi with it, and multiplies rho by `dephasing_kernel`.  The plan
    (ceil(span / dt) steps per gate, then per free-time segment) is the one
    `evolve_noisy_protocol` documents.
    """
    d, n = initial.d, initial.n_particles
    gate_rate = params.dephasing_rate + params.emission_rate
    segments = [(g, gate_rate, g.duration) for g in protocol.gates]
    if free_time > 0.0:
        segments.append((None, params.dephasing_rate, free_time))
    psi = initial.normalized().amplitudes
    rho = np.outer(psi, psi.conj())
    t = 0.0
    yield t, rho, psi
    for gate, rate, span in segments:
        steps = max(1, math.ceil(span / dt))
        delta = span / steps
        u = None if gate is None else gates.gate_matrix(gate.scaled(1.0 / steps), d, n)
        kernel = dephasing_kernel(d, n, rate, delta)
        for _ in range(steps):
            if u is not None:
                rho = u @ rho @ u.conj().T
                psi = u @ psi
            rho = rho * kernel
            t += delta
            yield t, rho, psi


def dense_trajectory(protocol, params, dt, initial, free_time=0.0, margin_epsilon=0.06):
    """The columns of a noisy trajectory on a six-mode sector, from
    `dense_trotter_states` and dense 1-RDMs: (columns, final rho)."""
    times, rhos, psis = zip(*dense_trotter_states(protocol, params, dt, initial, free_time))
    gammas = dense_density_one_rdm(initial.d, initial.n_particles, np.array(rhos))
    rows = {key: [] for key in ("times", "fidelity", "purity", "lambdas", "f1", "f2", "margin_ok")}
    for t, rho, psi, gamma in zip(times, rhos, psis, gammas):
        lam = np.linalg.eigvalsh((gamma + gamma.conj().T) / 2.0)[::-1]
        merits = polytope.merit_values(lam)
        rows["times"].append(t)
        rows["fidelity"].append(np.real(psi.conj() @ rho @ psi))
        rows["purity"].append(np.sum(np.abs(rho) ** 2))
        rows["lambdas"].append(lam)
        rows["f1"].append(merits.f1)
        rows["f2"].append(merits.f2)
        rows["margin_ok"].append(polytope.check_weakened(lam, margin_epsilon).member)
    return {key: np.array(values) for key, values in rows.items()}, rho


def many_body_readout(state, protocol: gates.Protocol, sites) -> list[float]:
    """Occupations of ``sites`` after ``protocol`` acts on the whole sector state.

    A pure state goes through ``gates.apply_protocol``; a mixed state is
    conjugated by the product of the dense sector `gate_matrix` unitaries.
    """
    if isinstance(state, fock.PureState):
        measured = gates.apply_protocol(state, protocol)
    else:
        u = np.eye(fock.sector_dim(state.d, state.n_particles), dtype=complex)
        for gate in protocol.gates:
            u = gates.gate_matrix(gate, state.d, state.n_particles) @ u
        measured = fock.MixedState(state.d, state.n_particles, u @ state.matrix @ u.conj().T)
    return [fock.occupation_expectation(measured, site) for site in sites]


def readout_by_gates(state, shots, seed) -> tomography.RDMEstimate:
    """The 1-RDM reconstruction setting by setting, gate by gate.

    Each off-diagonal setting applies its readout gates to the rows of the
    d x d identity and reads its two occupations from the diagonal of its
    own u gamma0 u^+.  Seeds are spawned for every call, shots or not.
    """
    d = state.d
    n_pairs = d * (d - 1) // 2
    n_settings = d + 2 * n_pairs
    seeds = iter(np.random.SeedSequence(fock.checked_seed(seed)).spawn(n_settings))
    gamma0 = fock.one_rdm(state)

    def read(measured, sites):
        setting_seed = next(seeds)
        probs = [float(measured[site - 1, site - 1].real) for site in sites]
        if shots is None:
            return [(p, 0.0) for p in probs]
        rng = np.random.default_rng(setting_seed)
        return [tomography._shot_sample(p, shots, rng)[1:] for p in probs]

    gamma = np.zeros((d, d), dtype=np.complex128)
    sigma = np.zeros((d, d), dtype=np.float64)
    for site in range(1, d + 1):
        [(est, sig)] = read(gamma0, [site])
        gamma[site - 1, site - 1] = est
        sigma[site - 1, site - 1] = sig
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            parts, errs = {}, {}
            for part in ("real", "imag"):
                rows = np.eye(d, dtype=np.complex128)
                for gate in tomography.readout_sequence_offdiag(i, j, part).gates:
                    rows = gates._apply_to_amplitudes(rows, gate, d, 1)
                (lo, sig_lo), (hi, sig_hi) = read(rows.T @ gamma0 @ rows.conj(), [j - 1, j])
                parts[part] = (hi - lo) / 2.0
                errs[part] = math.sqrt(sig_lo**2 + sig_hi**2) / 2.0
            gamma[i - 1, j - 1] = parts["real"] + 1j * parts["imag"]
            gamma[j - 1, i - 1] = parts["real"] - 1j * parts["imag"]
            sigma[i - 1, j - 1] = sigma[j - 1, i - 1] = math.sqrt(
                errs["real"] ** 2 + errs["imag"] ** 2
            )
    return tomography.RDMEstimate(
        matrix=gamma, sigma=sigma, shots_per_setting=shots, settings=n_settings
    )


def grid_entropy_maximum(label: str, step: float = 1e-3) -> float:
    """Brute-force maximum of the scaled-occupation entropy on a class polytope.

    Scans the reduced coordinates (lam1, lam2, lam3) on a regular grid with
    the pairing equalities substituted.
    """
    def entropy_rows(l1, l2, l3):
        lam = np.stack([l1, l2, l3, 1 - l3, 1 - l2, 1 - l1], axis=-1) / 3.0
        lam = np.clip(lam, 0.0, None)
        t = np.where(lam > 0, lam * np.log(np.where(lam > 0, lam, 1.0)), 0.0)
        return -t.sum(axis=-1)

    axis = np.arange(0.5, 1.0 + step / 2, step)
    if label == "slater":
        return float(entropy_rows(np.array(1.0), np.array(1.0), np.array(1.0)))
    if label == "epr":
        # lam1 = 1, lam2 = lam3 free
        return float(np.max(entropy_rows(np.ones_like(axis), axis, axis)))

    best = -np.inf
    l2g, l3g = np.meshgrid(axis, axis, indexing="ij")
    for l1 in axis:
        mask = (l2g <= l1) & (l3g <= l2g)
        if label == "w":
            mask &= (l1 + l2g - l3g <= 1.0) & (l1 + l2g + l3g >= 2.0)
        elif label == "ghz":
            mask &= l1 + l2g - l3g <= 1.0
        else:
            raise ValueError(label)
        if not mask.any():
            continue
        vals = entropy_rows(np.full(mask.sum(), l1), l2g[mask], l3g[mask])
        best = max(best, float(vals.max()))
    return best


def grid_spec_entropy_maximum(spec, step: float = 0.01, tol: float = 1e-12) -> float:
    """Brute-force entropy maximum over any three-in-six polytope spec.

    Evaluates every ``LinearInequality`` of ``spec`` directly on a regular
    grid of (lam1, lam2, lam3) in [0, 1]^3 with lam4..lam6 = 1 - lam3,
    1 - lam2, 1 - lam1 substituted; -inf if no grid point is feasible.
    """
    coeffs = np.array([ineq.coefficients for ineq in spec.inequalities], dtype=float)
    bounds = np.array([ineq.bound for ineq in spec.inequalities])
    senses = np.array([ineq.sense for ineq in spec.inequalities])
    axis = np.linspace(0.0, 1.0, int(round(1.0 / step)) + 1)
    l2g, l3g = np.meshgrid(axis, axis, indexing="ij")
    l2g, l3g = l2g.ravel(), l3g.ravel()
    best = -np.inf
    for l1 in axis:
        l1g = np.full_like(l2g, l1)
        lam = np.stack([l1g, l2g, l3g, 1 - l3g, 1 - l2g, 1 - l1g], axis=-1)
        excess = lam @ coeffs.T - bounds
        ok = np.all(
            np.where(senses == "<=", excess <= tol, True)
            & np.where(senses == ">=", excess >= -tol, True)
            & np.where(senses == "==", np.abs(excess) <= tol, True),
            axis=1,
        )
        if not ok.any():
            continue
        p = lam[ok] / 3.0
        t = np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0)
        best = max(best, float(-t.sum(axis=-1).max()))
    return best


def reduce_spec_rows(spec):
    """(A_eq, b_eq, A_ub, b_ub) over (lam1, lam2, lam3), one constraint at a time.

    The row loop ``functional._reduce_spec`` replaced: lam4..lam6 are
    eliminated through the pairings, the three pairing equalities are
    dropped and every inequality is oriented as A_ub @ x <= b_ub.
    """
    pairings_seen = 0
    eq_rows, eq_b, ub_rows, ub_b = [], [], [], []
    for ineq in spec.inequalities:
        c = np.asarray(ineq.coefficients, dtype=np.float64)
        if c.shape != (6,):
            raise UnsupportedCaseError("functional requires length-6 constraints")
        a = c[:3] - c[3:][::-1]
        b = ineq.bound - c[3:].sum()
        if ineq.sense == "==":
            if np.allclose(a, 0.0) and abs(b) < 1e-12:
                pairings_seen += 1
                continue
            eq_rows.append(a)
            eq_b.append(b)
        elif ineq.sense == "<=":
            ub_rows.append(a)
            ub_b.append(b)
        else:
            ub_rows.append(-a)
            ub_b.append(-b)
    if pairings_seen < 3:
        raise UnsupportedCaseError("polytope must include the three pairing equalities")
    A_eq = np.array(eq_rows).reshape(-1, 3)
    A_ub = np.array(ub_rows).reshape(-1, 3)
    return A_eq, np.array(eq_b), A_ub, np.array(ub_b)


def _unit_rows(spec):
    """``reduce_spec_rows`` with every row scaled to a largest coefficient of 1.

    The solver's tolerances are then distances, and HiGHS, which drops matrix
    entries up to 1e-9, drops none that moves a row by more than 1e-9.
    """
    def unit(a, b):
        scale = np.abs(a).max(axis=1, initial=0.0)
        scale = np.where(scale > 0, scale, 1.0)
        # Past |b| = 4 * scale a row holds or fails on the whole box.
        return a / scale[:, None], np.clip(b, -4 * scale, 4 * scale) / scale

    A_eq, b_eq, A_ub, b_ub = reduce_spec_rows(spec)
    return (*unit(A_eq, b_eq), *unit(A_ub, b_ub))


def interior_slack(spec) -> float:
    """Largest r <= 1 with a point of [0, 1]^3 that meets the equalities of ``spec``
    (pairings substituted) and every inequality with slack r; -inf if none meets
    the equalities.  A spec with r below the solvers' tolerances is feasible or
    not depending on them.  HiGHS's "numerical difficulties" (status 4), seen on
    nearly parallel equalities, also give -inf: no interior that it can find."""
    A_eq, b_eq, A_ub, b_ub = _unit_rows(spec)
    lp = linprog(
        [0.0, 0.0, 0.0, -1.0],
        A_ub=np.hstack([A_ub, np.ones((len(A_ub), 1))]) if len(A_ub) else None,
        b_ub=b_ub if len(A_ub) else None,
        A_eq=np.hstack([A_eq, np.zeros((len(A_eq), 1))]) if len(A_eq) else None,
        b_eq=b_eq if len(A_eq) else None,
        bounds=[(0.0, 1.0)] * 3 + [(None, 1.0)],
        options={"primal_feasibility_tolerance": 1e-10},
    )
    assert lp.status in (0, 2, 4), lp.message
    return -lp.fun if lp.status == 0 else -np.inf


def entropy_optimality_gap(spec, lam) -> float:
    """Upper bound on how far the entropy at ``lam`` lies below its maximum.

    The scaled-occupation entropy is concave, so its maximum over the
    polytope is at most its value at lam plus max_y grad . (y - lam), the
    Frank-Wolfe gap.  One linear program over (lam1, lam2, lam3), with the
    pairings substituted, gives the max.  Needs every lam_i > 0.
    """
    lam = np.asarray(lam, dtype=float)
    grad = -(np.log(lam / 3.0) + 1.0) / 3.0
    grad = grad[:3] - grad[3:][::-1]
    A_eq, b_eq, A_ub, b_ub = _unit_rows(spec)
    lp = linprog(
        -grad,
        A_ub=A_ub if len(A_ub) else None,
        b_ub=b_ub if len(A_ub) else None,
        A_eq=A_eq if len(A_eq) else None,
        b_eq=b_eq if len(A_eq) else None,
        bounds=(0.0, 1.0),
    )
    assert lp.status == 0, lp.message
    return float(-lp.fun - grad @ lam[:3])


def standard_draws(n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, 36) standard normals from one Philox draw, unfolded: the
    stream that ``fermitope.montecarlo`` draws block by block."""
    return np.random.Generator(np.random.Philox(key=seed)).standard_normal((n_samples, 36))


def full_batch_merits(base_state: str, merit: str, sigma: float, draws) -> np.ndarray:
    """Merits of all perturbed samples from one ``eigvalsh`` of the whole batch."""
    return polytope._MERITS[merit](full_batch_eigenvalues(base_state, sigma, draws))


def full_batch_eigenvalues(base_state: str, sigma: float, draws) -> np.ndarray:
    """(n, 6) descending eigenvalues of all perturbed samples gamma0 + sigma *
    Delta (``perturbations``), one ``eigvalsh`` of the batch."""
    out = sigma * perturbations(base_state, draws)
    out += fock.one_rdm(gates.target_state(base_state))
    return np.linalg.eigvalsh(out)[:, ::-1]


def perturbations(base_state: str, draws) -> np.ndarray:
    """(n, 6, 6) Hermitian Delta of each sample, the perturbation of
    ``fermitope.montecarlo`` written out directly: real diagonal draws
    (|draw| on epr's empty mode), and real and imaginary upper-triangle
    draws mirrored.  Built as (6, 6, n), where each entry's n values are
    contiguous, and returned C-contiguous."""
    d = 6
    draws = draws.T
    diag = draws[:d].copy()
    if base_state.lower() == "epr":
        diag[5] = np.abs(diag[5])
    re = draws[d : d + 15]
    im = draws[d + 15 :]

    out = np.zeros((d, d, draws.shape[1]), dtype=np.complex128)
    rows, cols = np.triu_indices(d, k=1)
    out[rows, cols] = re + 1j * im
    out[cols, rows] = re - 1j * im
    idx = np.arange(d)
    out[idx, idx] = diag
    return np.ascontiguousarray(out.transpose(2, 0, 1))


@functools.lru_cache(maxsize=16)
def eigenvalue_table(base_state: str, sigma: float, n_samples: int, seed: int) -> np.ndarray:
    """``full_batch_eigenvalues`` of the first ``n_samples`` standard draws,
    computed once per (base, sigma, n_samples, seed) and read-only.

    Its first k rows are the table of k samples bit for bit: Philox fills
    the draws in stream order, and each matrix's ``eigvalsh`` does not
    depend on the batch it sits in.  The merits of one base share it.
    """
    table = full_batch_eigenvalues(base_state, sigma, standard_draws(n_samples, seed))
    table.flags.writeable = False
    return table


def row_by_row_perturbed_batch(gamma0: np.ndarray, sigma: float, draws) -> np.ndarray:
    """(n, 6, 6) gamma0 + sigma * Delta as complex updates of row r and column r,
    one r at a time: the construction that ``montecarlo._perturbed_batch``
    must reproduce bit for bit, signed zeros included."""
    d = 6
    rows, cols = np.triu_indices(d, k=1)
    column = np.diag(np.arange(d))
    column[rows, cols] = np.arange(d, d + 15)
    column[cols, rows] = np.arange(d + 15, 36)
    draws = draws.T
    out = np.empty((d, d, draws.shape[1]), dtype=np.complex128)
    out[...] = gamma0[:, :, None]
    for r in range(d):
        right = slice(r + 1, None)
        re, im = draws[column[r, right]], draws[column[right, r]]
        out[r, right] += sigma * (re + 1j * im)
        out[right, r] += sigma * (re - 1j * im)
        out[r, r] += sigma * draws[column[r, r]]
    return out.transpose(2, 0, 1)


def exhaustive_max_tolerated_sigma(
    base_state: str,
    merit: str,
    confidence: float = 0.999,
    n_samples: int = 10**5,
    seed: int = 0,
    sigma_max: float = 0.5,
    iterations: int = 12,
) -> float:
    """sigma* by bisection that evaluates every sample at every step."""
    def prob(sigma: float) -> float:
        merits = polytope._MERITS[merit](eigenvalue_table(base_state, sigma, n_samples, seed))
        return float(np.mean(merits < 0.0))

    lo, hi = 0.0, sigma_max
    if prob(hi) >= confidence:
        return hi
    for _ in range(iterations):
        mid = (lo + hi) / 2.0
        if prob(mid) >= confidence:
            lo = mid
        else:
            hi = mid
    return lo


def critical_sigmas(base_state: str, merit: str, draws) -> np.ndarray:
    """(n,) critical sigma_k of each sample: at sigma > 0 it violates iff sigma < sigma_k.

    One eigen-solve per sample, with gamma0 = diag(g):
    - F_W where g = 1/2 (ghz): lambda1 + lambda2 + lambda3 = 3/2 + sigma
      S3(Delta), S3 the sum of Delta's three largest eigenvalues, so
      sigma_k = 1 / (2 S3).
    - F_EPR (F_Slater) is negative iff A = D - sigma Delta, D = I - gamma0,
      has no (at most one) eigenvalue <= 0.  Where D > 0 (w), A's negative
      eigenvalues are as many as the mu of D^-1/2 Delta D^-1/2 with sigma mu
      > 1.  Where D is 0 at one site p (epr), Haynsworth's inertia
      additivity splits A into its pivot -sigma Delta_pp, negative iff
      Delta_pp > 0, and the Schur complement D' - sigma S, S = Delta' - b
      b^H / Delta_pp with b Delta's column p off p, read the same way.
      So sigma_k = 1 / mu_j, mu_j the j-th largest mu, with j = 1 (F_EPR)
      or 2 (F_Slater) less one if Delta_pp > 0.

    sigma_k is inf where that mu is <= 0, and 0 where j = 0.
    """
    delta = perturbations(base_state, draws)
    g = np.diag(fock.one_rdm(gates.target_state(base_state))).real
    if merit == "f_w":
        if not np.all(g == 0.5):
            raise UnsupportedCaseError(f"no critical sigma for {base_state!r} with f_w")
        return _reciprocal(2.0 * np.linalg.eigvalsh(delta)[:, 3:].sum(axis=1))
    d = 1.0 - g
    empty, rest = np.flatnonzero(d == 0.0), np.flatnonzero(d != 0.0)
    if len(empty) > 1:
        raise UnsupportedCaseError(f"no critical sigma for {base_state!r} with {merit}")
    s = delta[:, rest[:, None], rest]
    j = np.full(len(delta), {"f_epr": 1, "f_slater": 2}[merit])
    if len(empty):
        pivot = delta[:, empty[0], empty[0]].real
        b = delta[:, rest, empty[0]]
        s = s - b[:, :, None] * b.conj()[:, None, :] / pivot[:, None, None]
        j -= pivot > 0.0
    scale = 1.0 / np.sqrt(d[rest])
    mu = np.linalg.eigvalsh(scale[:, None] * s * scale)[:, ::-1]
    mu_j = np.take_along_axis(mu, np.maximum(j - 1, 0)[:, None], axis=1)[:, 0]
    return np.where(j == 0, 0.0, _reciprocal(mu_j))


def _reciprocal(x: np.ndarray) -> np.ndarray:
    """1 / x where x > 0, inf elsewhere."""
    return np.divide(1.0, x, out=np.full_like(x, np.inf), where=x > 0.0)


def critical_max_tolerated_sigma(
    base_state: str,
    merit: str,
    confidence: float = 0.999,
    n_samples: int = 10**5,
    seed: int = 0,
) -> float:
    """sigma* from ``critical_sigmas``: the largest step m h of the grid h =
    0.5 / 2**12, m <= 2**12, with np.mean(sigma_k > m h) >= confidence, or 0.

    That is the grid step below the K-th largest sigma_k, K the fewest
    violators that pass np.mean's test, and the step that 12 halvings of
    [0, 0.5] give when p is non-increasing on the grid.  A K-th largest
    sigma_k within a relative 1e-9 of a grid step, where the rounding of
    eigvalsh could put it on either side, raises AssertionError.
    """
    sigmas = np.sort(critical_sigmas(base_state, merit, standard_draws(n_samples, seed)))
    steps = np.arange(2**12 + 1) * (0.5 / 2**12)

    def largest_passing_step(scale: float) -> int:
        violators = n_samples - np.searchsorted(sigmas * scale, steps, side="right")
        passing = np.flatnonzero(violators / n_samples >= confidence)
        return int(passing[-1]) if len(passing) else 0

    m = largest_passing_step(1.0)
    assert largest_passing_step(1.0 - 1e-9) == m == largest_passing_step(1.0 + 1e-9)
    return float(steps[m])


def trapezoid_phase(omega0, omega1, detuning, duration, points: int = 1_000_000):
    """High-resolution trapezoid value of the dynamic-phase integral."""
    t = np.linspace(0.0, duration, points)
    o0 = np.array([omega0(x) for x in t])
    o1 = np.array([omega1(x) for x in t])
    integrand = np.sqrt(o0**2 + o1**2 + (detuning / 2.0) ** 2) - detuning / 2.0
    return -np.trapezoid(integrand, t)


# The hill climb as it was before proposals were scored in rounds: one
# proposal per iteration, each drawn and scored on its own.  Tests may
# raise _DEGENERATE_NORM, the floor on a proposal's block norm, to
# exercise the skip of degenerate proposals.
_DEGENERATE_NORM = 1e-14


def _sequential_mixture_lambdas(psi0, block, epsilon):
    trace = np.einsum("cr,cr->", block.conj(), block).real
    rows = np.concatenate(
        [math.sqrt(1.0 - epsilon) * psi0[None], math.sqrt(epsilon / trace) * block.T]
    )
    gamma = fock._rdm_kernel(6, 3, rows[:, None]).sum(axis=0)
    return np.linalg.eigvalsh(gamma)[::-1]


def _orthonormalize_block(block, psi0, floor=1e-14):
    block = block - np.outer(psi0, psi0.conj() @ block)
    norm = np.linalg.norm(block)
    if norm <= floor:
        raise ZeroDivisionError
    return block / norm


def sequential_hill_climb(
    epsilon: float, objective: str, seed: int, iterations: int, rank: int = 2
) -> tuple[fock.MixedState, float, int, float]:
    """(state, value, accepted, final step) of the one-proposal-at-a-time climb."""
    merit = polytope._MERITS[objective]
    rng = np.random.default_rng(seed)
    dim = fock.sector_dim(6, 3)

    def random_unit(shape):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return v / np.linalg.norm(v)

    psi0 = random_unit(dim)
    block = _orthonormalize_block(random_unit((dim, rank)), psi0)

    best = float(merit(_sequential_mixture_lambdas(psi0, block, epsilon)))
    step = 0.5
    rejections = 0
    accepted = 0
    for _ in range(iterations):
        d_psi = step * (rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
        d_blk = step * (
            rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        )
        cand_psi = psi0 + d_psi
        cand_psi = cand_psi / np.linalg.norm(cand_psi)
        try:
            cand_blk = _orthonormalize_block(block + d_blk, cand_psi, _DEGENERATE_NORM)
        except ZeroDivisionError:
            continue
        value = float(merit(_sequential_mixture_lambdas(cand_psi, cand_blk, epsilon)))
        if value > best:
            best = value
            psi0, block = cand_psi, cand_blk
            accepted += 1
            rejections = 0
        else:
            rejections += 1
            if rejections >= 100:
                step *= 0.95
                rejections = 0

    weights = np.einsum("cr,cr->r", block.conj(), block).real
    rho1 = (block * (1.0 / weights.sum())) @ block.conj().T
    rho = (1.0 - epsilon) * np.outer(psi0, psi0.conj()) + epsilon * rho1
    rho = (rho + rho.conj().T) / 2
    return fock.MixedState(6, 3, rho), best, accepted, step
