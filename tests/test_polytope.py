"""Membership checks, merit functions, weakened bounds and the extremal search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fermitope import fock, polytope
from fermitope.errors import InvalidDimensionError, UnsupportedCaseError
from fermitope.fock import natural_occupations, one_rdm, random_pure_state, wedge_embed
from fermitope.polytope import (
    CLASS_OCCUPATIONS,
    check_m_fermion,
    check_pure_bd,
    check_weakened,
    class_polytope,
    hill_climb_extremal,
    merit_values,
)

LAM = CLASS_OCCUPATIONS


class TestCheckPureBD:
    def test_slater_saturates_sum_inequality(self):
        report, member = check_pure_bd(LAM["slater"])
        assert member
        assert report.f2 == pytest.approx(2.0)
        assert report.slacks["bd"] == pytest.approx(0.0)

    def test_ghz_is_interior(self):
        report, member = check_pure_bd(LAM["ghz"])
        assert member
        assert report.f2 == pytest.approx(1.5)
        assert report.slacks["bd"] == pytest.approx(0.5)

    def test_broken_pairing_is_non_member(self):
        _, member = check_pure_bd(np.array([1.0, 0.9, 0.8, 0.3, 0.2, 0.1]))
        assert not member

    def test_wrong_length_raises(self):
        with pytest.raises(InvalidDimensionError):
            check_pure_bd([1.0, 0.5, 0.5])

    def test_unsorted_raises(self):
        with pytest.raises(InvalidDimensionError):
            check_pure_bd([0.5, 1.0, 0.5, 0.5, 0.5, 0.0])


class TestMeritValues:
    def test_reference_values(self):
        assert merit_values(LAM["epr"]).f_slater == pytest.approx(-0.5)
        assert merit_values(LAM["ghz"]).f_w == pytest.approx(-0.5)
        assert merit_values(LAM["w"]).f_epr == pytest.approx(-1 / 3)

    def test_slater_saturates_both(self):
        report = merit_values(LAM["slater"])
        assert report.f_slater == pytest.approx(0.0)
        assert report.f_epr == pytest.approx(0.0)

    def test_f1_f2_definitions(self):
        lam = np.array([0.9, 0.8, 0.7, 0.3, 0.2, 0.1])
        report = merit_values(lam)
        assert report.f1 == pytest.approx(0.9 + 0.8 - 0.7)
        assert report.f2 == pytest.approx(0.9 + 0.8 + 0.3)


class TestClassPolytopes:
    def test_nesting_by_vertex_containment(self):
        membership = {
            label: [class_polytope(c).contains(LAM[label]) for c in polytope.CLASS_LABELS]
            for label in polytope.CLASS_LABELS
        }
        # columns: slater, epr, w, ghz
        assert membership["slater"] == [True, True, True, True]
        assert membership["epr"] == [False, True, True, True]
        assert membership["w"] == [False, False, True, True]
        assert membership["ghz"] == [False, False, False, True]

    def test_slater_polytope_is_one_point(self):
        spec = class_polytope("slater")
        assert spec.contains(LAM["slater"])
        for other in ("epr", "w", "ghz"):
            assert not spec.contains(LAM[other])

    def test_unknown_label(self):
        with pytest.raises(InvalidDimensionError):
            class_polytope("bell")

    def test_json_export(self):
        data = class_polytope("w").to_json()
        assert data["label"] == "w"
        assert any(i["sense"] == ">=" for i in data["inequalities"])


class TestMFermion:
    def test_epr_is_two_fermion_entangled(self):
        assert check_m_fermion(LAM["epr"], 3, 6, 2)

    def test_w_is_not_two_fermion_entangled(self):
        assert not check_m_fermion(LAM["w"], 3, 6, 2)

    def test_class_polytope_equivalences(self):
        # m = 1, 2, 3 reproduce the Slater, EPR and full polytopes.
        assert check_m_fermion(LAM["slater"], 3, 6, 1)
        assert not check_m_fermion(LAM["epr"], 3, 6, 1)
        assert check_m_fermion(LAM["ghz"], 3, 6, 3)
        assert check_m_fermion(LAM["w"], 3, 6, 3)

    def test_wedge_embedded_states_are_members(self):
        rng = np.random.default_rng(11)
        for trial in range(15):
            psi2 = random_pure_state(6, 2, seed=300 + trial)
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            lam, _ = natural_occupations(one_rdm(wedge_embed(psi2, [v])))
            assert check_m_fermion(lam, 3, 6, 2, tol=1e-8)

    def test_two_particle_sector_structure(self):
        lam, _ = natural_occupations(one_rdm(random_pure_state(6, 2, seed=9)))
        assert check_m_fermion(lam, 2, 6, 2, tol=1e-8)

    def test_unsupported_case_raises(self):
        with pytest.raises(UnsupportedCaseError):
            check_m_fermion(np.full(8, 0.5), 4, 8, 4)
        with pytest.raises(UnsupportedCaseError):
            check_m_fermion(LAM["ghz"], 3, 6, 4)


class TestWeakened:
    @pytest.mark.parametrize("eps", [0.01, 0.06, 0.1])
    def test_explicit_state_saturates_both(self, eps):
        lam = np.array([1.0, 1.0, 1.0 - eps, eps, 0.0, 0.0])
        report = check_weakened(lam, eps)
        assert report.slack_f1 == pytest.approx(0.0, abs=1e-12)
        assert report.slack_f2 == pytest.approx(0.0, abs=1e-12)
        assert report.member

    def test_zero_epsilon_matches_pure_inequalities(self):
        for label in polytope.CLASS_LABELS:
            lam = LAM[label]
            report = check_weakened(lam, 0.0)
            _, pure_member = check_pure_bd(lam)
            assert report.member == pure_member

    def test_feasible_set_grows_with_epsilon(self):
        lam = np.array([1.0, 1.0, 0.97, 0.03, 0.0, 0.0])  # saturates at eps=0.03
        assert not check_weakened(lam, 0.01).member
        assert check_weakened(lam, 0.03).member
        assert check_weakened(lam, 0.2).member

    def test_reported_merit_row(self):
        lam = np.array([0.5013, 0.5011, 0.5003, 0.4995, 0.4987, 0.4987])
        report = check_weakened(lam, 0.0149)
        assert report.member
        assert 0.5013 <= 1 + 0.0149

    def test_epsilon_range_validated(self):
        with pytest.raises(InvalidDimensionError):
            check_weakened(LAM["ghz"], -0.2)


def proposition_form_state(rng, epsilon: float):
    """Random rho = (1-eps)|psi0><psi0| + eps*rho1 with rho1 orthogonal."""
    dim = fock.sector_dim(6, 3)
    psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi0 /= np.linalg.norm(psi0)
    block = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    block -= np.outer(psi0, psi0.conj() @ block)
    rho1 = block @ block.conj().T
    rho1 /= np.trace(rho1).real
    rho = (1 - epsilon) * np.outer(psi0, psi0.conj()) + epsilon * rho1
    return fock.MixedState(6, 3, (rho + rho.conj().T) / 2)


class TestHillClimb:
    def test_short_run_respects_ceiling_and_form(self):
        result = hill_climb_extremal(0.06, "f1", seed=3, iterations=2000)
        assert result.value <= 1.06 + 1e-9
        assert result.state.largest_eigenvalue() == pytest.approx(0.94, abs=1e-9)

    def test_objective_value_is_reproducible(self):
        a = hill_climb_extremal(0.1, "f2", seed=5, iterations=500)
        b = hill_climb_extremal(0.1, "f2", seed=5, iterations=500)
        assert a.value == b.value

    def test_invalid_arguments(self):
        with pytest.raises(InvalidDimensionError):
            hill_climb_extremal(0.0, "f1", seed=0, iterations=10)
        with pytest.raises(InvalidDimensionError):
            hill_climb_extremal(0.1, "f1", seed=0, iterations=0)
        with pytest.raises(InvalidDimensionError):
            hill_climb_extremal(0.1, "f3", seed=0, iterations=10)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidDimensionError):
            hill_climb_extremal(0.06, seed=-1)

    def test_non_integer_seed_rejected(self):
        with pytest.raises(InvalidDimensionError, match="seed must be an integer"):
            hill_climb_extremal(0.06, "f1", seed=2.5)

    @pytest.mark.parametrize("iterations", [2.5, 10.0, True, 0, -1])
    def test_non_integer_iterations_rejected(self, iterations):
        message = "must be >= 1" if type(iterations) is int else "must be an integer"
        with pytest.raises(InvalidDimensionError, match=f"iterations {message}"):
            hill_climb_extremal(0.06, "f1", iterations=iterations)

    def test_proposition_form_states_satisfy_weakened_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            eps = float(rng.uniform(0.0, 0.3))
            state = proposition_form_state(rng, eps)
            lam = np.linalg.eigvalsh(one_rdm(state))[::-1]
            assert check_weakened(lam, eps).member


EXTREMAL_CASES = [(o, e) for o in ("f1", "f2") for e in (0.01, 0.06, 0.1)]


def assert_matches_sequential(epsilon, objective, seed, iterations):
    """The round-based climb against the one-proposal-at-a-time loop."""
    state, value, accepted, step = oracles.sequential_hill_climb(
        epsilon, objective, seed, iterations
    )
    result = hill_climb_extremal(epsilon, objective, seed=seed, iterations=iterations)
    assert result.accepted == accepted
    assert abs(result.value - value) <= 1e-12
    assert np.max(np.abs(result.state.matrix - state.matrix)) <= 1e-12
    assert result.final_step == pytest.approx(step, rel=1e-12)
    return result


class TestRoundsMatchSequentialClimb:
    @pytest.mark.parametrize("seed", [0, 7, 42])
    @pytest.mark.parametrize("objective,epsilon", EXTREMAL_CASES)
    def test_extremal_cases(self, objective, epsilon, seed):
        result = assert_matches_sequential(epsilon, objective, seed, 2000)
        # Every proposal is scored once, plus those after each accepted one.
        assert 2000 <= result.evaluations <= 2000 + result.accepted * (polytope._PROPOSALS - 1)

    @pytest.mark.parametrize("iterations", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("objective,epsilon", [("f1", 0.06), ("f2", 0.1)])
    def test_partial_last_round(self, objective, epsilon, iterations):
        assert_matches_sequential(epsilon, objective, 3, iterations)

    def test_degenerate_blocks_are_skipped(self, monkeypatch):
        # Proposals' projected blocks have norms around 2-6 at the first
        # step sizes; calling those below 4 degenerate skips a third of them.
        unskipped = hill_climb_extremal(0.06, "f1", seed=5, iterations=1000)
        monkeypatch.setattr(polytope, "_DEGENERATE_NORM", 4.0)
        monkeypatch.setattr(oracles, "_DEGENERATE_NORM", 4.0)
        result = assert_matches_sequential(0.06, "f1", 5, 1000)
        # Skips are neither scored nor counted as rejections toward annealing.
        assert result.evaluations < 1000
        assert result.final_step > unskipped.final_step


@pytest.mark.parametrize("k", [1, 31, 32])
@pytest.mark.parametrize("rejections", [0, 1, 68, 69, 99])
def test_round_steps_match_the_annealing_loop(rejections, k):
    """A round's steps are _annealed's, bit for bit: rejections < _ANNEAL_AFTER
    when a round starts, so k <= _ANNEAL_AFTER proposals anneal at most once."""
    assert polytope._PROPOSALS <= polytope._ANNEAL_AFTER
    for step in (0.5, 0.5 * 0.95**613, np.float64(6.883993210159581e-08)):
        got = polytope._round_steps(step, rejections, k)
        want = np.array([polytope._annealed(step, rejections, j)[0] for j in range(k)])
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()


def test_one_eigvalsh_call_and_one_gram_product_per_round(monkeypatch):
    """Each round scores its proposals by one 1-RDM kernel call, which stacks
    every proposal's 1 + rank rows into one Gram product, and one eigvalsh call
    on the products; the initial score takes one of each."""
    rounds, products, events = [], [], []
    round_steps, kernel, eigvalsh = polytope._round_steps, fock._rdm_kernel, np.linalg.eigvalsh

    def spy_kernel(d, n, x, **options):
        products.append(kernel(d, n, x, **options))
        events.append(("kernel", x.shape, options))
        return products[-1]

    def spy_eigvalsh(gamma):
        events.append(("eigvalsh", gamma is products[-1]))
        return eigvalsh(gamma)

    monkeypatch.setattr(polytope, "_round_steps", lambda *a: rounds.append(a) or round_steps(*a))
    monkeypatch.setattr(fock, "_rdm_kernel", spy_kernel)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy_eigvalsh)
    result = hill_climb_extremal(0.06, "f1", seed=3, iterations=2000)
    assert len(rounds) >= 2000 // polytope._PROPOSALS
    assert len(events) == 2 * (len(rounds) + 1)
    rows = (1 + polytope._RANK, fock.sector_dim(6, 3))
    for call, then in zip(events[::2], events[1::2]):
        assert (call[0], call[1][-2:], call[2]) == ("kernel", rows, {})
        assert then == ("eigvalsh", True)
    assert products[0].shape == (6, 6)
    assert sum(len(gamma) for gamma in products[1:]) == result.evaluations
    assert all(gamma.shape[1:] == (6, 6) for gamma in products[1:])


def test_batched_mixture_lambdas_match_single_calls():
    rng = np.random.default_rng(13)
    eps = 0.07
    psi = rng.standard_normal((9, 20)) + 1j * rng.standard_normal((9, 20))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    block = rng.standard_normal((9, 20, 2)) + 1j * rng.standard_normal((9, 20, 2))
    batched = polytope._mixture_lambdas(psi, block, eps)
    assert batched.shape == (9, 6)
    single = np.array([polytope._mixture_lambdas(p, b, eps) for p, b in zip(psi, block)])
    assert single.shape == (9, 6)
    assert np.max(np.abs(batched - single)) <= 1e-14


def lidskii_mixture(seed: int, rank: int, epsilon: float):
    """psi, the weights and unit vectors of a rank-``rank`` rho1, and gamma of the mixture."""
    rng = np.random.default_rng(seed)
    dim = fock.sector_dim(6, 3)
    vecs = rng.standard_normal((rank + 1, dim)) + 1j * rng.standard_normal((rank + 1, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    psi, comps = fock.PureState(6, 3, vecs[0]), vecs[1:]
    weights = rng.dirichlet(np.ones(rank))
    rho1 = (comps.T * weights) @ comps.conj()
    rho1 = (rho1 + rho1.conj().T) / 2
    rho1 /= np.trace(rho1).real
    rho = (1 - epsilon) * np.outer(psi.amplitudes, psi.amplitudes.conj()) + epsilon * rho1
    gamma = one_rdm(fock.MixedState(6, 3, (rho + rho.conj().T) / 2))
    return psi, weights, comps, fock.MixedState(6, 3, rho1), gamma


def test_mixture_rdms_match_dense_oracle():
    psi, weights, comps, rho1, gamma = lidskii_mixture(seed=5, rank=3, epsilon=0.3)
    dense_1 = sum(
        w * oracles.dense_one_rdm(fock.PureState(6, 3, v)) for w, v in zip(weights, comps)
    )
    assert np.max(np.abs(one_rdm(psi) - oracles.dense_one_rdm(psi))) <= 1e-12
    assert np.max(np.abs(one_rdm(rho1) - dense_1)) <= 1e-12
    assert np.max(np.abs(gamma - (0.7 * oracles.dense_one_rdm(psi) + 0.3 * dense_1))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 5),
    epsilon=st.floats(0.0, 1.0, allow_nan=False),
)
def test_lidskii_bounds_f2_of_mixtures(seed, rank, epsilon):
    """Criterion 6's F2 ceiling, proved rather than searched for.

    With gamma = (1-eps) gamma_psi + eps gamma_1, Lidskii's inequality
    sum_{i in I} lam_i(A + B) <= sum_{i in I} lam_i(A) + sum_{i <= |I|} lam_i(B)
    at I = {1, 2, 4} bounds F2(gamma) by (1-eps) F2(gamma_psi) +
    eps (lam1 + lam2 + lam3)(gamma_1), which is at most 2(1-eps) + 3 eps
    by the pure-state inequality and lam_i <= 1.
    """
    psi, _, _, rho1, gamma = lidskii_mixture(seed, rank, epsilon)
    gamma_psi, gamma_1 = one_rdm(psi), one_rdm(rho1)
    assert np.max(np.abs(gamma - ((1 - epsilon) * gamma_psi + epsilon * gamma_1))) <= 1e-12
    f2 = polytope._MERITS["f2"]
    lam = np.linalg.eigvalsh(gamma)[::-1]
    lam_psi = np.linalg.eigvalsh(gamma_psi)[::-1]
    lam_1 = np.linalg.eigvalsh(gamma_1)[::-1]
    ceiling = (1 - epsilon) * f2(lam_psi) + epsilon * lam_1[:3].sum()
    assert f2(lam) <= ceiling + 1e-12
    assert ceiling <= 2 + epsilon + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rank=st.integers(1, 5),
    epsilon=st.floats(0.0, 1.0, allow_nan=False),
)
def test_ky_fan_and_weyl_bound_f1_of_mixtures(seed, rank, epsilon):
    """Criterion 6's F1 ceiling, proved rather than searched for.

    With A = (1-eps) gamma_psi and B = eps gamma_1, Ky Fan's inequality
    (lam1 + lam2)(A + B) <= (lam1 + lam2)(A) + (lam1 + lam2)(B) and Weyl's
    lam3(A + B) >= lam3(A) + lam6(B) bound F1(gamma) by (1-eps) F1(gamma_psi) +
    eps (lam1 + lam2 - lam6)(gamma_1).  That is at most (1-eps) + 2 eps, since
    F1(gamma_psi) <= 1 is the pure-state inequality with lam3 + lam4 = 1.
    """
    psi, _, _, rho1, gamma = lidskii_mixture(seed, rank, epsilon)
    f1 = polytope._MERITS["f1"]
    lam = np.linalg.eigvalsh(gamma)[::-1]
    lam_psi = np.linalg.eigvalsh(one_rdm(psi))[::-1]
    lam_1 = np.linalg.eigvalsh(one_rdm(rho1))[::-1]
    ceiling = (1 - epsilon) * f1(lam_psi) + epsilon * (lam_1[0] + lam_1[1] - lam_1[5])
    assert f1(lam) <= ceiling + 1e-12
    assert ceiling <= 1 + epsilon + 1e-12


@pytest.mark.parametrize("epsilon", [0.01, 0.06, 0.5])
def test_f1_and_f2_ceilings_are_attained(epsilon):
    """psi0 = |111000> mixed with rho1 = |110100><110100| (rho1 orthogonal to psi0,
    rank 1) has lam = (1, 1, 1-eps, eps, 0, 0), so F1 = 1+eps and F2 = 2+eps."""
    psi0 = fock.basis_vector(6, "111000").amplitudes
    psi1 = fock.basis_vector(6, "110100").amplitudes
    rho = (1 - epsilon) * np.outer(psi0, psi0.conj()) + epsilon * np.outer(psi1, psi1.conj())
    lam, _ = natural_occupations(one_rdm(fock.MixedState(6, 3, rho)))
    assert np.max(np.abs(lam - [1, 1, 1 - epsilon, epsilon, 0, 0])) <= 4e-16
    assert abs(polytope._MERITS["f1"](lam) - (1 + epsilon)) <= 4e-16
    assert abs(polytope._MERITS["f2"](lam) - (2 + epsilon)) <= 4e-16
