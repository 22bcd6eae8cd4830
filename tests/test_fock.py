"""Sector basis, ladder operators, 1-RDM extraction and state constructions."""

import json
import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from fermitope import fock, gates, noise, polytope
from fermitope.errors import (
    DegenerateInputError,
    InvalidDimensionError,
    InvalidGateError,
    InvalidRDMError,
    SectorMismatchError,
    ZeroStateError,
)
from fermitope.fock import (
    MixedState,
    PureState,
    apply_ladder,
    basis_vector,
    natural_occupations,
    one_rdm,
    random_pure_state,
    sector_basis,
    sector_dim,
    superposition,
    wedge_embed,
)


class TestSectorBasis:
    def test_two_mode_single_particle_order(self):
        basis = sector_basis(2, 1)
        assert [b.occupations for b in basis] == ["10", "01"]

    def test_three_in_six_has_twenty_states(self):
        assert len(sector_basis(6, 3)) == 20
        assert sector_dim(6, 3) == 20

    def test_vacuum_sector(self):
        basis = sector_basis(6, 0)
        assert [b.occupations for b in basis] == ["000000"]

    def test_order_is_descending_bitstrings(self):
        basis = sector_basis(6, 3)
        masks = [b.mask for b in basis]
        assert masks == sorted(masks, reverse=True)
        assert basis[0].occupations == "111000"

    def test_deterministic(self):
        assert sector_basis(5, 2) == sector_basis(5, 2)

    @pytest.mark.parametrize("d", range(1, 17))
    def test_masks_match_combinations_in_every_sector(self, d):
        for n in range(d + 1):
            want = np.fromiter(
                (sum(1 << (d - 1 - pos) for pos in combo) for combo in combinations(range(d), n)),
                dtype=np.int64,
                count=math.comb(d, n),
            )
            assert fock._sector_masks(d, n).tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", range(1, 13))
    def test_positions_and_occupations_read_the_masks(self, d):
        for n in range(d + 1):
            basis = sector_basis(d, n)
            masks = fock._sector_masks(d, n)
            assert fock._positions(d, n, masks).tolist() == list(range(len(basis)))
            table = fock._occupations(d, n)
            assert table.dtype == np.int8 and table.shape == (d, len(basis))
            assert not table.flags.writeable and table.flags.c_contiguous
            for site in range(1, d + 1):
                assert table[site - 1].tolist() == [int(b.occupations[site - 1]) for b in basis]

    @pytest.mark.parametrize("d", range(1, 9))
    def test_occupation_expectation_matches_dense_oracle(self, d):
        for n in range(d + 1):
            pure = random_pure_state(d, n, seed=d + 10 * n)
            psi = pure.amplitudes
            rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.eye(len(psi)) / len(psi)
            mixed = MixedState(d, n, rho)
            full = oracles.embed_state(pure)
            for site in range(1, d + 1):
                number = oracles.dense_creation(d, site) @ oracles.dense_annihilation(d, site)
                want = np.vdot(full, number @ full).real
                assert fock.occupation_expectation(pure, site) == pytest.approx(want, abs=1e-12)
                block = oracles.restrict(number, d, n, n)
                want = np.trace(mixed.matrix @ block).real
                assert fock.occupation_expectation(mixed, site) == pytest.approx(want, abs=1e-12)

    def test_positions_refuse_a_mask_outside_the_sector(self):
        with pytest.raises(InvalidDimensionError, match=r"\|110000> is not in"):
            fock._positions(6, 3, [0b111000, 0b110000])
        with pytest.raises(InvalidDimensionError):
            fock._positions(6, 3, 1 << 6 | 0b11)

    @pytest.mark.parametrize("d,n", [(3, 4), (0, 0), (25, 2), (4, -1)])
    def test_invalid_sectors_raise(self, d, n):
        with pytest.raises(InvalidDimensionError):
            sector_basis(d, n)


class TestLadder:
    def test_creation_on_vacuum(self):
        vac = basis_vector(6, "000000")
        out = apply_ladder(vac, 1, "creation")
        assert out.amplitude("100000") == 1.0
        assert out.norm == pytest.approx(1.0)

    def test_annihilation_on_vacuum_is_zero_vector(self):
        vac = basis_vector(6, "000000")
        assert apply_ladder(vac, 1, "annihilation").is_zero

    def test_creation_on_full_sector_is_zero_vector(self):
        full = basis_vector(3, "111")
        assert apply_ladder(full, 2, "creation").is_zero

    def test_annihilation_on_empty_mode_is_zero_vector(self):
        out = apply_ladder(basis_vector(6, "100000"), 2, "annihilation")
        assert out.is_zero

    def test_creation_on_occupied_mode_is_zero_vector(self):
        out = apply_ladder(basis_vector(6, "100000"), 1, "creation")
        assert out.is_zero

    def test_sign_convention_on_ordered_pair(self):
        # a_1^+ |010000> = +|110000>, a_2^+ |100000> = -|110000>
        plus = apply_ladder(basis_vector(6, "010000"), 1, "creation")
        assert plus.amplitude("110000") == pytest.approx(1.0)
        minus = apply_ladder(basis_vector(6, "100000"), 2, "creation")
        assert minus.amplitude("110000") == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_dense_oracle_at_d4(self, n):
        d = 4
        rng = np.random.default_rng(17 + n)
        amps = rng.standard_normal(sector_dim(d, n)) + 1j * rng.standard_normal(
            sector_dim(d, n)
        )
        state = PureState(d, n, amps)
        for mode in range(1, d + 1):
            for kind, op, n_out in (
                ("creation", oracles.dense_creation(d, mode), n + 1),
                ("annihilation", oracles.dense_annihilation(d, mode), n - 1),
            ):
                if not 0 <= n_out <= d:
                    continue
                got = apply_ladder(state, mode, kind)
                expected = oracles.restrict(op, d, n, n_out) @ amps
                assert np.allclose(got.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matches_dense_oracle_in_every_sector(self, d):
        rng = np.random.default_rng(d)
        for n in range(d + 1):
            dim = sector_dim(d, n)
            amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            state = PureState(d, n, amps)
            for mode in range(1, d + 1):
                for kind, op, n_out in (
                    ("creation", oracles.dense_creation(d, mode), n + 1),
                    ("annihilation", oracles.dense_annihilation(d, mode), n - 1),
                ):
                    got = apply_ladder(state, mode, kind)
                    if not 0 <= n_out <= d:
                        assert got.n_particles == n and not got.amplitudes.any()
                        continue
                    expected = oracles.restrict(op, d, n, n_out) @ amps
                    assert got.n_particles == n_out
                    assert np.allclose(got.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_never_returns_negative_zero(self, d):
        # Signed-zero inputs and -1 signs would make -0.0 if an output were
        # written as sign * amplitude rather than added to +0.0.
        rng = np.random.default_rng(40 + d)
        for n in range(d + 1):
            dim = sector_dim(d, n)
            amps = rng.choice([-0.0, 0.0, -1.0, 1.0], dim) + 1j * rng.choice(
                [-0.0, 0.0, -1.0, 1.0], dim
            )
            for state in (PureState(d, n, amps), PureState(d, n, -0.0 * amps)):
                for mode in range(1, d + 1):
                    for kind in ("creation", "annihilation"):
                        out = apply_ladder(state, mode, kind).amplitudes
                        for part in (out.real, out.imag):
                            assert not np.signbit(part[part == 0]).any()

    def test_anticommutation_of_creations(self):
        state = random_pure_state(4, 1, seed=5)
        for i in range(1, 5):
            for j in range(1, 5):
                if i == j:
                    continue
                ij = apply_ladder(apply_ladder(state, j, "creation"), i, "creation")
                ji = apply_ladder(apply_ladder(state, i, "creation"), j, "creation")
                assert np.allclose(ij.amplitudes, -ji.amplitudes, atol=1e-12)


class TestOneRDM:
    def test_slater_determinant_is_diagonal(self):
        gamma = one_rdm(basis_vector(6, "101010"))
        assert np.allclose(gamma, np.diag([1, 0, 1, 0, 1, 0]), atol=1e-12)

    def test_ghz_occupations_are_half(self):
        ghz = superposition(6, {"101010": 1, "010101": 1})
        assert np.allclose(one_rdm(ghz), np.eye(6) / 2, atol=1e-12)

    def test_w_state_eigenvalues(self):
        w = superposition(6, {"101010": 1, "010110": 1, "011001": -1})
        lam, _ = natural_occupations(one_rdm(w))
        assert np.allclose(lam, [2 / 3] * 3 + [1 / 3] * 3, atol=1e-12)

    def test_zero_state_raises(self):
        zero = PureState(6, 3, np.zeros(20))
        with pytest.raises(DegenerateInputError):
            one_rdm(zero)

    def test_trace_equals_particle_number(self):
        for seed in range(5):
            state = random_pure_state(6, 3, seed=seed)
            gamma = one_rdm(state)
            assert np.trace(gamma).real == pytest.approx(3.0, abs=1e-12)
            assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (4, 2), (5, 2), (6, 3)])
    def test_matches_dense_oracle(self, d, n):
        state = random_pure_state(d, n, seed=d * 10 + n)
        assert np.allclose(one_rdm(state), oracles.dense_one_rdm(state), atol=1e-12)

    def test_mixed_state_rdm_is_mixture_of_pure_rdms(self):
        a = random_pure_state(6, 3, seed=1)
        b = random_pure_state(6, 3, seed=2)
        rho = 0.7 * np.outer(a.amplitudes, a.amplitudes.conj())
        rho += 0.3 * np.outer(b.amplitudes, b.amplitudes.conj())
        mixed = MixedState(6, 3, rho)
        expected = 0.7 * one_rdm(a) + 0.3 * one_rdm(b)
        assert np.allclose(one_rdm(mixed), expected, atol=1e-12)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_kernel_matches_dense_oracle_on_every_sector(self, d):
        for n in range(d + 1):
            states = [random_pure_state(d, n, seed=100 * d + 10 * n + r) for r in range(2)]
            want = [oracles.dense_one_rdm(s) for s in states]
            amps = np.stack([s.amplitudes for s in states])
            rho = 0.7 * np.outer(amps[0], amps[0].conj()) + 0.3 * np.outer(amps[1], amps[1].conj())
            single = fock._rdm_kernel(d, n, amps[:1])
            batch = fock._rdm_kernel(d, n, amps[:, None])
            mixed = fock._rdm_kernel(d, n, rho, density=True)
            assert np.max(np.abs(single - want[0])) <= 1e-12
            assert np.max(np.abs(batch - np.stack(want))) <= 1e-12
            assert np.max(np.abs(mixed - (0.7 * want[0] + 0.3 * want[1]))) <= 1e-12

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_summed_rows_match_dense_oracle(self, rank):
        """Purification rows (k, 1 + rank, 20), stacked into one product each,
        give the weighted sum of their rows' 1-RDMs."""
        rng = np.random.default_rng(rank)
        rows = rng.standard_normal((4, 1 + rank, 20)) + 1j * rng.standard_normal((4, 1 + rank, 20))
        weights = rng.dirichlet(np.ones(1 + rank), size=4)
        rows *= np.sqrt(weights / np.sum(np.abs(rows) ** 2, axis=-1))[..., None]
        got = fock._rdm_kernel(6, 3, rows)
        want = [
            sum(np.vdot(r, r).real * oracles.dense_one_rdm(PureState(6, 3, r)) for r in mixture)
            for mixture in rows
        ]
        assert got.shape == (4, 6, 6)
        assert np.max(np.abs(got - np.stack(want))) <= 1e-13

    @pytest.mark.parametrize("d, n", [(6, 3), (10, 5), (14, 7)])
    def test_pure_state_keeps_the_gather_bits(self, d, n):
        """one_rdm of a pure state is S * psi[C] and its one product, to the bit:
        on random states, on them with parts zeroed to +0.0 and -0.0, on the
        four targets at (6, 3), and on a batch (2, 3, dim) of purification rows."""
        index, signs = fock._creation_table(d, n)
        index = index % math.comb(d, n)  # C from the signed index C'
        rng = np.random.default_rng(d)
        states = [random_pure_state(d, n, seed=seed).amplitudes for seed in range(3)]
        states += [_with_signed_zeros(psi, rng) for psi in states]
        if (d, n) == (6, 3):
            states += [gates.target_state(label).amplitudes for label in gates.CLASSES]
        for psi in states:
            phi = psi[index] * signs
            want = (phi.T @ phi.conj()) / float(np.vdot(psi, psi).real)
            got = one_rdm(PureState(d, n, psi))
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        rows = np.stack(states[:6]).reshape(2, 3, -1)
        phi = (rows[..., index] * signs).reshape(2, -1, d)
        want = np.swapaxes(phi, -1, -2) @ phi.conj()
        got = fock._rdm_kernel(d, n, rows)
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()

    @pytest.mark.parametrize("d", range(1, 5))
    def test_signed_zero_rows_keep_the_gather_bits(self, d):
        """Rows whose parts are +-0.0 and +-1.0, where a gamma entry can be a sum of
        zeros and so shows their signs: each product S * x[C] keeps its bits."""
        rng = np.random.default_rng(d)
        for n in range(d + 1):
            index, signs = fock._creation_table(d, n)
            rows = np.empty((64, 2, math.comb(d, n)), dtype=complex)
            rows.real, rows.imag = rng.choice([0.0, -0.0, 1.0, -1.0], size=(2,) + rows.shape)
            phi = (rows[..., index % math.comb(d, n)] * signs).reshape(64, -1, d)
            want = np.swapaxes(phi, -1, -2) @ phi.conj()
            got = fock._rdm_kernel(d, n, rows)
            assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes(), n


def _with_signed_zeros(psi: np.ndarray, rng) -> np.ndarray:
    """psi with about a third of its real and of its imaginary parts set to +0.0 or -0.0."""
    out = psi.copy()
    for part in (out.real, out.imag):
        at = rng.random(part.shape) < 1 / 3
        part[at] = rng.choice([0.0, -0.0], size=np.count_nonzero(at))
    return out


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal values and equal sign bits, -0.0 against +0.0 included."""
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    got, want = got.view(np.float64), want.view(np.float64)
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestDensityKernel:
    """The density branch reads only the live terms and adds them in
    ascending k, so it must give the bits of the einsum over all terms."""

    LEADS = [(), (1,), (13,), (2, 3)]

    @pytest.mark.parametrize("d", range(1, 11))
    def test_keeps_the_einsum_bits_on_every_sector(self, d):
        rng = np.random.default_rng(d)
        for n in range(d + 1):
            dim = math.comb(d, n)
            for lead in self.LEADS:
                # Recorded noisy states are (dim + 1, dim) blocks read without
                # their last row; a contiguous copy is the general input.
                shape = lead + (dim + 1, dim)
                block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                view = block[..., :-1, :]
                # Exact zeros of both signs: the signed normals times 0 or 1.
                diagonal = np.zeros(lead + (dim, dim), dtype=complex)
                values = rng.standard_normal(lead + (dim,)) * rng.integers(0, 2, lead + (dim,))
                diagonal[..., range(dim), range(dim)] = values
                for rho in (np.ascontiguousarray(view), view, diagonal):
                    want = oracles.einsum_density_rdm(d, n, rho)
                    got = fock._rdm_kernel(d, n, rho, density=True)
                    assert _same_bits(got, want), (n, lead)

    @pytest.mark.parametrize(
        "d, n, live", [(1, 0, 0), (1, 1, 1), (4, 4, 4), (8, 4, 1_400), (10, 5, 7_560), (12, 6, 38_808)]
    )
    def test_terms_are_the_nonzero_signs_in_k_order(self, d, n, live):
        """Every live term appears once, in the group of its entry, and each
        entry's column holds its terms in ascending k."""
        index, signs = fock._creation_table(d, n)
        dim = math.comb(d, n)
        k, i, j = np.nonzero(signs[:, :, None] * signs[:, None, :])
        order = np.lexsort((k, i * d + j))  # entry-major, ascending k
        k, i, j = k[order], i[order], j[order]
        (src_diag, sign_diag, diag), (src_off, sign_off, off) = fock._density_terms(d, n)
        assert np.array_equal(diag, np.arange(d) * (d + 1))
        assert np.array_equal(np.sort(np.concatenate((diag, off))), np.arange(d * d))
        assert src_diag.shape == (math.comb(d - 1, n - 1) if n else 0, d)
        assert src_off.shape[1] == d * (d - 1)
        assert src_diag.size + src_off.size == len(k) == live == len(index) * (d - n + 1) ** 2
        for src, sign, entries in ((src_diag, sign_diag, diag), (src_off, sign_off, off)):
            at = np.isin(i * d + j, entries)
            assert np.array_equal(np.repeat(entries, len(src)), (i * d + j)[at])
            assert np.array_equal(src.T.ravel(), (index[k, i] % dim * dim + index[k, j] % dim)[at])
            assert np.array_equal(sign.T.ravel(), (signs[k, i] * signs[k, j])[at])

    def test_transient_below_the_gathered_entries_at_twelve_modes(self):
        """The einsum gathered all K d^2 entries: 1.8 MB for one (12, 6) state."""
        d, n = 12, 6
        rng = np.random.default_rng(12)
        rho = rng.standard_normal((math.comb(d, n),) * 2).astype(complex)
        fock._rdm_kernel(d, n, rho, density=True)  # the term table is cached
        tracemalloc.start()
        try:
            fock._rdm_kernel(d, n, rho, density=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gathered_bytes = math.comb(d, n - 1) * d * d * 16
        assert peak < gathered_bytes


class TestPairTransitions:
    """One table per unordered site pair: (j, i) reads (i, j)'s arrays swapped."""

    @pytest.mark.parametrize("d", [6, 8, 10])
    def test_reversed_pair_is_the_swapped_table(self, d):
        n = d // 2
        masks = fock._sector_masks(d, n)
        for i, j in permutations(range(1, d + 1), 2):
            src, dst, sign = fock._pair_transitions(d, n, i, j)
            back = fock._pair_transitions(d, n, j, i)
            for got, want in zip(back, (dst, src, sign)):
                assert np.shares_memory(got, want) and np.array_equal(got, want)
            assert sign.dtype == np.int8 and set(np.unique(sign)) <= {-1, 1}
            assert np.all(np.diff(src) > 0)
            # Against the masks: i occupied and j empty, the particle moved to
            # j, and the parity of the occupied sites strictly between them.
            bit_i, bit_j = 1 << (d - i), 1 << (d - j)
            want_src = np.flatnonzero((masks & bit_i != 0) & (masks & bit_j == 0))
            between = (1 << (d - min(i, j))) - (1 << (d - max(i, j) + 1))
            assert np.array_equal(src, want_src)
            assert np.array_equal(dst, fock._positions(d, n, masks[src] ^ bit_i ^ bit_j))
            parity = np.bitwise_count(masks[src] & between) & 1
            assert np.array_equal(sign, 1 - 2 * parity.astype(np.int8))

    def test_every_pair_at_ten_modes_holds_17_bytes_per_transition(self):
        d, n = 10, 5
        held = {}
        for i, j in permutations(range(1, d + 1), 2):
            for arr in fock._pair_transitions(d, n, i, j):
                assert arr.base is None and not arr.flags.writeable
                held[id(arr)] = arr.nbytes
        assert sum(held.values()) == 17 * math.comb(8, 4) * 45


class TestNaturalOccupations:
    def test_permutation_sort(self):
        lam, _ = natural_occupations(np.diag([0.0, 1, 1, 0, 1, 0]))
        assert np.allclose(lam, [1, 1, 1, 0, 0, 0])

    def test_epr_spectrum(self):
        epr = superposition(6, {"101010": 1, "010110": 1})
        lam, _ = natural_occupations(one_rdm(epr))
        assert np.allclose(lam, [1, 0.5, 0.5, 0.5, 0.5, 0], atol=1e-12)

    def test_unitary_diagonalizes(self):
        gamma = one_rdm(random_pure_state(6, 3, seed=11))
        lam, u = natural_occupations(gamma)
        resid = u @ gamma @ u.conj().T - np.diag(lam)
        assert np.max(np.abs(resid)) < 1e-10
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-10)

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(23)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        gamma = (m + m.conj().T) / 2
        lam, _ = natural_occupations(gamma)
        roots = np.sort(np.roots(np.poly(gamma)).real)[::-1]
        assert np.allclose(lam, roots, atol=1e-10)

    def test_non_hermitian_raises(self):
        bad = np.diag([1.0, 0, 1, 0, 1, 0]).astype(complex)
        bad[0, 1] = 0.5
        with pytest.raises(InvalidRDMError):
            natural_occupations(bad)


class TestRandomPureState:
    def test_deterministic_per_seed(self):
        a = random_pure_state(6, 3, seed=1)
        b = random_pure_state(6, 3, seed=1)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        c = random_pure_state(6, 3, seed=2)
        assert not np.array_equal(a.amplitudes, c.amplitudes)

    def test_unit_norm(self):
        for seed in range(10):
            assert random_pure_state(6, 3, seed).norm == pytest.approx(1.0, abs=1e-12)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidDimensionError):
            random_pure_state(6, 3, -1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InvalidDimensionError, match="seed must be an integer"):
            random_pure_state(6, 3, seed)

    def test_numpy_integer_seed_accepted(self):
        a = random_pure_state(6, 3, np.int64(4))
        assert np.array_equal(a.amplitudes, random_pure_state(6, 3, 4).amplitudes)

    def test_numpy_integer_sector_accepted(self):
        a = random_pure_state(np.int64(6), np.int32(3), 0)
        b = random_pure_state(6, 3, 0)
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.array_equal(one_rdm(a), one_rdm(b))
        assert json.dumps(a.to_json()) == json.dumps(b.to_json())

    @pytest.mark.parametrize("d, n", [(True, 1), (6, True), (6.0, 3), (6, 3.0)])
    def test_non_integer_sector_rejected(self, d, n):
        """True would pass as a 1-mode sector; numpy integers used to be refused."""
        with pytest.raises(InvalidDimensionError, match="must be an integer"):
            random_pure_state(d, n, 0)


class TestWedgeEmbed:
    def test_disjoint_supports(self):
        e3 = np.zeros(6)
        e3[2] = 1.0
        out = wedge_embed(basis_vector(6, "110000"), [e3])
        assert out.amplitude("111000") == pytest.approx(1.0)

    def test_repeated_mode_vanishes(self):
        e1 = np.zeros(6)
        e1[0] = 1.0
        with pytest.raises(ZeroStateError):
            wedge_embed(basis_vector(6, "110000"), [e1])

    def test_embedded_states_have_leading_one_and_paired_tail(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            psi2 = random_pure_state(6, 2, seed=100 + trial)
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            out = wedge_embed(psi2, [v])
            lam, _ = natural_occupations(one_rdm(out))
            assert lam[0] == pytest.approx(1.0, abs=1e-9)
            assert lam[1] == pytest.approx(lam[2], abs=1e-9)
            assert lam[3] == pytest.approx(lam[4], abs=1e-9)
            assert lam[5] == pytest.approx(0.0, abs=1e-9)
            assert lam[1] + lam[3] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_matches_sum_of_dense_creations(self, d):
        rng = np.random.default_rng(60 + d)
        for n in range(d):
            state = random_pure_state(d, n, seed=d * 10 + n)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            op = sum(v[i - 1] * oracles.dense_creation(d, i) for i in range(1, d + 1))
            expected = oracles.restrict(op, d, n, n + 1) @ state.amplitudes
            out = wedge_embed(state, [v])
            assert out.n_particles == n + 1
            assert np.allclose(out.amplitudes, expected / np.linalg.norm(expected), atol=1e-12)


class TestSectorSpectraProperties:
    def test_half_filling_pairing_equalities(self):
        for seed in range(200):
            lam, _ = natural_occupations(one_rdm(random_pure_state(6, 3, seed)))
            assert abs(lam[0] + lam[5] - 1) < 1e-9
            assert abs(lam[1] + lam[4] - 1) < 1e-9
            assert abs(lam[2] + lam[3] - 1) < 1e-9

    def test_two_particle_double_degeneracy(self):
        for seed in range(200):
            lam, _ = natural_occupations(one_rdm(random_pure_state(6, 2, seed)))
            assert abs(lam[0] - lam[1]) < 1e-9
            assert abs(lam[2] - lam[3]) < 1e-9
            assert abs(lam[4] - lam[5]) < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.floats(-1.0, 1.0), min_size=40, max_size=40))
    def test_random_three_in_six_states(self, parts):
        amps = np.array(parts[:20]) + 1j * np.array(parts[20:])
        assume(np.linalg.norm(amps) > 0.1)
        state = PureState(6, 3, amps).normalized()
        gamma = one_rdm(state)
        assert np.max(np.abs(gamma - oracles.dense_one_rdm(state))) <= 1e-12
        lam = np.linalg.eigvalsh(gamma)[::-1]
        assert np.trace(gamma).real == pytest.approx(3.0, abs=1e-12)
        assert lam[-1] >= -1e-12
        assert np.all(np.abs(lam + lam[::-1] - 1.0) < 1e-9)
        assert lam[0] + lam[1] + lam[3] <= 2.0 + 1e-9

    # Altunbulak-Klyachko: the pure (7,3) polytope, lam descending and 1-based
    # (Commun. Math. Phys. 282, 287 (2008)).
    AK_INEQUALITIES = ((1, 2, 4, 7), (1, 2, 5, 6), (2, 3, 4, 5), (1, 3, 4, 6))

    @settings(max_examples=80, deadline=None)
    @given(
        state=st.one_of(
            st.integers(0, 2**32 - 1).map(lambda seed: random_pure_state(7, 3, seed)),
            st.tuples(
                st.lists(st.integers(0, 34), min_size=2, max_size=4, unique=True),
                st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
            ),
        )
    )
    def test_seven_mode_states_obey_altunbulak_klyachko(self, state):
        if isinstance(state, tuple):
            # Sparse: 2-4 basis states with random complex amplitudes.
            index, parts = state
            amps = np.zeros(sector_dim(7, 3), dtype=complex)
            k = len(index)
            amps[index] = np.array(parts[:k]) + 1j * np.array(parts[4 : 4 + k])
            assume(np.linalg.norm(amps) > 0.1)
            state = PureState(7, 3, amps).normalized()
        lam = np.linalg.eigvalsh(one_rdm(state))[::-1]
        for sites in self.AK_INEQUALITIES:
            assert sum(lam[i - 1] for i in sites) <= 2.0 + 1e-12, sites

    def test_spectrum_in_unit_interval(self):
        for d, n in [(4, 2), (5, 3), (6, 3)]:
            lam, _ = natural_occupations(one_rdm(random_pure_state(d, n, seed=d + n)))
            assert np.all(lam > -1e-12) and np.all(lam < 1 + 1e-12)
            assert lam.sum() == pytest.approx(n, abs=1e-9)


class TestStateTypes:
    def test_json_round_trip(self):
        state = random_pure_state(6, 3, seed=4)
        again = PureState.from_json(state.to_json())
        assert np.allclose(state.amplitudes, again.amplitudes, atol=1e-15)
        assert again.to_json()["basis_order"] == "lex"

    def test_overlap_requires_same_sector(self):
        with pytest.raises(SectorMismatchError):
            basis_vector(6, "101010").overlap(basis_vector(6, "110000"))

    def test_mixed_state_validation(self):
        with pytest.raises(InvalidRDMError):
            MixedState(6, 3, np.eye(20) * (1.0 / 19))  # trace != 1
        bad = np.eye(20) / 20
        bad[0, 1] = 0.5
        with pytest.raises(InvalidRDMError):
            MixedState(6, 3, bad)  # not Hermitian

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_matrix_refused(self, bad):
        rho = np.eye(20) / 20
        rho[3, 3] = bad
        with pytest.raises(InvalidRDMError, match="finite"):
            MixedState(6, 3, rho)

    def test_rank_one_states_are_accepted_in_every_sector(self):
        for d in range(1, 11):
            for n in range(d + 1):
                psi = random_pure_state(d, n, seed=d * 11 + n).amplitudes
                assert MixedState(d, n, np.outer(psi, psi.conj())).matrix.shape == (len(psi),) * 2

    @pytest.mark.parametrize("d, n", [(6, 3), (8, 4)])
    def test_checks_keep_the_separate_array_outcomes(self, d, n):
        """One work array decides as the checks on rho - rho^H and rho + 1e-10 I
        did: deviations from Hermitian and eigenvalues on either side of the
        thresholds, and off-diagonal zeros of both signs."""
        dim = sector_dim(d, n)
        rng = np.random.default_rng(d)

        def separate(rho):
            if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
                return "Hermitian"
            try:
                np.linalg.cholesky(rho + 1e-10 * np.eye(dim))
            except np.linalg.LinAlgError:
                return "eigenvalue"
            return None

        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        cases = []
        for smallest in (-2e-10, -1.01e-10, -0.99e-10, 0.0):
            lam = rng.uniform(0.0, 1.0, dim)
            lam[0] = 0.0
            lam *= (1.0 - smallest) / lam.sum()
            lam[0] = smallest
            rho = (q * lam) @ q.conj().T
            cases.append((rho + rho.conj().T) / 2.0)
        for skew in (0.9e-12, 1.1e-12, 1e-12):
            rho = cases[-1].copy()
            rho[0, 1] += skew
            cases.append(rho)
        diagonal = np.diag(rng.dirichlet(np.ones(dim))).astype(complex)
        diagonal.real[~np.eye(dim, dtype=bool)] = -0.0
        diagonal.imag[::2] = -0.0
        cases.append(diagonal)
        assert {separate(rho) for rho in cases} == {None, "Hermitian", "eigenvalue"}
        for rho in cases:
            want = separate(rho)
            if want is None:
                MixedState(d, n, rho)
            else:
                with pytest.raises(InvalidRDMError, match=want):
                    MixedState(d, n, rho)

    def test_checks_hold_two_matrices_beside_the_input(self):
        """Beside the input: the work array and the Cholesky factor, then the copy kept."""
        psi = random_pure_state(10, 5, seed=4).amplitudes
        rho = np.outer(psi, psi.conj())
        MixedState(10, 5, rho)
        tracemalloc.start()
        try:
            MixedState(10, 5, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * rho.nbytes

    @pytest.mark.parametrize("smallest, accepted", [(-1e-9, False), (-1e-11, True)])
    def test_psd_threshold(self, smallest, accepted):
        """The Cholesky check refuses an eigenvalue below -1e-10 and nothing above it."""
        dim = sector_dim(8, 4)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        lam = rng.uniform(0.0, 1.0, dim)
        lam[0] = 0.0
        lam *= (1.0 - smallest) / lam.sum()
        lam[0] = smallest
        rho = (q * lam) @ q.conj().T
        rho = (rho + rho.conj().T) / 2.0
        assert np.linalg.eigvalsh(rho)[0] == pytest.approx(smallest, rel=1e-3)
        if accepted:
            MixedState(8, 4, rho)
        else:
            with pytest.raises(InvalidRDMError, match="below -1e-10"):
                MixedState(8, 4, rho)

    def test_amplitude_reads_its_basis_state(self):
        state = superposition(6, {"101010": 1.0, "010101": -1.0, "011001": 2j})
        assert state.amplitude("011001") == pytest.approx(2j / math.sqrt(6))
        assert state.amplitude("010101") == pytest.approx(-1 / math.sqrt(6))
        assert state.amplitude("111000") == 0.0

    @pytest.mark.parametrize(
        "occupations",
        ["111", "10101010", "11a000", "1_1000", " 11000", "110000", "111100"],
        ids=["short", "long", "letter", "underscore", "space", "light", "heavy"],
    )
    def test_malformed_amplitude_string_raises(self, occupations):
        # int(s, 2) accepts "111", "1_1000" and " 11000"; none is a (6, 3) basis state.
        with pytest.raises(InvalidDimensionError):
            random_pure_state(6, 3, seed=0).amplitude(occupations)

    @pytest.mark.parametrize("occupations", ["101010", "000000", "1111", "0", "0110", "1"])
    def test_basis_vector_is_one_unit_amplitude(self, occupations):
        d = len(occupations)
        state = basis_vector(d, occupations)
        basis = [b.occupations for b in sector_basis(d, state.n_particles)]
        want = np.zeros(len(basis), dtype=complex)
        want[basis.index(occupations)] = 1.0
        assert state.amplitudes.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d,n", [(6, 3), (14, 7)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_one_non_finite_part_raises(self, d, n, bad, part):
        amps = random_pure_state(d, n, seed=1).amplitudes.copy()
        getattr(amps, part)[len(amps) // 2] = bad
        with pytest.raises(InvalidDimensionError, match="^amplitudes must be finite$"):
            PureState(d, n, amps)

    def test_amplitudes_are_immutable(self):
        state = basis_vector(6, "101010")
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


_ONE_GATE = gates.Protocol("one", (gates.rotation(1, 2, 1.0, 20e-12),))


class TestRealParameters:
    """Float parameters outside montecarlo go through fock._checked_real too."""

    @pytest.mark.parametrize("value", ["0.1", None, True, 1j], ids=repr)
    @pytest.mark.parametrize(
        "call, name, error",
        [
            pytest.param(
                lambda v: polytope.hill_climb_extremal(v, iterations=1),
                "epsilon",
                InvalidDimensionError,
                id="hill-climb-epsilon",
            ),
            pytest.param(
                lambda v: polytope.check_weakened((1.0, 0.5, 0.5, 0.5, 0.5, 0.0), v),
                "epsilon",
                InvalidDimensionError,
                id="weakened-epsilon",
            ),
            pytest.param(
                lambda v: noise.NoiseParams(dephasing_rate=v),
                "dephasing_rate",
                InvalidDimensionError,
                id="dephasing-rate",
            ),
            pytest.param(
                lambda v: noise.NoiseParams(emission_rate=v),
                "emission_rate",
                InvalidDimensionError,
                id="emission-rate",
            ),
            pytest.param(
                lambda v: noise.evolve_noisy_protocol(_ONE_GATE, noise.NoiseParams(), v),
                "dt",
                InvalidDimensionError,
                id="dt",
            ),
            pytest.param(
                lambda v: noise.evolve_noisy_protocol(
                    _ONE_GATE, noise.NoiseParams(), 2e-12, free_time=v
                ),
                "free_time",
                InvalidDimensionError,
                id="free-time",
            ),
            pytest.param(
                lambda v: noise.evolve_noisy_protocol(
                    _ONE_GATE, noise.NoiseParams(), 2e-12, margin_epsilon=v
                ),
                "margin_epsilon",
                InvalidDimensionError,
                id="margin-epsilon",
            ),
            pytest.param(
                lambda v: noise.loschmidt_echo(_ONE_GATE, noise.NoiseParams(), v),
                "dt",
                InvalidDimensionError,
                id="echo-dt",
            ),
            pytest.param(
                lambda v: gates.rotation(1, 2, v), "gate angle", InvalidGateError, id="angle"
            ),
            pytest.param(
                lambda v: gates.rotation(1, 2, 1.0, v),
                "gate duration",
                InvalidGateError,
                id="duration",
            ),
            pytest.param(
                lambda v: polytope.LinearInequality((1, 0, 0, 0, 0, 0), v, "<="),
                "inequality entry",
                InvalidDimensionError,
                id="inequality-bound",
            ),
            pytest.param(
                lambda v: polytope.LinearInequality((v, 0, 0, 0, 0, 0), 1.0, "<="),
                "inequality entry",
                InvalidDimensionError,
                id="inequality-coefficient",
            ),
        ],
    )
    def test_float_parameters_must_be_real_numbers(self, call, name, error, value):
        """Before, strings, None and complex values raised a bare TypeError, and
        True was taken as 1.0 (check_weakened reported at epsilon = 1)."""
        if name == "gate duration" and value is None:
            assert call(value).duration is None  # a gate without a duration
            return
        with pytest.raises(error, match=f"{name} must be a real number, got "):
            call(value)
