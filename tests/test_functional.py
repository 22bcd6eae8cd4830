"""Entropy values and their maximization over the class polytopes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fermitope import polytope
from fermitope.errors import (
    InfeasiblePolytopeError,
    InvalidDistributionError,
    UnsupportedCaseError,
)
from fermitope.functional import _reduce_spec, quantum_functional, shannon_entropy
from fermitope.polytope import CLASS_OCCUPATIONS, LinearInequality, PolytopeSpec, class_polytope

REFERENCE = {
    "slater": math.log(3),
    "epr": math.log(108) / 3,
    "w": (2 / 3) * math.log(27 / 2),
    "ghz": math.log(6),
}

CUTS = [
    LinearInequality((0, 0, 1, 0, 0, 0), 0.6, ">=", "lam3>=0.6"),
    LinearInequality((0, 0, 1, 0, 0, 0), 0.7, ">=", "lam3>=0.7"),
    LinearInequality((1, -1, 0, 0, 0, 0), 0.2, ">=", "lam1-lam2>=0.2"),
    LinearInequality((0, 1, -1, 0, 0, 0), 0.1, ">=", "lam2-lam3>=0.1"),
    LinearInequality((2, -2, 3, 0, 0, 0), 2.9, ">=", "2lam1-2lam2+3lam3>=2.9"),
    LinearInequality((1, 0, 1, 0, 0, 0), 1.6, ">=", "lam1+lam3>=1.6"),
]


# A class polytope plus up to three random rows of any sense, as written.
RANDOM_ROWS = st.lists(
    st.tuples(
        st.lists(st.floats(-3, 3, allow_subnormal=False), min_size=6, max_size=6),
        st.floats(-3, 3, allow_subnormal=False),
        st.sampled_from(["<=", ">=", "=="]),
    ),
    max_size=3,
)


def _with_rows(label: str, extra) -> PolytopeSpec:
    rows = tuple(LinearInequality(tuple(c), bound, sense) for c, bound, sense in extra)
    return PolytopeSpec(label, class_polytope(label).inequalities + rows)


def _shuffled(spec: PolytopeSpec, seed: int) -> PolytopeSpec:
    rows = spec.inequalities
    order = np.random.default_rng(seed).permutation(len(rows))
    return PolytopeSpec(spec.label, tuple(rows[i] for i in order))


def _assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert (g.dtype, g.shape) == (w.dtype, w.shape)
        assert g.tobytes() == w.tobytes()


class TestShannonEntropy:
    def test_three_point_uniform(self):
        assert shannon_entropy([1 / 3, 1 / 3, 1 / 3, 0, 0, 0]) == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_deterministic_distribution(self):
        assert shannon_entropy([1, 0, 0, 0, 0, 0]) == 0.0

    def test_six_point_uniform(self):
        assert shannon_entropy(np.full(6, 1 / 6)) == pytest.approx(math.log(6), abs=1e-12)

    def test_negative_entry_raises(self):
        with pytest.raises(InvalidDistributionError):
            shannon_entropy([0.5, 0.6, -0.1])

    def test_unnormalized_raises(self):
        with pytest.raises(InvalidDistributionError):
            shannon_entropy([0.5, 0.4])


class TestQuantumFunctional:
    @pytest.mark.parametrize("label", polytope.CLASS_LABELS)
    def test_reference_values(self, label):
        result = quantum_functional(class_polytope(label))
        assert result.value == pytest.approx(REFERENCE[label], abs=1e-12)

    @pytest.mark.parametrize("label", polytope.CLASS_LABELS)
    def test_argmax_is_characteristic_occupation(self, label):
        result = quantum_functional(class_polytope(label))
        assert np.max(np.abs(result.argmax - CLASS_OCCUPATIONS[label])) < 1e-12

    def test_monotone_under_nesting(self):
        values = [
            quantum_functional(class_polytope(label)).value
            for label in polytope.CLASS_LABELS
        ]
        assert values == sorted(values)
        assert values[0] < values[1] < values[2] < values[3]

    def test_bounds_from_particle_and_mode_count(self):
        for label in polytope.CLASS_LABELS:
            value = quantum_functional(class_polytope(label)).value
            assert math.log(3) - 1e-9 <= value <= math.log(6) + 1e-9

    @pytest.mark.parametrize("label", ["epr", "w", "ghz"])
    def test_matches_dense_grid_oracle(self, label):
        got = quantum_functional(class_polytope(label)).value
        want = oracles.grid_entropy_maximum(label, step=1e-3)
        assert abs(got - want) < 1e-4

    def test_infeasible_spec_raises(self):
        base = class_polytope("ghz")
        impossible = base.inequalities + (
            LinearInequality((1, 0, 0, 0, 0, 0), 2.0, ">=", "lam1>=2"),
        )
        with pytest.raises(InfeasiblePolytopeError):
            quantum_functional(PolytopeSpec("impossible", impossible))

    def test_occupations_outside_unit_interval_are_infeasible(self):
        ghz = class_polytope("ghz").inequalities
        pairings = tuple(c for c in ghz if c.sense == "==")
        beyond = LinearInequality((1, 0, 0, 0, 0, 0), 1.5, ">=", "lam1>=1.5")
        with pytest.raises(InfeasiblePolytopeError):
            quantum_functional(PolytopeSpec("beyond", pairings + (beyond,)))

    @pytest.mark.parametrize("label", ["ghz", "w"])
    @pytest.mark.parametrize("cut", CUTS, ids=lambda cut: cut.label)
    def test_cut_polytope_matches_spec_grid_oracle(self, label, cut):
        base = class_polytope(label).inequalities
        spec = PolytopeSpec(f"{label}+{cut.label}", base + (cut,))
        result = quantum_functional(spec)
        assert result.value >= oracles.grid_spec_entropy_maximum(spec, step=0.01) - 1e-12
        assert spec.contains(result.argmax)
        assert oracles.entropy_optimality_gap(spec, result.argmax) < 1e-8


class TestConvexSolve:
    """The vertex step and the dual Newton solve against the linear-programming oracles."""

    @settings(max_examples=200, deadline=None)
    @given(label=st.sampled_from(polytope.CLASS_LABELS), extra=RANDOM_ROWS)
    # A sliver at lam1..lam3 = 1 - 3e-8, where the oracle's LP at HiGHS's default
    # tolerances left the polytope by 6e-8 and read a gap of 1.7e-7.
    @example(label="w", extra=[([0.0, 0.0, -1.1920928955078125e-07, 2.0, 2.0, 0.0], 0.0, "<=")])
    def test_random_rows_are_solved_or_infeasible(self, label, extra):
        """Both checks leave room for the tolerances: a spec feasible only within 1e-8
        may go either way, and an occupation lam stored as 1 - x carries an error
        of 1.1e-16, so log(lam) does of 1.1e-16 / lam."""
        spec = _with_rows(label, extra)
        try:
            result = quantum_functional(spec)
        except InfeasiblePolytopeError:
            assert oracles.interior_slack(spec) < 1e-8
            return
        assert spec.contains(result.argmax)
        if np.all(result.argmax > 0):
            gap = oracles.entropy_optimality_gap(spec, result.argmax)
            assert gap < 1e-8 + 1e-15 / result.argmax.min()

    def test_one_point_spec(self):
        cuts = (
            LinearInequality((0, 0, 1, 0, 0, 0), 0.7, ">=", "lam3>=0.7"),
            LinearInequality((1, 0, 0, 0, 0, 0), 0.7, "<=", "lam1<=0.7"),
        )
        spec = PolytopeSpec("point", class_polytope("ghz").inequalities + cuts)
        result = quantum_functional(spec)
        assert np.max(np.abs(result.argmax - [0.7, 0.7, 0.7, 0.3, 0.3, 0.3])) <= 1e-12

    def test_dependent_rows(self):
        """EPR's lam2 = lam3 beside lam2 >= lam3, and a W facet repeated at twice the scale."""
        double = LinearInequality((2, 2, 2, 0, 0, 0), 4.0, ">=", "2(lam1+lam2+lam3)>=4")
        w2 = PolytopeSpec("w2", class_polytope("w").inequalities + (double,))
        for spec, label in ((class_polytope("epr"), "epr"), (w2, "w")):
            result = quantum_functional(spec)
            assert result.value == pytest.approx(REFERENCE[label], abs=1e-12)
            assert np.max(np.abs(result.argmax - CLASS_OCCUPATIONS[label])) <= 1e-12

    def test_two_hundred_rows_finish(self):
        rng = np.random.default_rng(0)
        coefficients = rng.uniform(-1, 1, (192, 6))
        # Every extra row holds at the GHZ occupations with a slack in [0.05, 0.55].
        bounds = coefficients.sum(axis=1) / 2 + rng.uniform(0.05, 0.55, 192)
        extra = tuple(LinearInequality(tuple(c), b, "<=") for c, b in zip(coefficients, bounds))
        spec = PolytopeSpec("ghz+192", class_polytope("ghz").inequalities + extra)
        assert len(spec.inequalities) == 200
        result = quantum_functional(spec)
        assert result.value == pytest.approx(REFERENCE["ghz"], abs=1e-12)


class TestReduceSpec:
    """The array reduction against the row loop of ``oracles.reduce_spec_rows``."""

    SPECS = [class_polytope(label) for label in polytope.CLASS_LABELS] + [
        PolytopeSpec(f"{label}+{cut.label}", class_polytope(label).inequalities + (cut,))
        for label in ("ghz", "w")
        for cut in CUTS
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.label)
    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_byte_equal_to_row_loop(self, spec, seed):
        if seed is not None:
            spec = _shuffled(spec, seed)
        _assert_same_arrays(_reduce_spec(spec), oracles.reduce_spec_rows(spec))

    @settings(max_examples=60, deadline=None)
    @given(
        label=st.sampled_from(polytope.CLASS_LABELS),
        extra=RANDOM_ROWS,
        seed=st.integers(0, 2**16),
    )
    def test_random_rows_byte_equal_to_row_loop(self, label, extra, seed):
        spec = _shuffled(_with_rows(label, extra), seed)
        _assert_same_arrays(_reduce_spec(spec), oracles.reduce_spec_rows(spec))

    def test_missing_pairings_raise(self):
        rows = tuple(c for c in class_polytope("ghz").inequalities if c.sense != "==")
        spec = PolytopeSpec("no-pairings", rows)
        with pytest.raises(UnsupportedCaseError, match="three pairing equalities"):
            quantum_functional(spec)

    def test_length_five_row_raises(self):
        short = LinearInequality((1, 0, 0, 0, 0), 1.0, "<=", "lam1<=1")
        spec = PolytopeSpec("short", class_polytope("w").inequalities + (short,))
        with pytest.raises(UnsupportedCaseError, match="length-6 constraints"):
            quantum_functional(spec)
