"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from fermitope import fock, montecarlo, noise, polytope
from fermitope.cli import main as cli_main
from fermitope.fock import (
    MixedState,
    basis_vector,
    natural_occupations,
    one_rdm,
    random_pure_state,
    superposition,
)
from fermitope.functional import quantum_functional
from fermitope.gates import apply_protocol, build_protocol, protocol_states, target_state
from fermitope.noise import (
    NoiseParams,
    evolve_noisy_protocol,
    fidelity,
    loschmidt_echo,
    purity,
    purity_lower_bound,
)
from fermitope.polytope import check_weakened, class_polytope, merit_values
from fermitope.tomography import reconstruct_one_rdm

SLATER = basis_vector(6, "101010")


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def batched_occupation_spectra(d: int, n: int, n_states: int, seed0: int) -> np.ndarray:
    states = np.stack(
        [random_pure_state(d, n, seed0 + k).amplitudes for k in range(n_states)]
    )
    return np.linalg.eigvalsh(fock._rdm_kernel(d, n, states[:, None]))[:, ::-1]


def test_criterion_1_reference_occupations_and_functional_values():
    start = time.perf_counter()
    expected_e = {
        "slater": math.log(3),
        "epr": math.log(108) / 3,
        "w": (2 / 3) * math.log(27 / 2),
        "ghz": math.log(6),
    }
    worst_lam, worst_e = 0.0, 0.0
    for label in polytope.CLASS_LABELS:
        final = apply_protocol(SLATER, build_protocol(label))
        lam, _ = natural_occupations(one_rdm(final))
        worst_lam = max(
            worst_lam, float(np.max(np.abs(lam - polytope.CLASS_OCCUPATIONS[label])))
        )
        e_val = quantum_functional(class_polytope(label)).value
        worst_e = max(worst_e, abs(e_val - expected_e[label]))
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (reference occupations + functional values)",
        worst_lam <= 1e-10 and worst_e <= 1e-4 and elapsed < 1.0,
        f"max lambda err {worst_lam:.2e}, max E err {worst_e:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_intermediate_state_fidelities():
    start = time.perf_counter()
    intermediates = {
        "epr": [superposition(6, {"101010": 1, "011010": 1})],
        "w": [
            superposition(6, {"101010": 1, "011010": math.sqrt(2)}),
            superposition(6, {"101010": 1, "011010": 1, "010110": 1}),
            superposition(6, {"101010": 1, "011010": 1, "010101": 1}),
            superposition(6, {"101010": 1, "010110": 1, "011001": -1}),
        ],
    }
    worst = 1.0
    for label, references in intermediates.items():
        states = protocol_states(SLATER, build_protocol(label))
        for got, want in zip(states, references):
            worst = min(worst, got.fidelity_to(want))
    elapsed = time.perf_counter() - start
    report(
        "criterion 2 (intermediate states)",
        worst >= 1 - 1e-10 and elapsed < 1.0,
        f"min fidelity {worst:.12f}, {elapsed:.2f}s",
    )


def test_criterion_3_random_state_property_suite():
    start = time.perf_counter()
    lam3 = batched_occupation_spectra(6, 3, 10_000, seed0=10_000)
    bd_slack = 2.0 - (lam3[:, 0] + lam3[:, 1] + lam3[:, 3])
    pair_err = np.max(
        np.abs(lam3[:, [0, 1, 2]] + lam3[:, [5, 4, 3]] - 1.0), axis=1
    )
    ok3 = bool(np.all(bd_slack >= -1e-9) and np.all(pair_err <= 1e-9))

    lam2 = batched_occupation_spectra(6, 2, 10_000, seed0=50_000)
    degeneracy = np.max(
        np.abs(lam2[:, [0, 2, 4]] - lam2[:, [1, 3, 5]]), axis=1
    )
    ok2 = bool(np.all(degeneracy <= 1e-9))
    elapsed = time.perf_counter() - start
    report(
        "criterion 3 (extended Pauli property suite)",
        ok3 and ok2 and elapsed < 30.0,
        f"worst BD slack {bd_slack.min():.2e}, worst pairing {pair_err.max():.2e}, "
        f"worst degeneracy {degeneracy.max():.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_monte_carlo_thresholds():
    start = time.perf_counter()
    references = {
        ("epr", "f_slater"): 0.083,
        ("w", "f_epr"): 0.055,
        ("ghz", "f_w"): 0.037,
    }
    results = {}
    worst = 0.0
    for (base, merit), ref in references.items():
        got = montecarlo.max_tolerated_sigma(
            base, merit, confidence=0.999, n_samples=100_000, seed=42
        )
        results[base] = got
        worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - start
    report(
        "criterion 4 (error-margin thresholds)",
        worst <= 0.005 and elapsed < 300.0,
        f"sigma* {results}, worst deviation {worst:.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_merit_reference_values():
    start = time.perf_counter()
    f_slater = merit_values(polytope.CLASS_OCCUPATIONS["epr"]).f_slater
    f_w = merit_values(polytope.CLASS_OCCUPATIONS["ghz"]).f_w
    f_epr = merit_values(polytope.CLASS_OCCUPATIONS["w"]).f_epr
    ok = (
        abs(f_slater + 0.5) < 1e-15
        and abs(f_w + 0.5) < 1e-15
        and abs(f_epr + 1 / 3) < 1e-15
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 5 (merit reference values)",
        ok and elapsed < 1.0,
        f"F_Slater(EPR)={f_slater}, F_W(GHZ)={f_w}, F_EPR(W)={f_epr}",
    )


def test_criterion_6_weakened_inequality_suite():
    start = time.perf_counter()
    saturation_err = 0.0
    for eps in (0.01, 0.06, 0.1):
        lam = np.array([1.0, 1.0, 1.0 - eps, eps, 0.0, 0.0])
        rpt = check_weakened(lam, eps)
        saturation_err = max(saturation_err, abs(rpt.slack_f1), abs(rpt.slack_f2))

    eps = 0.06
    climb_gap, ceiling_excess = 0.0, 0.0
    for objective, ceiling in (("f1", 1 + eps), ("f2", 2 + eps)):
        result = polytope.hill_climb_extremal(
            eps, objective, seed=7, iterations=100_000
        )
        climb_gap = max(climb_gap, ceiling - result.value)
        ceiling_excess = max(ceiling_excess, result.value - ceiling)

    rng = np.random.default_rng(77)
    proposition_ok = True
    for _ in range(1000):
        e = float(rng.uniform(0.005, 0.3))
        psi0 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        psi0 /= np.linalg.norm(psi0)
        block = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        block -= np.outer(psi0, psi0.conj() @ block)
        lam = polytope._mixture_lambdas(psi0, block, e)
        if not check_weakened(lam, e).member:
            proposition_ok = False
            break
    elapsed = time.perf_counter() - start
    report(
        "criterion 6 (weakened inequalities + extremal search)",
        saturation_err <= 1e-12
        and climb_gap <= 1e-3
        and ceiling_excess <= 1e-9
        and proposition_ok
        and elapsed < 120.0,
        f"saturation err {saturation_err:.1e}, climb gap {climb_gap:.1e}, "
        f"ceiling excess {ceiling_excess:.1e}, proposition states ok={proposition_ok}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_7_tomography_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        state = random_pure_state(6, 3, seed=90_000 + k)
        estimate = reconstruct_one_rdm(state, shots=None)
        worst = max(worst, float(np.max(np.abs(estimate.matrix - one_rdm(state)))))

    ghz_est = reconstruct_one_rdm(target_state("ghz"), shots=100_000, seed=11)
    hermitian = (ghz_est.matrix + ghz_est.matrix.conj().T) / 2
    lam, _ = natural_occupations(hermitian)
    ghz_err = float(np.max(np.abs(lam - 0.5)))
    elapsed = time.perf_counter() - start
    report(
        "criterion 7 (tomography equivalence)",
        worst <= 1e-10 and ghz_err <= 0.01 and ghz_est.settings == 36 and elapsed < 60.0,
        f"infinite-shot err {worst:.2e}, GHZ lambda err {ghz_err:.4f}, "
        f"settings {ghz_est.settings}, {elapsed:.0f}s",
    )


def test_criterion_8_noise_model_bands():
    start = time.perf_counter()
    dt = 1e-12
    zero = NoiseParams(dephasing_rate=0.0, emission_rate=0.0)
    paper = NoiseParams()

    zero_err = 0.0
    min_fidelity, min_purity = 1.0, 1.0
    margins_ok = True
    table_structure_ok = True
    bound_ok = True
    for label in ("epr", "ghz", "w"):
        protocol = build_protocol(label)
        _, clean = evolve_noisy_protocol(protocol, zero, dt)
        zero_err = max(zero_err, 1.0 - fidelity(clean, target_state(label)))

        trajectory, final = evolve_noisy_protocol(protocol, paper, dt, margin_epsilon=0.06)
        min_fidelity = min(min_fidelity, float(trajectory.fidelity[-1]))
        min_purity = min(min_purity, float(trajectory.purity[-1]))
        margins_ok &= bool(trajectory.margin_ok.all())

        eps = 1.0 - final.largest_eigenvalue()
        lam = np.linalg.eigvalsh(one_rdm(final))[::-1]
        table_structure_ok &= check_weakened(lam, eps).member

        echo = loschmidt_echo(protocol, paper, dt)
        bound_ok &= purity_lower_bound(echo.state) <= purity(echo.state) + 1e-12

    rng = np.random.default_rng(123)
    for _ in range(1000):
        block = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        rho = block @ block.conj().T
        rho /= np.trace(rho).real
        state = MixedState(6, 3, (rho + rho.conj().T) / 2)
        bound_ok &= purity_lower_bound(state) <= purity(state) + 1e-12

    elapsed = time.perf_counter() - start
    report(
        "criterion 8 (noise-model bands)",
        zero_err <= 1e-10
        and min_fidelity > 0.9
        and margins_ok
        and table_structure_ok
        and bound_ok
        and elapsed < 120.0,
        f"zero-noise err {zero_err:.1e}, min fidelity {min_fidelity:.4f}, "
        f"min purity {min_purity:.4f}, margins ok={margins_ok}, "
        f"mixedness cross-check ok={table_structure_ok}, purity bound ok={bound_ok}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    start = time.perf_counter()
    cases = [
        ["prepare", "--target", "w"],
        ["rdm", "--target", "ghz", "--shots", "20000", "--seed", "3"],
        ["polytope", "--target", "epr", "--format", "csv"],
        ["functional", "--polytope", "ghz"],
        ["noisy", "--target", "epr", "--format", "csv", "--seed", "2"],
        ["echo", "--target", "ghz", "--seed", "1"],
        ["montecarlo", "--base", "epr", "--n-samples", "3000", "--seed", "4"],
    ]
    identical = True
    for idx, args in enumerate(cases):
        first = tmp_path / f"{idx}-a.out"
        second = tmp_path / f"{idx}-b.out"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        identical &= first.read_bytes() == second.read_bytes()
    elapsed = time.perf_counter() - start
    report(
        "criterion 9 (CLI reproducibility)",
        identical,
        f"{len(cases)} commands byte-identical, {elapsed:.0f}s",
    )
