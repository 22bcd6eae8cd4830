"""The benchmark's workloads: generated inputs, the program calls and output checks.

Each workload is a closed loop with one caller: a task starts when the
previous one ends.  Tasks come in rounds of a fixed mix; the seed only
changes the inputs inside a round (Monte Carlo and hill-climb seeds,
sigma values, random states and gate angles), so two seeds ask for the
same amount of work and a run always ends on a round boundary.

The program is called through module attributes (``montecarlo.max_...``),
never through names imported here, so that the span wrappers installed by
``spans.Recorder`` see every call.
"""

import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from fermitope import cli, fock, gates, montecarlo, noise, polytope, tomography

SEED_BOUND = 2**31


# ---------------------------------------------------------------------------
# thresholds: the error-margin search at the paper's setting
# ---------------------------------------------------------------------------

# (base state, merit, paper's sigma*).  The order is fixed so that every
# run has the same mix; the three pairs do not cost the same.
THRESHOLD_PAIRS = (("ghz", "f_w", 0.037), ("w", "f_epr", 0.055), ("epr", "f_slater", 0.083))
THRESHOLD_SAMPLES = 10**5
THRESHOLD_TOL = 0.005


@dataclass(frozen=True)
class Threshold:
    base: str
    merit: str
    reference: float
    seed: int
    n_samples: int = THRESHOLD_SAMPLES

    def run(self) -> float:
        return montecarlo.max_tolerated_sigma(
            self.base, self.merit, confidence=0.999, n_samples=self.n_samples, seed=self.seed
        )

    def check(self, sigma: float) -> str | None:
        if abs(sigma - self.reference) > THRESHOLD_TOL:
            return (
                f"{self.base}/{self.merit}: sigma* {sigma}"
                f" not within {THRESHOLD_TOL} of {self.reference}"
            )
        return None


def threshold_tasks(seed: int) -> Iterator[Threshold]:
    rng = np.random.default_rng(seed)
    for base, merit, ref in itertools.cycle(THRESHOLD_PAIRS):
        yield Threshold(base, merit, ref, int(rng.integers(SEED_BOUND)))


def threshold_warm_up() -> None:
    base, merit, ref = THRESHOLD_PAIRS[0]
    Threshold(base, merit, ref, seed=0, n_samples=2000).run()


# ---------------------------------------------------------------------------
# extremal: the stochastic search saturating the weakened mixed-state bounds
# ---------------------------------------------------------------------------

CLIMB_CASES = tuple(itertools.product(("f1", "f2"), (0.01, 0.06, 0.1)))
CLIMB_ITERATIONS = 2000
CEILING = {"f1": 1.0, "f2": 2.0}


@dataclass(frozen=True)
class Climb:
    objective: str
    epsilon: float
    seed: int
    iterations: int = CLIMB_ITERATIONS

    def run(self):
        return polytope.hill_climb_extremal(
            self.epsilon, self.objective, seed=self.seed, iterations=self.iterations
        )

    def check(self, result) -> str | None:
        ceiling = CEILING[self.objective] + self.epsilon
        if result.value > ceiling + 1e-9:
            return f"{self.objective} eps={self.epsilon}: value {result.value} above {ceiling}"
        lam, _ = fock.natural_occupations(fock.one_rdm(result.state))
        if not polytope.check_weakened(lam, self.epsilon).member:
            return f"{self.objective} eps={self.epsilon}: weakened bound fails at {lam.tolist()}"
        return None


def climb_tasks(seed: int) -> Iterator[Climb]:
    rng = np.random.default_rng(seed)
    for objective, epsilon in itertools.cycle(CLIMB_CASES):
        yield Climb(objective, epsilon, int(rng.integers(SEED_BOUND)))


def climb_warm_up() -> None:
    Climb("f1", 0.06, seed=0, iterations=200).run()


# ---------------------------------------------------------------------------
# protocols: one target's command-line session, in-process
# ---------------------------------------------------------------------------

# Target and the entropy functional of its class polytope.
SESSION_TARGETS = (
    ("epr", math.log(108) / 3),
    ("w", (2 / 3) * math.log(27 / 2)),
    ("ghz", math.log(6)),
)
SESSION_SAMPLES = 20_000


@dataclass(frozen=True)
class Session:
    target: str
    entropy: float
    argvs: tuple[tuple[str, ...], ...]

    def run(self) -> list[tuple[int, str]]:
        outputs = []
        for argv in self.argvs:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(argv))
            outputs.append((code, buffer.getvalue()))
        return outputs

    def check(self, outputs: list[tuple[int, str]]) -> str | None:
        for argv, (code, text) in zip(self.argvs, outputs):
            if code != 0:
                return f"{' '.join(argv)} exited {code}"
            problem = _check_command(argv, text, self.entropy)
            if problem:
                return f"{' '.join(argv)}: {problem}"
        return None


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def _check_command(argv: tuple[str, ...], text: str, entropy: float) -> str | None:
    command = argv[0]
    if command == "prepare":
        payload = json.loads(text)
        if payload["max_lambda_error"] > 1e-10:
            return f"lambda error {payload['max_lambda_error']}"
        if abs(payload["class_functional"]["E"] - entropy) > 1e-4:
            return f"E {payload['class_functional']['E']} vs {entropy}"
    elif command == "functional":
        value = json.loads(text)["E"]
        if abs(value - entropy) > 1e-4:
            return f"E {value} vs {entropy}"
    elif command == "noisy":
        rows = _csv_rows(text)
        if float(rows[-1]["fidelity"]) <= 0.9:
            return f"final fidelity {rows[-1]['fidelity']}"
        if any(row["margin_ok"] != "true" for row in rows):
            return "margin violated"
    elif command == "montecarlo":
        n_samples = int(argv[argv.index("--n-samples") + 1])
        counts = sum(int(row["count"]) for row in _csv_rows(text))
        if counts != n_samples:
            return f"histogram holds {counts} of {n_samples} samples"
    return None


def _session(target: str, entropy: float, rng: np.random.Generator, n_samples: int) -> Session:
    rdm_seed, mc_seed = (str(int(s)) for s in rng.integers(SEED_BOUND, size=2))
    sigma = repr(round(float(rng.uniform(0.01, 0.08)), 6))
    argvs = (
        ("prepare", "--target", target),
        ("rdm", "--target", target, "--seed", rdm_seed),
        ("polytope", "--target", target),
        ("functional", "--polytope", target),
        ("noisy", "--target", target, "--format", "csv"),
        ("echo", "--target", target),
        ("montecarlo", "--base", target, "--sigma", sigma,
         "--n-samples", str(n_samples), "--seed", mc_seed, "--format", "csv"),
    )
    return Session(target, entropy, argvs)


def session_tasks(seed: int) -> Iterator[Session]:
    rng = np.random.default_rng(seed)
    for target, entropy in itertools.cycle(SESSION_TARGETS):
        yield _session(target, entropy, rng, SESSION_SAMPLES)


def session_warm_up() -> None:
    target, entropy = SESSION_TARGETS[0]
    _session(target, entropy, np.random.default_rng(0), n_samples=1000).run()


# ---------------------------------------------------------------------------
# sectors: random states from (6,3) to (14,7) through the state-level layers
# ---------------------------------------------------------------------------

# (d, N, mixed, gates in the protocol, tasks per round).  Tomography and the
# noisy run stop at NOISE_MAX_MODES: a (12, 6) noisy run raises "hop tensor
# too large" in the current code.  Mixed states stop at (8, 4): mixed
# tomography at (10, 5) takes about 2 s per state and would dominate.  The
# (10, 5) protocol has one gate (ten noisy steps of ~35 ms) for the same
# reason.  The counts balance the round: at the parent commit on 2 cores it
# takes ~1.5 s, of which (10, 5) is ~30%, (8, 4) ~40%, (6, 3) ~15% and the
# large pure sectors, where only fock and gates run, ~15%.  Task times fall
# into bands by sector; the median sits inside the (14, 7) band and the
# tail percentile inside the mixed (8, 4) band, not between two bands.
SECTOR_ROUND = (
    (6, 3, False, 3, 8),
    (6, 3, True, 3, 8),
    (8, 4, False, 3, 3),
    (8, 4, True, 3, 3),
    (10, 5, False, 1, 1),
    (12, 6, False, 3, 40),
    (14, 7, False, 3, 40),
)
SECTOR_CYCLE = tuple(spec[:4] for spec in SECTOR_ROUND for _ in range(spec[4]))
NOISE_MAX_MODES = 10
GATE_KINDS = ("rotation", "controlled_rotation", "phase")
GATE_DURATION = {"rotation": 20e-12, "controlled_rotation": 60e-12, "phase": 20e-12}
NOISE = noise.NoiseParams()
DT = 2e-12


@dataclass(frozen=True)
class SectorTask:
    state: fock.PureState | fock.MixedState
    pure: fock.PureState  # the state itself, or the first component of the mixture
    protocol: gates.Protocol

    @property
    def mixed(self) -> bool:
        return self.state is not self.pure

    @property
    def full(self) -> bool:
        return self.state.d <= NOISE_MAX_MODES

    def run(self):
        gamma = fock.one_rdm(self.state)
        lam, _ = fock.natural_occupations(gamma)
        evolved = gates.apply_protocol(self.pure, self.protocol)
        estimate = trajectory = None
        if self.full:
            estimate = tomography.reconstruct_one_rdm(self.state, None)
            trajectory, _ = noise.evolve_noisy_protocol(self.protocol, NOISE, DT, initial=self.pure)
        return gamma, lam, evolved, estimate, trajectory

    def check(self, out) -> str | None:
        gamma, lam, evolved, estimate, _ = out
        d, n = self.state.d, self.state.n_particles
        where = f"({d},{n}) {'mixed' if self.mixed else 'pure'}"
        if abs(np.trace(gamma) - n) > 1e-10:
            return f"{where}: trace {np.trace(gamma)}"
        if np.max(np.abs(gamma - gamma.conj().T)) > 1e-10:
            return f"{where}: 1-RDM not Hermitian"
        if abs(evolved.norm - 1.0) > 1e-10:
            return f"{where}: protocol changed the norm to {evolved.norm}"
        if estimate is not None and np.max(np.abs(estimate.matrix - gamma)) > 1e-10:
            return f"{where}: infinite-shot tomography differs from one_rdm"
        if (d, n) == (6, 3) and not self.mixed:
            if np.max(np.abs(lam[:3] + lam[::-1][:3] - 1.0)) > 1e-9:
                return f"{where}: pairing equalities fail at {lam.tolist()}"
            if lam[0] + lam[1] + lam[3] > 2.0 + 1e-9:
                return f"{where}: lam1+lam2+lam4 > 2 at {lam.tolist()}"
        return None


def _random_pure(d: int, n: int, rng: np.random.Generator) -> fock.PureState:
    dim = math.comb(d, n)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return fock.PureState(d, n, amps / np.linalg.norm(amps))


def _random_protocol(d: int, n_gates: int, rng: np.random.Generator) -> gates.Protocol:
    ops = []
    for kind in GATE_KINDS[:n_gates]:
        n_sites = 3 if kind == "controlled_rotation" else 2
        sites = tuple(int(s) + 1 for s in rng.choice(d, size=n_sites, replace=False))
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        ops.append(gates.GateOp(kind, sites, angle, GATE_DURATION[kind]))
    return gates.Protocol(f"random-{d}", tuple(ops))


def _sector_task(d: int, n: int, mixed: bool, n_gates: int, rng: np.random.Generator) -> SectorTask:
    pure = _random_pure(d, n, rng)
    state = pure
    if mixed:
        other = _random_pure(d, n, rng).amplitudes
        weight = float(rng.uniform(0.5, 0.9))
        a = pure.amplitudes
        rho = weight * np.outer(a, a.conj()) + (1.0 - weight) * np.outer(other, other.conj())
        state = fock.MixedState(d, n, (rho + rho.conj().T) / 2.0)
    return SectorTask(state, pure, _random_protocol(d, n_gates, rng))


def sector_tasks(seed: int) -> Iterator[SectorTask]:
    rng = np.random.default_rng(seed)
    for d, n, mixed, n_gates in itertools.cycle(SECTOR_CYCLE):
        yield _sector_task(d, n, mixed, n_gates, rng)


def sector_warm_up() -> None:
    """Fills the sector tables of every sector and the (10, 5) hop tensor."""
    rng = np.random.default_rng(0)
    for d, n in sorted({(d, n) for d, n, *_ in SECTOR_ROUND}):
        _sector_task(d, n, False, 1, rng).run()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A workload; why each exists is recorded in BENCHMARK.json and README.md."""

    name: str
    tasks: Callable[[int], Iterator]  # seed -> endless task stream
    round_size: int
    tail_pct: float  # fixed per workload; README.md gives the reasons
    warm_up: Callable[[], None]
    # Rounds run untraced and then traced by a traced run: a fixed amount of
    # work, about 7 s per half at the parent commit on 2 cores (thresholds:
    # one round, ~24 s on one BLAS thread).
    trace_rounds: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload("thresholds", threshold_tasks, len(THRESHOLD_PAIRS), 100.0, threshold_warm_up, 1),
        Workload("extremal", climb_tasks, len(CLIMB_CASES), 85.0, climb_warm_up, 8),
        Workload("protocols", session_tasks, len(SESSION_TARGETS), 90.0, session_warm_up, 3),
        Workload("sectors", sector_tasks, len(SECTOR_CYCLE), 97.5, sector_warm_up, 5),
    )
}
