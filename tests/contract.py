"""Byte contract between two source trees of fermitope.

    python tests/contract.py OLD_SRC NEW_SRC

runs one fixed list of cases on each tree, each tree in its own
interpreter with its ``src`` directory first on sys.path, and prints every
case whose result differs, then one line "N of N identical".  A case's
result is its exit code, or the exception it raised, and the sha256 of its
output: the bytes of every array (dtype and shape included), floats as
float.hex, and a CLI command's stdout and stderr, captured in memory.

The cases:
- merit_distribution on 4 bases x 3 merits x 8 sigmas x n in {1, 2049,
  20000} x seeds {0, 1} (576 cases);
- max_tolerated_sigma for the 11 pairs it accepts x n in {1, 2049, 20000}
  x confidence in {0.9, 0.999} x seeds {0, 1} (132);
- violation_probability of the 12 pairs at sigma in {0.02, 0.05, 0.1};
- one_rdm of pure and mixed states from (6, 3) to (10, 5), of random pure
  states at (12, 6) and (14, 7), and of the four targets, pure and as
  MixedState.from_pure;
- apply_ladder (every mode, both kinds) and wedge_embed from (6, 3) to
  (10, 5);
- apply_protocol of random three-gate protocols (one gate of each kind) at
  (12, 6) and (14, 7), and gate_matrix of the gates of three such protocols
  at (6, 3);
- gate_matrix at (8, 4) of a rotation and of two controlled rotations, with
  the control at the lowest and at the highest other site, for every
  ordered site pair (168);
- random-protocol evolve_noisy_protocol runs at (6, 3), (8, 4) and (10, 5),
  and one (10, 5) run with a rotation(7, 2), a controlled rotation, a phase
  gate and free time;
- reconstruct_one_rdm(state, None) of the pure and mixed states up to (10, 5);
- a 2,000-iteration hill climb per objective;
- criterion 9's CLI invocations, ``montecarlo`` for every base with and
  without ``--sigma 0.05``, and ``noisy``, ``echo`` and ``rdm --exact`` for
  every target at the default ``--dephasing-rate`` and at 1e10, each in json
  and csv;
- every list of string literals in test_cli.py that starts with a
  subcommand (``TestParser._argument_sets``), run as written, and
  ``--help`` at the top level and for each subcommand.

Nothing is written to disk, bytecode included.  No golden hashes are kept:
the bits follow numpy's Philox and LAPACK, so only two trees run on one
machine can be compared.  The file is not named test_*, so pytest does not
collect it.  Both trees, run side by side, take about 35 s on two cores.
"""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

BASES = ("slater", "epr", "w", "ghz")
MERITS = ("f_epr", "f_slater", "f_w")
CLI_CASES = [
    ["prepare", "--target", "w"],
    ["rdm", "--target", "ghz", "--shots", "20000", "--seed", "3"],
    ["polytope", "--target", "epr"],
    ["functional", "--polytope", "ghz"],
    ["noisy", "--target", "epr", "--seed", "2"],
    ["echo", "--target", "ghz", "--seed", "1"],
    ["montecarlo", "--base", "epr", "--n-samples", "3000", "--seed", "4"],
    *(["montecarlo", "--base", base] for base in ("epr", "w", "ghz")),
    *(["montecarlo", "--base", base, "--sigma", "0.05"] for base in ("epr", "w", "ghz")),
    *(
        [command, "--target", base, *rate]
        for command in ("noisy", "echo")
        for base in BASES
        for rate in ([], ["--dephasing-rate", "1e10"])
    ),
    *(["rdm", "--target", base, "--exact"] for base in BASES),
]


def _feed(h, value) -> None:
    """Feed ``value``'s bytes, and enough of its type to tell values apart, to ``h``."""
    import numpy as np

    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(float(value).hex().encode())
    elif isinstance(value, (tuple, list)):
        h.update(f"[{len(value)}".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(repr(value).encode())
    h.update(b";")


def _outcome(call) -> str:
    """'ok <sha256>' of what ``call()`` returns, or the exception it raises."""
    h = hashlib.sha256()
    try:
        _feed(h, call())
    except Exception as exc:  # a case that raises is a result like any other
        _feed(h, str(exc))
        return f"raise {type(exc).__name__} {h.hexdigest()}"
    return f"ok {h.hexdigest()}"


def _cli_outcome(args: list[str]) -> str:
    from fermitope.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"exit {code} stdout {digest[0]} stderr {digest[1]}"


def _states():
    """(label, state) of pure and mixed states from (6, 3) to (10, 5)."""
    import numpy as np

    from fermitope import fock

    for d in range(6, 11):
        n = d // 2
        pure = [fock.random_pure_state(d, n, seed) for seed in range(3)]
        for seed, state in enumerate(pure):
            yield f"pure ({d},{n}) seed {seed}", state
        weights = (0.5, 0.3, 0.2)
        rho = sum(w * np.outer(s.amplitudes, s.amplitudes.conj()) for w, s in zip(weights, pure))
        yield f"mixed ({d},{n}) rank 3", fock.MixedState(d, n, rho / np.trace(rho).real)
        dim = fock.sector_dim(d, n)
        yield f"mixed ({d},{n}) maximal", fock.MixedState(d, n, np.eye(dim) / dim)


def _library_cases():
    """(label, call) of the fock, gates, noise and tomography cases beyond one_rdm up to (10, 5).

    Each call reads the loop's current values, so it is run before the next is taken.
    """
    import numpy as np

    from fermitope import fock, gates, noise, tomography

    for d, n in ((12, 6), (14, 7)):
        for seed in range(3):
            state = fock.random_pure_state(d, n, seed)
            yield f"one_rdm pure ({d},{n}) seed {seed}", lambda: fock.one_rdm(state)
    for base in BASES:
        pure = gates.target_state(base)
        yield f"one_rdm target {base}", lambda: fock.one_rdm(pure)
        mixed = fock.MixedState.from_pure(pure)
        yield f"one_rdm target {base} mixed", lambda: fock.one_rdm(mixed)
    for d in range(6, 11):
        n, rng = d // 2, np.random.default_rng(d)
        state = fock.random_pure_state(d, n, d)
        for mode in range(1, d + 1):
            for kind in ("creation", "annihilation"):
                yield f"apply_ladder ({d},{n}) {mode} {kind}", lambda: _pure(
                    fock.apply_ladder(state, mode, kind)
                )
        vectors = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        below = fock.random_pure_state(d, n - 2, d)
        yield f"wedge_embed ({d},{n})", lambda: _pure(fock.wedge_embed(below, vectors))
    durations = {"rotation": 20e-12, "controlled_rotation": 60e-12, "phase": 20e-12}
    for d, n in ((12, 6), (14, 7), (6, 3)):
        for seed in range(3):
            rng, ops = np.random.default_rng(100 * d + seed), []
            for kind in rng.permutation(tuple(durations)):
                sites = rng.choice(d, size=3 if kind == "controlled_rotation" else 2, replace=False)
                angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
                ops.append(gates.GateOp(str(kind), tuple(int(s) + 1 for s in sites), angle))
            if d == 6:
                for gate in ops:
                    yield f"gate_matrix ({d},{n}) seed {seed} {gate.kind}", lambda: (
                        gates.gate_matrix(gate, d, n)
                    )
                continue
            protocol = gates.Protocol("random", tuple(ops))
            state = fock.random_pure_state(d, n, seed)
            yield f"apply_protocol ({d},{n}) seed {seed}", lambda: _pure(
                gates.apply_protocol(state, protocol)
            )
    # Every ordered pair at (8, 4), so both orientations of each transition table.
    for i in range(1, 9):
        for j in range(1, 9):
            if i == j:
                continue
            others = [k for k in range(1, 9) if k not in (i, j)]
            angle = 0.3 + i - j
            for gate in (
                gates.rotation(i, j, angle),
                gates.controlled_rotation(others[0], i, j, angle),
                gates.controlled_rotation(others[-1], i, j, angle),
            ):
                case = f"gate_matrix (8,4) {gate.kind} {gate.sites}"
                yield case, lambda: gates.gate_matrix(gate, 8, 4)
    params = noise.NoiseParams(dephasing_rate=1e10, emission_rate=2e9)
    for d in (6, 8, 10):
        for seed in range(2):
            rng, ops = np.random.default_rng(10 * d + seed), []
            for kind in rng.permutation(tuple(durations)):
                sites = rng.choice(d, size=3 if kind == "controlled_rotation" else 2, replace=False)
                angle = float(rng.uniform(-np.pi, np.pi))
                sites = tuple(int(s) + 1 for s in sites)
                ops.append(gates.GateOp(str(kind), sites, angle, durations[kind]))
            protocol = gates.Protocol(f"random-{d}", tuple(ops))
            initial = fock.random_pure_state(d, d // 2, seed)
            yield f"evolve_noisy_protocol ({d},{d // 2}) seed {seed}", lambda: _trajectory(
                noise.evolve_noisy_protocol(protocol, params, 2e-12, initial=initial)
            )
    protocol = gates.Protocol(
        "every-kind",
        (
            gates.rotation(7, 2, 1.1, durations["rotation"]),
            gates.controlled_rotation(9, 3, 6, -2.0, durations["controlled_rotation"]),
            gates.phase_gate(4, 8, 0.7, durations["phase"]),
        ),
    )
    initial = fock.random_pure_state(10, 5, 2)
    yield "evolve_noisy_protocol (10,5) every kind and free time", lambda: _trajectory(
        noise.evolve_noisy_protocol(protocol, params, 2e-12, initial=initial, free_time=10e-12)
    )
    for label, state in _states():

        def reconstruct():
            e = tomography.reconstruct_one_rdm(state, None)
            return e.matrix, e.sigma, e.shots_per_setting, e.settings

        yield f"reconstruct_one_rdm {label}", reconstruct


def _pure(state):
    """A PureState as its particle number and amplitudes."""
    return state.n_particles, state.amplitudes


def _trajectory(run):
    """A noisy run's trajectory columns, its margin epsilon and its final matrix."""
    t, final = run
    fields = (t.times, t.fidelity, t.purity, t.lambdas, t.f1, t.f2, t.margin_ok)
    return (*fields, t.margin_epsilon, final.matrix)


def run_cases() -> dict[str, str]:
    """Every case's outcome on the fermitope that imports here."""
    from fermitope import fock, montecarlo, polytope
    from fermitope.cli import _COMMANDS
    from test_cli import TestParser  # its literal argument sets, read from its source

    warnings.simplefilter("ignore")  # unpaired merits warn; the CLI prints its own
    results = {}
    for base in BASES:
        for merit in MERITS:
            for sigma in (0.0, 1e-6, 0.01, 0.03, 0.05, 0.08, 0.25, 0.5):
                for n in (1, 2049, 20_000):
                    for seed in (0, 1):
                        case = f"merit_distribution {base} {merit} {sigma!r} {n} {seed}"
                        results[case] = _outcome(
                            lambda: montecarlo.merit_distribution(base, merit, sigma, n, seed)
                        )
    for base in BASES:
        for merit in MERITS:
            if (base, merit) == ("slater", "f_w"):
                continue  # refused: its merit is +1 at sigma = 0
            for n in (1, 2049, 20_000):
                for confidence in (0.9, 0.999):
                    for seed in (0, 1):
                        case = f"max_tolerated_sigma {base} {merit} {n} {confidence} {seed}"
                        results[case] = _outcome(
                            lambda: montecarlo.max_tolerated_sigma(
                                base, merit, confidence, n, seed
                            )
                        )
            for sigma in (0.02, 0.05, 0.1):
                case = f"violation_probability {base} {merit} {sigma}"
                results[case] = _outcome(
                    lambda: montecarlo.violation_probability(base, merit, sigma, 20_000, 0)
                )
    for label, state in _states():
        results[f"one_rdm {label}"] = _outcome(lambda: fock.one_rdm(state))
    for label, call in _library_cases():
        results[label] = _outcome(call)
    for objective in ("f1", "f2"):

        def climb():
            r = polytope.hill_climb_extremal(0.06, objective, seed=3, iterations=2000)
            return r.state.matrix, r.value, r.accepted, r.evaluations, r.final_step

        results[f"hill_climb_extremal {objective}"] = _outcome(climb)
    for args in CLI_CASES:
        for fmt in ("json", "csv"):
            results[" ".join(["cli", *args, "--format", fmt])] = _cli_outcome(
                [*args, "--format", fmt]
            )
    help_cases = [["--help"], *([command, "--help"] for command in _COMMANDS)]
    for args in [*TestParser._argument_sets(), *help_cases]:
        case = " ".join(["cli", *args])
        if case not in results:
            results[case] = _cli_outcome(args)
    return results


def _worker(src: str) -> None:
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    import fermitope

    here = Path(fermitope.__file__).resolve()
    if Path(src).resolve() not in here.parents:
        sys.exit(f"fermitope imported from {here}, not from {src}")
    json.dump(run_cases(), sys.stdout)


def main(old_src: str, new_src: str) -> int:
    runs = [
        subprocess.Popen(
            [sys.executable, "-B", __file__, "--run", src], stdout=subprocess.PIPE, text=True
        )
        for src in (old_src, new_src)
    ]
    outputs = [run.communicate()[0] for run in runs]
    if any(run.returncode for run in runs):
        print("a tree's run failed:", [run.returncode for run in runs])
        return 2
    old, new = (json.loads(text) for text in outputs)
    differing = [case for case in old if old[case] != new.get(case)]
    for case in differing:
        print(f"{case}\n  old: {old[case]}\n  new: {new.get(case)}")
    print(f"{len(old) - len(differing)} of {len(old)} identical")
    return 1 if differing else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--run":
        _worker(sys.argv[2])
    elif len(sys.argv) == 3:
        sys.exit(main(sys.argv[1], sys.argv[2]))
    else:
        sys.exit(__doc__)
