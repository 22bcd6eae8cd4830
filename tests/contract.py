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
- one_rdm of pure and mixed states from (6, 3) to (10, 5);
- a 2,000-iteration hill climb per objective;
- criterion 9's CLI invocations, and ``montecarlo`` for every base with and
  without ``--sigma 0.05``, each in json and csv.

Nothing is written to disk, bytecode included.  No golden hashes are kept:
the bits follow numpy's Philox and LAPACK, so only two trees run on one
machine can be compared.  The file is not named test_*, so pytest does not
collect it.  Both trees take a few minutes, run side by side.
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
        yield f"mixed ({d},{n}) maximal", fock.maximally_mixed(d, n)


def run_cases() -> dict[str, str]:
    """Every case's outcome on the fermitope that imports here."""
    from fermitope import fock, montecarlo, polytope

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
