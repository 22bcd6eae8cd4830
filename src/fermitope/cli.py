"""Command-line front end producing reproducible CSV/JSON reports.

Every run embeds the tool version, the seed and a hash of the resolved
configuration, so identical invocations yield byte-identical files.
Options may come from a JSON config file (``--config``); explicit flags
override file values.  Exit codes: 0 success, 2 configuration error,
3 numerical error.
"""

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, fock, functional, gates, montecarlo, noise, polytope, tomography
from .errors import ConfigError, InvalidDimensionError, StepSizeError, ToolkitError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _config_hash(params: dict) -> str:
    canonical = json.dumps(params, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _meta(command: str, params: dict) -> dict:
    hashed = {k: v for k, v in params.items() if k not in ("out",)}
    return {
        "tool": "fermitope",
        "version": __version__,
        "command": command,
        "seed": params.get("seed"),
        "config_sha256": _config_hash({"command": command, **hashed}),
    }


def _emit(payload: dict, rows: list[dict] | None, params: dict) -> None:
    """Write JSON (payload) or CSV (rows, falling back to payload items)."""
    fmt = params["format"]
    if fmt == "json":
        if rows is not None:
            payload = {**payload, "rows": rows}
        text = json.dumps(payload, sort_keys=True, indent=2, default=_jsonable) + "\n"
    else:
        lines = [
            "# tool=fermitope",
            f"# version={__version__}",
            f"# seed={payload['meta'].get('seed')}",
            f"# config_sha256={payload['meta']['config_sha256']}",
        ]
        if rows is None:
            rows = [
                {"key": k, "value": v}
                for k, v in sorted(payload.items())
                if k != "meta" and not isinstance(v, (dict, list))
            ]
        if rows:
            header = list(rows[0].keys())
            lines.append(",".join(header))
            for row in rows:
                lines.append(",".join(_csv_cell(row[h]) for h in header))
        text = "\n".join(lines) + "\n"

    out = params.get("out")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _require_target(params: dict) -> str:
    target = (params.get("target") or "").lower()
    if target not in polytope.CLASS_LABELS:
        raise ConfigError(f"target must be one of {polytope.CLASS_LABELS}, got {target!r}")
    return target


def _positive_int(params: dict, key: str) -> int:
    value = params.get(key)
    if not isinstance(value, int) or value < 1:
        raise ConfigError(f"{key} must be a positive integer, got {value!r}")
    return value


def _seed(params: dict) -> int:
    value = params["seed"]
    if not isinstance(value, int) or value < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {value!r}")
    return value


def _unit_interval(params: dict, key: str) -> float:
    value = params[key]
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{key} must lie in [0, 1], got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_prepare(params: dict) -> None:
    target = _require_target(params)
    protocol = gates.build_protocol(target)
    final = gates.apply_protocol(gates.target_state("slater"), protocol)
    lam, _ = fock.natural_occupations(fock.one_rdm(final))
    expected = np.array(polytope.CLASS_OCCUPATIONS[target])
    entropy = functional.quantum_functional(polytope.class_polytope(target))
    payload = {
        "meta": _meta("prepare", params),
        "target": target,
        "protocol": protocol.to_json(),
        "final_state": final.to_json(),
        "lambda": [float(x) for x in lam],
        "expected_lambda": [float(x) for x in expected],
        "max_lambda_error": float(np.max(np.abs(lam - expected))),
        "class_functional": entropy.to_json(),
    }
    _emit(payload, None, params)


def _cmd_rdm(params: dict) -> None:
    target = _require_target(params)
    shots = None if params["exact"] else _positive_int(params, "shots")
    state = gates.target_state(target)
    estimate = tomography.reconstruct_one_rdm(state, shots, seed=_seed(params))
    hermitian = (estimate.matrix + estimate.matrix.conj().T) / 2.0
    lam, _ = fock.natural_occupations(hermitian)
    payload = {
        "meta": _meta("rdm", params),
        "target": target,
        "estimate": estimate.to_json(),
        "natural_occupations": [float(x) for x in lam],
    }
    _emit(payload, None, params)


def _lambda_from_params(params: dict) -> np.ndarray:
    occs = params.get("occupations")
    if occs:
        try:
            lam = np.array([float(x) for x in occs.split(",")])
        except ValueError as exc:
            raise ConfigError(f"could not parse occupations {occs!r}") from exc
        if lam.shape != (6,) or not np.all(np.isfinite(lam)):
            raise ConfigError(f"occupations must be six finite numbers, got {occs!r}")
        return lam
    target = _require_target(params)
    return np.array(polytope.CLASS_OCCUPATIONS[target])


def _cmd_polytope(params: dict) -> None:
    lam = _lambda_from_params(params)
    try:
        report, member = polytope.check_pure_bd(lam)
    except InvalidDimensionError as exc:
        raise ConfigError(str(exc)) from exc
    weak = polytope.check_weakened(lam, _unit_interval(params, "epsilon"))
    memberships = {
        label: polytope.class_polytope(label).contains(lam)
        for label in polytope.CLASS_LABELS
    }
    payload = {
        "meta": _meta("polytope", params),
        "lambda": [float(x) for x in lam],
        "merit": report.to_json(),
        "pure_member": member,
        "class_membership": memberships,
        "weakened": weak.to_json(),
    }
    rows = [
        {"constraint": k, "slack": float(v)} for k, v in sorted(report.slacks.items())
    ]
    rows.append({"constraint": f"f1<=1+{params['epsilon']}", "slack": weak.slack_f1})
    rows.append({"constraint": f"f2<=2+{params['epsilon']}", "slack": weak.slack_f2})
    _emit(payload, rows if params["format"] == "csv" else None, params)


def _cmd_functional(params: dict) -> None:
    label = (params.get("polytope") or "").lower()
    if label not in polytope.CLASS_LABELS:
        raise ConfigError(f"polytope must be one of {polytope.CLASS_LABELS}")
    result = functional.quantum_functional(polytope.class_polytope(label))
    payload = {
        "meta": _meta("functional", params),
        "polytope": label,
        "E": result.value,
        "argmax": [float(x) for x in result.argmax],
    }
    _emit(payload, None, params)


def _noise_params(params: dict) -> noise.NoiseParams:
    if not all(0.0 <= params[k] < math.inf for k in ("dephasing_rate", "emission_rate")):
        raise ConfigError("noise rates must be finite and non-negative")
    return noise.NoiseParams(
        dephasing_rate=params["dephasing_rate"],
        emission_rate=params["emission_rate"],
    )


def _cmd_noisy(params: dict) -> None:
    target = _require_target(params)
    protocol = gates.build_protocol(target)
    trajectory, final = noise.evolve_noisy_protocol(
        protocol,
        _noise_params(params),
        dt=params["dt"],
        free_time=params["free_time"],
        margin_epsilon=_unit_interval(params, "margin_epsilon"),
    )
    payload = {
        "meta": _meta("noisy", params),
        "target": target,
        "final_purity": noise.purity(final),
        "final_fidelity": float(trajectory.fidelity[-1]),
        "margin_epsilon": trajectory.margin_epsilon,
        "margin_ok_everywhere": bool(trajectory.margin_ok.all()),
    }
    _emit(payload, trajectory.rows(), params)


def _cmd_echo(params: dict) -> None:
    target = _require_target(params)
    protocol = gates.build_protocol(target)
    echo = noise.loschmidt_echo(protocol, _noise_params(params), dt=params["dt"])
    lam, _ = fock.natural_occupations(fock.one_rdm(echo.state))
    payload = {
        "meta": _meta("echo", params),
        "target": target,
        "echo_fidelity": echo.echo_fidelity,
        "purity": noise.purity(echo.state),
        "purity_lower_bound": noise.purity_lower_bound(echo.state),
        "lambda": [float(x) for x in lam],
    }
    _emit(payload, None, params)


def _cmd_montecarlo(params: dict) -> None:
    base = (params.get("base") or "").lower()
    if base not in montecarlo.CANONICAL_PAIRING:
        raise ConfigError(f"base must be one of {tuple(montecarlo.CANONICAL_PAIRING)}")
    merit = (params.get("merit") or montecarlo.CANONICAL_PAIRING[base]).lower()
    if merit not in montecarlo.MERIT_LABELS:
        raise ConfigError(f"merit must be one of {montecarlo.MERIT_LABELS}")
    n_samples = _positive_int(params, "n_samples")
    seed = _seed(params)

    if params.get("sigma") is not None:
        sigma = params["sigma"]
        if not 0.0 <= sigma < math.inf:
            raise ConfigError(f"sigma must be finite and non-negative, got {sigma!r}")
        # One set of samples gives both the probability and the histogram.
        montecarlo._warn_if_unpaired(base, merit)
        values = montecarlo.merit_samples(base, merit, sigma, n_samples, seed)
        prob = montecarlo._violating_fraction(values)
        payload = {
            "meta": _meta("montecarlo", params),
            "base": base,
            "merit": merit,
            "sigma": sigma,
            "violation_probability": prob,
            "n_samples": n_samples,
        }
        rows = None
        if params["format"] == "csv":
            centers, counts = montecarlo._histogram(values)
            rows = [
                {"f_value": float(c), "count": int(k)}
                for c, k in zip(centers, counts)
            ]
        _emit(payload, rows, params)
        return

    if not 0.5 < params["confidence"] < 1.0:
        raise ConfigError(f"confidence must lie in (0.5, 1), got {params['confidence']!r}")
    sigma_star = montecarlo.max_tolerated_sigma(
        base,
        merit,
        confidence=params["confidence"],
        n_samples=n_samples,
        seed=seed,
    )
    payload = {
        "meta": _meta("montecarlo", params),
        "base": base,
        "merit": merit,
        "sigma_star": sigma_star,
        "confidence": params["confidence"],
        "n_samples": n_samples,
        "seed": seed,
    }
    _emit(payload, None, params)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "format": "json",
    "seed": 0,
    "epsilon": 0.06,
    "shots": 100_000,
    "exact": False,
    "dephasing_rate": noise.PAPER_DEPHASING_RATE,
    "emission_rate": 0.0,
    "dt": 1e-12,
    "free_time": 0.0,
    "margin_epsilon": 0.06,
    "n_samples": 100_000,
    "confidence": 0.999,
}

_HANDLERS = {
    "prepare": _cmd_prepare,
    "rdm": _cmd_rdm,
    "polytope": _cmd_polytope,
    "functional": _cmd_functional,
    "noisy": _cmd_noisy,
    "echo": _cmd_echo,
    "montecarlo": _cmd_montecarlo,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermitope",
        description="Few-fermion occupation-number polytope toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="JSON file with defaults")

    p = sub.add_parser("prepare", help="run a preparation protocol")
    p.add_argument("--target", required=True)
    common(p)

    p = sub.add_parser("rdm", help="simulated 1-RDM tomography")
    p.add_argument("--target", required=True)
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--exact", action="store_true", default=None,
                   help="use exact expectations (infinite shots)")
    common(p)

    p = sub.add_parser("polytope", help="membership and merit report")
    p.add_argument("--target", default=None)
    p.add_argument("--occupations", default=None,
                   help="comma-separated lambda values (overrides --target)")
    p.add_argument("--epsilon", type=float, default=None)
    common(p)

    p = sub.add_parser("functional", help="entropy functional of a class polytope")
    p.add_argument("--polytope", required=True)
    common(p)

    p = sub.add_parser("noisy", help="noisy preparation trajectory")
    p.add_argument("--target", required=True)
    p.add_argument("--dephasing-rate", dest="dephasing_rate", type=float, default=None)
    p.add_argument("--emission-rate", dest="emission_rate", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--free-time", dest="free_time", type=float, default=None)
    p.add_argument("--margin-epsilon", dest="margin_epsilon", type=float, default=None)
    common(p)

    p = sub.add_parser("echo", help="entangle-disentangle purity report")
    p.add_argument("--target", required=True)
    p.add_argument("--dephasing-rate", dest="dephasing_rate", type=float, default=None)
    p.add_argument("--emission-rate", dest="emission_rate", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    common(p)

    p = sub.add_parser("montecarlo", help="error-margin thresholds")
    p.add_argument("--base", required=True)
    p.add_argument("--merit", default=None)
    p.add_argument("--sigma", type=float, default=None,
                   help="evaluate one sigma instead of searching the threshold")
    p.add_argument("--n-samples", dest="n_samples", type=int, default=None)
    p.add_argument("--confidence", type=float, default=None)
    common(p)

    return parser


def _resolve_params(args: argparse.Namespace) -> dict:
    params = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                from_file = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(from_file, dict):
            raise ConfigError("config file must contain a JSON object")
        for key, value in from_file.items():
            if key in params and params[key] is None:
                params[key] = value
    for key, value in params.items():
        if value is None and key in _DEFAULTS:
            params[key] = _DEFAULTS[key]
    return params


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        params = _resolve_params(args)
        _HANDLERS[args.command](params)
    except (ConfigError, StepSizeError) as exc:
        # StepSizeError only ever rejects a step size or rate taken from input.
        print(f"fermitope: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ToolkitError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"fermitope: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
