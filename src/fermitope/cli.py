"""Command-line front end producing reproducible CSV/JSON reports.

Every run embeds the tool version, the seed and a hash of the resolved
configuration, so identical invocations yield byte-identical files.
Options may come from a JSON config file (``--config``); explicit flags
override file values.  Input is validated once, by the library: exit 0
is success, 2 is input the library rejects (``ConfigError``,
``InvalidDimensionError``, ``StepSizeError``) and 3 is a numerical
failure (any other ``ToolkitError``, ``LinAlgError`` or
``FloatingPointError``).  A library warning prints as one stderr line,
``fermitope: warning: <message>``, with no path or line number.
"""

import argparse
import functools
import hashlib
import json
import sys
import warnings

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
    if params["format"] == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
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
        try:
            fh = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc
        with fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _label(params: dict, key: str, choices) -> str:
    value = (params.get(key) or "").lower()
    if value not in choices:
        raise ConfigError(f"{key} must be one of {tuple(choices)}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, CSV rows), meta is added by main
# ---------------------------------------------------------------------------

def _cmd_prepare(params: dict) -> tuple[dict, None]:
    target = _label(params, "target", polytope.CLASS_LABELS)
    protocol = gates.build_protocol(target)
    final = gates.apply_protocol(gates.target_state("slater"), protocol)
    lam, _ = fock.natural_occupations(fock.one_rdm(final))
    expected = np.array(polytope.CLASS_OCCUPATIONS[target])
    entropy = functional.quantum_functional(polytope.class_polytope(target))
    payload = {
        "target": target,
        "protocol": protocol.to_json(),
        "final_state": final.to_json(),
        "lambda": [float(x) for x in lam],
        "expected_lambda": [float(x) for x in expected],
        "max_lambda_error": float(np.max(np.abs(lam - expected))),
        "class_functional": entropy.to_json(),
    }
    return payload, None


def _cmd_rdm(params: dict) -> tuple[dict, list[dict]]:
    target = _label(params, "target", polytope.CLASS_LABELS)
    shots = None if params["exact"] else params["shots"]
    state = gates.target_state(target)
    estimate = tomography.reconstruct_one_rdm(state, shots, seed=params["seed"])
    lam, _ = fock.natural_occupations(estimate.matrix)
    payload = {
        "target": target,
        "estimate": estimate.to_json(),
        "natural_occupations": [float(x) for x in lam],
    }
    # One row per matrix entry; sites are numbered from 1.
    return payload, [
        {"i": i + 1, "j": j + 1, "re": float(z.real), "im": float(z.imag), "sigma": float(s)}
        for (i, j), z, s in zip(
            np.ndindex(estimate.matrix.shape), estimate.matrix.flat, estimate.sigma.flat
        )
    ]


def _lambda_from_params(params: dict) -> np.ndarray:
    occs = params.get("occupations")
    if occs:
        try:
            return np.array([float(x) for x in occs.split(",")])
        except ValueError as exc:
            raise ConfigError(f"could not parse occupations {occs!r}") from exc
    target = _label(params, "target", polytope.CLASS_LABELS)
    return np.array(polytope.CLASS_OCCUPATIONS[target])


def _cmd_polytope(params: dict) -> tuple[dict, list[dict]]:
    lam = _lambda_from_params(params)
    report, member = polytope.check_pure_bd(lam)
    weak = polytope.check_weakened(lam, params["epsilon"])
    memberships = {
        label: polytope.class_polytope(label).contains(lam)
        for label in polytope.CLASS_LABELS
    }
    payload = {
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
    return payload, rows


def _cmd_functional(params: dict) -> tuple[dict, None]:
    label = _label(params, "polytope", polytope.CLASS_LABELS)
    result = functional.quantum_functional(polytope.class_polytope(label))
    return {"polytope": label, **result.to_json()}, None


def _noise_params(params: dict) -> noise.NoiseParams:
    return noise.NoiseParams(
        dephasing_rate=params["dephasing_rate"],
        emission_rate=params["emission_rate"],
    )


def _cmd_noisy(params: dict) -> tuple[dict, list[dict]]:
    target = _label(params, "target", polytope.CLASS_LABELS)
    protocol = gates.build_protocol(target)
    trajectory, final = noise.evolve_noisy_protocol(
        protocol,
        _noise_params(params),
        dt=params["dt"],
        free_time=params["free_time"],
        margin_epsilon=params["margin_epsilon"],
    )
    rows = trajectory.rows()
    payload = {
        "target": target,
        "final_purity": noise.purity(final),
        "final_fidelity": float(trajectory.fidelity[-1]),
        "margin_epsilon": trajectory.margin_epsilon,
        "margin_ok_everywhere": bool(trajectory.margin_ok.all()),
        "rows": rows,
    }
    return payload, rows


def _cmd_echo(params: dict) -> tuple[dict, None]:
    target = _label(params, "target", polytope.CLASS_LABELS)
    protocol = gates.build_protocol(target)
    echo = noise.loschmidt_echo(protocol, _noise_params(params), dt=params["dt"])
    lam, _ = fock.natural_occupations(fock.one_rdm(echo.state))
    payload = {
        "target": target,
        "echo_fidelity": echo.echo_fidelity,
        "purity": noise.purity(echo.state),
        "purity_lower_bound": noise.purity_lower_bound(echo.state),
        "lambda": [float(x) for x in lam],
    }
    return payload, None


def _cmd_montecarlo(params: dict) -> tuple[dict, list[dict] | None]:
    base = _label(params, "base", montecarlo.CANONICAL_PAIRING)
    merit = montecarlo.CANONICAL_PAIRING[base]
    if params["merit"]:
        merit = _label(params, "merit", montecarlo.MERIT_LABELS)
    n_samples, seed, sigma = params["n_samples"], params["seed"], params["sigma"]
    payload = {"base": base, "merit": merit, "n_samples": n_samples}

    if sigma is not None:
        # One set of samples gives both the probability and the histogram.
        probability, centers, counts = montecarlo.merit_distribution(
            base, merit, sigma, n_samples, seed
        )
        payload["sigma"] = sigma
        payload["violation_probability"] = probability
        return payload, [
            {"f_value": float(c), "count": int(k)} for c, k in zip(centers, counts)
        ]

    payload["sigma_star"] = montecarlo.max_tolerated_sigma(
        base, merit, confidence=params["confidence"], n_samples=n_samples, seed=seed
    )
    payload["confidence"] = params["confidence"]
    payload["seed"] = seed
    return payload, None


# ---------------------------------------------------------------------------
# Options and commands
# ---------------------------------------------------------------------------

# Every option: (type, default, help).  A tuple type lists the allowed
# strings; bool options are flags.  Config-file values are checked
# against the type and stored unchanged.
_OPTIONS = {
    "target": (str, None, None),
    "shots": (int, 100_000, None),
    "exact": (bool, False, "use exact expectations (infinite shots)"),
    "occupations": (str, None, "comma-separated lambda values (overrides --target)"),
    "epsilon": (float, 0.06, None),
    "polytope": (str, None, None),
    "dephasing_rate": (float, noise.PAPER_DEPHASING_RATE, None),
    "emission_rate": (float, 0.0, None),
    "dt": (float, 1e-12, None),
    "free_time": (float, 0.0, None),
    "margin_epsilon": (float, 0.06, None),
    "base": (str, None, None),
    "merit": (str, None, None),
    "sigma": (float, None, "evaluate one sigma instead of searching the threshold"),
    "n_samples": (int, 100_000, None),
    "confidence": (float, 0.999, None),
    "out": (str, None, "output file (default stdout)"),
    "format": (("json", "csv"), "json", None),
    "seed": (int, 0, None),
    "config": (str, None, "JSON file with defaults"),
}

_NOISE_OPTIONS = ("dephasing_rate", "emission_rate", "dt")

# Every command: (handler, help, options); a trailing "!" marks a required
# option.  Each also takes --out, --format, --seed and --config.
_COMMANDS = {
    "prepare": (_cmd_prepare, "run a preparation protocol", ("target!",)),
    "rdm": (_cmd_rdm, "simulated 1-RDM tomography", ("target!", "shots", "exact")),
    "polytope": (
        _cmd_polytope, "membership and merit report", ("target", "occupations", "epsilon")
    ),
    "functional": (_cmd_functional, "entropy functional of a class polytope", ("polytope!",)),
    "noisy": (
        _cmd_noisy,
        "noisy preparation trajectory",
        ("target!", *_NOISE_OPTIONS, "free_time", "margin_epsilon"),
    ),
    "echo": (_cmd_echo, "entangle-disentangle purity report", ("target!", *_NOISE_OPTIONS)),
    "montecarlo": (
        _cmd_montecarlo,
        "error-margin thresholds",
        ("base!", "merit", "sigma", "n_samples", "confidence"),
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="fermitope",
        description="Few-fermion occupation-number polytope toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, command_help, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for name in (*names, "out", "format", "seed", "config"):
            key = name.rstrip("!")
            kind, _, option_help = _OPTIONS[key]
            extra = {"required": True} if name.endswith("!") else {"default": None}
            if kind is bool:
                extra["action"] = "store_true"
            elif isinstance(kind, tuple):
                extra["choices"] = kind
            elif kind is not str:
                extra["type"] = kind
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=option_help, **extra)
    return parser


def _typed(key: str, value) -> bool:
    """Whether a config-file value fits its option's type (None is unset)."""
    kind = _OPTIONS[key][0]
    if value is None:
        return True
    if isinstance(kind, tuple):
        return value in kind
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, kind)


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
                if not _typed(key, value):
                    raise ConfigError(f"config value {key}={value!r} has the wrong type")
                params[key] = value
    for key, value in params.items():
        if value is None:
            params[key] = _OPTIONS[key][1]
    return params


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = lambda msg, *_: print("fermitope: warning:", msg, file=sys.stderr)
        try:
            params = _resolve_params(args)
            payload, rows = _COMMANDS[args.command][0](params)
            _emit({"meta": _meta(args.command, params), **payload}, rows, params)
        except (ConfigError, InvalidDimensionError, StepSizeError) as exc:
            # The library's checks of user-supplied values raise these three.
            print(f"fermitope: configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except (ToolkitError, np.linalg.LinAlgError, FloatingPointError) as exc:
            print(f"fermitope: numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
