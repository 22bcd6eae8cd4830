"""Command-line interface: payloads, formats, exit codes, reproducibility."""

import ast
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fermitope
from fermitope import cli, fock, functional, montecarlo, noise
from fermitope.cli import _COMMANDS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from fermitope.errors import InfeasiblePolytopeError


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestPrepare:
    def test_ghz_lambda_and_functional(self, tmp_path):
        code, out = run(tmp_path, "ghz.json", ["prepare", "--target", "ghz"])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert np.allclose(payload["lambda"], [0.5] * 6, atol=1e-9)
        assert payload["max_lambda_error"] < 1e-10
        assert payload["class_functional"]["E"] == pytest.approx(np.log(6), abs=1e-6)
        assert payload["meta"]["tool"] == "fermitope"
        assert len(payload["meta"]["config_sha256"]) == 64

    def test_slater_identity_protocol(self, tmp_path):
        code, out = run(tmp_path, "slater.json", ["prepare", "--target", "slater"])
        payload = json.loads(out.read_text())
        assert payload["protocol"]["gates"] == []
        assert np.allclose(payload["lambda"], [1, 1, 1, 0, 0, 0], atol=1e-12)

    def test_unknown_target_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "x.json", ["prepare", "--target", "bell"])
        assert code == EXIT_CONFIG


class TestPolytopeAndFunctional:
    def test_polytope_report(self, tmp_path):
        code, out = run(tmp_path, "w.json", ["polytope", "--target", "w"])
        payload = json.loads(out.read_text())
        assert payload["pure_member"] is True
        assert payload["class_membership"] == {
            "slater": False, "epr": False, "w": True, "ghz": True,
        }
        assert payload["merit"]["F_EPR"] == pytest.approx(-1 / 3)

    def test_explicit_occupations_and_numerical_error(self, tmp_path):
        code, _ = run(
            tmp_path, "bad.json", ["polytope", "--occupations", "1,0.5,0.5,0.5,0.5"]
        )
        assert code == EXIT_CONFIG  # wrong length

    @pytest.mark.parametrize(
        "args",
        [
            ["polytope", "--target", "w", "--epsilon", "2"],
            ["noisy", "--target", "w", "--dt", "1e-10"],
            ["montecarlo", "--base", "epr", "--confidence", "0.3"],
            ["noisy", "--target", "w", "--margin-epsilon", "3"],
            ["polytope", "--occupations", "0,1,0.5,0.5,0.5,0.5"],
            ["polytope", "--occupations", "1.2,1,0.5,0.5,0,-0.2"],
            ["montecarlo", "--base", "epr", "--sigma", "nan", "--n-samples", "10"],
            ["montecarlo", "--base", "epr", "--sigma", "inf", "--n-samples", "10"],
            ["noisy", "--target", "w", "--dt", "nan"],
            ["echo", "--target", "w", "--dt", "nan"],
            ["noisy", "--target", "w", "--dephasing-rate", "nan"],
            ["noisy", "--target", "w", "--dephasing-rate", "inf"],
            ["noisy", "--target", "w", "--emission-rate", "nan"],
            ["noisy", "--target", "w", "--free-time", "inf"],
            ["montecarlo", "--base", "epr", "--seed", "-1", "--n-samples", "10"],
            ["rdm", "--target", "epr", "--seed", "-1"],
            ["rdm", "--target", "w", "--shots", "0"],
            ["montecarlo", "--base", "epr", "--sigma", "-0.1", "--n-samples", "10"],
            ["montecarlo", "--base", "epr", "--sigma", "0.1", "--n-samples", "0"],
            ["montecarlo", "--base", "epr", "--n-samples", "-4"],
            ["polytope", "--occupations", "1,0.5,0.5,0.5,0.5,nan"],
            ["polytope", "--target", "w", "--epsilon", "nan"],
            ["noisy", "--target", "w", "--margin-epsilon", "nan"],
            ["montecarlo", "--base", "epr", "--sigma", "1e308", "--n-samples", "10"],
        ],
        ids=[
            "epsilon", "dt", "confidence", "margin-epsilon", "unsorted", "outside-unit",
            "sigma-nan", "sigma-inf", "dt-nan", "echo-dt-nan", "dephasing-nan",
            "dephasing-inf", "emission-nan", "free-time-inf", "montecarlo-seed", "rdm-seed",
            "shots-zero", "sigma-negative", "sigma-samples-zero", "samples-negative",
            "occupation-nan", "epsilon-nan", "margin-epsilon-nan", "sigma-huge",
        ],
    )
    def test_out_of_range_input_is_config_error(self, tmp_path, args):
        code, _ = run(tmp_path, "bad.json", args)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "args",
        [
            ["noisy", "--target", "w", "--dt", "1e-300"],
            ["noisy", "--target", "w", "--free-time", "1"],
            ["echo", "--target", "w", "--dt", "1e-300"],
        ],
        ids=["dt-tiny", "free-time-huge", "echo-dt-tiny"],
    )
    def test_too_many_trotter_steps_is_config_error(self, tmp_path, monkeypatch, args):
        def no_step(*_, **__):
            raise AssertionError("a refused run took a step")

        monkeypatch.setattr(noise, "_step", no_step)
        code, _ = run(tmp_path, "bad.json", args)
        assert code == EXIT_CONFIG

    def test_library_message_is_printed_as_config_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "bad.json", ["rdm", "--target", "w", "--shots", "0"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "fermitope: configuration error: shots must be >= 1\n"

    def test_unparseable_occupations_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "bad.json", ["polytope", "--occupations", "a,b,c"])
        assert code == EXIT_CONFIG

    def test_functional_value(self, tmp_path):
        code, out = run(tmp_path, "f.json", ["functional", "--polytope", "epr"])
        payload = json.loads(out.read_text())
        assert payload["E"] == pytest.approx(np.log(108) / 3, abs=1e-6)


class TestNumericalError:
    @pytest.mark.parametrize(
        "module,name,error,args",
        [
            (
                functional, "quantum_functional", InfeasiblePolytopeError("empty"),
                ["functional", "--polytope", "w"],
            ),
            (
                fock, "natural_occupations", np.linalg.LinAlgError("no convergence"),
                ["prepare", "--target", "w"],
            ),
        ],
        ids=["infeasible", "linalg"],
    )
    def test_numerical_failure_exits_3(
        self, tmp_path, capsys, monkeypatch, module, name, error, args
    ):
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(module, name, fail)
        code, out = run(tmp_path, "x.json", args)
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("fermitope: numerical error")
        assert not out.exists()


class TestCsvFormat:
    def test_noisy_trajectory_header_and_columns(self, tmp_path):
        code, out = run(
            tmp_path,
            "traj.csv",
            ["noisy", "--target", "epr", "--format", "csv", "--seed", "1"],
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "# tool=fermitope"
        assert lines[1].startswith("# version=")
        assert lines[2] == "# seed=1"
        assert lines[3].startswith("# config_sha256=")
        header = lines[4].split(",")
        assert header == [
            "time_s", "fidelity", "purity",
            "lambda1", "lambda2", "lambda3", "lambda4", "lambda5", "lambda6",
            "F1", "F2", "margin_ok",
        ]
        assert all(row.split(",")[-1] == "true" for row in lines[5:])

    def test_montecarlo_histogram_csv(self, tmp_path):
        code, out = run(
            tmp_path,
            "hist.csv",
            [
                "montecarlo", "--base", "ghz", "--sigma", "0.05",
                "--n-samples", "2000", "--format", "csv",
            ],
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[4] == "f_value,count"
        total = sum(int(line.split(",")[1]) for line in lines[5:])
        assert total == 2000

    def test_rdm_csv_carries_the_matrix(self, tmp_path):
        args = ["rdm", "--target", "epr", "--shots", "2000", "--seed", "4"]
        code, out = run(tmp_path, "rdm.csv", args + ["--format", "csv"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[4] == "i,j,re,im,sigma"
        matrix = np.zeros((6, 6), dtype=complex)
        sigma = np.zeros((6, 6))
        for line in lines[5:]:
            i, j, re, im, sig = line.split(",")
            matrix[int(i) - 1, int(j) - 1] = float(re) + 1j * float(im)
            sigma[int(i) - 1, int(j) - 1] = float(sig)
        assert len(lines[5:]) == 36
        _, json_out = run(tmp_path, "rdm.json", args)
        estimate = json.loads(json_out.read_text())["estimate"]
        assert np.array_equal(matrix.real, estimate["matrix_re"])
        assert np.array_equal(matrix.imag, estimate["matrix_im"])
        assert np.array_equal(sigma, estimate["sigma"])


class TestMonteCarloCommand:
    def test_csv_at_one_sigma_draws_samples_once(self, tmp_path, drawn_rows, capsys):
        args = ["montecarlo", "--base", "ghz", "--merit", "f_epr", "--sigma", "0.05",
                "--n-samples", "3000", "--format", "csv"]
        code, out = run(tmp_path, "hist.csv", args)
        assert code == EXIT_OK
        # One block producer, and each of the 3000 rows drawn once.
        assert drawn_rows == [3000]
        assert capsys.readouterr().err == (
            "fermitope: warning: 'ghz' is conventionally paired with 'f_w', not 'f_epr'\n"
        )
        rows = [line.split(",") for line in out.read_text().splitlines()[5:]]
        with pytest.warns(UserWarning, match="conventionally paired"):
            centers, counts = montecarlo.merit_histogram("ghz", "f_epr", 0.05, 3000, seed=0)
        assert [float(c) for c, _ in rows] == centers.tolist()
        assert [int(k) for _, k in rows] == counts.tolist()

    @pytest.mark.parametrize("sigma", [[], ["--sigma", "0.05"]], ids=["search", "sigma"])
    def test_huge_sample_count_exits_2_before_any_draw(self, tmp_path, drawn_rows, capsys, sigma):
        args = ["montecarlo", "--base", "w", "--n-samples", "1000000000000", *sigma]
        code, out = run(tmp_path, "mc.json", args)
        assert code == EXIT_CONFIG
        assert "n_samples must be <= 10,000,000" in capsys.readouterr().err
        assert drawn_rows == []
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("base, sigma", [("epr", "1e150"), ("w", "1e14")])
    def test_one_sample_too_large_for_bins_exits_2(self, tmp_path, capsys, base, sigma, fmt):
        """One merit v with 200 bins over [v - 0.5, v + 0.5] finer than its ulp."""
        args = ["montecarlo", "--base", base, "--sigma", sigma, "--n-samples", "1",
                "--format", fmt]
        code, out = run(tmp_path, f"mc.{fmt}", args)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("fermitope: configuration error: ")
        assert f"sigma={float(sigma):g} with n_samples=1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_rejected_sigma_prints_no_pairing_warning(self, tmp_path, capsys):
        args = ["montecarlo", "--base", "ghz", "--merit", "f_epr", "--sigma", "-1",
                "--n-samples", "10"]
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            code, _ = run(tmp_path, "mc.json", args)
        assert code == EXIT_CONFIG
        assert "warning" not in capsys.readouterr().err

    def test_threshold_payload(self, tmp_path):
        code, out = run(
            tmp_path,
            "mc.json",
            ["montecarlo", "--base", "epr", "--n-samples", "2000", "--seed", "5"],
        )
        payload = json.loads(out.read_text())
        assert payload["merit"] == "f_slater"  # canonical pairing filled in
        assert 0.05 < payload["sigma_star"] < 0.12
        assert payload["confidence"] == 0.999

    def test_bad_base_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "mc.json", ["montecarlo", "--base", "slater"])
        assert code == EXIT_CONFIG

    def test_bad_samples_is_config_error(self, tmp_path):
        code, _ = run(
            tmp_path, "mc.json",
            ["montecarlo", "--base", "epr", "--n-samples", "0"],
        )
        assert code == EXIT_CONFIG


class TestEchoAndRdm:
    def test_echo_payload(self, tmp_path):
        code, out = run(tmp_path, "echo.json", ["echo", "--target", "epr"])
        payload = json.loads(out.read_text())
        assert payload["echo_fidelity"] > 0.999
        assert payload["purity_lower_bound"] <= payload["purity"] + 1e-12

    def test_rdm_exact_mode(self, tmp_path):
        code, out = run(tmp_path, "rdm.json", ["rdm", "--target", "w", "--exact"])
        payload = json.loads(out.read_text())
        assert payload["estimate"]["settings"] == 36
        assert np.allclose(
            payload["natural_occupations"], [2 / 3] * 3 + [1 / 3] * 3, atol=1e-9
        )


class TestEveryFormat:
    """Every subcommand in both formats: exit 0 and output that parses."""

    ARGS = {
        "prepare": ["prepare", "--target", "epr"],
        "rdm": ["rdm", "--target", "w", "--shots", "500"],
        "polytope": ["polytope", "--target", "ghz"],
        "functional": ["functional", "--polytope", "epr"],
        "noisy": ["noisy", "--target", "epr"],
        "echo": ["echo", "--target", "w"],
        "montecarlo": ["montecarlo", "--base", "epr", "--n-samples", "1000"],
        "montecarlo-sigma": [
            "montecarlo", "--base", "w", "--sigma", "0.05", "--n-samples", "1000",
        ],
    }
    # Commands without rows write their scalar payload items as key,value lines.
    KEY_VALUE = {"prepare", "functional", "echo", "montecarlo"}
    # The others write their own table, whatever their JSON payload holds.
    HEADERS = {
        "rdm": ["i", "j", "re", "im", "sigma"],
        "polytope": ["constraint", "slack"],
        "noisy": [
            "time_s", "fidelity", "purity", *(f"lambda{i}" for i in range(1, 7)),
            "F1", "F2", "margin_ok",
        ],
        "montecarlo-sigma": ["f_value", "count"],
    }

    def test_every_subcommand_is_covered(self):
        assert {args[0] for args in self.ARGS.values()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("name", ARGS)
    def test_json(self, tmp_path, name):
        code, out = run(tmp_path, "out.json", self.ARGS[name] + ["--format", "json"])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["meta"]["command"] == self.ARGS[name][0]
        if name == "noisy":
            assert payload["rows"] and set(payload["rows"][0]) >= {"time_s", "F1", "margin_ok"}
        else:
            assert "rows" not in payload
        if name == "montecarlo-sigma":
            assert 0.0 <= payload["violation_probability"] <= 1.0

    @pytest.mark.parametrize("name", ARGS)
    def test_csv(self, tmp_path, name):
        code, out = run(tmp_path, "out.csv", self.ARGS[name] + ["--format", "csv"])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert [line.split("=")[0] for line in lines[:4]] == [
            "# tool", "# version", "# seed", "# config_sha256",
        ]
        header, *rows = list(csv.reader(lines[4:]))
        assert rows and all(len(row) == len(header) for row in rows)
        if name in self.KEY_VALUE:
            assert header == ["key", "value"]
            assert [row[0] for row in rows] == sorted(row[0] for row in rows)
        else:
            assert header == self.HEADERS[name]


class TestReproducibility:
    CASES = [
        ("prepare", ["prepare", "--target", "w"]),
        ("rdm", ["rdm", "--target", "ghz", "--shots", "5000", "--seed", "3"]),
        ("polytope", ["polytope", "--target", "epr", "--format", "csv"]),
        ("functional", ["functional", "--polytope", "w"]),
        ("noisy", ["noisy", "--target", "epr", "--format", "csv", "--seed", "2"]),
        ("echo", ["echo", "--target", "ghz"]),
        (
            "montecarlo",
            ["montecarlo", "--base", "ghz", "--n-samples", "1000", "--seed", "4"],
        ),
    ]

    @pytest.mark.parametrize("name,args", CASES, ids=[c[0] for c in CASES])
    def test_identical_runs_are_byte_identical(self, tmp_path, name, args):
        _, first = run(tmp_path, f"{name}-1.out", args)
        _, second = run(tmp_path, f"{name}-2.out", args)
        assert first.read_bytes() == second.read_bytes()


class TestConfigFile:
    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"shots": 100, "seed": 9}))
        code, out = run(
            tmp_path,
            "rdm.json",
            ["rdm", "--target", "epr", "--config", str(cfg), "--shots", "250"],
        )
        payload = json.loads(out.read_text())
        assert payload["estimate"]["M"] == 250  # flag wins
        assert payload["meta"]["seed"] == 9  # file fills the gap

    @pytest.mark.parametrize(
        "args,values",
        [
            (["noisy", "--target", "w"], {"dt": "abc"}),
            (["montecarlo", "--base", "epr", "--n-samples", "10"], {"sigma": "0.1"}),
            (["functional", "--polytope", "w"], {"format": 3}),
            (["functional", "--polytope", "w"], {"format": "xml"}),
            (["rdm", "--target", "w"], {"exact": "no"}),
            (["functional", "--polytope", "w"], {"out": 7}),
            (["rdm", "--target", "w"], {"shots": True}),
            (["rdm", "--target", "w"], {"shots": 100.0}),
            (["polytope", "--target", "w"], {"epsilon": False}),
        ],
        ids=[
            "dt-str", "sigma-str", "format-int", "format-unknown", "exact-str", "out-int",
            "int-bool", "int-float", "float-bool",
        ],
    )
    def test_mistyped_value_is_config_error(self, tmp_path, args, values):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        # No --out flag, so that a config-file "out" is read.
        assert main(args + ["--config", str(cfg)]) == EXIT_CONFIG

    def test_int_for_float_is_stored_unchanged(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"epsilon": 0, "target": "w"}))
        code, out = run(tmp_path, "p.json", ["polytope", "--config", str(cfg)])
        assert code == EXIT_OK
        epsilon = json.loads(out.read_text())["weakened"]["epsilon"]
        assert epsilon == 0 and isinstance(epsilon, int)

    def test_unwritable_out_is_config_error(self, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert main(["functional", "--polytope", "w", "--out", str(out)]) == EXIT_CONFIG

    def test_missing_config_file_is_config_error(self, tmp_path):
        code, _ = run(
            tmp_path, "x.json",
            ["rdm", "--target", "epr", "--config", str(tmp_path / "nope.json")],
        )
        assert code == EXIT_CONFIG


class TestImport:
    # One small run of every subcommand.
    ARGVS = [
        ["prepare", "--target", "w"],
        ["rdm", "--target", "w", "--shots", "10"],
        ["polytope", "--target", "w"],
        ["functional", "--polytope", "w"],
        ["noisy", "--target", "epr"],
        ["echo", "--target", "epr"],
        ["montecarlo", "--base", "epr", "--sigma", "0.05", "--n-samples", "100"],
    ]

    def _scipy_modules(self, code: str) -> str:
        src = os.path.dirname(os.path.dirname(fermitope.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code += "; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return done.stdout.splitlines()[-1]

    def test_import_loads_no_scipy(self):
        """scipy loads on the first dynamic_phase call, not on import."""
        assert self._scipy_modules("import sys, fermitope, fermitope.cli") == "[]"

    def test_every_subcommand_runs_without_scipy(self, tmp_path):
        assert set(_COMMANDS) == {argv[0] for argv in self.ARGVS}
        runs = "; ".join(
            f"assert main({[*argv, '--out', str(tmp_path / argv[0])]!r}) == 0"
            for argv in self.ARGVS
        )
        assert self._scipy_modules(f"import sys; from fermitope.cli import main; {runs}") == "[]"


class TestParser:
    """main builds its parser once per process; parsing leaves it as built."""

    @staticmethod
    def _argument_sets() -> list[list[str]]:
        """Every list of string literals in this module that starts with a command."""
        found = []
        for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.List) and node.elts and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
            ):
                argv = [e.value for e in node.elts]
                if argv[0] in _COMMANDS:
                    found.append(argv)
        return found

    @staticmethod
    def _parsed(parser, argv, capsys):
        try:
            return repr(vars(parser.parse_args(argv)))  # repr: nan equals nan
        except SystemExit as exc:
            return exc.code, capsys.readouterr()

    def test_one_parser_parses_as_a_fresh_one(self, capsys):
        assert cli._build_parser() is cli._build_parser()
        argvs = self._argument_sets()
        assert len(argvs) > 60 and {argv[0] for argv in argvs} == set(_COMMANDS)
        for argv in argvs:
            fresh = self._parsed(cli._build_parser.__wrapped__(), argv, capsys)
            assert self._parsed(cli._build_parser(), argv, capsys) == fresh, argv

    @pytest.mark.parametrize("command", [None, *_COMMANDS])
    def test_help_is_unchanged(self, command, capsys):
        argv = ["--help"] if command is None else [command, "--help"]
        with pytest.raises(SystemExit) as exc:
            cli._build_parser.__wrapped__().parse_args(argv)
        want = capsys.readouterr().out
        assert exc.value.code == 0 and want.startswith("usage: fermitope")
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0 and capsys.readouterr().out == want
