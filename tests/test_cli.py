import json
import math
import re

import numpy as np
import pytest

from prgd import cli
from prgd.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _build_problem, build_parser, main
from prgd.numerics import EIG_DIM_LIMIT
from prgd.problems import save_matrix
from prgd.verify import verification_checks


class TestRun:
    def test_smoke_quadratic(self, tmp_path):
        out = tmp_path / "smoke"
        code = main(["run", "--problem", "quadratic_saddle", "--dim", "2", "--mode", "practical",
                     "--chi", "4", "--eps", "0.01", "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        assert (tmp_path / "smoke.trace.csv").exists()
        assert (tmp_path / "smoke.summary.json").exists()
        summary = json.loads((tmp_path / "smoke.summary.json").read_text())
        for key in ("final_f", "final_grad_norm", "n_perturbations", "n_manifold_steps",
                    "gradient_queries", "terminated", "second_order"):
            assert key in summary

    def test_byte_identical_outputs_for_identical_configs(self, tmp_path):
        args = ["run", "--problem", "pca", "--dim", "6", "--mode", "practical", "--chi", "4",
                "--eps", "1e-3", "--seed", "11", "--start", "saddle", "--terminate"]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a.trace.csv").read_bytes() == (tmp_path / "b.trace.csv").read_bytes()
        a = json.loads((tmp_path / "a.summary.json").read_text())
        b = json.loads((tmp_path / "b.summary.json").read_text())
        assert a == b
        # saddle start visits small-gradient iterates, so a verdict is reported
        assert a["second_order"] is not None
        assert a["second_order"]["verdict"] is True

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "columns"
        main(["run", "--problem", "pca", "--dim", "4", "--mode", "practical", "--chi", "4",
              "--eps", "1e-3", "--seed", "3", "--start", "saddle", "--terminate", "--out", str(out)])
        lines = (tmp_path / "columns.trace.csv").read_text().strip().splitlines()
        assert lines[0] == "t,kind,f,grad_norm,tangent_norm"
        assert all(line.count(",") == 4 for line in lines)

    def test_run_without_a_small_gradient_visit_has_no_second_order_report(self, tmp_path):
        # a gap of 1e-9 is exhausted by the first manifold step, before any iterate has a small gradient
        assert main(["run", "--problem", "pca", "--dim", "20", "--chi", "4", "--eps", "1e-3", "--gap", "1e-9",
                     "--seed", "1", "--out", str(tmp_path / "gap")]) == EXIT_OK
        summary = json.loads((tmp_path / "gap.summary.json").read_text())
        assert (summary["terminated"], summary["final_t"], summary["n_perturbations"]) == ("gap_exhausted", 1, 0)
        assert summary["second_order"] is None

    @pytest.mark.parametrize("command", ["run --rho 1e-2 --start saddle --terminate",
                                         "study --start random --algorithm rgd --trials 2"])
    def test_numerical_failure_is_one_stderr_line_and_no_file(self, tmp_path, capsys, command):
        # both overflow to a non-finite gradient; numpy's overflow warnings are not printed before the error
        name, *rest = command.split()
        code = main([name, "--problem", "quadratic_saddle", "--dim", "5", "--chi", "4", "--eps", "1e-3",
                     "--seed", "1", *rest, "--out", str(tmp_path / "x")])
        assert code == EXIT_NUMERICAL
        assert re.fullmatch(r"numerical failure: [^\n]*\n", capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_pca_start_file_requires_matrix(self, tmp_path, capsys):
        code = main(["run", "--problem", "pca", "--dim", "4", "--start", "file",
                     "--start-file", "whatever", "--chi", "4", "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "matrix required" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run --terminate --out x", "study --out x", "params", "verify --samples 10"])
    def test_start_file_without_start_file_mode_is_config_error(self, tmp_path, monkeypatch, capsys, command):
        # otherwise the run starts where --start (or its default) says and ignores the file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x0.txt").write_text("1 0 0 0 0\n")
        name, *rest = command.split()
        code = main([name, "--problem", "pca", "--dim", "5", "--chi", "4", "--start-file", "x0.txt", *rest])
        assert code == EXIT_CONFIG
        assert capsys.readouterr() == ("", "error: --start-file requires --start file\n")
        assert [path.name for path in tmp_path.iterdir()] == ["x0.txt"]

    def test_start_from_file(self, tmp_path):
        matrix_path = tmp_path / "a.txt"
        save_matrix(matrix_path, np.diag([3.0, 1.0]))
        start_path = tmp_path / "x0.txt"
        start_path.write_text("0.0 1.0\n")
        code = main(["run", "--problem", "pca", "--matrix", str(matrix_path), "--start", "file",
                     "--start-file", str(start_path), "--mode", "practical", "--chi", "4",
                     "--eps", "1e-3", "--terminate", "--out", str(tmp_path / "filerun")])
        assert code == EXIT_OK

    def test_practical_mode_without_chi_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--problem", "quadratic_saddle", "--dim", "2",
                     "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "chi" in capsys.readouterr().err


class TestIgnoredFlags:
    """A flag that the command would ignore is a configuration error, raised before any set-up work."""

    @pytest.mark.parametrize("flag, command", [
        ("--chi", "run --mode theoretical --ball 1.0 --chi 4 --terminate --out x"),
        ("--chi", "study --mode theoretical --ball 1.0 --chi 4 --out x"),
        ("--chi", "params --mode theoretical --ball 1.0 --chi 4"),
        ("--chi", "verify --mode theoretical --ball 1.0 --chi 4 --samples 10"),
        ("--max-iters", "study --chi 4 --algorithm prgd --max-iters 5 --out x"),
        ("--no-terminate", "study --chi 4 --algorithm rgd --no-terminate --out x"),
        ("--terminate", "study --chi 4 --algorithm rgd --terminate --out x"),
    ])
    def test_ignored_flag_is_config_error(self, flag, command, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_build_problem", lambda args: pytest.fail("set-up ran"))
        name, *rest = command.split()
        assert main([name, "--problem", "pca", "--dim", "5", *rest]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"error: {flag} [^\n]*\n", err)
        assert list(tmp_path.iterdir()) == []


class TestParams:
    def test_practical_chi_twenty(self, capsys):
        code = main(["params", "--problem", "quadratic_saddle", "--dim", "2",
                     "--mode", "practical", "--chi", "20", "--eps", "0.01"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["horizon"] == 200
        assert payload["radius"] == pytest.approx(3.125e-9, rel=1e-12)

    def test_epsilon_ball_hypothesis_violation(self, tmp_path, capsys):
        code = main(["params", "--problem", "quadratic_saddle", "--dim", "2",
                     "--mode", "practical", "--chi", "4", "--eps", "1.0", "--ball", "0.01"])
        assert code == EXIT_CONFIG
        assert "ball^2 * lip_hess" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["params", "study"])
    @pytest.mark.parametrize("eps", ["0", "-1", "nan"])
    def test_nonpositive_epsilon_is_config_error(self, command, eps, tmp_path, capsys):
        argv = [command, "--problem", "pca", "--dim", "5", "--chi", "4", "--eps", eps]
        if command == "study":
            argv += ["--out", str(tmp_path / "s")]
        assert main(argv) == EXIT_CONFIG
        assert "epsilon must be positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_pca_constants_from_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        save_matrix(path, np.diag([3.0, 1.0]))
        code = main(["params", "--problem", "pca", "--matrix", str(path),
                     "--mode", "practical", "--chi", "4", "--eps", "1e-3", "--start", "saddle"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["lip_grad"] == pytest.approx(7.5, rel=1e-9)
        assert payload["lip_hess"] == pytest.approx(27.0, rel=1e-9)

    @pytest.mark.parametrize("spectrum", [[3.0, 1.0, 0.5, -2.0, 0.1], [3.0, 3.0, 1.0, 0.5, -2.0]],
                             ids=["distinct", "repeated top"])
    def test_pca_eigenvectors_from_matrix_file(self, tmp_path, spectrum):
        rng = np.random.default_rng(4)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = (q * spectrum) @ q.T
        path = tmp_path / "a.txt"
        save_matrix(path, 0.5 * (a + a.T))
        args = build_parser().parse_args(["params", "--problem", "pca", "--matrix", str(path)])
        problem, v_max, saddle, _, _ = _build_problem(args)
        vals, vecs = np.linalg.eigh(problem.matrix)
        for v, lam in ((v_max, vals[-1]), (saddle.coords, vals[-2])):
            assert np.linalg.norm(problem.matrix @ v - lam * v) <= 1e-9 * 3.0
            top = int(np.argmax(np.abs(v)))
            assert v[top] > 0
        assert abs(float(v_max @ saddle.coords)) <= 1e-9
        if vals[-1] - vals[-2] > 1e-9:
            assert abs(float(v_max @ vecs[:, -1])) == pytest.approx(1.0, abs=1e-12)
            assert abs(float(saddle.coords @ vecs[:, -2])) == pytest.approx(1.0, abs=1e-12)

    def test_nearly_symmetric_matrix_file_reaches_the_problem(self, tmp_path, capsys):
        # 1e-10 relative asymmetry passes load_matrix's 1e-9 test; PcaProblem gets the file's (M + M^T)/2
        raw = np.diag([3.0, 1.0, 0.5]) + 0.25
        raw[0, 1] += 1e-10 * 3.25
        path = tmp_path / "a.txt"
        save_matrix(path, raw)
        args = ["params", "--problem", "pca", "--matrix", str(path), "--chi", "4"]
        problem = _build_problem(build_parser().parse_args(args))[0]
        assert np.array_equal(problem.matrix, 0.5 * (raw + raw.T))
        assert main(args) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["lip_grad"] == pytest.approx(2.5 * problem.norm, rel=1e-12)

    @pytest.mark.parametrize("problem", ["pca", "quadratic_saddle"])
    def test_matrix_file_above_the_entry_range_is_config_error(self, problem, tmp_path, capsys):
        # finite and symmetric; the range error comes before any symmetrizing sum could overflow and warn
        path = tmp_path / "a.txt"
        save_matrix(path, np.diag([1e308, -1.0]))
        assert main(["params", "--problem", problem, "--matrix", str(path), "--chi", "4"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: matrix entries must all be below 2^1023 in magnitude\n"

    def test_matrix_set_up_makes_one_eigh_and_no_solve(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "a.txt"
        save_matrix(path, np.diag([3.0, 1.0, 0.5, -2.0]))
        calls = []
        for name in ("eigh", "solve"):
            routine = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, name=name, routine=routine: calls.append(name) or routine(*args))
        code = main(["params", "--problem", "pca", "--matrix", str(path), "--chi", "4", "--start", "saddle"])
        assert code == EXIT_OK
        assert calls == ["eigh"]

    @pytest.mark.parametrize("command", ["params", "study"])
    # from about 1e-119 to 1e-129, epsilon**2.5 is subnormal and the theoretical chi's log argument overflows
    @pytest.mark.parametrize("mode", [["--chi", "4", "--eps", "1e-300"],
                                      ["--mode", "theoretical", "--ball", "1.0", "--eps", "1e-130"],
                                      ["--mode", "theoretical", "--ball", "1.0", "--eps", "1e-120"],
                                      ["--mode", "theoretical", "--ball", "1.0", "--eps", "1e-125"],
                                      ["--mode", "theoretical", "--ball", "1.0", "--eps", "1e-129"]],
                             ids=["practical", "theoretical", "theoretical-1e-120", "theoretical-1e-125",
                                  "theoretical-1e-129"])
    def test_underflowing_epsilon_is_config_error(self, command, mode, tmp_path, capsys):
        argv = [command, "--problem", "pca", "--dim", "5"] + mode
        if command == "study":
            argv += ["--out", str(tmp_path / "s")]
        assert main(argv) == EXIT_CONFIG
        assert "epsilon" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["params", "study"])
    @pytest.mark.parametrize("flags, name", [(["--chi", "inf"], "chi"), (["--chi", "1e300"], "chi"),
                                             (["--chi", "4", "--eps", "1e250"], "epsilon"),
                                             (["--chi", "4", "--eps", "inf"], "epsilon"),
                                             (["--chi", "4", "--ell", "inf"], "ell"),
                                             (["--chi", "4", "--rho", "inf"], "lip_hess"),
                                             (["--chi", "4", "--gap", "inf"], "gap"),
                                             (["--chi", "4", "--rho", "1e300", "--eps", "1e10"], "lip_hess"),
                                             (["--chi", "4", "--ell", "1e300"], "ell"),
                                             (["--chi", "4", "--gap", "1e300"], "gap")],
                             ids=["chi-inf", "chi-1e300", "eps-1e250", "eps-inf", "ell-inf", "rho-inf", "gap-inf",
                                  "rho-1e300-eps-1e10", "ell-1e300", "gap-1e300"])
    def test_out_of_range_input_is_named(self, command, flags, name, tmp_path, capsys):
        argv = [command, "--problem", "pca", "--dim", "5"] + flags
        if command == "study":
            argv += ["--out", str(tmp_path / "s")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert re.search(rf"\b{name}\b", err), err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_one_by_one_matrix_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "a.txt"
        save_matrix(path, np.array([[2.0]]))
        assert main(["params", "--problem", "pca", "--matrix", str(path), "--chi", "4"]) == EXIT_CONFIG
        # the sphere's own count rule names the size
        assert capsys.readouterr().err == "error: n must be an integer >= 2, got 1\n"

    @pytest.mark.parametrize("command", ["params", "run", "study", "verify"])
    def test_one_by_one_quadratic_file_meets_the_dim_rule(self, command, tmp_path, capsys):
        # the library takes a 1x1 saddle; the command line's smallest size is --dim's, with its text
        path = tmp_path / "a.txt"
        save_matrix(path, np.array([[-1.0]]))
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--problem", "quadratic_saddle", "--matrix", str(path), "--chi", "4"]
        if command in ("run", "study"):
            argv += ["--out", str(out / "o")]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr() == ("", "error: dim must be an integer >= 2, got 1\n")
        assert not list(out.iterdir())

    @pytest.mark.parametrize("problem", ["pca", "quadratic_saddle"])
    @pytest.mark.parametrize("dim", ["0", "-3", "1"])
    def test_too_small_dimension_is_named_not_missing(self, problem, dim, capsys):
        # --dim 0 is a given dimension, so it meets the count rule rather than the missing-dimension one, with
        # the same text for both problems
        assert main(["params", "--problem", problem, "--dim", dim, "--chi", "4"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: dim must be an integer >= 2, got {dim}\n"

    @pytest.mark.parametrize("argv, message", [
        (["--problem", "pca"], "pca requires --matrix or --dim for the synthetic spectrum"),
        (["--problem", "quadratic_saddle"], "quadratic_saddle requires --matrix or --dim"),
        (["--problem", "quadratic_saddle", "--dim", "3", "--start", "file"], "--start file requires --start-file"),
    ], ids=["pca-no-size", "quadratic-no-size", "start-file-missing"])
    def test_missing_configuration_is_named(self, argv, message, capsys):
        assert main(["params", *argv, "--chi", "4"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("kind, text, where", [
        ("matrix", "2 3\n1 0\n0 1\n", ":1: expected a single dimension, got 2 tokens"),
        ("matrix", "# size\nx\n", ":2: dimension 'x' is not an integer"),
        ("matrix", "0\n", ":1: dimension must be an integer >= 1, got 0"),
        ("matrix", "1\n1\n2\n", ":3: extra data after 1 matrix rows"),
        ("matrix", "2\n1 0 0\n", ":2: expected 2 entries, got 3"),
        ("matrix", "2\n1 a\n", ":2: row contains a non-numeric entry"),
        ("matrix", "2\n1 0\n0 inf\n", ":3: row contains a non-finite entry"),
        ("matrix", "# no data\n\n", ": no matrix dimension found"),
        ("matrix", "2\n1 0\n", ": expected 2 rows, found 1"),
        ("start", "1 0\n0 x\n", ":2: non-numeric entry 'x'"),
        ("start", "# no data\n", ": no start coordinates found"),
    ], ids=["dimension-tokens", "dimension-text", "dimension-zero", "extra-row", "row-length", "row-text",
            "row-inf", "no-dimension", "missing-row", "start-text", "no-start"])
    def test_malformed_file_names_its_line(self, kind, text, where, tmp_path, capsys):
        path = tmp_path / "data.txt"
        path.write_text(text)
        if kind == "matrix":
            argv = ["--problem", "pca", "--matrix", str(path)]
        else:
            argv = ["--problem", "quadratic_saddle", "--dim", "4", "--start", "file", "--start-file", str(path)]
        assert main(["params", *argv, "--chi", "4"]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}{where}\n"

    @pytest.mark.parametrize("problem", ["pca", "quadratic_saddle"])
    def test_oversized_dimension_is_config_error(self, problem, monkeypatch, capsys):
        def no_matrix(*args, **kwargs):
            raise AssertionError("built a matrix")

        monkeypatch.setattr(np, "diag", no_matrix)
        monkeypatch.setattr(np.linalg, "qr", no_matrix)
        code = main(["params", "--problem", problem, "--dim", str(EIG_DIM_LIMIT + 1), "--chi", "4"])
        assert code == EXIT_CONFIG
        # one rule and one message for every matrix size, whichever problem asked for it
        assert capsys.readouterr().err == (f"error: matrix dimension {EIG_DIM_LIMIT + 1} exceeds the supported "
                                           f"limit {EIG_DIM_LIMIT}\n")

    @pytest.mark.parametrize("problem", ["pca", "quadratic_saddle"])
    def test_set_up_solves_one_eigenvalue_problem(self, problem, monkeypatch, capsys):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(m, *args, **kwargs):
            shapes.append(m.shape)
            return eigvalsh(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert main(["params", "--problem", problem, "--dim", "300", "--chi", "4"]) == EXIT_OK
        assert shapes == [(300, 300)]

    def test_theoretical_budget_is_printed_even_when_huge(self, capsys):
        code = main(["params", "--problem", "pca", "--dim", "4", "--mode", "theoretical",
                     "--eps", "0.01", "--ball", "1.0", "--start", "saddle"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget"] > 10**12


class TestOverrides:
    @pytest.mark.parametrize("flag, value, field, expected", [
        ("--ell", "6", "ell", 6.0),
        ("--rho", "20", "lip_hess", 20.0),
        ("--gap", "2.5", "gap", 2.5),
        ("--delta", "0.01", "horizon", None),
        ("--max-iters", "3", "final_t", 3),
        # None, not 0, is the unset budget
        ("--max-iters", "0", "final_t", 0),
    ])
    def test_override_sets_its_field(self, flag, value, field, expected, tmp_path, capsys):
        def read(extra):
            if flag == "--max-iters":
                out = tmp_path / f"r{len(extra)}"
                assert main(["study", "--problem", "pca", "--dim", "5", "--chi", "4", "--algorithm", "rgd",
                             "--start", "random", "--out", str(out)] + extra) == EXIT_OK
                return json.loads(out.with_suffix(".summary.json").read_text())["trial_records"][0][field]
            # the theoretical horizon is the one that depends on delta
            mode = ["--mode", "theoretical", "--ball", "1.0", "--eps", "0.01"] if flag == "--delta" else ["--chi", "4"]
            assert main(["params", "--problem", "pca", "--dim", "5"] + mode + extra) == EXIT_OK
            return json.loads(capsys.readouterr().out)[field]

        default, overridden = read([]), read([flag, value])
        assert overridden != default
        if expected is not None:
            assert overridden == expected


class TestStudy:
    def test_single_trial_record(self, tmp_path):
        code = main(["study", "--problem", "pca", "--dim", "6", "--mode", "practical", "--chi", "4",
                     "--eps", "1e-3", "--seed", "5", "--trials", "1", "--out", str(tmp_path / "s")])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "s.summary.json").read_text())
        assert summary["trials"] == 1
        assert len(summary["trial_records"]) == 1
        assert "alignment" in summary["trial_records"][0]

    def test_rgd_baseline_never_escapes_from_exact_saddle(self, tmp_path):
        code = main(["study", "--problem", "pca", "--dim", "6", "--mode", "practical", "--chi", "4",
                     "--eps", "1e-3", "--seed", "5", "--trials", "5", "--algorithm", "rgd",
                     "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "r.summary.json").read_text())
        assert summary["escape_rate"] == 0.0

    def test_trials_must_be_positive(self, tmp_path, capsys):
        code = main(["study", "--problem", "pca", "--dim", "6", "--chi", "4",
                     "--trials", "0", "--out", str(tmp_path / "t")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: trials must be an integer >= 1, got 0\n"
        assert not list(tmp_path.iterdir())


class TestVerify:
    @pytest.mark.parametrize("command", ["params", "verify"])
    def test_terminate_is_not_an_option(self, command, capsys):
        # only run and study stop on a failed decrease; the other subcommands reject the flag
        with pytest.raises(SystemExit) as exc:
            main([command, "--problem", "pca", "--dim", "8", "--no-terminate"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --no-terminate" in capsys.readouterr().err

    def test_battery_passes_on_pca(self, capsys):
        code = main(["verify", "--problem", "pca", "--dim", "8", "--samples", "100", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_battery_passes_on_quadratic(self, capsys):
        code = main(["verify", "--problem", "quadratic_saddle", "--dim", "3",
                     "--samples", "100", "--seed", "2"])
        assert code == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_battery_passes_on_a_quadratic_whose_norm_is_not_one(self, tmp_path, capsys):
        # ||H|| = 2.2: the coupling check's epsilon and the Hessian bound scale with ell^2 / rho and ||H||
        path = tmp_path / "saddle.txt"
        path.write_text("3\n-1 0 0\n0 1 0.5\n0 0.5 2\n")
        assert main(["verify", "--problem", "quadratic_saddle", "--matrix", str(path), "--samples", "100"]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("problem, names", [
        ("pca", ["retraction_second_order", "gradient_lipschitz_bound", "hessian_lipschitz_bound",
                 "criticality_at_dominant", "criticality_at_saddle", "trace_audit", "coupling_escape"]),
        ("quadratic_saddle", ["retraction_second_order", "gradient_lipschitz_bound", "hessian_lipschitz_bound",
                              "criticality_at_saddle", "trace_audit", "coupling_escape"]),
    ])
    def test_one_printed_line_per_check(self, problem, names, capsys):
        argv = ["verify", "--problem", problem, "--dim", "12"]
        setup = cli._setup(build_parser().parse_args(argv))
        checks = verification_checks(setup.problem, setup.saddle, setup.v_max, setup.params, 0, 2000)
        assert [name for name, _, _ in checks] == names
        assert all(ok for _, ok, _ in checks)
        assert main(argv) == EXIT_OK
        lines = [f"PASS {name}: {detail}" for name, _, detail in checks]
        assert capsys.readouterr().out.splitlines() == lines + [f"{len(names)}/{len(names)} checks passed"]


class TestParser:
    CALLS = [
        ["study", "--problem", "pca", "--dim", "8", "--seed", "5", "--eps", "0.01", "--no-terminate",
         "--trials", "3", "--algorithm", "rgd", "--ball", "2", "--out", "a"],
        ["run", "--problem", "quadratic_saddle", "--dim", "3", "--chi", "6", "--out", "b"],
        ["verify", "--problem", "pca", "--dim", "8", "--samples", "10"],
        ["params", "--problem", "pca", "--dim", "8"],
        ["study", "--problem", "pca", "--dim", "8", "--out", "c"],
    ]

    def test_consecutive_calls_see_no_value_from_the_call_before(self, monkeypatch, capsys):
        # the parser is built once per process; each call's namespace is what a new parser gives
        seen = []
        for handler in ("run_single", "run_escape_study", "derive_params_cmd", "verify_cmd"):
            monkeypatch.setattr(cli, handler, lambda args: seen.append(vars(args)) or EXIT_OK)
        assert build_parser() is build_parser()
        for argv in self.CALLS:
            assert main(argv) == EXIT_OK
        for argv, got in zip(self.CALLS, seen):
            assert got == vars(build_parser.__wrapped__().parse_args(argv))
        study, run, verify, params, study_again = seen
        # --terminate is None when not given; `run_single` and `run_escape_study` resolve it
        assert run["terminate"] is None and run["seed"] == 0 and "trials" not in run
        assert verify["chi"] is None and params["chi"] is None and "samples" not in params
        assert study_again["terminate"] is None and study_again["algorithm"] == "prgd"
        assert (study_again["trials"], study_again["eps"], study_again["ball"]) == (1, 1e-3, math.inf)

    def test_bad_input_still_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "derive_params_cmd", lambda args: EXIT_OK)
        for argv in (["study", "--problem", "pca", "--dim", "8"], ["params", "--problem", "nope"],
                     ["verify", "--problem", "pca", "--no-terminate"], ["params", "--problem", "pca", "--dim", "x"]):
            assert main(self.CALLS[3]) == EXIT_OK
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == EXIT_CONFIG
            assert "error:" in capsys.readouterr().err
        assert main(self.CALLS[3]) == EXIT_OK
