"""Command-line interface: subcommands, output, exit codes."""

import argparse
import inspect

import numpy as np
import pytest

from spcarec import cli, harness
from spcarec.cli import build_parser, main
from spcarec.errors import Disconnected
from spcarec.graph import random_graph
from spcarec.harness import (
    _METHODS,
    PITPROPS_SUPPORT_NAMES,
    PITPROPS_VARIABLES,
    gen_instance,
    load_matrix_csv,
    parse_rows_csv,
    write_matrix_csv,
)
from spcarec.sdp import DEFAULT_MAX_ITER, DEFAULT_TOL
from spcarec.spca import DEFAULT_RHO_GRID


@pytest.fixture
def instance_files(tmp_path):
    out = tmp_path / "matrix.csv"
    truth = tmp_path / "mstar.csv"
    mask = tmp_path / "mask.csv"
    code = main(
        [
            "gen", "--d", "8", "--s", "2", "--gap", "6", "--sigma", "0",
            "--budget", "56", "--seed", "3", "--out", str(out),
            "--truth-out", str(truth), "--mask-out", str(mask),
        ]
    )
    assert code == 0
    return out, truth, mask


class TestGen:
    def test_writes_loadable_instance(self, instance_files):
        out, truth, mask = instance_files
        m, g = load_matrix_csv(out)
        assert m.dim == 8
        m2, g2 = load_matrix_csv(truth, mask)
        assert g2 == g

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
    def test_bad_sigma_exit_code(self, tmp_path, capsys, sigma):
        out = tmp_path / "m.csv"
        code = main(
            [
                "gen", "--d", "8", "--s", "2", "--gap", "6", "--sigma", sigma,
                "--budget", "56", "--out", str(out),
            ]
        )
        assert code == 2
        assert "sigma must be a nonnegative finite real" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_solve_prints_support(self, instance_files, capsys):
        out, _, _ = instance_files
        code = main(["solve", "--in", str(out), "--rho", "0.2"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "support:" in captured
        assert "converged: True" in captured
        assert "gap: " in captured

    def test_defaults_are_the_solver_defaults(self):
        args = build_parser().parse_args(["solve", "--in", "m.csv", "--rho", "0.1"])
        assert args.tol == DEFAULT_TOL
        assert args.max_iter == DEFAULT_MAX_ITER

    def test_strict_nonconverged_exit_code(self, instance_files):
        out, _, _ = instance_files
        code = main(
            ["solve", "--in", str(out), "--rho", "0.2", "--max-iter", "2", "--strict"]
        )
        assert code == 3

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_bad_tol_exit_code(self, instance_files, capsys, tol):
        out, _, _ = instance_files
        code = main(["solve", "--in", str(out), "--rho", "0.2", "--tol", tol, "--strict"])
        assert code == 2
        captured = capsys.readouterr()
        assert "tol must be a positive finite real" in captured.err
        assert captured.out == ""

    def test_missing_file_exit_code(self, tmp_path):
        code = main(["solve", "--in", str(tmp_path / "nope.csv"), "--rho", "0.1"])
        assert code == 2

    def test_bad_file_exit_code(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3\n")
        assert main(["solve", "--in", str(p), "--rho", "0.1"]) == 2


class TestTune:
    def test_prints_trace(self, instance_files, capsys):
        out, _, _ = instance_files
        code = main(
            [
                "tune", "--in", str(out), "--grid-start", "0.1",
                "--grid-stop", "0.5", "--grid-step", "0.2", "--a", "0.5",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "chosen_rho:" in captured
        assert "rho,criterion,support" in captured

    @pytest.mark.parametrize(
        "start, stop, step",
        [("0.1", "inf", "0.2"), ("0.1", "0.5", "nan")],
    )
    def test_non_finite_grid_exit_code(self, instance_files, capsys, start, stop, step):
        out, _, _ = instance_files
        code = main(
            [
                "tune", "--in", str(out), "--grid-start", start,
                "--grid-stop", stop, "--grid-step", step,
            ]
        )
        assert code == 2
        assert "grid start, stop and step must be finite" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "start, stop, step", [("0", "1e308", "1e-308"), ("0", "1e9", "1e-9")]
    )
    def test_grid_too_large_exit_code(self, instance_files, capsys, start, stop, step):
        # used to raise OverflowError and to try building 10**18 points
        out, _, _ = instance_files
        code = main(
            [
                "tune", "--in", str(out), "--grid-start", start,
                "--grid-stop", stop, "--grid-step", step,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: grid would have more than 1000000 points\n"
        assert captured.out == ""


class TestCertify:
    def test_report_printed(self, tmp_path, capsys):
        # fully observed instance: the condition report is always evaluable
        out = tmp_path / "m.csv"
        truth = tmp_path / "t.csv"
        mask = tmp_path / "k.csv"
        assert (
            main(
                [
                    "gen", "--d", "8", "--s", "2", "--gap", "6", "--sigma", "0",
                    "--budget", "64", "--seed", "3", "--out", str(out),
                    "--truth-out", str(truth), "--mask-out", str(mask),
                ]
            )
            == 0
        )
        from spcarec.harness import gen_instance
        from spcarec.graph import random_graph

        g = random_graph(8, 64, 3)
        inst = gen_instance(8, 2, 6.0, 0.0, g, 3)
        support = ",".join(str(i) for i in sorted(inst.support))
        capsys.readouterr()
        code = main(
            [
                "certify", "--truth", str(truth), "--in", str(out),
                "--mask", str(mask), "--rho", "0.3", "--support", support,
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "certified:" in captured
        assert "rescaled=" in captured

    def test_disconnected_block_reported(self, instance_files, capsys):
        out, truth, mask = instance_files
        from spcarec.harness import gen_instance
        from spcarec.graph import random_graph

        g = random_graph(8, 56, 3)
        inst = gen_instance(8, 2, 6.0, 0.0, g, 3)
        support = ",".join(str(i) for i in sorted(inst.support))
        capsys.readouterr()
        code = main(
            [
                "certify", "--truth", str(truth), "--in", str(out),
                "--mask", str(mask), "--rho", "0.3", "--support", support,
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "certified:" in captured
        # this particular draw leaves the support block unobserved
        assert "unavailable" in captured or "rescaled=" in captured


    @pytest.mark.parametrize("rho, sigma", [("0.5", "-1"), ("inf", "0")])
    def test_bad_rho_or_sigma_exit_code(self, instance_files, capsys, rho, sigma):
        out, truth, mask = instance_files
        from spcarec.harness import gen_instance
        from spcarec.graph import random_graph

        inst = gen_instance(8, 2, 6.0, 0.0, random_graph(8, 56, 3), 3)
        support = ",".join(str(i) for i in sorted(inst.support))
        capsys.readouterr()
        code = main(
            [
                "certify", "--truth", str(truth), "--in", str(out), "--mask",
                str(mask), "--rho", rho, "--sigma", sigma, "--support", support,
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "must be a nonnegative finite real" in captured.err
        # the arguments are checked before any of the report is printed
        assert captured.out == ""


class TestExperiment:
    def test_synthetic_writes_rows(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "experiment", "--mode", "synthetic", "--d", "12", "--s", "4",
                "--gap", "8", "--sigma", "0", "--budget", "100",
                "--buckets", "0:2,2:5", "--reps", "2",
                "--grid-start", "0.1", "--grid-stop", "0.4", "--grid-step", "0.15",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        rows = parse_rows_csv(out)
        assert len(rows) == 2

    def test_budget_above_n_squared_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        argv = [
            "experiment", "--mode", "synthetic", "--d", "6", "--s", "2",
            "--gap", "8", "--budget", "1000000", "--buckets", "0:2", "--reps", "1",
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert "budget must be in [0, n^2]" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_gap_exit_code_with_unreachable_bucket(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        argv = [
            "experiment", "--mode", "synthetic", "--d", "6", "--s", "2",
            "--gap", "-1", "--budget", "20", "--buckets=-5:0", "--reps", "1",
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert "spectral gap must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_bucket_exit_code_before_any_draw(
        self, tmp_path, capsys, monkeypatch
    ):
        # used to exit 2 only after the two good buckets ran 100 reps each
        calls = []
        monkeypatch.setattr(
            harness, "random_graph_bucketed", lambda *args: calls.append(args)
        )
        out = tmp_path / "e.csv"
        argv = [
            "experiment", "--mode", "synthetic", "--d", "20", "--s", "4",
            "--gap", "8", "--budget", "200", "--buckets", "0:2,0:2,3:1",
            "--reps", "100", "--out", str(out),
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: need ratio_lo < ratio_hi\n"
        assert captured.out == ""
        assert not out.exists()
        assert calls == []

    def test_bad_bucket_syntax(self, tmp_path):
        code = main(
            [
                "experiment", "--mode", "synthetic", "--buckets", "oops",
                "--out", str(tmp_path / "r.csv"),
            ]
        )
        assert code == 2

    def test_workers_accepts_only_one(self, tmp_path):
        argv = [
            "experiment", "--mode", "synthetic", "--d", "12", "--s", "4",
            "--gap", "8", "--budget", "100", "--buckets", "0:2", "--reps", "1",
            "--grid-start", "0.1", "--grid-stop", "0.4", "--grid-step", "0.15",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(argv + ["--workers", "1"]) == 0
        assert len(parse_rows_csv(tmp_path / "r.csv")) == 1
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--workers", "2"])
        assert exc.value.code == 2

    def test_synthetic_rejects_other_methods(self, tmp_path, capsys):
        argv = [
            "experiment", "--mode", "synthetic", "--d", "12", "--s", "4",
            "--gap", "8", "--budget", "100", "--buckets", "0:2", "--reps", "1",
            "--out", str(tmp_path / "r.csv"),
        ]
        for method in ("dtspca", "itspca", "mc_sdp"):
            assert main(argv + ["--method", method]) == 2
            assert "synthetic mode runs sdp" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_default_grid_is_the_library_grid(self, tmp_path, monkeypatch):
        grids = []
        real = harness.tune_rho

        def spy(m, grid, *args, **kwargs):
            grids.append(grid)
            return real(m, grid, *args, **kwargs)

        monkeypatch.setattr(harness, "tune_rho", spy)
        argv = [
            "experiment", "--mode", "synthetic", "--d", "12", "--s", "4",
            "--gap", "8", "--budget", "100", "--buckets", "0:2", "--reps", "1",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(argv) == 0
        assert grids == [DEFAULT_RHO_GRID]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--grid-start", "0.1"],
            ["--grid-stop", "0.4", "--grid-step", "0.15"],
            ["--grid-start", "0.1", "--grid-step", "0.15"],
        ],
    )
    def test_partial_grid_flags_exit_code(self, tmp_path, capsys, flags):
        out = tmp_path / "r.csv"
        argv = [
            "experiment", "--mode", "synthetic", "--d", "12", "--s", "4",
            "--gap", "8", "--budget", "100", "--buckets", "0:2", "--reps", "1",
            "--out", str(out),
        ]
        assert main(argv + flags) == 2
        assert "--grid-step together" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "start, stop, step",
        [("0.1", "inf", "0.2"), ("0.1", "0.5", "nan")],
    )
    def test_non_finite_grid_exit_code(self, tmp_path, capsys, start, stop, step):
        out = tmp_path / "r.csv"
        argv = [
            "experiment", "--mode", "synthetic", "--buckets", "0:2",
            "--grid-start", start, "--grid-stop", stop, "--grid-step", step,
            "--out", str(out),
        ]
        assert main(argv) == 2
        assert "grid start, stop and step must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "start, stop, step", [("0", "1e308", "1e-308"), ("0", "1e9", "1e-9")]
    )
    def test_grid_too_large_exit_code(self, tmp_path, capsys, start, stop, step):
        out = tmp_path / "r.csv"
        argv = [
            "experiment", "--mode", "synthetic", "--buckets", "0:2",
            "--grid-start", start, "--grid-stop", stop, "--grid-step", step,
            "--out", str(out),
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: grid would have more than 1000000 points\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["synthetic", "pitprops"])
    def test_forwards_only_given_flags(self, tmp_path, monkeypatch, mode):
        seen = {}

        def fake(*args, **kwargs):
            seen.update(kwargs)
            return []

        runner = "run_bucket_experiment" if mode == "synthetic" else "pitprops_experiment"
        monkeypatch.setattr(cli, runner, fake)
        argv = [
            "experiment", "--mode", mode, "--matrix", "p.csv", "--buckets", "0:2",
            "--out", str(tmp_path / "r.csv"),
        ]
        assert main(argv) == 0
        assert not seen.keys() & {"reps", "rho_grid", "a", "sigma"}
        given = [
            "--reps", "3", "--a", "0.3", "--sigma", "0.2",
            "--grid-start", "0.1", "--grid-stop", "0.4", "--grid-step", "0.15",
        ]
        assert main(argv + given) == 0
        if mode == "pitprops":
            # synthetic mode passes sigma positionally
            assert seen.pop("sigma") == 0.2
        assert {k: seen[k] for k in ("reps", "rho_grid", "a")} == {
            "reps": 3, "rho_grid": (0.1, 0.25, 0.4), "a": 0.3,
        }
        # and back: main reuses one parser, which must not remember the flags
        seen.clear()
        assert main(argv) == 0
        assert not seen.keys() & {"reps", "rho_grid", "a", "sigma"}

    def test_unset_a_is_the_library_default(self, tmp_path):
        # on this case a = 0.4, 0.5 and 0.6 give rates 1, 0.75 and 0.5
        argv = [
            "experiment", "--mode", "synthetic", "--d", "12", "--s", "4",
            "--gap", "4", "--sigma", "0.3", "--budget", "100", "--buckets", "0:2",
            "--reps", "4", "--seed", "1",
            "--grid-start", "0.05", "--grid-stop", "1.0", "--grid-step", "0.05",
        ]
        out = {}
        for a in (None, "0.4", "0.5"):
            path = tmp_path / f"{a}.csv"
            assert main(argv + (["--a", a] if a else []) + ["--out", str(path)]) == 0
            out[a] = path.read_bytes()
        assert out[None] == out["0.5"]
        assert out[None] != out["0.4"]

    def test_unset_pitprops_sigma_and_a_are_the_library_defaults(self, tmp_path):
        support = [PITPROPS_VARIABLES.index(v) for v in PITPROPS_SUPPORT_NAMES]
        full = random_graph(13, 169, 0)
        inst = gen_instance(13, 6, 2.0, 0.0, full, 4, support=support)
        matrix = tmp_path / "pitprops.csv"
        write_matrix_csv(matrix, inst.m_star, names=PITPROPS_VARIABLES)
        argv = [
            "experiment", "--mode", "pitprops", "--matrix", str(matrix),
            "--budget", "120", "--buckets", "0:5", "--reps", "2",
            "--grid-start", "0.1", "--grid-stop", "0.3", "--grid-step", "0.2",
        ]
        assert main(argv + ["--out", str(tmp_path / "unset.csv")]) == 0
        given = ["--sigma", "0.1", "--a", "0.4", "--out", str(tmp_path / "given.csv")]
        assert main(argv + given) == 0
        unset = (tmp_path / "unset.csv").read_bytes()
        assert unset == (tmp_path / "given.csv").read_bytes()
        assert unset.splitlines()[1].split(b",")[3] == b"0.1"

    def test_method_choices_are_the_method_table(self):
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        method = next(
            a for a in sub.choices["experiment"]._actions if a.dest == "method"
        )
        assert list(method.choices) == list(_METHODS)
        assert method.default in _METHODS


class TestParserReuse:
    """main parses with one parser per process; no call may leak into the next."""

    def test_build_parser_stays_a_plain_function(self):
        # the benchmark's tracer wraps build_parser only while this holds
        assert inspect.isfunction(cli.build_parser)
        assert build_parser() is not build_parser()

    def test_parse_error_leaves_the_parser_clean(self, tmp_path, capsys):
        cli._parser.cache_clear()
        argv = [
            "experiment", "--mode", "synthetic", "--d", "12", "--s", "4",
            "--gap", "8", "--budget", "100", "--buckets", "0:2", "--reps", "2",
            "--grid-start", "0.1", "--grid-stop", "0.4", "--grid-step", "0.15",
            "--seed", "5",
        ]
        assert main(argv + ["--out", str(tmp_path / "first.csv")]) == 0
        no_buckets = ["experiment", "--mode", "synthetic"]
        bad_d = argv + ["--d", "twelve"]
        for bad in (no_buckets, bad_d):
            with pytest.raises(SystemExit) as exc:
                main(bad + ["--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2
        assert not (tmp_path / "x.csv").exists()
        assert main(argv + ["--out", str(tmp_path / "again.csv")]) == 0
        first = (tmp_path / "first.csv").read_bytes()
        assert (tmp_path / "again.csv").read_bytes() == first

    @pytest.mark.parametrize("command", [[], ["experiment"]], ids=["top", "experiment"])
    def test_help_is_the_same_on_every_call(self, capsys, command):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(command + ["--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert texts[0].startswith("usage: spcarec")


class TestBounds:
    def test_thm3(self, capsys):
        code = main(["bounds", "--check", "thm3", "--n", "6", "--cases", "20"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "all_hold=True" in captured

    def test_thm2(self, capsys):
        code = main(
            [
                "bounds", "--check", "thm2", "--m", "4", "--n", "4",
                "--sigma", "1.0", "--t", "4", "--trials", "1000", "--seed", "2",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        # pins the trial stream of seed 2: at t = 4 some but not all of the
        # 1000 trials exceed t
        assert captured == (
            "t=4  bound=2.16536  empirical=0.093  trials=1000  holds=True\n"
        )

    @pytest.mark.parametrize("sigma", ["1e-170", "1e170"])
    def test_thm2_extreme_sigma(self, capsys, sigma):
        # sigma^2 underflows to 0 (a ZeroDivisionError) and overflows to inf
        # (bound=nan, holds=False) in the bound's exponent unless t / sigma
        # is squared instead
        code = main(["bounds", "--check", "thm2", "--sigma", sigma, "--trials", "1000"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "  bound=0.2  " in captured
        assert captured.endswith("  holds=True\n")

    @pytest.mark.parametrize("density", ["nan", "-0.5", "1.5", "inf"])
    def test_thm2_density_not_a_probability_exit_code(self, capsys, density):
        code = main(["bounds", "--check", "thm2", "--density", density, "--trials", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: density must be in [0, 1]" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "dims, flag",
        [(["--m", "0", "--n", "0"], "--m"), (["--m", "-1"], "--m"), (["--n", "0"], "--n")],
    )
    def test_thm2_dimension_below_one_exit_code(self, capsys, dims, flag):
        # --m 0 --n 0 used to fail in math.log with "math domain error", and
        # --m -1 with numpy's negative-dimensions message
        code = main(["bounds", "--check", "thm2", *dims, "--trials", "10"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be at least 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("cases", ["0", "-2"])
    def test_thm3_cases_below_one_exit_code(self, capsys, cases):
        # used to print "no valid cases sampled" to stdout
        code = main(["bounds", "--check", "thm3", "--cases", cases])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --cases must be at least 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("n", ["1", "0", "-1"])
    def test_thm3_n_below_two_exit_code(self, capsys, n):
        # used to exit with "algebraic connectivity needs at least 2 nodes",
        # "node count must be positive" and numpy's negative-dimensions
        # message, none of which names the flag
        code = main(["bounds", "--check", "thm3", "--n", n, "--cases", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --n must be at least 2\n"
        assert captured.out == ""

    def test_thm3_no_valid_case_exit_code(self, capsys, monkeypatch):
        def disconnected(*args):
            raise Disconnected("always")

        monkeypatch.setattr(cli, "masking_difference_check", disconnected)
        code = main(["bounds", "--check", "thm3", "--cases", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: no valid cases sampled in 200 attempts\n"
        assert captured.out == ""


    def test_thm3_all_hold_reads_every_case(self, capsys, monkeypatch):
        # the tightest case holds within its slack, relative to rhs = 10;
        # the other, with a larger margin, fails against rhs = 1
        cases = iter([(10.0 + 5e-8, 10.0, True), (1.0 + 3e-8, 1.0, False)])
        monkeypatch.setattr(cli, "masking_difference_check", lambda *args: next(cases))
        code = main(["bounds", "--check", "thm3", "--cases", "2"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "tightest margin=-5e-08 (lhs=10, rhs=10)" in captured
        assert captured.endswith("all_hold=False\n")


class TestSeedFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gen", "--d", "4", "--s", "2", "--gap", "1", "--budget", "4",
              "--seed", "-1"], "--seed"),
            (["experiment", "--mode", "synthetic", "--d", "6", "--s", "2",
              "--budget", "20", "--buckets", "0:2", "--reps", "1", "--seed", "-1"],
             "--seed"),
            (["bounds", "--check", "thm2", "--trials", "1000", "--seed", "-1"],
             "--seed"),
            (["bounds", "--check", "thm3", "--cases", "2", "--seed", "-1"], "--seed"),
            (["bounds", "--check", "thm2", "--trials", "1000", "--pattern-seed",
              "-3"], "--pattern-seed"),
        ],
        ids=["gen", "experiment", "thm2", "thm3", "thm2-pattern"],
    )
    def test_negative_seed_exit_code(self, tmp_path, capsys, argv, flag):
        # used to exit with numpy's "expected non-negative integer", which
        # names no flag
        out = tmp_path / "out.csv"
        if argv[0] != "bounds":
            argv = [*argv, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be nonnegative\n"
        assert captured.out == ""
        assert not out.exists()
