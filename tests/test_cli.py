import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pndislo import cli, regions, symbols
from pndislo.moduli import from_isotropic, derive_perp

README = Path(__file__).resolve().parents[1] / "README.md"
ISO5 = ["--c11", "3", "--c13", "1", "--c33", "3", "--c44", "1",
        "--c66", "1"]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(capsys):
    code, out, _ = run(["validate"] + ISO5, capsys)
    rep = json.loads(out)
    assert code == 0
    assert rep["elliptic"] is True
    assert rep["special"] is True


def test_validate_failure_exit_code(capsys):
    code, out, _ = run(["validate", "--c11", "3", "--c13", "5", "--c33",
                        "3", "--c44", "1", "--c66", "1"], capsys)
    assert code == 1
    assert json.loads(out)["elliptic"] is False


def test_symbol_matches_library(capsys):
    code, out, _ = run(["symbol", "--case", "II", "--mu", "1", "--nu",
                        "0.25", "--delta", "1", "--k1", "1", "--k2", "2"],
                       capsys)
    assert code == 0
    rep = json.loads(out)
    dp = derive_perp(from_isotropic(1.0, 0.25))
    assert rep["m"] == pytest.approx(
        float(symbols.symbol_case2(dp, 1.0, 2.0)), rel=1e-15)
    assert rep["dtn"]["det"] == pytest.approx(
        rep["dtn"]["a11"] * rep["dtn"]["a22"]
        - rep["dtn"]["a12"] * rep["dtn"]["a21"], rel=1e-12)


def test_symbol_rejects_zero_frequency(capsys):
    code, _, err = run(["symbol", "--case", "I", "--nu", "0.25",
                        "--k1", "0", "--k2", "0"], capsys)
    assert code == 3
    assert "error" in json.loads(err)


def test_region_csv_deterministic(tmp_path, capsys):
    args = ["region", "--case", "I", "--nu-range=-0.4:0.45:5",
            "--delta-range", "0.5:3.5:5", "--n-theta", "64"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, out1, _ = run(args + ["--out", str(p1)], capsys)
    code2, out2, _ = run(args + ["--out", str(p2)], capsys)
    assert code1 == code2 == 0
    rep = json.loads(out1)
    assert rep["cells"] == 25
    assert 0 < rep["members"] < 25
    lines = p1.read_text().splitlines()
    assert lines[0] == "axis1,axis2,member,boundary,kmin"
    assert len(lines) == 26
    assert p1.read_bytes() == p2.read_bytes()


def test_kernel_profile_csv(tmp_path, capsys):
    out_path = tmp_path / "k.csv"
    code, out, _ = run(["kernel", "--case", "II", "--mu", "1", "--nu",
                        "0.25", "--delta", "1", "--n-theta", "64",
                        "--out", str(out_path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["positive"] is True
    assert rep["min"] == pytest.approx(8.0 / 9.0, rel=1e-10)
    lines = out_path.read_text().splitlines()
    assert lines[0] == "theta,K"
    assert len(lines) == 65
    theta0, k0 = (float(v) for v in lines[1].split(","))
    assert k0 > 0.0


def test_solve_quick(tmp_path, capsys):
    out_path = tmp_path / "p.csv"
    code, out, _ = run(["solve", "--case", "II", "--nu", "0.25",
                        "--X", "50", "--N", "1024", "--out",
                        str(out_path)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["residual"] <= 1e-10
    assert rep["in_region"] is True
    assert rep["stats"]["lobpcg_converged"] is True
    assert set(rep["stats"]) == {"flow_steps", "newton_steps",
                                 "newton_inner_iterations",
                                 "newton_damping", "far_field_gap",
                                 "lobpcg_iterations", "lobpcg_residual",
                                 "lobpcg_converged", "lobpcg_s", "stage_s"}
    assert set(rep["stats"]["stage_s"]) == {"flow", "newton"}
    assert all(t >= 0.0 for t in rep["stats"]["stage_s"].values())
    assert rep["stats"]["stage_s"]["newton"] > 0.0
    assert rep["stats"]["lobpcg_s"] > 0.0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "x,psi"
    assert len(lines) == 1025


def test_solve_quartic_gradient_flow(capsys):
    code, out, _ = run(["solve", "--case", "II", "--nu", "0.25",
                        "--X", "50", "--N", "1024", "--method",
                        "gradient-flow", "--potential", "quartic"],
                       capsys)
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-8


def test_solve_scale_only_with_quartic(capsys):
    base = ["solve", "--case", "II", "--nu", "0.25", "--X", "50", "--N",
            "1024"]
    code, _, err = run(base + ["--scale", "7"], capsys)
    assert code == cli.EXIT_BAD_INPUT
    assert "--scale" in json.loads(err)["error"]
    # the quartic potential takes scale 1 unless --scale is given
    reps = []
    for extra in ([], ["--scale", "1"], ["--scale", "2"]):
        code, out, _ = run(base + ["--potential", "quartic"] + extra, capsys)
        assert code == 0
        reps.append(json.loads(out))
        # wall times differ from run to run
        del reps[-1]["stats"]["lobpcg_s"], reps[-1]["stats"]["stage_s"]
    assert reps[0] == reps[1]
    assert reps[2]["eigenvalues"] != reps[0]["eigenvalues"]


def test_solve_exits_2_when_spectrum_does_not_converge(monkeypatch, capsys):
    # a cap of 20 iterations stops LOBPCG short on the case of
    # test_stability_converges_at_spectrum_edge, which takes 42
    from pndislo import solver
    monkeypatch.setattr(solver, "LOBPCG_MAXITER", 20)
    code, out, _ = run(["solve", "--case", "II", "--nu", "0.25", "--delta",
                        "2", "--X", "200", "--N", "4096"], capsys)
    assert code == cli.EXIT_NO_CONVERGENCE
    rep = json.loads(out)
    assert rep["stats"]["lobpcg_converged"] is False
    assert rep["residual"] <= 1e-10


@pytest.mark.parametrize("n_eig", ["0", "-2"])
def test_solve_rejects_n_eig_below_one_before_solving(monkeypatch, capsys,
                                                      n_eig):
    from pndislo import solver

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_profile called")

    monkeypatch.setattr(solver, "solve_profile", no_solve)
    code, out, err = run(["solve", "--case", "II", "--nu", "0.25",
                          "--n-eig", n_eig], capsys)
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert "--n-eig" in json.loads(err)["error"]


@pytest.mark.parametrize("size, msg", [(["--X", "-5"], "X = -5"),
                                       (["--N", "0"], "--n-eig"),
                                       (["--N", "3"], "--n-eig"),
                                       (["--N", "16"], "--n-eig")])
def test_solve_rejects_grid_sizes_before_solving(monkeypatch, capsys, size,
                                                 msg):
    # N < 4 leaves no room for one eigenvalue, and --N 16 admits at most 4,
    # fewer than the default 6
    from pndislo import solver

    def no_step(*args):
        raise AssertionError("solver ran")

    monkeypatch.setattr(solver, "_multiply", no_step)
    code, out, err = run(["solve", "--case", "II", "--nu", "0.25"] + size,
                         capsys)
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert msg in json.loads(err)["error"]


def test_extend_quick(capsys):
    code, out, _ = run(["extend", "--orientation", "perp", "--nu",
                        "0.25", "--n", "8", "--n2", "20"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["interior_residual"] <= 1e-4
    assert rep["decay_rate"] > 0.0


def test_extend_rejects_nyquist_mode(capsys):
    code, _, err = run(["extend", "--orientation", "perp", "--nu", "0.25",
                        "--delta", "1.5", "--n", "8", "--m1", "4"], capsys)
    assert code == cli.EXIT_BAD_INPUT
    assert "Nyquist" in json.loads(err)["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, msg", [
    (["extend", "--orientation", "perp", "--amplitude", "0"], "--amplitude"),
    (["extend", "--orientation", "perp", "--amplitude", "nan"],
     "--amplitude"),
    (["extend", "--orientation", "perp", "--x2-max", "0"], "--x2-max"),
    (["extend", "--orientation", "perp", "--x2-max", "-1"], "--x2-max"),
    (["extend", "--orientation", "perp", "--x2-max", "inf"], "--x2-max"),
    (["symbol", "--case", "I", "--delta", "2", "--k1", "nan", "--k2", "1"],
     "finite"),
    (["symbol", "--case", "II", "--k1", "1", "--k2", "inf"], "finite"),
    (["extend", "--orientation", "perp", "--n2", "0"], "--n2"),
    (["extend", "--orientation", "perp", "--n2", "16"], "--n2"),
    (["extend", "--orientation", "perp", "--L", "0"], "--L"),
    (["extend", "--orientation", "perp", "--L", "inf"], "--L"),
    *(pytest.param(["solve", "--case", "II", "--potential", "quartic",
                    "--scale", v, "--X", "50", "--N", "1024"],
                   f"scale = {v} is not finite", id=f"scale-{v}")
      for v in ("nan", "inf")),
    *(pytest.param(["extend", "--orientation", "perp", "--n", n],
                   f"sample counts ({n}, {n}) must be powers of two >= 8",
                   id=f"n-{n}") for n in ("0", "-4", "2", "12")),
    pytest.param(["symbol", "--case", "II", "--k1", "1.7e308", "--k2", "0"],
                 "k is too large: the symbol overflows", id="k-overflow")])
def test_degenerate_inputs_rejected_before_computing(capsys, argv, msg):
    # a zero amplitude has no log for the decay-rate fit, a zero x2-max no
    # normal step, a non-finite k no symbol: each printed NaN or warned;
    # --n2 0 divided by zero, --n2 16 left interior_residual one lower
    # sample short after the whole extension, --L 0 or inf warned; --n 0
    # divided by zero and --n -4 failed in numpy before the count check;
    # a k near the float maximum overflows even after rescaling; a NaN or
    # infinite --scale ran the whole flow budget and printed NaN
    code, out, err = run(argv + ["--nu", "0.25"], capsys)
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert msg in json.loads(err)["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case, k1, k2, scale", [
    ("II", "1e200", "1", 1e200), ("I", "1e-200", "1e-200", 1e-200)])
def test_symbol_at_huge_and_tiny_frequency(capsys, case, k1, k2, scale):
    # m and dtn are 1-homogeneous, so they equal scale times the library at
    # k / scale, where squaring k neither overflows nor underflows
    code, out, _ = run(["symbol", "--case", case, "--nu", "0.25", "--k1", k1,
                        "--k2", k2], capsys)
    assert code == 0
    rep = json.loads(out)
    c = regions.case(case)
    params = c.derive(from_isotropic(1.0, 0.25))
    kk = (float(k1) / scale, float(k2) / scale)
    assert rep["m"] == pytest.approx(scale * float(c.symbol(params, *kk)),
                                     rel=1e-14)
    got = np.array([[rep["dtn"]["a11"], rep["dtn"]["a12"]],
                    [rep["dtn"]["a21"], rep["dtn"]["a22"]]])
    assert got == pytest.approx(scale * c.dtn(params, *kk), rel=1e-14)
    # det is 2-homogeneous: about 5e400 at |k| = 1e200, beyond the float
    # range, so null; about 1e-400 at |k| = 1e-200, which rounds to 0
    assert rep["dtn"]["det"] == (None if scale > 1.0 else 0.0)


def test_symbol_readme_command_keeps_its_digits(capsys):
    # the power-of-two rescaling is exact: the README command prints the
    # library's values at k itself, digit for digit
    argv = next(a for a in _readme_cli_commands() if a[0] == "symbol")
    code, out, _ = run(argv, capsys)
    assert code == 0
    c = regions.case("II")
    params = c.derive(from_isotropic(1.0, 0.25))
    (a11, a12), (a21, a22) = c.dtn(params, 1.0, 2.0).tolist()
    assert out == json.dumps({
        "case": "II", "k1": 1.0, "k2": 2.0,
        "m": float(c.symbol(params, 1.0, 2.0)),
        "dtn": {"a11": a11, "a12": a12, "a21": a21, "a22": a22,
                "det": a11 * a22 - a12 * a21}}, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, config, code", [
    (["solve", "--case", "II", "--nu", "0.25", "--potential", "bogus"], None,
     cli.EXIT_BAD_INPUT),
    (["region", "--case", "I", "--nu-range", "0:0.4:1", "--delta-range",
      "0.5:1.5:3"], None, cli.EXIT_BAD_INPUT),
    (["extend", "--orientation", "perp", "--nu", "0.25", "--m1", "0",
      "--m2", "0"], None, cli.EXIT_BAD_INPUT),
    (["symbol", "--k1", "1", "--k2", "2"], "case = II\nnu 0.25\n",
     cli.EXIT_BAD_INPUT),
    ([], "case = II\n", cli.EXIT_BAD_INPUT),
    (["solve", "--case", "II", "--nu", "0.25"], None,
     cli.EXIT_NO_CONVERGENCE),
], ids=["unknown-potential", "range-count-1", "mode-0-0", "config-no-equals",
        "config-no-subcommand", "solver-error"])
def test_cli_error_paths(tmp_path, monkeypatch, capsys, argv, config, code):
    # solve_profile raises SolverError wherever it is reached: solve reports
    # it with exit 2, and the bad inputs exit 3 before it
    from pndislo import solver

    def no_convergence(*args, **kwargs):
        raise solver.SolverError("no convergence", [1.0, 0.5, 0.25, 0.2,
                                                    0.19, 0.185])

    monkeypatch.setattr(solver, "solve_profile", no_convergence)
    if config is not None:
        (tmp_path / "cfg").write_text(config)
        argv = ["--config", str(tmp_path / "cfg")] + argv
    got, out, err = run(argv, capsys)
    assert got == code
    if code == cli.EXIT_BAD_INPUT:
        assert out == ""
        assert "error" in json.loads(err)
    else:
        assert json.loads(out) == {"error": "no convergence",
                                   "history": [0.5, 0.25, 0.2, 0.19, 0.185]}


def test_extend_prints_stats(capsys):
    code, out, _ = run(["extend", "--orientation", "parallel", "--nu",
                        "0.25", "--n", "8", "--n2", "20"], capsys)
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["frequencies"] == 39      # the 8 x 5 half spectrum
    assert set(stats) == {"frequencies", "spectrum_mismatch"}
    assert stats["spectrum_mismatch"] <= 1e-10


def test_verify_passes(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert rep["duality"] <= 1e-3
    assert rep["region_mismatches"] == 0
    assert rep["parallel_traction_map"] <= 1e-12
    assert rep["localized_energy_pair_sum"] <= 1e-12


@pytest.mark.parametrize("argv", [["--threads", "2", "verify"],
                                  ["--seed", "3", "--threads=2", "verify"]],
                         ids=["separate", "joined"])
def test_unknown_global_option_rejected(capsys, argv):
    # argparse alone names the option's value as an invalid subcommand
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "--threads" in json.loads(err)["error"]


def test_global_help_and_seed_still_accepted(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["-h"])
    assert e.value.code == 0
    assert "--seed" in capsys.readouterr().out
    code, out, _ = run(["--seed", "3", "validate"] + ISO5, capsys)
    assert code == 0
    assert json.loads(out)["elliptic"] is True
    # global options come off wherever they stand
    code, out, _ = run(["validate"] + ISO5 + ["--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out)["elliptic"] is True


def test_config_preload_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("case = II\nnu = 0.25\nk1 = 1\nk2 = 2\n")
    code, out, _ = run(["--config", str(cfg), "symbol"], capsys)
    assert code == 0
    base = json.loads(out)
    # comment and blank lines are skipped; the other keys still preload
    cfg.write_text("# material\ncase = II\n\nnu = 0.25  # isotropic\n"
                   "k1 = 1\nk2 = 2\n")
    code, out, _ = run(["--config", str(cfg), "symbol"], capsys)
    assert code == 0
    assert json.loads(out) == base
    # explicit flags override config values
    code, out, _ = run(["--config", str(cfg), "symbol", "--k1", "3"],
                       capsys)
    assert code == 0
    assert json.loads(out)["k1"] == 3.0
    assert base["k1"] == 1.0


def test_config_file_named_like_a_subcommand(tmp_path, monkeypatch, capsys):
    # the subcommand is the first token left after the global options, not
    # the first token that happens to spell one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "symbol").write_text("case = II\nnu = 0.25\nk1 = 1\nk2 = 2\n")
    code, out, _ = run(["--config", "symbol", "symbol"], capsys)
    assert code == 0
    assert json.loads(out)["k1"] == 1.0


def test_negative_exponent_value_on_command_line(capsys):
    code, out, _ = run(["validate", "--c11", "3", "--c13", "-6.25e-05",
                        "--c33", "3", "--c44", "1", "--c66", "1"], capsys)
    assert code == 0
    assert json.loads(out)["elliptic"] is True


@pytest.mark.parametrize("cmd,text,key", [
    ("validate", "c11 = 3\nc13 = -6.25e-05\nc33 = 3\nc44 = 1\nc66 = 1\n",
     "elliptic"),
    ("region", "case = I\nnu-range = -0.4:0.45:5\n"
     "delta-range = 0.5:3.5:5\nn-theta = 64\n", "cells"),
], ids=["validate", "region"])
def test_config_negative_values(tmp_path, capsys, cmd, text, key):
    cfg = tmp_path / "cfg"
    cfg.write_text(text)
    code, out, _ = run(["--config", str(cfg), cmd], capsys)
    assert code == 0
    assert key in json.loads(out)


@pytest.mark.parametrize("extra", [["--nu", "0.4"], ["--mu", "2"],
                                   ["--delta", "1"]])
def test_five_constants_and_parameters_rejected(tmp_path, capsys, extra):
    argv = ["symbol", "--case", "II", "--k1", "1", "--k2", "2"]
    code, _, err = run(argv + ISO5 + extra, capsys)
    assert code == cli.EXIT_BAD_INPUT
    assert json.loads(err)["error"] == ("give the five constants or "
                                        "--mu/--nu/--delta, not both")
    # keys from a config file count the same way
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{extra[0][2:]} = {extra[1]}\n")
    code, _, err = run(["--config", str(cfg)] + argv + ISO5, capsys)
    assert code == cli.EXIT_BAD_INPUT
    assert "not both" in json.loads(err)["error"]


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("case = II\nnu = 0.25\nk1 = 1\nk2 = 2\nbogus = 1\n")
    code, _, err = run(["--config", str(cfg), "symbol"], capsys)
    assert code == 3
    assert "error" in json.loads(err)


def test_bad_range_spec_rejected(capsys):
    code, _, err = run(["region", "--case", "I", "--nu-range", "oops",
                        "--delta-range", "0.5:3.5:5"], capsys)
    assert code == 3
    assert "error" in json.loads(err)


def test_missing_material_rejected(capsys):
    code, _, _ = run(["validate"], capsys)
    assert code == 3


def test_partial_constants_rejected(capsys):
    code, _, _ = run(["validate", "--c11", "3"], capsys)
    assert code == 3


def test_symbol_unknown_case_rejected(capsys):
    code, _, err = run(["symbol", "--case", "IV", "--nu", "0.25",
                        "--k1", "1", "--k2", "0.5"], capsys)
    assert code == 3
    assert "error" in json.loads(err)


def test_kernel_unknown_case_rejected(capsys):
    code, _, err = run(["kernel", "--case", "iso", "--nu", "0.25"], capsys)
    assert code == 3
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv", [
    ["region", "--case", "I", "--nu-range", "0:0.4:3"],
    ["region", "--case", "III"],
], ids=["I-no-delta-range", "III-no-nu-range"])
def test_region_missing_range_rejected(capsys, argv):
    code, _, err = run(argv, capsys)
    assert code == 3
    assert "range" in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ["region", "--case", "I", "--nu-range", "0:0.4:3", "--delta-range",
     "0.5:1.5:3", "--mu-range", "5:6:3"],
    ["region", "--case", "II", "--nu-range", "0:0.4:3", "--delta-range",
     "0.5:1.5:3", "--mu-range", "5:6:3"],
    ["region", "--case", "III", "--nu-range", "0:0.4:3", "--delta-range",
     "0.5:1.5:3"],
], ids=["I-mu-range", "II-mu-range", "III-delta-range"])
def test_region_foreign_range_rejected(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 3
    assert out == ""
    assert "does not apply" in json.loads(err)["error"]


def _readme_cli_commands():
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("pndislo ")]


def test_readme_cli_commands_run(tmp_path, capsys):
    commands = _readme_cli_commands()
    assert len(commands) >= 7
    for n, argv in enumerate(commands):
        out_dir = tmp_path / str(n)
        out_dir.mkdir()
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(out_dir / argv[i])
        code, out, err = run(argv, capsys)
        assert code == 0, (argv, err)
        json.loads(out)
        # `extend --out field` writes field.csv, field.bin and field.json
        assert ("--out" in argv) == any(out_dir.iterdir())


def test_parser_reuse_matches_fresh_processes(tmp_path, capsys):
    # cli.main builds its argparse tree once per process; calls after the
    # first must print what a fresh process prints
    cfg = tmp_path / "cfg"
    cfg.write_text("case = II\nnu = 0.25\nk1 = 1\nk2 = 2\n")
    region = ["region", "--case", "I", "--nu-range", "0:0.4:3",
              "--delta-range", "0.5:2:3", "--n-theta", "64"]
    calls = [region,
             ["kernel", "--case", "II", "--nu", "0.25", "--delta", "1.5",
              "--n-theta", "16"],
             ["--config", str(cfg), "symbol"],
             ["symbol", "--case", "IV", "--nu", "0.25", "--k1", "1",
              "--k2", "2"],
             region]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for argv in calls:
        code, out, _ = run(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "pndislo.cli"] + argv,
                               capture_output=True, text=True, env=env)
        assert (code, out) == (fresh.returncode, fresh.stdout), argv
    assert [run(argv, capsys)[0] for argv in calls] == [0, 0, 0, 3, 0]


@pytest.mark.parametrize("n_theta", ["0", "7"])
def test_region_rejects_too_few_angles(capsys, n_theta):
    code, _, err = run(["region", "--case", "I", "--nu-range", "0:0.4:3",
                        "--delta-range", "0.5:2:3", "--n-theta", n_theta],
                       capsys)
    assert code == cli.EXIT_BAD_INPUT
    assert json.loads(err)["error"] == "n_theta must be at least 8"


def test_region_prints_stats(capsys):
    code, out, _ = run(["region", "--case", "I", "--nu-range", "0:0.6:4",
                        "--delta-range", "0.5:1.5:3", "--n-theta", "16"],
                       capsys)
    assert code == 0
    stats = json.loads(out)["stats"]
    assert set(stats) == {"admissible_cells", "angles", "kernel_calls"}
    # the row nu = 0.6 lies outside the ellipticity strip
    assert stats == {"admissible_cells": 9, "angles": 16, "kernel_calls": 3}


_IMPORT_PROBE = """
import sys
import numpy as np
from pndislo import (cli, extension, kernels, moduli, nonlocal_ops, regions,
                     solver, symbols)
out = sys.argv[1]
iso = ["--c11", "3", "--c13", "1", "--c33", "3", "--c44", "1", "--c66", "1"]
calls = [["validate"] + iso,
         ["symbol", "--case", "II", "--mu", "1", "--nu", "0.25",
          "--delta", "1", "--k1", "1", "--k2", "2"],
         ["kernel", "--case", "I", "--nu", "0.25", "--delta", "2",
          "--out", out + "/profile.csv"],
         ["region", "--case", "I", "--nu-range", "0:0.4:3",
          "--delta-range", "0.5:2:3", "--n-theta", "16",
          "--out", out + "/region.csv"],
         ["extend", "--orientation", "perp", "--nu", "0.25", "--n", "8",
          "--m2", "1", "--out", out + "/field"],
         ["solve", "--case", "II", "--nu", "0.25", "--potential", "quartic",
          "--X", "50", "--N", "512", "--n-eig", "3"]]
for argv in calls:
    assert cli.main(argv) == 0, argv
dp = regions.case("II").derive(moduli.from_isotropic(1.0, 0.25))
sol = solver.solve_profile("II", dp, X=50.0, N=512)
solver.check_stability(sol, n_eig=3)
fld = nonlocal_ops.GridField2D.from_function(
    16.0, 16.0, 32, 32, lambda x, y: np.tanh(x) + 0.0 * y)
kf = kernels.kernel_case2(dp)
nonlocal_ops.energy(fld, potential=sol.potential, kf=kf, R=4.0)
nonlocal_ops.apply_kernel_quadrature(kf, fld)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""


def test_solve_path_loads_no_scipy(tmp_path):
    # importing pndislo, the closed-form subcommands, `solve`,
    # solve_profile/check_stability, the localized energy and the kernel
    # quadrature run on numpy alone
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                          str(tmp_path)], capture_output=True, text=True,
                         env=env)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "region.csv").exists()
