import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jumpspec
from jumpspec import basis_diag, eigensystem, metric, resolvent, simulator, spectrum
from jumpspec.cli import MAX_CONTRACT_MEMBERS, Manifest, main
from jumpspec.funcspace import PiecewiseTrig, grid_nodes, sin_term
from jumpspec.param import ParamA
from reference_oracles import mp_three_point_solve


def run_cli(args):
    return main(args)


def test_spectrum_subcommand(tmp_path):
    out = tmp_path / "s"
    code = run_cli(["spectrum", "--a", "1/3", "--lambda-max", "40",
                    "--out", str(out)])
    assert code == 0
    records = json.loads((out / "eigenvalues.json").read_text())
    assert len(records) == 5
    assert sum(1 for r in records if r["alg_mult"] == 3) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert "eigenvalues.json" in manifest["outputs"]
    assert manifest["tool_version"]


def test_spectrum_irrational(tmp_path):
    out = tmp_path / "s2"
    assert run_cli(["spectrum", "--a", "sqrt(2)-1", "--lambda-max", "10",
                    "--out", str(out)]) == 0
    records = json.loads((out / "eigenvalues.json").read_text())
    assert len(records) == 3
    assert all(r["geom_mult"] == 1 for r in records)


def test_curves_csv(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["spectrum", "--a", "0", "--curves",
                    "--a-grid=-0.9:0.9:0.45", "--m-max", "2",
                    "--out", str(out)]) == 0
    lines = (out / "curves.csv").read_text().strip().splitlines()
    assert lines[0] == "a,class,m,lambda"
    # 5 grid points x (2 families x 2 m + 3 zero-class m)
    assert len(lines) - 1 == 5 * (2 * 2 + 3)


def test_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert run_cli(["simulate", "--a", "0", "--paths", "300",
                        "--horizon", "7.25", "--dt", "0.0005",
                        "--seed", "9", "--out", str(out)]) == 0
    assert (out1 / "sim_report.json").read_bytes() == \
        (out2 / "sim_report.json").read_bytes()
    assert (out1 / "histogram.csv").read_bytes() == \
        (out2 / "histogram.csv").read_bytes()


def test_verify_gram_suite(tmp_path):
    out = tmp_path / "v"
    assert run_cli(["verify", "--a", "sqrt(2)-1", "--suite", "gram",
                    "--out", str(out)]) == 0
    payload = json.loads((out / "verify.json").read_text())
    assert payload["passed"]
    assert payload["suites"]["gram"]["max_gram_deviation"] < 1e-9


def test_verify_metric_informational_for_rational(tmp_path):
    out = tmp_path / "vm"
    assert run_cli(["verify", "--a", "1/3", "--suite", "metric",
                    "--out", str(out)]) == 0
    suite = json.loads((out / "verify.json").read_text())["suites"]["metric"]
    assert suite["informational_only"] and suite["passed"]
    # Theta is not injective on the exceptional root spaces
    assert suite["positivity_min"] < 1e-12 and suite["contract_failures"]
    assert suite["max_intertwining_residual"] < 1e-8


def test_verify_projections_suite(tmp_path):
    out = tmp_path / "vp"
    assert run_cli(["verify", "--a", "1/3", "--suite", "projections",
                    "--out", str(out)]) == 0
    suite = json.loads((out / "verify.json").read_text())["suites"]["projections"]
    assert suite["passed"] is True
    assert suite["max_relative_deviation"] < 1e-12


def test_resolvent_subcommand(tmp_path):
    out = tmp_path / "r"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda=-1,0",
                    "--f", "const", "--svd-n", "192", "--out", str(out)]) == 0
    payload = json.loads((out / "resolvent_report.json").read_text())
    assert payload["boundary_deviation"] < 1e-10
    # N = 192 modes: 193 singular values, each within 1/|193^2 + 1| of R's
    assert payload["truncation_bound"] == pytest.approx(1 / (193 ** 2 + 1))
    assert len((out / "singular_values.csv").read_text().strip().splitlines()) == 1 + 193
    lines = (out / "resolvent_u.csv").read_text().strip().splitlines()
    # one row per node of the default grid, starting at -pi/2
    assert lines[0] == "x,re,im"
    assert len(lines) - 1 == len(grid_nodes(ParamA.from_expr("1/3"), 96, kmax=1.0)[0])
    assert float(lines[1].split(",")[0]) == pytest.approx(-math.pi / 2)
    # R(-1)1 = 1 to 1e-10
    for line in lines[1:5]:
        _, re_s, im_s = line.split(",")
        assert abs(float(re_s) - 1.0) < 1e-10


def test_basis_blowup_table(tmp_path):
    out = tmp_path / "b"
    assert run_cli(["basis", "--a", "sqrt(2)-1", "--blowup",
                    "--convergents", "8", "--lambda-max", "50",
                    "--out", str(out)]) == 0
    lines = (out / "blowup.csv").read_text().strip().splitlines()
    norms = [float(line.split(",")[-1]) for line in lines[1:]]
    assert max(norms) > 10


def test_metric_check_subcommand(tmp_path):
    out = tmp_path / "m"
    assert run_cli(["metric-check", "--a", "sqrt(2)-1", "--lambda-max", "60",
                    "--convergents", "6", "--out", str(out)]) == 0
    payload = json.loads((out / "metric_report.json").read_text())
    assert payload["max_intertwining_residual"] < 1e-8
    # c_j/||psi_j||^2 on the family, measured 0.14 up to lambda 60
    assert payload["positivity_min"] > 0.1
    assert payload["max_root_residual"] < 1e-12
    assert 0 < payload["max_kappa_ratio"] <= 1
    assert payload["contract_failures"] == []
    assert min(v for _, v in payload["rayleigh_sequence"]) < 1e-2


def test_metric_check_reads_no_random_input(tmp_path):
    reports = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        assert run_cli(["metric-check", "--a", "sqrt(2)-1", "--lambda-max", "60",
                        "--convergents", "4", "--seed", seed, "--out", str(out)]) == 0
        reports.append((out / "metric_report.json").read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("count", ["0", "41"])
def test_metric_check_convergent_count_is_checked_before_the_contract(tmp_path, monkeypatch,
                                                                     count):
    # 41 exceeds MAX_CONVERGENTS; the contract takes seconds at a large --lambda-max
    def contract(*args, **kwargs):
        raise AssertionError("ran the contract for a refused --convergents")

    monkeypatch.setattr(metric.MetricOp, "root_system_report", contract)
    out = tmp_path / "k"
    assert run_cli(["metric-check", "--a", "sqrt(2)-1", "--lambda-max", "1e6",
                    "--convergents", count, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("a, lambda_max", [("sqrt(2)-1", "1.1e8"), ("1/3", "1.1e8")])
def test_metric_check_refuses_an_over_size_family_before_any_work(tmp_path, monkeypatch, capsys,
                                                                    a, lambda_max):
    # 10488 and 10489 members, over the cap of 10000
    def build(*args, **kwargs):
        raise AssertionError("built the family of a refused --lambda-max")

    monkeypatch.setattr(eigensystem, "biorthogonalize", build)
    out = tmp_path / "big"
    assert run_cli(["metric-check", "--a", a, "--lambda-max", lambda_max,
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert f"cap of {MAX_CONTRACT_MEMBERS}" in capsys.readouterr().err


@pytest.mark.slow
def test_metric_check_takes_a_family_at_the_member_cap(tmp_path):
    # 10000 members at sqrt(2)-1: the contract holds to its rounding bounds
    # (1.1 s and 220 MB as a whole process)
    out = tmp_path / "cap"
    assert run_cli(["metric-check", "--a", "sqrt(2)-1", "--lambda-max", "1e8",
                    "--out", str(out)]) == 0
    assert json.loads((out / "metric_report.json").read_text())["contract_failures"] == []


def test_metric_check_reads_the_sup_on_a_grid_that_does_not_alias(tmp_path):
    # member 255 is cos 256x + T sin 256x with T about 1.6e4; on a uniform
    # 257-point grid every node is a zero of sin 256x, so its sup read 1 and
    # its boundary rounding (1.3e-9) was refused as a domain violation
    out = tmp_path / "alias"
    assert run_cli(["metric-check", "--a", "-125/128+1/(1000000*pi)", "--lambda-max", "66000",
                    "--out", str(out)]) == 0
    assert json.loads((out / "metric_report.json").read_text())["contract_failures"] == []


@pytest.mark.parametrize("a, lambda_max", [("sqrt(2)-1", "1e7"), ("1/3", "4.1e6")])
def test_basis_takes_a_family_the_old_work_cap_refused(tmp_path, a, lambda_max):
    # 3163 members up to k 3162 and 2024 up to k 2024, over the members x k
    # cap that the banded quadrature needed; the pairings take them in
    # linear time
    out = tmp_path / "big"
    assert run_cli(["basis", "--a", a, "--lambda-max", lambda_max, "--out", str(out)]) == 0
    rows = (out / "projection_norms.csv").read_text().splitlines()
    assert rows[0] == "which,lambda,norm_closed,norm_pairing"
    assert len(rows) - 1 >= 2024


def test_basis_refuses_a_range_above_the_member_cap_before_any_work(tmp_path, monkeypatch,
                                                                    capsys):
    # 1e11 holds 316228 members at sqrt(2)-1, over spectrum.MAX_MEMBERS
    def pairing(*args, **kwargs):
        raise AssertionError("paired the family of a refused --lambda-max")

    monkeypatch.setattr(basis_diag, "inner_pairs", pairing)
    out = tmp_path / "big"
    assert run_cli(["basis", "--a", "sqrt(2)-1", "--lambda-max", "1e11", "--out", str(out)]) == 2
    assert not out.exists()
    assert f"cap of {spectrum.MAX_MEMBERS}" in capsys.readouterr().err


def test_metric_contract_failure_exits_1(tmp_path, monkeypatch):
    # P0 dropped: Theta is no longer injective on the family
    monkeypatch.setattr(metric, "project_center", lambda fs: fs.scaled(0.0))
    out = tmp_path / "mf"
    assert run_cli(["metric-check", "--a", "sqrt(2)-1", "--lambda-max", "60",
                    "--convergents", "4", "--out", str(out)]) == 1
    assert json.loads((out / "metric_report.json").read_text())["contract_failures"]
    assert run_cli(["verify", "--a", "sqrt(2)-1", "--suite", "metric",
                    "--out", str(out)]) == 1
    # at rational a the same failure is informational
    assert run_cli(["metric-check", "--a", "1/3", "--lambda-max", "60",
                    "--out", str(out)]) == 0


def test_usage_errors(tmp_path):
    assert run_cli(["spectrum"]) == 2          # missing --a
    assert run_cli(["bogus"]) == 2
    assert run_cli(["spectrum", "--a", "3/2", "--out", "/tmp/x1"]) == 2
    for expr in ("1/0", "pi/0", "1/(1-1)"):    # division by zero
        assert run_cli(["spectrum", "--a", expr, "--out", str(tmp_path / "z")]) == 2
    assert run_cli(["spectrum", "--a", "sqrt(-1)/2", "--out", str(tmp_path / "z")]) == 2
    # irrational terms that cancel: once accepted as a = 0.0, basis exited 0
    assert run_cli(["basis", "--a", "sqrt(2)*sqrt(2)-2", "--out", str(tmp_path / "z")]) == 2
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("threads", ["2", "0"])
def test_the_removed_threads_option_is_a_usage_error(tmp_path, threads):
    # the simulator runs its batches on the calling thread; no option picks a count
    out = tmp_path / "t"
    assert run_cli([f"--threads={threads}", "simulate", "--a", "1/3", "--paths", "10",
                    "--out", str(out)]) == 2
    assert not out.exists()


def test_simulate_without_post_burn_in_samples_is_a_usage_error(tmp_path):
    out = tmp_path / "h1"
    assert run_cli(["simulate", "--a", "1/3", "--horizon", "1", "--paths", "100",
                    "--out", str(out)]) == 2
    assert not (out / "sim_report.json").exists()


@pytest.mark.parametrize("expr,dt", [("999999/1000000", "5e-4"), ("1-1/10000000000", "1e-4")])
def test_simulate_over_the_restart_budget_is_a_usage_error(tmp_path, capsys, expr, dt):
    # 200 paths over horizon 7 expect 5.7e8 and 5.7e12 restarts at the
    # renewal rate 8/(pi^2 (1 - a^2)); both runs once exited 0 with the
    # rate capped near 1/dt
    out = tmp_path / "budget"
    assert run_cli(["simulate", "--a", expr, "--paths", "200", "--horizon", "7",
                    "--dt", dt, "--out", str(out)]) == 2
    assert not out.exists()
    assert "budget" in capsys.readouterr().err


SMALL_RUN = ["--paths", "300", "--horizon", "6.45", "--dt", "1e-3"]


def test_simulate_gap_reports_a_finite_worst_z_within_the_bound(tmp_path):
    out = tmp_path / "gap"
    assert run_cli(["simulate", "--a", "1/3", *SMALL_RUN, "--gap", "--out", str(out)]) == 0
    z = json.loads((out / "sim_report.json").read_text())["gap_max_z"]
    assert math.isfinite(z) and 0 <= z <= simulator.Z_BOUND


def test_simulate_gap_beyond_the_bound_is_a_contract_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "semigroup_check", lambda *args: 2 * simulator.Z_BOUND)
    out = tmp_path / "gap"
    assert run_cli(["simulate", "--a", "1/3", *SMALL_RUN, "--gap", "--out", str(out)]) == 1
    report = json.loads((out / "sim_report.json").read_text())
    assert report["gap_max_z"] == 2 * simulator.Z_BOUND


@pytest.mark.parametrize("args", [
    ["--a", "1/3", "--paths", "1"],  # one path has no standard error
    # 5.7e8 restarts at the renewal rate, over the restart budget
    ["--a", "999999/1000000", "--paths", "200", "--horizon", "7", "--dt", "5e-4"],
    # 3.75e7 samples per path, over the work budget
    ["--a", "1/3", "--paths", "10", "--horizon", "10", "--dt", "1e-7"],
])
def test_simulate_gap_refusals_come_before_any_walk(tmp_path, monkeypatch, capsys, args):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a refused run")

    monkeypatch.setattr(simulator, "_walk", no_walk)
    out = tmp_path / "refused"
    assert run_cli(["simulate", *args, "--gap", "--out", str(out)]) == 2
    assert not out.exists()
    assert "jumpspec:" in capsys.readouterr().err


@pytest.mark.parametrize("dt", ["1e-7", "1e-12"])
def test_simulate_over_the_work_budget_is_refused_before_any_walk(tmp_path, monkeypatch,
                                                                   capsys, dt):
    def no_walk(*args, **kwargs):
        raise AssertionError("walked a refused run")

    monkeypatch.setattr(simulator, "_walk", no_walk)
    out = tmp_path / "refused"
    assert run_cli(["simulate", "--a", "1/3", "--paths", "10", "--horizon", "10",
                    "--dt", dt, "--out", str(out)]) == 2
    assert not out.exists()
    assert f"work budget of {simulator.WORK_BUDGET:.3g}" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--dt", "0"), ("--dt", "-1e-4"), ("--dt", "nan"),
                                        ("--dt", "5e-324"),
                                        ("--horizon", "inf"), ("--horizon", "nan"),
                                        ("--horizon", "0"), ("--horizon", "-8")])
def test_bad_step_or_horizon_is_a_usage_error(tmp_path, flag, value):
    out = tmp_path / "bad"
    assert run_cli(["simulate", "--a", "1/3", "--paths", "10", f"{flag}={value}",
                    "--out", str(out)]) == 2
    assert not (out / "sim_report.json").exists()


@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1"])
@pytest.mark.parametrize("command,output", [("spectrum", "eigenvalues.json"),
                                            ("basis", "projection_norms.csv"),
                                            ("metric-check", "metric_report.json")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lambda_max_is_a_usage_error(tmp_path, expr, command, output, value):
    out = tmp_path / "lm"
    assert run_cli([command, "--a", expr, f"--lambda-max={value}",
                    "--out", str(out)]) == 2
    assert not (out / output).exists()


@pytest.mark.parametrize("command", ["spectrum", "basis", "metric-check"])
def test_oversized_lambda_max_is_refused_before_any_enumeration(tmp_path, monkeypatch, capsys,
                                                                 command):
    # 1e13 holds 3.2e6 family members at a = 1/3, over spectrum.MAX_MEMBERS
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated a refused lambda_max")
    monkeypatch.setattr(spectrum, "_raw_wavenumbers", no_enumeration)
    out = tmp_path / "big"
    assert run_cli([command, "--a", "1/3", "--lambda-max", "1e13", "--out", str(out)]) == 2
    assert f"cap of {spectrum.MAX_MEMBERS}" in capsys.readouterr().err
    assert not out.exists()


def test_member_cap_is_the_closed_form_count(monkeypatch):
    # at a = 1/3, k <= 10 holds 5 + 1 + 1 + 3 = 10 members and k <= 12 holds 13
    a = ParamA.from_expr("1/3")
    monkeypatch.setattr(spectrum, "MAX_MEMBERS", 10)
    # the three members at k = 6 are one exceptional pair
    assert len(spectrum.enumerate_spectrum(a, 100.0)) == 8
    with pytest.raises(ValueError, match="13 family members"):
        spectrum.enumerate_spectrum(a, 144.0)


@pytest.mark.parametrize("args", [["--lambda=-1e6"], ["--lambda", "-1", "--svd-n", "4096"]])
def test_probe_grid_is_refused_before_the_solve(tmp_path, monkeypatch, capsys, args):
    # at -1e6 the fit window would start at 2|k| = 2000, past N/2 = 256
    def no_solve(*args, **kwargs):
        raise AssertionError("apply_resolvent ran")
    monkeypatch.setattr(resolvent, "apply_resolvent", no_solve)
    out = tmp_path / "probe"
    assert run_cli(["resolvent", "--a", "1/3", *args, "--out", str(out)]) == 2
    assert "probe" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", [
    *(pytest.param(f"--a-grid={grid}", id=grid)
      for grid in ("0:0.5:0", "0:0.5:-0.1", "nan:0.5:0.1", "0:inf:0.1",
                   "0:0.5:inf", "0:0.5:nan", "0.5:-0.5:0.25", "0:1", "a:b:c", "0:1:0.5:2")),
    pytest.param("--m-max=-1", id="m-max=-1")])
def test_bad_curve_grid_is_a_usage_error_before_any_output(tmp_path, capsys, option):
    out = tmp_path / "cg"
    assert run_cli(["spectrum", "--a", "1/3", "--curves", option, "--out", str(out)]) == 2
    assert not out.exists()
    # the message names the grid's form, not Python's unpacking or float()
    assert ("--a-grid lo:hi:step" in capsys.readouterr().err) == option.startswith("--a-grid")


@pytest.mark.parametrize("option", [
    "--a-grid=-0.95:0.95:1e-12", "--a-grid=-0.95:0.95:1e-320", "--m-max=1000000000",
    pytest.param(f"--m-max={10 ** 400}", id="--m-max=10**400")])
def test_curve_rows_over_the_cap_are_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                             option):
    # 1.9e12 or inf grid points, or 191 points x 3e9 or 3e400 rows: no grid
    # is allocated (at 1e-12 the parent raised a raw MemoryError, exit 1)
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a refused curve grid")
    monkeypatch.setattr(spectrum, "curves", no_work)
    monkeypatch.setattr(spectrum, "_raw_wavenumbers", no_work)
    monkeypatch.setattr(np, "arange", no_work)
    out = tmp_path / "cap"
    assert run_cli(["spectrum", "--a", "1/3", "--curves", option, "--out", str(out)]) == 2
    assert f"cap of {spectrum.MAX_CURVE_ROWS} curve rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, points", [
    ("0:0.5:0.3", [0.0, 0.3]),
    ("-0.999999:0.999999:0.5", [-0.999999, -0.499999, 0.000001, 0.500001])])
def test_curve_grid_stops_at_hi(tmp_path, grid, points):
    # np.arange(lo, hi + step/2, step) went on to 0.6, and to 1.000001,
    # which the curves refused as outside (-1, 1)
    out = tmp_path / "grid"
    assert run_cli(["spectrum", "--a", "1/3", "--curves", f"--a-grid={grid}", "--m-max", "1",
                    "--out", str(out)]) == 0
    rows = (out / "curves.csv").read_text().strip().splitlines()[1:]
    assert sorted({float(row.split(",")[0]) for row in rows}) == pytest.approx(points, abs=1e-15)
    assert len(rows) == len(points) * (3 * 1 + 1)


def test_curve_row_cap_is_the_closed_form_count(tmp_path, monkeypatch):
    # the default grid -0.95:0.95:0.01 has 191 points of 3 * 4 + 1 rows
    monkeypatch.setattr(spectrum, "MAX_CURVE_ROWS", 191 * 13)
    assert run_cli(["spectrum", "--a", "1/3", "--curves", "--out", str(tmp_path / "at")]) == 0
    assert len((tmp_path / "at" / "curves.csv").read_text().splitlines()) == 1 + 191 * 13
    monkeypatch.setattr(spectrum, "MAX_CURVE_ROWS", 191 * 13 - 1)
    assert run_cli(["spectrum", "--a", "1/3", "--curves", "--out", str(tmp_path / "over")]) == 2


# the rows that came out wrong with exit 0 from a panel sweep sized by |k|
# of lambda, not by K (2.9e-5, 3.8e-3 and 3.0e-2 off at max|u| 2.6e-6,
# 2.6e-8 and 1.5e-12); the closed form must be within 16 eps max|u| of the
# 50-digit solve at every output node (measured worst 2.2 eps); the last
# two spell K as the --f grammar allows
@pytest.mark.parametrize("source, lam", [("sin1000", "-1"), ("sin1e4", "-1"),
                                         ("sin1e6", "2.5,1"), ("sin-3", "-1"),
                                         ("sin2.5e0", "-1"), ("sin+.5", "-1")])
def test_resolvent_output_matches_the_mpmath_solve(tmp_path, source, lam):
    out = tmp_path / "u"
    assert run_cli(["resolvent", "--a", "1/3", f"--lambda={lam}", "--f", source,
                    "--svd-n", "64", "--out", str(out)]) == 0
    x, re, im = np.loadtxt(out / "resolvent_u.csv", delimiter=",", skiprows=1, unpack=True)
    K = float(source.removeprefix("sin"))
    f = PiecewiseTrig.single(sin_term(math.copysign(1.0, K), abs(K)))
    re_s, _, im_s = lam.partition(",")
    ref = mp_three_point_solve(complex(float(re_s), float(im_s or 0)), f,
                               ParamA.from_expr("1/3"), x)
    assert np.max(np.abs(re + 1j * im - ref)) < 16 * np.finfo(float).eps * np.max(np.abs(ref))


def test_numerical_failure_exits_3_with_an_error_record(tmp_path):
    out = tmp_path / "pole"
    # 36 is an eigenvalue at a = 1/3
    assert run_cli(["resolvent", "--a", "1/3", "--lambda", "36",
                    "--out", str(out)]) == 3
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error["type"] == "PoleAtEigenvalue"
    assert error["stage"] == "apply_resolvent" and error["message"]
    assert not (out / "resolvent_report.json").exists()


def test_a_failed_svd_exits_3_with_an_error_record(tmp_path, monkeypatch):
    # LinAlgError subclasses ValueError, which is a usage error (exit 2)
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    out = tmp_path / "svd"
    # lambda = 1 is in the resonant zone of m = 1, which takes the dense SVD
    assert run_cli(["resolvent", "--a", "1/3", "--lambda", "1", "--svd-n", "64",
                    "--out", str(out)]) == 3
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error["type"] == "LinAlgError" and error["stage"] == "singular_value_probe"


def test_an_unconverged_secular_solve_exits_3_with_an_error_record(tmp_path, monkeypatch):
    # one pass leaves the singular values 1.9e-3 sigma_1 off: no decay exponent
    monkeypatch.setattr(resolvent, "SECULAR_PASSES", 1)
    out = tmp_path / "passes"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda", "-1", "--svd-n", "512",
                    "--out", str(out)]) == 3
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error["type"] == "LinAlgError" and error["stage"] == "singular_value_probe"
    assert "unconverged" in error["message"]
    assert not (out / "resolvent_report.json").exists()


@pytest.mark.parametrize("lam", ["1,1e-300", "1,1e-310"])
def test_a_subnormal_distance_to_a_dirichlet_point_gives_finite_output(tmp_path, lam):
    # np.sinc of a complex subnormal overflowed: a NaN row in resolvent_u.csv
    # at 1e-300i, and at 1e-310i a NaN matrix entry that failed the SVD;
    # a RuntimeWarning is an error here (pyproject.toml's filterwarnings)
    out, near = tmp_path / "sub", tmp_path / "near"
    for where, value in ((out, lam), (near, "1,1e-14")):
        assert run_cli(["resolvent", "--a", "1/3", f"--lambda={value}", "--f", "sin1",
                        "--svd-n", "64", "--out", str(where)]) == 0
    for name in ("resolvent_u.csv", "singular_values.csv"):
        values = np.loadtxt(out / name, delimiter=",", skiprows=1)
        assert np.all(np.isfinite(values)), name
    assert (out / "singular_values.csv").read_text() == (near / "singular_values.csv").read_text()
    report = json.loads((out / "resolvent_report.json").read_text())
    assert all(math.isfinite(v) for v in report.values())


@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1"])
def test_resolvent_at_a_dirichlet_point_off_the_spectrum(tmp_path, expr):
    out = tmp_path / "one"
    # lambda = 1 is a Dirichlet eigenvalue but not one of the jump operator
    assert run_cli(["resolvent", "--a", expr, "--lambda", "1",
                    "--svd-n", "192", "--out", str(out)]) == 0
    payload = json.loads((out / "resolvent_report.json").read_text())
    assert payload["pde_residual"] < 1e-8


@pytest.mark.parametrize("lam", ["inf", "-inf", "nan", "1,nan"])
def test_non_finite_lambda_is_a_usage_error(tmp_path, lam):
    out = tmp_path / "nf"
    assert run_cli(["resolvent", "--a", "1/3", f"--lambda={lam}",
                    "--out", str(out)]) == 2
    assert not (out / "resolvent_report.json").exists()


@pytest.mark.parametrize("lam", ["1e300", "-1e300", "1e8,1e5"])
def test_lambda_above_the_cap_is_refused_before_the_solve(tmp_path, monkeypatch, capsys, lam):
    def no_solve(*args, **kwargs):
        raise AssertionError("apply_resolvent ran")
    monkeypatch.setattr(resolvent, "apply_resolvent", no_solve)
    out = tmp_path / "cap"
    assert run_cli(["resolvent", "--a", "1/3", f"--lambda={lam}", "--out", str(out)]) == 2
    assert f"cap of {resolvent.MAX_ABS_LAMBDA:g}" in capsys.readouterr().err
    assert not out.exists()


def test_json_outputs_refuse_nan(tmp_path):
    man = Manifest(argparse.Namespace(command="spectrum", out=str(tmp_path / "n")))
    with pytest.raises(ValueError):
        man.write_json("report.json", {"rate": float("nan")})
    man.record["wall"] = float("inf")
    with pytest.raises(ValueError):
        man.finish()


def test_json_outputs_refuse_values_json_cannot_encode(tmp_path):
    man = Manifest(argparse.Namespace(command="verify", out=str(tmp_path / "b")))
    with pytest.raises(TypeError):
        man.write_json("verify.json", {"passed": np.bool_(True)})
    assert not (tmp_path / "b" / "verify.json").exists()


@pytest.mark.parametrize("source", ["sinnan", "sin1e400"])
def test_non_finite_source_wavenumber_is_a_usage_error_before_any_output(tmp_path, source):
    out = tmp_path / "f"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda=-1", "--f", source,
                    "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("source", ["2", "sin1_0", "sin", "foo", "sin 2", "sininf", "sin+-1",
                                    "const1", "sin0x10"])
def test_source_outside_the_grammar_is_a_usage_error_before_any_work(tmp_path, monkeypatch,
                                                                     capsys, source):
    # float() reads '2' as 2.0 and 'sin1_0' as sin 10x: only 'const' and
    # 'sin' with a decimal number are sources
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a refused source")
    monkeypatch.setattr(resolvent, "apply_resolvent", no_work)
    monkeypatch.setattr(resolvent, "check_probe", no_work)
    out = tmp_path / "f"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda=-1", "--f", source,
                    "--out", str(out)]) == 2
    assert "'const' nor 'sinK' with K a decimal number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["sin2e150", "sin-1e200"])
def test_source_wavenumber_above_the_cap_is_a_usage_error(tmp_path, capsys, source):
    # K^2 would overflow: u = 0 and a report of pde_residual 1.0 with exit 0
    out = tmp_path / "f"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda=-1", "--f", source,
                    "--out", str(out)]) == 2
    assert "1e+150" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("svd_n", ["0", "-7"])
def test_probe_size_below_64_is_a_usage_error(tmp_path, svd_n):
    out = tmp_path / "n"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda=-1", f"--svd-n={svd_n}",
                    "--out", str(out)]) == 2
    assert not (out / "singular_values.csv").exists()
    assert not (out / "resolvent_report.json").exists()


def test_plain_negative_a_matches_the_joined_form(tmp_path):
    plain, joined = tmp_path / "plain", tmp_path / "joined"
    assert run_cli(["spectrum", "--a", "-9/10", "--out", str(plain)]) == 0
    assert run_cli(["spectrum", "--a=-9/10", "--out", str(joined)]) == 0
    assert (plain / "eigenvalues.json").read_bytes() == \
        (joined / "eigenvalues.json").read_bytes()


def test_plain_negative_a_grid_matches_the_joined_form(tmp_path):
    plain, joined = tmp_path / "plain", tmp_path / "joined"
    assert run_cli(["spectrum", "--a", "0", "--curves", "--a-grid", "-0.5:0.5:0.25",
                    "--out", str(plain)]) == 0
    assert run_cli(["spectrum", "--a", "0", "--curves", "--a-grid=-0.5:0.5:0.25",
                    "--out", str(joined)]) == 0
    assert (plain / "curves.csv").read_bytes() == (joined / "curves.csv").read_bytes()


def test_blowup_check_without_modes_is_a_usage_error(tmp_path):
    # m_max = 0 would check no mode and still report the bounds as holding
    assert run_cli(["basis", "--a", "1/3", "--blowup", "--m-max", "0", "--lambda-max", "50",
                    "--out", str(tmp_path / "m0")]) == 2
    assert not (tmp_path / "m0").exists()


@pytest.mark.parametrize("m_max", ["0", str(basis_diag.MAX_BOUND_M + 1), "100000000"])
def test_blowup_work_cap_is_checked_before_any_work(tmp_path, monkeypatch, capsys, m_max):
    # m_max = 10^8 would run for hours; neither the bound loop nor the
    # projection norms may start, and nothing is written
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a refused run")

    monkeypatch.setattr(basis_diag, "projection_norms", no_work)
    monkeypatch.setattr(basis_diag, "family_angle", no_work)
    out = tmp_path / "capped"
    assert run_cli(["basis", "--a", "1/3", "--blowup", "--m-max", m_max,
                    "--out", str(out)]) == 2
    assert not out.exists()
    assert "m_max" in capsys.readouterr().err


def test_blowup_bound_loop_waits_for_the_lambda_cap(tmp_path, monkeypatch, capsys):
    # an oversized --lambda-max is refused before the bound loop starts
    def no_work(*args, **kwargs):
        raise AssertionError("bound loop ran on a refused run")

    monkeypatch.setattr(basis_diag, "is_exceptional", no_work)
    out = tmp_path / "capped"
    assert run_cli(["basis", "--a", "1/3", "--blowup", "--m-max", str(basis_diag.MAX_BOUND_M),
                    "--lambda-max", "1e12", "--out", str(out)]) == 2
    assert not out.exists()
    assert "cap" in capsys.readouterr().err


def test_blowup_at_the_work_cap_is_accepted(monkeypatch):
    # the cap itself passes the argument check and reaches the bound loop
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(basis_diag, "is_exceptional", started)
    with pytest.raises(Started):
        basis_diag.rational_bound_check(ParamA.from_expr("1/3"), basis_diag.MAX_BOUND_M)


def test_blowup_convergent_count_is_checked_before_any_output(tmp_path):
    # 41 exceeds MAX_CONVERGENTS; projection_norms.csv must not be left behind
    assert run_cli(["basis", "--a", "sqrt(2)-1", "--blowup", "--convergents", "41",
                    "--lambda-max", "50", "--out", str(tmp_path / "k41")]) == 2
    assert not (tmp_path / "k41").exists()


def test_plain_negative_lambda_reaches_the_probe(tmp_path, capsys):
    # -1e6 is no negative integer, so argparse alone would take it for an option
    out = tmp_path / "neg"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda", "-1e6",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "probe window" in err and "expected one argument" not in err


def test_resolvent_writes_nothing_when_a_later_stage_fails(tmp_path):
    # the probe's grid at lambda = -1e6 exceeds the node cap
    out = tmp_path / "cap"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda=-1e6",
                    "--out", str(out)]) == 2
    assert not out.exists() or not any(out.iterdir())


def test_a_resolvent_run_loads_no_scipy(tmp_path):
    # scipy is no dependency of the package, and `import scipy.linalg` alone
    # takes about 0.4 s of start-up; a fresh interpreter keeps other tests'
    # imports out of the count
    src = Path(jumpspec.__file__).resolve().parents[1]
    code = ("import sys, jumpspec.cli\n"
            "rc = jumpspec.cli.main(['resolvent', '--a', '1/3', '--lambda=-1', "
            f"'--out', {str(tmp_path / 'r')!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert run.stdout.split() == ["0", "[]"]
