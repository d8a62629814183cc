import argparse
import json
import math

import pytest

from jumpspec.cli import Manifest, main


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
    payload = json.loads((out / "verify.json").read_text())
    assert payload["suites"]["metric"]["informational_only"]


def test_resolvent_subcommand(tmp_path):
    out = tmp_path / "r"
    assert run_cli(["resolvent", "--a", "1/3", "--lambda=-1,0",
                    "--f", "const", "--svd-n", "192", "--out", str(out)]) == 0
    payload = json.loads((out / "resolvent_report.json").read_text())
    assert payload["boundary_deviation"] < 1e-10
    lines = (out / "resolvent_u.csv").read_text().strip().splitlines()
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
    assert payload["positivity_min"] > -1e-12
    assert min(v for _, v in payload["rayleigh_sequence"]) < 1e-2


def test_usage_errors():
    assert run_cli(["spectrum"]) == 2          # missing --a
    assert run_cli(["bogus"]) == 2
    assert run_cli(["spectrum", "--a", "3/2", "--out", "/tmp/x1"]) == 2

def test_simulate_without_post_burn_in_samples_is_a_usage_error(tmp_path):
    out = tmp_path / "h1"
    assert run_cli(["simulate", "--a", "1/3", "--horizon", "1", "--paths", "100",
                    "--out", str(out)]) == 2
    assert not (out / "sim_report.json").exists()


def test_numerical_failure_exits_3_with_an_error_record(tmp_path):
    out = tmp_path / "pole"
    # 36 is an eigenvalue at a = 1/3
    assert run_cli(["resolvent", "--a", "1/3", "--lambda", "36",
                    "--out", str(out)]) == 3
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error["type"] == "PoleAtEigenvalue"
    assert error["stage"] == "apply_resolvent" and error["message"]
    assert not (out / "resolvent_report.json").exists()


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


def test_json_outputs_refuse_nan(tmp_path):
    man = Manifest(argparse.Namespace(command="spectrum", out=str(tmp_path / "n")))
    with pytest.raises(ValueError):
        man.write_json("report.json", {"rate": float("nan")})
    man.record["wall"] = float("inf")
    with pytest.raises(ValueError):
        man.finish()
