"""The four workloads: fixed op lists, each op with its correctness check.

Every op's random inputs (``--seed``/``seed=``) derive from the one
workload seed, so the same seed gives the same inputs.  ``jumpspec`` is
imported only when a workload is built, inside the worker process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

WORKLOADS = ("contract", "expansion", "resolvent", "montecarlo")
# the parameter expressions each workload parses (timed in setup_s)
PARAMS = {
    "contract": ("sqrt(2)-1", "1/3", "(sqrt(5)-1)/2", "1/pi"),
    "expansion": ("sqrt(2)-1", "1/3"),
    "resolvent": ("1/3", "sqrt(2)-1"),
    "montecarlo": ("1/3", "sqrt(2)-1"),
}

# Ops that fail on the seed commit, with the ROADMAP item that should fix
# each.  They stay in the workloads unchanged; they count in `failed`.
KNOWN_FAILURES = {
    "basis:sqrt(2)-1:K20": "item 4: 1 - cos cancellation, rows k >= 13 off by > 1e-8",
    "basis:sqrt(2)-1:K30": "item 4: ZeroDivisionError at deep convergents",
    "basis:sqrt(2)-1:K40": "item 4: ZeroDivisionError at deep convergents",
    "basis:(sqrt(5)-1)/2:K30": "item 4: 1 - cos cancellation, row k = 23 off by > 1e-8",
    "basis:(sqrt(5)-1)/2:K40": "item 4: 1 - cos cancellation, row k = 23 off by > 1e-8",
    "basis:1/pi:K10": "item 4: 1 - cos cancellation, row k = 4 off by > 1e-8",
    "basis:1/pi:K20": "item 4: ZeroDivisionError at deep convergents",
    "basis:1/pi:K30": "item 4: ZeroDivisionError at deep convergents",
    "basis:1/pi:K40": "item 4: ZeroDivisionError at deep convergents",
    "resolvent:1/3:1": "item 3: PoleAtDirichletEigenvalue off the spectrum",
    "resolvent:1/3:1.000000001": "item 3: PDE residual ~3 near a Dirichlet pole",
    "resolvent:1/3:24.999999999": "item 3: PDE residual ~3 near a Dirichlet pole",
    "resolvent:1/3:36": "item 3: PoleAtDirichletEigenvalue, not PoleAtEigenvalue, "
                        "at an eigenvalue",
    "resolvent:sqrt(2)-1:1": "item 3: PoleAtDirichletEigenvalue off the spectrum",
    "simulate:1/3:horizon1": "item 1: exits 0 with NaN jump rate, not a usage error",
}


@dataclass
class Outcome:
    rc: int | None = None
    exc: BaseException | None = None
    value: object = None


@dataclass
class Op:
    """One operation: ``run(out_dir)`` is timed, ``check`` is not.

    ``check(outcome, out_dir)`` returns (reason or None, gauges).
    """

    id: str
    run: Callable[[Path], Outcome]
    check: Callable[[Outcome, Path], tuple[str | None, dict]]
    inputs: tuple = ()


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).hexdigest()
    return int(digest[:8], 16) % (2 ** 31)


def _cli_op(op_id: str, argv: list[str], check) -> Op:
    def run(out: Path) -> Outcome:
        from jumpspec import cli
        # the program's messages are not part of the result line
        sink = io.StringIO()
        outcome = Outcome()
        with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
            try:
                outcome.rc = cli.main(argv + ["--out", str(out)])
            except Exception as exc:  # an uncaught error is the op's outcome
                outcome.exc = exc
        return outcome
    return Op(op_id, run, check, tuple(argv))


def _api_runner(fn: Callable[[], object]) -> Callable[[Path], Outcome]:
    def run(out: Path) -> Outcome:
        outcome = Outcome()
        try:
            outcome.value, outcome.rc = fn(), 0
        except Exception as exc:  # an uncaught error is the op's outcome
            outcome.exc = exc
        return outcome
    return run


def _completed(outcome: Outcome) -> str | None:
    """Reason when an op raised or did not exit with code 0."""
    if outcome.exc is not None:
        return f"raised {type(outcome.exc).__name__}: {outcome.exc}"
    if outcome.rc != 0:
        return f"exit code {outcome.rc}"
    return None


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def _check_verify(outcome, out):
    reason = _completed(outcome)
    if reason:
        return reason, {}
    report = oracles.load_json(out / "verify.json")
    gram = report["suites"]["gram"]["max_gram_deviation"]
    resolvent = report["suites"]["resolvent"]["max_pde_residual"]
    gauges = {"eigensystem.gram_max_dev": gram, "resolvent.pde_residual_max": resolvent}
    return oracles.check_verify(report), gauges


def _check_metric(outcome, out):
    reason = _completed(outcome)
    if reason:
        return reason, {}
    return oracles.check_metric(oracles.load_json(out / "metric_report.json")), {}


def _basis_check(expr: str, count: int):
    def check(outcome, out):
        reason = _completed(outcome)
        if reason:
            return reason, {}
        reason = oracles.check_projection_rows(oracles.load_csv(out / "projection_norms.csv"))
        blow_reason, worst = oracles.blowup_errors(
            expr, count, oracles.load_csv(out / "blowup.csv"))
        return reason or blow_reason, {"basis_diag.blowup_max_rel_err": worst}
    return check


def contract(seed: int) -> list[Op]:
    ops = []
    for expr in ("sqrt(2)-1", "1/3"):
        ops.append(_cli_op(f"verify:{expr}", ["verify", "--a", expr], _check_verify))
        s = derive_seed(seed, f"metric-check:{expr}")
        ops.append(_cli_op(f"metric-check:{expr}",
                           ["metric-check", "--a", expr, "--seed", str(s)],
                           _check_metric))
    for expr in ("sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi"):
        for count in (10, 20, 30, 40):
            ops.append(_cli_op(f"basis:{expr}:K{count}",
                               ["basis", "--a", expr, "--blowup",
                                "--convergents", str(count)],
                               _basis_check(expr, count)))
    return ops


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

GRAM_PAIRS = 253
TRUNC_N, TRUNC_PROBES = 200, 4


def _gram_op(expr: str) -> Op:
    def compute():
        from jumpspec import eigensystem
        from jumpspec.param import ParamA
        a = ParamA.from_expr(expr)
        pairs = eigensystem.biorthogonalize(a, 4.0 * (GRAM_PAIRS + 4) ** 2)[:GRAM_PAIRS]
        return eigensystem.gram_matrix(pairs)

    def check(outcome, out):
        reason = _completed(outcome)
        if reason:
            return reason, {}
        reason, dev = oracles.check_gram(outcome.value, GRAM_PAIRS)
        return reason, {"eigensystem.gram_max_dev": dev}

    return Op(f"gram:{expr}:{GRAM_PAIRS}", _api_runner(compute), check,
              (expr, GRAM_PAIRS))


def expansion(seed: int) -> list[Op]:
    s = derive_seed(seed, "truncated_completeness")

    def completeness():
        from jumpspec import basis_diag
        from jumpspec.param import ParamA
        return basis_diag.truncated_completeness(
            ParamA.from_expr("sqrt(2)-1"), TRUNC_N, TRUNC_PROBES, seed=s)

    def check(outcome, out):
        reason = _completed(outcome)
        if reason:
            return reason, {}
        return oracles.check_completeness(outcome.value), {}

    return [_gram_op("sqrt(2)-1"), _gram_op("1/3"),
            Op(f"truncated_completeness:sqrt(2)-1:{TRUNC_N}x{TRUNC_PROBES}",
               _api_runner(completeness), check, ("sqrt(2)-1", TRUNC_N, TRUNC_PROBES, s))]


# ---------------------------------------------------------------------------
# resolvent
# ---------------------------------------------------------------------------

# (a, lambda as 're[,im]', svd-n or None); 36 is an eigenvalue for a = 1/3
RESOLVENT_CASES = [
    ("1/3", "-1", 2048), ("1/3", "2.5,1", 1024), ("1/3", "-25", None),
    ("1/3", "0.5", None), ("1/3", "1", None), ("1/3", "1.000000001", None),
    ("1/3", "24.999999999", None), ("1/3", "36", None),
    ("sqrt(2)-1", "-1", None), ("sqrt(2)-1", "1", None),
]
POLES = {("1/3", "36")}


def _check_resolvent(outcome, out):
    reason = _completed(outcome)
    if reason:
        return reason, {}
    report = oracles.load_json(out / "resolvent_report.json")
    for name in ("resolvent_u.csv", "singular_values.csv"):
        oracles.load_csv(out / name)
    return oracles.check_resolvent(report), {"resolvent.pde_residual_max":
                                             report["pde_residual"]}


def _check_pole(outcome, out):
    manifest = None
    if (out / "manifest.json").is_file():
        manifest = oracles.load_json(out / "manifest.json")
    if (out / "resolvent_report.json").is_file():
        return "wrote a resolvent report at an eigenvalue", {}
    if oracles.is_pole_refusal(outcome.exc, outcome.rc, manifest):
        return None, {}
    return f"no pole refusal (exit code {outcome.rc}, {outcome.exc!r})", {}


def _check_spectrum(outcome, out):
    reason = _completed(outcome)
    if reason:
        return reason, {}
    records = oracles.load_json(out / "eigenvalues.json")
    rows = oracles.load_csv(out / "curves.csv")
    return oracles.check_spectrum(records, 1 / 3, 100.0, rows), {}


def resolvent(seed: int) -> list[Op]:
    ops = []
    for expr, lam, svd_n in RESOLVENT_CASES:
        argv = ["resolvent", "--a", expr, "--lambda", lam]
        if svd_n:
            argv += ["--svd-n", str(svd_n)]
        check = _check_pole if (expr, lam) in POLES else _check_resolvent
        ops.append(_cli_op(f"resolvent:{expr}:{lam}", argv, check))
    ops.append(_cli_op("spectrum:1/3:curves", ["spectrum", "--a", "1/3", "--curves"],
                       _check_spectrum))
    return ops


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

# the simulator tests' base configuration: 2000 paths wide, as the repo's
# callers run it, so per-step numpy dispatch does not dominate; the CLI
# defaults (10,000 paths, dt 1e-4) would not fit the run budget
SIM_PATHS, SIM_HORIZON, SIM_DT = 2000, 8.25, 5e-4
A_VALUES = {"1/3": 1 / 3, "sqrt(2)-1": math.sqrt(2) - 1}


def _sim_check(expr: str, from_file: bool, monitor_dt: float | None = None):
    def check(outcome, out):
        reason = _completed(outcome)
        if reason:
            return reason, {}
        if from_file:
            report = oracles.load_json(out / "sim_report.json")
        else:
            report = oracles.parse_json(json.dumps(outcome.value.to_dict()))
        return oracles.check_simulation(A_VALUES[expr], report,
                                        monitor_dt=monitor_dt), {}
    return check


def _check_usage_refusal(outcome, out):
    if outcome.exc is not None:
        return f"raised {type(outcome.exc).__name__}: {outcome.exc}", {}
    if outcome.rc != 2:
        return f"exit code {outcome.rc}, expected the usage-error code 2", {}
    return None, {}


def montecarlo(seed: int) -> list[Op]:
    ops = []
    for expr in ("1/3", "sqrt(2)-1"):
        s = derive_seed(seed, f"simulate:{expr}")
        ops.append(_cli_op(f"simulate:{expr}",
                           ["simulate", "--a", expr, "--seed", str(s),
                            "--paths", str(SIM_PATHS), "--horizon", str(SIM_HORIZON),
                            "--dt", str(SIM_DT)],
                           _sim_check(expr, from_file=True)))
    s = derive_seed(seed, "run:nobridge")

    def nobridge():
        from jumpspec import simulator
        from jumpspec.param import ParamA
        return simulator.run(simulator.SimConfig(
            a=ParamA.from_expr("1/3"), dt=SIM_DT, horizon=SIM_HORIZON,
            n_paths=SIM_PATHS, seed=s, bridge_correction=False))

    ops.append(Op("run:1/3:nobridge", _api_runner(nobridge),
                  _sim_check("1/3", from_file=False, monitor_dt=SIM_DT),
                  ("1/3", SIM_DT, SIM_HORIZON, SIM_PATHS, s, "bridge_correction=False")))
    ops.append(_cli_op("simulate:1/3:horizon1",
                       ["simulate", "--a", "1/3", "--horizon", "1", "--paths", "100"],
                       _check_usage_refusal))
    return ops


BUILDERS = {"contract": contract, "expansion": expansion,
            "resolvent": resolvent, "montecarlo": montecarlo}
