"""Command-line entry point: every module behind one reproducible tool.

Subcommands: spectrum, verify, resolvent, metric-check, basis, simulate.
All outputs are files (JSON/CSV) under --out, accompanied by a run
manifest (command line, parameters, version, seed, outputs, wall time).
CSV floats carry 17 significant digits so reruns are byte-identical.
Exit codes: 0 ok, 1 contract failure, 2 usage error, 3 numerical
failure (a pole, exhausted precision, a vanishing normalization, a failed
SVD); the manifest then carries an `error` record with the exception's
type, message and the stage it failed in.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

import jumpspec
from jumpspec.param import ParamA, NotIrrational, PrecisionExhausted
from jumpspec import basis_diag, eigensystem, metric, resolvent, simulator, spectrum
from jumpspec.funcspace import PiecewiseTrig, const, cos_term, sin_term

FMT = "%.17g"
GAP = 4.0  # the spectral gap, the same for every a in (-1, 1)
# largest |K| of --f sinK: K^2 - lambda stays finite, so the solution's
# coefficient 1/(K^2 - lambda) is a number, not 0 from an overflow
MAX_SOURCE_K = 1e150
# --f: 'const', or 'sin' and K as a decimal number (sin3, sin-2.5, sin1e3)
SOURCE = re.compile(r"const|sin[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# family members `metric-check` accepts.  Its work is linear in them (one
# inner_pairs call and two funcspace.norms calls): 10000 take 1.2-1.7 s
# and 127-133 MB peak RSS as a whole process at sqrt(2)-1, (sqrt(5)-1)/2
# and 1/pi (lambda <= 1e8, 2-core host), and 20000 took 2.4-2.9 s and
# 218 MB, so spectrum's 1e5 members would need about 1 GB
MAX_CONTRACT_MEMBERS = 10000


def _fmt(v) -> str:
    if isinstance(v, complex):
        return f"{FMT % v.real}{'+' if v.imag >= 0 else '-'}{FMT % abs(v.imag)}j"
    return FMT % v


# caught before ValueError, which np.linalg.LinAlgError subclasses
NUMERICAL_FAILURES = (
    resolvent.PoleAtEigenvalue, PrecisionExhausted, eigensystem.DegenerateNormalization,
    ZeroDivisionError, np.linalg.LinAlgError,
)


class Manifest:
    """Run record; `out_dir` is created on the first write."""

    def __init__(self, args: argparse.Namespace):
        self.out_dir = Path(args.out)
        self.stage = args.command
        self.started = time.time()
        self.record = {
            "command_line": sys.argv,
            "parameters": {k: repr(v) for k, v in sorted(vars(args).items())
                           if k != "func"},
            "tool_version": jumpspec.__version__,
            "seed": getattr(args, "seed", None),
            "outputs": [],
        }

    def _path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def write_json(self, name: str, payload) -> Path:
        path = self._path(name)
        path.write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        self.record["outputs"].append(name)
        return path

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        path = self._path(name)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow([c if isinstance(c, (str, int)) else _fmt(c)
                                 for c in row])
        self.record["outputs"].append(name)
        return path

    def finish(self) -> None:
        self.record["wall_time_s"] = round(time.time() - self.started, 3)
        self._path("manifest.json").write_text(
            json.dumps(self.record, indent=2, allow_nan=False) + "\n")

    def fail(self, exc: BaseException) -> None:
        self.record["error"] = {"type": type(exc).__name__, "message": str(exc),
                                "stage": self.stage}
        self.finish()


def _parse_lambda(text: str) -> complex:
    re_s, _, im_s = text.partition(",")
    return resolvent.check_lambda(complex(float(re_s), float(im_s) if im_s else 0.0))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_spectrum(args, man: Manifest) -> int:
    a = ParamA.from_expr(args.a)
    if args.curves:  # the grid and its row count are checked before any work
        try:
            lo, hi, step = map(float, args.a_grid.split(":"))
        except ValueError:
            lo = math.nan  # not three numbers: refused below
        if not (math.isfinite(lo) and lo <= hi < math.inf and 0 < step < math.inf):
            raise ValueError(f"--a-grid {args.a_grid!r}: needs --a-grid lo:hi:step, three "
                             "finite numbers with lo <= hi and step > 0")
        spectrum.check_curves(spectrum.grid_points(lo, hi, step), args.m_max)
    records = spectrum.enumerate_spectrum(a, args.lambda_max)
    if args.curves:
        rows = spectrum.curves(spectrum.curve_grid(lo, hi, step), args.m_max)
    man.write_json("eigenvalues.json", [r.to_dict() for r in records])
    if args.curves:
        man.write_csv("curves.csv", ["a", "class", "m", "lambda"], rows)
    man.finish()
    return 0


def cmd_resolvent(args, man: Manifest) -> int:
    if not SOURCE.fullmatch(args.f):
        raise ValueError(f"--f {args.f!r} is neither 'const' nor 'sinK' with K a decimal "
                         "number (such as sin3, sin-2.5 or sin1e3)")
    a = ParamA.from_expr(args.a)
    lam = _parse_lambda(args.lam)
    resolvent.check_probe(lam, args.svd_n)  # refused before the solve
    if args.f == "const":
        f = PiecewiseTrig.single(const(1.0))
    else:
        freq = float(args.f.removeprefix("sin"))
        if not abs(freq) <= MAX_SOURCE_K:
            raise ValueError(f"--f {args.f!r} needs a wavenumber |K| <= {MAX_SOURCE_K:g} in sinK")
        f = PiecewiseTrig.single(sin_term(math.copysign(1.0, freq), abs(freq)))
    man.stage = "apply_resolvent"
    nodes, u = resolvent.apply_resolvent(lam, f, a)
    man.stage = "residual_report"
    report = resolvent.residual_report(lam, f, a)
    man.stage = "singular_value_probe"
    sv = resolvent.singular_value_probe(lam, a, n=args.svd_n)
    man.write_csv("resolvent_u.csv", ["x", "re", "im"],
                  [(float(x), float(v.real), float(v.imag)) for x, v in zip(nodes, u)])
    man.write_csv("singular_values.csv", ["j", "s"],
                  [(j + 1, s) for j, s in enumerate(sv["singular_values"])])
    man.write_json("resolvent_report.json", {
        "boundary_deviation": report["boundary_deviation"],
        "pde_residual": report["pde_residual"],
        "svd_decay_exponent": sv["decay_exponent"],
        "trace_norm_estimate": sv["trace_norm_estimate"],
        "truncation_bound": sv["truncation_bound"],
    })
    man.finish()
    return 0


def _metric_contract(a: ParamA, lambda_max: float) -> dict:
    """Theta on the biorthogonal family up to lambda_max: the numbers of
    `metric.MetricOp.root_system_report` (Theta psi_j must be c_j phi_j
    with c_j > 0, checked member by member, so (psi_i, Theta psi_j) =
    c_j delta_ij for every i) and the bounds they break.  No input is
    random.  At rational a the failures are informational: Theta is not
    injective on the exceptional root spaces.
    """
    op = metric.MetricOp.build(a)
    report = op.root_system_report(eigensystem.biorthogonalize(a, lambda_max))
    report["contract_failures"] = metric.contract_failures(report)
    return report


def cmd_metric_check(args, man: Manifest) -> int:
    a = ParamA.from_expr(args.a)
    # the family's size is known in milliseconds, before the contract's work
    members = sum(len(rec.memberships) for rec in spectrum.enumerate_spectrum(a, args.lambda_max))
    if members > MAX_CONTRACT_MEMBERS:
        raise ValueError(f"--lambda-max {args.lambda_max:g} holds {members} family members, "
                         f"above metric-check's cap of {MAX_CONTRACT_MEMBERS}")
    # milliseconds, and it refuses a bad --convergents before the contract
    rayleigh = {} if a.is_rational else {
        "rayleigh_sequence": metric.noninvertibility_probe(a, args.convergents)}
    payload = {"a": str(a), "irrational": not a.is_rational,
               **_metric_contract(a, args.lambda_max),
               "contracts_informational_only": a.is_rational, **rayleigh}
    man.write_json("metric_report.json", payload)
    man.finish()
    return 1 if payload["contract_failures"] and not a.is_rational else 0


def cmd_basis(args, man: Manifest) -> int:
    a = ParamA.from_expr(args.a)
    # every argument is checked before a slow stage starts (--m-max and
    # --convergents here, lambda_max's member cap as the spectrum is enumerated;
    # the convergent table takes milliseconds), and everything is computed
    # before the first write, so a refused argument or a failed stage
    # leaves no partial output
    if args.blowup and a.is_rational:
        basis_diag.check_bound_m(args.m_max)
    elif args.blowup:
        table = basis_diag.blowup_probe(a, args.convergents)
    rows = [(pn.which.value, pn.record.lam, pn.closed_form, pn.pairing)
            for pn in basis_diag.projection_norms(a, args.lambda_max)]
    if args.blowup and a.is_rational:
        report = basis_diag.rational_bound_check(a, args.m_max)
    man.write_csv("projection_norms.csv",
                  ["which", "lambda", "norm_closed", "norm_pairing"], rows)
    if args.blowup and a.is_rational:
        man.write_json("rational_bounds.json", report)
    elif args.blowup:
        man.write_csv("blowup.csv", ["k", "q", "m", "norm"],
                      [(r.k, r.q, r.m, r.norm) for r in table])
    man.finish()
    return 0


def cmd_simulate(args, man: Manifest) -> int:
    a = ParamA.from_expr(args.a)
    cfg = simulator.SimConfig(a=a, dt=args.dt, horizon=args.horizon,
                              n_paths=args.paths, seed=args.seed)
    if args.gap:
        # psi at the gap, from the right-piece midpoint where it never
        # vanishes; its walk is refused, like run's, before any walk
        rec = next(r for r in spectrum.enumerate_spectrum(a, GAP + 0.5)
                   if abs(r.lam - GAP) < 1e-9)
        psi = eigensystem.eigenfunctions_H(rec, a)[0]
        simulator.check_steps(cfg, GAP)
    report = simulator.run(cfg)
    if args.gap:
        man.stage = "semigroup_check"
        report.gap_max_z = simulator.semigroup_check(
            cfg, [psi], GAP, simulator.HALF_PI * (1 + a.value) / 2)
    man.write_json("sim_report.json", report.to_dict())
    centers = 0.5 * (report.bin_edges[:-1] + report.bin_edges[1:])
    man.write_csv("histogram.csv", ["x", "density"],
                  list(zip(centers, report.bin_density)))
    man.finish()
    return 1 if args.gap and report.gap_max_z > simulator.Z_BOUND else 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------

def _suite_gram(a: ParamA) -> dict:
    pairs = eigensystem.biorthogonalize(a, 32.0 ** 2)[:30]  # (N+2)^2 holds N pairs
    g = eigensystem.gram_matrix(pairs)
    dev = float(np.max(np.abs(g - np.eye(len(pairs)))))
    return {"max_gram_deviation": dev, "passed": dev < 1e-9}


def _suite_resolvent(a: ParamA) -> dict:
    worst_b, worst_r = 0.0, 0.0
    rng = np.random.default_rng(5)
    for lam in (-1.0, -2.0, 2.5 + 1j):
        for _ in range(3):
            c = rng.normal(size=4)
            f = PiecewiseTrig.single([cos_term(c[0], 1.0), sin_term(c[1], 2.0),
                                      cos_term(c[2], 3.0), const(c[3])])
            rep = resolvent.residual_report(lam, f, a)
            worst_b = max(worst_b, rep["boundary_deviation"])
            worst_r = max(worst_r, rep["pde_residual"])
    sv = resolvent.singular_value_probe(-1.0, a, 512)
    return {"max_boundary_deviation": worst_b, "max_pde_residual": worst_r,
            "svd_decay_exponent": sv["decay_exponent"],
            "passed": worst_b < 1e-8 and worst_r < 1e-6
            and sv["decay_exponent"] <= -1.8}


def _suite_metric(a: ParamA) -> dict:
    out = {**_metric_contract(a, 200.0), "informational_only": a.is_rational}
    out["passed"] = a.is_rational or not out["contract_failures"]
    return out


def _suite_projections(a: ParamA) -> dict:
    worst = max((abs(pn.closed_form - pn.pairing) / pn.closed_form
                 for pn in basis_diag.projection_norms(a, 900.0)), default=0.0)
    return {"max_relative_deviation": worst, "passed": worst < 1e-8}


def cmd_verify(args, man: Manifest) -> int:
    a = ParamA.from_expr(args.a)
    suites = {"gram": _suite_gram, "resolvent": _suite_resolvent,
              "metric": _suite_metric, "projections": _suite_projections}
    chosen = list(suites) if args.suite == "all" else [args.suite]
    results = {}
    for name in chosen:
        man.stage = f"verify.{name}"
        results[name] = suites[name](a)
    ok = all(r["passed"] for r in results.values())
    man.write_json("verify.json", {"a": str(a), "suites": results, "passed": ok})
    man.finish()
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpspec", description="spectral toolkit for the boundary-jump Laplacian")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--a", required=True, help="jump parameter expression")
        p.add_argument("--out", default="out")
        p.set_defaults(func=func)
        return p

    p = command("spectrum", cmd_spectrum, "enumerate eigenvalues / emit curves")
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=100.0)
    p.add_argument("--curves", action="store_true")
    p.add_argument("--a-grid", dest="a_grid", default="-0.95:0.95:0.01",
                   help="lo:hi:step for the curve family")
    p.add_argument("--m-max", dest="m_max", type=int, default=4)

    p = command("verify", cmd_verify, "run contract suites")
    p.add_argument("--suite", choices=["gram", "resolvent", "metric",
                                       "projections", "all"], default="all")

    p = command("resolvent", cmd_resolvent, "apply the resolvent and probe decay")
    p.add_argument("--lambda", dest="lam", required=True,
                   help="complex lambda as 're,im'")
    p.add_argument("--f", default="const", help="'const' or 'sinK'")
    p.add_argument("--svd-n", dest="svd_n", type=int, default=512,
                   help="N sine modes of the exact resolvent matrix, 64 to 2048; "
                        "the probe reports N + 1 singular values")

    p = command("metric-check", cmd_metric_check, "metric operator diagnostics")
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=120.0)
    p.add_argument("--convergents", type=int, default=8)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in the manifest only; the contract reads no random input")

    p = command("basis", cmd_basis, "projection norms and blow-up tables")
    p.add_argument("--lambda-max", dest="lambda_max", type=float, default=900.0)
    p.add_argument("--blowup", action="store_true")
    p.add_argument("--convergents", type=int, default=8)
    p.add_argument("--m-max", dest="m_max", type=int, default=100)

    p = command("simulate", cmd_simulate, "restarted Brownian motion Monte Carlo")
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap", action="store_true",
                   help="also check that psi at the gap 4 decays as exp(-4t); exit 1 "
                   f"when its worst |z| exceeds {simulator.Z_BOUND:g}")
    return parser


def _join_signed_values(argv: list[str]) -> list[str]:
    """Join `--a -9/10` into `--a=-9/10` (likewise `--lambda -1e6` and
    `--a-grid -0.5:0.5:0.25`): argparse would take a value that starts with
    "-" for an option of its own."""
    joined: list[str] = []
    for token in argv:
        if (joined and joined[-1] in ("--a", "--lambda", "--a-grid")
                and token.startswith("-")):
            joined[-1] = f"{joined[-1]}={token}"
        else:
            joined.append(token)
    return joined


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    man = Manifest(args)
    try:
        return args.func(args, man)
    except NUMERICAL_FAILURES as exc:
        man.fail(exc)
        print(f"jumpspec: numerical failure in {man.stage}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, NotIrrational) as exc:
        print(f"jumpspec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
