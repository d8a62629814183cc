"""jumpspec benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload contract --seed 1 --seconds 30 --trace 0

The workload runs in one fresh process (worker.py), which also measures
the set-up time in further fresh interpreters between its passes; this
process only starts it and waits.  Times are scaled to a reference host
speed by the reference unit in calib.py; the raw wall times are in the
record and in the traced run.  The last line of standard output is the
result JSON; the line before it is the run record (seed, machine, per-op
outcomes).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0
# one BLAS thread, so that the work runs on one core like the reference
# unit that scales its times (calib.py)
BLAS_THREADS = 1

# end-to-end metrics, reported with --trace 0
END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics, reported with --trace 1; work counts and seconds are
# per traced pass
PER_LAYER = {
    "fail_frac": "ratio",
    "path_steps_per_s": "1/s",
    "pass_s.q1": "s",
    "pass_s.q3": "s",
    "pass_s.samples": "count",
    "pass_s.wall": "s",
    "setup_s.wall": "s",
    "calib.unit_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "process.cpu_s": "s",
    "cli.verify.s": "s",
    "cli.metric-check.s": "s",
    "cli.basis.s": "s",
    "cli.resolvent.s": "s",
    "cli.spectrum.s": "s",
    "cli.simulate.s": "s",
    "param.from_expr.s": "s",
    "param.convergents.calls": "count",
    "param.convergents.s": "s",
    "param.cos_pi_linear.calls": "count",
    "param.cos_pi_linear.s": "s",
    "spectrum.enumerate_spectrum.s": "s",
    "spectrum.enumerate_spectrum.records": "count",
    "funcspace.inner_closed.calls": "count",
    "funcspace.inner_closed.term_pairs": "count",
    "funcspace.inner_closed.self_s": "s",
    "funcspace.inner_closed.term_pairs_per_s": "1/s",
    "funcspace.inner_closed.self_share": "ratio",
    "funcspace.algebra.self_s": "s",
    "funcspace.quad_inner.calls": "count",
    "funcspace.quad_inner.self_s": "s",
    "funcspace.sample.calls": "count",
    "funcspace.grid_nodes.self_s": "s",
    "eigensystem.biorthogonalize.self_s": "s",
    "eigensystem.biorthogonalize.pairs": "count",
    "eigensystem.gram_matrix.self_s": "s",
    "eigensystem.gram_matrix.entries": "count",
    "eigensystem.gram_max_dev": "abs",
    "metric.quadratic_form.calls": "count",
    "metric.quadratic_form.self_s": "s",
    "metric.apply.self_s": "s",
    "metric.project_pieces.self_s": "s",
    "metric.quasi_self_adjointness_residual.self_s": "s",
    "basis_diag.projection_norm.calls": "count",
    "basis_diag.projection_norm.self_s": "s",
    "basis_diag.expansion_residuals.self_s": "s",
    "basis_diag.blowup_max_rel_err": "rel",
    "resolvent.dirichlet_resolvent_values.calls": "count",
    "resolvent.dirichlet_resolvent_values.self_s": "s",
    "resolvent.residual_report.self_s": "s",
    "resolvent.singular_value_probe.self_s": "s",
    "resolvent.kernel_matrix.self_s": "s",
    "resolvent.kernel_matrix.bytes": "B-computed",
    "resolvent.svd_kernel_share": "ratio",
    "resolvent.pde_residual_max": "rel",
    "simulator.run.s": "s",
    "simulator.run.share": "ratio",
    "simulator.run.path_steps": "count",
    "simulator.bridge.path_steps_per_s": "1/s",
    "simulator.nobridge.path_steps_per_s": "1/s",
    "simulator.jumps_per_path_step": "ratio",
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def child_env(root: Path, blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    env["PYTHONHASHSEED"] = "0"
    env.pop("JUMPSPEC_THREADS", None)
    return env


def src_identity(root: Path) -> tuple[int, str]:
    """(line count, sha256) of the package sources under src/."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def per_layer(res: dict) -> dict[str, float]:
    """Per-layer metrics from the worker's span summary and counters."""
    passes = res["passes"]
    plain = [p["wall"] for p in passes]
    scaled = [p["scaled"] for p in passes]
    traced = [p["traced_wall"] for p in passes]
    traced_scaled = [p["traced_scaled"] for p in passes]
    n_t = len(traced)
    summary, counters, gauges = res["summary"], res["counters"], res["gauges"]

    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0) / n_t

    def count(name: str) -> float:
        return counters.get(name, 0.0) / n_t

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    q1, _, q3 = quartiles(scaled)
    med_traced = statistics.median(traced)
    out = {
        "fail_frac": res["failed"] / res["attempted"],
        "pass_s.q1": q1, "pass_s.q3": q3, "pass_s.samples": len(scaled),
        "pass_s.wall": statistics.median(plain),
        "setup_s.wall": statistics.median(res["setup_s"]["wall"]),
        "calib.unit_s": statistics.median(p["unit_s"] for p in passes),
        "trace.pass_s": statistics.median(traced_scaled),
        "trace.overhead_s": statistics.median(t - s for t, s in zip(traced_scaled, scaled)),
        "trace.spans": res["spans"] / n_t,
        "process.cpu_s": statistics.median(p["cpu"] for p in passes),
    }
    for cmd in ("verify", "metric-check", "basis", "resolvent", "spectrum", "simulate"):
        out[f"cli.{cmd}.s"] = span(f"cli.{cmd}", "s")
    for name in ("param.from_expr", "param.convergents", "param.cos_pi_linear",
                 "spectrum.enumerate_spectrum", "simulator.run"):
        out[f"{name}.s"] = span(name, "s")
    for name in ("param.convergents", "param.cos_pi_linear", "funcspace.inner_closed",
                 "funcspace.quad_inner", "funcspace.sample", "metric.quadratic_form",
                 "basis_diag.projection_norm", "resolvent.dirichlet_resolvent_values"):
        out[f"{name}.calls"] = span(name, "calls")
    for name in ("funcspace.inner_closed", "funcspace.algebra", "funcspace.quad_inner",
                 "funcspace.grid_nodes", "eigensystem.biorthogonalize",
                 "eigensystem.gram_matrix", "metric.quadratic_form", "metric.apply",
                 "metric.project_pieces", "metric.quasi_self_adjointness_residual",
                 "basis_diag.projection_norm", "basis_diag.expansion_residuals",
                 "resolvent.dirichlet_resolvent_values", "resolvent.residual_report",
                 "resolvent.singular_value_probe", "resolvent.kernel_matrix"):
        out[f"{name}.self_s"] = span(name, "self_s")
    for name in ("spectrum.enumerate_spectrum.records", "funcspace.inner_closed.term_pairs",
                 "eigensystem.biorthogonalize.pairs", "eigensystem.gram_matrix.entries",
                 "resolvent.kernel_matrix.bytes"):
        out[name] = count(name)
    out["funcspace.inner_closed.term_pairs_per_s"] = ratio(
        out["funcspace.inner_closed.term_pairs"], out["funcspace.inner_closed.self_s"])
    out["funcspace.inner_closed.self_share"] = ratio(
        out["funcspace.inner_closed.self_s"], med_traced)
    out["resolvent.svd_kernel_share"] = ratio(
        out["resolvent.singular_value_probe.self_s"] + out["resolvent.kernel_matrix.self_s"],
        med_traced)
    out["simulator.run.share"] = ratio(out["simulator.run.s"], med_traced)
    steps = {m: counters.get(f"simulator.{m}.path_steps", 0.0) for m in ("bridge", "nobridge")}
    secs = {m: counters.get(f"simulator.{m}.s", 0.0) for m in ("bridge", "nobridge")}
    for mode in steps:
        out[f"simulator.{mode}.path_steps_per_s"] = ratio(steps[mode], secs[mode])
    out["simulator.run.path_steps"] = sum(steps.values()) / n_t
    out["path_steps_per_s"] = ratio(sum(steps.values()), sum(secs.values()))
    out["simulator.jumps_per_path_step"] = ratio(
        counters.get("simulator.jumps", 0.0), counters.get("simulator.post_burn_path_steps", 0.0))
    for name in ("eigensystem.gram_max_dev", "basis_diag.blowup_max_rel_err",
                 "resolvent.pde_residual_max"):
        out[name] = gauges.get(name, 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "jumpspec" / "__init__.py").is_file():
        print(f"perfbench: no jumpspec sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(root, BLAS_THREADS)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--root", str(root)],
            env=env, cwd=root, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S)
    except subprocess.TimeoutExpired as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    scaled = [p["scaled"] for p in res["passes"]]
    q1, pass_s, q3 = quartiles(scaled)
    lines, sha = src_identity(root)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(root), "src_sha256": sha,
        "src_lines": lines, "nproc": nproc, "cpu_model": cpu_model(),
        **res["machine"], "blas_threads": BLAS_THREADS,
        "setup_runs_s": res["setup_s"],
        "pass_s": {"median": pass_s, "q1": q1, "q3": q3, "samples": len(scaled),
                   "wall_median": statistics.median(p["wall"] for p in res["passes"])},
        "passes": res["passes"],
        "ops": res["ops"],
        "unexpected_failures": res["unexpected_failures"],
    }
    if args.trace:
        record["untraced_targets"] = res["untraced"]
        record["counter_errors"] = res["counter_errors"]
        metrics = per_layer(res)
        units = PER_LAYER
    else:
        metrics = {"setup_s": statistics.median(res["setup_s"]["scaled"]), "pass_s": pass_s,
                   "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not res["unexpected_failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
