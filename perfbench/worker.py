"""Run one workload in this (fresh) process and print its result as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
Before each pass and after the last, SETUP_PROBES fresh interpreters time
the import of ``jumpspec.cli`` and the parsing of the workload's
parameters (``setup_s`` is the median of their scaled times).
Passes over the workload's op list repeat while the next one, assumed as
long as the last, still ends within ``--seconds``; there are at least two.
Each op is timed alone, between two timings of the reference unit
(calib.py) that scale it to the reference speed; its correctness check
runs outside the timed region and outside any span.  With ``--trace 1``
every op runs untraced and then traced, so the run also measures the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import spans
import workloads

HERE = Path(__file__).resolve().parent

# set-up probes before each pass and after the last, so their median
# samples the machine over the whole run
SETUP_PROBES = 4

# the reference unit runs in the probe itself, after the timed import: the
# probe may run on the other core, whose speed can differ from this one's
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import jumpspec.cli
from jumpspec.param import ParamA
for expr in sys.argv[2:]:
    ParamA.from_expr(expr)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import calib
print(jumpspec.cli.__file__)
print(repr(t1 - t0))
print(repr(calib.unit_s()))
"""


def measure_setup(root: Path, exprs: list[str], setup: dict) -> None:
    """Time fresh interpreters importing jumpspec.cli and parsing exprs,
    raw and scaled to the reference speed."""
    want = root / "src" / "jumpspec" / "cli.py"
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE), *exprs],
                              cwd=root, capture_output=True, text=True, timeout=60)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) < 3 or Path(lines[-3]).resolve() != want:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        wall, unit = float(lines[-2]), float(lines[-1])
        setup["wall"].append(wall)
        setup["scaled"].append(calib.scaled(wall, unit, unit))


def run_op(op, op_idx: int, out_root: Path, tracer: spans.Tracer | None,
           traced: bool, verdicts: dict, gauges: dict) -> tuple[float, float, float, float]:
    """Run and check one op; returns the run's wall seconds, CPU seconds,
    wall seconds scaled to the reference speed, and reference unit time."""
    out = out_root / f"op{op_idx}"
    shutil.rmtree(out, ignore_errors=True)
    before = calib.unit_s()
    if tracer is not None:
        tracer.enabled, tracer.op = traced, op_idx
    c0, t0 = time.process_time(), time.perf_counter()
    outcome = op.run(out)
    t1, c1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.enabled = False
    after = calib.unit_s()
    try:
        reason, op_gauges = op.check(outcome, out)
    except Exception as exc:  # output the check cannot read fails the op
        reason, op_gauges = f"bad output: {type(exc).__name__}: {exc}", {}
    shutil.rmtree(out, ignore_errors=True)
    verdict = verdicts.setdefault(op.id, {"seconds": [], "scaled_seconds": [], "reasons": []})
    scaled = calib.scaled(t1 - t0, before, after)
    verdict["seconds"].append(t1 - t0)
    verdict["scaled_seconds"].append(scaled)
    verdict["reasons"].append(reason)
    for name, value in op_gauges.items():
        gauges[name] = max(gauges.get(name, 0.0), float(value))
    return t1 - t0, c1 - c0, scaled, (before + after) / 2.0


def run_pass(ops, out_root: Path, tracer: spans.Tracer | None,
             verdicts: dict, gauges: dict) -> dict:
    """One pass over the ops.  With a tracer each op runs twice in a row,
    untraced then traced, so the overhead is measured on adjacent runs."""
    record = {"wall": 0.0, "cpu": 0.0, "scaled": 0.0}
    units = []
    if tracer is not None:
        record["traced_wall"] = record["traced_scaled"] = 0.0
    for op_idx, op in enumerate(ops):
        wall, cpu, scaled, unit = run_op(op, op_idx, out_root, tracer, False, verdicts, gauges)
        record["wall"] += wall
        record["cpu"] += cpu
        record["scaled"] += scaled
        units.append(unit)
        if tracer is not None:
            wall, _, scaled, _ = run_op(op, op_idx, out_root, tracer, True, verdicts, gauges)
            record["traced_wall"] += wall
            record["traced_scaled"] += scaled
    record["unit_s"] = statistics.median(units)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    # one core for the whole run, set-up probes included: the reference
    # units must run on the core whose speed they stand for, and the
    # other core's speed can differ at the same moment
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    import jumpspec
    if Path(jumpspec.__file__).resolve().parent != root / "src" / "jumpspec":
        print(f"perfbench: imported jumpspec from {jumpspec.__file__}, "
              f"not from {root / 'src'}", file=sys.stderr)
        return 1
    import numpy
    # the tracer rebinds names only in modules already imported
    from jumpspec import basis_diag, cli, eigensystem, metric, resolvent, simulator  # noqa: F401

    ops = workloads.BUILDERS[args.workload](args.seed)
    out_root = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()

    verdicts: dict = {}
    gauges: dict = {}
    exprs = list(workloads.PARAMS[args.workload])
    passes, setup = [], {"wall": [], "scaled": []}
    started = time.perf_counter()
    while True:
        last = time.perf_counter()
        measure_setup(root, exprs, setup)
        passes.append(run_pass(ops, out_root, tracer, verdicts, gauges))
        if len(passes) == 1:
            # the second pass can run higher, on a heap the first left
            # fragmented, so peak_rss_mb would depend on the pass count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        now = time.perf_counter()
        # the next pass is assumed to last as long as this one
        if len(passes) >= 2 and now + (now - last) - started > args.seconds:
            break
    shutil.rmtree(out_root, ignore_errors=True)
    try:
        out_root.parent.rmdir()
    except OSError:  # not empty: another run shares the checkout
        pass
    measure_setup(root, exprs, setup)

    failed_ops = {op_id: next(r for r in v["reasons"] if r)
                  for op_id, v in verdicts.items() if any(v["reasons"])}
    result = {
        "passes": passes,
        "setup_s": setup,
        "attempted": sum(len(v["reasons"]) for v in verdicts.values()),
        "failed": sum(sum(1 for r in v["reasons"] if r) for v in verdicts.values()),
        "unexpected_failures": sorted(set(failed_ops) - set(workloads.KNOWN_FAILURES)),
        "ops": {op.id: {"inputs": op.inputs, "seconds": verdicts[op.id]["seconds"],
                        "scaled_seconds": verdicts[op.id]["scaled_seconds"],
                        "outcome": "fail" if op.id in failed_ops else "pass",
                        "reason": failed_ops.get(op.id),
                        "known_failure": workloads.KNOWN_FAILURES.get(op.id)}
                for op in ops},
        "gauges": gauges,
        "peak_rss_mb": peak_rss_mb,
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": _blas_version(numpy),
            "calib_ref_s": calib.REF_S,
            "pinned_core": core,
        },
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = len(tracer.log)
        result["untraced"] = tracer.untraced
        result["counter_errors"] = tracer.counter_errors
        result["summary"] = tracer.log.summary()
        result["counters"] = dict(tracer.counters)
    print(json.dumps(result))
    return 0


def _blas_version(numpy) -> str:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
