"""In-memory span recorder that wraps jumpspec's public functions from outside.

A span is (name, start, end, parent, op id).  Spans live in flat arrays
until the run ends; self time is a span's duration minus the part of it
that its direct child spans cover.  Counters (term pairs, path-steps,
bytes, ...) are computed from the call arguments and results at the same
boundaries, so the ratios are measured where the work happens.  Counting
runs in a ``perfbench.counter`` span under the caller, so its time is
charged to no jumpspec function.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from array import array
from collections import defaultdict

HALF_PI = math.pi / 2
# span name of the benchmark's own counting work inside a traced call's parent
COUNTER_SPAN = "perfbench.counter"


class SpanLog:
    """Spans in parallel arrays; indices are assigned at span start."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, name: str, start: float, end: float, parent: int = -1,
            op: int = -1) -> int:
        """Append a finished span."""
        idx = self.open(self.intern(name), start, parent, op)
        self.end[idx] = end
        return idx

    def open(self, nid: int, start: float, parent: int, op: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(start)
        self.end.append(math.nan)
        self.parent.append(parent)
        self.op.append(op)
        return idx

    def self_times(self) -> list[float]:
        """Duration minus the union of the direct children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for idx, par in enumerate(self.parent):
            if par >= 0:
                children[par].append(idx)
        out = []
        for idx in range(len(self)):
            lo, hi = self.start[idx], self.end[idx]
            covered = 0.0
            cur_lo = cur_hi = None
            for c in sorted(children.get(idx, ()), key=self.start.__getitem__):
                c_lo, c_hi = max(self.start[c], lo), min(self.end[c], hi)
                if c_hi <= c_lo:
                    continue
                if cur_hi is None or c_lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = c_lo, c_hi
                else:
                    cur_hi = max(cur_hi, c_hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out.append((hi - lo) - covered)
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds (outermost spans only), self_s."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for idx in range(len(self)):
            name = self.names[self.name_id[idx]]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[idx]
            if not self._has_ancestor_named(idx, self.name_id[idx]):
                row["s"] += self.end[idx] - self.start[idx]
        return out

    def _has_ancestor_named(self, idx: int, nid: int) -> bool:
        par = self.parent[idx]
        while par >= 0:
            if self.name_id[par] == nid:
                return True
            par = self.parent[par]
        return False


# ---------------------------------------------------------------------------
# counters computed from call arguments
# ---------------------------------------------------------------------------

def _piece_term_count(fn, lo: float, hi: float) -> int:
    mid = 0.5 * (lo + hi)
    for piece in fn.pieces:
        if piece.lo - 1e-12 <= mid <= piece.hi + 1e-12:
            return len(piece.terms)
    raise ValueError("segment outside the function's pieces")


def term_pairs(f, g) -> int:
    """Term pairs inner_closed(f, g) integrates: per common segment, |f|*|g|."""
    cuts = {-HALF_PI, HALF_PI}
    for fn in (f, g):
        cuts.update(p.hi for p in fn.pieces[:-1])
    edges = sorted(cuts)
    return sum(_piece_term_count(f, lo, hi) * _piece_term_count(g, lo, hi)
               for lo, hi in zip(edges, edges[1:]))


def path_steps(cfg) -> int:
    """Path-steps simulator.run performs: paths x round(horizon / dt)."""
    return cfg.n_paths * int(round(cfg.horizon / cfg.dt))


def _count_inner(counters, args, kwargs, result, dur):
    counters["funcspace.inner_closed.term_pairs"] += term_pairs(*args[:2])


def _count_records(counters, args, kwargs, result, dur):
    counters["spectrum.enumerate_spectrum.records"] += len(result)


def _count_pairs(counters, args, kwargs, result, dur):
    counters["eigensystem.biorthogonalize.pairs"] += len(result)


def _count_entries(counters, args, kwargs, result, dur):
    counters["eigensystem.gram_matrix.entries"] += len(args[0]) ** 2


def _count_kernel(counters, args, kwargs, result, dur):
    # args = (self, xs, ys); the complex128 matrix the call returns
    counters["resolvent.kernel_matrix.bytes"] += len(args[1]) * len(args[2]) * 16


def _count_sim(counters, args, kwargs, result, dur):
    cfg = args[0]
    mode = "bridge" if cfg.bridge_correction else "nobridge"
    steps = path_steps(cfg)
    counters[f"simulator.{mode}.path_steps"] += steps
    counters[f"simulator.{mode}.s"] += dur
    post_burn = cfg.n_paths * max(int(round((cfg.horizon - cfg.burn_in) / cfg.dt)), 0)
    if post_burn and math.isfinite(result.jumps_per_unit_time):
        counters["simulator.jumps"] += round(result.jumps_per_unit_time
                                             * result.time_units)
        counters["simulator.post_burn_path_steps"] += post_burn


# (module, attribute path, span name, counter); a target missing from the
# program is skipped and listed as untraced.
TARGETS = [
    ("jumpspec.cli", "cmd_verify", "cli.verify", None),
    ("jumpspec.cli", "cmd_metric_check", "cli.metric-check", None),
    ("jumpspec.cli", "cmd_basis", "cli.basis", None),
    ("jumpspec.cli", "cmd_resolvent", "cli.resolvent", None),
    ("jumpspec.cli", "cmd_spectrum", "cli.spectrum", None),
    ("jumpspec.cli", "cmd_simulate", "cli.simulate", None),
    ("jumpspec.param", "ParamA.from_expr", "param.from_expr", None),
    ("jumpspec.param", "convergents", "param.convergents", None),
    ("jumpspec.param", "cos_pi_linear", "param.cos_pi_linear", None),
    ("jumpspec.spectrum", "enumerate_spectrum", "spectrum.enumerate_spectrum",
     _count_records),
    ("jumpspec.funcspace", "inner_closed", "funcspace.inner_closed", _count_inner),
    ("jumpspec.funcspace", "PiecewiseTrig.__add__", "funcspace.algebra", None),
    ("jumpspec.funcspace", "PiecewiseTrig.__sub__", "funcspace.algebra", None),
    ("jumpspec.funcspace", "PiecewiseTrig.scaled", "funcspace.algebra", None),
    ("jumpspec.funcspace", "PiecewiseTrig.derivative", "funcspace.algebra", None),
    ("jumpspec.funcspace", "canonical_terms", "funcspace.algebra", None),
    ("jumpspec.funcspace", "quad_inner", "funcspace.quad_inner", None),
    ("jumpspec.funcspace", "sample", "funcspace.sample", None),
    ("jumpspec.funcspace", "grid_nodes", "funcspace.grid_nodes", None),
    ("jumpspec.eigensystem", "biorthogonalize", "eigensystem.biorthogonalize",
     _count_pairs),
    ("jumpspec.eigensystem", "gram_matrix", "eigensystem.gram_matrix",
     _count_entries),
    ("jumpspec.metric", "MetricOp.quadratic_form", "metric.quadratic_form", None),
    ("jumpspec.metric", "MetricOp.apply", "metric.apply", None),
    ("jumpspec.metric", "project_pieces", "metric.project_pieces", None),
    ("jumpspec.metric", "MetricOp.quasi_self_adjointness_residual",
     "metric.quasi_self_adjointness_residual", None),
    ("jumpspec.basis_diag", "projection_norm", "basis_diag.projection_norm", None),
    ("jumpspec.basis_diag", "expansion_residuals", "basis_diag.expansion_residuals",
     None),
    ("jumpspec.resolvent", "dirichlet_resolvent_values",
     "resolvent.dirichlet_resolvent_values", None),
    ("jumpspec.resolvent", "residual_report", "resolvent.residual_report", None),
    ("jumpspec.resolvent", "singular_value_probe", "resolvent.singular_value_probe",
     None),
    ("jumpspec.resolvent", "ResolventKernel.kernel_matrix", "resolvent.kernel_matrix",
     _count_kernel),
    ("jumpspec.simulator", "run", "simulator.run", _count_sim),
]


class Tracer:
    """Installs span-recording wrappers; records only while ``enabled``."""

    def __init__(self):
        self.log = SpanLog()
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.op = -1
        self.untraced: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._main = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, counter=None):
        nid = self.log.intern(name)
        counter_nid = self.log.intern(COUNTER_SPAN)
        log, stack, counters = self.log, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or threading.get_ident() != self._main:
                return fn(*args, **kwargs)
            idx = log.open(nid, clock(), stack[-1] if stack else -1, self.op)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[idx] = clock()
                stack.pop()
            if counter is not None:
                # the counter is the benchmark's own work: a child span of
                # the caller keeps it out of the caller's self time
                cidx = log.open(counter_nid, clock(), stack[-1] if stack else -1, self.op)
                try:
                    counter(counters, args, kwargs, result,
                            log.end[idx] - log.start[idx])
                except (AttributeError, TypeError, ValueError) as exc:
                    # a changed call signature must not fail the op
                    self.counter_errors[name] = repr(exc)
                finally:
                    log.end[cidx] = clock()
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever jumpspec imported it."""
        for mod_name, path, name, counter in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.untraced.append(path)
                continue
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self.wrap(name, raw.__func__, counter)))
                continue
            wrapped = self.wrap(name, raw, counter)
            if owner_name:
                self._set(owner, attr, wrapped)
                continue
            for other_name, other in list(sys.modules.items()):
                if other_name == "jumpspec" or other_name.startswith("jumpspec."):
                    for key, val in list(vars(other).items()):
                        if val is raw:
                            self._set(other, key, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
