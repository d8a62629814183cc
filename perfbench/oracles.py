"""Correctness oracles behind ``fail_frac``.

Each check returns ``None`` when the output is right and a one-line reason
when it is not.  The references are independent of the program: 200-digit
mpmath for the blow-up norms, the closed-form characteristic equation for
eigenvalues, renewal theory for the simulator, and the thresholds that
``jumpspec verify`` itself applies.  Statistical bounds come from the run's
own size, so the checks hold for any seed and any correct random stream.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

HALF_PI = math.pi / 2

# the tolerances `jumpspec verify` applies
GRAM_TOL = 1e-9
PROJECTION_TOL = 1e-8
BOUNDARY_TOL = 1e-8
PDE_TOL = 1e-6
DECAY_MAX = -1.8
INTERTWINING_TOL = 1e-8
POSITIVITY_TOL = -1e-12
# simulator checks reject beyond this many standard errors
Z_MAX = 5.0
# a Brownian motion with variance rate sigma^2 watched only every dt exits
# as if the boundary lay MONITOR_BETA * sigma * sqrt(dt) further out, with
# MONITOR_BETA = -zeta(1/2) / sqrt(2 pi) (Broadie, Glasserman and Kou, 1997)
MONITOR_BETA = 0.5825971579390106

# independent 200-digit values of the parameter expressions the workloads use
_MP_PARAMS = {
    "sqrt(2)-1": lambda: mp.sqrt(2) - 1,
    "(sqrt(5)-1)/2": lambda: (mp.sqrt(5) - 1) / 2,
    "1/pi": lambda: 1 / mp.pi,
}


class BadOutput(ValueError):
    """An output file is missing, malformed or holds a non-finite number."""


def _reject_constant(token: str):
    raise BadOutput(f"non-finite JSON value {token}")


def parse_json(text: str):
    """Parse JSON with NaN and Infinity rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def load_json(path: Path):
    if not path.is_file():
        raise BadOutput(f"missing output {path.name}")
    return parse_json(path.read_text())


def _cell(text: str):
    """An int stays exact (q_k can exceed 2**53); floats must be finite."""
    for kind in (int, float):
        try:
            value = kind(text)
        except ValueError:
            continue
        if kind is float and not math.isfinite(value):
            raise BadOutput(f"non-finite value {text}")
        return value
    return text


def load_csv(path: Path) -> list[list]:
    """Rows of a CSV output, header skipped, numbers parsed."""
    if not path.is_file():
        raise BadOutput(f"missing output {path.name}")
    with path.open(newline="") as fh:
        return [[_cell(c) for c in row] for row in list(csv.reader(fh))[1:]]


def _finite(*vals) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


# ---------------------------------------------------------------------------
# contract workload
# ---------------------------------------------------------------------------

def check_verify(report: dict) -> str | None:
    if report.get("passed") is not True:
        failed = [k for k, s in report.get("suites", {}).items() if not s.get("passed")]
        return f"verify passed=false (suites {failed})"
    return None


def check_metric(report: dict) -> str | None:
    res, pos = report.get("max_intertwining_residual"), report.get("positivity_min")
    if not _finite(res, pos):
        return "metric report lacks finite residual/positivity"
    if pos < POSITIVITY_TOL:
        return f"quadratic form negative: {pos:.3e}"
    if report.get("irrational"):
        if res > INTERTWINING_TOL:
            return f"intertwining residual {res:.3e} > {INTERTWINING_TOL}"
        seq = report.get("rayleigh_sequence") or []
        if not seq or not all(_finite(q) and q > 0 for _, q in seq):
            return "Rayleigh sequence missing or not strictly positive"
    return None


def check_projection_rows(rows: list[list[float]]) -> str | None:
    if not rows:
        return "no projection norms"
    worst = max(abs(r[2] - r[3]) / r[2] for r in rows)
    if worst > PROJECTION_TOL:
        return f"projection norm closed/quadrature deviation {worst:.3e}"
    return None


def reference_convergent_denominators(expr: str, count: int) -> list[int]:
    """q_0..q_{count-1} of the continued fraction of a, at 200 digits."""
    with mp.workdps(200):
        x = _MP_PARAMS[expr]()
        qs, q_prev, q_cur = [], 0, 1
        qs.append(q_cur)
        x = x - mp.floor(x)
        for _ in range(1, count):
            x = 1 / x
            coef = int(mp.floor(x))
            x = x - coef
            q_cur, q_prev = coef * q_cur + q_prev, q_cur
            qs.append(q_cur)
    return qs


def reference_blowup_norms(expr: str, count: int) -> list[tuple[int, float]]:
    """(q_k, sqrt(2/(1 - cos 2 pi q_k (1+a)))) from 200-digit mpmath."""
    out = []
    with mp.workdps(200):
        a = _MP_PARAMS[expr]()
        for q in reference_convergent_denominators(expr, count):
            omc = 1 - mp.cos(2 * mp.pi * q * (1 + a))
            out.append((q, float(mp.sqrt(2 / omc))))
    return out


def blowup_errors(expr: str, count: int, rows: list[list[float]]):
    """(reason or None, max relative error over the rows present)."""
    ref = reference_blowup_norms(expr, count)
    worst = 0.0
    reason = None
    if len(rows) != count:
        reason = f"blow-up table has {len(rows)} rows, expected {count}"
    for k, row in enumerate(rows[:count]):
        q_ref, norm_ref = ref[k]
        k_out, q_out, m_out, norm = row[:4]
        if (k_out, q_out, m_out) != (k, q_ref, 2 * q_ref):
            reason = reason or f"row {k}: (k, q, m) = {(k_out, q_out, m_out)}"
            continue
        err = abs(norm - norm_ref) / norm_ref
        worst = max(worst, err)
        if err > PROJECTION_TOL and reason is None:
            reason = f"blow-up norm at k={k} off by {err:.3e} relative"
    return reason, worst


# ---------------------------------------------------------------------------
# expansion workload
# ---------------------------------------------------------------------------

def check_gram(gram, n: int) -> tuple[str | None, float]:
    """(reason, max |G - I|) for an n x n Gram matrix of a normalized family."""
    gram = np.asarray(gram)
    if gram.shape != (n, n):
        return f"Gram shape {gram.shape}, expected {(n, n)}", 0.0
    if not np.all(np.isfinite(gram)):
        return "non-finite Gram entry", 0.0
    dev = float(np.max(np.abs(gram - np.eye(n))))
    if dev > GRAM_TOL:
        return f"Gram deviation {dev:.3e} > {GRAM_TOL}", dev
    return None, dev


def check_completeness(report: dict, member_index: int = 5) -> str | None:
    """Residuals finite, decreasing for probes, ~0 for the family member."""
    checkpoints = report.get("checkpoints") or []
    residuals = report.get("residuals") or {}
    if not checkpoints or "family_member" not in residuals:
        return "truncated completeness report incomplete"
    for name, vals in residuals.items():
        series = [vals.get(c) for c in checkpoints]
        if not all(_finite(v) and v >= 0 for v in series):
            return f"{name}: non-finite or missing residual"
        if name.startswith("probe") and not series[-1] < series[0]:
            return f"{name}: residual did not decrease ({series[0]:.3e} -> {series[-1]:.3e})"
    member = residuals["family_member"]
    for c in checkpoints:
        if c > member_index and member[c] > 1e-8:
            return f"family member not reproduced at N={c}: residual {member[c]:.3e}"
    return None


# ---------------------------------------------------------------------------
# resolvent workload
# ---------------------------------------------------------------------------

def check_resolvent(report: dict) -> str | None:
    b, r, d = (report.get("boundary_deviation"), report.get("pde_residual"),
               report.get("svd_decay_exponent"))
    if not _finite(b, r, d):
        return "resolvent report lacks finite diagnostics"
    if b > BOUNDARY_TOL:
        return f"boundary deviation {b:.3e} > {BOUNDARY_TOL}"
    if r > PDE_TOL:
        return f"PDE residual {r:.3e} > {PDE_TOL}"
    if d > DECAY_MAX:
        return f"singular-value decay exponent {d:.3f} > {DECAY_MAX}"
    return None


# the spectral pole of the jump operator; PoleAtDirichletEigenvalue refuses
# a point of the Dirichlet reference spectrum instead, which is not this answer
SPECTRAL_POLE_ERRORS = ("PoleAtEigenvalue", "DenominatorVanishes")


def is_pole_refusal(exc: BaseException | None, rc, manifest: dict | None) -> bool:
    """The spectral pole error, raised or reported with a nonzero exit code.

    A raised error counts when it is (a subclass of) one of
    SPECTRAL_POLE_ERRORS; a reported one when the manifest names one.
    """
    if exc is not None:
        return any(cls.__name__ in SPECTRAL_POLE_ERRORS for cls in type(exc).__mro__)
    if rc in (0, None):
        return False
    error = (manifest or {}).get("error") or {}
    return error.get("type") in SPECTRAL_POLE_ERRORS


def spectrum_reference(a: float, lambda_max: float) -> list[float]:
    """Distinct eigenvalues <= lambda_max: 0, (2m)^2 and (4n/(1 -+ a))^2.

    They are the roots of 2 sin(k pi/2) (cos(k pi/2) - cos(k pi a/2)),
    the determinant of the three-point condition on A cos kx + B sin kx.
    """
    k_max = math.sqrt(lambda_max)
    ks = {0.0}
    m = 1
    while 2 * m <= k_max + 1e-12:
        ks.add(float(2 * m))
        m += 1
    for fac in (1 - a, 1 + a):
        n = 1
        while 4 * n / fac <= k_max + 1e-12:
            ks.add(4 * n / fac)
            n += 1
    lams = sorted(k * k for k in ks)
    out = []
    for lam in lams:
        if not out or abs(lam - out[-1]) > 1e-9 * max(1.0, lam):
            out.append(lam)
    return out


def char_residual(a: float, lam: float) -> float:
    k = math.sqrt(lam)
    return abs(math.sin(k * HALF_PI) * (math.cos(k * HALF_PI)
                                       - math.cos(k * HALF_PI * a)))


def check_spectrum(records: list, a: float, lambda_max: float,
                   curve_rows: list[list[float]]) -> str | None:
    got = sorted(r["lambda"] for r in records)
    ref = spectrum_reference(a, lambda_max)
    if len(got) != len(ref) or any(abs(g - r) > 1e-9 * max(1.0, r)
                                   for g, r in zip(got, ref)):
        return f"eigenvalues {got} differ from the characteristic roots {ref}"
    if not curve_rows:
        return "no eigenvalue curves"
    for a_c, _, _, lam in curve_rows:
        if char_residual(a_c, lam) > 1e-8:
            return f"curve point a={a_c}, lambda={lam} is not a characteristic root"
    return None


# ---------------------------------------------------------------------------
# montecarlo workload
# ---------------------------------------------------------------------------

def exit_time_moments(a: float, widen: float = 0.0) -> tuple[float, float]:
    """Mean and variance of the time from the restart point to the boundary.

    For generator d^2/dx^2 on (-L, L), L = pi/2 + widen, started at
    b = pi a/2: E[tau] = (L^2 - b^2)/2 and
    E[tau^2] = 5L^4/12 - L^2 b^2/2 + b^4/12.
    """
    L, b = HALF_PI + widen, HALF_PI * a
    mean = (L * L - b * b) / 2
    second = 5 * L ** 4 / 12 - L * L * b * b / 2 + b ** 4 / 12
    return mean, second - mean * mean


def jump_rate(a: float) -> float:
    """Renewal-theory rate of restarts, 8 / (pi^2 (1 - a^2))."""
    return 8.0 / (math.pi ** 2 * (1 - a * a))


def tent_bin_masses(a: float, edges: list[float]) -> list[float]:
    """Exact bin masses of the stationary tent density (peak at pi a/2)."""
    L, b = HALF_PI, HALF_PI * a

    def cdf(x: float) -> float:
        if x <= b:
            return (x + L) ** 2 / (2 * L * (b + L))
        return 1.0 - (L - x) ** 2 / (2 * L * (L - b))

    cdfs = [cdf(min(max(x, -L), L)) for x in edges]
    return [hi - lo for lo, hi in zip(cdfs, cdfs[1:])]


def check_simulation(a: float, report: dict, coarse: int = 10,
                     monitor_dt: float | None = None) -> str | None:
    """Jump rate and occupation histogram within Z_MAX standard errors.

    The standard errors come from the run's own simulated time T: the
    renewal CLT gives Var(rate) = Var(tau) / (E[tau]^3 T), and occupation
    fractions get p(1-p) E[tau^2] / (E[tau] T), the variance if each
    regeneration cycle spent all of its time in or out of a bin.

    ``monitor_dt`` is the step of a run without the bridge correction,
    which sees exits only at the steps.  Such a walk exits as if each
    boundary lay MONITOR_BETA * sqrt(2 dt) further out, so the rate is
    compared with that wider interval's.  (At dt 5e-4 this lowers the
    rate by 2.6%.)  The histogram keeps the exact tent.
    """
    t_tot = report.get("time_units")
    rate = report.get("jumps_per_unit_time")
    density, edges = report.get("bin_density"), report.get("bin_edges")
    if not _finite(t_tot, rate) or t_tot <= 0 or not density or not edges:
        return "simulation report lacks a finite rate, time or histogram"
    widen = MONITOR_BETA * math.sqrt(2 * monitor_dt) if monitor_dt else 0.0
    mean, var = exit_time_moments(a, widen)
    expected = 1 / mean
    rate_se = math.sqrt(var / mean ** 3 / t_tot)
    z_rate = (rate - expected) / rate_se
    if abs(z_rate) > Z_MAX:
        return f"jump rate {rate:.5f} vs {expected:.5f}: {z_rate:+.1f} standard errors"
    mean, var = exit_time_moments(a)
    masses = tent_bin_masses(a, edges)
    fracs = [d * (hi - lo) for d, lo, hi in zip(density, edges, edges[1:])]
    group = max(1, len(masses) // coarse)
    second = var + mean * mean
    for start in range(0, len(masses), group):
        p = sum(masses[start:start + group])
        p_hat = sum(fracs[start:start + group])
        se = math.sqrt(max(p * (1 - p), 1e-12) * second / (mean * t_tot))
        z = (p_hat - p) / se
        if abs(z) > Z_MAX:
            return (f"occupation of bins {start}..{start + group - 1}: {p_hat:.4f} "
                    f"vs {p:.4f} ({z:+.1f} standard errors)")
    return None
