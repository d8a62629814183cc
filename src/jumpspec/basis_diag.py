"""Basis-property diagnostics for the biorthogonal eigensystem.

The one-dimensional spectral projections P = psi (phi, .) of a normalized
biorthogonal pair have norm ||psi|| ||phi||, with printed closed forms per
case.  Two regimes are probed:

  * irrational parameter: along the even family indices m = 2 q_k tied to
    the continued-fraction denominators q_k, the closed-form norm
    sqrt(2)/sqrt(1 - cos(m pi (1+a))) blows up like q_k/pi, which is the
    mechanism destroying any conditional-basis property;
  * rational parameter a = p/q: elementary lower estimates on the sine
    and cosine factors give explicit uniform bounds on all generic-case
    norms, computed here from (p, q) and checked against every closed form.

Truncated biorthogonal expansions provide completeness evidence at finite
order; at rational parameters, dropping the generalized vectors leaves a
visible non-decaying residual, the finite-order shadow of the failure of
minimal completeness for eigenfunctions alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from jumpspec.eigensystem import (
    BiorthPair, Rank, biorthogonalize, eigenfunctions_H, eigenfunctions_Hstar,
    root_system,
)
from jumpspec.funcspace import (
    PiecewiseTrig, cos_term, inner_matrix, lincomb, norm_l2, quad_inner, sin_term,
)
from jumpspec.param import (
    NotIrrational, ParamA, PiAngle, ZeroClassCase, convergents,
    is_exceptional_minus, is_exceptional_plus, trig_pi, zero_class_case,
)
from jumpspec.spectrum import EigRecord, SpectralCase, enumerate_spectrum


class Which(enum.Enum):
    SINGLE = "single"
    P1 = "P1"
    P2 = "P2"
    P3 = "P3"


@dataclass(frozen=True)
class ProjNormRecord:
    record: EigRecord
    which: Which
    closed_form: float
    quadrature: float


# ---------------------------------------------------------------------------
# closed-form projection norms
# ---------------------------------------------------------------------------

def _proj_norm_class_generic(c: float, th: PiAngle, m: int) -> float:
    """Norm of the +-1 class projection: c = 1 -+ a and th the angle
    pi m(1 +- a)/(1 -+ a), so that sin(4 m pi/c) = sin(2 th) = 2 sin cos."""
    num = math.sqrt((4 * math.pi + c / m * 2 * th.sin * th.cos) / 8)
    return num / (math.sqrt(math.pi * c / 4) * abs(th.sin))


def _proj_norm_minus_generic(a: ParamA, m: int) -> float:
    return _proj_norm_class_generic(
        1 - a.value, trig_pi(lambda x: m * (1 + x) / (1 - x), a), m)


def _proj_norm_plus_generic(a: ParamA, m: int) -> float:
    return _proj_norm_class_generic(
        1 + a.value, trig_pi(lambda x: m * (1 - x) / (1 + x), a), m)


def proj_norm_zero_generic(a: ParamA, m: int) -> float:
    """sqrt(2)/sqrt(1 - cos(m pi (1+a))), the blow-up family."""
    return math.sqrt(2.0 / trig_pi(lambda x: m * (1 + x), a).versine)


def _proj_norms_exceptional(a: ParamA, m: int) -> tuple[float, float, float]:
    av = a.value
    p1 = math.sqrt(2.0) / math.sqrt(1 - av)
    p2 = (math.sqrt(15 * (1 - av) + 16 * m * m * math.pi ** 2 * (1 + av))
          / (2 * math.sqrt(3.0) * math.pi * math.sqrt(1 + av) * m))
    p3 = (math.sqrt(64 * m * m * math.pi ** 2 - 36 * (1 - av) ** 2)
          / (2 * math.sqrt(6.0) * math.pi * math.sqrt(1 + av) * (1 - av) * m))
    return p1, p2, p3


def _qnorm(f: PiecewiseTrig, a: ParamA) -> float:
    return math.sqrt(max(quad_inner(f, f, a).real, 0.0))


def projection_norm(rec: EigRecord, a: ParamA) -> list[ProjNormRecord]:
    """Closed-form projection norms with the quadrature cross-value.

    The quadrature side evaluates ||psi|| ||phi|| / |(phi, psi)| by actual
    panel quadrature, a route fully independent of the printed formulas.
    """
    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        m = rec.class_index(-1)
        psi1, psi2, xi, phi1, phi2, eta = root_system(rec, a)
        c1, c2, c3 = _proj_norms_exceptional(a, m)
        q1 = (_qnorm(psi1.fn, a) * _qnorm(phi1.fn, a)
              / abs(quad_inner(phi1.fn, psi1.fn, a)))
        q2 = (_qnorm(psi2.fn, a) * _qnorm(eta.fn, a)
              / abs(quad_inner(eta.fn, psi2.fn, a)))
        q3 = (_qnorm(xi.fn, a) * _qnorm(phi2.fn, a)
              / abs(quad_inner(phi2.fn, xi.fn, a)))
        return [ProjNormRecord(rec, Which.P1, c1, q1),
                ProjNormRecord(rec, Which.P2, c2, q2),
                ProjNormRecord(rec, Which.P3, c3, q3)]

    psi = eigenfunctions_H(rec, a)[0]
    phi = eigenfunctions_Hstar(rec, a)[0]
    quad = (_qnorm(psi.fn, a) * _qnorm(phi.fn, a)
            / abs(quad_inner(phi.fn, psi.fn, a)))
    if rec.case is SpectralCase.ZERO_EV:
        closed = math.sqrt(4.0 / 3.0)
    elif rec.case is SpectralCase.EXCEPTIONAL_ODD:
        closed = 1.0
    else:
        cls, m = rec.memberships[0]
        if cls == -1:
            closed = _proj_norm_minus_generic(a, m)
        elif cls == +1:
            closed = _proj_norm_plus_generic(a, m)
        else:
            closed = proj_norm_zero_generic(a, m)
    return [ProjNormRecord(rec, Which.SINGLE, closed, quad)]


# ---------------------------------------------------------------------------
# Diophantine blow-up
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlowupRow:
    k: int
    q: int
    m: int
    norm: float
    one_minus_cos: float


def blowup_probe(a: ParamA, k_count: int) -> list[BlowupRow]:
    """Projection norms at the convergent-driven indices m = 2 q_k.

    With |a - p_k/q_k| < 1/q_k^2, the angle m pi (1+a) sits within
    2 pi / q_k of a multiple of 2 pi, so 1 - cos < 2 pi^2 / q_k^2 and the
    norm grows at least like q_k / pi.
    """
    if a.is_rational:
        raise NotIrrational("the blow-up sequence needs irrational a")
    rows = []
    for c in convergents(a, k_count):
        m = 2 * c.q
        omc = trig_pi(lambda x: m * (1 + x), a).versine
        rows.append(BlowupRow(c.index, c.q, m, math.sqrt(2.0 / omc), omc))
    return rows


def generic_norm_median(a: ParamA, m_max: int = 200) -> float:
    """Median of the wavenumber-2m generic projection norms, m <= m_max."""
    norms = [proj_norm_zero_generic(a, m) for m in range(1, m_max + 1)]
    return float(np.median(norms))


# ---------------------------------------------------------------------------
# rational-parameter uniform bounds
# ---------------------------------------------------------------------------

def rational_bound_check(a: ParamA, m_max: int) -> dict:
    """Verify the elementary-estimate bounds on all generic-case norms.

    For a = p/q the three factor estimates are

        |sin(m pi (1+a)/(1-a))| >= 2/(q-p),
        |sin(m pi (1-a)/(1+a))| >= 2/(q+p),
        1 - cos(m pi (1+a))     >= 4/q^2,

    valid whenever the respective case is generic; plugging them into the
    closed-form norms yields explicit uniform bounds.
    """
    if not a.is_rational:
        raise ValueError("bound check applies to rational parameters")
    p, q = a.fraction.numerator, a.fraction.denominator
    av = a.value
    bound_minus = (math.sqrt((4 * math.pi + (1 - av)) / 8)
                   / (math.sqrt(math.pi * (1 - av) / 4) * 2.0 / (q - p)))
    bound_plus = (math.sqrt((4 * math.pi + (1 + av)) / 8)
                  / (math.sqrt(math.pi * (1 + av) / 4) * 2.0 / (q + p)))
    bound_zero = math.sqrt(2.0 / (4.0 / q ** 2))

    rows = {"minus": [], "plus": [], "zero": []}
    estimates_ok = True
    for m in range(1, m_max + 1):
        if not is_exceptional_minus(a, m):
            s = abs(trig_pi(lambda x: m * (1 + x) / (1 - x), a).sin)
            estimates_ok &= s >= 2.0 / (q - p) - 1e-12
            rows["minus"].append((m, _proj_norm_minus_generic(a, m)))
        if not is_exceptional_plus(a, m):
            s = abs(trig_pi(lambda x: m * (1 - x) / (1 + x), a).sin)
            estimates_ok &= s >= 2.0 / (q + p) - 1e-12
            rows["plus"].append((m, _proj_norm_plus_generic(a, m)))
        if zero_class_case(a, m) is ZeroClassCase.GENERIC:
            omc = trig_pi(lambda x: m * (1 + x), a).versine
            estimates_ok &= omc >= 4.0 / q ** 2 - 1e-12
            rows["zero"].append((m, proj_norm_zero_generic(a, m)))

    report = {
        "bounds": {"minus": bound_minus, "plus": bound_plus, "zero": bound_zero},
        "estimates_hold": estimates_ok,
        "vacuous": {cls: not vals for cls, vals in rows.items()},
        "max_norm": {cls: max((n for _, n in vals), default=0.0)
                     for cls, vals in rows.items()},
    }
    report["within_bounds"] = all(
        report["max_norm"][cls] <= report["bounds"][cls] + 1e-9
        for cls in ("minus", "plus", "zero"))
    return report


# ---------------------------------------------------------------------------
# truncated completeness
# ---------------------------------------------------------------------------

def random_smooth_probe(rng: np.random.Generator, n_modes: int = 12) -> PiecewiseTrig:
    """Finite Fourier sum with 1/n^3 decay; reproducible under a seeded rng."""
    terms = []
    for n in range(1, n_modes + 1):
        decay = 1.0 / n ** 3
        terms.append(cos_term(decay * rng.normal(), float(n)))
        terms.append(sin_term(decay * rng.normal(), float(n)))
    terms.append(cos_term(rng.normal(), 0.5, rng.normal()))
    return PiecewiseTrig.single(terms)


def expansion_residuals(f: PiecewiseTrig, pairs: list[BiorthPair],
                        checkpoints: list[int],
                        include_generalized: bool = True) -> dict[int, float]:
    """||f - sum_{j<=N} psi_j (phi_j, f)|| at each truncation checkpoint.

    The coefficients come from one batched call.  Each remainder is formed
    by a single merge of f with the scaled members, so equal terms cancel
    exactly, and its norm is taken directly.  The expansion
    ||f||^2 - 2 Re(c^H b) + c^H G c would subtract O(1) numbers to reach
    residuals of 1e-16 and leave only sqrt(eps)-level accuracy.
    """
    kept = [pair for pair in pairs
            if include_generalized or pair.psi.rank is not Rank.GENERALIZED]
    coeffs = inner_matrix([pair.phi.fn for pair in kept], [f])[:, 0]
    members = [pair.psi.fn for pair in kept]
    return {n_cut: norm_l2(lincomb([f, *members[:n_cut]], [1.0, *-coeffs[:n_cut]]))
            for n_cut in checkpoints}


def truncated_completeness(a: ParamA, n_trunc: int, probe_count: int,
                           seed: int = 2024,
                           include_generalized: bool = True) -> dict:
    """Partial biorthogonal expansions of random smooth probes.

    Residuals should decrease with the truncation order for smooth probes
    (completeness evidence, no rate asserted).  Biorthogonality itself is
    evidenced by family members reproducing exactly.
    """
    if n_trunc > 200:
        raise ValueError("truncation limited to N <= 200")
    lam_max = 4.0 * (n_trunc + 4) ** 2
    pairs = biorthogonalize(a, lam_max)[: n_trunc + 8]
    rng = np.random.default_rng(seed)
    checkpoints = sorted({max(1, n_trunc // 8), n_trunc // 4, n_trunc // 2, n_trunc})
    probes = {}
    for i in range(probe_count):
        f = random_smooth_probe(rng)
        probes[f"probe_{i}"] = expansion_residuals(
            f, pairs, checkpoints, include_generalized)
    member = pairs[min(5, len(pairs) - 1)].psi.fn
    probes["family_member"] = expansion_residuals(
        member, pairs, checkpoints, include_generalized)
    return {"checkpoints": checkpoints, "residuals": probes}
