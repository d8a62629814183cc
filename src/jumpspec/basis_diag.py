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

from jumpspec.eigensystem import BiorthFamily, _chains, biorthogonalize
from jumpspec.funcspace import (
    Piece, PiecewiseTrig, Stack, cos_term, inner_matrix, inner_pairs, norms, sin_term,
)
from jumpspec.param import (
    NotIrrational, ParamA, convergents, family_angle, is_exceptional,
)
from jumpspec.spectrum import EigRecord, SpectralCase, enumerate_spectrum


# rational_bound_check's largest m_max: it takes 43-100 us per m on a
# 2-core x86-64 host, so about 4-10 s at the cap (m_max = 10^8 would take hours)
MAX_BOUND_M = 10 ** 5


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
    pairing: float


# ---------------------------------------------------------------------------
# closed-form projection norms
# ---------------------------------------------------------------------------

def _proj_norm_class_generic(a: ParamA, cls: int, m: int) -> float:
    """Norm of the cls = -1 or +1 projection: c = 1 + cls a and th the
    family angle pi m(1 - cls a)/c, so that sin(4 m pi/c) = sin(2 th) =
    2 sin cos."""
    c = 1 + cls * a.value
    th = family_angle(a, cls, m)
    num = math.sqrt((4 * math.pi + c / m * 2 * th.sin * th.cos) / 8)
    return num / (math.sqrt(math.pi * c / 4) * abs(th.sin))


def proj_norm_zero_generic(a: ParamA, m: int) -> float:
    """sqrt(2)/sqrt(1 - cos(m pi (1+a))), the blow-up family."""
    return math.sqrt(2.0 / family_angle(a, 0, m).versine)


def _proj_norms_exceptional(a: ParamA, m: int) -> tuple[float, float, float]:
    av = a.value
    p1 = math.sqrt(2.0) / math.sqrt(1 - av)
    p2 = (math.sqrt(15 * (1 - av) + 16 * m * m * math.pi ** 2 * (1 + av))
          / (2 * math.sqrt(3.0) * math.pi * math.sqrt(1 + av) * m))
    p3 = (math.sqrt(64 * m * m * math.pi ** 2 - 36 * (1 - av) ** 2)
          / (2 * math.sqrt(6.0) * math.pi * math.sqrt(1 + av) * (1 - av) * m))
    return p1, p2, p3


def _closed_simple(rec: EigRecord, a: ParamA) -> float:
    """Closed-form norm of a simple record's projection."""
    if rec.case is SpectralCase.ZERO_EV:
        return math.sqrt(4.0 / 3.0)
    if rec.case is SpectralCase.EXCEPTIONAL_ODD:
        return 1.0
    cls, m = rec.memberships[0]
    if cls == 0:
        return proj_norm_zero_generic(a, m)
    return _proj_norm_class_generic(a, cls, m)


def _projection_norms(a: ParamA, records: list[EigRecord]) -> list[ProjNormRecord]:
    """Closed-form projection norms of the records with the pairing
    cross-value ||psi|| ||phi|| / |(phi, psi)| of each projection.

    The raw root vectors of all records come from one `_chains` call, whose
    adjoint j is the partner of forward j: (psi, phi) at a simple record
    and (psi1, phi1), (psi2, eta), (xi, phi2) at an exceptional pair.  The
    three products of every projection are three `inner_pairs` calls, so
    the time is linear in the records.  The cross-value shares the pair
    kernel with the Gram suite, but it integrates the built root vectors,
    not the printed formulas, so it still checks them independently.
    """
    fwd, adj = _chains(a, records)
    rows = []  # (record, which, closed form) of each projection
    for rec in records:
        if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
            closed = _proj_norms_exceptional(a, rec.class_index(-1))
            rows += zip([rec] * 3, (Which.P1, Which.P2, Which.P3), closed)
        else:
            rows.append((rec, Which.SINGLE, _closed_simple(rec, a)))
    psi_sq, phi_sq, cross = inner_pairs(fwd, fwd), inner_pairs(adj, adj), inner_pairs(adj, fwd)
    pairing = np.sqrt(psi_sq.real) * np.sqrt(phi_sq.real) / np.abs(cross)
    return [ProjNormRecord(rec, which, closed, float(p))
            for (rec, which, closed), p in zip(rows, pairing)]


def projection_norms(a: ParamA, lambda_max: float) -> list[ProjNormRecord]:
    """Projection norms of every eigenvalue up to lambda_max, ascending."""
    return _projection_norms(a, enumerate_spectrum(a, lambda_max))


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
        omc = family_angle(a, 0, m).versine
        rows.append(BlowupRow(c.index, c.q, m, math.sqrt(2.0 / omc), omc))
    return rows


# ---------------------------------------------------------------------------
# rational-parameter uniform bounds
# ---------------------------------------------------------------------------

def check_bound_m(m_max: int) -> None:
    """ValueError unless rational_bound_check can take m_max (1..MAX_BOUND_M)."""
    if not 1 <= m_max <= MAX_BOUND_M:
        raise ValueError(f"bound check needs 1 <= m_max <= {MAX_BOUND_M}, got {m_max}")


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
    check_bound_m(m_max)
    p, q = a.fraction.numerator, a.fraction.denominator
    bounds, rows = {}, {}
    estimates_ok = True
    for cls, name in ((-1, "minus"), (+1, "plus")):
        c, d = 1 + cls * a.value, q + cls * p
        bounds[name] = (math.sqrt((4 * math.pi + c) / 8)
                        / (math.sqrt(math.pi * c / 4) * 2.0 / d))
        rows[name] = []
        for m in range(1, m_max + 1):
            if not is_exceptional(a, cls, m):
                estimates_ok &= abs(family_angle(a, cls, m).sin) >= 2.0 / d - 1e-12
                rows[name].append((m, _proj_norm_class_generic(a, cls, m)))
    bounds["zero"] = math.sqrt(2.0 / (4.0 / q ** 2))
    rows["zero"] = []
    for m in range(1, m_max + 1):
        if not is_exceptional(a, 0, m):
            estimates_ok &= family_angle(a, 0, m).versine >= 4.0 / q ** 2 - 1e-12
            rows["zero"].append((m, proj_norm_zero_generic(a, m)))

    report = {
        "bounds": bounds,
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

def random_smooth_probe(rng: np.random.Generator) -> PiecewiseTrig:
    """Twelve-mode Fourier sum with 1/n^3 decay; reproducible under a seeded rng."""
    terms = []
    for n in range(1, 13):
        decay = 1.0 / n ** 3
        terms.append(cos_term(decay * rng.normal(), float(n)))
        terms.append(sin_term(decay * rng.normal(), float(n)))
    terms.append(cos_term(rng.normal(), 0.5, rng.normal()))
    return PiecewiseTrig.single(terms)


def expansion_residuals(fs: list[PiecewiseTrig], pairs: BiorthFamily,
                        checkpoints: list[int],
                        include_generalized: bool = True) -> list[dict[int, float]]:
    """||f - sum_{j<=N} psi_j (phi_j, f)|| for each f of fs at each
    truncation checkpoint N, over the pairs kept (xi dropped unless
    include_generalized).

    One inner_matrix call gives all coefficients.  Each remainder is one
    merge of f with the scaled forward rows, so equal terms cancel exactly
    (a dropped pair's rows carry 0 and merge away), and one `norms` call
    norms them all (the remainders share most of their terms, so it takes
    one Gram matrix of their distinct terms).  The expansion
    ||f||^2 - 2 Re(c^H b) + c^H G c would subtract O(1) numbers to reach
    residuals of 1e-16 and leave only sqrt(eps)-level accuracy.
    """
    kept = np.array([include_generalized or label != "xi" for label in pairs.labels])
    before = np.cumsum(kept) - kept  # kept pairs ahead of each pair
    coeffs = inner_matrix(pairs.phi, Stack.join(fs)) * kept[:, None]
    remainders = []
    for f, c in zip(fs, coeffs.T):
        for n_cut in checkpoints:
            pieces = []
            for lo, hi, terms, _ in f.pieces:
                rows, owners = pairs.psi.on(lo, hi)
                use = before[owners] < n_cut
                pieces.append(Piece.one(lo, hi, [terms, rows[use].scaled(-c[owners[use]])]))
            remainders.append(PiecewiseTrig(tuple(pieces)))
    residuals = norms(Stack.join(remainders)).reshape(len(fs), len(checkpoints))
    return [dict(zip(checkpoints, map(float, row))) for row in residuals]


def truncated_completeness(a: ParamA, n_trunc: int, probe_count: int,
                           seed: int = 2024) -> dict:
    """Partial biorthogonal expansions of random smooth probes.

    Residuals should decrease with the truncation order for smooth probes
    (completeness evidence, no rate asserted).  Biorthogonality itself is
    evidenced by family members reproducing exactly.
    """
    if not 1 <= n_trunc <= 200:
        raise ValueError(f"truncation order needs 1 <= N <= 200, got N={n_trunc}")
    # k <= K holds floor(K/2) + 1 + floor(K(1-a)/4) + floor(K(1+a)/4) > K - 2
    # pairs, so lambda <= (N+2)^2 builds N of them; the member probe is psi_5
    n_pairs = max(n_trunc, 6)
    pairs = biorthogonalize(a, (n_pairs + 2) ** 2)[:n_pairs]
    rng = np.random.default_rng(seed)
    checkpoints = sorted({max(1, n_trunc // 8), n_trunc // 4, n_trunc // 2, n_trunc})
    names = [f"probe_{i}" for i in range(probe_count)] + ["family_member"]
    probes = [random_smooth_probe(rng) for _ in range(probe_count)] + [pairs.psi.fn(5)]
    residuals = expansion_residuals(probes, pairs, checkpoints)
    return {"checkpoints": checkpoints, "residuals": dict(zip(names, residuals))}
