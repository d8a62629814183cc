"""Closed-form metric operator and its contract on the root system.

The metric is a rank-one term plus three antisymmetrizers,

    Theta = phi0 (phi0, .) + P0 + (P- (+) P+),

where phi0 is the adjoint zero-mode tent (normalization constant 1) and
P0, P-, P+ antisymmetrize about the interval center, the left-piece
center, and the right-piece center.  On symbolic inputs every reflection
is an exact term rewrite, so Theta, H* Theta, and Theta H are all closed
forms and the intertwining residual is measured at machine precision with
no interpolation.

(f, Theta f) = |(phi0,f)|^2 + ||P0 f||^2 + ||P- f (+) P+ f||^2 cannot be
negative, so positivity on arbitrary inputs shows nothing.  What the paper
claims is that (Theta ., .) is an inner product in which the root vectors
of H are orthogonal: Theta psi_j = c_j phi_j with c_j > 0 on the
biorthogonal family.  `MetricOp.root_system_report` measures exactly that,
and `contract_failures` gates it; a reflection center off by 1e-9, a
dropped rank-one term or a dropped P0 each fail it.

Injectivity holds for irrational parameters because the even Neumann-mode
diagonal coefficients (1 - cos(n pi/2)cos(n pi a/2))/2 never vanish for
n != 0; bounded invertibility fails because those coefficients dip toward
zero along the even modes tied to the continued-fraction denominators of
a.  At rational a, Theta is not injective on the exceptional root spaces
(c_j of the Jordan chain's eigenvector is 0), so the contract there is
informational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from jumpspec.funcspace import (
    PiecewiseTrig, Terms, inner_closed, inner_matrix, norm_l2, validate_domain_H,
)
from jumpspec.param import NotIrrational, ParamA, convergents, family_angle
from jumpspec.eigensystem import BiorthFamily, phi_zero_mode

HALF_PI = math.pi / 2

# (psi_i, Theta psi_j)/(||psi_i|| ||psi_j||) carries at most 2.4e-15 of
# rounding (measured over the families up to lambda 900 at sqrt(2)-1,
# (sqrt(5)-1)/2, 1/pi and 1/3): an off-diagonal entry above this bound, or
# a diagonal one c_j/||psi_j||^2 not above it, is no rounding
ROUNDING_BOUND = 1e-12
INTERTWINING_BOUND = 1e-8


class DomainViolation(ValueError):
    """Input is not in the operator domain."""


# ---------------------------------------------------------------------------
# symbolic reflections
# ---------------------------------------------------------------------------

def reflect_terms(terms: Terms, s: float) -> Terms:
    """Terms of x -> f(s - x) for a term sum f.

    (s - x)^p cos(k(s - x) + t - q pi/2) = (s^p - p x) cos(kx - (ks + t) + q pi/2):
    each term keeps k, takes the shift -(ks + t) and the quarter turns -q,
    and splits into an x^0 part with coefficient c s^p and an x^1 part with
    coefficient -p c (zero, so dropped, when p = 0).
    """
    shift, quarter = -(terms.k * s + terms.s), -terms.q
    flat = Terms(np.zeros_like(terms.p), terms.c * s ** terms.p, terms.k, shift, quarter)
    sloped = Terms(np.ones_like(terms.p), -terms.p * terms.c, terms.k, shift, quarter)
    return Terms.concat((flat, sloped)).merged()


def _require_single_piece(f: PiecewiseTrig) -> Terms:
    if f.breakpoint is not None:
        raise DomainViolation(
            "symbolic metric application needs a single-piece representation "
            "(operator-domain functions are globally smooth)")
    return f.pieces[0].terms


def _antisymmetrize(terms: Terms, s: float) -> Terms:
    """(f(x) - f(s - x))/2."""
    return Terms.concat((terms.scaled(0.5), reflect_terms(terms, s).scaled(-0.5))).merged()


def project_center(f: PiecewiseTrig) -> PiecewiseTrig:
    """P0 f = (f - f(-x))/2 on the whole interval."""
    return PiecewiseTrig.single(_antisymmetrize(_require_single_piece(f), 0.0))


def project_pieces(f: PiecewiseTrig, a: ParamA) -> PiecewiseTrig:
    """(P- (+) P+) f: antisymmetrize each piece about its own center."""
    terms = _require_single_piece(f)
    av = a.value
    return PiecewiseTrig.split(HALF_PI * av,
                               _antisymmetrize(terms, -HALF_PI * (1 - av)),
                               _antisymmetrize(terms, HALF_PI * (1 + av)))


@dataclass(frozen=True)
class MetricOp:
    """The metric at a fixed parameter; phi0 carries normalization 1."""

    a: ParamA
    phi0: PiecewiseTrig

    @classmethod
    def build(cls, a: ParamA) -> "MetricOp":
        return cls(a=a, phi0=phi_zero_mode(a, 1.0))

    def apply(self, f: PiecewiseTrig) -> PiecewiseTrig:
        """Theta f for a single-piece symbolic f; exact two-piece output."""
        coef = inner_closed(self.phi0, f)
        rank_one = self.phi0.scaled(coef)
        return rank_one + project_center(f) + project_pieces(f, self.a)

    def quasi_self_adjointness_residual(self, psi: PiecewiseTrig,
                                        theta_psi: PiecewiseTrig | None = None) -> float:
        """||H* Theta psi - Theta H psi||_2, all derivatives symbolic;
        theta_psi is Theta psi when the caller has already applied it."""
        report = validate_domain_H(psi, self.a, tol=1e-9)
        if not report.in_domain:
            raise DomainViolation("; ".join(report.violations))
        if theta_psi is None:
            theta_psi = self.apply(psi)
        lhs = theta_psi.derivative(2).scaled(-1.0)
        rhs = self.apply(psi.derivative(2).scaled(-1.0))
        return norm_l2(lhs - rhs)

    def root_system_report(self, pairs: BiorthFamily) -> dict:
        """Theta on a biorthogonal family, where Theta psi_j = c_j phi_j.

        Theta psi_j is formed once per forward member, and one inner_matrix
        call gives M_ij = (psi_i, Theta psi_j) = c_j delta_ij.  Reported:

        - positivity_min: min_j c_j/||psi_j||^2;
        - max_offdiagonal: max over i != j of |M_ij|/(||psi_i|| ||psi_j||);
        - max_kappa_ratio: max_j c_j kappa_j/(||Theta|| ||psi_j||^2) with
          kappa_j = ||phi_j|| ||psi_j||.  It is at most 1, since
          c_j ||phi_j|| = ||Theta psi_j|| <= ||Theta|| ||psi_j||, and
          ||Theta|| <= ||phi0||^2 + 2 (a rank-one term and two orthogonal
          projections) is the norm used;
        - max_intertwining_residual: max_j of the intertwining residual of
          psi_j over ||psi_j||, from the same Theta psi_j.
        """
        psis = [p.psi.fn for p in pairs]
        theta_psis = [self.apply(psi) for psi in psis]
        psi_norms = np.array([norm_l2(psi) for psi in psis])
        phi_norms = np.array([norm_l2(p.phi.fn) for p in pairs])
        gram = inner_matrix(psis, theta_psis)
        c_rel = gram.diagonal().real / psi_norms ** 2
        scaled = np.abs(gram) / np.outer(psi_norms, psi_norms)
        np.fill_diagonal(scaled, 0.0)
        theta_norm = norm_l2(self.phi0) ** 2 + 2
        residual = max(self.quasi_self_adjointness_residual(psi, tpsi) / norm
                       for psi, tpsi, norm in zip(psis, theta_psis, psi_norms))
        return {
            "positivity_min": float(c_rel.min()),
            "max_offdiagonal": float(scaled.max()),
            "max_kappa_ratio": float(np.max(c_rel * psi_norms * phi_norms) / theta_norm),
            "max_intertwining_residual": float(residual),
        }


def contract_failures(report: dict) -> list[str]:
    """One message per bound a root_system_report breaks.  At irrational a
    every bound must hold; at rational a positivity_min reads ~0, since
    Theta is not injective on the exceptional root spaces."""
    failures = []
    if report["max_offdiagonal"] > ROUNDING_BOUND:
        failures.append(f"Theta off-diagonal {report['max_offdiagonal']:.3e} > {ROUNDING_BOUND:g}")
    if not report["positivity_min"] > ROUNDING_BOUND:
        failures.append(f"positivity_min {report['positivity_min']:.3e} "
                        f"not above the rounding floor {ROUNDING_BOUND:g}")
    if report["max_kappa_ratio"] > 1:
        failures.append(f"c_j kappa_j/(||Theta|| ||psi_j||^2) = "
                        f"{report['max_kappa_ratio']:.3e} > 1")
    if report["max_intertwining_residual"] > INTERTWINING_BOUND:
        failures.append(f"intertwining residual {report['max_intertwining_residual']:.3e}"
                        f" > {INTERTWINING_BOUND:g}")
    return failures


# ---------------------------------------------------------------------------
# Neumann-mode probes
# ---------------------------------------------------------------------------

def even_mode_coefficient(a: ParamA, n: int) -> float:
    """Diagonal coefficient (1 - cos(n pi/2) cos(n pi a/2))/2 for even n.

    With h = n/2 the product of cosines is cos(pi h(1+a)), so the
    coefficient is half the versine of the class-0 family angle at h.
    family_angle reduces it exactly and forms 1 - cos without cancellation,
    so the value keeps its relative accuracy at the deep continued-fraction
    denominators, where it falls to ~1e-30.
    """
    if n % 2:
        raise ValueError("diagonal formula applies to even modes")
    return family_angle(a, 0, n // 2).versine / 2


def noninvertibility_probe(a: ParamA, k_count: int) -> list[tuple[int, float]]:
    """Rayleigh quotients along the collapsing even-mode sequence.

    The wavenumber-2m eigenfunction family degenerates at m = 2 q_k (q_k
    the continued-fraction denominators of a); the matching even Neumann
    index is n = 2m = 4 q_k, where the diagonal coefficient v/2, with v the
    versine of pi (n/2)(1+a), behaves like (pi q_k |a - p_k/q_k|)^2 -> 0.
    Both parts of the quotient are closed forms in v: the rank-one part is
    |(phi0, chi_n)|^2 with (phi0, chi_n) = 2 (-1)^(n/2) sqrt(2/pi) v/n^2, so

        (chi_n, Theta chi_n) = (8/pi) v^2/n^4 + v/2,

    all positive and accurate to a few ulp however small v gets (the
    symbolic route would carry phases of ~1e22 rad in double precision).
    """
    if a.is_rational:
        raise NotIrrational("the collapsing sequence needs irrational a")
    out: list[tuple[int, float]] = []
    for c in convergents(a, k_count):
        n = 4 * c.q
        v = 2 * even_mode_coefficient(a, n)
        out.append((n, 8 / math.pi * (v / n ** 2) ** 2 + v / 2))
    return out
