"""Closed-form metric operator and its contract on the root system.

The metric is a rank-one term plus three antisymmetrizers,

    Theta = phi0 (phi0, .) + P0 + (P- (+) P+),

where phi0 is the adjoint zero-mode tent (normalization constant 1) and
P0, P-, P+ antisymmetrize about the interval center, the left-piece
center, and the right-piece center.  On symbolic inputs every reflection
is an exact term rewrite, so Theta, H* Theta, and Theta H are all closed
forms and the intertwining residual is measured at machine precision with
no interpolation.  Theta acts on a whole funcspace.Stack at once: P0 and
P- (+) P+ rewrite every member's rows, the rank-one coefficients come from
one inner_matrix call, and one merge per owner sums the three parts.

(f, Theta f) = |(phi0,f)|^2 + ||P0 f||^2 + ||P- f (+) P+ f||^2 cannot be
negative, so positivity on arbitrary inputs shows nothing.  What the paper
claims is that (Theta ., .) is an inner product in which the root vectors
of H are orthogonal: Theta H = H* Theta maps each root vector to a
multiple of its dual, Theta psi_j = c_j phi_j with c_j > 0.
`MetricOp.root_system_report` checks that identity member by member, in
time linear in the family: its residual r_j over ||psi_j|| bounds every
|(psi_i, Theta psi_j)|/(||psi_i|| ||psi_j||), i != j, so no n x n matrix
is formed.  `contract_failures` gates it; a reflection center off by 1e-9,
a c_j off by 1e-6, a dropped rank-one term or a dropped P0 each fail it.

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
    HALF_PI, Piece, PiecewiseTrig, Stack, Terms, grid_nodes, inner_closed, inner_matrix,
    inner_pairs, norms,
)
from jumpspec.param import NotIrrational, ParamA, convergents, family_angle
from jumpspec.eigensystem import BiorthFamily, phi_zero_mode

# c_j/||psi_j||^2 not above this is no evidence that c_j > 0
ROUNDING_BOUND = 1e-12
# rounding bounds of the residuals root_system_report scales: over nine a
# (the exceptional chains of 1/3, 2/5, 0 and -3/7 included) and families
# of 14 to 10001 members, r_j read at most 2.03 eps max(1, k_j) kappa_j and
# the intertwining residual at most 3.22 eps max(1, lambda_j) ||psi_j||
ROOT_RESIDUAL_C = 8.0
INTERTWINING_C = 8.0


class DomainViolation(ValueError):
    """Input is not in the operator domain."""


# ---------------------------------------------------------------------------
# symbolic reflections
# ---------------------------------------------------------------------------

def reflect_terms(terms: Terms, s: float) -> Terms:
    """Rows of x -> f(s - x) for a term sum f, not merged.

    (s - x)^p cos(k(s - x) + t - q pi/2) = (s^p - p x) cos(kx - (ks + t) + q pi/2):
    each term keeps k, takes the shift -(ks + t) and the quarter turns -q,
    and splits into an x^0 row with coefficient c s^p and an x^1 row with
    coefficient -p c (zero, so dropped by a merge, when p = 0).
    """
    shift, quarter = -(terms.k * s + terms.s), -terms.q
    flat = Terms(np.zeros_like(terms.p), terms.c * s ** terms.p, terms.k, shift, quarter)
    sloped = Terms(np.ones_like(terms.p), -terms.p * terms.c, terms.k, shift, quarter)
    return Terms.concat((flat, sloped))


def _single_piece(fs: Stack) -> tuple[Terms, np.ndarray]:
    if len(fs.pieces) != 1:
        raise DomainViolation(
            "symbolic metric application needs a single-piece representation "
            "(operator-domain functions are globally smooth)")
    return fs.pieces[0].terms, fs.pieces[0].owners


def _antisymmetric_rows(fs: Stack, s: float) -> tuple[Terms, np.ndarray]:
    """Rows of (f_j(x) - f_j(s - x))/2 for every member, in owner order and
    not merged: per owner, the halved rows of f_j, then its reflected rows."""
    terms, owners = _single_piece(fs)
    rows = Terms.concat((terms.scaled(0.5), reflect_terms(terms, s).scaled(-0.5)))
    owners = np.concatenate((owners, owners, owners))
    order = np.argsort(owners, kind="stable")
    return rows[order], owners[order]


def project_center(fs: Stack) -> Stack:
    """P0 f_j = (f_j - f_j(-x))/2 on the whole interval, as rows not yet merged."""
    return Stack((Piece(-HALF_PI, HALF_PI, *_antisymmetric_rows(fs, 0.0)),), fs.count)


def project_pieces(fs: Stack, a: ParamA) -> Stack:
    """(P- (+) P+) f_j: each piece antisymmetrized about its own center, as
    rows not yet merged."""
    av = a.value
    xb = HALF_PI * av
    return Stack((Piece(-HALF_PI, xb, *_antisymmetric_rows(fs, -HALF_PI * (1 - av))),
                  Piece(xb, HALF_PI, *_antisymmetric_rows(fs, HALF_PI * (1 + av)))), fs.count)


def _require_domain(fs: Stack, a: ParamA, tol: float = 1e-9) -> None:
    """DomainViolation unless every f_j of a single-piece Stack meets the
    three-point condition f(-pi/2) = f(pi*a/2) = f(pi/2) to tol times
    max(1, sup |f_j|), the sup read on the 257 composite Lobatto nodes of
    grid_nodes(a, 128) (a uniform grid aliases: at k in 256Z every node of
    the 257-point one is a zero of sin kx); all members are sampled in one
    pass.  (A single piece is C1 across the restart point.)"""
    _single_piece(fs)
    xb = HALF_PI * a.value
    vals = fs.values(np.concatenate(([-HALF_PI, xb, HALF_PI], grid_nodes(a, 128)[0])))
    scale = np.maximum(1.0, np.abs(vals[:, 3:]).max(axis=1, initial=0.0))
    deviation = np.abs(vals[:, [0, 2]] - vals[:, [1]])
    bad = np.argwhere(deviation > tol * scale[:, None])
    if len(bad):
        raise DomainViolation("; ".join(
            f"f_{j}: boundary condition f({'-' if end == 0 else ''}pi/2) = f(pi*a/2): "
            f"deviation {deviation[j, end]:.3e}" for j, end in bad))


@dataclass(frozen=True)
class MetricOp:
    """The metric at a fixed parameter; phi0 carries normalization 1."""

    a: ParamA
    phi0: PiecewiseTrig

    @classmethod
    def build(cls, a: ParamA) -> "MetricOp":
        return cls(a=a, phi0=phi_zero_mode(a))

    def apply_all(self, fs: Stack) -> Stack:
        """Theta f_j for every member of a single-piece Stack; exact
        two-piece output.  The rank-one coefficients (phi0, f_j) come from
        one inner_matrix call; the rows of P0 f_j, of (P- (+) P+) f_j and of
        phi0 (phi0, f_j) are merged once per owner."""
        coef = inner_matrix(self.phi0, fs)[0]
        rank_one = Stack.join([self.phi0] * fs.count).scaled(coef)
        return Stack.total((project_center(fs), project_pieces(fs, self.a), rank_one))

    def intertwining_residuals(self, fs: Stack, theta_fs: Stack | None = None) -> np.ndarray:
        """||H* Theta f_j - Theta H f_j||_2 for every member, all derivatives
        symbolic: the differences -(Theta f_j)'' + Theta(f_j'') as one Stack,
        normed by funcspace.norms.  theta_fs is apply_all(fs) when the caller
        has it already.  DomainViolation (`_require_domain`) unless every
        f_j is in the operator domain."""
        _require_domain(fs, self.a)
        if theta_fs is None:
            theta_fs = self.apply_all(fs)
        return norms(Stack.total((theta_fs.derivative(2).scaled(-1.0),
                                  self.apply_all(fs.derivative(2)))))

    def root_system_report(self, pairs: BiorthFamily) -> dict:
        """Theta on a biorthogonal family, where Theta psi_j = c_j phi_j,
        checked member by member.

        Theta psi_j is formed for the whole family at once (apply_all),
        c_j = (psi_j, Theta psi_j) by inner_pairs, and every norm, that of
        r_j = ||Theta psi_j - c_j phi_j||/||psi_j|| included, by norms.
        For i != j, (psi_i, phi_j) = 0, so by Cauchy-Schwarz r_j bounds
        |(psi_i, Theta psi_j - c_j phi_j)|/(||psi_i|| ||psi_j||) = |(psi_i,
        Theta psi_j)|/(||psi_i|| ||psi_j||) for every i, members beyond the
        truncation included.  r_j is over ||psi_j||, not ||Theta psi_j||:
        the rounding of Theta psi_j's rows scales with psi_j's, and Theta
        nearly annihilates some psi_j (||Theta psi_j|| = 1.5e-5 ||psi_j||
        at 1/pi, lambda = 504100).  Reported:

        - positivity_min: min_j c_j/||psi_j||^2;
        - max_root_residual: max_j r_j, and max_root_residual_scaled:
          max_j r_j/(eps max(1, k_j) kappa_j), the rounding scale, with
          kappa_j = ||phi_j|| ||psi_j||;
        - max_kappa_ratio: max_j c_j kappa_j/(||Theta|| ||psi_j||^2).  It is
          at most 1, since c_j ||phi_j|| = ||Theta psi_j|| <= ||Theta||
          ||psi_j||, and ||Theta|| <= ||phi0||^2 + 2 (a rank-one term and
          two orthogonal projections) is the norm used;
        - max_intertwining_residual: max_j of the intertwining residual of
          psi_j over ||psi_j||, from the same Theta psi_j, and
          max_intertwining_scaled: max_j of it over eps max(1, lambda_j).
        """
        theta_psi = self.apply_all(pairs.psi)
        c = inner_pairs(pairs.psi, theta_psi).real
        # ||psi_j||, ||phi_j|| and ||Theta psi_j - c_j phi_j||, from one call
        psi_norms, phi_norms, misfit = norms(Stack.join((
            pairs.psi, pairs.phi, Stack.total((theta_psi, pairs.phi.scaled(-c)))))).reshape(3, -1)
        residual = misfit / psi_norms
        intertwining = self.intertwining_residuals(pairs.psi, theta_psi) / psi_norms
        kappa, c_rel = psi_norms * phi_norms, c / psi_norms ** 2
        # eps max(1, k_j) and eps max(1, lambda_j)
        eps_k, eps_lam = np.finfo(float).eps * np.maximum(
            1.0, [(rec.k, rec.lam) for rec in pairs.records]).T
        theta_norm = inner_closed(self.phi0, self.phi0).real + 2
        return {
            "positivity_min": float(c_rel.min()),
            "max_root_residual": float(residual.max()),
            "max_root_residual_scaled": float(np.max(residual / (eps_k * kappa))),
            "max_kappa_ratio": float(np.max(c_rel * kappa) / theta_norm),
            "max_intertwining_residual": float(intertwining.max()),
            "max_intertwining_scaled": float(np.max(intertwining / eps_lam)),
        }


def contract_failures(report: dict) -> list[str]:
    """One message per bound a root_system_report breaks.  At irrational a
    every bound must hold; at rational a positivity_min reads ~0, since
    Theta is not injective on the exceptional root spaces."""
    failures = []
    if report["max_root_residual_scaled"] > ROOT_RESIDUAL_C:
        failures.append(f"Theta psi_j - c_j phi_j: r_j up to "
                        f"{report['max_root_residual_scaled']:.3g} x eps max(1, k_j) kappa_j, "
                        f"above {ROOT_RESIDUAL_C:g}")
    if not report["positivity_min"] > ROUNDING_BOUND:
        failures.append(f"positivity_min {report['positivity_min']:.3e} "
                        f"not above the rounding floor {ROUNDING_BOUND:g}")
    if report["max_kappa_ratio"] > 1:
        failures.append(f"c_j kappa_j/(||Theta|| ||psi_j||^2) = "
                        f"{report['max_kappa_ratio']:.3e} > 1")
    if report["max_intertwining_scaled"] > INTERTWINING_C:
        failures.append(f"intertwining residual up to {report['max_intertwining_scaled']:.3g}"
                        f" x eps max(1, lambda_j), above {INTERTWINING_C:g}")
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
