"""Closed-form metric operator and quasi-self-adjointness checks.

The metric is a rank-one term plus three antisymmetrizers,

    Theta = phi0 (phi0, .) + P0 + (P- (+) P+),

where phi0 is the adjoint zero-mode tent (normalization constant 1) and
P0, P-, P+ antisymmetrize about the interval center, the left-piece
center, and the right-piece center.  On symbolic inputs every reflection
is an exact term rewrite, so Theta, H* Theta, and Theta H are all closed
forms and the intertwining residual is measured at machine precision with
no interpolation.  Grid application is offered for rational parameters on
uniform grids whose index set is closed under all three reflections.

Positivity is structural: (f, Theta f) = |(phi0,f)|^2 + ||P0 f||^2 +
||P- f (+) P+ f||^2.  Injectivity holds for irrational parameters because
the even Neumann-mode diagonal coefficients (1 - cos(n pi/2)cos(n pi a/2))/2
never vanish for n != 0; bounded invertibility fails because those
coefficients dip toward zero along the even modes tied to the
continued-fraction denominators of a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from jumpspec.funcspace import (
    GridFn, PiecewiseTrig, Terms, const, cos_term, inner_closed, norm_l2,
    sin_term, validate_domain_H,
)
from jumpspec.param import NotIrrational, ParamA, convergents, trig_pi
from jumpspec.eigensystem import phi_zero_mode

HALF_PI = math.pi / 2


class GridNotReflectionClosed(ValueError):
    """Grid nodes are not permuted by the three reflection maps."""


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

    # -- symbolic route ------------------------------------------------------

    def apply(self, f: PiecewiseTrig) -> PiecewiseTrig:
        """Theta f for a single-piece symbolic f; exact two-piece output."""
        coef = inner_closed(self.phi0, f)
        rank_one = self.phi0.scaled(coef)
        return rank_one + project_center(f) + project_pieces(f, self.a)

    def quadratic_form(self, f: PiecewiseTrig) -> float:
        """(f, Theta f) = |(phi0,f)|^2 + ||P0 f||^2 + ||P-f (+) P+f||^2."""
        coef = inner_closed(self.phi0, f)
        p0 = project_center(f)
        pp = project_pieces(f, self.a)
        return (abs(coef) ** 2 + inner_closed(p0, p0).real
                + inner_closed(pp, pp).real)

    def quasi_self_adjointness_residual(self, psi: PiecewiseTrig,
                                        domain_tol: float = 1e-9) -> float:
        """||H* Theta psi - Theta H psi||_2, all derivatives symbolic."""
        report = validate_domain_H(psi, self.a, tol=domain_tol)
        if not report.in_domain:
            raise DomainViolation("; ".join(report.violations))
        theta_psi = self.apply(psi)
        lhs = theta_psi.derivative(2).scaled(-1.0)
        rhs = self.apply(psi.derivative(2).scaled(-1.0))
        return norm_l2(lhs - rhs)

    # -- grid route (rational a, uniform reflection-closed grid) -------------

    def grid(self, min_nodes: int = 256) -> GridFn:
        """Uniform grid closed under the three reflections (rational a only).

        Returns a GridFn template (values zeroed) with trapezoid weights;
        the restart point is a node by construction.
        """
        if not self.a.is_rational:
            raise NotIrrational(
                "reflection-closed uniform grids need rational a; use the "
                "symbolic route for irrational parameters")
        q = self.a.fraction.denominator
        n = 2 * q * max(1, math.ceil(min_nodes / (2 * q)))
        nodes = np.linspace(-HALF_PI, HALF_PI, n + 1)
        h = math.pi / n
        weights = np.full(n + 1, h)
        j_b = (n * (self.a.fraction + 1) // 2)
        weights[[0, -1]] = h / 2
        weights[int(j_b)] = h  # h/2 from each side of the restart node
        return GridFn(nodes=nodes, values=np.zeros(n + 1, dtype=complex),
                      weights=weights, a_value=self.a.value)

    def _index_maps(self, nodes: np.ndarray):
        n = len(nodes) - 1
        frac = self.a.fraction
        if frac is None:
            raise GridNotReflectionClosed("irrational a: grid route unavailable")
        j_b2 = n * (frac + 1)
        if j_b2.denominator != 2 and j_b2.denominator != 1:
            raise GridNotReflectionClosed("restart point is not a grid node")
        if (n * (frac + 1)) % 2 != 0:
            raise GridNotReflectionClosed("grid is not closed under the piece reflections")
        j_b = int(n * (frac + 1) / 2)
        expected = np.linspace(-HALF_PI, HALF_PI, n + 1)
        if not np.allclose(nodes, expected, rtol=0, atol=1e-12):
            raise GridNotReflectionClosed("grid nodes are not the uniform lattice")
        j = np.arange(n + 1)
        r0 = n - j
        r_minus = np.where(j <= j_b, j_b - j, j)
        r_plus = np.where(j >= j_b, n + j_b - j, j)
        return j_b, r0, r_minus, r_plus

    def apply_grid(self, f: GridFn) -> GridFn:
        """Theta f on a reflection-closed uniform grid (exact permutations)."""
        j_b, r0, r_minus, r_plus = self._index_maps(f.nodes)
        v = f.values
        p0 = 0.5 * (v - v[r0])
        ppm = np.where(np.arange(len(v)) <= j_b,
                       0.5 * (v - v[r_minus]),
                       0.5 * (v - v[r_plus]))
        phi0_v = self.phi0(f.nodes)
        coef = np.sum(f.weights * np.conj(phi0_v) * v)
        return GridFn(nodes=f.nodes, values=coef * phi0_v + p0 + ppm,
                      weights=f.weights, a_value=f.a_value)


def apply_theta(f: PiecewiseTrig | GridFn, a: ParamA) -> PiecewiseTrig | GridFn:
    op = MetricOp.build(a)
    if isinstance(f, GridFn):
        return op.apply_grid(f)
    return op.apply(f)


def quasi_self_adjointness_residual(psi: PiecewiseTrig, a: ParamA) -> float:
    return MetricOp.build(a).quasi_self_adjointness_residual(psi)


# ---------------------------------------------------------------------------
# Neumann-mode probes
# ---------------------------------------------------------------------------

def neumann_mode(n: int) -> PiecewiseTrig:
    """Orthonormal Neumann mode: cos(nx) for even n, sin(nx) for odd n."""
    if n == 0:
        return PiecewiseTrig.single([const(math.sqrt(1 / math.pi))])
    amp = math.sqrt(2 / math.pi)
    if n % 2 == 0:
        return PiecewiseTrig.single([cos_term(amp, float(n))])
    return PiecewiseTrig.single([sin_term(amp, float(n))])


def even_mode_coefficient(a: ParamA, n: int) -> float:
    """Diagonal coefficient (1 - cos(n pi/2) cos(n pi a/2))/2 for even n.

    With h = n/2 the product of cosines is cos(pi h(1+a)), so the
    coefficient is half the versine of that one angle.  trig_pi reduces it
    exactly and forms 1 - cos without cancellation, so the value keeps its
    relative accuracy at the deep continued-fraction denominators, where
    it falls to ~1e-30.
    """
    if n % 2:
        raise ValueError("diagonal formula applies to even modes")
    half = n // 2
    return trig_pi(lambda x: half * (1 + x), a).versine / 2


def injectivity_probe(a: ParamA, n_max: int, cross_n_max: int = 40) -> dict:
    """Diagonal positivity scan plus off-diagonal vanishing evidence.

    Returns the even-mode diagonal coefficients up to n_max (all positive
    for n != 0 when a is irrational) and the largest off-diagonal pairing
    |(chi_m, P- chi_n (+) P+ chi_n)| over even m != n <= cross_n_max.
    """
    if a.is_rational:
        raise NotIrrational("injectivity statement needs irrational a")
    if n_max > 10 ** 4:
        raise ValueError("n_max limited to 10^4")
    diagonal = [(n, even_mode_coefficient(a, n)) for n in range(0, n_max + 1, 2)]
    positive = all(c > 0 for n, c in diagonal if n != 0)

    max_off = 0.0
    max_diag_dev = 0.0
    modes = {n: neumann_mode(n) for n in range(0, cross_n_max + 1, 2)}
    projected = {n: project_pieces(modes[n], a) for n in modes}
    for n, pn in projected.items():
        for m, chim in modes.items():
            val = inner_closed(chim, pn)
            if m == n:
                max_diag_dev = max(max_diag_dev,
                                   abs(val - even_mode_coefficient(a, n)))
            else:
                max_off = max(max_off, abs(val))
    return {"diagonal": diagonal, "all_positive": positive,
            "max_offdiagonal": max_off, "max_diagonal_deviation": max_diag_dev}


def rayleigh_quotient(a: ParamA, n: int) -> float:
    """(chi_n, Theta chi_n) for the orthonormal Neumann mode chi_n."""
    op = MetricOp.build(a)
    return op.quadratic_form(neumann_mode(n))


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
