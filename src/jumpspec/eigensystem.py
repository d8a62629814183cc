"""Eigenfunctions, generalized eigenvectors, and the biorthogonal family.

Forward eigenfunctions live on the whole interval; adjoint eigenfunctions
are direct sums over the two pieces cut at the restart point.  At an
exceptional point (a spectral point shared by all three families) the
root space is three-dimensional: the two eigenfunctions sin(kx), cos(kx)
are extended by a generalized vector xi with (H - lambda) xi = psi_2, and
the dual chain adds eta with (H* - lambda) eta = phi_1 + phi_2, which is
admissible only under the constraint A_minus (1+a) = -A_plus (1-a).

All pairings used for normalization are closed forms; the quadrature
route must reproduce them, not the other way around.  Forward members are
kept in their printed shape (raw constants 1) and the duals absorb the
normalization, so the family satisfies (phi_j, psi_k) = delta_jk; the
one check of that is `gram_matrix`, all entries in one batched call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from jumpspec.funcspace import (  # noqa: F401  perfbench's tracer rebinds inner_closed here
    Piece, PiecewiseTrig, const, cos_term, inner_closed, inner_matrix, lincomb,
    linear, sin_term, xcos_term, xsin_term,
)
from jumpspec.param import (
    ParamA, family_angle, is_exceptional, zero_class_case, ZeroClassCase,
)
from jumpspec.spectrum import EigRecord, SpectralCase, enumerate_spectrum

HALF_PI = math.pi / 2


class CaseMismatch(ValueError):
    """Record's case tag is inconsistent with the parameter."""


class DegenerateNormalization(RuntimeError):
    """A closed-form pairing vanished; the case classification is broken."""


class Rank(enum.Enum):
    EIGEN = "eigen"
    GENERALIZED = "generalized"


@dataclass(frozen=True)
class EigFun:
    record: EigRecord
    rank: Rank
    fn: PiecewiseTrig
    constants: dict
    label: str


@dataclass(frozen=True)
class BiorthPair:
    psi: EigFun
    phi: EigFun


# ---------------------------------------------------------------------------
# closed-form pairings (raw constants set to 1)
# ---------------------------------------------------------------------------
#
# The +-1 class pairings carry sin or cos of pi(m + t), t the family's
# angle turns, which is (-1)^m times that of the family angle pi t.

def pairing_class_generic(a: ParamA, cls: int, m: int) -> float:
    """(phi, psi) in the cls = -1 or +1 class, generic situation:
    cls pi/4 (1 + cls a) (-1)^m sin(theta)."""
    return cls * math.pi / 4 * (1 + cls * a.value) * (-1) ** m * family_angle(a, cls, m).sin


def pairing_zero_zero(a: ParamA) -> float:
    """(phi, psi) at the zero eigenvalue: constant against the tent."""
    return -math.pi ** 2 / 4 * (1 - a.value ** 2)


def pairing_zero_generic(a: ParamA, m: int) -> float:
    """pi/2 (1 - cos(m pi) cos(m pi a))/sin(m pi a) = (-1)^m pi/2 tan(theta/2)."""
    th = family_angle(a, 0, m)
    return (-1) ** m * math.pi / 2 * th.versine / th.sin


def pairing_zero_odd(a: ParamA, m: int) -> float:
    return (-1) ** m * math.pi / 2


def pairing_minus_exceptional(a: ParamA, m: int) -> tuple[float, float]:
    """((phi1, psi1), (phi2, psi1)); the psi2 pairings vanish."""
    cc = (-1) ** m * family_angle(a, -1, m).cos
    return (math.pi / 4 * (1 - a.value) * cc,
            math.pi / 4 * (1 + a.value) * cc)


def pairing_minus_generalised(a: ParamA, m: int) -> tuple[float, float]:
    """((phi1, xi), (phi2, xi)) in the -1 class exceptional situation."""
    av = a.value
    cc = (-1) ** m * family_angle(a, -1, m).cos
    base = math.pi ** 2 / (128 * m) * (1 - av) ** 2 * (1 + av) * cc
    return (-base, base)


def pairing_eta_psi2(a: ParamA, m: int) -> float:
    """(eta, psi2) with eta built from the admissible A_minus = 1-a."""
    av = a.value
    cc = (-1) ** m * family_angle(a, -1, m).cos
    return ((1 - av) * math.pi ** 2 / (64 * m)
            * (1 - av) * (1 + av) * cc)


# ---------------------------------------------------------------------------
# eigenfunction constructors
# ---------------------------------------------------------------------------

def _check_membership(rec: EigRecord, a: ParamA) -> None:
    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        m = rec.class_index(-1)
        if m is None or not is_exceptional(a, -1, m):
            raise CaseMismatch("exceptional-pair record inconsistent with parameter")
    elif rec.case is SpectralCase.EXCEPTIONAL_ODD:
        m = rec.class_index(0)
        if m is None or zero_class_case(a, m) is not ZeroClassCase.EXCEPTIONAL_ODD:
            raise CaseMismatch("exceptional-odd record inconsistent with parameter")


def eigenfunctions_H(rec: EigRecord, a: ParamA) -> list[EigFun]:
    """Forward eigenfunction(s) of the record, raw constants set to 1."""
    _check_membership(rec, a)
    if rec.case is SpectralCase.ZERO_EV:
        fn = PiecewiseTrig.single([const(1.0)])
        return [EigFun(rec, Rank.EIGEN, fn, {"B": 1.0}, "psi")]

    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        psi1 = PiecewiseTrig.single([sin_term(1.0, rec.k)])
        psi2 = PiecewiseTrig.single([cos_term(1.0, rec.k)])
        return [EigFun(rec, Rank.EIGEN, psi1, {"A": 1.0}, "psi1"),
                EigFun(rec, Rank.EIGEN, psi2, {"B": 1.0}, "psi2")]

    if rec.case is SpectralCase.EXCEPTIONAL_ODD:
        fn = PiecewiseTrig.single([sin_term(1.0, rec.k)])
        return [EigFun(rec, Rank.EIGEN, fn, {"A": 1.0}, "psi")]

    cls, m = rec.memberships[0]
    if cls == 0:
        # (cos(m pi) - cos(m pi a))/sin(m pi a) = tan(theta/2)
        th = family_angle(a, 0, m)
        coef = th.versine / th.sin
        fn = PiecewiseTrig.single([cos_term(1.0, rec.k), sin_term(coef, rec.k)])
        return [EigFun(rec, Rank.EIGEN, fn, {"B": 1.0, "sin_coef": coef}, "psi")]
    fn = PiecewiseTrig.single([cos_term(1.0, rec.k)])
    return [EigFun(rec, Rank.EIGEN, fn, {"B": 1.0}, "psi")]


def _one_sided_sine(a: ParamA, k: float, side: int, amp: complex) -> PiecewiseTrig:
    """Adjoint building block: amp*sin(k(x -+ pi/2)) on one piece, 0 elsewhere."""
    xb = HALF_PI * a.value
    if side > 0:
        return PiecewiseTrig.split(xb, [], [sin_term(amp, k, -k * HALF_PI)])
    return PiecewiseTrig.split(xb, [sin_term(amp, k, k * HALF_PI)], [])


def phi_zero_mode(a: ParamA, c: complex = 1.0) -> PiecewiseTrig:
    """The adjoint zero-eigenfunction: the tent (C(a-1)(x+pi/2), C(a+1)(x-pi/2))."""
    av = a.value
    xb = HALF_PI * av
    return PiecewiseTrig.split(
        xb,
        [linear(c * (av - 1)), const(c * (av - 1) * HALF_PI)],
        [linear(c * (av + 1)), const(-c * (av + 1) * HALF_PI)])


def _phi_zero_class_generic(a: ParamA, k: float) -> PiecewiseTrig:
    xb = HALF_PI * a.value
    return PiecewiseTrig.split(xb,
                               [sin_term(1.0, k, k * HALF_PI)],
                               [sin_term(1.0, k, -k * HALF_PI)])


def eigenfunctions_Hstar(rec: EigRecord, a: ParamA) -> list[EigFun]:
    """Adjoint eigenfunction(s), two-piece representations, raw constants 1."""
    _check_membership(rec, a)
    if rec.case is SpectralCase.ZERO_EV:
        fn = phi_zero_mode(a)
        return [EigFun(rec, Rank.EIGEN, fn, {"C": 1.0}, "phi")]

    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        phi1 = _one_sided_sine(a, rec.k, +1, 1.0)
        phi2 = _one_sided_sine(a, rec.k, -1, 1.0)
        return [EigFun(rec, Rank.EIGEN, phi1, {"A_plus": 1.0}, "phi1"),
                EigFun(rec, Rank.EIGEN, phi2, {"A_minus": 1.0}, "phi2")]

    cls = rec.memberships[0][0]
    if rec.case is SpectralCase.EXCEPTIONAL_ODD or cls == 0:
        fn = _phi_zero_class_generic(a, rec.k)
        return [EigFun(rec, Rank.EIGEN, fn, {"C": 1.0}, "phi")]
    fn = _one_sided_sine(a, rec.k, +1 if cls == -1 else -1, 1.0)
    name = "A_plus" if cls == -1 else "A_minus"
    return [EigFun(rec, Rank.EIGEN, fn, {name: 1.0}, "phi")]


def generalized_xi(rec: EigRecord, a: ParamA) -> EigFun:
    """Root vector xi with (H - lambda) xi = psi2 = cos(kx)."""
    if rec.case is not SpectralCase.EXCEPTIONAL_PAIR:
        raise CaseMismatch("generalized vectors exist only at exceptional pairs")
    _check_membership(rec, a)
    m = rec.class_index(-1)
    av = a.value
    k = rec.k
    pref = -(1 - av) / (64 * m * m)
    fn = PiecewiseTrig.single([
        cos_term(pref * (1 - av), k),
        xsin_term(pref * 8 * m, k),
    ])
    return EigFun(rec, Rank.GENERALIZED, fn, {"B": 1.0}, "xi")


def generalized_eta(rec: EigRecord, a: ParamA) -> EigFun:
    """Dual root vector eta with (H* - lambda) eta = phi1 + phi2.

    Admissibility forces A_minus (1+a) = -A_plus (1-a); eta takes
    A_minus = 1-a, A_plus = -(1+a).  The phi1, phi2 on the right-hand side
    carry these same constants.
    """
    if rec.case is not SpectralCase.EXCEPTIONAL_PAIR:
        raise CaseMismatch("generalized vectors exist only at exceptional pairs")
    _check_membership(rec, a)
    m = rec.class_index(-1)
    av = a.value
    a_minus = 1 - av
    a_plus = -a_minus * (1 + av) / (1 - av)
    k = rec.k
    xb = HALF_PI * av

    def piece(amp: complex, sgn: float) -> list:
        # amp * (1-a)/(64 m^2) [8m(x + sgn*pi/2)cos(k(x + sgn*pi/2))
        #                       - (1-a) sin(k(x + sgn*pi/2))]
        pref = amp * (1 - av) / (64 * m * m)
        shift = sgn * k * HALF_PI
        return [
            xcos_term(pref * 8 * m, k, shift),
            cos_term(pref * 8 * m * sgn * HALF_PI, k, shift),
            sin_term(-pref * (1 - av), k, shift),
        ]

    fn = PiecewiseTrig((
        Piece(-HALF_PI, xb, piece(a_minus, +1.0)),
        Piece(xb, HALF_PI, piece(a_plus, -1.0)),
    ))
    return EigFun(rec, Rank.GENERALIZED, fn, {"A_minus": a_minus, "A_plus": a_plus}, "eta")


# ---------------------------------------------------------------------------
# the biorthogonal family
# ---------------------------------------------------------------------------

def _simple_pairing(rec: EigRecord, a: ParamA) -> float:
    if rec.case is SpectralCase.ZERO_EV:
        return pairing_zero_zero(a)
    if rec.case is SpectralCase.EXCEPTIONAL_ODD:
        return pairing_zero_odd(a, rec.class_index(0))
    cls, m = rec.memberships[0]
    if cls == 0:
        return pairing_zero_generic(a, m)
    return pairing_class_generic(a, cls, m)


def root_system(rec: EigRecord, a: ParamA):
    """(psi1, psi2, xi, phi1, phi2, eta) at an exceptional pair."""
    psi1, psi2 = eigenfunctions_H(rec, a)
    phi1, phi2 = eigenfunctions_Hstar(rec, a)
    xi = generalized_xi(rec, a)
    eta = generalized_eta(rec, a)
    return psi1, psi2, xi, phi1, phi2, eta


def biorthogonalize(a: ParamA, lambda_max: float) -> list[BiorthPair]:
    """Complete normalized family for all spectral points <= lambda_max.

    Forward members keep their printed form; each dual is scaled (and,
    inside a three-dimensional root space, recombined) so the Gram matrix
    is the identity.
    """
    pairs: list[BiorthPair] = []
    for rec in enumerate_spectrum(a, lambda_max):
        if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
            pairs.extend(_root_space_pairs(rec, a))
            continue
        psi = eigenfunctions_H(rec, a)[0]
        phi = eigenfunctions_Hstar(rec, a)[0]
        pairing = _simple_pairing(rec, a)
        if abs(pairing) < 1e-13:
            raise DegenerateNormalization(
                f"closed-form pairing vanished at lambda={rec.lam}")
        pairs.append(BiorthPair(
            psi, replace(phi, fn=phi.fn.scaled(1.0 / np.conj(pairing)))))
    return pairs


def _root_space_pairs(rec: EigRecord, a: ParamA) -> list[BiorthPair]:
    psi1, psi2, xi, phi1, phi2, eta = root_system(rec, a)
    basis = [psi1, psi2, xi]
    trial = [phi1, eta, phi2]
    gram = inner_matrix([t.fn for t in trial], [b.fn for b in basis])
    if abs(np.linalg.det(gram)) < 1e-12:
        raise DegenerateNormalization(
            f"root-space pairing matrix is singular at lambda={rec.lam}")
    coef = np.conj(np.linalg.inv(gram))
    out: list[BiorthPair] = []
    for j, fwd in enumerate(basis):
        fn = lincomb([t.fn for t in trial], coef[j])
        dual = EigFun(rec, Rank.GENERALIZED if fwd.label == "psi2" else Rank.EIGEN,
                      fn, {}, f"dual_{fwd.label}")
        out.append(BiorthPair(fwd, dual))
    return out


def gram_matrix(pairs: list[BiorthPair]) -> np.ndarray:
    """Gram matrix (phi_j, psi_k) of a normalized family, in one batched call."""
    return inner_matrix([p.phi.fn for p in pairs], [p.psi.fn for p in pairs])
