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
normalization, so the family satisfies (phi_j, psi_k) = delta_jk.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from jumpspec.funcspace import (
    Piece, PiecewiseTrig, const, cos_term, inner_closed, inner_matrix, lincomb,
    linear, sin_term, xcos_term, xsin_term,
)
from jumpspec.param import (
    PiAngle, ParamA, is_exceptional_minus, trig_pi, zero_class_case, ZeroClassCase,
)
from jumpspec.spectrum import EigRecord, SpectralCase, enumerate_spectrum

HALF_PI = math.pi / 2


class CaseMismatch(ValueError):
    """Record's case tag is inconsistent with the parameter."""


class DegenerateNormalization(RuntimeError):
    """A closed-form pairing vanished; the case classification is broken."""


class Side(enum.Enum):
    FORWARD = "forward"
    ADJOINT = "adjoint"


class Rank(enum.Enum):
    EIGEN = "eigen"
    GENERALIZED = "generalized"


@dataclass(frozen=True)
class EigFun:
    record: EigRecord
    side: Side
    rank: Rank
    fn: PiecewiseTrig
    constants: dict
    label: str

    def to_dict(self) -> dict:
        def enc(v):
            if isinstance(v, (tuple, list, np.ndarray)):
                return [enc(x) for x in v]
            return [complex(v).real, complex(v).imag]

        return {"label": self.label, "side": self.side.value,
                "rank": self.rank.value, "lambda": self.record.lam,
                "constants": {k: enc(v) for k, v in self.constants.items()},
                "fn": json.loads(self.fn.to_json())}


@dataclass(frozen=True)
class BiorthPair:
    psi: EigFun
    phi: EigFun
    pairing: complex


# ---------------------------------------------------------------------------
# wavenumbers and exactly reduced angles
# ---------------------------------------------------------------------------

def _k_value(a: ParamA, cls: int, m: int) -> float:
    if cls == -1:
        return 4 * m / (1 - a.value)
    if cls == +1:
        return 4 * m / (1 + a.value)
    return 2.0 * m


def _minus_angle(a: ParamA, m: int) -> PiAngle:
    """pi(m + m(1+a)/(1-a)): the -1 class factor times (-1)^m, as one angle."""
    return trig_pi(lambda x: m + m * (1 + x) / (1 - x), a)


def _zero_class_angle(a: ParamA, m: int) -> PiAngle:
    """pi m(1+a); the class-0 factors are tan of half this angle."""
    return trig_pi(lambda x: m * (1 + x), a)


# ---------------------------------------------------------------------------
# closed-form pairings (raw constants set to 1)
# ---------------------------------------------------------------------------

def pairing_minus_generic(a: ParamA, m: int) -> float:
    """(phi, psi) in the -1 class, generic situation."""
    return -math.pi / 4 * (1 - a.value) * _minus_angle(a, m).sin


def pairing_plus_generic(a: ParamA, m: int) -> float:
    return (math.pi / 4 * (1 + a.value)
            * trig_pi(lambda x: m + m * (1 - x) / (1 + x), a).sin)


def pairing_zero_zero(a: ParamA) -> float:
    """(phi, psi) at the zero eigenvalue: constant against the tent."""
    return -math.pi ** 2 / 4 * (1 - a.value ** 2)


def pairing_zero_generic(a: ParamA, m: int) -> float:
    """pi/2 (1 - cos(m pi) cos(m pi a))/sin(m pi a) = (-1)^m pi/2 tan(theta/2)."""
    th = _zero_class_angle(a, m)
    return (-1) ** m * math.pi / 2 * th.versine / th.sin


def pairing_zero_odd(a: ParamA, m: int) -> float:
    return (-1) ** m * math.pi / 2


def pairing_minus_exceptional(a: ParamA, m: int) -> tuple[float, float]:
    """((phi1, psi1), (phi2, psi1)); the psi2 pairings vanish."""
    cc = _minus_angle(a, m).cos
    return (math.pi / 4 * (1 - a.value) * cc,
            math.pi / 4 * (1 + a.value) * cc)


def pairing_minus_generalised(a: ParamA, m: int) -> tuple[float, float]:
    """((phi1, xi), (phi2, xi)) in the -1 class exceptional situation."""
    av = a.value
    cc = _minus_angle(a, m).cos
    base = math.pi ** 2 / (128 * m) * (1 - av) ** 2 * (1 + av) * cc
    return (-base, base)


def pairing_eta_psi2(a: ParamA, m: int, a_minus: complex = None) -> complex:
    """(eta, psi2) with eta built from A_minus (default the admissible 1-a)."""
    av = a.value
    if a_minus is None:
        a_minus = 1 - av
    cc = _minus_angle(a, m).cos
    return (np.conj(a_minus) * math.pi ** 2 / (64 * m)
            * (1 - av) * (1 + av) * cc)


# ---------------------------------------------------------------------------
# eigenfunction constructors
# ---------------------------------------------------------------------------

def _check_membership(rec: EigRecord, a: ParamA) -> None:
    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        m = rec.class_index(-1)
        if m is None or not is_exceptional_minus(a, m):
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
        return [EigFun(rec, Side.FORWARD, Rank.EIGEN, fn, {"B": 1.0}, "psi")]

    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        m = rec.class_index(-1)
        k = _k_value(a, -1, m)
        psi1 = PiecewiseTrig.single([sin_term(1.0, k)])
        psi2 = PiecewiseTrig.single([cos_term(1.0, k)])
        return [EigFun(rec, Side.FORWARD, Rank.EIGEN, psi1, {"A": 1.0}, "psi1"),
                EigFun(rec, Side.FORWARD, Rank.EIGEN, psi2, {"B": 1.0}, "psi2")]

    if rec.case is SpectralCase.EXCEPTIONAL_ODD:
        m = rec.class_index(0)
        fn = PiecewiseTrig.single([sin_term(1.0, 2.0 * m)])
        return [EigFun(rec, Side.FORWARD, Rank.EIGEN, fn, {"A": 1.0}, "psi")]

    cls, m = rec.memberships[0]
    if cls == 0:
        # (cos(m pi) - cos(m pi a))/sin(m pi a) = tan(theta/2)
        th = _zero_class_angle(a, m)
        coef = th.versine / th.sin
        fn = PiecewiseTrig.single([cos_term(1.0, 2.0 * m), sin_term(coef, 2.0 * m)])
        return [EigFun(rec, Side.FORWARD, Rank.EIGEN, fn,
                       {"B": 1.0, "sin_coef": coef}, "psi")]
    k = _k_value(a, cls, m)
    fn = PiecewiseTrig.single([cos_term(1.0, k)])
    return [EigFun(rec, Side.FORWARD, Rank.EIGEN, fn, {"B": 1.0}, "psi")]


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


def _phi_zero_class_generic(a: ParamA, m: int, c: complex = 1.0) -> PiecewiseTrig:
    k = 2.0 * m
    xb = HALF_PI * a.value
    return PiecewiseTrig.split(xb,
                               [sin_term(c, k, k * HALF_PI)],
                               [sin_term(c, k, -k * HALF_PI)])


def eigenfunctions_Hstar(rec: EigRecord, a: ParamA) -> list[EigFun]:
    """Adjoint eigenfunction(s), two-piece representations, raw constants 1."""
    _check_membership(rec, a)
    if rec.case is SpectralCase.ZERO_EV:
        fn = phi_zero_mode(a)
        return [EigFun(rec, Side.ADJOINT, Rank.EIGEN, fn, {"C": 1.0}, "phi")]

    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        m = rec.class_index(-1)
        k = _k_value(a, -1, m)
        phi1 = _one_sided_sine(a, k, +1, 1.0)
        phi2 = _one_sided_sine(a, k, -1, 1.0)
        return [EigFun(rec, Side.ADJOINT, Rank.EIGEN, phi1, {"A_plus": 1.0}, "phi1"),
                EigFun(rec, Side.ADJOINT, Rank.EIGEN, phi2, {"A_minus": 1.0}, "phi2")]

    cls, m = rec.memberships[0]
    if rec.case is SpectralCase.EXCEPTIONAL_ODD or cls == 0:
        fn = _phi_zero_class_generic(a, m)
        return [EigFun(rec, Side.ADJOINT, Rank.EIGEN, fn, {"C": 1.0}, "phi")]
    k = _k_value(a, cls, m)
    fn = _one_sided_sine(a, k, +1 if cls == -1 else -1, 1.0)
    name = "A_plus" if cls == -1 else "A_minus"
    return [EigFun(rec, Side.ADJOINT, Rank.EIGEN, fn, {name: 1.0}, "phi")]


def generalized_xi(rec: EigRecord, a: ParamA, b: complex = 1.0) -> EigFun:
    """Root vector xi with (H - lambda) xi = psi2 = B cos(kx)."""
    if rec.case is not SpectralCase.EXCEPTIONAL_PAIR:
        raise CaseMismatch("generalized vectors exist only at exceptional pairs")
    _check_membership(rec, a)
    m = rec.class_index(-1)
    av = a.value
    k = _k_value(a, -1, m)
    pref = -b * (1 - av) / (64 * m * m)
    fn = PiecewiseTrig.single([
        cos_term(pref * (1 - av), k),
        xsin_term(pref * 8 * m, k),
    ])
    return EigFun(rec, Side.FORWARD, Rank.GENERALIZED, fn, {"B": b}, "xi")


def generalized_eta(rec: EigRecord, a: ParamA,
                    a_minus: complex | None = None) -> EigFun:
    """Dual root vector eta with (H* - lambda) eta = phi1 + phi2.

    Admissibility forces A_minus (1+a) = -A_plus (1-a); by default
    A_minus = 1-a, A_plus = -(1+a).  The phi1, phi2 on the right-hand side
    carry these same constants.
    """
    if rec.case is not SpectralCase.EXCEPTIONAL_PAIR:
        raise CaseMismatch("generalized vectors exist only at exceptional pairs")
    _check_membership(rec, a)
    m = rec.class_index(-1)
    av = a.value
    if a_minus is None:
        a_minus = 1 - av
    a_plus = -a_minus * (1 + av) / (1 - av)
    k = _k_value(a, -1, m)
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
    return EigFun(rec, Side.ADJOINT, Rank.GENERALIZED, fn,
                  {"A_minus": a_minus, "A_plus": a_plus}, "eta")


# ---------------------------------------------------------------------------
# the biorthogonal family
# ---------------------------------------------------------------------------

def _simple_pairing(rec: EigRecord, a: ParamA) -> float:
    if rec.case is SpectralCase.ZERO_EV:
        return pairing_zero_zero(a)
    if rec.case is SpectralCase.EXCEPTIONAL_ODD:
        return pairing_zero_odd(a, rec.class_index(0))
    cls, m = rec.memberships[0]
    if cls == -1:
        return pairing_minus_generic(a, m)
    if cls == +1:
        return pairing_plus_generic(a, m)
    return pairing_zero_generic(a, m)


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
        phi_hat = EigFun(rec, Side.ADJOINT, phi.rank,
                         phi.fn.scaled(1.0 / np.conj(pairing)),
                         {**phi.constants, "raw_pairing": complex(pairing),
                          "normalizer": 1.0 / np.conj(pairing)},
                         phi.label)
        pairs.append(BiorthPair(psi, phi_hat,
                                complex(inner_closed(phi_hat.fn, psi.fn))))
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
        dual = EigFun(rec, Side.ADJOINT,
                      Rank.GENERALIZED if fwd.label == "psi2" else Rank.EIGEN,
                      fn, {"mix": tuple(coef[j])}, f"dual_{fwd.label}")
        out.append(BiorthPair(fwd, dual, complex(inner_closed(fn, fwd.fn))))
    return out


def gram_matrix(pairs: list[BiorthPair]) -> np.ndarray:
    """Gram matrix (phi_j, psi_k) of a normalized family, in one batched call."""
    return inner_matrix([p.phi.fn for p in pairs], [p.psi.fn for p in pairs])


def family_to_json(pairs: list[BiorthPair]) -> str:
    return json.dumps([{"psi": p.psi.to_dict(), "phi": p.phi.to_dict(),
                        "pairing": [p.pairing.real, p.pairing.imag]}
                       for p in pairs], indent=2)
