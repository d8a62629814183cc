"""Eigenfunctions, generalized eigenvectors, and the biorthogonal family.

Forward eigenfunctions live on the whole interval; adjoint eigenfunctions
are direct sums over the two pieces cut at the restart point.  At an
exceptional point (a spectral point shared by all three families) the
root space is three-dimensional: the two eigenfunctions sin(kx), cos(kx)
are extended by a generalized vector xi with (H - lambda) xi = psi_2, and
the dual chain adds eta with (H* - lambda) eta = phi_1 + phi_2, which is
admissible only under the constraint A_minus (1+a) = -A_plus (1-a).

Root vectors are built as term rows, for any number of spectral points
at once (`_chains`), in funcspace.Stacks: the family (`biorthogonalize`)
keeps the forward members printed (raw constants 1) and lets the duals
absorb the normalization in closed form (no integral builds them), and
`gram_matrix` checks (phi_j, psi_k) = delta_jk in one inner_matrix call
over the stacked rows.  A member is the PiecewiseTrig that its Stack's
`fn` builds; the family keeps the records and labels as tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from jumpspec.funcspace import (  # noqa: F401  perfbench's tracer rebinds inner_closed here
    HALF_PI, Piece, PiecewiseTrig, Stack, Terms, inner_closed, inner_matrix,
)
from jumpspec.param import ParamA, exact_turns, family_angle, is_exceptional
from jumpspec.spectrum import EigRecord, SpectralCase, enumerate_spectrum

_ZERO_RECORD = EigRecord(0.0, 0.0, ((0, 0),), 1, 1, SpectralCase.ZERO_EV)
# forward labels of a simple record and of an exceptional pair
_NAMES = {False: ("psi",), True: ("psi1", "psi2", "xi")}


class CaseMismatch(ValueError):
    """Record's case tag is inconsistent with the parameter."""


class DegenerateNormalization(RuntimeError):
    """A closed-form pairing vanished; the case classification is broken."""


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


# ---------------------------------------------------------------------------
# root vectors as term rows
# ---------------------------------------------------------------------------

def _check_membership(rec: EigRecord, a: ParamA) -> None:
    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        m = rec.class_index(-1)
        if m is None or not is_exceptional(a, -1, m):
            raise CaseMismatch("exceptional-pair record inconsistent with parameter")
    elif rec.case is SpectralCase.EXCEPTIONAL_ODD:
        # the class 0 turns m(1 + a) = p/q are an odd integer: p = q mod 2q
        m = rec.class_index(0)
        t = None if m is None else exact_turns(a, 0, m)
        if t is None or t[0] % (2 * t[1]) != t[1]:
            raise CaseMismatch("exceptional-odd record inconsistent with parameter")


def _simple_pairing(rec: EigRecord, a: ParamA) -> float:
    if rec.case is SpectralCase.ZERO_EV:
        return pairing_zero_zero(a)
    if rec.case is SpectralCase.EXCEPTIONAL_ODD:
        return pairing_zero_odd(a, rec.class_index(0))
    cls, m = rec.memberships[0]
    if cls == 0:
        return pairing_zero_generic(a, m)
    return pairing_class_generic(a, cls, m)


def _terms(rows: list[tuple]) -> tuple[Terms, np.ndarray]:
    """Rows (owner, p, c, k, s, q) in owner and merged order as Terms, zeros dropped."""
    owner, p, c, k, s, q = (np.array(col, dtype=dtype) for col, dtype in zip(
        list(zip(*rows)) or [()] * 6, (np.int64, np.int64, complex, float, float, np.int64)))
    keep = c != 0
    return Terms(p[keep], c[keep], k[keep], s[keep], q[keep]), owner[keep]


def _chains(a: ParamA, records: list[EigRecord], normalized: bool = False) -> tuple[Stack, Stack]:
    """Forward and adjoint root vectors of the records, one owner each in
    record order, raw constants 1, in merged term order: for a simple record
    psi = 1 (lambda = 0), cos(kx), cos(kx) + tan(theta/2) sin(kx) (class 0,
    theta its family angle) or sin(kx) (exceptional odd), and phi = the tent
    ((a-1)(x + pi/2) | (a+1)(x - pi/2)) or sin(k(x + pi/2)) on the left piece
    (classes 0, +1) and sin(k(x - pi/2)) on the right (classes 0, -1); for an
    exceptional pair psi1, psi2 = sin(kx), cos(kx), xi = -(1-a)/(64 m^2)
    ((1-a) cos(kx) + 8m x sin(kx)), and the adjoint rows in the order phi1,
    eta, phi2 (adjoint j is forward j's partner in a projection), phi1,
    phi2 the right and left sines and eta = A (1-a)/(64 m^2) (8m (x +-
    pi/2) cos(k(x +- pi/2)) - (1-a) sin(k(x +- pi/2))), A = 1-a on the left
    piece and -(1+a) on the right.
    normalized: the duals instead: phi over conj of its closed-form pairing;
    at an exceptional pair, with t its class +1 index, sigma = (-1)^(m+t),
    the rows of conj(P^-1), P = (phi1, eta, phi2) x (psi1, psi2, xi):
    dual psi1 = (2 sigma/pi)(phi1 + phi2), dual xi = (64 m sigma/pi^2)
    (phi2/((1-a)(1+a)) - phi1/(1-a)^2), dual psi2 = (sigma/pi^2)(-(2/m) phi1
    + 64m/((1-a)^2 (1+a)) eta + (2/t) phi2); with k = 2(m + t), their rows at
    phase k(x +- pi/2) are sigma times those at phase kx, which they take, so
    no rounded shift k pi/2 leaves them k eps off biorthogonal.
    """
    av = a.value
    fwd, left, right, v = [], [], [], 0
    for rec in records:
        _check_membership(rec, a)
        k = rec.k
        if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
            m, t = rec.class_index(-1), rec.class_index(+1)
            pref = -(1 - av) / (64 * m * m)
            fwd += [(v, 0, 1.0, k, 0.0, 1), (v + 1, 0, 1.0, k, 0.0, 0),
                    (v + 2, 0, pref * (1 - av), k, 0.0, 0), (v + 2, 1, pref * 8 * m, k, 0.0, 1)]
            # owners' coefficients of (phi1, eta, phi2): raw vectors, or duals
            mix, shift = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), k * HALF_PI
            if normalized:
                c = 64 * m / (math.pi ** 2 * (1 - av))
                mix = ((2 / math.pi, 0.0, 2 / math.pi),
                       (-2 / (math.pi ** 2 * m), c / ((1 - av) * (1 + av)), 2 / (math.pi ** 2 * t)),
                       (-c / (1 - av), 0.0, c / (1 + av)))
                shift = 0.0
            # per piece eta's rows, the lone sine (phi2 left, phi1 right) merged into its sine row
            a_plus = -(1 - av) * (1 + av) / (1 - av)
            for rows, amp, sgn, lone in ((left, 1 - av, 1.0, 2), (right, a_plus, -1.0, 0)):
                pref, s = amp * (1 - av) / (64 * m * m), sgn * shift
                cos_c, sin_c, xcos_c = pref * 8 * m * sgn * HALF_PI, -pref * (1 - av), pref * 8 * m
                for j, coef in enumerate(mix):
                    rows += [(v + j, 0, coef[1] * cos_c, k, s, 0),
                             (v + j, 0, coef[1] * sin_c + coef[lone], k, s, 1),
                             (v + j, 1, coef[1] * xcos_c, k, s, 0)]
            v += 3
            continue
        z = 1.0
        if normalized:
            pairing = _simple_pairing(rec, a)
            if abs(pairing) < 1e-13:
                raise DegenerateNormalization(f"closed-form pairing vanished at lambda={rec.lam}")
            z = 1.0 / np.conj(pairing)
        if rec.case is SpectralCase.ZERO_EV:
            fwd.append((v, 0, 1.0, 0.0, 0.0, 0))
            left += [(v, 0, z * ((av - 1) * HALF_PI), 0.0, 0.0, 0),
                     (v, 1, z * (av - 1), 0.0, 0.0, 0)]
            right += [(v, 0, z * (-(av + 1) * HALF_PI), 0.0, 0.0, 0),
                      (v, 1, z * (av + 1), 0.0, 0.0, 0)]
        else:
            cls, m = rec.memberships[0] if rec.case is SpectralCase.GENERIC else (0, 0)
            fwd.append((v, 0, 1.0, k, 0.0, int(rec.case is SpectralCase.EXCEPTIONAL_ODD)))
            if m and cls == 0:
                th = family_angle(a, 0, m)
                fwd.append((v, 0, th.versine / th.sin, k, 0.0, 1))
            if cls >= 0:
                left.append((v, 0, z, k, k * HALF_PI, 1))
            if cls <= 0:
                right.append((v, 0, z, k, -k * HALF_PI, 1))
        v += 1
    xb = HALF_PI * av
    return (Stack((Piece(-HALF_PI, HALF_PI, *_terms(fwd)),), v),
            Stack((Piece(-HALF_PI, xb, *_terms(left)), Piece(xb, HALF_PI, *_terms(right))), v))


def eigenfunctions_H(rec: EigRecord, a: ParamA) -> list[PiecewiseTrig]:
    """Forward eigenfunction(s) of the record, raw constants set to 1: psi,
    or psi1 and psi2 at an exceptional pair."""
    forward = _chains(a, [rec])[0]
    return [forward.fn(j) for j in range(min(forward.count, 2))]


def phi_zero_mode(a: ParamA) -> PiecewiseTrig:
    """The adjoint zero-eigenfunction: the tent ((a-1)(x+pi/2), (a+1)(x-pi/2))."""
    return _chains(a, [_ZERO_RECORD])[1].fn(0)


# ---------------------------------------------------------------------------
# the biorthogonal family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiorthFamily:
    """The normalized family (psi_j, phi_j) as arrays: funcspace.Stacks of
    the forward members and of the duals, owned by the pair indices, with
    each pair's spectral record and forward label (xi is the generalized
    vector).  Pair j is read as psi.fn(j) and phi.fn(j); a contiguous
    slice is a smaller family on the same rows."""

    psi: Stack
    phi: Stack
    records: tuple[EigRecord, ...]
    labels: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, index: slice) -> "BiorthFamily":
        if not isinstance(index, slice) or index.indices(len(self))[2] != 1:
            raise TypeError("a family slices only contiguously; read pair j off psi and phi")
        start, stop, _ = index.indices(len(self))
        return BiorthFamily(self.psi.take(start, stop), self.phi.take(start, stop),
                            self.records[start:stop], self.labels[start:stop])


def biorthogonalize(a: ParamA, lambda_max: float) -> BiorthFamily:
    """Complete normalized family for all spectral points <= lambda_max:
    the forward root vectors and their duals, the rows of all pairs built
    at once (`_chains` with normalized=True)."""
    records = enumerate_spectrum(a, lambda_max)
    labels = [(rec, _NAMES[rec.case is SpectralCase.EXCEPTIONAL_PAIR]) for rec in records]
    return BiorthFamily(*_chains(a, records, normalized=True),
                        tuple(rec for rec, names in labels for _ in names),
                        tuple(name for _, names in labels for name in names))


def gram_matrix(pairs: BiorthFamily) -> np.ndarray:
    """Gram matrix (phi_j, psi_k) of a normalized family: one inner_matrix
    pass over its stacked rows, with no PiecewiseTrig per pair."""
    return inner_matrix(pairs.phi, pairs.psi)
