import math

import mpmath as mp
import numpy as np
import pytest

from jumpspec import funcspace
from jumpspec.eigensystem import (
    CaseMismatch, biorthogonalize, eigenfunctions_H, gram_matrix, pairing_class_generic,
    pairing_zero_zero,
)
from jumpspec.funcspace import Piece, PiecewiseTrig, Stack, inner_closed, inner_matrix, norms
from jumpspec.param import ParamA
from jumpspec.spectrum import EigRecord, SpectralCase, enumerate_spectrum

from reference_oracles import (
    eigenfunctions_Hstar, generalized_eta, generalized_xi, mp_root_space_pairings, one_sided,
    pairing_eta_psi2, pairing_eta_xi, pairing_minus_exceptional, pairing_minus_generalised,
    per_pair_family, printed_root_vectors, root_system, validate_domain_H, validate_domain_Hstar,
)
from util import norm_l2, rational_exceptional_config

HALF_PI = math.pi / 2
EPS = np.finfo(float).eps


def record_at(a, lam, lam_max=100.0):
    for r in enumerate_spectrum(a, lam_max):
        if abs(r.lam - lam) < 1e-9:
            return r
    raise LookupError(lam)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_generic_zero_class_eigenfunction_shape():
    a = ParamA.from_expr("1/3")
    psi = eigenfunctions_H(record_at(a, 4.0), a)[0]
    xs = np.linspace(-HALF_PI, HALF_PI, 64)
    expected = np.cos(2 * xs) - math.sqrt(3) * np.sin(2 * xs)
    assert np.allclose(psi(xs), expected, atol=1e-12)


def test_zero_eigenvalue_is_constant():
    a = ParamA.from_expr("2/5")
    psi = eigenfunctions_H(record_at(a, 0.0), a)[0]
    xs = np.linspace(-HALF_PI, HALF_PI, 32)
    assert np.allclose(psi(xs), 1.0)


def test_exceptional_odd_is_pure_sine():
    a = ParamA.from_expr("0")
    psi = eigenfunctions_H(record_at(a, 4.0), a)[0]
    xs = np.linspace(-HALF_PI, HALF_PI, 64)
    assert np.allclose(psi(xs), np.sin(2 * xs), atol=1e-14)


def test_adjoint_tent():
    a = ParamA.from_expr("0")
    phi = eigenfunctions_Hstar(record_at(a, 0.0), a)[0]
    assert one_sided(phi, 0.0, -1) == pytest.approx(-HALF_PI)
    assert one_sided(phi, 0.0, +1) == pytest.approx(-HALF_PI)


def test_adjoint_exceptional_pair_one_sided_sines():
    a = ParamA.from_expr("1/3")
    rec = record_at(a, 36.0)
    phi1, phi2 = eigenfunctions_Hstar(rec, a)
    xb = HALF_PI / 3
    xs_left = np.linspace(-HALF_PI, xb - 1e-9, 16)
    xs_right = np.linspace(xb + 1e-9, HALF_PI, 16)
    assert np.allclose(phi1(xs_left), 0.0)
    assert np.allclose(phi1(xs_right), np.sin(6 * (xs_right - HALF_PI)), atol=1e-12)
    assert np.allclose(phi2(xs_right), 0.0)
    assert np.allclose(phi2(xs_left), np.sin(6 * (xs_left + HALF_PI)), atol=1e-12)


def test_adjoint_plus_generic_at_sqrt2():
    a = ParamA.from_expr("sqrt(2)-1")
    rec = record_at(a, 8.0)
    phi = eigenfunctions_Hstar(rec, a)[0]
    k = 4 / (1 + a.value)
    xs = np.linspace(-HALF_PI, HALF_PI * a.value - 1e-9, 24)
    assert np.allclose(phi(xs), np.sin(k * (xs + HALF_PI)), atol=1e-12)


def test_every_eigenfunction_passes_its_validator():
    for expr in ("1/3", "0", "2/5", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        for rec in enumerate_spectrum(a, 120.0):
            for ef in eigenfunctions_H(rec, a):
                assert validate_domain_H(ef, a).in_domain, (expr, rec.lam)
            for ef in eigenfunctions_Hstar(rec, a):
                assert validate_domain_Hstar(ef, a).in_domain, (expr, rec.lam)


def test_eigen_residuals():
    for expr in ("1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        for rec in enumerate_spectrum(a, 120.0):
            for ef in eigenfunctions_H(rec, a) + eigenfunctions_Hstar(rec, a):
                resid = ef.derivative(2).scaled(-1.0) - ef.scaled(rec.lam)
                assert norm_l2(resid) < 1e-12 * max(1.0, rec.lam)


def test_case_mismatch_errors():
    a13 = ParamA.from_expr("1/3")
    airr = ParamA.from_expr("sqrt(2)-1")
    rec = record_at(a13, 36.0)
    with pytest.raises(CaseMismatch):
        eigenfunctions_H(rec, airr)
    simple = record_at(a13, 4.0)
    with pytest.raises(CaseMismatch):
        generalized_xi(simple, a13)
    with pytest.raises(CaseMismatch):
        generalized_eta(simple, a13)


def test_an_exceptional_odd_record_at_even_turns_is_refused():
    # at 1/3 the class 0 index 3 has turns 3 (1 + 1/3) = 4: an integer, but
    # even, so k = 6 is an exceptional pair and no lone sine
    a = ParamA.from_expr("1/3")
    rec = EigRecord(36.0, 6.0, ((0, 3),), 1, 1, SpectralCase.EXCEPTIONAL_ODD)
    with pytest.raises(CaseMismatch, match="exceptional-odd"):
        eigenfunctions_H(rec, a)


# ---------------------------------------------------------------------------
# generalized vectors and the Jordan chain
# ---------------------------------------------------------------------------

def test_xi_solves_the_chain_equation():
    a = ParamA.from_expr("0")
    rec = record_at(a, 16.0)
    psi1, psi2 = eigenfunctions_H(rec, a)
    xi = generalized_xi(rec, a)
    # at a = 0 the root vector is -(cos 4x + 8x sin 4x)/64
    xs = np.linspace(-HALF_PI, HALF_PI, 64)
    expected = -(np.cos(4 * xs) + 8 * xs * np.sin(4 * xs)) / 64
    assert np.allclose(xi(xs), expected, atol=1e-14)
    resid = (xi.derivative(2).scaled(-1.0) - xi.scaled(rec.lam)) - psi2
    assert norm_l2(resid) < 1e-10
    assert validate_domain_H(xi, a).in_domain


def test_jordan_chain_terminates():
    a = ParamA.from_expr("1/3")
    rec = record_at(a, 36.0)
    psi2 = eigenfunctions_H(rec, a)[1]
    xi = generalized_xi(rec, a)
    apply_once = lambda f: (f.derivative(2).scaled(-1.0) - f.scaled(rec.lam))
    assert norm_l2(apply_once(psi2)) < 1e-9
    assert norm_l2(apply_once(apply_once(xi))) < 1e-9


def test_eta_constraint_and_equation():
    a = ParamA.from_expr("1/3")
    rec = record_at(a, 36.0)
    eta = generalized_eta(rec, a)
    # eta's constants as the _chains docstring prints them
    am, ap = 1 - a.value, -(1 + a.value)
    assert am * (1 + a.value) == pytest.approx(-ap * (1 - a.value), abs=1e-14)
    assert validate_domain_Hstar(eta, a).in_domain
    phi1, phi2 = eigenfunctions_Hstar(rec, a)
    rhs = phi1.scaled(ap) + phi2.scaled(am)
    resid = (eta.derivative(2).scaled(-1.0) - eta.scaled(rec.lam)) - rhs
    assert norm_l2(resid) < 1e-10


def test_eta_requires_the_admissibility_constraint():
    # same functional form with unconstrained constants violates the
    # adjoint-domain derivative-jump identity
    a = ParamA.from_expr("1/3")
    rec = record_at(a, 36.0)
    eta = generalized_eta(rec, a)
    bad = PiecewiseTrig((eta.pieces[0],
                         Piece.one(eta.pieces[1].lo, eta.pieces[1].hi, eta.pieces[0].terms)))
    assert not validate_domain_Hstar(bad, a).in_domain


# ---------------------------------------------------------------------------
# printed pairings vs independent integration
# ---------------------------------------------------------------------------

def test_minus_generic_pairing_formula():
    a = ParamA.from_expr("sqrt(2)-1")
    for cls in (-1, +1):
        m = 1
        rec = record_at(a, (4 / (1 + cls * a.value)) ** 2)
        assert rec.memberships == ((cls, m),)
        psi = eigenfunctions_H(rec, a)[0]
        phi = eigenfunctions_Hstar(rec, a)[0]
        assert inner_closed(phi, psi) == pytest.approx(
            pairing_class_generic(a, cls, m), abs=1e-13)


def test_zero_zero_pairing_formula():
    for expr in ("0", "1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        rec = record_at(a, 0.0)
        psi = eigenfunctions_H(rec, a)[0]
        phi = eigenfunctions_Hstar(rec, a)[0]
        assert inner_closed(phi, psi) == pytest.approx(
            pairing_zero_zero(a), abs=1e-13)
        assert pairing_zero_zero(a) == pytest.approx(
            -math.pi ** 2 / 4 * (1 - a.value ** 2))


def test_exceptional_pairings_and_orthogonality():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, m, t = rational_exceptional_config(rng)
        lam = (4 * m / (1 - a.value)) ** 2
        rec = record_at(a, lam, lam_max=lam + 1)
        psi1, psi2, xi, phi1, phi2, eta = root_system(rec, a)
        p11, p21 = pairing_minus_exceptional(a, m)
        assert inner_closed(phi1, psi1) == pytest.approx(p11, rel=1e-11)
        assert inner_closed(phi2, psi1) == pytest.approx(p21, rel=1e-11)
        assert abs(inner_closed(phi1, psi2)) < 1e-12
        assert abs(inner_closed(phi2, psi2)) < 1e-12
        g1, g2 = pairing_minus_generalised(a, m)
        assert inner_closed(phi1, xi) == pytest.approx(g1, rel=1e-11)
        assert inner_closed(phi2, xi) == pytest.approx(g2, rel=1e-11)
        assert inner_closed(eta, psi2) == pytest.approx(
            pairing_eta_psi2(a, m), rel=1e-11)
        assert inner_closed(eta, xi) == pytest.approx(pairing_eta_xi(a, m), rel=1e-11)
        assert abs(inner_closed(eta, psi1)) < 1e-12


# ---------------------------------------------------------------------------
# biorthogonal family
# ---------------------------------------------------------------------------

def test_gram_identity_irrational():
    a = ParamA.from_expr("sqrt(2)-1")
    pairs = biorthogonalize(a, 4000.0)[:30]
    g = gram_matrix(pairs)
    assert np.max(np.abs(g - np.eye(30))) < 1e-9


def test_gram_identity_root_block():
    a = ParamA.from_expr("1/3")
    pairs = biorthogonalize(a, 40.0)
    g = gram_matrix(pairs)
    assert np.max(np.abs(g - np.eye(len(pairs)))) < 1e-9
    # the 3x3 root block sits at the top eigenvalue
    root = [label for rec, label in zip(pairs.records, pairs.labels)
            if rec.lam == pytest.approx(36.0)]
    assert root == ["psi1", "psi2", "xi"]


def test_pairing_fields_are_normalized():
    a = ParamA.from_expr("2/5")
    diagonal = np.diag(gram_matrix(biorthogonalize(a, 200.0)))
    assert np.max(np.abs(diagonal - 1.0)) < 1e-9


def test_gauge_invariance_of_biorthogonality():
    a = ParamA.from_expr("sqrt(2)-1")
    pairs = biorthogonalize(a, 60.0)
    c = 2.0 - 1.5j
    for j in range(4):
        psi_scaled = pairs.psi.fn(j).scaled(c)
        phi_scaled = pairs.phi.fn(j).scaled(1.0 / np.conj(c))
        assert inner_closed(phi_scaled, psi_scaled) == pytest.approx(1.0, abs=1e-10)


def test_forward_members_keep_printed_shape():
    a = ParamA.from_expr("sqrt(2)-1")
    pairs = biorthogonalize(a, 30.0)
    lam4 = next(j for j, rec in enumerate(pairs.records) if abs(rec.lam - 4.0) < 1e-12)
    xs = np.linspace(-HALF_PI, HALF_PI, 33)
    av = a.value
    coef = ((math.cos(math.pi) - math.cos(math.pi * av))
            / math.sin(math.pi * av))
    assert np.allclose(pairs.psi.fn(lam4)(xs), np.cos(2 * xs) + coef * np.sin(2 * xs),
                       atol=1e-12)


def _frequencies(fn: PiecewiseTrig) -> set[float]:
    return {float(k) for piece in fn.pieces for k in piece.terms.k if k != 0}


@pytest.mark.parametrize("expr", ["1/3", "2/7", "-9/10", "sqrt(2)-1"])
def test_every_member_is_built_at_its_records_wavenumber(expr):
    # at 1/3 the lambda = 36 root system has k = 6 exactly, where the
    # printed float 4/(1 - a) is 5.999999999999999
    a = ParamA.from_expr(expr)
    built = []
    for rec in enumerate_spectrum(a, 4.0 * 257 ** 2):
        fns = eigenfunctions_H(rec, a) + eigenfunctions_Hstar(rec, a)
        if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
            fns += [generalized_xi(rec, a), generalized_eta(rec, a)]
        built += [(rec, fn) for fn in fns]
    family = biorthogonalize(a, 4.0 * 257 ** 2)
    built += [(rec, family.phi.fn(j)) for j, rec in enumerate(family.records)]
    assert len(built) > 1000
    for rec, fn in built:
        assert _frequencies(fn) <= {rec.k}, (rec.memberships, _frequencies(fn))
    if expr == "1/3":
        rec36 = next(rec for rec, _ in built if rec.memberships == ((-1, 1), (0, 3), (1, 2)))
        assert rec36.k == 6.0 and _frequencies(root_system(rec36, a)[2]) == {6.0}


# ---------------------------------------------------------------------------
# the family as arrays against the per-pair construction
# ---------------------------------------------------------------------------

def _same_terms(f: PiecewiseTrig, g: PiecewiseTrig) -> bool:
    return len(f.pieces) == len(g.pieces) and all(
        (p.lo, p.hi) == (q.lo, q.hi) and p.terms == q.terms for p, q in zip(f.pieces, g.pieces))


# The oracle inverts each root space's integrated 3x3 pairing matrix; the
# package writes the inverse in closed form.  They differ by the oracle's
# rounding, measured worst at 777 eps of an owner's largest coefficient (at
# 1/3, 2/5 and 0), while the closed form is within 16 eps of the 50-digit
# inverse (test_exceptional_duals_are_the_50_digit_inverse).
ORACLE_INVERSE_C = 800


def _phase_zero_rows(fn: PiecewiseTrig, rec, shifted: bool) -> dict:
    """{(piece, p, q): c} of an exceptional dual, its rows at phase k(x +- pi/2)
    (shifted, as the oracle mixes the printed vectors) taken at phase kx:
    k = 2(m + t), so that is a factor (-1)^(m + t)."""
    sigma = (-1) ** (rec.class_index(-1) + rec.class_index(+1)) if shifted else 1
    rows = {}
    for i, piece in enumerate(fn.pieces):
        t = piece.terms
        assert np.all(t.k == rec.k)
        assert np.all(np.abs(t.s) == (rec.k * HALF_PI if shifted else 0.0))
        rows.update({(i, int(p), int(q)): sigma * c for p, c, q in zip(t.p, t.c, t.q)})
    return rows


@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1", "2/5", "0", "-3/7"])
def test_array_family_is_the_per_pair_family(expr):
    # every forward member and simple dual is the per-pair constructors'
    # merged terms, so each Gram row of a simple dual is bit for bit the
    # per-pair one; an exceptional dual is the oracle's up to its inversion
    a = ParamA.from_expr(expr)
    family = biorthogonalize(a, 4.0 * 257 ** 2)
    oracle = per_pair_family(a, 4.0 * 257 ** 2)
    assert len(family) == len(oracle) == 514
    exceptional = np.array([rec.case is SpectralCase.EXCEPTIONAL_PAIR for rec in family.records])
    assert exceptional.any() == (expr != "sqrt(2)-1")
    for j, ((psi, phi), exc) in enumerate(zip(oracle, exceptional)):
        assert _same_terms(family.psi.fn(j), psi)
        if not exc:
            assert _same_terms(family.phi.fn(j), phi)
            continue
        rec, label = family.records[j], family.labels[j]
        got, want = _phase_zero_rows(family.phi.fn(j), rec, False), _phase_zero_rows(phi, rec, True)
        scale = max(map(abs, [*got.values(), *want.values()]))
        gap = max(abs(got.get(key, 0) - want.get(key, 0)) for key in got.keys() | want.keys())
        assert gap <= ORACLE_INVERSE_C * EPS * scale, (rec.lam, label, gap / (EPS * scale))
    simple = ~exceptional[:253]
    expected = inner_matrix(Stack.join([phi for _, phi in oracle[:253]]),
                            Stack.join([psi for psi, _ in oracle[:253]]))
    assert np.array_equal(gram_matrix(family[:253])[simple], expected[simple])


# ---------------------------------------------------------------------------
# the exceptional duals in closed form
# ---------------------------------------------------------------------------

CLOSED_FORM_EXPRS = ["1/3", "2/5", "0", "-3/7", "-9/10"]


def _exceptional_records(a, count):
    return [rec for rec in enumerate_spectrum(a, 4e6)
            if rec.case is SpectralCase.EXCEPTIONAL_PAIR][:count]


@pytest.mark.parametrize("expr", CLOSED_FORM_EXPRS)
def test_exceptional_duals_are_the_50_digit_inverse(expr):
    # each dual's coefficients of (phi1, eta, phi2), read back off its rows
    # against the printed ones, are row i of conj(P^-1) for P integrated at
    # 50 digits; the duals of psi1 and xi carry no eta row at all
    a = ParamA.from_expr(expr)
    records = _exceptional_records(a, 4)
    family = biorthogonalize(a, records[-1].lam)
    for rec in records:
        with mp.workdps(50):
            inverse = mp.inverse(mp_root_space_pairings(a, rec.class_index(-1), rec.class_index(+1)))
            want = np.array(inverse.tolist(), dtype=float)  # real, so its own conj
        # at phase kx the printed eta is sigma times its rows, and so are
        # the lone sines phi2 (left piece, 0) and phi1 (right piece, 1)
        eta = _phase_zero_rows(generalized_eta(rec, a), rec, True)
        sigma = (-1) ** (rec.class_index(-1) + rec.class_index(+1))
        first = family.records.index(rec)
        for i, label in enumerate(("psi1", "psi2", "xi")):
            assert family.labels[first + i] == label
            rows = _phase_zero_rows(family.phi.fn(first + i), rec, False)
            if label != "psi2":
                assert set(rows) == {(0, 0, 1), (1, 0, 1)}, (rec.lam, label, rows)
            # eta's coefficient read off either piece's x cos and cos rows
            for coef in (rows.get((piece, *key), 0) / eta[(piece, *key)]
                         for piece in (0, 1) for key in ((1, 0), (0, 0))):
                phi1, phi2 = (sigma * (rows[(piece, 0, 1)] - coef * eta[(piece, 0, 1)])
                              for piece in (1, 0))
                err = np.max(np.abs(np.array([phi1, coef, phi2]) - want[i]))
                assert err <= 16 * EPS * np.max(np.abs(want[i])), (
                    rec.lam, label, err / (EPS * np.max(np.abs(want[i]))))


# residual over ||phi|| at lambda <= 2000, worst measured 1.1e-12 (at -9/10);
# without the chain term phi_xi it reads 96 to 202
ADJOINT_CHAIN_GATE = 2e-12


@pytest.mark.parametrize("expr", CLOSED_FORM_EXPRS)
def test_the_duals_form_the_adjoint_jordan_chain(expr):
    # H* phi = lambda phi for every dual but that of psi2, where
    # H* phi_psi2 = lambda phi_psi2 + phi_xi; each dual is in the adjoint domain
    a = ParamA.from_expr(expr)
    family = biorthogonalize(a, 2000.0)
    assert "psi2" in family.labels
    phi, n = family.phi, len(family)
    lam = np.array([rec.lam for rec in family.records])
    chain = np.array([label == "psi2" for label in family.labels], dtype=float)
    successor = Stack(phi.take(1, n).pieces, n)  # member j is phi_(j+1)
    residual = Stack.total([phi.derivative(2).scaled(-1.0), phi.scaled(-lam),
                            successor.scaled(-chain)])
    assert np.max(norms(residual) / norms(phi)) < ADJOINT_CHAIN_GATE
    for j in range(n):
        assert validate_domain_Hstar(phi.fn(j), a).in_domain, (family.records[j].lam, j)


@pytest.mark.parametrize("expr", ["1/3", "-9/10"])
def test_the_family_is_built_without_an_integral(expr, monkeypatch):
    def no_kernel(*args):
        raise AssertionError("the pair kernel was called")

    monkeypatch.setattr(funcspace, "_pair_kernel", no_kernel)
    family = biorthogonalize(ParamA.from_expr(expr), 4.0 * 257 ** 2)
    assert "xi" in family.labels
    with pytest.raises(AssertionError, match="pair kernel"):
        gram_matrix(family[:3])


@pytest.mark.parametrize("expr", ["0", "1/3", "2/7", "-9/10", "sqrt(2)-1"])
def test_constructors_build_the_printed_vectors(expr):
    a = ParamA.from_expr(expr)
    records = enumerate_spectrum(a, 4.0 * 60 ** 2)
    assert any(rec.case is SpectralCase.EXCEPTIONAL_PAIR for rec in records) == (
        expr in ("0", "1/3", "2/7", "-9/10"))
    for rec in records:
        forward, adjoint = printed_root_vectors(rec, a)
        built = eigenfunctions_H(rec, a), eigenfunctions_Hstar(rec, a)
        if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
            built = [*built[0], generalized_xi(rec, a)], [*built[1], generalized_eta(rec, a)]
        for i, (mine, printed) in enumerate(zip([*built[0], *built[1]], [*forward, *adjoint])):
            assert _same_terms(mine, printed), (rec.memberships, i)


def test_family_slices_and_gram_build_no_piecewise_trig(monkeypatch):
    built = []
    original = funcspace.PiecewiseTrig.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(funcspace.PiecewiseTrig, "__post_init__", counting)
    for expr in ("sqrt(2)-1", "1/3"):
        gram = gram_matrix(biorthogonalize(ParamA.from_expr(expr), 4.0 * 257 ** 2)[:253])
        assert gram.shape == (253, 253)
    assert built == []
    # reading pair 2 off the Stacks builds it alone: psi on one piece, its
    # dual on two; a family is not indexed by pair
    family = biorthogonalize(ParamA.from_expr("1/3"), 40.0)
    family.psi.fn(2), family.phi.fn(2)
    assert [len(fn.pieces) for fn in built] == [1, 2]
    for index in (2, slice(0, 4, 2)):
        with pytest.raises(TypeError, match="contiguously"):
            family[index]
