"""Exact-phase trigonometry against high-precision mpmath.

trig_pi is the one place where angles pi*t(a) are reduced; these tests
check it, and the diagnostics built on it, at the deep continued-fraction
denominators (up to ~1e22) where double-precision reduction loses every
digit and 1 - cos cancels to zero.
"""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from jumpspec.basis_diag import blowup_probe
from jumpspec.cli import main
from jumpspec.eigensystem import pairing_zero_generic
from jumpspec.metric import noninvertibility_probe, rayleigh_quotient
from jumpspec.param import MAX_CONVERGENTS, ParamA, convergents, trig_pi

REF_DPS = 250
IRRATIONALS = ["sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi", "-1/pi", "e/4"]
PROBED = ["sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi"]

# the angle forms the closed forms use, as functions of the multiplier m
FORMS = [
    lambda m: lambda x: m * (1 + x),
    lambda m: lambda x: m * (1 + x) / (1 - x),
    lambda m: lambda x: m * (1 - x) / (1 + x),
    lambda m: lambda x: m + m * (1 + x) / (1 - x),
    lambda m: lambda x: 4 * m / (1 - x),
]


def _reference(turns, a: ParamA):
    """(cos, sin, versine) at REF_DPS, and whether each is exactly zero."""
    with mp.workdps(REF_DPS):
        if a.is_rational:
            t = Fraction(turns(a.fraction))
            x = mp.mpf(t.numerator) / t.denominator
            zero = (t.denominator == 2, t.denominator == 1,
                    t.denominator == 1 and t.numerator % 2 == 0)
        else:
            x = turns(a.approx(REF_DPS))
            zero = (False, False, False)
        ref = (mp.cospi(x), mp.sinpi(x), 2 * mp.sinpi(x / 2) ** 2)
    return ref, zero


def _check_angle(turns, a: ParamA, rel: float = 1e-15) -> None:
    got = trig_pi(turns, a)
    ref, zero = _reference(turns, a)
    for name, value, want, is_zero in zip(("cos", "sin", "versine"), got, ref, zero):
        if is_zero:
            assert value == 0.0, (name, value)
        else:
            err = abs(mp.mpf(value) - want) / abs(want)
            assert err <= rel, (name, a.source, float(err))


def _cases():
    for expr in IRRATIONALS:
        a = ParamA.from_expr(expr)
        for c in convergents(a, MAX_CONVERGENTS):
            for form in FORMS:
                yield form(2 * c.q), a
    rng = random.Random(1507)
    for _ in range(300):
        q = rng.randint(2, 1000)
        a = ParamA.from_fraction(rng.randint(1 - q, q - 1), q)
        yield rng.choice(FORMS)(rng.randint(1, 10 ** 9)), a


def test_trig_pi_matches_mpmath_over_convergents_and_random_rationals():
    cases = list(_cases())
    assert len(cases) == 1300
    for turns, a in cases:
        _check_angle(turns, a)


def test_trig_pi_exact_zeros_and_parity():
    a = ParamA.from_expr("1/3")
    assert trig_pi(lambda x: 3 * x, a) == (-1.0, 0.0, 2.0)
    assert trig_pi(lambda x: 6 * x, a) == (1.0, 0.0, 0.0)
    assert trig_pi(lambda x: Fraction(3, 2) + 0 * x, a).cos == 0.0


def test_trig_pi_negative_irrational_keeps_its_sign():
    # a rational stand-in that dropped the sign of a would flip sin here
    a = ParamA.from_expr("-1/pi")
    for m in (1, 7, 10 ** 6 + 3):
        _check_angle(lambda x: m * x, a)


@pytest.mark.parametrize("expr", PROBED)
def test_blowup_probe_matches_mpmath_at_all_convergents(expr):
    a = ParamA.from_expr(expr)
    rows = blowup_probe(a, MAX_CONVERGENTS)
    assert len(rows) == MAX_CONVERGENTS
    with mp.workdps(REF_DPS):
        x = a.approx(REF_DPS)
        for row in rows:
            omc = 1 - mp.cospi(row.m * (1 + x))
            assert abs(row.one_minus_cos - omc) / omc < 1e-12
            norm = mp.sqrt(2 / omc)
            assert abs(row.norm - norm) / norm < 1e-12


@pytest.mark.parametrize("expr", PROBED)
def test_noninvertibility_probe_matches_mpmath_at_all_convergents(expr):
    a = ParamA.from_expr(expr)
    seq = noninvertibility_probe(a, MAX_CONVERGENTS)
    assert len(seq) == MAX_CONVERGENTS
    with mp.workdps(REF_DPS):
        x = a.approx(REF_DPS)
        for n, value in seq:
            # printed diagonal coefficient and the tent pairing, both at
            # full precision where 1 - cos no longer cancels
            coef = (1 - mp.cospi(mp.mpf(n) / 2) * mp.cospi(n * x / 2)) / 2
            pairing = 2 * mp.sqrt(2 / mp.pi) * (2 * coef) / mp.mpf(n) ** 2
            ref = pairing ** 2 + coef
            assert value > 0
            assert abs(value - ref) / ref < 1e-12


def test_noninvertibility_closed_form_agrees_with_full_theta():
    # at small n the probe's closed form must equal (chi_n, Theta chi_n)
    a = ParamA.from_expr("sqrt(2)-1")
    for n, value in noninvertibility_probe(a, 5):
        assert value == pytest.approx(rayleigh_quotient(a, n), abs=1e-11)


def test_pairing_zero_generic_at_a_deep_index():
    a = ParamA.from_expr("sqrt(2)-1")
    m = 66922
    with mp.workdps(REF_DPS):
        x = a.approx(REF_DPS)
        ref = mp.pi / 2 * (1 - mp.cospi(m) * mp.cospi(m * x)) / mp.sinpi(m * x)
        assert abs(pairing_zero_generic(a, m) - ref) / abs(ref) < 1e-12


def test_basis_blowup_cli_reaches_the_last_convergent(tmp_path):
    out = tmp_path / "b40"
    assert main(["basis", "--a", "sqrt(2)-1", "--blowup", "--convergents", "40",
                 "--out", str(out)]) == 0
    rows = (out / "blowup.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 40
    assert all(math.isfinite(float(r.split(",")[3])) for r in rows)
