import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jumpspec.param import (
    Convergent, NotIrrational, ParamA, ZeroClassCase, convergents,
    is_exceptional_minus, is_exceptional_minus_float, is_exceptional_plus,
    is_exceptional_plus_float, trig_pi, zero_class_case,
)


def test_rational_construction():
    a = ParamA.from_expr("1/3")
    assert a.is_rational and a.fraction == Fraction(1, 3)
    assert a.value == pytest.approx(1 / 3)
    b = ParamA.from_expr("-2/5")
    assert b.fraction == Fraction(-2, 5)


def test_irrational_construction_and_precision():
    a = ParamA.from_expr("sqrt(2)-1")
    assert not a.is_rational
    # 30+ significant digits against an independent high-precision value
    import mpmath as mp
    with mp.workdps(50):
        ref = mp.sqrt(2) - 1
        assert abs(a.approx(50) - ref) < mp.mpf(10) ** -45


def test_sqrt_of_perfect_square_is_rational():
    assert ParamA.from_expr("sqrt(4)/9").fraction == Fraction(2, 9)
    assert ParamA.from_expr("sqrt(4/9)-1/3").fraction == Fraction(1, 3)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        ParamA.from_expr("3/2")
    with pytest.raises(ValueError):
        ParamA.from_fraction(5, 4)


def test_grammar_errors():
    for bad in ("1//3", "sqrt(", "foo", "1+", "2^3"):
        with pytest.raises(ValueError):
            ParamA.from_expr(bad)


def test_exceptional_minus_examples():
    assert is_exceptional_minus(ParamA.from_expr("1/3"), 1)      # ratio 2
    assert is_exceptional_minus(ParamA.from_expr("0"), 5)        # ratio 5
    assert not is_exceptional_minus(ParamA.from_expr("sqrt(2)-1"), 7)


def test_exceptional_plus_examples():
    a = ParamA.from_expr("1/3")
    assert is_exceptional_plus(a, 2)       # ratio 1
    assert not is_exceptional_plus(a, 1)   # ratio 1/2
    assert not is_exceptional_plus(ParamA.from_expr("1/pi"), 3)


def test_zero_class_cases():
    a0 = ParamA.from_expr("0")
    assert zero_class_case(a0, 0) is ZeroClassCase.ZERO_EIGENVALUE
    assert zero_class_case(a0, 3) is ZeroClassCase.EXCEPTIONAL_ODD
    assert zero_class_case(a0, 2) is ZeroClassCase.EXCEPTIONAL_EVEN
    assert zero_class_case(ParamA.from_expr("1/3"), 2) is ZeroClassCase.GENERIC
    assert zero_class_case(ParamA.from_expr("sqrt(2)-1"), 11) is ZeroClassCase.GENERIC


def test_float_rerun_agrees_with_exact():
    for expr in ("1/3", "2/5", "-3/7", "0", "5/6"):
        a = ParamA.from_expr(expr)
        for m in range(1, 200):
            assert is_exceptional_minus(a, m) == is_exceptional_minus_float(a.value, m)
            assert is_exceptional_plus(a, m) == is_exceptional_plus_float(a.value, m)


@given(p=st.integers(-30, 30), q=st.integers(1, 31), m=st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_minus_plus_mirror(p, q, m):
    if abs(p) >= q:
        return
    a = ParamA.from_fraction(p, q)
    neg = ParamA.from_fraction(-p, q)
    assert is_exceptional_minus(a, m) == is_exceptional_plus(neg, m)


def test_irrational_never_exceptional():
    a = ParamA.from_expr("(sqrt(5)-1)/2")
    for m in range(1, 10_001, 97):
        assert not is_exceptional_minus(a, m)
        assert not is_exceptional_plus(a, m)
        assert zero_class_case(a, m) is ZeroClassCase.GENERIC


def test_convergents_sqrt2_minus_1():
    a = ParamA.from_expr("sqrt(2)-1")
    cs = convergents(a, 6)
    assert [(c.p, c.q) for c in cs[:5]] == [(0, 1), (1, 2), (2, 5), (5, 12), (12, 29)]


@pytest.mark.parametrize("expr", ["sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi", "e/4"])
def test_convergent_invariants(expr):
    a = ParamA.from_expr(expr)
    cs = convergents(a, 14)
    errors = [c.error_bound for c in cs]
    for c in cs:
        assert c.error_bound < 1.0 / c.q ** 2  # Dirichlet bound
    assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
    qs = [c.q for c in cs]
    # q0 = q1 = 1 whenever the first partial quotient is 1 (golden ratio);
    # strict growth and the Fibonacci-type bound hold from index 1 on
    assert all(q2 > q1 for q1, q2 in zip(qs[1:], qs[2:]))
    assert qs[1] >= qs[0]
    for q_prev, q_cur, q_next in zip(qs, qs[1:], qs[2:]):
        assert q_next >= q_cur + q_prev


def test_convergents_reject_rational():
    with pytest.raises(NotIrrational):
        convergents(ParamA.from_expr("1/2"), 5)


def test_convergent_count_limit():
    a = ParamA.from_expr("(sqrt(5)-1)/2")
    with pytest.raises(ValueError):
        convergents(a, 41)
    cs = convergents(a, 40)  # slowest-converging CF still fits the budget
    assert len(cs) == 40


def test_exact_trig_helpers():
    a = ParamA.from_expr("1/3")
    assert trig_pi(lambda x: Fraction(1, 3), a).cos == pytest.approx(0.5, abs=1e-15)
    assert trig_pi(lambda x: Fraction(1, 2), a).sin == pytest.approx(1.0, abs=1e-15)
    # large multiplier: reduction must stay exact
    assert trig_pi(lambda x: 3 * 10 ** 12 * x, a).cos == pytest.approx(1.0, abs=1e-12)
    s2 = ParamA.from_expr("sqrt(2)-1")
    val = trig_pi(lambda x: 10 ** 6 + 10 ** 6 * x, s2).cos
    import mpmath as mp
    with mp.workdps(60):
        ref = mp.cospi(mp.fmod(10 ** 6 * mp.sqrt(2), 2))
        assert val == pytest.approx(float(ref), abs=1e-12)
