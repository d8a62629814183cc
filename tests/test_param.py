import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from jumpspec.param import (
    FAMILIES, WORK_DPS, NotIrrational, ParamA, convergents, family_k, is_exceptional, trig_pi,
    turns,
)
from jumpspec.spectrum import SpectralCase, enumerate_spectrum

from reference_oracles import is_exceptional_minus_float, is_exceptional_plus_float


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
    with mp.workdps(50):
        ref = mp.sqrt(2) - 1
        assert abs(a.approx(50) - ref) < mp.mpf(10) ** -45


def test_sqrt_of_perfect_square_is_rational():
    assert ParamA.from_expr("sqrt(4)/9").fraction == Fraction(2, 9)
    assert ParamA.from_expr("sqrt(4/9)-1/3").fraction == Fraction(1, 3)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        ParamA.from_expr("3/2")
    # the range of a rational is decided exactly, not from its 60-digit value:
    # this sum is 1 but rounds below 1
    with pytest.raises(ValueError):
        ParamA.from_expr("1/5+2/5+2/5")
    assert ParamA.from_expr("1-1/1" + "0" * 15).fraction == 1 - Fraction(1, 10 ** 15)
    with pytest.raises(ValueError):
        ParamA.from_fraction(5, 4)
    # inside (-1, 1) but a double of +-1, where 1 -+ a divides: refused,
    # rational or not (sqrt(70)*sqrt(70)/70 is 1 - 1e-60 at 60 digits)
    for near_one in ("1-1/1" + "0" * 62, "-1+1/1" + "0" * 17, "sqrt(70)*sqrt(70)/70"):
        with pytest.raises(ValueError, match="double precision"):
            ParamA.from_expr(near_one)
    with pytest.raises(ValueError, match="double precision"):
        ParamA.from_fraction(10 ** 17 - 1, 10 ** 17)


def test_grammar_errors():
    for bad in ("1//3", "sqrt(", "foo", "1+", "2^3", "sqrt(-1)/2", "sqrt(0-1/4)",
                "(" * 300 + "1/3" + ")" * 300):
        with pytest.raises(ValueError):
            ParamA.from_expr(bad)
    # irrational terms that cancel leave rounding noise: 0, or 5.6e-31 at
    # 60 digits against 5.7e-101 at 200
    for noise in ("sqrt(2)*sqrt(2)-2", "sqrt(sqrt(3)*sqrt(3)-3)", "sqrt(2)-sqrt(2)"):
        with pytest.raises(ValueError, match="rounding noise"):
            ParamA.from_expr(noise)
    assert ParamA.from_expr("(" * 200 + "1/3" + ")" * 200).fraction == Fraction(1, 3)


def test_exceptional_minus_examples():
    assert is_exceptional(ParamA.from_expr("1/3"), -1, 1)      # ratio 2
    assert is_exceptional(ParamA.from_expr("0"), -1, 5)        # ratio 5
    assert not is_exceptional(ParamA.from_expr("sqrt(2)-1"), -1, 7)


def test_exceptional_plus_examples():
    a = ParamA.from_expr("1/3")
    assert is_exceptional(a, +1, 2)       # ratio 1
    assert not is_exceptional(a, +1, 1)   # ratio 1/2
    assert not is_exceptional(ParamA.from_expr("1/pi"), +1, 3)
    with pytest.raises(ValueError):
        is_exceptional(a, +1, 0)
    with pytest.raises(ValueError):
        is_exceptional(a, 2, 1)


def test_family_k_is_exact_at_rational_a_and_the_printed_float_otherwise():
    a = ParamA.from_expr("1/3")
    for cls, m in ((-1, 1), (+1, 2), (0, 3)):   # the lambda = 36 coincidence
        k = family_k(a, cls, m)
        assert isinstance(k, Fraction) and k == 6
    irr = ParamA.from_expr("sqrt(2)-1")
    for m in range(1, 60):
        assert family_k(irr, -1, m) == 4 * m / (1 - irr.value)
        assert family_k(irr, +1, m) == 4 * m / (1 + irr.value)
        k0 = family_k(irr, 0, m)
        assert isinstance(k0, float) and k0 == 2.0 * m


@given(p=st.integers(-30, 30), q=st.integers(1, 31), m=st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_each_family_angle_is_its_wavenumber_times_the_jump_offset(p, q, m):
    # pi t is the phase k pi (1 -+ cls a)/4 of the characteristic determinant
    # (k pi (1+a)/4 for the 0 class, whose factor is sin(k pi/2))
    if abs(p) >= q:
        return
    x = Fraction(p, q)
    for cls, (k, turns, _) in FAMILIES.items():
        factor = (1 + x) / 2 if cls == 0 else (1 - cls * x) / 4
        assert turns(m, x) == k(m, x) * factor


@given(p=st.integers(-30, 30), q=st.integers(1, 31), m=st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_is_exceptional_is_integer_divisibility(p, q, m):
    if abs(p) >= q:
        return
    a = ParamA.from_fraction(p, q)
    p, q = a.fraction.numerator, a.fraction.denominator
    assert is_exceptional(a, -1, m) == ((m * (q + p)) % (q - p) == 0)
    assert is_exceptional(a, +1, m) == ((m * (q - p)) % (q + p) == 0)
    assert is_exceptional(a, 0, m) == ((m * p) % q == 0)
    assert turns(a, 0, m) == Fraction(m * (q + p), q)


def _case_at(a: ParamA, k: float) -> SpectralCase:
    return next(rec.case for rec in enumerate_spectrum(a, k * k + 1) if rec.k == k)


def test_zero_class_cases():
    # class 0 at k = 2m: the zero eigenvalue at m = 0, exceptional odd at
    # odd integer turns m(1+a), inside an exceptional pair at even ones
    a0 = ParamA.from_expr("0")
    assert _case_at(a0, 0.0) is SpectralCase.ZERO_EV
    assert is_exceptional(a0, 0, 3) and _case_at(a0, 6.0) is SpectralCase.EXCEPTIONAL_ODD
    assert is_exceptional(a0, 0, 2) and _case_at(a0, 4.0) is SpectralCase.EXCEPTIONAL_PAIR
    for expr, m in (("1/3", 2), ("sqrt(2)-1", 11)):
        a = ParamA.from_expr(expr)
        assert not is_exceptional(a, 0, m) and _case_at(a, 2.0 * m) is SpectralCase.GENERIC


def test_a_lone_exceptional_zero_class_member_has_odd_turns():
    # at an even t = m(1+a) the class +1 index t/2 and the class -1 index
    # m - t/2 meet class 0 at k = 2m, so the spectrum's exceptional-odd
    # test needs no parity of its own
    for q in range(1, 16):
        for p in range(1 - q, q):
            if math.gcd(p, q) != 1:
                continue
            a = ParamA.from_fraction(p, q)
            for rec in enumerate_spectrum(a, 1600.0):
                zero = [m for cls, m in rec.memberships if cls == 0 and m > 0]
                if not zero or not is_exceptional(a, 0, zero[0]):
                    continue
                odd = turns(a, 0, zero[0]).numerator % 2 == 1
                assert rec.case is (SpectralCase.EXCEPTIONAL_ODD if odd
                                    else SpectralCase.EXCEPTIONAL_PAIR), (p, q, rec)


def test_float_rerun_agrees_with_exact():
    for expr in ("1/3", "2/5", "-3/7", "0", "5/6"):
        a = ParamA.from_expr(expr)
        for m in range(1, 200):
            assert is_exceptional(a, -1, m) == is_exceptional_minus_float(a.value, m)
            assert is_exceptional(a, +1, m) == is_exceptional_plus_float(a.value, m)


@given(p=st.integers(-30, 30), q=st.integers(1, 31), m=st.integers(1, 500))
@settings(max_examples=200, deadline=None)
def test_minus_plus_mirror(p, q, m):
    if abs(p) >= q:
        return
    a = ParamA.from_fraction(p, q)
    neg = ParamA.from_fraction(-p, q)
    assert is_exceptional(a, -1, m) == is_exceptional(neg, +1, m)


def test_irrational_never_exceptional():
    a = ParamA.from_expr("(sqrt(5)-1)/2")
    for m in range(1, 10_001, 97):
        assert not is_exceptional(a, -1, m)
        assert not is_exceptional(a, +1, m)
        assert not is_exceptional(a, 0, m) and turns(a, 0, m) is None


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
    with mp.workdps(60):
        ref = mp.cospi(mp.fmod(10 ** 6 * mp.sqrt(2), 2))
        assert val == pytest.approx(float(ref), abs=1e-12)


# ---------------------------------------------------------------------------
# the one-pass parser against a direct evaluation of the expression tree
# ---------------------------------------------------------------------------

class Refused(Exception):
    """The expression divides by zero or takes sqrt of a negative value."""


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render(node) -> tuple[str, int]:
    """Text of the tree and the binding strength of its outermost operator;
    parentheses go only where the grammar needs them to keep the tree."""
    kind = node[0]
    if kind == "num":
        return str(node[1]), 3
    if kind in ("pi", "e"):
        return kind, 3
    if kind in ("sqrt", "paren"):
        return f"{'sqrt' if kind == 'sqrt' else ''}({_render(node[1])[0]})", 3
    if kind == "neg":
        text, prec = _render(node[1])
        return "-" + (text if prec == 3 else f"({text})"), 3
    (lt, lp), (rt, rp), p = _render(node[1]), _render(node[2]), _PREC[kind]
    return f"{lt if lp >= p else f'({lt})'}{kind}{rt if rp > p else f'({rt})'}", p


def _evaluate(node):
    """(Fraction or None, mpf at the current precision), irrational at face value."""
    kind = node[0]
    if kind == "num":
        return Fraction(node[1]), mp.mpf(node[1])
    if kind == "pi":
        return None, +mp.pi
    if kind == "e":
        return None, +mp.e
    if kind == "paren":
        return _evaluate(node[1])
    if kind == "neg":
        f, v = _evaluate(node[1])
        return (None if f is None else -f), -v
    if kind == "sqrt":
        f, v = _evaluate(node[1])
        if (v if f is None else f) < 0:
            raise Refused
        root = None
        if f is not None:
            r = Fraction(math.isqrt(f.numerator), math.isqrt(f.denominator))
            root = r if r * r == f else None
        return root, mp.sqrt(abs(v))  # abs: an exact 0 may round below 0
    (lf, lv), (rf, rv) = _evaluate(node[1]), _evaluate(node[2])
    exact = lf is not None and rf is not None
    if kind == "+":
        return (lf + rf if exact else None), lv + rv
    if kind == "-":
        return (lf - rf if exact else None), lv - rv
    if kind == "*":
        return (lf * rf if exact else None), lv * rv
    if rf == 0 or rv == 0:
        raise Refused
    return (lf / rf if exact else None), lv / rv


_LEAVES = st.one_of(
    st.integers(0, 40).map(lambda n: ("num", n)),
    st.integers(0, 10 ** 25).map(lambda n: ("num", n)),
    st.sampled_from([("pi",), ("e",)]))
_TREES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.tuples(st.sampled_from("+-*/"), inner, inner),
    st.tuples(st.sampled_from(["neg", "sqrt", "paren"]), inner)), max_leaves=8)


@given(tree=_TREES, scale=st.integers(1, 10 ** 4))
@example(tree=("*", ("sqrt", ("num", 70)), ("sqrt", ("num", 70))), scale=70)  # 1 - 1e-60
@settings(max_examples=300, deadline=None)
def test_one_pass_parse_matches_the_tree_evaluated_directly(tree, scale):
    tree = ("/", tree, ("num", scale))  # brings many trees into (-1, 1)
    text = _render(tree)[0]
    try:
        with mp.workdps(WORK_DPS):
            frac, val = _evaluate(tree)
        exact = val if frac is None else frac
        # a double of +-1 is refused: every formula divides by 1 -+ a
        accepted = abs(exact) < 1 and abs(float(exact)) != 1
        if accepted and frac is None:  # irrational terms that cancel are refused
            with mp.workdps(2 * WORK_DPS):
                finer = _evaluate(tree)[1]
                accepted = bool(val) and abs(finer - val) <= abs(finer) * mp.mpf(10) ** -30
    except Refused:
        accepted = False
    if not accepted:
        with pytest.raises(ValueError):
            ParamA.from_expr(text)
        return
    a = ParamA.from_expr(text)
    assert a.fraction == frac and a.source == text
    assert a.value == float(val if frac is None else frac)
    for dps in (60, 200):
        with mp.workdps(dps):
            try:
                f, v = _evaluate(tree)
            except Refused:
                with pytest.raises(ValueError):
                    a.approx(dps)
                continue
            want = v if f is None else mp.mpf(f.numerator) / f.denominator
        assert a.approx(dps)._mpf_ == want._mpf_, (text, dps)
