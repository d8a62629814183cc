"""Exact arithmetic for the jump parameter.

The parameter ``a`` places the restart point pi*a/2 inside (-pi/2, pi/2).
Every case split downstream (eigenvalue coincidences, exceptional
eigenfunction pairs, basis blow-up sequences) branches on statements like
"m(1+a)/(1-a) is an integer" that are undecidable from a bare float, so
``a`` is carried either as an exact reduced fraction or as its source
expression, re-read at whatever precision a caller asks for.

The three eigenvalue families live here, in FAMILIES: each class's
wavenumber k(m, a) and angle turns t(m, a), written once as exact
formulas.  family_k, turns, is_exceptional and family_angle
read them, and so does every other module that needs a family's
wavenumber, its angle or whether it meets another family.

Accepted expression grammar:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'* (INTEGER | 'pi' | 'e' | 'sqrt' '(' expr ')' | '(' expr ')')

The parser evaluates while it reads: every rule returns the exact
Fraction of what it read (None once an irrational subterm survives) and
its mpf value at the current mpmath precision.  ParamA.from_expr reads
at WORK_DPS digits; ``approx(dps)`` of an irrational parameter reads the
source again under dps digits, so no expression tree is kept.

sqrt of a perfect-square rational simplifies back to a rational; any
expression with a surviving irrational subterm is classified irrational at
face value (no general algebraic-number simplification).

Usage errors (ValueError): an unknown symbol or character, a malformed or
incomplete expression, division by zero, sqrt of a negative value, more
than MAX_NESTING nested groups, and a value outside (-1, 1).  The signs
behind the last three are decided exactly wherever the operand is
rational, otherwise from its mpf value.  A value inside (-1, 1) whose
double rounds to +-1 is refused as well (every formula divides by 1 -+ a),
and so is rounding noise: an irrational value 0, or one that moves in its
leading WORK_DPS/2 digits at twice the precision, as when irrational terms
cancel (sqrt(70)*sqrt(70)/70 reads 1 - 1e-60 at WORK_DPS digits).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath as mp
from mpmath.libmp import to_rational

WORK_DPS = 60
MAX_NESTING = 200  # groups '(' or 'sqrt(' open at once; bounds the recursion


class NotIrrational(ValueError):
    """Operation requires an irrational parameter."""


class PrecisionExhausted(RuntimeError):
    """Extended precision ran out before the requested convergent count."""


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*/()":
            tokens.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("pi", "e", "sqrt"):
                raise ValueError(f"unknown symbol {word!r} in parameter expression")
            tokens.append(word)
            i = j
        else:
            raise ValueError(f"bad character {c!r} in parameter expression")
    return tokens


# exact value (None if irrational) and mpf value of what a rule read
Value = tuple[Fraction | None, mp.mpf]

_BINARY = {"+": operator.add, "-": operator.sub,
           "*": operator.mul, "/": operator.truediv}


def _binary(op: str, left: Value, right: Value) -> Value:
    (lf, lv), (rf, rv) = left, right
    if op == "/" and (rf == 0 or not rv):
        raise ValueError("division by zero in parameter expression")
    fn = _BINARY[op]
    return (None if lf is None or rf is None else fn(lf, rf)), fn(lv, rv)


def _sqrt(frac: Fraction | None, val: mp.mpf) -> Value:
    if (val if frac is None else frac) < 0:
        raise ValueError("sqrt of a negative value in parameter expression")
    root = None
    if frac is not None:
        pn, qn = frac.numerator, frac.denominator
        rp, rq = math.isqrt(pn), math.isqrt(qn)
        if rp * rp == pn and rq * rq == qn:
            root = Fraction(rp, rq)
    # an exact value >= 0 can still round to a negative mpf
    return root, mp.sqrt(abs(val))


class _Parser:
    """Evaluates an expression at the current mpmath precision as it reads it."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"malformed parameter expression (expected {expected!r}, got {tok!r})")
        self.pos += 1
        return tok

    def parse(self) -> Value:
        value = self.expr()
        if self.peek() is not None:
            raise ValueError("trailing tokens in parameter expression")
        return value

    def expr(self) -> Value:
        value = self.term()
        while self.peek() in ("+", "-"):
            value = _binary(self.take(), value, self.term())
        return value

    def term(self) -> Value:
        value = self.factor()
        while self.peek() in ("*", "/"):
            value = _binary(self.take(), value, self.factor())
        return value

    def factor(self) -> Value:
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of parameter expression")
        self.take()
        if tok.isdigit():
            frac, val = Fraction(int(tok)), mp.mpf(int(tok))
        elif tok in ("pi", "e"):
            frac, val = None, +(mp.pi if tok == "pi" else mp.e)
        elif tok in ("sqrt", "("):
            if tok == "sqrt":
                self.take("(")
            self.nesting += 1
            if self.nesting > MAX_NESTING:
                raise ValueError(f"parameter expression nests deeper than {MAX_NESTING}")
            frac, val = self.expr()
            self.take(")")
            self.nesting -= 1
            if tok == "sqrt":
                frac, val = _sqrt(frac, val)
        else:
            raise ValueError(f"unexpected token {tok!r}")
        if negate:
            return (None if frac is None else -frac), -val
        return frac, val


# ---------------------------------------------------------------------------
# the parameter
# ---------------------------------------------------------------------------

def _check_range(exact: Fraction | mp.mpf, text: str) -> None:
    """ValueError unless exact lies in (-1, 1) with a double other than +-1."""
    if not abs(exact) < 1:
        raise ValueError(f"parameter {text!r} = {exact} is outside (-1, 1)")
    if abs(float(exact)) == 1:
        raise ValueError(f"parameter {text!r} = {exact} rounds to {float(exact):+g} "
                         "in double precision, outside (-1, 1)")


@dataclass(frozen=True)
class ParamA:
    """Jump parameter a in (-1, 1) with exact rationality information."""

    value: float
    fraction: Fraction | None
    source: str

    @classmethod
    def from_expr(cls, text: str) -> "ParamA":
        with mp.workdps(WORK_DPS):
            frac, approx = _Parser(text).parse()
            _check_range(approx if frac is None else frac, text)
        if frac is None:  # irrational terms that cancel leave rounding noise
            with mp.workdps(2 * WORK_DPS):
                finer = _Parser(text).parse()[1]
            if not approx or abs(finer - approx) > abs(finer) / mp.mpf(10) ** (WORK_DPS // 2):
                raise ValueError(f"parameter {text!r} is rounding noise: {mp.nstr(approx, 5)} "
                                 f"at {WORK_DPS} digits, {mp.nstr(finer, 5)} at {2 * WORK_DPS}")
        value = float(approx) if frac is None else float(frac)
        return cls(value=value, fraction=frac, source=text)

    @classmethod
    def from_fraction(cls, p: int, q: int) -> "ParamA":
        frac = Fraction(p, q)
        _check_range(frac, f"{p}/{q}")
        return cls(value=float(frac), fraction=frac,
                   source=f"{frac.numerator}/{frac.denominator}")

    @property
    def is_rational(self) -> bool:
        return self.fraction is not None

    def approx(self, dps: int = WORK_DPS) -> mp.mpf:
        """The value at dps significant digits: the fraction divided out,
        or the source expression read again at that precision."""
        with mp.workdps(dps):
            if self.fraction is not None:
                return mp.mpf(self.fraction.numerator) / self.fraction.denominator
            return _Parser(self.source).parse()[1]

    def __str__(self) -> str:
        return self.source


def as_param(a) -> ParamA:
    """Coerce str | Fraction | ParamA to ParamA."""
    if isinstance(a, ParamA):
        return a
    if isinstance(a, str):
        return ParamA.from_expr(a)
    if isinstance(a, Fraction):
        return ParamA.from_fraction(a.numerator, a.denominator)
    if isinstance(a, int):
        return ParamA.from_fraction(a, 1)
    raise TypeError(f"cannot interpret {a!r} as a jump parameter")


# ---------------------------------------------------------------------------
# the eigenvalue families
# ---------------------------------------------------------------------------
#
# Each family's closed forms carry the angle pi*t(m, a).  Where t(-1) or
# t(+1) is an integer all three families share k (an exceptional pair);
# where t(0) = m(1+a) is one, the zero-class boundary equations decouple.
# The formulas take x as a Fraction (exact) or as a float.


class Family(NamedTuple):
    """The printed wavenumber k(m, x), the angle turns t(m, x) and the
    first index of one eigenvalue family."""

    k: Callable
    turns: Callable
    first_m: int


FAMILIES = {
    -1: Family(lambda m, x: 4 * m / (1 - x), lambda m, x: m * (1 + x) / (1 - x), 1),
    +1: Family(lambda m, x: 4 * m / (1 + x), lambda m, x: m * (1 - x) / (1 + x), 1),
    0: Family(lambda m, x: 2 * m, lambda m, x: m * (1 + x), 0),
}


def _family(cls: int) -> Family:
    if cls not in FAMILIES:
        raise ValueError(f"eigenvalue class must be -1, +1 or 0, got {cls}")
    return FAMILIES[cls]


def family_k(a: ParamA, cls: int, m: int) -> Fraction | float:
    """Wavenumber of family ``cls`` at index m: a Fraction when a is
    rational, else the float k(m, a.value)."""
    k = _family(cls).k
    if a.fraction is not None:
        return Fraction(k(m, a.fraction))
    return float(k(m, a.value))


def turns(a: ParamA, cls: int, m: int) -> Fraction | None:
    """t(m, a) exactly, or None when a is irrational (t is then not an
    integer for m >= 1)."""
    if a.fraction is None:
        return None
    return Fraction(_family(cls).turns(m, a.fraction))


def is_exceptional(a: ParamA, cls: int, m: int) -> bool:
    """Whether the angle turns t(m, a) of family ``cls`` are an integer,
    decided exactly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t = turns(a, cls, m)
    return t is not None and t.denominator == 1


# ---------------------------------------------------------------------------
# continued-fraction convergents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Convergent:
    """One continued-fraction convergent p_k/q_k of the parameter."""

    index: int
    p: int
    q: int
    error_bound: float  # |a - p/q|, always < 1/q^2


MAX_CONVERGENTS = 40


def convergents(a: ParamA, count: int) -> list[Convergent]:
    """First ``count`` continued-fraction convergents of an irrational a."""
    if a.is_rational:
        raise NotIrrational(f"parameter {a} is rational; convergents need a irrational")
    if not 1 <= count <= MAX_CONVERGENTS:
        raise ValueError(f"count must be in 1..{MAX_CONVERGENTS}")

    dps = max(WORK_DPS, 30 + 8 * count)
    with mp.workdps(dps):
        x = a.approx(dps)
        target = +x
        out: list[Convergent] = []
        p_prev, q_prev = 1, 0
        p_cur, q_cur = int(mp.floor(x)), 1
        x = x - mp.floor(x)
        out.append(Convergent(0, p_cur, q_cur, float(abs(target - mp.mpf(p_cur)))))
        guard = mp.mpf(10) ** (-(dps - 10))
        for k in range(1, count):
            if x < guard:
                raise PrecisionExhausted(
                    f"only {k} convergents extractable at {dps} digits")
            x = 1 / x
            coef = int(mp.floor(x))
            x = x - mp.floor(x)
            p_cur, p_prev = coef * p_cur + p_prev, p_cur
            q_cur, q_prev = coef * q_cur + q_prev, q_cur
            err = abs(target - mp.mpf(p_cur) / q_cur)
            out.append(Convergent(k, p_cur, q_cur, float(err)))
    return out


# ---------------------------------------------------------------------------
# exact-angle trigonometry
# ---------------------------------------------------------------------------
#
# The closed forms downstream evaluate sin, cos and 1 - cos at angles
# pi*t(a), where t is a formula in a such as m(1+a)/(1-a) and the
# multiplier reaches the deep continued-fraction denominators (~1e22).
# Double-precision reduction of such an angle loses every digit, and
# 1 - cos cancels to zero exactly where the basis diagnostics need it.
# trig_pi is the one place that reduces these angles:
#
#   1. t(a) is evaluated in exact Fraction arithmetic: at a itself when a
#      is rational, otherwise at a rational within 10^-dps of a, where
#      dps = WORK_DPS + twice the decimal digits of t, so the reduced angle
#      stays exact to double precision;
#   2. t = n + r exactly, n = round(t), |r| <= 1/2, and then
#        sin = (-1)^n sin(pi r),
#        cos = (-1)^n sin(pi (1/2 - |r|))   (cos(pi r) would lose the
#                                             relative accuracy near 0),
#        1 - cos = 2 sin^2(pi r/2) (n even) or 1 + cos(pi r) (n odd),
#      none of which cancels, so each value is good to a few ulp relative.


class PiAngle(NamedTuple):
    """cos, sin and versine 1 - cos of one angle."""

    cos: float
    sin: float
    versine: float


@functools.lru_cache(maxsize=256)
def _fraction_near(a: ParamA, dps: int) -> Fraction:
    """A rational within ~10^-dps of the irrational a: the exact binary
    value of its dps-digit evaluation (read from _mpf_, which keeps the
    sign that mpf.man_exp drops)."""
    return Fraction(*to_rational(a.approx(dps)._mpf_))


def trig_pi(turns: Callable, a: ParamA) -> PiAngle:
    """Trigonometry of theta = pi*turns(a), reduced exactly.

    ``turns`` is the formula as printed, e.g. ``lambda x: m*(1+x)/(1-x)``;
    it must accept a Fraction (and, for irrational a, a float for the
    digit count) and use only exact arithmetic.  The package reaches it
    only through family_angle, which reads the angles from FAMILIES.
    """
    if a.fraction is not None:
        t = Fraction(turns(a.fraction))
    else:
        digits = len(str(int(abs(turns(a.value)))))
        t = Fraction(turns(_fraction_near(a, WORK_DPS + 2 * digits)))
    # t = p/q = n + r with r = rem/q, |rem| <= q/2; integer arithmetic,
    # and int/int division rounds correctly however large p and q are
    p, q = t.numerator, t.denominator
    n = (2 * p + q) // (2 * q)
    rem = p - n * q
    x = math.pi * (rem / q)
    sign = -1.0 if n % 2 else 1.0
    cos_r = math.sin(math.pi * ((q - 2 * abs(rem)) / (2 * q)))
    versine = 1.0 + cos_r if n % 2 else 2.0 * math.sin(x / 2) ** 2
    return PiAngle(sign * cos_r, sign * math.sin(x), versine)


def family_angle(a: ParamA, cls: int, m: int) -> PiAngle:
    """The angle pi*t(m, a) of eigenvalue family ``cls`` at index m,
    reduced exactly."""
    formula = _family(cls).turns
    return trig_pi(lambda x: formula(m, x), a)
