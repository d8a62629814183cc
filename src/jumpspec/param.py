"""Exact arithmetic for the jump parameter.

The parameter ``a`` places the restart point pi*a/2 inside (-pi/2, pi/2).
Every case split downstream (eigenvalue coincidences, exceptional
eigenfunction pairs, basis blow-up sequences) branches on statements like
"m(1+a)/(1-a) is an integer" that are undecidable from a bare float, so
``a`` is carried either as an exact reduced fraction or as its source
expression, re-read at whatever precision a caller asks for.

The three eigenvalue families live here, in FAMILIES: each class's
wavenumber k(m, a) and angle turns t(m, a), written once as the integer
coefficients of m (alpha + beta a)/(gamma + delta a).  At a = P/Q every
exact question is then one on plain integers: t = m(alpha Q + beta P) /
(gamma Q + delta P), so an exceptional index is one remainder
(is_exceptional), an angle is reduced by integer division (family_angle,
which takes an irrational a at a nearby binary rational P/Q), and the
spectrum merges members on integer multiples of k.  The float values
(k at irrational a, the eigenvalue curves) come from the same
coefficients.  Every module that needs a family's wavenumber, its angle
or whether it meets another family reads them here.

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
from typing import NamedTuple

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
# Both k and t are m (alpha + beta a)/(gamma + delta a) with integer
# coefficients, so at a = P/Q each is m p/q with the integers
# p = alpha Q + beta P and q = gamma Q + delta P > 0 (Q > |P|).


class Ratio(NamedTuple):
    """m (alpha + beta x)/(gamma + delta x) with integer coefficients."""

    alpha: int
    beta: int
    gamma: int
    delta: int

    def at(self, m: int, x: float) -> float:
        """The value at a float x, with the bits of the formula as printed
        (4m/(1-x), m(1+x)/(1-x), 2m, ...): a zero or unit coefficient
        rounds nothing, and m*4.0 is float(4m)."""
        return m * (self.alpha + self.beta * x) / (self.gamma + self.delta * x)

    def ints(self, p: int, q: int) -> tuple[int, int]:
        """(num, den) with the value at x = p/q equal to m num/den; den > 0
        whenever q > |p|.  Neither is reduced."""
        return self.alpha * q + self.beta * p, self.gamma * q + self.delta * p


class Family(NamedTuple):
    """The printed wavenumber k(m, x), the angle turns t(m, x) and the
    first index of one eigenvalue family."""

    k: Ratio
    turns: Ratio
    first_m: int


FAMILIES = {
    -1: Family(Ratio(4, 0, 1, -1), Ratio(1, 1, 1, -1), 1),   # 4m/(1-x), m(1+x)/(1-x)
    +1: Family(Ratio(4, 0, 1, 1), Ratio(1, -1, 1, 1), 1),    # 4m/(1+x), m(1-x)/(1+x)
    0: Family(Ratio(2, 0, 1, 0), Ratio(1, 1, 1, 0), 0),      # 2m, m(1+x)
}


def _family(cls: int) -> Family:
    if cls not in FAMILIES:
        raise ValueError(f"eigenvalue class must be -1, +1 or 0, got {cls}")
    return FAMILIES[cls]


def exact_turns(a: ParamA, cls: int, m: int) -> tuple[int, int] | None:
    """t(m, a) = p/q exactly as integers p and q > 0, not reduced, or None
    when a is irrational (t is then not an integer for m >= 1)."""
    turns = _family(cls).turns
    if a.fraction is None:
        return None
    num, den = turns.ints(a.fraction.numerator, a.fraction.denominator)
    return m * num, den


def is_exceptional(a: ParamA, cls: int, m: int) -> bool:
    """Whether the angle turns t(m, a) of family ``cls`` are an integer,
    decided exactly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    t = exact_turns(a, cls, m)
    return t is not None and t[0] % t[1] == 0


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
# The closed forms downstream evaluate sin, cos and 1 - cos at the family
# angles pi*t(m, a), t = m(alpha + beta a)/(gamma + delta a), where the
# index m reaches the deep continued-fraction denominators (~1e22).
# Double-precision reduction of such an angle loses every digit, and
# 1 - cos cancels to zero exactly where the basis diagnostics need it.
# family_angle is the one place that reduces these angles, on integers:
#
#   1. a is taken as P/Q: a itself when a is rational, otherwise the
#      rational within 10^-dps of a that its dps-digit binary evaluation
#      is, where dps = WORK_DPS + twice the decimal digits of t, so the
#      reduced angle stays exact to double precision;
#   2. t = p/q with p = m(alpha Q + beta P) and q = gamma Q + delta P > 0,
#      and trig_pi splits it as t = n + r, n = round(t), r = rem/q,
#      |rem| <= q/2, in integer arithmetic; then
#        sin = (-1)^n sin(pi r),
#        cos = (-1)^n sin(pi (1/2 - |r|))   (cos(pi r) would lose the
#                                             relative accuracy near 0),
#        1 - cos = 2 sin^2(pi r/2) (n even) or 1 + cos(pi r) (n odd),
#      none of which cancels, so each value is good to a few ulp relative.
#      The float arguments are int/int quotients, correctly rounded however
#      large p and q are, so they depend on the value p/q alone: an
#      unreduced pair gives the bits of the reduced one.


class PiAngle(NamedTuple):
    """cos, sin and versine 1 - cos of one angle."""

    cos: float
    sin: float
    versine: float


@functools.lru_cache(maxsize=256)
def _fraction_near(a: ParamA, dps: int) -> tuple[int, int]:
    """(P, Q) with P/Q within ~10^-dps of the irrational a: the exact binary
    value of its dps-digit evaluation (read from _mpf_, which keeps the
    sign that mpf.man_exp drops), Q > 0 a power of two."""
    p, q = to_rational(a.approx(dps)._mpf_)
    return int(p), int(q)


def trig_pi(p: int, q: int) -> PiAngle:
    """Trigonometry of theta = pi p/q for integers p and q > 0, reduced
    exactly.  The package reaches it only through family_angle, which
    reads the angles from FAMILIES."""
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
    turns = _family(cls).turns
    if a.fraction is not None:
        num, den = turns.ints(a.fraction.numerator, a.fraction.denominator)
    else:
        digits = len(str(int(abs(turns.at(m, a.value)))))
        num, den = turns.ints(*_fraction_near(a, WORK_DPS + 2 * digits))
    return trig_pi(m * num, den)
