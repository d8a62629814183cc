"""Exact arithmetic for the jump parameter.

The parameter ``a`` places the restart point pi*a/2 inside (-pi/2, pi/2).
Every case split downstream (eigenvalue coincidences, exceptional
eigenfunction pairs, basis blow-up sequences) branches on statements like
"m(1+a)/(1-a) is an integer" that are undecidable from a bare float, so
``a`` is carried either as an exact reduced fraction or as a symbolic
expression re-evaluable at arbitrary precision.

Accepted expression grammar (evaluated with >= 50 significant digits):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-'? atom
    atom   := INTEGER | 'pi' | 'e' | 'sqrt' '(' expr ')' | '(' expr ')'

sqrt of a perfect-square rational simplifies back to a rational; any
expression with a surviving irrational subterm is classified irrational at
face value (no general algebraic-number simplification).
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath as mp
from mpmath.libmp import to_rational

WORK_DPS = 60


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


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"malformed parameter expression (expected {expected!r}, got {tok!r})")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ValueError("trailing tokens in parameter expression")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            node = ("mul" if op == "*" else "div", node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of parameter expression")
        if tok.isdigit():
            self.take()
            return ("num", int(tok))
        if tok == "pi":
            self.take()
            return ("pi",)
        if tok == "e":
            self.take()
            return ("e",)
        if tok == "sqrt":
            self.take()
            self.take("(")
            inner = self.expr()
            self.take(")")
            return ("sqrt", inner)
        if tok == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise ValueError(f"unexpected token {tok!r}")


def _eval_fraction(node) -> Fraction | None:
    """Exact rational value of the AST, or None if irrational."""
    op = node[0]
    if op == "num":
        return Fraction(node[1])
    if op in ("pi", "e"):
        return None
    if op == "neg":
        v = _eval_fraction(node[1])
        return None if v is None else -v
    if op == "sqrt":
        v = _eval_fraction(node[1])
        if v is None or v < 0:
            return None
        pn, qn = v.numerator, v.denominator
        rp, rq = math.isqrt(pn), math.isqrt(qn)
        if rp * rp == pn and rq * rq == qn:
            return Fraction(rp, rq)
        return None
    left = _eval_fraction(node[1])
    right = _eval_fraction(node[2])
    if left is None or right is None:
        return None
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    if op == "div":
        if right == 0:
            raise ZeroDivisionError("division by zero in parameter expression")
        return left / right
    raise AssertionError(op)


def _eval_mpf(node) -> mp.mpf:
    """Evaluate the AST at the current mpmath precision."""
    op = node[0]
    if op == "num":
        return mp.mpf(node[1])
    if op == "pi":
        return +mp.pi
    if op == "e":
        return +mp.e
    if op == "neg":
        return -_eval_mpf(node[1])
    if op == "sqrt":
        return mp.sqrt(_eval_mpf(node[1]))
    left = _eval_mpf(node[1])
    right = _eval_mpf(node[2])
    if op == "add":
        return left + right
    if op == "sub":
        return left - right
    if op == "mul":
        return left * right
    if op == "div":
        return left / right
    raise AssertionError(op)


# ---------------------------------------------------------------------------
# the parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParamA:
    """Jump parameter a in (-1, 1) with exact rationality information."""

    value: float
    fraction: Fraction | None
    source: str
    _ast: tuple = field(repr=False, compare=False, default=None)

    @classmethod
    def from_expr(cls, text: str) -> "ParamA":
        ast = _Parser(_tokenize(text)).parse()
        frac = _eval_fraction(ast)
        with mp.workdps(WORK_DPS):
            approx = _eval_mpf(ast)
            if not abs(approx) < 1:
                raise ValueError(f"parameter {text!r} = {approx} is outside (-1, 1)")
        if frac is not None:
            return cls(value=float(frac), fraction=frac, source=text, _ast=ast)
        return cls(value=float(approx), fraction=None, source=text, _ast=ast)

    @classmethod
    def from_fraction(cls, p: int, q: int) -> "ParamA":
        frac = Fraction(p, q)
        if not abs(frac) < 1:
            raise ValueError(f"parameter {p}/{q} is outside (-1, 1)")
        return cls(value=float(frac), fraction=frac,
                   source=f"{frac.numerator}/{frac.denominator}",
                   _ast=("div", ("num", frac.numerator), ("num", frac.denominator))
                   if frac.numerator >= 0 else
                   ("neg", ("div", ("num", -frac.numerator), ("num", frac.denominator))))

    @property
    def is_rational(self) -> bool:
        return self.fraction is not None

    def approx(self, dps: int = WORK_DPS) -> mp.mpf:
        """Re-evaluate the source expression at dps significant digits."""
        with mp.workdps(dps):
            if self.fraction is not None:
                return mp.mpf(self.fraction.numerator) / self.fraction.denominator
            return +_eval_mpf(self._ast)

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
# case predicates
# ---------------------------------------------------------------------------

class ZeroClassCase(enum.Enum):
    ZERO_EIGENVALUE = "zero_eigenvalue"
    GENERIC = "generic"
    EXCEPTIONAL_ODD = "exceptional_odd"
    EXCEPTIONAL_EVEN = "exceptional_even"


def is_exceptional_minus(a: ParamA, m: int) -> bool:
    """Whether m(1+a)/(1-a) is a nonnegative integer, decided exactly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not a.is_rational:
        return False
    p, q = a.fraction.numerator, a.fraction.denominator
    # m(1+a)/(1-a) = m(q+p)/(q-p); both factors positive since |p| < q
    return (m * (q + p)) % (q - p) == 0


def is_exceptional_plus(a: ParamA, m: int) -> bool:
    """Whether m(1-a)/(1+a) is a nonnegative integer, decided exactly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if not a.is_rational:
        return False
    p, q = a.fraction.numerator, a.fraction.denominator
    return (m * (q - p)) % (q + p) == 0


def zero_class_case(a: ParamA, m: int) -> ZeroClassCase:
    """Case of the wavenumber-2m family: zero mode, generic, or exceptional.

    The exceptional branch is entered when m*a is an integer (which kills
    sin(m*pi*a) and decouples the two boundary equations); the odd/even
    subsplit is the parity of the integer m(1+a).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return ZeroClassCase.ZERO_EIGENVALUE
    if not a.is_rational:
        return ZeroClassCase.GENERIC
    p, q = a.fraction.numerator, a.fraction.denominator
    if (m * p) % q != 0:
        return ZeroClassCase.GENERIC
    m_one_plus_a = m + (m * p) // q  # integer m(1+a)
    if m_one_plus_a % 2 == 1:
        return ZeroClassCase.EXCEPTIONAL_ODD
    return ZeroClassCase.EXCEPTIONAL_EVEN


def is_exceptional_minus_float(a_value: float, m: int, tol: float = 1e-9) -> bool:
    """Float/tolerance rerun of is_exceptional_minus (cross-check utility)."""
    r = m * (1 + a_value) / (1 - a_value)
    return abs(r - round(r)) < tol and round(r) >= 0


def is_exceptional_plus_float(a_value: float, m: int, tol: float = 1e-9) -> bool:
    r = m * (1 - a_value) / (1 + a_value)
    return abs(r - round(r)) < tol and round(r) >= 0


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
    digit count) and use only exact arithmetic.
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
