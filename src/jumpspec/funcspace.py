"""Piecewise trigonometric function algebra on (-pi/2, pi/2).

Eigenfunctions, generalized eigenvectors and their duals are all finite
sums of terms of one form,

    c * x^p * cos(k x + s - q pi/2),   p in {0, 1}, k >= 0, q in {0, 1},

on at most two pieces cut at the restart point pi*a/2: a constant is
p = k = 0, x is p = 1, k = 0, sin(kx + s) is q = 1.  Each piece keeps its
terms as arrays (p, c, k, s, q), merged on (p, k, s, q).  The quarter turns
q carry the phase changes of differentiation (q - 1) and reflection (-q)
exactly, so terms that must cancel (the two sides of an intertwining
identity) merge to zero; shifts rounded to s -+ pi/2 would stay apart.
Keeping the terms symbolic gives

  * exact evaluation and differentiation, each one array expression,
  * inner products in closed form: by cos A cos B = (cos(A-B) + cos(A+B))/2
    a product of two terms is two waves x^p cos(wx+d), p <= 2, and one
    kernel integrates arrays of waves (a Taylor series where the closed
    form would cancel, so near-resonant w stays at machine precision),
  * machine-precision verification targets that quadrature then has to
    reproduce, instead of quadrature error polluting both sides.

Sampled functions (GridFn) with composite Gauss-Lobatto weights cover the
operators where no closed form exists (resolvent kernels, SVD probes).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from jumpspec.param import ParamA

HALF_PI = math.pi / 2

# |w| * half-length below this: Taylor series of the wave moments
_SERIES_BELOW = 1.0
# term pairs per kernel evaluation; bounds the temporaries of batched calls
_PAIR_BLOCK = 1 << 12


class OutOfDomain(ValueError):
    """Evaluation point outside [-pi/2, pi/2]."""


class QuadratureNotConverged(RuntimeError):
    """Adaptive panel refinement failed to reach the requested target."""


@dataclass(frozen=True)
class TrigTerm:
    """One term coeff * x^p * cos(freq*x + shift - quarter*pi/2), p in {0, 1}."""

    p: int
    coeff: complex
    freq: float = 0.0
    shift: float = 0.0
    quarter: int = 0

    def __post_init__(self):
        if self.p not in (0, 1):
            raise ValueError("term power must be 0 or 1")
        if self.freq < 0:
            raise ValueError("term frequency must be >= 0")


def const(c: complex) -> TrigTerm:
    return TrigTerm(0, c)


def linear(c: complex) -> TrigTerm:
    return TrigTerm(1, c)


def cos_term(c: complex, k: float, s: float = 0.0) -> TrigTerm:
    return TrigTerm(0, c, k, s)


def sin_term(c: complex, k: float, s: float = 0.0) -> TrigTerm:
    return TrigTerm(0, c, k, s, 1)


def xcos_term(c: complex, k: float, s: float = 0.0) -> TrigTerm:
    return TrigTerm(1, c, k, s)


def xsin_term(c: complex, k: float, s: float = 0.0) -> TrigTerm:
    return TrigTerm(1, c, k, s, 1)


class Terms:
    """A term sum as arrays: sum_i c_i x^p_i cos(k_i x + s_i - q_i pi/2).

    `merged` is the canonical form: keys (p, q, k, s) unique and sorted,
    q folded into {0, 1} (two quarter turns are a sign), no zero
    coefficients.  Iteration yields TrigTerms.
    """

    __slots__ = ("p", "c", "k", "s", "q")

    def __init__(self, p, c, k, s, q):
        self.p, self.c, self.k, self.s, self.q = p, c, k, s, q

    @classmethod
    def of(cls, terms: "Terms | Iterable[TrigTerm]") -> "Terms":
        if isinstance(terms, Terms):
            return terms
        ts = list(terms)
        return cls(*(np.array([getattr(t, f) for t in ts], dtype=dt) for f, dt in (
            ("p", np.int64), ("coeff", complex), ("freq", float), ("shift", float),
            ("quarter", np.int64)))).merged()

    @classmethod
    def concat(cls, parts: Sequence["Terms"]) -> "Terms":
        """Unmerged concatenation, in order."""
        if not parts:
            return cls.of(())
        return cls(*(np.concatenate([getattr(t, f) for t in parts])
                     for f in cls.__slots__))

    def merged(self) -> "Terms":
        """Sum equal keys in order of appearance; drop zero coefficients."""
        p, k, s, q = self.p, self.k, self.s, self.q % 4
        c = np.where(q >= 2, -self.c, self.c)  # cos(t - pi) = -cos t
        q = q % 2
        if not len(c):
            return Terms(p, c, k, s, q)
        order = np.lexsort((s, k, q, p))
        p, c, k, s, q = p[order], c[order], k[order], s[order], q[order]
        new = np.ones(len(c), dtype=bool)
        new[1:] = (p[1:] != p[:-1]) | (q[1:] != q[:-1]) | (k[1:] != k[:-1]) | (s[1:] != s[:-1])
        starts = np.flatnonzero(new)
        c = np.add.reduceat(c, starts)
        keep = c != 0
        first = starts[keep]
        return Terms(p[first], c[keep], k[first], s[first], q[first])

    def __len__(self) -> int:
        return len(self.c)

    def __getitem__(self, rows: slice) -> "Terms":
        return Terms(self.p[rows], self.c[rows], self.k[rows], self.s[rows], self.q[rows])

    def __iter__(self):
        for p, c, k, s, q in zip(self.p, self.c, self.k, self.s, self.q):
            yield TrigTerm(int(p), complex(c), float(k), float(s), int(q))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Terms):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in self.__slots__)

    def scaled(self, z: complex) -> "Terms":
        return Terms(self.p, z * self.c, self.k, self.s, self.q)

    def derivative(self) -> "Terms":
        """(c x^p cos(kx+t))' = p c x^(p-1) cos(kx+t) + k c x^p cos(kx+t+pi/2)."""
        power = Terms(np.maximum(self.p - 1, 0), self.p * self.c, self.k, self.s, self.q)
        wave = Terms(self.p, self.k * self.c, self.k, self.s, self.q - 1)
        return Terms.concat((power, wave)).merged()


def eval_terms(terms: Terms | Iterable[TrigTerm], x: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of a term sum."""
    t = Terms.of(terms)
    x = np.asarray(x, dtype=float)
    phase = t.s - t.q * HALF_PI
    basis = np.power.outer(x, t.p) * np.cos(np.multiply.outer(x, t.k) + phase)
    return basis @ t.c


@dataclass(frozen=True)
class Piece:
    """A term sum valid on [lo, hi]; `terms` is converted to merged Terms."""

    lo: float
    hi: float
    terms: Terms

    def __post_init__(self):
        object.__setattr__(self, "terms", Terms.of(self.terms))


@dataclass(frozen=True)
class PiecewiseTrig:
    """Term sums on an ordered partition of [-pi/2, pi/2].

    At most one interior breakpoint (the restart point) is allowed; the
    outer endpoints are always +-pi/2.
    """

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        if not 1 <= len(self.pieces) <= 2:
            raise ValueError("one or two pieces supported")
        if abs(self.pieces[0].lo + HALF_PI) > 1e-12 or abs(self.pieces[-1].hi - HALF_PI) > 1e-12:
            raise ValueError("pieces must span [-pi/2, pi/2]")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if left.hi != right.lo:
                raise ValueError("pieces must be contiguous")
            if not -HALF_PI < left.hi < HALF_PI:
                raise ValueError("interior breakpoint must be strictly inside")

    @classmethod
    def single(cls, terms: Terms | Iterable[TrigTerm]) -> "PiecewiseTrig":
        return cls((Piece(-HALF_PI, HALF_PI, terms),))

    @classmethod
    def split(cls, xb: float, left_terms: Terms | Iterable[TrigTerm],
              right_terms: Terms | Iterable[TrigTerm]) -> "PiecewiseTrig":
        return cls((Piece(-HALF_PI, xb, left_terms), Piece(xb, HALF_PI, right_terms)))

    @classmethod
    def zero(cls) -> "PiecewiseTrig":
        return cls.single(())

    @property
    def breakpoint(self) -> float | None:
        return self.pieces[0].hi if len(self.pieces) == 2 else None

    def terms_on(self, lo: float, hi: float) -> Terms:
        """Terms valid on (lo, hi); the interval must lie within one piece."""
        mid = 0.5 * (lo + hi)
        for p in self.pieces:
            if p.lo - 1e-12 <= mid <= p.hi + 1e-12:
                return p.terms
        raise OutOfDomain(f"interval ({lo}, {hi}) outside the domain")

    def __call__(self, x, side: str = "mean"):
        """Evaluate at scalar or array x; `side` resolves the breakpoint.

        side: 'mean' (average of one-sided limits), 'left', or 'right'.
        """
        scalar = np.isscalar(x)
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if xs.size and (xs.min() < -HALF_PI - 1e-12 or xs.max() > HALF_PI + 1e-12):
            raise OutOfDomain("evaluation outside [-pi/2, pi/2]")
        out = np.zeros(xs.shape, dtype=complex)
        xb = self.breakpoint
        if xb is None:
            out = eval_terms(self.pieces[0].terms, xs)
        else:
            left = xs <= xb if side == "left" else xs < xb
            out[left] = eval_terms(self.pieces[0].terms, xs[left])
            right = ~left
            out[right] = eval_terms(self.pieces[1].terms, xs[right])
            if side == "mean":
                at_b = xs == xb
                if np.any(at_b):
                    lo_v = eval_terms(self.pieces[0].terms, xs[at_b])
                    hi_v = eval_terms(self.pieces[1].terms, xs[at_b])
                    out[at_b] = 0.5 * (lo_v + hi_v)
        return complex(out[0]) if scalar else out

    def one_sided(self, x: float, side: int) -> complex:
        """Limit from the left (side=-1) or right (side=+1) at x."""
        piece = self.pieces[0]
        for p in self.pieces:
            if (p.lo < x < p.hi) or (x == p.lo and side > 0) or (x == p.hi and side < 0):
                piece = p
                break
        else:
            raise OutOfDomain(f"{x} not interior to any piece on the requested side")
        return complex(eval_terms(piece.terms, np.array([x]))[0])

    def derivative(self, order: int = 1) -> "PiecewiseTrig":
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        pieces = self.pieces
        for _ in range(order):
            pieces = tuple(Piece(p.lo, p.hi, p.terms.derivative()) for p in pieces)
        return PiecewiseTrig(pieces)

    def scaled(self, c: complex) -> "PiecewiseTrig":
        return PiecewiseTrig(tuple(Piece(p.lo, p.hi, p.terms.scaled(c)) for p in self.pieces))

    def __add__(self, other: "PiecewiseTrig") -> "PiecewiseTrig":
        return lincomb((self, other), (1.0, 1.0))

    def __sub__(self, other: "PiecewiseTrig") -> "PiecewiseTrig":
        return lincomb((self, other), (1.0, -1.0))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """Pieces with terms {p, coeff [re, im], freq, shift, quarter}."""
        return json.dumps({
            "pieces": [{
                "lo": p.lo, "hi": p.hi,
                "terms": [{"p": t.p, "coeff": [t.coeff.real, t.coeff.imag],
                           "freq": t.freq, "shift": t.shift, "quarter": t.quarter}
                          for t in p.terms],
            } for p in self.pieces]})

    @classmethod
    def from_json(cls, text: str) -> "PiecewiseTrig":
        data = json.loads(text)
        return cls(tuple(
            Piece(p["lo"], p["hi"],
                  [TrigTerm(t["p"], complex(*t["coeff"]), t["freq"], t["shift"],
                            t["quarter"]) for t in p["terms"]])
            for p in data["pieces"]))


def lincomb(fns: Sequence[PiecewiseTrig], coefs: Sequence[complex]) -> PiecewiseTrig:
    """sum_j coefs[j] fns[j], merged once per piece.

    Equal terms are summed in the order of `fns`, so a remainder such as
    f - sum_j c_j psi_j keeps exact cancellations.
    """
    xbs = [fn.breakpoint for fn in fns if fn.breakpoint is not None]
    if any(abs(xb - xbs[0]) > 1e-12 for xb in xbs):
        raise ValueError("cannot add functions split at different points")

    def merged_on(lo: float, hi: float) -> Terms:
        return Terms.concat([fn.terms_on(lo, hi).scaled(c)
                             for fn, c in zip(fns, coefs)]).merged()

    if not xbs:
        return PiecewiseTrig.single(merged_on(-HALF_PI, HALF_PI))
    return PiecewiseTrig.split(xbs[0], merged_on(-HALF_PI, xbs[0]),
                               merged_on(xbs[0], HALF_PI))


# ---------------------------------------------------------------------------
# closed-form inner products
# ---------------------------------------------------------------------------

# Taylor coefficients in u^2 of (e0, o1 / u, e2) below, one row per power;
# 10 rows leave a remainder under 1/20! < 5e-19 for |u| < 1
_MOMENT_SERIES = np.array([
    [(-1) ** j / math.factorial(2 * j + 1),
     (-1) ** j / (math.factorial(2 * j + 1) * (2 * j + 3)),
     (-1) ** j / (math.factorial(2 * j) * (2 * j + 3))] for j in range(10)])
# cos and sin of r quarter turns, indexed by r mod 4
_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0])
_SIN_QUARTER = np.array([0.0, 1.0, 0.0, -1.0])
# difference and sum waves of cos A cos B = (cos(A - B) + cos(A + B))/2
_WAVE_SIGNS = np.array([-1, 1])[:, None, None]
_DEKKER_SPLIT = 2.0 ** 27 + 1


def _two_sum(a, b):
    """a + b as hi + lo, exactly (Knuth)."""
    hi = a + b
    b_virtual = hi - a
    return hi, (a - (hi - b_virtual)) + (b - b_virtual)


def _split(a):
    big = _DEKKER_SPLIT * a
    hi = big - (big - a)
    return hi, a - hi


def _midpoint_phase(t: Terms, m: float) -> tuple[np.ndarray, np.ndarray]:
    """k m + s as hi + lo, exactly up to the last rounding of lo (Dekker)."""
    prod = t.k * m
    (k_hi, k_lo), (m_hi, m_lo) = _split(t.k), _split(m)
    prod_lo = ((k_hi * m_hi - prod) + k_hi * m_lo + k_lo * m_hi) + k_lo * m_lo
    hi, sum_lo = _two_sum(prod, t.s)
    return hi, sum_lo + prod_lo


def _wave_integrals(p, w, phase, phase_lo, r, m: float, h: float) -> np.ndarray:
    """Integral over t in [-h, h] of (m + t)^p cos(w t + phi - r pi/2),
    elementwise, for p in {0, 1, 2} and phi = phase + phase_lo.

    It is cos(phi - r pi/2) A - sin(phi - r pi/2) B, where

        A = 2h (m^p e0 + [p = 2] h^2 e2),   B = 2h^2 (p m^(p-1)) o1,

    and 2h e0, 2h^2 o1, 2h^3 e2 are the integrals of cos(wt), t sin(wt) and
    t^2 cos(wt) over [-h, h].  These depend on u = w h alone:

        e0 = sin u / u,  o1 = (sin u - u cos u)/u^2,  e2 = (sin u - 2 o1)/u,

    which cancel like 1/u^2 as u -> 0; below _SERIES_BELOW their Taylor
    series is used instead.  Large shifts enter only through phi, whose
    low part corrects cos and sin to first order, and the quarter turns
    rotate them exactly.
    """
    u = w * h
    sin_u, cos_u = np.sin(u), np.cos(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        e0 = sin_u / u
        o1 = (sin_u - u * cos_u) / (u * u)
        e2 = (sin_u - 2 * o1) / u
    small = np.abs(u) < _SERIES_BELOW
    if small.any():
        us = u[small]
        z = (us * us)[:, None]
        series = _MOMENT_SERIES[-1]
        for row in _MOMENT_SERIES[-2::-1]:
            series = series * z + row
        e0[small], o1[small], e2[small] = series[:, 0], us * series[:, 1], series[:, 2]
    a_part = 2 * h * (np.array([1.0, m, m * m])[p] * e0 + (p == 2) * (h * h) * e2)
    b_part = 2 * h * h * np.array([0.0, 1.0, 2 * m])[p] * o1
    cos_ph, sin_ph = np.cos(phase), np.sin(phase)
    cos_ph, sin_ph = cos_ph - sin_ph * phase_lo, sin_ph + cos_ph * phase_lo
    cos_r, sin_r = _COS_QUARTER[r % 4], _SIN_QUARTER[r % 4]
    return ((cos_ph * cos_r + sin_ph * sin_r) * a_part
            - (sin_ph * cos_r - cos_ph * sin_r) * b_part)


def _pair_integrals(f: Terms, g: Terms, lo: float, hi: float) -> np.ndarray:
    """(len(f), len(g)) integrals over [lo, hi] of conj(f_i) g_j.

    About the midpoint m, x = m + t, term j is c_j (m + t)^p_j
    cos(k_j t + theta_j - q_j pi/2) with theta_j = k_j m + s_j; the product
    of two terms is half the sum of two waves (difference and sum, stacked
    on a leading axis) with w = k_i -+ k_j and phase theta_i -+ theta_j.
    """
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    (th_f, th_f_lo), (th_g, th_g_lo) = _midpoint_phase(f, m), _midpoint_phase(g, m)
    phase, phase_lo = _two_sum(th_f[:, None], _WAVE_SIGNS * th_g)
    phase_lo = phase_lo + (th_f_lo[:, None] + _WAVE_SIGNS * th_g_lo)
    both = _wave_integrals(f.p[:, None] + g.p, f.k[:, None] + _WAVE_SIGNS * g.k,
                           phase, phase_lo, f.q[:, None] + _WAVE_SIGNS * g.q, m, h)
    return 0.5 * np.conj(f.c)[:, None] * g.c * (both[0] + both[1])


def _pair_blocks(f: Terms, g: Terms, lo: float, hi: float):
    """Yield (rows, integrals) for row blocks of at most _PAIR_BLOCK pairs
    (at least one row)."""
    step = max(1, _PAIR_BLOCK // max(len(g), 1))
    for r in range(0, len(f), step):
        rows = slice(r, r + step)
        yield rows, _pair_integrals(f[rows], g, lo, hi)


def _segments(fns: Iterable[PiecewiseTrig]) -> list[tuple[float, float]]:
    """Intervals between consecutive breakpoints of all fns."""
    cuts = {-HALF_PI, HALF_PI}
    cuts.update(fn.breakpoint for fn in fns if fn.breakpoint is not None)
    edges = sorted(cuts)
    return list(zip(edges, edges[1:]))


def inner_closed(f: PiecewiseTrig, g: PiecewiseTrig) -> complex:
    """Closed-form L2 inner product (conjugate-linear in f)."""
    total = 0j
    for lo, hi in _segments((f, g)):
        for _, vals in _pair_blocks(f.terms_on(lo, hi), g.terms_on(lo, hi), lo, hi):
            total += vals.sum()
    return complex(total)


def _stack(fns: Sequence[PiecewiseTrig], lo: float, hi: float) -> tuple[Terms, np.ndarray]:
    """All fns' terms on (lo, hi) in one Terms, with the index of each owner."""
    parts = [fn.terms_on(lo, hi) for fn in fns]
    owners = np.repeat(np.arange(len(fns)), [len(t) for t in parts])
    return Terms.concat(parts), owners


def _group_starts(owners: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.concatenate(([True], owners[1:] != owners[:-1])))


def inner_matrix(fs: Sequence[PiecewiseTrig], gs: Sequence[PiecewiseTrig]) -> np.ndarray:
    """Matrix of (f_j, g_k): every term pair of the two families goes
    through the inner_closed kernel, block by block."""
    out = np.zeros((len(fs), len(gs)), dtype=complex)
    for lo, hi in _segments([*fs, *gs]):
        tf, own_f = _stack(fs, lo, hi)
        tg, own_g = _stack(gs, lo, hi)
        if not len(tf) or not len(tg):
            continue
        g_starts = _group_starts(own_g)
        for rows, vals in _pair_blocks(tf, tg, lo, hi):
            own = own_f[rows]
            f_starts = _group_starts(own)
            block = np.add.reduceat(np.add.reduceat(vals, g_starts, axis=1),
                                    f_starts, axis=0)
            out[np.ix_(own[f_starts], own_g[g_starts])] += block
    return out


def norm_l2(f: PiecewiseTrig) -> float:
    return math.sqrt(max(inner_closed(f, f).real, 0.0))


# ---------------------------------------------------------------------------
# grids and quadrature
# ---------------------------------------------------------------------------

_LOBATTO_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_lobatto(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto nodes/weights on [-1, 1] (endpoints included)."""
    if n < 2:
        raise ValueError("need at least 2 Lobatto points")
    if n not in _LOBATTO_CACHE:
        leg = np.polynomial.legendre.Legendre.basis(n - 1)
        interior = leg.deriv().roots()
        nodes = np.concatenate(([-1.0], np.sort(interior.real), [1.0]))
        pvals = leg(nodes)
        weights = 2.0 / (n * (n - 1) * pvals ** 2)
        _LOBATTO_CACHE[n] = (nodes, weights)
    return _LOBATTO_CACHE[n]


@dataclass
class GridFn:
    """Function samples on a quadrature grid split at the restart point."""

    nodes: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    a_value: float

    def integrate(self) -> complex:
        return complex(np.sum(self.weights * self.values))

    def inner(self, other: "GridFn") -> complex:
        if self.nodes.shape != other.nodes.shape or not np.allclose(
                self.nodes, other.nodes, rtol=0, atol=1e-13):
            raise ValueError("grid functions live on different node sets")
        return complex(np.sum(self.weights * np.conj(self.values) * other.values))

    def norm(self) -> float:
        return math.sqrt(max(self.inner(self).real, 0.0))

    def csv_rows(self) -> list[tuple[float, float, float]]:
        return [(float(x), float(v.real), float(v.imag))
                for x, v in zip(self.nodes, self.values)]


def grid_nodes(a: ParamA | float, min_nodes_per_piece: int = 64,
               kmax: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Composite Lobatto nodes/weights on the two pieces cut at pi*a/2;
    panels sharing an endpoint share the node and add their weights."""
    a_val = a.value if isinstance(a, ParamA) else float(a)
    xb = HALF_PI * a_val
    nodes: list[float] = []
    weights: list[float] = []
    for lo, hi in ((-HALF_PI, xb), (xb, HALF_PI)):
        panels = max(2, int(math.ceil((hi - lo) * max(kmax, 1.0) / 8.0)))
        base_x, base_w = gauss_lobatto(max(24, int(math.ceil(min_nodes_per_piece / panels)) + 1))
        edges = np.linspace(lo, hi, panels + 1)
        for a_, b_ in zip(edges, edges[1:]):
            half = 0.5 * (b_ - a_)
            xs, ws = 0.5 * (a_ + b_) + half * base_x, half * base_w
            if nodes and abs(xs[0] - nodes[-1]) < 1e-14:
                weights[-1] += ws[0]
                xs, ws = xs[1:], ws[1:]
            nodes.extend(xs)
            weights.extend(ws)
    return np.array(nodes), np.array(weights)


def sample(fn: PiecewiseTrig | Callable[[np.ndarray], np.ndarray],
           a: ParamA | float, min_nodes_per_piece: int = 64,
           kmax: float = 0.0) -> GridFn:
    nodes, weights = grid_nodes(a, min_nodes_per_piece, kmax)
    if isinstance(fn, PiecewiseTrig):
        values = fn(nodes)
    else:
        values = np.asarray(fn(nodes), dtype=complex)
    a_val = a.value if isinstance(a, ParamA) else float(a)
    return GridFn(nodes=nodes, values=np.asarray(values, dtype=complex),
                  weights=weights, a_value=a_val)


def _max_freq(f: PiecewiseTrig) -> float:
    return max((float(p.terms.k.max()) for p in f.pieces if len(p.terms)), default=0.0)


def quad_inner(f: PiecewiseTrig | Callable, g: PiecewiseTrig | Callable,
               a: ParamA | float, target: float = 1e-12,
               start_nodes: int = 96, max_rounds: int = 6) -> complex:
    """Quadrature inner product with panel-doubling refinement.

    Independent numerical route used to cross-check inner_closed and the
    printed pairing formulas.
    """
    kmax = max(_max_freq(f) if isinstance(f, PiecewiseTrig) else 0.0,
               _max_freq(g) if isinstance(g, PiecewiseTrig) else 0.0)
    n = start_nodes
    prev = None
    for _ in range(max_rounds):
        gf = sample(f, a, n, kmax)
        gg = sample(g, a, n, kmax)
        cur = gf.inner(gg)
        if prev is not None and abs(cur - prev) <= target * max(1.0, abs(cur)):
            return cur
        prev = cur
        n *= 2
    raise QuadratureNotConverged(
        f"inner product did not stabilize to {target} within {max_rounds} refinements")


def inner(f: PiecewiseTrig | GridFn, g: PiecewiseTrig | GridFn) -> complex:
    """L2 inner product; closed form for symbolic pairs, weights otherwise."""
    if isinstance(f, PiecewiseTrig) and isinstance(g, PiecewiseTrig):
        return inner_closed(f, g)
    if isinstance(f, GridFn) and isinstance(g, GridFn):
        return f.inner(g)
    if isinstance(f, GridFn):
        gv = GridFn(f.nodes, np.asarray(g(f.nodes), dtype=complex), f.weights, f.a_value)
        return f.inner(gv)
    fv = GridFn(g.nodes, np.asarray(f(g.nodes), dtype=complex), g.weights, g.a_value)
    return fv.inner(g)


# ---------------------------------------------------------------------------
# domain membership
# ---------------------------------------------------------------------------

@dataclass
class DomainReport:
    in_domain: bool
    violations: list[str]
    max_violation: float


def _domain_report(f: PiecewiseTrig, tol: float,
                   deviations: dict[str, float]) -> DomainReport:
    """Deviations above tol times the sup of |f| (at least 1) are violations."""
    scale = max(1.0, float(np.max(np.abs(f(np.linspace(-HALF_PI, HALF_PI, 257))))))
    viol = [f"{label}: deviation {dev:.3e}" for label, dev in deviations.items()
            if dev > tol * scale]
    return DomainReport(not viol, viol, max(deviations.values()))


def validate_domain_H(f: PiecewiseTrig, a: ParamA | float,
                      tol: float = 1e-10) -> DomainReport:
    """Membership in the operator domain: globally C1 across the restart
    point (two-piece H2 smoothness) plus the three-point condition
    f(-pi/2) = f(pi*a/2) = f(pi/2)."""
    xb = HALF_PI * (a.value if isinstance(a, ParamA) else float(a))
    v_left, v_right = f.one_sided(xb, -1), f.one_sided(xb, +1)
    v_b = 0.5 * (v_left + v_right)
    df = f.derivative(1)
    return _domain_report(f, tol, {
        "value continuity at restart point": abs(v_left - v_right),
        "derivative continuity at restart point":
            abs(df.one_sided(xb, -1) - df.one_sided(xb, +1)),
        "boundary condition f(-pi/2) = f(pi*a/2)": abs(f.one_sided(-HALF_PI, +1) - v_b),
        "boundary condition f(pi/2) = f(pi*a/2)": abs(f.one_sided(HALF_PI, -1) - v_b),
    })


def validate_domain_Hstar(f: PiecewiseTrig, a: ParamA | float,
                          tol: float = 1e-10) -> DomainReport:
    """Membership in the adjoint domain: Dirichlet ends, value continuity
    at the restart point, and the matched derivative-jump identity
    f'(pi/2) - f'(-pi/2) = f'(pi*a/2+) - f'(pi*a/2-)."""
    xb = HALF_PI * (a.value if isinstance(a, ParamA) else float(a))
    df = f.derivative(1)
    jump_out = df.one_sided(HALF_PI, -1) - df.one_sided(-HALF_PI, +1)
    jump_in = df.one_sided(xb, +1) - df.one_sided(xb, -1)
    return _domain_report(f, tol, {
        "Dirichlet value at -pi/2": abs(f.one_sided(-HALF_PI, +1)),
        "Dirichlet value at +pi/2": abs(f.one_sided(HALF_PI, -1)),
        "value continuity at restart point":
            abs(f.one_sided(xb, -1) - f.one_sided(xb, +1)),
        "derivative-jump identity": abs(jump_out - jump_in),
    })
