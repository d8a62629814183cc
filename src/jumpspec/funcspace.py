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

  * exact differentiation, one array expression, and evaluation with
    each phase k x + s carried as hi + lo (`_basis`, the one basis of
    `Stack.values` and `eval_exact`), right to a few eps however large k x,
  * inner products in closed form: by cos A cos B = (cos(A-B) + cos(A+B))/2
    a product of two terms is two waves x^p cos(wx+d), p <= 2, and one
    kernel integrates every term pair of two arrays from sines and cosines
    taken once per term (a Taylor series where the closed form would
    cancel, so near-resonant w stays at machine precision),
  * machine-precision verification targets that quadrature then has to
    reproduce, instead of quadrature error polluting both sides.

A family of such functions is kept as one `Stack` (each piece's rows of all
members, with their owners) to be sliced, joined, summed, differentiated,
sampled and integrated as a whole; its merge sums equal keys per owner,
so a difference of two families cancels key by key, and `norms` pairs
rows rewritten about the piece midpoints, where such waves cancel in
amplitude.  Every piece of a Stack is one `Piece` record (lo, hi, terms,
owners).  A PiecewiseTrig is one function: a Stack of count 1, built from
its terms (`single`, `split`), whose sum, difference, multiple and
derivative are PiecewiseTrigs again.  So a family is the `Stack.join` of
its functions, `inner_matrix`, `inner_pairs` and `norms` take Stacks and
convert nothing, and `inner_closed` is inner_matrix's 1x1 entry of two
functions.

Composite Gauss-Lobatto grids (`grid_nodes`) give the resolvent its output
nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from jumpspec.param import ParamA

HALF_PI = math.pi / 2

# |w| * half-length below this: Taylor series of the wave moments
_SERIES_BELOW = 1.0
# term pairs per kernel evaluation; bounds the temporaries of batched calls
_PAIR_BLOCK = 1 << 12
# basis entries (points x rows) per block of Stack.values; bounds its temporaries
_BASIS_BLOCK = 1 << 18


class OutOfDomain(ValueError):
    """Evaluation point outside [-pi/2, pi/2]."""


class Terms:
    """A term sum as arrays: sum_i c_i x^p_i cos(k_i x + s_i - q_i pi/2).

    `merged` is the canonical form: keys (p, q, k, s) unique and sorted,
    q folded into {0, 1} (two quarter turns are a sign), no zero
    coefficients.
    """

    __slots__ = ("p", "c", "k", "s", "q")

    def __init__(self, p, c, k, s, q):
        self.p, self.c, self.k, self.s, self.q = p, c, k, s, q

    @classmethod
    def concat(cls, parts: Sequence["Terms"]) -> "Terms":
        """Unmerged concatenation, in order."""
        if not parts:
            return cls(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex),
                       np.zeros(0), np.zeros(0), np.zeros(0, dtype=np.int64))
        return cls(*(np.concatenate([getattr(t, f) for t in parts])
                     for f in cls.__slots__))

    def merged(self) -> "Terms":
        """Sum equal keys in order of appearance; drop zero coefficients."""
        return _merge_rows(self)[0]

    def key_runs(self, owners: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(order, starts): the rows stably sorted by key (p, q, k, s), or by
        (owner, p, q, k, s) when owners are given, and where each run of
        equal keys starts in that order."""
        cols = [self.s, self.k, self.q, self.p] + ([] if owners is None else [owners])
        order = np.lexsort(cols)
        new = np.zeros(len(order), dtype=bool)
        new[:1] = True
        for col in cols:
            sorted_col = col[order]
            new[1:] |= sorted_col[1:] != sorted_col[:-1]
        return order, np.flatnonzero(new)

    def __len__(self) -> int:
        return len(self.c)

    def __getitem__(self, rows) -> "Terms":
        return Terms(self.p[rows], self.c[rows], self.k[rows], self.s[rows], self.q[rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Terms):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f))
                   for f in self.__slots__)

    def scaled(self, z: complex) -> "Terms":
        return Terms(self.p, z * self.c, self.k, self.s, self.q)

    def derivative(self) -> "Terms":
        """Rows of the derivative, not merged: the power rows, then the wave
        rows, by (c x^p cos(kx+t))' = p c x^(p-1) cos(kx+t) + k c x^p cos(kx+t+pi/2)."""
        power = Terms(np.maximum(self.p - 1, 0), self.p * self.c, self.k, self.s, self.q)
        wave = Terms(self.p, self.k * self.c, self.k, self.s, self.q - 1)
        return Terms.concat((power, wave))


def _merge_rows(terms: Terms, owners: np.ndarray | None = None) -> tuple[Terms, np.ndarray | None]:
    """Terms.merged per owner: q folded mod 4 (two quarter turns are a
    sign), equal (owner, p, q, k, s) rows summed in order of appearance,
    zero coefficients dropped; the rows come out sorted by owner, then key."""
    q = terms.q % 4  # cos(t - pi) = -cos t
    folded = Terms(terms.p, np.where(q >= 2, -terms.c, terms.c), terms.k, terms.s, q % 2)
    if not len(folded):
        return folded, owners
    order, starts = folded.key_runs(owners)
    c = np.add.reduceat(folded.c[order], starts)
    keep = c != 0
    first = order[starts[keep]]
    merged = Terms(folded.p[first], c[keep], folded.k[first], folded.s[first], folded.q[first])
    return merged, None if owners is None else owners[first]


def _term(p: int, c: complex, k: float, s: float, q: int) -> Terms:
    """The one-row Terms c x^p cos(kx + s - q pi/2)."""
    if k < 0:
        raise ValueError("term frequency must be >= 0")
    return Terms(np.array([p], dtype=np.int64), np.array([c], dtype=complex),
                 np.array([k], dtype=float), np.array([s], dtype=float),
                 np.array([q], dtype=np.int64))


def const(c: complex) -> Terms:
    return _term(0, c, 0.0, 0.0, 0)


def cos_term(c: complex, k: float, s: float = 0.0) -> Terms:
    return _term(0, c, k, s, 0)


def sin_term(c: complex, k: float, s: float = 0.0) -> Terms:
    return _term(0, c, k, s, 1)


class Piece(NamedTuple):
    """One piece of a Stack: its rows valid on [lo, hi], ordered by owner,
    and each row's owner (the member it belongs to)."""

    lo: float
    hi: float
    terms: Terms
    owners: np.ndarray

    @classmethod
    def one(cls, lo: float, hi: float, terms: Terms | Sequence[Terms]) -> "Piece":
        """A piece of one function, every row owned by 0: a Terms kept as it
        is, or a sequence of them concatenated and merged."""
        if not isinstance(terms, Terms):
            terms = Terms.concat(terms).merged()
        return cls(lo, hi, terms, np.zeros(len(terms), dtype=np.int64))

    def __eq__(self, other) -> bool:
        """Equal edges, rows and owners (tuple equality would take the
        truth value of an owners array)."""
        return (isinstance(other, Piece) and self[:3] == other[:3]
                and np.array_equal(self.owners, other.owners))

    def __ne__(self, other) -> bool:
        return not self == other


# ---------------------------------------------------------------------------
# closed-form inner products
# ---------------------------------------------------------------------------

# Taylor coefficients in u^2 of (e0, o1 / u, e2) below, one row per power;
# 10 rows leave a remainder under 1/20! < 5e-19 for |u| < 1
_MOMENT_SERIES = np.array([
    [(-1) ** j / math.factorial(2 * j + 1),
     (-1) ** j / (math.factorial(2 * j + 1) * (2 * j + 3)),
     (-1) ** j / (math.factorial(2 * j) * (2 * j + 3))] for j in range(10)])
# exp(-i r pi/2), indexed by r mod 4
_QUARTER_TURNS = np.array([1, -1j, -1, 1j])
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


def _two_prod(a, b):
    """a b as hi + lo, exactly up to the last rounding of lo (Dekker)."""
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), _split(b)
    return a * b, ((a_hi * b_hi - a * b) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _midpoint_phase(t: Terms, m) -> tuple[np.ndarray, np.ndarray]:
    """k m + s as hi + lo, exactly up to the last rounding of lo (Dekker);
    m is a float or an array that broadcasts against the rows."""
    prod, prod_lo = _two_prod(t.k, m)
    hi, sum_lo = _two_sum(prod, t.s)
    return hi, sum_lo + prod_lo


def _basis(t: Terms, x: np.ndarray) -> np.ndarray:
    """x^p cos(kx + s - q pi/2) of every row at every point, (len(x), len(t)),
    the phase k x + s as hi + lo (_midpoint_phase), the quarter turns exact:
    right to a few eps however large k |x| (a rounded phase loses k |x| eps)."""
    x = x[:, None]
    hi, lo = _midpoint_phase(t, x)
    cos_h, sin_h, turn = np.cos(hi), np.sin(hi), _QUARTER_TURNS[t.q % 4]
    basis = (cos_h - sin_h * lo) * turn.real - (sin_h + cos_h * lo) * turn.imag
    return np.multiply(basis, x, out=basis, where=t.p == 1)


def eval_exact(t: Terms, x: np.ndarray) -> np.ndarray:
    """The term sum at the points x: Stack.values of the one function with
    the rows t, so it sums them as a Stack does, to the bit."""
    return Stack((Piece.one(-HALF_PI, HALF_PI, t),), 1).values(x)[0]


def _row_factors(t: Terms, m: float, h: float) -> tuple[np.ndarray, ...]:
    """The pair kernel's view of each row on [m - h, m + h]: c, k, exp(i
    theta') and exp(i k h) (theta' = k m + s - q pi/2; each angle's low
    part taken to first order, the quarter turns exactly), m^p and p."""
    (theta, theta_lo), (kh, kh_lo) = _midpoint_phase(t, m), _two_prod(t.k, h)
    phase = (np.cos(theta) + 1j * np.sin(theta)) * (1 + 1j * theta_lo) * _QUARTER_TURNS[t.q % 4]
    rot = (np.cos(kh) + 1j * np.sin(kh)) * (1 + 1j * kh_lo)
    return t.c, t.k, phase, rot, np.where(t.p == 1, m, 1.0), t.p


def _pair_kernel(f, g, h: float) -> np.ndarray:
    """Integrals over [m - h, m + h] of conj(f) g, elementwise over the
    broadcast of two sets of _row_factors (f's with a new last axis
    against g's give every pair).

    With x = m + t, row j is c_j (m + t)^p_j cos(k_j t + theta'_j); a
    product of two rows is half the sum of the waves (m + t)^P cos(w t +
    phi), P = p_f + p_g, w = k_f -+ k_g, phi = theta'_f -+ theta'_g, and
    a wave integrates to cos(phi) A - sin(phi) B, with u = w h,

        A = 2h (m^P e0 + [P = 2] h^2 e2),   B = 2h^2 (P m^(P-1)) o1,
        e0 = sin u / u,  o1 = (e0 - cos u)/u,  e2 = (sin u - 2 o1)/u

    (2h e0, 2h^2 o1, 2h^3 e2 integrate cos(wt), t sin(wt), t^2 cos(wt)
    over [-h, h]); below |u| = _SERIES_BELOW, where these cancel like
    1/u^2, their Taylor series in u = (k_f -+ k_g) h replaces them.  No
    pair takes a transcendental: by the addition theorems, exp(i(a -+ b))
    = exp(i a) exp(-+i b), cos and sin of phi and u are products of the
    rows' exp(i theta') and exp(i k h).  Both angles carry a Dekker low
    part (_midpoint_phase, _two_prod); without k h's, u near the series
    boundary would lose eps k h.
    """
    c_f, k_f, phase_f, rot_f, pow_f, p_f = f
    c_g, k_g, phase_g, rot_g, pow_g, p_g = g
    # A and B over 2h from m^P = m^p_f m^p_g, h^2 [P = 2] = h^2 p_f p_g
    # and h P m^(P-1) = h (p_f m^p_g + m^p_f p_g)
    power, square = pow_f * pow_g, (h * h * p_f) * p_g
    slope = (h * p_f) * pow_g + (h * pow_f) * p_g
    total = 0.0
    for w, phase, rot in ((k_f - k_g, phase_f * np.conj(phase_g), rot_f * np.conj(rot_g)),
                          (k_f + k_g, phase_f * phase_g, rot_f * rot_g)):
        u, sin_u = w * h, rot.imag
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1 / u
            e0 = sin_u * inv
            o1 = (e0 - rot.real) * inv
            e2 = (sin_u - 2 * o1) * inv
        small = np.abs(u) < _SERIES_BELOW
        if small.any():
            us = u[small]
            series = (us * us)[:, None] ** np.arange(len(_MOMENT_SERIES)) @ _MOMENT_SERIES
            e0[small], o1[small], e2[small] = series[:, 0], us * series[:, 1], series[:, 2]
        total = total + phase.real * (power * e0 + square * e2) - phase.imag * (slope * o1)
    return (h * np.conj(c_f)) * c_g * total


def _pair_blocks(f: Terms, g: Terms, lo: float, hi: float):
    """Yield (rows, integrals over [lo, hi] of conj(f[rows, None]) g) for
    row blocks of at most _PAIR_BLOCK pairs, at least one row each."""
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    f_rows, g_rows = _row_factors(f, m, h), _row_factors(g, m, h)
    step = max(1, _PAIR_BLOCK // max(len(g), 1))
    for r in range(0, len(f), step):
        rows = slice(r, r + step)
        yield rows, _pair_kernel([x[rows, None] for x in f_rows], g_rows, h)


def inner_closed(f: PiecewiseTrig, g: PiecewiseTrig) -> complex:
    """Closed-form L2 inner product (conjugate-linear in f): inner_matrix's 1x1 entry."""
    return complex(inner_matrix(f, g)[0, 0])


def _edges(stacks: Iterable["Stack"]) -> list[float]:
    """The stacks' common partition, sorted: every piece edge and +-pi/2 even with no stacks."""
    return sorted({-HALF_PI, HALF_PI}.union(
        x for stack in stacks for lo, hi, *_ in stack.pieces for x in (lo, hi)))


@dataclass(frozen=True)
class Stack:
    """`count` functions as arrays: one Piece per interval (lo, hi) of a
    shared partition of [-pi/2, pi/2], holding all their rows there,
    ordered by owner j, and each row's owner; a family kept so is sliced
    and integrated whole."""

    pieces: tuple[Piece, ...]
    count: int

    def on(self, lo: float, hi: float) -> tuple[Terms, np.ndarray]:
        """Rows and owners valid on (lo, hi), which must lie within one piece."""
        for p_lo, p_hi, terms, owners in self.pieces:
            if p_lo - 1e-12 <= 0.5 * (lo + hi) <= p_hi + 1e-12:
                return terms, owners
        raise OutOfDomain(f"interval ({lo}, {hi}) outside the domain")

    def take(self, start: int, stop: int) -> "Stack":
        """Functions start, ..., stop - 1."""
        cuts = (np.searchsorted(owners, [start, stop]) for *_, owners in self.pieces)
        return Stack(tuple(Piece(lo, hi, t[i:j], o[i:j] - start)
                           for (lo, hi, t, o), (i, j) in zip(self.pieces, cuts)), stop - start)

    def fn(self, j: int) -> PiecewiseTrig:
        """Function j: its rows, taken as they are."""
        return PiecewiseTrig(self.take(j, j + 1).pieces)

    @classmethod
    def join(cls, stacks: Sequence["Stack"]) -> "Stack":
        """The functions of all stacks, in order, on their common partition."""
        offsets = np.cumsum([0] + [s.count for s in stacks])
        return cls._rows_of(stacks, offsets[:-1], int(offsets[-1]))

    @classmethod
    def total(cls, stacks: Sequence["Stack"]) -> "Stack":
        """Member-wise sum of stacks of equal count: per owner, the rows of
        all stacks in order, merged once."""
        return cls._rows_of(stacks, [0] * len(stacks), stacks[0].count).merged()

    @classmethod
    def _rows_of(cls, stacks: Sequence["Stack"], offsets, count: int) -> "Stack":
        """Per segment of the common partition, the rows of all stacks in
        order, each stack's owners shifted by its offset (not re-sorted)."""
        edges = _edges(stacks)
        pieces = []
        for lo, hi in zip(edges, edges[1:]):
            parts = [s.on(lo, hi) for s in stacks]
            pieces.append(Piece(lo, hi, Terms.concat([t for t, _ in parts]), np.concatenate(
                [np.zeros(0, dtype=np.int64)] + [o + off for (_, o), off in zip(parts, offsets)])))
        return cls(tuple(pieces), count)

    def merged(self) -> "Stack":
        """Each function's rows merged as Terms.merged merges them, so equal
        keys of one owner sum in order of appearance (a difference cancels
        key by key) and no key is summed across owners."""
        return Stack(tuple(Piece(lo, hi, *_merge_rows(t, o)) for lo, hi, t, o in self.pieces),
                     self.count)

    def scaled(self, z) -> "Stack":
        """Function j times z, or times z[j] for an array of count factors."""
        z = np.asarray(z)
        return Stack(tuple(Piece(lo, hi, t.scaled(z[o] if z.ndim else z), o)
                           for lo, hi, t, o in self.pieces), self.count)

    def derivative(self, order: int = 1) -> "Stack":
        """Each function's derivative of order 1 or 2, merged per owner."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        out = self
        for _ in range(order):
            out = Stack(tuple(Piece(lo, hi, t.derivative(), np.concatenate((o, o)))
                              for lo, hi, t, o in out.pieces), self.count).merged()
        return out

    def values(self, xs: np.ndarray) -> np.ndarray:
        """(count, len(xs)) values at the points xs, by _basis in blocks of
        points; at an interior edge, the mean of the two one-sided values."""
        xs = np.asarray(xs, dtype=float)
        if not np.all(np.abs(xs) <= HALF_PI + 1e-12):  # NaN fails it too
            raise OutOfDomain("evaluation outside [-pi/2, pi/2]")
        piece, on_cut = np.zeros(len(xs), dtype=int), np.zeros(len(xs), dtype=bool)
        for lo, *_ in self.pieces[1:]:  # a point on a cut goes right
            piece += xs >= lo
            on_cut |= xs == lo
        out = np.zeros((self.count, len(xs)), dtype=complex)
        for i, (_, _, terms, owners) in enumerate(self.pieces):
            # the piece's points and, at half weight, the cut that closes it
            at = np.flatnonzero((piece == i) | (on_cut & (piece == i + 1)))
            if not len(at) or not len(terms):
                continue
            # each owner's run of rows summed (rows are ordered by owner): time
            # grows with points x rows, whatever the count, memory with _BASIS_BLOCK
            starts, step = _group_starts(owners), max(1, _BASIS_BLOCK // len(terms))
            for block in (at[r:r + step] for r in range(0, len(at), step)):
                vals = np.add.reduceat(_basis(terms, xs[block]) * terms.c, starts, axis=1)
                vals[on_cut[block]] *= 0.5
                out[np.ix_(owners[starts], block)] += vals.T
        return out


@dataclass(frozen=True)
class PiecewiseTrig(Stack):
    """One function: a Stack of count 1 on one or two pieces spanning
    [-pi/2, pi/2], cut at most once, inside (the restart point)."""

    count: int = 1

    def __post_init__(self):
        if self.count != 1:
            raise ValueError("a PiecewiseTrig is one function")
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
    def single(cls, terms: Terms | Sequence[Terms]) -> "PiecewiseTrig":
        return cls((Piece.one(-HALF_PI, HALF_PI, terms),))

    @classmethod
    def split(cls, xb: float, left_terms: Terms | Sequence[Terms],
              right_terms: Terms | Sequence[Terms]) -> "PiecewiseTrig":
        return cls((Piece.one(-HALF_PI, xb, left_terms), Piece.one(xb, HALF_PI, right_terms)))

    @property
    def breakpoint(self) -> float | None:
        return self.pieces[0].hi if len(self.pieces) == 2 else None

    def __call__(self, x):
        """Evaluate at scalar or array x (Stack.values); at the breakpoint,
        the mean of the two one-sided limits."""
        xs = np.asarray(x, dtype=float)
        out = self.values(xs.ravel())[0].reshape(xs.shape)
        return complex(out) if np.isscalar(x) else out

    def derivative(self, order: int = 1) -> "PiecewiseTrig":
        return PiecewiseTrig(super().derivative(order).pieces)

    def scaled(self, c: complex) -> "PiecewiseTrig":
        return PiecewiseTrig(super().scaled(c).pieces)

    def __add__(self, other: "PiecewiseTrig") -> "PiecewiseTrig":
        """The sum, merged once per piece: equal terms sum in the order self,
        other, so a remainder such as f - c psi keeps exact cancellations."""
        return PiecewiseTrig(Stack.total((self, other)).pieces)

    def __sub__(self, other: "PiecewiseTrig") -> "PiecewiseTrig":
        return self + other.scaled(-1.0)


def _group_starts(owners: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.concatenate(([True], owners[1:] != owners[:-1])))


def inner_matrix(fs: Stack, gs: Stack) -> np.ndarray:
    """Matrix of (f_j, g_k): every term pair of the two families goes
    through the pair kernel, block by block, on their rows as they are."""
    out = np.zeros((fs.count, gs.count), dtype=complex)
    edges = _edges((fs, gs))
    for lo, hi in zip(edges, edges[1:]):
        (tf, own_f), (tg, own_g) = fs.on(lo, hi), gs.on(lo, hi)
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


def inner_pairs(fs: Stack, gs: Stack) -> np.ndarray:
    """(f_j, g_j) for every j of two Stacks of equal count: per segment of
    their common partition only the row pairs that share an owner go
    through the pair kernel, sum_j r_j s_j of them (r_j, s_j member j's
    rows there), _PAIR_BLOCK at a time, and sum by owner; so the work is
    linear in the count, with no count x count matrix and no grid."""
    if fs.count != gs.count:
        raise ValueError(f"inner_pairs needs equal counts, got {fs.count} and {gs.count}")
    out = np.zeros(fs.count, dtype=complex)
    edges = _edges((fs, gs))
    for lo, hi in zip(edges, edges[1:]):
        (tf, own_f), (tg, own_g) = fs.on(lo, hi), gs.on(lo, hi)
        # rows are ordered by owner, so owner j's g rows start at g_start[j]
        g_rows = np.bincount(own_g, minlength=gs.count)
        g_start = np.cumsum(g_rows) - g_rows
        reps = g_rows[own_f]  # each f row meets its owner's g rows
        f_idx = np.repeat(np.arange(len(tf)), reps)
        within = np.arange(len(f_idx)) - np.repeat(np.cumsum(reps) - reps, reps)
        g_idx = g_start[own_f[f_idx]] + within
        m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
        f_fac, g_fac = _row_factors(tf, m, h), _row_factors(tg, m, h)
        for r in range(0, len(f_idx), _PAIR_BLOCK):
            fi, gi = f_idx[r:r + _PAIR_BLOCK], g_idx[r:r + _PAIR_BLOCK]
            vals = _pair_kernel([x[fi] for x in f_fac], [x[gi] for x in g_fac], h)
            owner = own_f[fi]
            out += (np.bincount(owner, vals.real, fs.count)
                    + 1j * np.bincount(owner, vals.imag, fs.count))
    return out


def _about_midpoints(stack: Stack) -> Stack:
    """Each piece's rows rewritten as x^p cos(k(x - m)) and x^p sin(k(x - m))
    about its midpoint m (the phase from _row_factors, Dekker low part
    included) and merged per owner: waves that cancel as functions cancel in
    their amplitudes, not in O(1) integrals."""
    pieces = []
    for lo, hi, terms, owners in stack.pieces:
        m = 0.5 * (lo + hi)
        c, k, phase, *_ = _row_factors(terms, m, 0.5 * (hi - lo))
        shift, zero = -k * m, np.zeros(len(terms), dtype=np.int64)
        waves = Terms.concat((Terms(terms.p, c * phase.real, k, shift, zero),
                              Terms(terms.p, -c * phase.imag, k, shift, zero + 1)))
        pieces.append(Piece(lo, hi, *_merge_rows(waves, np.concatenate((owners, owners)))))
    return Stack(tuple(pieces), stack.count)


def norms(stack: Stack) -> np.ndarray:
    """L2 norms of a Stack's functions from their rows about each piece's
    midpoint (_about_midpoints).  The squares come from whichever route
    integrates fewer term pairs: each member's own rows by inner_pairs
    (sum_j r_j^2 pairs a piece, r_j member j's rows there), or one Gram I of
    the piece's K keys (p, q, k, s), K^2 pairs, and ||f||^2 = c_f^H I c_f for
    f's coefficients c_f there.  The Gram wins when members share keys."""
    stack = _about_midpoints(stack)
    runs = [terms.key_runs() for _, _, terms, _ in stack.pieces]
    if (sum(np.sum(np.bincount(owners) ** 2) for *_, owners in stack.pieces)
            <= sum(len(starts) ** 2 for _, starts in runs)):
        return np.sqrt(np.maximum(inner_pairs(stack, stack).real, 0.0))
    squares = np.zeros(stack.count)
    for (lo, hi, terms, owners), (order, starts) in zip(stack.pieces, runs):
        keys = terms[order[starts]]
        keys.c = np.ones(len(keys), dtype=complex)
        gram = np.empty((len(keys), len(keys)), dtype=complex)
        for rows, vals in _pair_blocks(keys, keys, lo, hi):
            gram[rows] = vals
        coef = np.zeros((len(keys), stack.count), dtype=complex)
        key = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
        coef[key, owners[order]] = terms.c[order]  # rows are merged: an owner has a key once
        squares += np.real(np.sum(np.conj(coef) * (gram @ coef), axis=0))
    return np.sqrt(np.maximum(squares, 0.0))


# ---------------------------------------------------------------------------
# grids
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


def grid_panels(a: ParamA | float, min_nodes_per_piece: int = 64,
                kmax: float = 0.0) -> list[tuple[float, float, int, int]]:
    """(lo, hi, panels, Lobatto points per panel) of each piece of grid_nodes'
    grid, 1 + sum of panels * (points - 1) nodes; panels span <= 8/max(kmax, 1)."""
    xb = HALF_PI * (a.value if isinstance(a, ParamA) else float(a))
    return [(lo, hi, panels, max(24, int(math.ceil(min_nodes_per_piece / panels)) + 1))
            for lo, hi in ((-HALF_PI, xb), (xb, HALF_PI))
            for panels in [max(2, int(math.ceil((hi - lo) * max(kmax, 1.0) / 8.0)))]]


def _grid_pieces(a: ParamA | float, min_nodes_per_piece: int,
                 kmax: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Composite Lobatto nodes/weights of each piece of grid_nodes' grid,
    both pieces holding the restart point with their own weight there."""
    pieces = []
    for lo, hi, panels, points in grid_panels(a, min_nodes_per_piece, kmax):
        base_x, base_w = gauss_lobatto(points)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        xs, ws = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * base_x, half * base_w
        ws[:-1, -1] += ws[1:, 0]
        pieces.append((np.concatenate((xs[0, :1], xs[:, 1:].ravel())),
                       np.concatenate((ws[0, :1], ws[:, 1:].ravel()))))
    return pieces


def grid_nodes(a: ParamA | float, min_nodes_per_piece: int = 64,
               kmax: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Composite Lobatto nodes/weights on the two pieces cut at pi*a/2;
    panels sharing an endpoint share the node and add their weights."""
    (x_left, w_left), (x_right, w_right) = _grid_pieces(a, min_nodes_per_piece, kmax)
    w_left[-1] += w_right[0]  # the restart point ends one piece and starts the other
    return np.concatenate((x_left, x_right[1:])), np.concatenate((w_left, w_right[1:]))

