"""The closed-form pair kernel against 40-digit mpmath, and against the
kernel that takes its sin and cos pair by pair.

The reference integrates the same double-precision inputs (coefficients,
frequencies, shifts, breakpoint) exactly, wave by wave, from the plain
antiderivative at a working precision raised by the digits it cancels.
The kernel may differ from it by eps * B per input, where

    B = sum over term pairs of |conj(c_f) c_g| (hi - lo) (pi/2)^(p_f + p_g)
        (1 + |k_f| pi/2 + |k_g| pi/2 + |s_f| + |s_g|)

bounds what rounding the phases and coefficients may cost.  The same
eps * B, summed per pair of functions, bounds how far the package's Gram
matrices and squared norms may lie from the per-pair oracle's.
"""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from jumpspec import basis_diag, funcspace
from jumpspec.eigensystem import biorthogonalize, gram_matrix
from jumpspec.funcspace import PiecewiseTrig, Stack, cos_term, inner_closed, norms, sin_term
from jumpspec.param import ParamA

from reference_oracles import per_pair_trig_blocks, per_segment_inner, terms_on
from util import xcos_term, xsin_term

HALF_PI = math.pi / 2
EPS = np.finfo(float).eps
DPS = 40
MAKERS = (cos_term, sin_term, xcos_term, xsin_term)


def _segments(f, g):
    cuts = {-HALF_PI, HALF_PI} | {fn.breakpoint for fn in (f, g) if fn.breakpoint is not None}
    edges = sorted(cuts)
    return list(zip(edges, edges[1:]))


def _wave(p: int, w, d, lo, hi):
    """Integral of x^p cos(w x + d) over [lo, hi] in mpmath."""
    if w == 0:
        return mp.cos(d) * (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)

    def anti(x):
        s, c = mp.sin(w * x + d), mp.cos(w * x + d)
        return [s / w, x * s / w + c / w ** 2,
                x * x * s / w + 2 * x * c / w ** 2 - 2 * s / w ** 3][p]

    return anti(hi) - anti(lo)


def _rows(terms):
    """(p, c, k, s, q) of each term of a Terms, as Python numbers."""
    return zip(*(getattr(terms, f).tolist() for f in ("p", "c", "k", "s", "q")))


def reference_inner(f, g) -> complex:
    total = mp.mpc(0)
    with mp.workdps(DPS):
        for lo, hi in _segments(f, g):
            for p_f, c_f, k_f, s_f, q_f in _rows(terms_on(f, lo, hi)):
                for p_g, c_g, k_g, s_g, q_g in _rows(terms_on(g, lo, hi)):
                    w_dif = mp.mpf(k_f) - mp.mpf(k_g)
                    # digits the antiderivative cancels near resonance
                    small = min(abs(w_dif) * HALF_PI, 1) or 1
                    with mp.workdps(DPS + 10 + int(-3 * mp.log10(small))):
                        ph_f = mp.mpf(s_f) - q_f * mp.pi / 2
                        ph_g = mp.mpf(s_g) - q_g * mp.pi / 2
                        kk_f, kk_g = mp.mpf(k_f), mp.mpf(k_g)
                        p = p_f + p_g
                        val = (_wave(p, kk_f - kk_g, ph_f - ph_g, mp.mpf(lo), mp.mpf(hi))
                               + _wave(p, kk_f + kk_g, ph_f + ph_g, mp.mpf(lo), mp.mpf(hi))) / 2
                        total += mp.conj(mp.mpc(c_f)) * mp.mpc(c_g) * val
    return complex(total)


def bound(f, g) -> float:
    total = 0.0
    for lo, hi in _segments(f, g):
        for p_f, c_f, k_f, s_f, _ in _rows(terms_on(f, lo, hi)):
            for p_g, c_g, k_g, s_g, _ in _rows(terms_on(g, lo, hi)):
                total += (abs(c_f * c_g) * (hi - lo) * HALF_PI ** (p_f + p_g)
                          * (1 + (k_f + k_g) * HALF_PI + abs(s_f) + abs(s_g)))
    return EPS * total


def _random_terms(rng, n: int, anchor: float | None = None):
    """n terms; frequencies near `anchor` (down to 1e-15/(pi/2) away) if given."""
    terms = []
    for _ in range(n):
        if anchor is not None and rng.random() < 0.7:
            gap = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-15, -3) / HALF_PI
            k = anchor + gap * rng.choice([-1, 1])
        else:
            k = rng.choice([rng.uniform(0, 20), rng.uniform(0, 600)])
        k = abs(k)
        # the adjoint family's shifts are +-k pi/2
        s = rng.choice([rng.normal(), k * HALF_PI, -k * HALF_PI])
        amp = complex(rng.normal(), rng.normal()) * 10.0 ** rng.uniform(-1, 2)
        terms.append(MAKERS[rng.integers(4)](amp, k, s))
    return terms


def _random_pair(rng):
    xb = HALF_PI * rng.uniform(-0.9, 0.9)
    anchor = rng.uniform(0, 600)
    f = PiecewiseTrig.split(xb, _random_terms(rng, 3, anchor), _random_terms(rng, 3, anchor))
    if rng.random() < 0.5:
        g = PiecewiseTrig.single(_random_terms(rng, 3, anchor))
    else:
        g = PiecewiseTrig.split(xb, _random_terms(rng, 3, anchor), _random_terms(rng, 3, anchor))
    return f, g


@pytest.mark.parametrize("seed", range(6))
def test_kernel_matches_mpmath_on_random_terms(seed):
    rng = np.random.default_rng(1000 + seed)
    for _ in range(8):
        f, g = _random_pair(rng)
        assert abs(inner_closed(f, g) - reference_inner(f, g)) <= bound(f, g)


def test_near_resonant_pairs_reach_the_series():
    # |k_f - k_g| pi/2 from 1e-15 to 1e-3, shifts of the adjoint family
    for gap in 10.0 ** np.arange(-15, -2):
        k = 412.0 / (1 - 1 / 3)
        f = PiecewiseTrig.split(HALF_PI / 3, [xsin_term(3.0, k, k * HALF_PI)],
                                [sin_term(-2.0, k, -k * HALF_PI)])
        g = PiecewiseTrig.single([xcos_term(1.0, k + gap / HALF_PI, 0.7)])
        assert abs(inner_closed(f, g) - reference_inner(f, g)) <= bound(f, g)


@pytest.fixture(scope="module")
def family_one_third():
    return biorthogonalize(ParamA.from_expr("1/3"), 4.0 * 257 ** 2)[:253]


def test_gram_entries_match_mpmath(family_one_third):
    pairs = family_one_third
    for j, k in ((162, 163), (216, 217), (246, 247), (0, 0), (252, 252)):
        f, g = pairs.phi.fn(j), pairs.psi.fn(k)
        assert abs(inner_closed(f, g) - reference_inner(f, g)) <= bound(f, g)


def test_batched_gram_equals_single_calls(family_one_third):
    pairs = family_one_third
    gram = gram_matrix(pairs)
    rng = np.random.default_rng(7)
    for j, k in rng.integers(0, len(pairs), size=(300, 2)):
        f, g = pairs.phi.fn(j), pairs.psi.fn(k)
        assert abs(gram[j, k] - inner_closed(f, g)) <= bound(f, g)


# ---------------------------------------------------------------------------
# the series boundary, large k at the adjoint shifts, and k = 0 rows
# ---------------------------------------------------------------------------

def series_boundary_pairs() -> list[tuple[PiecewiseTrig, PiecewiseTrig]]:
    """All 16 maker pairs on one piece (h = pi/2) at |k_f - k_g| h =
    1 -+ {1e-12, 1e-6, 1e-3}: the difference wave just below and just
    above _SERIES_BELOW, at a small and a large k_f; the shifts are small,
    so B grows with the frequencies alone."""
    out = []
    for k, (make_f, make_g), gap in itertools.product(
            (1.5, 617.0), itertools.product(MAKERS, repeat=2), (1e-12, 1e-6, 1e-3)):
        for side in (-1, 1):
            f = PiecewiseTrig.single([make_f(1.3 - 0.4j, k, -0.2)])
            g = PiecewiseTrig.single([make_g(0.7 + 0.2j, k + (1 + side * gap) / HALF_PI, 0.3)])
            out.append((f, g))
    return out


def large_k_pairs() -> list[tuple[PiecewiseTrig, PiecewiseTrig]]:
    """k from 10 to 1e4 with the adjoint family's shifts +-k pi/2, split
    at a restart point, against k + gap for gaps from 0 to 3 (resonant,
    near-resonant and apart), every maker on each side."""
    rng = np.random.default_rng(11)
    out = []
    for k, gap in itertools.product((10.0, 250.0, 1e3, 1e4), (0.0, 1e-9, 1e-3, 0.4, 3.0)):
        makers = rng.integers(4, size=3)
        f = PiecewiseTrig.split(HALF_PI / 3, [MAKERS[makers[0]](2.0 - 1j, k, k * HALF_PI)],
                                [MAKERS[makers[1]](-1.5, k, -k * HALF_PI)])
        g = PiecewiseTrig.single([MAKERS[makers[2]](0.5 + 0.5j, k + gap, -(k + gap) * HALF_PI)])
        out.append((f, g))
    return out


def zero_k_pairs() -> list[tuple[PiecewiseTrig, PiecewiseTrig]]:
    """Rows at k = 0 (constants, x, and the sines of their shifts) against
    every maker at k in {0, 1e-9, 0.5, 7, 1e3}, on one piece and split."""
    out = []
    for make_f, make_g, k, s in itertools.product(MAKERS, MAKERS, (0.0, 1e-9, 0.5, 7.0, 1e3),
                                                  (0.0, 0.3)):
        f = PiecewiseTrig.single([make_f(1.0 + 0.5j, 0.0, s)])
        g = PiecewiseTrig.split(-0.4, [make_g(0.8, k, 0.1)], [make_g(-0.3j, k, k * HALF_PI)])
        out.append((f, g))
    return out


@pytest.mark.parametrize("pairs", [series_boundary_pairs, large_k_pairs, zero_k_pairs])
def test_kernel_matches_mpmath_at_the_edges(pairs):
    for f, g in pairs():
        assert abs(inner_closed(f, g) - reference_inner(f, g)) <= bound(f, g)


# inner_closed is inner_matrix's 1x1 entry, which sums each pair block by
# owner runs; the per-segment loop it replaced summed the blocks whole, in
# another order.  Over 2000 pairs of these families the two differed by at
# most 1.24 eps sum|c_f| sum|c_g| (404 bit for bit)
PER_SEGMENT_C = 4


def _random_function(rng, anchor: float) -> PiecewiseTrig:
    """Up to 12 terms near `anchor`, on one piece or split at a random point."""
    if rng.random() < 0.5:
        return PiecewiseTrig.single(_random_terms(rng, rng.integers(0, 13), anchor))
    return PiecewiseTrig.split(HALF_PI * rng.uniform(-0.9, 0.9),
                               _random_terms(rng, rng.integers(0, 7), anchor),
                               _random_terms(rng, rng.integers(0, 7), anchor))


def _coefficient_sum(f: PiecewiseTrig) -> float:
    return sum(float(np.sum(np.abs(piece.terms.c))) for piece in f.pieces)


@pytest.mark.parametrize("seed", range(4))
def test_inner_closed_is_the_per_segment_loop(seed):
    rng = np.random.default_rng(2000 + seed)
    for _ in range(100):
        anchor = rng.uniform(0, 600)
        f, g = _random_function(rng, anchor), _random_function(rng, anchor)
        gap = abs(inner_closed(f, g) - per_segment_inner(f, g))
        assert gap <= PER_SEGMENT_C * EPS * _coefficient_sum(f) * _coefficient_sum(g)


# ---------------------------------------------------------------------------
# the per-pair trig oracle on whole families
# ---------------------------------------------------------------------------

def bound_matrix(fs: Stack, gs: Stack) -> np.ndarray:
    """bound(f_j, g_k) for every pair of functions of two Stacks: per
    segment, B splits as sum_u a_u (1 + x_u) sum_v a_v + sum_u a_u sum_v
    a_v x_v, with a = |c| (pi/2)^p and x = |k| pi/2 + |s| of a row."""
    out = np.zeros((fs.count, gs.count))
    edges = sorted({x for stack in (fs, gs) for lo, hi, *_ in stack.pieces for x in (lo, hi)})
    for lo, hi in zip(edges, edges[1:]):
        sums = []
        for stack in (fs, gs):
            terms, owners = stack.on(lo, hi)
            a = np.abs(terms.c) * HALF_PI ** terms.p
            x = np.abs(terms.k) * HALF_PI + np.abs(terms.s)
            sums.append([np.bincount(owners, w, minlength=stack.count) for w in (a, a * x)])
        (a_f, ax_f), (a_g, ax_g) = sums
        out += (hi - lo) * (np.outer(a_f + ax_f, a_g) + np.outer(a_f, ax_g))
    return EPS * out


def _per_pair_oracle(monkeypatch, compute):
    """compute() with the per-pair trig kernel in place of the package's."""
    with monkeypatch.context() as patched:
        patched.setattr(funcspace, "_pair_blocks", per_pair_trig_blocks)
        return compute()


@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1"])
def test_gram_matches_the_per_pair_oracle(monkeypatch, expr):
    pairs = biorthogonalize(ParamA.from_expr(expr), 4.0 * 257 ** 2)[:253]
    gram = gram_matrix(pairs)
    oracle = _per_pair_oracle(monkeypatch, lambda: gram_matrix(pairs))
    assert np.all(np.abs(gram - oracle) <= bound_matrix(pairs.phi, pairs.psi))


def test_completeness_norms_match_the_per_pair_oracle(monkeypatch):
    normed = []

    def keep(fns):
        normed.append(fns)
        return norms(fns)

    monkeypatch.setattr(basis_diag, "norms", keep)
    basis_diag.truncated_completeness(ParamA.from_expr("sqrt(2)-1"), 200, 4)
    [stack] = normed
    assert stack.count == 5 * 4
    squares = norms(stack) ** 2
    oracle = _per_pair_oracle(monkeypatch, lambda: norms(stack)) ** 2
    assert np.all(np.abs(squares - oracle) <= bound_matrix(stack, stack).diagonal())

