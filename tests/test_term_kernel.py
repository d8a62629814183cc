"""The closed-form pair kernel against 40-digit mpmath.

The reference integrates the same double-precision inputs (coefficients,
frequencies, shifts, breakpoint) exactly, wave by wave, from the plain
antiderivative at a working precision raised by the digits it cancels.
The kernel may differ from it by eps * B per input, where

    B = sum over term pairs of |conj(c_f) c_g| (hi - lo) (pi/2)^(p_f + p_g)
        (1 + |k_f| pi/2 + |k_g| pi/2 + |s_f| + |s_g|)

bounds what rounding the phases and coefficients may cost.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from jumpspec.eigensystem import biorthogonalize, gram_matrix
from jumpspec.funcspace import PiecewiseTrig, cos_term, inner_closed, sin_term
from jumpspec.param import ParamA

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
            for p_f, c_f, k_f, s_f, q_f in _rows(f.terms_on(lo, hi)):
                for p_g, c_g, k_g, s_g, q_g in _rows(g.terms_on(lo, hi)):
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
        for p_f, c_f, k_f, s_f, _ in _rows(f.terms_on(lo, hi)):
            for p_g, c_g, k_g, s_g, _ in _rows(g.terms_on(lo, hi)):
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
        f, g = pairs[j].phi.fn, pairs[k].psi.fn
        assert abs(inner_closed(f, g) - reference_inner(f, g)) <= bound(f, g)


def test_batched_gram_equals_single_calls(family_one_third):
    pairs = family_one_third
    gram = gram_matrix(pairs)
    rng = np.random.default_rng(7)
    for j, k in rng.integers(0, len(pairs), size=(300, 2)):
        f, g = pairs[j].phi.fn, pairs[k].psi.fn
        assert abs(gram[j, k] - inner_closed(f, g)) <= bound(f, g)
