"""Shared builders for randomized test inputs."""

from __future__ import annotations

import math

import numpy as np

from jumpspec.funcspace import (
    PiecewiseTrig, Stack, Terms, _term, cos_term, inner_closed, quad_inner, sin_term,
)
from jumpspec.param import ParamA

HALF_PI = math.pi / 2


def norm_l2(f: PiecewiseTrig) -> float:
    """||f||_2 from inner_closed(f, f), one function at a time."""
    return math.sqrt(max(inner_closed(f, f).real, 0.0))


def quad_gram(fns, a, max_rounds: int = 6) -> np.ndarray:
    """Hermitian matrix of (f_j, f_k) by quadrature: quad_inner over
    every index pair of the family (a Stack or a list)."""
    count = fns.count if isinstance(fns, Stack) else len(fns)
    pairs = np.indices((count, count)).reshape(2, -1).T
    return quad_inner(fns, pairs, a, max_rounds).reshape(count, count)


def linear(c: complex) -> Terms:
    """The one-row Terms c x."""
    return _term(1, c, 0.0, 0.0, 0)


def xcos_term(c: complex, k: float, s: float = 0.0) -> Terms:
    """The one-row Terms c x cos(kx + s)."""
    return _term(1, c, k, s, 0)


def xsin_term(c: complex, k: float, s: float = 0.0) -> Terms:
    """The one-row Terms c x sin(kx + s)."""
    return _term(1, c, k, s, 1)


def random_trig(rng: np.random.Generator, n_terms: int = 4,
                max_freq: float = 9.0) -> PiecewiseTrig:
    """Random single-piece trig sum (no boundary conditions imposed)."""
    terms = []
    for _ in range(n_terms):
        amp = rng.normal() + 1j * rng.normal()
        if rng.random() < 0.5:
            terms.append(cos_term(amp, rng.uniform(0.3, max_freq), rng.normal()))
        else:
            terms.append(sin_term(amp, rng.uniform(0.3, max_freq), rng.normal()))
    return PiecewiseTrig.single(terms)


def random_domain_member(a: ParamA, rng: np.random.Generator,
                         max_freq: float = 8.0) -> PiecewiseTrig:
    """Random smooth trig function satisfying the three-point condition.

    Three cosine modes with random frequencies/phases; the coefficient
    vector is taken from the nullspace of the two boundary constraints
    f(-pi/2) = f(pi a/2) = f(pi/2).
    """
    xb = HALF_PI * a.value
    while True:
        freqs = rng.uniform(0.4, max_freq, size=3)
        phases = rng.normal(size=3)
        cols = []
        for k, s in zip(freqs, phases):
            vals = np.cos(k * np.array([-HALF_PI, xb, HALF_PI]) + s)
            cols.append([vals[0] - vals[1], vals[2] - vals[1]])
        mat = np.array(cols).T  # 2 x 3 constraint matrix
        _, sv, vt = np.linalg.svd(mat)
        coef = vt[-1]
        if np.max(np.abs(coef)) < 1e-6:
            continue
        f = PiecewiseTrig.single(
            [cos_term(c, k, s) for c, k, s in zip(coef, freqs, phases)])
        return f


def rational_exceptional_config(rng: np.random.Generator,
                                max_sum: int = 22) -> tuple[ParamA, int, int]:
    """(a, m_minus, t) with m(1+a)/(1-a) = t an integer: a = (t-m)/(t+m)."""
    while True:
        m = int(rng.integers(1, 9))
        t = int(rng.integers(1, max_sum - m))
        if t == m:
            continue  # a = 0 is fine too, but keep it occasionally
        if t + m > max_sum:
            continue
        return ParamA.from_fraction(t - m, t + m), m, t
