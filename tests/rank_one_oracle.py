"""The rank-one resolvent construction, kept as a test oracle.

The jump-coupled resolvent equals the Dirichlet resolvent R0(lambda) plus a
rank-one term along the hyperbolic profile

    h^x(lambda) = cosh(sqrt(-lambda) x) / cosh(sqrt(-lambda) pi/2),

with denominator 1 - h^{pi a/2}(lambda).  R0 has poles at every n^2 and
cosh overflows for large -lambda, so this route serves only as an
independent check of `jumpspec.resolvent` away from those points.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from jumpspec.funcspace import PiecewiseTrig
from jumpspec.resolvent import PoleAtDirichletEigenvalue

HALF_PI = math.pi / 2

DIRICHLET_GUARD = 1e-12


def _k_of(lam: complex) -> complex:
    return cmath.sqrt(lam)


def h_profile(lam: complex, x) -> np.ndarray | complex:
    """cosh(sqrt(-lambda) x)/cosh(sqrt(-lambda) pi/2); branch-independent."""
    s = cmath.sqrt(-lam)
    x = np.asarray(x, dtype=float)
    out = np.cosh(s * x) / np.cosh(s * HALF_PI)
    if out.ndim == 0:
        return complex(out)
    return out


def green0(lam: complex, x, y) -> np.ndarray | complex:
    """Dirichlet kernel; symmetric two-branch product of sines.

    Broadcasts over x and y.  Poles at lambda in {n^2, n >= 1}.
    """
    k = _k_of(lam)
    sin_kpi = cmath.sin(k * math.pi)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if max(np.max(np.abs(x), initial=0.0), np.max(np.abs(y), initial=0.0)) > HALF_PI + 1e-12:
        raise ValueError("kernel arguments outside [-pi/2, pi/2]")
    if abs(k) < 1e-8:
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        out = -(lo + HALF_PI) * (hi - HALF_PI) / math.pi
    else:
        if abs(sin_kpi) < DIRICHLET_GUARD:
            raise PoleAtDirichletEigenvalue(
                f"lambda={lam} is on the Dirichlet reference spectrum")
        lo = np.minimum(x, y)
        hi = np.maximum(x, y)
        out = -np.sin(k * (lo + HALF_PI)) * np.sin(k * (hi - HALF_PI)) / (k * sin_kpi)
    if out.ndim == 0:
        return complex(out)
    return out


_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


def dirichlet_resolvent_values(lam: complex, f, xs: np.ndarray) -> np.ndarray:
    """(R0(lambda) f)(xs) for callable or symbolic f, split at the kernel kink.

    Uses the variation-of-parameters form

        u0(x) = c [ u_plus(x) * int_{-pi/2}^x u_minus f
                    + u_minus(x) * int_x^{pi/2} u_plus f ],

    with u_minus = sin(k(y+pi/2)), u_plus = sin(k(y-pi/2)): cumulative
    panel quadrature between consecutive evaluation points, each panel
    analytic, so no kernel kink is ever crossed.
    """
    k = _k_of(lam)
    poly_branch = abs(k) < 1e-8
    if not poly_branch and abs(cmath.sin(k * math.pi)) < DIRICHLET_GUARD:
        raise PoleAtDirichletEigenvalue(
            f"lambda={lam} is on the Dirichlet reference spectrum")
    fy = f if not isinstance(f, PiecewiseTrig) else (lambda t: f(t))
    xs = np.asarray(xs, dtype=float)
    order = np.argsort(xs)
    sorted_xs = xs[order]

    # panel edges: evaluation points plus endpoints, subdivided so a panel
    # never spans more than ~4 radians of oscillation
    edges = [(-HALF_PI)]
    for x in sorted_xs:
        x = float(min(max(x, -HALF_PI), HALF_PI))
        if x - edges[-1] > 1e-15:
            edges.append(x)
    if HALF_PI - edges[-1] > 1e-15:
        edges.append(HALF_PI)
    edges = np.array(edges)
    kmag = max(abs(k), 1.0)
    refined = [edges[0]]
    for lo, hi in zip(edges, edges[1:]):
        nsub = max(1, int(math.ceil((hi - lo) * kmag / 4.0)))
        refined.extend(np.linspace(lo, hi, nsub + 1)[1:])
    edges = np.array(refined)

    mids = 0.5 * (edges[:-1] + edges[1:])[:, None]
    halfs = 0.5 * (edges[1:] - edges[:-1])[:, None]
    ys = mids + halfs * _GL12_X[None, :]
    ws = halfs * _GL12_W[None, :]
    fv = np.asarray(fy(ys.ravel()), dtype=complex).reshape(ys.shape)

    if poly_branch:
        w_minus = ys + HALF_PI
        w_plus = ys - HALF_PI
        scale = -1.0 / math.pi
    else:
        w_minus = np.sin(k * (ys + HALF_PI))
        w_plus = np.sin(k * (ys - HALF_PI))
        scale = -1.0 / (k * cmath.sin(k * math.pi))

    int_minus = np.concatenate(([0], np.cumsum(np.sum(ws * w_minus * fv, axis=1))))
    int_plus_rev = np.concatenate(([0], np.cumsum(np.sum(ws * w_plus * fv, axis=1)[::-1])))[::-1]

    # value of the cumulative integrals at each evaluation point
    pos = np.searchsorted(edges, sorted_xs - 1e-14)
    pos = np.clip(pos, 0, len(edges) - 1)
    A = int_minus[pos]
    B = int_plus_rev[pos]
    if poly_branch:
        u_plus = sorted_xs - HALF_PI
        u_minus = sorted_xs + HALF_PI
    else:
        u_plus = np.sin(k * (sorted_xs - HALF_PI))
        u_minus = np.sin(k * (sorted_xs + HALF_PI))
    u_sorted = scale * (u_plus * A + u_minus * B)
    out = np.empty(xs.shape, dtype=complex)
    out[order] = u_sorted
    return out


def rank_one_kernel(lam: complex, a_value: float, xs: np.ndarray,
                    ys: np.ndarray) -> np.ndarray:
    """R0(x, y) + h^x / (1 - h^{pi a/2}) * R0(pi a/2, y)."""
    b = HALF_PI * a_value
    g0 = green0(lam, xs[:, None], ys[None, :])
    hx = np.asarray(h_profile(lam, xs), dtype=complex)[:, None]
    return g0 + hx / (1.0 - h_profile(lam, b)) * green0(lam, b, ys)[None, :]
