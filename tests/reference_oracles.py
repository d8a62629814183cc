"""Reference computations that only the tests use.

Each one reaches a quantity of the package by a second route: the real
zeros of the characteristic determinant by dense scan plus bisection and
its complex zeros by the argument principle, the spectrum enumerated by
separate rational and float branches with integer-arithmetic case tests,
the exceptional-index tests by float arithmetic with a tolerance, the Rayleigh quotient through the
full metric operator, the median of the generic projection norms that
the blow-up is measured against, the resolvent kernel's singular
values in complex arithmetic where the package computes them in float64,
the simulator's bridge hit probabilities of both boundaries where the
package computes the nearer one's only, the simulator's walk with every
path taking every step of dt where the package moves paths by one step
per stride, and the renewal moments of the time between restarts.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

from jumpspec.basis_diag import proj_norm_zero_generic
from jumpspec.funcspace import grid_nodes, inner_closed
from jumpspec.metric import MetricOp, neumann_mode
from jumpspec.param import ParamA
from jumpspec.resolvent import ResolventKernel
from jumpspec.simulator import HALF_PI, _Stepper
from jumpspec.spectrum import char_det


def scan_determinant_zeros(a: ParamA, k_max: float, step: float = 1e-3,
                           refine_tol: float = 1e-10) -> list[float]:
    """Real zeros of char_det on [0, k_max] by dense scan + bisection."""
    grid = np.arange(0.0, k_max + step, step)
    vals = np.real(char_det(a, grid))
    zeros: list[float] = []
    exact = np.abs(vals) < 1e-13
    for idx in np.nonzero(exact)[0]:
        zeros.append(float(grid[idx]))
    signs = np.sign(vals)
    flips = np.nonzero((signs[:-1] * signs[1:]) < 0)[0]
    for idx in flips:
        lo, hi = float(grid[idx]), float(grid[idx + 1])
        flo = float(np.real(char_det(a, lo)))
        while hi - lo > refine_tol:
            mid = 0.5 * (lo + hi)
            fmid = float(np.real(char_det(a, mid)))
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        zeros.append(0.5 * (lo + hi))
    zeros.sort()
    merged: list[float] = []
    for z in zeros:
        if not merged or z - merged[-1] > 10 * refine_tol:
            merged.append(z)
    return [z for z in merged if z <= k_max + step]


def count_zeros_in_rectangle(a: ParamA, k_lo: float, k_hi: float,
                             im_half: float, n_side: int = 4000) -> int:
    """Argument-principle zero count of char_det inside a complex rectangle.

    Walks the boundary [k_lo, k_hi] x [-im_half, +im_half] and accumulates
    the winding of det; the corners must avoid zeros (real zeros lie on the
    real axis, so any rectangle with nonzero imaginary extent and real
    endpoints between zeros is safe).
    """
    corners = [complex(k_lo, -im_half), complex(k_hi, -im_half),
               complex(k_hi, im_half), complex(k_lo, im_half),
               complex(k_lo, -im_half)]
    total = 0.0
    for z0, z1 in zip(corners, corners[1:]):
        ts = np.linspace(0.0, 1.0, n_side)
        path = z0 + (z1 - z0) * ts
        vals = np.asarray(char_det(a, path), dtype=complex)
        args = np.angle(vals)
        dargs = np.diff(args)
        dargs = (dargs + np.pi) % (2 * np.pi) - np.pi
        total += float(np.sum(dargs))
    return int(round(total / (2 * np.pi)))


def two_branch_spectrum(a: ParamA, lambda_max: float) -> list[tuple]:
    """The spectrum up to lambda_max as (lam, k, memberships, geom_mult,
    alg_mult, case) rows, ascending: each family's wavenumbers written out
    in a rational branch (k a Fraction of p, q) and a float branch, members
    merged on their exact k, and the zero-class case read off m*p mod q
    and the parity of m(1+a)."""
    k_max = math.sqrt(lambda_max)
    raw = []
    if a.is_rational:
        p, q = a.fraction.numerator, a.fraction.denominator
        for cls, denom in ((-1, q - p), (+1, q + p)):
            m = 1
            while float(k := Fraction(4 * m * q, denom)) <= k_max:
                raw.append((cls, m, float(k), k))
                m += 1
        for m in range(int(k_max // 2) + 1):
            raw.append((0, m, float(2 * m), Fraction(2 * m)))
    else:
        for cls, fac in ((-1, 1 - a.value), (+1, 1 + a.value)):
            m = 1
            while 4 * m / fac <= k_max:
                raw.append((cls, m, 4 * m / fac, None))
                m += 1
        for m in range(int(k_max // 2) + 1):
            raw.append((0, m, float(2 * m), None))

    groups: dict = {}
    for cls, m, k_f, k_exact in raw:
        key = k_exact if k_exact is not None else (cls, m)
        groups.setdefault(key, []).append((cls, m, k_f))
    rows = []
    for members in groups.values():
        k_f = members[0][2]
        memberships = tuple(sorted((c, m) for c, m, _ in members))
        classes = {c for c, _ in memberships}
        if {-1, +1} <= classes:
            rows.append((k_f * k_f, k_f, memberships, 2, 3, "exceptional_pair"))
        elif memberships == ((0, 0),):
            rows.append((0.0, 0.0, memberships, 1, 1, "zero_eigenvalue"))
        else:
            (cls, m), = memberships
            case = "generic"
            if cls == 0 and a.is_rational and (m * p) % q == 0 and (m + m * p // q) % 2:
                case = "exceptional_odd"
            rows.append((k_f * k_f, k_f, memberships, 1, 1, case))
    rows.sort(key=lambda row: row[0])
    return rows


def is_exceptional_minus_float(a_value: float, m: int, tol: float = 1e-9) -> bool:
    """Float/tolerance rerun of is_exceptional(a, -1, m)."""
    r = m * (1 + a_value) / (1 - a_value)
    return abs(r - round(r)) < tol and round(r) >= 0


def is_exceptional_plus_float(a_value: float, m: int, tol: float = 1e-9) -> bool:
    r = m * (1 - a_value) / (1 + a_value)
    return abs(r - round(r)) < tol and round(r) >= 0


def rayleigh_quotient(a: ParamA, n: int) -> float:
    """(chi_n, Theta chi_n) for the orthonormal Neumann mode chi_n."""
    chi = neumann_mode(n)
    return inner_closed(chi, MetricOp.build(a).apply(chi)).real


def generic_norm_median(a: ParamA, m_max: int = 200) -> float:
    """Median of the wavenumber-2m generic projection norms, m <= m_max."""
    norms = [proj_norm_zero_generic(a, m) for m in range(1, m_max + 1)]
    return float(np.median(norms))


def complex_arithmetic_kernel(lam: complex, a: ParamA) -> ResolventKernel:
    """`ResolventKernel.build` with ik forced complex: the same formulas for
    E, P, Q and the factors 1 - E, 1 - P, 1 - Q, evaluated in complex
    arithmetic, so `kernel_matrix` runs in complex128 at every lambda."""
    kern = ResolventKernel.build(lam, a)
    ik = complex(kern.ik)
    theta = ik * math.pi * np.array([1.0, (1 + a.value) / 2, (1 - a.value) / 2])
    _, p, q = np.exp(theta).tolist()
    return dataclasses.replace(kern, ik=ik, p=p, q=q,
                               one_minus=tuple((-np.expm1(theta)).tolist()))


def complex_probe_singular_values(lam: complex, a: ParamA, n: int) -> np.ndarray:
    """The singular values `singular_value_probe` reports, from the
    complex-arithmetic kernel on the same grid and a complex SVD."""
    kern = complex_arithmetic_kernel(lam, a)
    nodes, weights = grid_nodes(a, n // 2, kmax=abs(kern.k))
    sq = np.sqrt(weights)
    mat = sq[:, None] * kern.kernel_matrix(nodes, nodes) * sq[None, :]
    return np.linalg.svd(mat, compute_uv=False)


def full_width_bridge_probabilities(x0: np.ndarray, x1: np.ndarray,
                                    dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Upper and lower bridge hit probabilities of every path, computed
    as the stepper did over all paths in reusable buffers:
    exp(min(-(b -+ x0)(b -+ x1)/dt, 0)) at b = pi/2."""
    half_pi = math.pi / 2
    t1, t2, arg = np.empty_like(x0), np.empty_like(x0), np.empty_like(x0)
    upper, lower = np.empty_like(x0), np.empty_like(x0)
    np.subtract(half_pi, x0, out=t1)
    np.subtract(half_pi, x1, out=t2)
    np.multiply(t1, t2, out=arg)
    arg /= -dt
    np.minimum(arg, 0.0, out=arg)
    np.exp(arg, out=upper)
    np.add(x0, half_pi, out=t1)
    np.add(x1, half_pi, out=t2)
    np.multiply(t1, t2, out=arg)
    arg /= -dt
    np.minimum(arg, 0.0, out=arg)
    np.exp(arg, out=lower)
    return upper, lower


def every_step_walk(cfg, key, n_paths: int, x0: float, n_steps: int,
                    sample_steps, observe, count_after: int = 0) -> int:
    """The simulator's walker without strides: every path takes every
    step of dt, exact with the bridge correction (`_Stepper.exact`) and
    discretely monitored without it (`_Stepper.step`).  Same signature
    and return value as `simulator._walk`, so it can stand in for it."""
    rng = np.random.Generator(np.random.Philox(key=key))
    restart = HALF_PI * cfg.a.value
    x = np.full(n_paths, x0)
    stepper = _Stepper(cfg.dt, cfg.bridge_correction, rng)
    jumps = 0
    for step in range(1, n_steps + 1):
        if cfg.bridge_correction:
            n_hit = stepper.exact(x, restart, cfg.dt)
        else:
            n_hit = stepper.step(x, restart)
        if step > count_after:
            jumps += n_hit
        if step in sample_steps:
            observe(x)
    return jumps


def restart_time_moments(a: ParamA, widen: float = 0.0) -> tuple[float, float]:
    """Mean and variance of the time from the restart point pi a/2 to the
    boundary for generator d^2/dx^2 on (-L, L), L = pi/2 + widen: solving
    u'' = -1 and v'' = -2u with zero boundary values gives
    E[tau] = (L^2 - b^2)/2 and Var[tau] = (L^4 - b^4)/6."""
    L, b = math.pi / 2 + widen, math.pi / 2 * a.value
    return (L ** 2 - b ** 2) / 2, (L ** 4 - b ** 4) / 6
