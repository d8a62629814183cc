"""Reference computations that only the tests use.

Some are closed forms and checks of the paper that the package never
calls: the characteristic determinant, the operator and adjoint domain
conditions of one function (with the one-sided limits and the plain term
evaluation they read), the adjoint eigenfunctions and generalized
vectors of one record, the printed pairings of an exceptional root space
and the injectivity scan of the metric over Neumann modes.  The others
reach a quantity of the package by a second route: the normalized family
built pair by pair from the printed root vectors (each root space's duals
by the numeric inverse of its integrated pairing matrix), that matrix by
50-digit quadrature, inner products by adaptive panel quadrature
(`quad_inner`), expansion residuals normed one remainder at a time, the
quadrature projection norms one record or one band at a time, the metric
report on the root system one member at a time, the real zeros of the
characteristic determinant by dense scan plus bisection and its complex
zeros by the argument principle, the spectrum
enumerated by separate rational and float branches with integer-arithmetic
case tests, the exceptional-index tests by float arithmetic with a
tolerance, the Rayleigh quotient through the full metric operator, the
median of the generic projection norms that the blow-up is measured
against, the resolvent kernel and its singular values in complex
arithmetic where the package computes them in float64, the resolvent of a
callable forcing by panel quadrature and a difference stencil (small
frequencies only) and of a term sum by a 50-digit three-point solve with
textbook particular solutions (`mp_three_point_solve`, which holds for any
a in (-1, 1), so it serves the a -> +-1 regime as well), the simulator's
bridge hit probabilities of both boundaries where the package computes the
nearer one's only, the simulator's walk with every path taking every step
of dt where the package moves paths by one step per stride, the
renewal moments of the time between restarts, the closed-form pair
kernel taking the sin and cos of each pair's two waves where the package
takes them once per term row, a function's terms on a segment, a
family's Stack and an inner product found from each function's own pieces
and breakpoints where the package joins one-member Stacks, and a linear
combination merged as one function's rows (`lincomb`) where PiecewiseTrig's
+ and - merge a Stack.total per owner, term sums at the cos of the rounded
phase (`rounded_basis`, `eval_terms`) where the package carries the phase
exactly, and the norms from each member's own rows about the piece
midpoints (`norms_local`) and from one Gram of the raw rows' keys
(`norms_l2`), the two routes that `funcspace.norms` chooses between.
The resolvent's secular solves are also kept as they stood before they
worked in preallocated blocks (`allocating_dpr1_singular_values`), the
sine-basis matrix as the dense array whose LAPACK SVD the probe took next
to odd squares (`sine_matrix_dense`), and the
family arithmetic as it stood before it worked on the integer coefficients
of param.FAMILIES: wavenumbers, turns and reduced angles from Fraction
objects (`family_k_fraction`, `turns_fraction`, `trig_pi_fraction`).
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from fractions import Fraction
from itertools import accumulate

import mpmath as mp
import numpy as np
from mpmath.libmp import to_rational

from jumpspec.basis_diag import proj_norm_zero_generic
from jumpspec.eigensystem import (
    CaseMismatch, _chains, _simple_pairing, eigenfunctions_H, phi_zero_mode,
)
from jumpspec.funcspace import (
    _MOMENT_SERIES, _PAIR_BLOCK, _SERIES_BELOW, HALF_PI, OutOfDomain, Piece, PiecewiseTrig, Stack,
    Terms, _grid_pieces, _merge_rows, _midpoint_phase, _pair_blocks, _row_factors, _two_sum,
    const, cos_term, grid_nodes, grid_panels, inner_closed, inner_matrix, inner_pairs, sin_term,
)
from jumpspec.metric import DomainViolation, MetricOp, even_mode_coefficient, project_pieces
from jumpspec.param import WORK_DPS, NotIrrational, ParamA, PiAngle, family_angle, trig_pi
from jumpspec import resolvent
from jumpspec.resolvent import EPS, ResolventKernel
from jumpspec.simulator import _Stepper
from jumpspec.spectrum import EigRecord, SpectralCase, enumerate_spectrum

from util import apply_theta, linear, norm_l2, xcos_term, xsin_term


def char_det(a: ParamA | float, k) -> complex | np.ndarray:
    """-4 sin(k pi (1+a)/4) sin(k pi (1-a)/4) sin(k pi / 2); zeros^2 = spectrum."""
    a_val = a.value if isinstance(a, ParamA) else float(a)
    k = np.asarray(k)
    quarter = np.pi / 4
    det = (-4.0 * np.sin(k * quarter * (1 + a_val))
           * np.sin(k * quarter * (1 - a_val))
           * np.sin(k * np.pi / 2))
    if det.ndim == 0:
        return complex(det)
    return det


def rounded_basis(t: Terms, x: np.ndarray) -> np.ndarray:
    """x^p cos(kx + s - q pi/2) of every row at every point, (len(x), len(t)),
    from the cos of the rounded phase: the basis Stack.values once took,
    which loses k |x| eps where funcspace._basis carries the phase exactly;
    only the p = 1 columns are multiplied by x, since x^0 = 1."""
    basis = np.cos(np.multiply.outer(x, t.k) + (t.s - t.q * HALF_PI))
    linear = t.p == 1
    if linear.any():
        basis[..., linear] *= x[..., None]
    return basis


def eval_terms(t: Terms, x: np.ndarray) -> np.ndarray:
    """A term sum at the points x, one cos of the rounded phase k x + s per
    row and point (`rounded_basis`), so a row loses k |x| eps where
    funcspace.eval_exact does not."""
    return rounded_basis(t, np.asarray(x, dtype=float)) @ t.c


def one_sided(f: PiecewiseTrig, x: float, side: int) -> complex:
    """The limit of f from the left (side=-1) or the right (side=+1) at x."""
    for p in f.pieces:
        if (p.lo < x < p.hi) or (x == p.lo and side > 0) or (x == p.hi and side < 0):
            return complex(eval_terms(p.terms, np.array([x]))[0])
    raise OutOfDomain(f"{x} not interior to any piece on the requested side")


def zero_function() -> PiecewiseTrig:
    """The zero function: one piece, no terms."""
    return PiecewiseTrig.single(())


@dataclasses.dataclass
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
    v_left, v_right = one_sided(f, xb, -1), one_sided(f, xb, +1)
    v_b = 0.5 * (v_left + v_right)
    df = f.derivative(1)
    return _domain_report(f, tol, {
        "value continuity at restart point": abs(v_left - v_right),
        "derivative continuity at restart point":
            abs(one_sided(df, xb, -1) - one_sided(df, xb, +1)),
        "boundary condition f(-pi/2) = f(pi*a/2)": abs(one_sided(f, -HALF_PI, +1) - v_b),
        "boundary condition f(pi/2) = f(pi*a/2)": abs(one_sided(f, HALF_PI, -1) - v_b),
    })


def validate_domain_Hstar(f: PiecewiseTrig, a: ParamA | float,
                          tol: float = 1e-10) -> DomainReport:
    """Membership in the adjoint domain: Dirichlet ends, value continuity
    at the restart point, and the matched derivative-jump identity
    f'(pi/2) - f'(-pi/2) = f'(pi*a/2+) - f'(pi*a/2-)."""
    xb = HALF_PI * (a.value if isinstance(a, ParamA) else float(a))
    df = f.derivative(1)
    jump_out = one_sided(df, HALF_PI, -1) - one_sided(df, -HALF_PI, +1)
    jump_in = one_sided(df, xb, +1) - one_sided(df, xb, -1)
    return _domain_report(f, tol, {
        "Dirichlet value at -pi/2": abs(one_sided(f, -HALF_PI, +1)),
        "Dirichlet value at +pi/2": abs(one_sided(f, HALF_PI, -1)),
        "value continuity at restart point":
            abs(one_sided(f, xb, -1) - one_sided(f, xb, +1)),
        "derivative-jump identity": abs(jump_out - jump_in),
    })


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


# The family arithmetic in Fraction objects, a second route to the integer
# one of param.FAMILIES: the formulas as printed, a rational stand-in for an
# irrational a read from the same dps-digit evaluation, and the angle
# reduced from the reduced Fraction of t.
FRACTION_K = {-1: lambda m, x: 4 * m / (1 - x), +1: lambda m, x: 4 * m / (1 + x),
              0: lambda m, x: 2 * m}
FRACTION_TURNS = {-1: lambda m, x: m * (1 + x) / (1 - x), +1: lambda m, x: m * (1 - x) / (1 + x),
                  0: lambda m, x: m * (1 + x)}


def family_k_fraction(a: ParamA, cls: int, m: int) -> Fraction | float:
    """k(m, a) as a Fraction at rational a, else the printed float formula."""
    if a.fraction is not None:
        return Fraction(FRACTION_K[cls](m, a.fraction))
    return float(FRACTION_K[cls](m, a.value))


def turns_fraction(a: ParamA, cls: int, m: int) -> Fraction | None:
    """t(m, a) as a reduced Fraction, or None at irrational a."""
    if a.fraction is None:
        return None
    return Fraction(FRACTION_TURNS[cls](m, a.fraction))


def trig_pi_fraction(turns, a: ParamA) -> PiAngle:
    """trig_pi of the reduced Fraction of turns(a): at a itself when a is
    rational, else at the exact binary value of a's evaluation at
    WORK_DPS + twice the digits of turns(a.value) digits."""
    if a.fraction is not None:
        t = Fraction(turns(a.fraction))
    else:
        digits = len(str(int(abs(turns(a.value)))))
        near = Fraction(*to_rational(a.approx(WORK_DPS + 2 * digits)._mpf_))
        t = Fraction(turns(near))
    return trig_pi(t.numerator, t.denominator)


def family_angle_fraction(a: ParamA, cls: int, m: int) -> PiAngle:
    """family_angle by the Fraction route."""
    return trig_pi_fraction(lambda x: FRACTION_TURNS[cls](m, x), a)


def is_exceptional_minus_float(a_value: float, m: int, tol: float = 1e-9) -> bool:
    """Float/tolerance rerun of is_exceptional(a, -1, m)."""
    r = m * (1 + a_value) / (1 - a_value)
    return abs(r - round(r)) < tol and round(r) >= 0


def is_exceptional_plus_float(a_value: float, m: int, tol: float = 1e-9) -> bool:
    r = m * (1 - a_value) / (1 + a_value)
    return abs(r - round(r)) < tol and round(r) >= 0


def neumann_mode(n: int) -> PiecewiseTrig:
    """Orthonormal Neumann mode: cos(nx) for even n, sin(nx) for odd n."""
    if n == 0:
        return PiecewiseTrig.single([const(math.sqrt(1 / math.pi))])
    amp = math.sqrt(2 / math.pi)
    if n % 2 == 0:
        return PiecewiseTrig.single([cos_term(amp, float(n))])
    return PiecewiseTrig.single([sin_term(amp, float(n))])


def injectivity_probe(a: ParamA, n_max: int, cross_n_max: int = 40) -> dict:
    """Diagonal positivity scan plus off-diagonal vanishing evidence.

    Returns the even-mode diagonal coefficients up to n_max (all positive
    for n != 0 when a is irrational) and the largest off-diagonal pairing
    |(chi_m, P- chi_n (+) P+ chi_n)| over even m != n <= cross_n_max.
    """
    if a.is_rational:
        raise NotIrrational("injectivity statement needs irrational a")
    if n_max > 10 ** 4:
        raise ValueError("n_max limited to 10^4")
    diagonal = [(n, even_mode_coefficient(a, n)) for n in range(0, n_max + 1, 2)]
    positive = all(c > 0 for n, c in diagonal if n != 0)

    max_off = 0.0
    max_diag_dev = 0.0
    modes = {n: neumann_mode(n) for n in range(0, cross_n_max + 1, 2)}
    stack = project_pieces(Stack.join(list(modes.values())), a)
    projected = {n: stack.fn(j) for j, n in enumerate(modes)}
    for n, pn in projected.items():
        for m, chim in modes.items():
            val = inner_closed(chim, pn)
            if m == n:
                max_diag_dev = max(max_diag_dev,
                                   abs(val - even_mode_coefficient(a, n)))
            else:
                max_off = max(max_off, abs(val))
    return {"diagonal": diagonal, "all_positive": positive,
            "max_offdiagonal": max_off, "max_diagonal_deviation": max_diag_dev}


def rayleigh_quotient(a: ParamA, n: int) -> float:
    """(chi_n, Theta chi_n) for the orthonormal Neumann mode chi_n."""
    chi = neumann_mode(n)
    return inner_closed(chi, apply_theta(MetricOp.build(a), chi)).real


def generic_norm_median(a: ParamA, m_max: int = 200) -> float:
    """Median of the wavenumber-2m generic projection norms, m <= m_max."""
    norms = [proj_norm_zero_generic(a, m) for m in range(1, m_max + 1)]
    return float(np.median(norms))


# the Nystrom probe's node cap: 4097 nodes is twice its largest n
MAX_PROBE_NODES = 4097


def kernel_matrix(kern: ResolventKernel, a: ParamA, xs: np.ndarray,
                  ys: np.ndarray) -> np.ndarray:
    """The resolvent kernel R(x, y) = (i/2k) e^{ik|x-y|} + phi_1(x) alpha(y)
    + phi_2(x) beta(y) at every (x, y), from the scalars of `kern` (built at
    a) and its `coefficients` of the free kernel's boundary differences:
    float64 at real lambda < 0 (ik real), and at real lambda > 0 the
    rounding-only imaginary part of the complex assembly dropped (H
    commutes with conjugation)."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    ik, c = kern.ik, -0.5 / kern.ik  # c = i/2k
    phi_y = kern.phis(ys)
    g_jump = c * np.exp(ik * np.abs(HALF_PI * a.value - ys))
    alpha, beta = kern.coefficients(c * phi_y[:, 0] - g_jump, c * phi_y[:, 1] - g_jump)
    out = (c * np.exp(ik * np.abs(np.subtract.outer(xs, ys)))
           + kern.phis(xs) @ np.stack([alpha, beta]))
    return np.ascontiguousarray(out.real) if kern.lam.imag == 0 else out


def nystrom_nodes(lam: complex, a: ParamA, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The Nystrom probe's grid, composite Lobatto resolving |k| with n/2
    nodes a piece, or ValueError unless 64 <= n <= 2048 and it has at most
    MAX_PROBE_NODES nodes, counted from `grid_panels` before any is built."""
    if not 64 <= n <= 2048:
        raise ValueError(f"probe needs 64 <= n <= 2048, got n={n}")
    k_abs = abs(ResolventKernel.build(lam, a).k)
    size = 1 + sum(panels * (points - 1) for *_, panels, points in grid_panels(a, n // 2, k_abs))
    if size > MAX_PROBE_NODES:
        raise ValueError(f"probe grid of {size} nodes at lambda={lam} exceeds the cap "
                         f"of {MAX_PROBE_NODES} (the grid grows with |k| = {k_abs:.3g})")
    return grid_nodes(a, n // 2, kmax=k_abs)


def complex_arithmetic_kernel(lam: complex, a: ParamA) -> ResolventKernel:
    """`ResolventKernel.build` with ik forced complex: the same formulas for
    E, P, Q and the factors 1 - E, 1 - P, 1 - Q, evaluated in complex
    arithmetic."""
    kern = ResolventKernel.build(lam, a)
    ik = complex(kern.ik)
    theta = ik * math.pi * np.array([1.0, (1 + a.value) / 2, (1 - a.value) / 2])
    _, p, q = np.exp(theta).tolist()
    return dataclasses.replace(kern, ik=ik, p=p, q=q,
                               one_minus=tuple((-np.expm1(theta)).tolist()))


def complex_kernel_matrix(lam: complex, a: ParamA, xs: np.ndarray,
                          ys: np.ndarray) -> np.ndarray:
    """The resolvent kernel (i/2k) e^{ik|x-y|} + phi_1(x) alpha(y) +
    phi_2(x) beta(y) assembled in complex128 at every lambda, with nothing
    dropped: `complex_arithmetic_kernel`'s scalars, one array expression."""
    kern = complex_arithmetic_kernel(lam, a)
    c = -0.5 / kern.ik
    phi_y = kern.phis(ys)
    g_jump = c * np.exp(kern.ik * np.abs(HALF_PI * a.value - ys))
    alpha, beta = kern.coefficients(c * phi_y[:, 0] - g_jump, c * phi_y[:, 1] - g_jump)
    return (c * np.exp(kern.ik * np.abs(np.subtract.outer(xs, ys)))
            + kern.phis(xs) @ np.stack([alpha, beta]))


def complex_probe_singular_values(lam: complex, a: ParamA, n: int) -> np.ndarray:
    """Singular values of the quadrature-weighted kernel on `nystrom_nodes`,
    the probe the package ran before it took the exact sine-basis matrix,
    here with the complex-arithmetic kernel and a complex SVD.  The kernel
    has a kink on its diagonal, so they converge like h^2."""
    nodes, weights = nystrom_nodes(lam, a, n)
    sq = np.sqrt(weights)
    mat = sq[:, None] * complex_kernel_matrix(lam, a, nodes, nodes) * sq[None, :]
    return np.linalg.svd(mat, compute_uv=False)


def complex_sine_matrix(lam: complex, a: ParamA, n: int) -> np.ndarray:
    """The matrix `resolvent.sine_matrix` holds, assembled in complex128 at
    every lambda: d_j, u_j and v_j of complex lambda (sin(j pi (1+a)/2)
    reduced in turns mod 2), c = cos(k pi/2)/(-2 sin(k pi (1+a)/4)
    sin(k pi (1-a)/4)) by cmath where the package takes it from the
    kernel's factors 1 - E, 1 - P, 1 - Q, and the resonant row, column and
    diagonal kept complex where the package drops their rounding-only
    imaginary parts."""
    lam = complex(lam)
    mat = resolvent.sine_matrix(lam, a, n)
    k = cmath.sqrt(lam)
    c = cmath.cos(k * HALF_PI) / (-2 * cmath.sin(k * HALF_PI * (1 + a.value) / 2)
                                   * cmath.sin(k * HALF_PI * (1 - a.value) / 2))
    j = np.arange(1, n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = 1 / (j * j - lam)
        u = np.append(math.sqrt(8 / math.pi) * j * (j % 2) * d, mat.u[-1])
        y = np.append(math.sqrt(2 / math.pi) * d
                      * np.sin(math.pi * np.remainder(j * (1 + a.value) / 2, 2)), mat.y[-1])
    resonant = mat.resonant
    if resonant:
        m = resonant[0]
        resonant = (m, *resolvent._zone_entries(lam, a.value, m))
        d[m - 1] = u[m - 1] = y[m - 1] = 0
    return sine_matrix_dense(resolvent.SineMatrix(np.append(d, 0), c, u, y, resonant))


def sine_matrix_dense(mat: resolvent.SineMatrix) -> np.ndarray:
    """The (N+1) x (N+1) array of a `resolvent.SineMatrix`: diag(d) + c u y^T,
    with row m, column m and the diagonal entry of `resonant` written over
    it in the zone.  The probe took LAPACK's SVD of this array next to odd
    squares before it took the zone's singular values by secular solves."""
    out = np.outer(mat.c * mat.u, mat.y)
    out[np.diag_indices_from(out)] += mat.d
    if mat.resonant:
        m, cu_m, cv_m, diag = mat.resonant
        out[m - 1] = cu_m * mat.y
        out[:, m - 1] = mat.u * cv_m
        out[m - 1, m - 1] = diag
    return out


# The secular route of `resolvent` (`_secular_roots`, `dpr1_singular_values`)
# as it stood before its solves took preallocated blocks, copied verbatim
# as a differential oracle: 256-row blocks with fresh temporaries on every
# pass, f and f' summed over the whole row again after psi and psi', and no
# error when the passes run out.
ALLOCATING_BLOCK_ROWS, ALLOCATING_PASSES = 256, 100


def allocating_secular_roots(p: np.ndarray, w: np.ndarray,
                             rho: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The roots s_1 < s_2 < ... of rho + sum_i w_i/(p_i - s) = 0 for
    ascending, distinct poles p and weights w > 0: one in each (p_j, p_j+1),
    and for rho = 1 a last one in (p_n, p_n + sum w), as (K, tau) with
    s_j = p_K + tau_j: K is the nearer pole, so p_i - s_j = (p_i - p_K) - tau_j
    keeps its digits.  All roots of a block of rows iterate at once on the
    model that keeps f and f' and the two poles about the root (Li's middle
    way; the last root takes its two left poles), inside the bracket that
    the sign of f keeps: a step that leaves it bisects, except that the last
    root may step onto its upper bound."""
    n, total = len(p), float(w.sum())
    count = max(n if rho else n - 1, 0)
    origin, tau = np.empty(count, dtype=np.int64), np.empty(count)
    for start in range(0, count, ALLOCATING_BLOCK_ROWS):
        j = np.arange(start, min(start + ALLOCATING_BLOCK_ROWS, count))
        last = j == n - 1
        right = np.minimum(j + 1, n - 1)
        half = np.where(last, total, p[right] - p[j]) / 2
        f_mid = rho + (w / (p - (p[j] + half)[:, None])).sum(1)
        left = (f_mid >= 0) | last  # the root is in (p_j, p_j + half]
        K = np.where(left, j, right)
        lo = np.where(left, 0.0, -half)
        hi = np.where(left, np.where(last, 2 * half, half), 0.0)
        t = (lo + hi) / 2
        gaps = p - p[K][:, None]
        split = np.minimum(j, n - 2)  # poles <= split lie left of the model's two
        c0, c1 = max(start - 1, 0), min(start + ALLOCATING_BLOCK_ROWS + 1, n)
        tri = np.arange(c0, c1) <= split[:, None]
        act = np.arange(len(j))
        for _ in range(ALLOCATING_PASSES):
            if not len(act):
                break
            dist = gaps[act] - t[act, None]
            terms = w / dist
            r = np.arange(len(act))
            d2 = dist[r, split[act] + 1]
            d1 = dist[r, split[act]] if n > 1 else d2 - 1  # one pole: b = 0, any d1 < d2
            slope = np.divide(terms, dist, out=dist)
            psi = terms[:, :c0].sum(1) + (terms[:, c0:c1] * tri[act]).sum(1)
            dpsi = slope[:, :c0].sum(1) + (slope[:, c0:c1] * tri[act]).sum(1)
            f = rho + terms.sum(1)
            dphi = slope.sum(1) - dpsi
            ta, lo_a, hi_a = t[act], lo[act], hi[act]
            lo_a = np.where(f < 0, ta, lo_a)
            hi_a = np.where(f >= 0, ta, hi_a)
            b, e = dpsi * d1 ** 2, dphi * d2 ** 2
            cc = f - b / d1 - e / d2
            with np.errstate(all="ignore"):
                # cc eta^2 - B eta + d1 d2 f = 0, the model's zero
                bb = cc * (d1 + d2) + b + e
                q = bb + np.copysign(np.sqrt(np.maximum(bb * bb - 4 * cc * d1 * d2 * f, 0)), bb)
                r1, r2 = 2 * d1 * d2 * f / q, q / (2 * cc)
                eta = np.where(last[act], np.maximum(r1, r2),
                               np.where((r1 > d1) & (r1 < d2), r1, r2))
            bound = 8 * EPS * (rho + np.abs(psi) + np.abs(f - rho - psi))
            done = ((np.abs(eta) <= 4 * EPS * np.abs(ta)) | (np.abs(f) <= bound)
                    | (hi_a - lo_a <= 4 * EPS * np.abs(ta)))
            step = ta + np.where(done, 0.0, eta)
            # the last root's hi is no pole and f(hi) >= 0: a step past it stops there
            top = ~done & last[act] & (step >= hi_a) & (ta < hi_a)
            bad = ~done & ~top & ~((step > lo_a) & (step < hi_a))
            t[act] = np.where(top, hi_a, np.where(bad, (lo_a + hi_a) / 2, step))
            lo[act], hi[act] = lo_a, hi_a
            act = act[~done]
        origin[j], tau[j] = K, t
    return origin, tau


def allocating_dpr1_singular_values(d: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Singular values, descending, of diag(d) + x y^T in O(n^2) memory-light
    blocks.  A unitary diagonal makes it M = |D| + x' y^T; with xh = x'/|x'|,
    M = P|D| + xh r (P = I - xh xh*, r = xh*|D| + |x'| y^T), so
    M*M = |D| P |D| + r* r.  Step A: |D| P |D| = Delta - g g*, g = |D| xh,
    a rank-one downdate of Delta = |D|^2 (one secular solve; g vanishes
    where x does), with eigenvectors W_j ~ (Delta - mu_j)^{-1} g.  Step B:
    the singular values of [diag(sqrt(mu)); r W], an update by zeta = r W
    (a second solve).  Weights below eps of their vector's norm deflate,
    and so do ties |d_i| = |d_j| (equal omegas in step B) within 8 eps of
    their size: 2.5 + i ties |d_1| with |d_2|, 5 |d_1| with |d_3|.  A tie
    tolerance absolute in ||M|| would chain: near a pole it merged 31
    neighbours at 1/3, 144 + 6e-5 and left sigma_1 51 eps off."""
    ad = np.abs(d)
    phase = np.where(ad > 0, d / np.where(ad > 0, ad, 1.0), 1.0)
    xp = x / phase
    nx = float(np.linalg.norm(xp))
    if nx == 0:
        return np.sort(ad)[::-1]
    xh = xp / nx
    g = ad * xh
    live = (np.abs(xh) > EPS) & (ad > 0)
    # deflated in step A: the eigenvector e_i, zeta_i = conj(g_i) + |x'| y_i
    omega, zeta = [ad[~live]], [np.conj(g[~live]) + nx * y[~live]]
    order = np.nonzero(live)[0][np.argsort(ad[live])]
    da, wa = ad[order], np.abs(g[order])
    gph = g[order] / wa
    rt, yt = wa + nx * y[order] * gph, y[order] * gph  # r and y on W's real basis
    keep = np.ones(len(da), dtype=bool)
    for i in np.nonzero(np.diff(da) <= 8 * EPS * da[1:])[0]:  # a tie: i's weight into i + 1
        rho = math.hypot(wa[i], wa[i + 1])
        ci, cj = wa[i] / rho, wa[i + 1] / rho
        omega.append(da[i:i + 1])
        zeta.append(np.array([cj * rt[i] - ci * rt[i + 1]]))
        wa[i + 1], rt[i + 1] = rho, ci * rt[i] + cj * rt[i + 1]
        yt[i + 1] = ci * yt[i] + cj * yt[i + 1]
        keep[i] = False
    da, wa, yt = da[keep][::-1], wa[keep][::-1], yt[keep][::-1]
    # step A: 1 - sum g^2/(delta - mu) = 0 with g_i^2 = delta_i |xh_i|^2 is
    # rho0/(0 - mu) + sum |xh_i|^2/(delta_i - mu) = 0, rho0 = 1 - sum |xh_i|^2
    # over the live i, summed over the others: near an odd square xh lies
    # almost along one mode and the 1 would cancel (5.7e-12 off in mu, 144
    # eps sigma_1 in the end at 1/3, 2599.09, N = 256).  Poles p = -delta,
    # ascending, with the pole 0 on top; mu = 0 is a root when rho0 = 0.
    rho0 = float(np.sum(np.abs(xh[~live]) ** 2))
    p_a = -da ** 2
    poles, weights = np.append(p_a, 0.0), np.append((wa / da) ** 2, rho0)
    top = len(p_a) + bool(rho0)  # the pole 0 takes part only with a weight
    K, tau = allocating_secular_roots(poles[:top], weights[:top], rho=0.0)
    if not rho0:
        K, tau = np.append(K, len(p_a)), np.append(tau, 0.0)
    mu = -(poles[K] + tau)
    zeta_a = np.empty(len(p_a), dtype=np.result_type(yt, float))
    for start in range(0, len(p_a), ALLOCATING_BLOCK_ROWS):
        rows = slice(start, start + ALLOCATING_BLOCK_ROWS)
        vec = wa / (tau[rows, None] - (p_a - poles[K[rows]][:, None]))  # g/(delta - mu)
        # numpy's pairwise sums: with a BLAS dot the values at a = 0, lambda = 26,
        # N = 2048 came out 38 eps sigma_1 off the dense SVD, with these 6
        zeta_a[rows] = (1 + nx * (vec * yt).sum(1)) / np.sqrt((vec * vec).sum(1))
    omega.append(np.sqrt(np.maximum(mu, 0.0)))
    zeta.append(zeta_a)
    om, ze = np.concatenate(omega), np.abs(np.concatenate(zeta))
    # step B: 1 + sum zeta^2/(omega^2 - s) = 0
    small = ze <= EPS * np.linalg.norm(ze)
    out = [om[small]]
    om, ze = om[~small], ze[~small]
    order = np.argsort(om)
    om, w = om[order], ze[order] ** 2
    keep = np.ones(len(om), dtype=bool)
    for i in np.nonzero(np.diff(om) <= 8 * EPS * om[1:])[0]:
        out.append(om[i:i + 1])
        w[i + 1] += w[i]
        keep[i] = False
    p_b = om[keep] ** 2
    K, tau = allocating_secular_roots(p_b, w[keep])
    out.append(np.sqrt(p_b[K] + tau))
    return np.sort(np.concatenate(out))[::-1]


_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


def particular_solution(k: complex, f, xs: np.ndarray) -> np.ndarray:
    """u_p(xs) = (i/2k) int e^{ik|x-y|} f(y) dy for a callable f, Im k >= 0,
    by panel quadrature: an oracle for small frequencies of f only.

    The evaluation points and an even grid of step <= 4/|k| cut
    [-pi/2, pi/2] into panels, so no panel crosses the kernel kink.  GL12
    integrates f on every panel against the exponential that decays
    away from its right (left) end, and the two sweeps

        L_{j+1} = e^{ik h_j} L_j + int_j e^{ik(x_{j+1} - y)} f,
        R_j     = e^{ik h_j} R_{j+1} + int_j e^{ik(y - x_j)} f

    carry the one-sided integrals across, multiplying only by factors of
    modulus <= 1.  The panels are sized by |k|, not by the frequencies of
    f, so f must be resolved by GL12 on panels of length ~4/max(|k|, 1).
    """
    xs = np.asarray(xs, dtype=float)
    n_even = int(math.ceil(math.pi * max(abs(k), 1.0) / 4.0)) + 1
    edges, where = np.unique(np.concatenate((np.linspace(-HALF_PI, HALF_PI, n_even),
                                             np.clip(xs, -HALF_PI, HALF_PI))),
                             return_inverse=True)
    half = 0.5 * np.diff(edges)[:, None]
    ys = edges[:-1, None] + half * (1.0 + _GL12_X)
    wf = half * _GL12_W * np.asarray(f(ys.ravel()), dtype=complex).reshape(ys.shape)
    ik = 1j * k
    left = np.sum(wf * np.exp(ik * (edges[1:, None] - ys)), axis=1)
    right = np.sum(wf * np.exp(ik * (ys - edges[:-1, None])), axis=1)
    step = np.exp(ik * 2.0 * half[:, 0]).tolist()

    def sweep(acc, term):
        return acc * term[0] + term[1]

    lsum = list(accumulate(zip(step, left.tolist()), sweep, initial=0j))
    rsum = list(accumulate(zip(step[::-1], right.tolist()[::-1]), sweep,
                           initial=0j))[::-1]
    up = (0.5j / k) * (np.array(lsum) + np.array(rsum))
    return up[where[n_even:]]


def quadrature_resolvent(lam: complex, f, a: ParamA, xs: np.ndarray) -> np.ndarray:
    """u = (H - lambda)^{-1} f at xs for a callable f: the panel-sweep u_p
    and the package's three-point coefficients (`ResolventKernel`)."""
    kern = ResolventKernel.build(lam, a)
    xs = np.asarray(xs, dtype=float)
    up = particular_solution(kern.k, f, np.concatenate(
        (xs, [-HALF_PI, HALF_PI * a.value, HALF_PI])))
    u_m, u_b, u_p = up[-3:]
    return up[:-3] + kern.phis(xs) @ np.array(kern.coefficients(u_m - u_b, u_p - u_b))


def stencil_residual(lam: complex, f, a: ParamA, u_at, n: int = 4096) -> dict:
    """Uniform-grid diagnostics of u = u_at(xs), such as
    `quadrature_resolvent` of a callable f or the package's closed form:
    the boundary deviation and the residual -u'' - lambda u - f under
    4th-order central differences, over max(1, max |f|)."""
    h = math.pi / n
    xs = np.linspace(-HALF_PI, HALF_PI, n + 1)
    u = u_at(np.append(xs, HALF_PI * a.value))
    u, u_b = u[:-1], u[-1]
    fv = np.asarray(f(xs), dtype=complex)
    upp = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
    resid = -upp - lam * u[2:-2] - fv[2:-2]
    return {"boundary_deviation": float(max(abs(u[0] - u_b), abs(u[-1] - u_b))),
            "pde_residual": float(np.max(np.abs(resid)) / max(1.0, float(np.max(np.abs(fv)))))}


def _mp_rows(terms: Terms):
    """(p, c, k, theta) of each row at mp precision, theta = s - q pi/2 with
    exact quarter turns."""
    return [(int(p), mp.mpc(complex(c)), mp.mpf(float(k)), mp.mpf(float(s)) - int(q) * mp.pi / 2)
            for p, c, k, s, q in zip(terms.p, terms.c, terms.k, terms.s, terms.q)]


def _mp_particular(rows, lam, x):
    """(value, derivative) at x of the textbook particular solution of
    -u'' - lambda u = sum of rows: T/d, xT/d + 2T'/d^2 (d = k_j^2 - lambda),
    and x T'/(2 k_j^2) for a p = 0 row at d = 0."""
    val = der = mp.mpc(0)
    for p, c, k, th in rows:
        d = k * k - lam
        cs, sn = mp.cos(k * x + th), mp.sin(k * x + th)
        if p == 0 and d == 0:
            val += -c * x * sn / (2 * k)
            der += -c * (sn + k * x * cs) / (2 * k)
        elif p == 0:
            val += c * cs / d
            der += -c * k * sn / d
        else:
            val += c * (x * cs / d - 2 * k * sn / d ** 2)
            der += c * (cs / d - k * x * sn / d - 2 * k * k * cs / d ** 2)
    return val, der


def mp_three_point_solve(lam: complex, f: PiecewiseTrig, a: ParamA, xs: np.ndarray,
                         dps: int = 50) -> np.ndarray:
    """u = (H - lambda)^{-1} f at xs, solved at `dps` digits
    (`mp_three_point_function`)."""
    with mp.workdps(dps):
        u = mp_three_point_function(lam, f, a)
        return np.array([complex(u(x)) for x in map(mp.mpf, np.asarray(xs, dtype=float))])


def mp_three_point_function(lam: complex, f: PiecewiseTrig, a: ParamA):
    """u = (H - lambda)^{-1} f as a function of an mp point, at the working
    precision, which the caller sets and keeps for the calls; a route of
    its own: on each piece of f the textbook particular solution
    (`_mp_particular`) plus C cos(kx) + D sin(kx)/k, and one linear solve
    for all C, D of the three-point condition and, where f has a
    breakpoint, the C^1 match there.

    The three points are the floats -pi/2, pi a/2, pi/2 as the package
    rounds them (HALF_PI, HALF_PI * a.value), exactly: a shift of a point by
    one ulp moves u by ulp |u'|, which is K eps relative to max |u| for a
    forcing sin(Kx), so the exact pi would measure that shift, not the solve.
    A reference for any a in (-1, 1), lambda off the spectrum and f without
    a p = 1 term at resonance.
    """
    lam = mp.mpc(complex(lam))
    k = mp.sqrt(lam)
    h, b = mp.mpf(HALF_PI), mp.mpf(HALF_PI * a.value)
    cuts = [mp.mpf(p.hi) for p in f.pieces[:-1]]
    pieces = [_mp_rows(p.terms) for p in f.pieces]
    n = 2 * len(pieces)

    def piece_of(x):
        return sum(x > cut for cut in cuts)

    def basis(x, i, der=False):
        """Row of the linear system: the homogeneous part at x on piece i."""
        row = [mp.mpc(0)] * n
        row[2 * i], row[2 * i + 1] = ((-k * mp.sin(k * x), mp.cos(k * x)) if der
                                      else (mp.cos(k * x), mp.sin(k * x) / k))
        return row

    def sub(r1, r2):
        return [u - v for u, v in zip(r1, r2)]

    rows, rhs = [], []
    for x in (-h, h):  # u(x) = u(b)
        i, j = piece_of(x), piece_of(b)
        rows.append(sub(basis(x, i), basis(b, j)))
        rhs.append(_mp_particular(pieces[j], lam, b)[0] - _mp_particular(pieces[i], lam, x)[0])
    for i, cut in enumerate(cuts):  # C^1 across the breakpoint
        for der in (False, True):
            rows.append(sub(basis(cut, i + 1, der), basis(cut, i, der)))
            rhs.append(_mp_particular(pieces[i], lam, cut)[der]
                       - _mp_particular(pieces[i + 1], lam, cut)[der])
    coef = mp.lu_solve(mp.matrix(rows), mp.matrix(rhs))

    def u(x):
        i = piece_of(x)
        return (_mp_particular(pieces[i], lam, x)[0]
                + mp.fsum(r * c for r, c in zip(basis(x, i), coef)))
    return u


def mp_sine_entries(lam: complex, a: ParamA, size: int, dps: int = 50,
                    nodes: int = 64) -> np.ndarray:
    """<e_m, (H - lambda)^{-1} e_n> for m, n <= size, e_n = sqrt(2/pi)
    sin(n (x + pi/2)): u = R e_n by `mp_three_point_function`, e_n written
    as +-sqrt(2/pi) cos(nx) (odd n) or sin(nx) (even n) so no quarter turn
    is rounded, and <e_m, u> by `nodes`-point Gauss-Legendre at `dps`
    digits on (-pi/2, pi/2), where both are analytic."""
    out = np.empty((size, size), dtype=complex)
    with mp.workdps(dps):
        xs, ws = _mp_gauss_legendre(nodes, dps)
        half = mp.pi / 2
        pts = [half * x for x in xs]

        def e(n, x):
            return mp.sqrt(2 / mp.pi) * mp.sin(n * (x + half))

        basis = [[e(m, x) for x in pts] for m in range(1, size + 1)]
        for n in range(1, size + 1):
            sign, wave = (-1) ** (n // 2), (cos_term if n % 2 else sin_term)
            f = PiecewiseTrig.single(wave(sign * math.sqrt(2 / math.pi), float(n)))
            u = mp_three_point_function(lam, f, a)
            vals = [u(x) for x in pts]
            for m in range(size):
                out[m, n - 1] = complex(half * mp.fsum(w * b * v for w, b, v in
                                                       zip(ws, basis[m], vals)))
    return out


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


def printed_root_vectors(rec, a: ParamA) -> tuple[list, list]:
    """The record's raw root vectors (constants 1) as printed, each built on
    its own from one-term sums that Piece merges: forward [psi] or
    [psi1, psi2, xi], adjoint [phi] or [phi1, phi2, eta]."""
    av, k, xb = a.value, rec.k, HALF_PI * a.value
    single, split = PiecewiseTrig.single, PiecewiseTrig.split
    left_sine = split(xb, [sin_term(1.0, k, k * HALF_PI)], [])
    right_sine = split(xb, [], [sin_term(1.0, k, -k * HALF_PI)])
    if rec.case is SpectralCase.EXCEPTIONAL_PAIR:
        m = rec.class_index(-1)
        pref = -(1 - av) / (64 * m * m)
        xi = single([cos_term(pref * (1 - av), k), xsin_term(pref * 8 * m, k)])

        def eta_piece(amp: float, sgn: float) -> list:
            pref = amp * (1 - av) / (64 * m * m)
            shift = sgn * k * HALF_PI
            return [xcos_term(pref * 8 * m, k, shift),
                    cos_term(pref * 8 * m * sgn * HALF_PI, k, shift),
                    sin_term(-pref * (1 - av), k, shift)]

        eta = split(xb, eta_piece(1 - av, 1.0), eta_piece(-(1 - av) * (1 + av) / (1 - av), -1.0))
        return ([single([sin_term(1.0, k)]), single([cos_term(1.0, k)]), xi],
                [right_sine, left_sine, eta])
    if rec.case is SpectralCase.ZERO_EV:
        return ([single([const(1.0)])],
                [split(xb, [linear(av - 1), const((av - 1) * HALF_PI)],
                       [linear(av + 1), const(-(av + 1) * HALF_PI)])])
    both_sines = split(xb, [sin_term(1.0, k, k * HALF_PI)], [sin_term(1.0, k, -k * HALF_PI)])
    if rec.case is SpectralCase.EXCEPTIONAL_ODD:
        return [single([sin_term(1.0, k)])], [both_sines]
    cls, m = rec.memberships[0]
    if cls == 0:
        th = family_angle(a, 0, m)
        return [single([cos_term(1.0, k), sin_term(th.versine / th.sin, k)])], [both_sines]
    return [single([cos_term(1.0, k)])], [right_sine if cls == -1 else left_sine]


# the printed pairings of an exceptional pair's raw vectors (the -1 class
# index m); the family inverts their 3x3 matrix in closed form, and
# mp_root_space_pairings integrates the whole matrix at 50 digits

def pairing_minus_exceptional(a: ParamA, m: int) -> tuple[float, float]:
    """((phi1, psi1), (phi2, psi1)); the psi2 pairings vanish."""
    cc = (-1) ** m * family_angle(a, -1, m).cos
    return (math.pi / 4 * (1 - a.value) * cc,
            math.pi / 4 * (1 + a.value) * cc)


def pairing_minus_generalised(a: ParamA, m: int) -> tuple[float, float]:
    """((phi1, xi), (phi2, xi)) in the -1 class exceptional situation."""
    av = a.value
    cc = (-1) ** m * family_angle(a, -1, m).cos
    base = math.pi ** 2 / (128 * m) * (1 - av) ** 2 * (1 + av) * cc
    return (-base, base)


def pairing_eta_psi2(a: ParamA, m: int) -> float:
    """(eta, psi2) with eta built from the admissible A_minus = 1-a."""
    av = a.value
    cc = (-1) ** m * family_angle(a, -1, m).cos
    return ((1 - av) * math.pi ** 2 / (64 * m)
            * (1 - av) * (1 + av) * cc)


def pairing_eta_xi(a: ParamA, m: int) -> float:
    """(eta, xi) = -sigma pi^2 (1+a)(1-a)^4/(2048 m^3); (eta, psi1) vanishes."""
    av = a.value
    cc = (-1) ** m * family_angle(a, -1, m).cos
    return -cc * math.pi ** 2 * (1 + av) * (1 - av) ** 4 / (2048 * m ** 3)


@functools.lru_cache(maxsize=None)
def _mp_gauss_legendre(n: int, dps: int) -> tuple:
    with mp.workdps(dps):
        return mp.gauss_quadrature(n, "legendre")


def mp_root_space_pairings(a: ParamA, m: int, t: int, dps: int = 50) -> mp.matrix:
    """The 3x3 pairings (phi1, eta, phi2) x (psi1, psi2, xi) of the exceptional
    pair with class -1 and +1 indices m, t, by Gauss-Legendre quadrature at
    `dps` digits of the printed vectors at the exact a (k = 2(m + t)): 24
    nodes per half wave, where the rule's error is below 1e-50.  Real, so
    no conjugate is taken."""
    with mp.workdps(dps):
        av, k, h = a.approx(dps), mp.mpf(2 * (m + t)), mp.pi / 2
        xb, scale = h * av, (1 - av) / (64 * m * m)
        nodes, weights = _mp_gauss_legendre(24, dps)
        out = mp.matrix(3, 3)
        # per piece the lone sine's row (phi2 left, phi1 right), eta's
        # amplitude A and the shift of both
        for (lo, hi), lone, amp, shift in (((-h, xb), 2, 1 - av, h), ((xb, h), 0, -(1 + av), -h)):
            panels = int(mp.ceil((hi - lo) * k / mp.pi))
            step = (hi - lo) / panels
            xs = [lo + step * (i + (node + 1) / 2) for i in range(panels) for node in nodes]
            ws = [step / 2 * weight for _ in range(panels) for weight in weights]
            cs_b, cs_t = ([mp.cos_sin(k * (x + s)) for x in xs] for s in (0, shift))
            basis = ([s for _, s in cs_b], [c for c, _ in cs_b],
                     [-scale * ((1 - av) * c + 8 * m * x * s) for x, (c, s) in zip(xs, cs_b)])
            trial = {lone: [s for _, s in cs_t],
                     1: [amp * scale * (8 * m * (x + shift) * c - (1 - av) * s)
                         for x, (c, s) in zip(xs, cs_t)]}
            for row, f in trial.items():
                wf = [w * v for w, v in zip(ws, f)]
                for col, g in enumerate(basis):
                    out[row, col] += mp.fdot(wf, g)
        return out


def lincomb(fns, coefs) -> PiecewiseTrig:
    """sum_j coefs[j] fns[j], merged once per piece with no owners: the
    functions joined, every row times its function's coefficient, and the
    rows concatenated in the order of fns and merged as one function's.
    PiecewiseTrig's + and - merge a Stack.total per owner instead, which
    must sum the same rows in the same order, bit for bit."""
    coefs = np.asarray(coefs, dtype=complex)
    return PiecewiseTrig(tuple(Piece.one(lo, hi, [terms.scaled(coefs[owners])])
                               for lo, hi, terms, owners in Stack.join(fns).pieces))


def per_pair_family(a: ParamA, lambda_max: float) -> list[tuple[PiecewiseTrig, PiecewiseTrig]]:
    """The normalized family (psi_j, phi_j) built pair by pair from the
    printed vectors: each simple dual scaled by 1/conj(pairing), and each
    root space's duals mixed from (phi1, eta, phi2) by the numeric inverse
    of its 3x3 pairing matrix, taken with inner_matrix.  That inversion is
    the second route to the closed form the package writes; its rounding
    puts it up to ~800 eps (of each dual's largest coefficient) off at 1/3
    and 7e3 eps at -9/10, where the closed form is within 16 eps of the
    50-digit inverse of mp_root_space_pairings."""
    pairs = []
    for rec in enumerate_spectrum(a, lambda_max):
        fwd, adj = printed_root_vectors(rec, a)
        if rec.case is not SpectralCase.EXCEPTIONAL_PAIR:
            pairs.append((fwd[0], adj[0].scaled(1.0 / np.conj(_simple_pairing(rec, a)))))
            continue
        trial = [adj[0], adj[2], adj[1]]
        coef = np.conj(np.linalg.inv(inner_matrix(Stack.join(trial), Stack.join(fwd))))
        pairs += [(psi, lincomb(trial, coef[j])) for j, psi in enumerate(fwd)]
    return pairs


def per_remainder_residuals(f: PiecewiseTrig, pairs, checkpoints: list[int]) -> dict[int, float]:
    """||f - sum_{j<=N} psi_j (phi_j, f)|| as one lincomb and one norm_l2
    per checkpoint: every remainder's own term pairs through the kernel."""
    coeffs = inner_matrix(pairs.phi, f)[:, 0]
    members = [pairs.psi.fn(j) for j in range(len(pairs))]
    return {n: norm_l2(lincomb([f, *members[:n]], [1.0, *-coeffs[:n]])) for n in checkpoints}


# ---------------------------------------------------------------------------
# the printed root vectors one record at a time, read off the package's rows
# ---------------------------------------------------------------------------

def eigenfunctions_Hstar(rec: EigRecord, a: ParamA) -> list[PiecewiseTrig]:
    """Adjoint eigenfunction(s) phi, or phi1 and phi2, two-piece
    representations, raw constants 1 (the raw adjoint rows of an
    exceptional pair come as phi1, eta, phi2)."""
    adjoint = _chains(a, [rec])[1]
    return [adjoint.fn(j) for j in range(0, adjoint.count, 2)]


def _generalized(rec: EigRecord, a: ParamA, side: int) -> PiecewiseTrig:
    """xi, forward member 2 (side 0), or eta, adjoint member 1 (side 1)."""
    if rec.case is not SpectralCase.EXCEPTIONAL_PAIR:
        raise CaseMismatch("generalized vectors exist only at exceptional pairs")
    return _chains(a, [rec])[side].fn(2 - side)


def generalized_xi(rec: EigRecord, a: ParamA) -> PiecewiseTrig:
    """Root vector xi with (H - lambda) xi = psi2 = cos(kx)."""
    return _generalized(rec, a, 0)


def generalized_eta(rec: EigRecord, a: ParamA) -> PiecewiseTrig:
    """Dual root vector eta with (H* - lambda) eta = phi1 + phi2.

    Admissibility forces A_minus (1+a) = -A_plus (1-a); eta takes
    A_minus = 1-a, A_plus = -(1+a).  The phi1, phi2 on the right-hand side
    carry these same constants.
    """
    return _generalized(rec, a, 1)


def root_system(rec: EigRecord, a: ParamA):
    """(psi1, psi2, xi, phi1, phi2, eta) at an exceptional pair."""
    psi1, psi2 = eigenfunctions_H(rec, a)
    phi1, phi2 = eigenfunctions_Hstar(rec, a)
    return psi1, psi2, generalized_xi(rec, a), phi1, phi2, generalized_eta(rec, a)


# ---------------------------------------------------------------------------
# inner products by adaptive panel quadrature
# ---------------------------------------------------------------------------

# quad_inner: relative change between refinements that counts as converged,
# and the node count of its first round
QUAD_TARGET = 1e-12
QUAD_START_NODES = 96


class QuadratureNotConverged(RuntimeError):
    """Adaptive panel refinement failed to reach the requested target."""


def _quad_rounds(a: ParamA | float, kmax: float, rounds: int):
    """quad_inner's min_nodes_per_piece, round by round: QUAD_START_NODES,
    doubled each round, but where the grid would repeat the last one (all
    panels at the 24-point floor) twice the last grid's larger piece."""
    n, last = QUAD_START_NODES, None
    for _ in range(rounds):
        sizes = [count * (points - 1) + 1 for *_, count, points in grid_panels(a, n, kmax)]
        n = 2 * max(sizes) if sizes == last else n
        yield n
        n, last = 2 * n, sizes


def quad_inner(stack: Stack, pairs, a: ParamA | float,
               max_rounds: int = 6) -> np.ndarray:
    """(f_i, f_j) for each index pair (i, j), a row of the (n, 2) `pairs`,
    by quadrature with panel doubling.

    Each round builds one grid, panels sized by the largest frequency of
    the family, and samples the family once on it (`Stack.values`), with
    nodes as _quad_rounds sets them; the refinement stops when every
    requested product moves by at most QUAD_TARGET * max(1, |product|).
    Each piece of the grid samples the family's pieces it overlaps, so the
    restart point, which both grid pieces hold, takes each side's one-sided
    value with that side's weight (a value jump there keeps the rule's
    order).  Only the requested products are formed, so n pairs cost n x
    nodes however large the family.  The numerical route, free of the pair
    kernel, that the closed forms and the pairings are checked against.
    """
    i, j = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    cut = HALF_PI * (a.value if isinstance(a, ParamA) else float(a))
    sides = [Stack(tuple(p for p in stack.pieces if lo < p.hi and p.lo < hi), stack.count)
             for lo, hi in ((-HALF_PI, cut), (cut, HALF_PI))]
    # the largest frequency of any row (0 for no rows) sizes the panels
    kmax = max((float(t.k.max()) for _, _, t, _ in stack.pieces if len(t)), default=0.0)
    prev = None
    for n in _quad_rounds(a, kmax, max_rounds):
        cur = 0
        for side, (nodes, weights) in zip(sides, _grid_pieces(a, n, kmax)):
            vals = side.values(nodes)
            cur = cur + np.einsum("np,p,np->n", np.conj(vals[i]), weights, vals[j])
        if prev is not None and np.all(
                np.abs(cur - prev) <= QUAD_TARGET * np.maximum(1.0, np.abs(cur))):
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"inner products did not stabilize to {QUAD_TARGET} within {max_rounds} refinements")


def quad_gram(fns: Stack, a, max_rounds: int = 6) -> np.ndarray:
    """Hermitian matrix of (f_j, f_k) by quadrature: quad_inner over
    every index pair of the family."""
    pairs = np.indices((fns.count, fns.count)).reshape(2, -1).T
    return quad_inner(fns, pairs, a, max_rounds).reshape(fns.count, fns.count)


# ---------------------------------------------------------------------------
# projection norms and the metric report one member at a time
# ---------------------------------------------------------------------------

def per_record_quadrature_norms(a: ParamA, lambda_max: float) -> list[float]:
    """The quadrature side of `projection_norms`, record by record from the
    printed vectors: ||psi|| ||phi|| / |(phi, psi)| from one quad_gram of
    the pair alone, on a grid sized by the pair's own frequency."""
    out = []
    for rec in enumerate_spectrum(a, lambda_max):
        fwd, adj = printed_root_vectors(rec, a)
        partners = adj if len(adj) == 1 else [adj[0], adj[2], adj[1]]
        for psi, phi in zip(fwd, partners):
            g = quad_gram(Stack.join([psi, phi]), a)
            out.append(math.sqrt(g[0, 0].real) * math.sqrt(g[1, 1].real) / abs(complex(g[1, 0])))
    return out


def banded_quadrature_norms(a: ParamA, lambda_max: float, band: int = 16) -> list[float]:
    """||psi|| ||phi|| / |(phi, psi)| of every projection up to lambda_max by
    quad_inner: the raw root vectors of each band of records from one
    `_chains` call (adjoint j partners forward j), sampled on a grid sized
    by the band's own largest frequency."""
    records, out = enumerate_spectrum(a, lambda_max), []
    for r in range(0, len(records), band):
        fwd, adj = _chains(a, records[r:r + band])
        n = np.arange(fwd.count)
        psi_sq, phi_sq, cross = quad_inner(Stack.join((fwd, adj)), np.column_stack(
            (np.r_[n, n + fwd.count, n + fwd.count], np.r_[n, n + fwd.count, n])), a).reshape(3, -1)
        out += list(np.sqrt(psi_sq.real) * np.sqrt(phi_sq.real) / np.abs(cross))
    return out


def _term_rows(rows: list[tuple]) -> Terms:
    """Terms of (p, c, k, s, q) rows, merged."""
    if not rows:
        return Terms.concat(())
    p, c, k, s, q = zip(*rows)
    return Terms(np.array(p, dtype=np.int64), np.array(c, dtype=complex), np.array(k, dtype=float),
                 np.array(s, dtype=float), np.array(q, dtype=np.int64)).merged()


def _rows(terms: Terms) -> zip:
    return zip(terms.p, terms.c, terms.k, terms.s, terms.q)


def _antisymmetrized(terms: Terms, centre: float) -> Terms:
    """(f(x) - f(centre - x))/2, one term at a time: with u = centre - x,
    c u^p cos(k u + s - q pi/2) = c u^p cos(kx - (k centre + s) + q pi/2),
    and u^p is 1 or centre - x."""
    rows = []
    for p, c, k, s, q in _rows(terms):
        rows.append((p, 0.5 * c, k, s, q))
        shift = -(k * centre + s)
        rows.append((0, -0.5 * c * (centre if p else 1.0), k, shift, -q))
        if p:
            rows.append((1, 0.5 * c, k, shift, -q))
    return _term_rows(rows)


def _derivative(f: PiecewiseTrig) -> PiecewiseTrig:
    """f', one term at a time: (c x^p cos(t))' = p c cos(t) - k c x^p sin(t),
    with -sin(t) = cos(t + pi/2) one quarter turn less."""
    return PiecewiseTrig(tuple(
        Piece.one(piece.lo, piece.hi, _term_rows(
            [row for p, c, k, s, q in _rows(piece.terms)
             for row in ([(0, c, k, s, q)] if p else []) + [(p, k * c, k, s, q - 1)]]))
        for piece in f.pieces))


def theta_one_member(a: ParamA, phi0: PiecewiseTrig, f: PiecewiseTrig) -> PiecewiseTrig:
    """Theta f of one single-piece f: phi0 (phi0, f) by inner_closed, P0 f
    as one PiecewiseTrig and (P- (+) P+) f as a split one, added with +."""
    if f.breakpoint is not None:
        raise DomainViolation("theta_one_member needs a single-piece f")
    terms, av = f.pieces[0].terms, a.value
    p_center = PiecewiseTrig.single(_antisymmetrized(terms, 0.0))
    p_pieces = PiecewiseTrig.split(HALF_PI * av, _antisymmetrized(terms, -HALF_PI * (1 - av)),
                                   _antisymmetrized(terms, HALF_PI * (1 + av)))
    return phi0.scaled(inner_closed(phi0, f)) + p_center + p_pieces


def per_member_metric_report(a: ParamA, pairs) -> dict:
    """`MetricOp.root_system_report`'s positivity, kappa ratio and
    intertwining residual by a route of its own, one member at a time, and
    the n x n off-diagonal max_{i != j} |(psi_i, Theta psi_j)|/(||psi_i||
    ||psi_j||) that its max_root_residual bounds: each psi_j checked by
    validate_domain_H, Theta psi_j by theta_one_member, every entry
    (psi_i, Theta psi_j) and norm by inner_closed, and the intertwining
    residual -(Theta psi)'' + Theta(psi'') with derivatives taken term by
    term."""
    phi0 = phi_zero_mode(a)
    psis = [pairs.psi.fn(j) for j in range(len(pairs))]
    for psi in psis:
        report = validate_domain_H(psi, a, tol=1e-9)
        if not report.in_domain:
            raise DomainViolation("; ".join(report.violations))
    theta_psis = [theta_one_member(a, phi0, psi) for psi in psis]
    psi_norms = np.array([norm_l2(psi) for psi in psis])
    phi_norms = np.array([norm_l2(pairs.phi.fn(j)) for j in range(len(pairs))])
    gram = np.array([[inner_closed(psi, tpsi) for tpsi in theta_psis] for psi in psis])
    c_rel = gram.diagonal().real / psi_norms ** 2
    scaled = np.abs(gram) / np.outer(psi_norms, psi_norms)
    np.fill_diagonal(scaled, 0.0)
    residual = max(
        norm_l2(theta_one_member(a, phi0, _derivative(_derivative(psi)))
                - _derivative(_derivative(tpsi))) / norm
        for psi, tpsi, norm in zip(psis, theta_psis, psi_norms))
    return {
        "positivity_min": float(c_rel.min()),
        "max_offdiagonal": float(scaled.max()),
        "max_kappa_ratio": float(np.max(c_rel * psi_norms * phi_norms)
                                 / (norm_l2(phi0) ** 2 + 2)),
        "max_intertwining_residual": float(residual),
    }

# ---------------------------------------------------------------------------
# the closed-form pair kernel with its own sin and cos per pair
# ---------------------------------------------------------------------------

# cos and sin of r quarter turns, indexed by r mod 4
_COS_QUARTER = np.array([1.0, 0.0, -1.0, 0.0])
_SIN_QUARTER = np.array([0.0, 1.0, 0.0, -1.0])
# difference and sum waves of cos A cos B = (cos(A - B) + cos(A + B))/2
_WAVE_SIGNS = np.array([-1, 1])


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
    """Integrals over [lo, hi] of conj(f) g, elementwise over the broadcast
    of f's and g's arrays (f[:, None] against g gives every pair).

    About the midpoint m, x = m + t, term j is c_j (m + t)^p_j
    cos(k_j t + theta_j - q_j pi/2) with theta_j = k_j m + s_j; the product
    of two terms is half the sum of two waves (difference and sum, stacked
    on a leading axis) with w = k_i -+ k_j and phase theta_i -+ theta_j.
    """
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    (th_f, th_f_lo), (th_g, th_g_lo) = _midpoint_phase(f, m), _midpoint_phase(g, m)
    signs = _WAVE_SIGNS.reshape((2,) + (1,) * max(th_f.ndim, th_g.ndim))
    phase, phase_lo = _two_sum(th_f, signs * th_g)
    phase_lo = phase_lo + (th_f_lo + signs * th_g_lo)
    both = _wave_integrals(f.p + g.p, f.k + signs * g.k,
                           phase, phase_lo, f.q + signs * g.q, m, h)
    return 0.5 * np.conj(f.c) * g.c * (both[0] + both[1])


def per_pair_trig_blocks(f: Terms, g: Terms, lo: float, hi: float):
    """funcspace._pair_blocks by _pair_integrals, which takes the sin and
    cos of both waves' u and phase pair by pair: the same (rows, integrals)
    blocks, so that patched in for it, inner_matrix and the key Gram of
    norms reduce the old kernel's integrals exactly as they reduce the
    package's."""
    step = max(1, _PAIR_BLOCK // max(len(g), 1))
    for r in range(0, len(f), step):
        rows = slice(r, r + step)
        yield rows, _pair_integrals(f[rows, None], g, lo, hi)


# ---------------------------------------------------------------------------
# a function's own partition, piece lookup and inner-product loop
# ---------------------------------------------------------------------------

def terms_on(f: PiecewiseTrig, lo: float, hi: float) -> Terms:
    """The terms of f valid on (lo, hi), found by f's own pieces; the
    interval must lie within one piece."""
    mid = 0.5 * (lo + hi)
    for p in f.pieces:
        if p.lo - 1e-12 <= mid <= p.hi + 1e-12:
            return p.terms
    raise OutOfDomain(f"interval ({lo}, {hi}) outside the domain")


def _function_edges(fns) -> list[float]:
    """-pi/2, the breakpoints of all fns, pi/2, sorted."""
    return sorted({-HALF_PI, HALF_PI} | {fn.breakpoint for fn in fns if fn.breakpoint is not None})


def per_function_stack(fns) -> Stack:
    """Stack.join of the functions, built from the functions themselves:
    per segment of their breakpoints, each function's terms_on in order,
    owners by repeat."""
    edges = _function_edges(fns)
    parts = [(lo, hi, [terms_on(fn, lo, hi) for fn in fns]) for lo, hi in zip(edges, edges[1:])]
    return Stack(tuple(Piece(lo, hi, Terms.concat(part),
                        np.repeat(np.arange(len(fns)), [len(t) for t in part]))
                       for lo, hi, part in parts), len(fns))


def per_segment_inner(f: PiecewiseTrig, g: PiecewiseTrig) -> complex:
    """(f, g) summed segment by segment of the two functions' breakpoints,
    every pair block's integrals added in turn, with no Stack."""
    total = 0j
    edges = _function_edges((f, g))
    for lo, hi in zip(edges, edges[1:]):
        for _, vals in _pair_blocks(terms_on(f, lo, hi), terms_on(g, lo, hi), lo, hi):
            total += vals.sum()
    return complex(total)


# ---------------------------------------------------------------------------
# the two norms funcspace.norms chooses between, as each stood on its own
# ---------------------------------------------------------------------------

def norms_local(stack: Stack) -> np.ndarray:
    """L2 norms of a Stack's functions, each from its own rows by
    inner_pairs, after each piece's rows are rewritten as x^p cos(k(x - m))
    and x^p sin(k(x - m)) about its midpoint m (the phase from _row_factors,
    Dekker low part included) and merged per owner: waves that cancel as
    functions cancel in their amplitudes, not in O(1) integrals."""
    pieces = []
    for lo, hi, terms, owners in stack.pieces:
        m = 0.5 * (lo + hi)
        c, k, phase, *_ = _row_factors(terms, m, 0.5 * (hi - lo))
        shift, zero = -k * m, np.zeros(len(terms), dtype=np.int64)
        waves = Terms.concat((Terms(terms.p, c * phase.real, k, shift, zero),
                              Terms(terms.p, -c * phase.imag, k, shift, zero + 1)))
        pieces.append(Piece(lo, hi, *_merge_rows(waves, np.concatenate((owners, owners)))))
    merged = Stack(tuple(pieces), stack.count)
    return np.sqrt(np.maximum(inner_pairs(merged, merged).real, 0.0))


def norms_l2(stack: Stack) -> np.ndarray:
    """L2 norms of a Stack's functions from one term Gram per piece of
    their rows as they are: with I the integrals of conj(t_u) t_v over the
    distinct keys (p, q, k, s) of all their terms and c_f the coefficients
    of f on those keys, ||f||^2 = c_f^H I c_f.  Waves that cancel as
    functions leave O(1) integrals to cancel (up to 1.5e-8 at k ~ 1e5)."""
    squares = np.zeros(stack.count)
    for lo, hi, terms, owners in stack.pieces:
        order, starts = terms.key_runs()
        keys = terms[order[starts]]
        keys.c = np.ones(len(keys), dtype=complex)
        gram = np.empty((len(keys), len(keys)), dtype=complex)
        for rows, vals in _pair_blocks(keys, keys, lo, hi):
            gram[rows] = vals
        coef = np.zeros((len(keys), stack.count), dtype=complex)
        key = np.repeat(np.arange(len(starts)), np.diff(np.append(starts, len(order))))
        np.add.at(coef, (key, owners[order]), terms.c[order])
        squares += np.real(np.sum(np.conj(coef) * (gram @ coef), axis=0))
    return np.sqrt(np.maximum(squares, 0.0))
