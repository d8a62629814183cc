import math
import sys
import types
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from jumpspec import resolvent
from jumpspec.eigensystem import biorthogonalize, eigenfunctions_H
from jumpspec.funcspace import PiecewiseTrig, Stack, const, cos_term, grid_nodes, sin_term
from jumpspec.param import ParamA
from jumpspec.resolvent import (
    PoleAtDirichletEigenvalue, PoleAtEigenvalue, ResolventKernel, ResonantForcing,
    apply_resolvent, residual_report, sine_matrix, singular_value_probe,
)
from jumpspec.spectrum import enumerate_spectrum
from rank_one_oracle import (
    dirichlet_resolvent_values, green0, h_profile, rank_one_kernel,
)
from reference_oracles import (
    char_det, complex_kernel_matrix, complex_sine_matrix, kernel_matrix, mp_three_point_solve,
    quadrature_resolvent, sine_matrix_dense, stencil_residual,
)
from util import linear, xcos_term

HALF_PI = math.pi / 2
EPS = np.finfo(float).eps
ONE = PiecewiseTrig.single(const(1.0))
SIN3_HALF = PiecewiseTrig.single([sin_term(1.0, 3.0), const(0.5)])


def test_green0_vanishes_on_the_boundary():
    for lam in (-1.0, 2.5 + 1j):
        for y in (-0.3, 0.0, 1.2):
            assert abs(green0(lam, HALF_PI, y)) < 1e-14
            assert abs(green0(lam, -HALF_PI, y)) < 1e-14
            assert abs(green0(lam, y, HALF_PI)) < 1e-14


def test_green0_symmetry():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-HALF_PI, HALF_PI, 100)
    ys = rng.uniform(-HALF_PI, HALF_PI, 100)
    for lam in (-1.0, 2.5 + 1j):
        g_xy = np.array([green0(lam, x, y) for x, y in zip(xs, ys)])
        g_yx = np.array([green0(lam, y, x) for x, y in zip(xs, ys)])
        assert np.max(np.abs(g_xy - g_yx)) < 1e-13


def test_green0_pole_guard():
    with pytest.raises(PoleAtDirichletEigenvalue):
        green0(4.0, 0.1, 0.2)


def test_dirichlet_solution_for_constant_source():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    xs = np.linspace(-HALF_PI, HALF_PI, 41)
    u = dirichlet_resolvent_values(-1.0, one, xs)
    ref = 1 - np.cosh(xs) / np.cosh(HALF_PI)
    assert np.max(np.abs(u - ref)) < 1e-13


def test_h_profile_properties():
    for lam in (-1.0, -2.0, 2.5 + 1j, 0.3):
        assert h_profile(lam, HALF_PI) == pytest.approx(1.0)
        assert h_profile(lam, -HALF_PI) == pytest.approx(1.0)
    # branch independence across the cut: both sqrt branches give the same h
    lam = 2.5 + 1e-12j
    lam2 = 2.5 - 1e-12j
    assert h_profile(lam, 0.4) == pytest.approx(h_profile(lam2, 0.4), abs=1e-9)


def test_resolvent_of_constant_is_constant():
    a = ParamA.from_expr("1/3")
    _, u = apply_resolvent(-1.0, ONE, a)
    assert np.max(np.abs(u - 1.0)) < 1e-10


@pytest.mark.parametrize("x", [2.0, -2.0, math.inf, -math.inf, math.nan])
def test_apply_resolvent_refuses_points_outside_the_interval(x):
    # NaN compares false with both ends, so it must fail the check, not pass it
    with pytest.raises(ValueError, match="outside"):
        apply_resolvent(-1.0, SIN3_HALF, ParamA.from_expr("1/3"), xs=np.array([0.0, x]))


def test_boundary_identity():
    a = ParamA.from_expr("1/3")
    f = PiecewiseTrig.single(sin_term(1.0, 3.0))
    pts = np.array([-HALF_PI, HALF_PI * a.value, HALF_PI])
    _, u = apply_resolvent(-2.0, f, a, xs=pts)
    assert abs(u[0] - u[1]) < 1e-8
    assert abs(u[2] - u[1]) < 1e-8


def test_rank_one_structure():
    # R(lambda) - R0(lambda) applied to different sources gives outputs
    # proportional to the same hyperbolic profile
    a = ParamA.from_expr("2/5")
    lam = -1.5
    xs = np.linspace(-1.2, 1.2, 17)
    ratios = []
    for f in (PiecewiseTrig.single(sin_term(1.0, 3.0)),  # and cos^2 x:
              PiecewiseTrig.single([const(0.5), cos_term(0.5, 2.0)])):
        _, u_full = apply_resolvent(lam, f, a, xs=xs)
        u_free = dirichlet_resolvent_values(lam, f, xs)
        diff = u_full - u_free
        prof = np.asarray(h_profile(lam, xs))
        ratios.append(diff / prof)
    for r in ratios:
        assert np.max(np.abs(r - r[0])) < 1e-10 * max(1.0, abs(r[0]))


@pytest.mark.parametrize("lam", [-1.0, -2.0, 2.5 + 1j])
def test_residual_report_targets(lam):
    a = ParamA.from_expr("1/3")
    rep = residual_report(lam, SIN3_HALF, a)
    assert rep["boundary_deviation"] < 1e-8
    assert rep["pde_residual"] < 1e-6
    assert rep["c1_jump"] == 0.0  # one piece
    # the closed form under 4th-order differences, and the panel sweep's u
    for u_at in (lambda xs: apply_resolvent(lam, SIN3_HALF, a, xs=xs)[1],
                 lambda xs: quadrature_resolvent(lam, SIN3_HALF, a, xs)):
        rep = stencil_residual(lam, SIN3_HALF, a, u_at)
        assert rep["boundary_deviation"] < 1e-8
        assert rep["pde_residual"] < 1e-6


# R(lambda) (H - lambda) psi = psi on every forward root vector up to 400
# (20 at each a, the Jordan-chain xi at 36 of 1/3 among them); measured
# worst 40 eps max|psi| (sqrt(2)-1, lambda = 7, the member at 288)
ROOT_VECTOR_C = 128


def test_left_and_right_inverse():
    # right inverse: -(R f)'' - lam (R f) = f, symbolic on the terms
    rep = residual_report(-2.0, PiecewiseTrig.single(cos_term(1.0, 2.0)),
                          ParamA.from_expr("sqrt(2)-1"))
    assert rep["pde_residual"] < 16 * EPS
    # left inverse on the root system: (H - lam) psi = -psi'' - lam psi
    for expr in ("1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        family = biorthogonalize(a, 400.0)
        if expr == "1/3":
            assert "xi" in family.labels  # the Jordan chain at 36
        xs = np.append(np.linspace(-HALF_PI, HALF_PI, 65), HALF_PI * a.value)
        for lam in (-2.0, 2.5 + 1j, 7.0):
            sources = Stack.total((family.psi.derivative(2).scaled(-1.0),
                                   family.psi.scaled(-lam)))
            for j in range(family.psi.count):
                psi = family.psi.fn(j)(xs)
                _, u = apply_resolvent(lam, sources.fn(j), a, xs=xs)
                assert np.max(np.abs(u - psi)) < ROOT_VECTOR_C * EPS * np.max(np.abs(psi)), \
                    (expr, lam, family.labels[j], family.records[j].lam)


def test_useful_reference_identity():
    # applying the free resolvent to (H - lambda) psi reproduces psi up to
    # a cosine profile weighted by the restart value
    a = ParamA.from_expr("1/3")
    lam = -1.7
    k = complex(np.sqrt(complex(lam)))
    for rec in enumerate_spectrum(a, 40.0):
        psi = eigenfunctions_H(rec, a)[0]
        xs = np.linspace(-HALF_PI, HALF_PI, 33)
        src = lambda x, r=rec, p=psi: (r.lam - lam) * p(x)
        u0 = dirichlet_resolvent_values(lam, src, xs)
        correction = (np.cos(k * xs) / np.cos(k * HALF_PI)
                      * psi(HALF_PI * a.value))
        assert np.max(np.abs(u0 - (psi(xs) - correction))) < 1e-8


def test_first_resolvent_identity():
    a = ParamA.from_expr("2/5")
    lam1, lam2 = -1.0, -3.0
    f = PiecewiseTrig.single([sin_term(1.0, 1.0), cos_term(0.5, 2.0), const(1.0)])
    xs = np.linspace(-HALF_PI, HALF_PI, 65)
    # R(l2)f is no term sum: the quadrature oracle applies R(l1) to it
    r2 = lambda x: apply_resolvent(lam2, f, a, xs=np.atleast_1d(x))[1]
    u12 = quadrature_resolvent(lam1, r2, a, xs)
    _, u1 = apply_resolvent(lam1, f, a, xs=xs)
    _, u2 = apply_resolvent(lam2, f, a, xs=xs)
    lhs = u1 - u2
    rhs = (lam1 - lam2) * u12
    assert np.max(np.abs(lhs - rhs)) < 1e-6 * max(1.0, float(np.max(np.abs(lhs))))


def test_pole_guards():
    # at a = 2/5 the +1-class point (20/7)^2 is an eigenvalue, the
    # Dirichlet point 1 is not
    a = ParamA.from_expr("2/5")
    lam_plus = (20.0 / 7.0) ** 2
    with pytest.raises(PoleAtEigenvalue):
        ResolventKernel.build(lam_plus, a)
    ResolventKernel.build(1.0, a)
    # denominator shrinks toward that eigenvalue along the real axis
    d_far = abs(np.prod(ResolventKernel.build(lam_plus - 0.5, a).one_minus))
    d_near = abs(np.prod(ResolventKernel.build(lam_plus - 1e-6, a).one_minus))
    assert d_near < d_far / 1000


def _fixed_grid_solution(lam, f, a):
    """Nodes and K (w f) on grid_nodes(a, 256, 3): the resolvent as the
    kernel quadrature that the SVD probe discretizes, f real."""
    nodes, weights = grid_nodes(a, 256, kmax=3.0)
    mat = kernel_matrix(ResolventKernel.build(lam, a), a, nodes, nodes)
    return nodes, mat @ (weights * f(nodes).real)


def test_gridfn_input_route():
    # fixed-grid kernel application: accuracy is limited by the kernel kink
    # crossing quadrature panels, so the contract is looser than the
    # kink-split route
    a = ParamA.from_expr("1/3")
    f = PiecewiseTrig.single([sin_term(1.0, 3.0)])
    nodes, u = _fixed_grid_solution(-2.0, f, a)
    _, dense = apply_resolvent(-2.0, f, a, xs=nodes)
    assert np.max(np.abs(u - dense)) < 1e-4
    u_m, u_b, u_p = (u[np.argmin(np.abs(nodes - x0))]
                     for x0 in (-HALF_PI, HALF_PI * a.value, HALF_PI))
    assert max(abs(u_m - u_b), abs(u_p - u_b)) < 1e-4


def test_gridfn_route_keeps_a_real_source_real():
    # at real lambda < 0 the kernel is float64, so the fixed-grid
    # quadrature of a real source is real, to the same contract as above
    a = ParamA.from_expr("1/3")
    f = PiecewiseTrig.single([sin_term(1.0, 3.0)])
    nodes, u = _fixed_grid_solution(-2.0, f, a)
    assert u.dtype == np.float64
    _, dense = apply_resolvent(-2.0, f, a, xs=nodes)
    assert np.max(np.abs(u - dense)) < 1e-4


def test_singular_value_probe():
    a = ParamA.from_expr("1/3")
    probe = singular_value_probe(-1.0, a, 512)
    svals = probe["singular_values"]
    assert len(svals) == 513 and np.all(svals >= 0)
    assert probe["decay_exponent"] <= -1.8
    assert probe["truncation_bound"] == pytest.approx(1 / (513 ** 2 + 1))
    probe_small = singular_value_probe(-1.0, a, 256)
    # trace-norm estimates stabilized to three digits
    assert probe["trace_norm_estimate"] == pytest.approx(probe_small["trace_norm_estimate"],
                                                         rel=1e-3)
    for n in (63, 4096):
        with pytest.raises(ValueError):
            singular_value_probe(-1.0, a, n)


def _closed_form(lam, xs, a_value):
    """u = R(lambda)(sin 3x + 1/2) at 50 digits: sin 3x/(9 - lambda)
    - 1/(2 lambda) + A cos kx + B sin kx / k, with A, B from the 2x2
    three-point system."""
    with mp.workdps(50):
        lam = mp.mpc(lam)
        k = mp.sqrt(lam)
        h, b = mp.pi / 2, mp.pi * mp.mpf(a_value) / 2
        part = lambda x: mp.sin(3 * x) / (9 - lam) - 1 / (2 * lam)
        c = lambda x: mp.cos(k * x)
        s = lambda x: mp.sin(k * x) / k
        m = mp.matrix([[c(-h) - c(b), s(-h) - s(b)], [c(h) - c(b), s(h) - s(b)]])
        A, B = mp.lu_solve(m, mp.matrix([part(b) - part(-h), part(b) - part(h)]))
        return np.array([complex(part(x) + A * c(x) + B * s(x))
                         for x in map(mp.mpf, xs)])


# worst relative errors measured against the closed form: <= 1.1e-15 for
# |lambda| <= 25, 8.3e-15 at -1e4, 2.7e-12 at 1e4 + 0.5 (an eigenvalue is
# 0.5 away), 6.9e-14 at -1e6, 7.8e-13 at 1e-6 (|u| = 6e5)
@pytest.mark.parametrize("lam, tol", [
    (0.5, 5e-15), (1.0, 5e-15), (1 + 1e-9, 5e-15), (1 - 1e-9, 5e-15),
    (25 + 1e-9, 5e-15), (25 - 1e-9, 5e-15), (-1.0, 5e-15), (-25.0, 5e-15),
    (2.5 + 1j, 5e-15), (-1e4, 2e-14), (1e4 + 0.5, 5e-12), (-1e6, 2e-13),
    (1e-6, 2e-12),
])
def test_matches_the_closed_form(lam, tol):
    a = ParamA.from_expr("1/3")
    xs = np.append(np.linspace(-HALF_PI, HALF_PI, 41), HALF_PI * a.value)
    _, u = apply_resolvent(lam, SIN3_HALF, a, xs=xs)
    ref = _closed_form(lam, xs, a.value)
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u - ref)) < tol * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [-1.0, 2.5 + 1j])
def test_kernel_matches_the_rank_one_oracle(lam):
    a = ParamA.from_expr("1/3")
    xs = np.linspace(-HALF_PI, HALF_PI, 29)
    ys = np.append(np.linspace(-HALF_PI, HALF_PI - 0.1, 37) + 0.05, HALF_PI)
    ref = rank_one_kernel(lam, a.value, xs, ys)
    mat = kernel_matrix(ResolventKernel.build(lam, a), a, xs, ys)
    assert np.max(np.abs(mat - ref)) < 5e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("lam, dtype", [
    (-1.0, np.float64), (-25.0, np.float64), (-1e4, np.float64),
    (2.5 + 1j, np.complex128),
])
def test_kernel_is_float64_exactly_for_real_negative_lambda(lam, dtype):
    # the sine-basis matrix, and the Nystrom kernel of the tests' oracle
    a = ParamA.from_expr("1/3")
    xs = np.linspace(-HALF_PI, HALF_PI, 9)
    assert kernel_matrix(ResolventKernel.build(lam, a), a, xs, xs).dtype == dtype
    assert sine_matrix_dense(sine_matrix(lam, a, 64)).dtype == dtype


# at real lambda > 0 the matrix is real (H commutes with conjugation): the
# complex-arithmetic assembly's imaginary part is rounding (measured 0), and
# its real part is within 1.3 eps max|M| of the float64 matrix; the probe's
# values agree with the complex SVD within 3.0 eps sigma_1 (at 25 - 1e-9, by
# the zone's three solves; 2.7 at 36 - 1e-6, next to the exceptional pair;
# 64 eps allowed, see below).  The Nystrom kernel
# of the tests' oracle keeps its own bounds.
@pytest.mark.parametrize("lam", [0.5, 1.0, 1 + 1e-9, 25 - 1e-9, 36 - 1e-6, 1e4 + 0.5])
def test_kernel_is_float64_at_real_positive_lambda(lam):
    a = ParamA.from_expr("1/3")
    n = 512
    mat = sine_matrix_dense(sine_matrix(lam, a, n))
    full = complex_sine_matrix(lam, a, n)
    assert mat.dtype == np.float64
    scale = np.max(np.abs(full))
    assert np.max(np.abs(full.imag)) < 16 * EPS * scale
    assert np.max(np.abs(mat - full.real)) < 16 * EPS * scale
    svals = singular_value_probe(lam, a, n)["singular_values"]
    ref = np.linalg.svd(full, compute_uv=False)
    assert np.max(np.abs(svals - ref)) < 64 * EPS * ref[0]
    kern = ResolventKernel.build(lam, a)
    nodes, _ = grid_nodes(a, n // 2, kmax=abs(kern.k))
    grid = kernel_matrix(kern, a, nodes, nodes)
    ref_grid = complex_kernel_matrix(lam, a, nodes, nodes)
    assert grid.dtype == np.float64
    grid_scale = np.max(np.abs(ref_grid))
    assert np.max(np.abs(ref_grid.imag)) < 16 * EPS * max(1.0, abs(kern.k)) * grid_scale
    assert np.max(np.abs(grid - ref_grid.real)) < 16 * EPS * grid_scale


# Weyl's inequality bounds |sigma_j(A) - sigma_j(B)| by ||A - B||_2, and the
# secular route and the dense SVD are each within a few eps sigma_1 of their
# matrix; 64 eps covers both (measured: 0.6, 4.7 and 16 eps sigma_1)
@pytest.mark.parametrize("lam", [-1.0, -25.0, -1e4])
def test_real_probe_matches_complex_arithmetic(lam):
    a = ParamA.from_expr("1/3")
    svals = singular_value_probe(lam, a, 512)["singular_values"]
    ref = np.linalg.svd(complex_sine_matrix(lam, a, 512), compute_uv=False)
    assert np.max(np.abs(svals - ref)) < 64 * np.finfo(float).eps * ref[0]


def test_determinant_is_proportional_to_char_det():
    for expr in ("1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        for lam in (-1.0, 2.5 + 1j, 1.0, 30.0):
            kern = ResolventKernel.build(lam, a)
            ref = -2j * np.exp(1j * math.pi * kern.k) * char_det(a, kern.k)
            assert abs(np.prod(kern.one_minus) - ref) < 1e-14 * abs(ref)


def test_both_sides_of_the_branch_cut_agree():
    a = ParamA.from_expr("1/3")
    xs = np.linspace(-HALF_PI, HALF_PI, 33)
    _, above = apply_resolvent(2.5 + 1e-12j, SIN3_HALF, a, xs=xs)
    _, below = apply_resolvent(2.5 - 1e-12j, SIN3_HALF, a, xs=xs)
    assert np.max(np.abs(above - below)) < 1e-9


@pytest.mark.parametrize("expr, lam", [("1/3", 36.0), ("2/5", (20.0 / 7.0) ** 2),
                                       ("1/3", 0.0)])
def test_eigenvalues_are_the_only_poles(expr, lam):
    a = ParamA.from_expr(expr)
    with pytest.raises(PoleAtEigenvalue):
        apply_resolvent(lam, ONE, a)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, complex(1, math.nan)])
def test_non_finite_lambda_is_rejected(lam):
    with pytest.raises(ValueError, match="lambda"):
        ResolventKernel.build(lam, ParamA.from_expr("1/3"))


@pytest.mark.parametrize("lam", [1e300, -1e300, complex(0, -1e300)])
def test_lambda_beyond_the_cap_is_rejected_before_any_grid(lam):
    a = ParamA.from_expr("1/3")
    with pytest.raises(ValueError, match="cap"):
        ResolventKernel.build(lam, a)
    with pytest.raises(ValueError, match="cap"):
        apply_resolvent(lam, ONE, a, xs=np.zeros(3))


def test_probe_refuses_a_window_beyond_the_basis():
    # at lambda = -1e6 the decay fit would start at 2|k| = 2000, past N/2
    with pytest.raises(ValueError, match="window"):
        singular_value_probe(-1e6, ParamA.from_expr("1/3"), 512)
    with pytest.raises(ValueError, match="window"):
        singular_value_probe(-1e6, ParamA.from_expr("1/3"), 2048)


# u against the 50-digit three-point solve: |u - u_mp| <= MP_GATE_C eps
# max|u_mp| on 61 nodes and pi a/2.  Measured worst 7.1 (sqrt(2)-1, K = 1e6,
# lambda = 9); every resonant case at sqrt(2)-1 within 4.4.
MP_GATE_C = 16
GATE_LAMBDAS = [-1.0, -25.0, 2.5 + 1j, 9.0]
RESONANT_LAMBDAS = [9 * (1 + 1e-6), 9 * (1 - 1e-6), 9 * (1 + 1e-12), 9 * (1 - 1e-12)]


def _forcing(K: float) -> PiecewiseTrig:
    """The CLI's forcings: const for K = 0, sin(Kx) otherwise."""
    return ONE if K == 0 else PiecewiseTrig.single(sin_term(1.0, K))


def _gate_error(solver, lam, f, a) -> float:
    """max |u - u_mp| / (eps max |u_mp|) of solver's apply_resolvent."""
    xs = np.append(np.linspace(-HALF_PI, HALF_PI, 61), HALF_PI * a.value)
    _, u = solver.apply_resolvent(lam, f, a, xs=xs)
    ref = mp_three_point_solve(lam, f, a, xs)
    return float(np.max(np.abs(u - ref)) / (EPS * np.max(np.abs(ref))))


@pytest.mark.parametrize("expr, K, lam", [
    *((expr, K, lam) for expr in ("1/3", "sqrt(2)-1") for K in (0, 3, 1e3, 1e4, 1e6)
      for lam in GATE_LAMBDAS if (expr, lam) != ("1/3", 9.0)),
    *(("sqrt(2)-1", 3, lam) for lam in RESONANT_LAMBDAS)])
def test_matches_the_mpmath_solve(expr, K, lam):
    assert _gate_error(resolvent, lam, _forcing(K), ParamA.from_expr(expr)) < MP_GATE_C


# At large |lambda| the rounding of k = sqrt(lambda) alone moves the phase
# k x by up to |k| eps pi/2, so u can be right only to about |k| eps max|u|:
# the gate is LARGE_GATE_C max(16, |k|) eps max|u|.  Measured at sqrt(2)-1
# and 1/3, lambda = k^2 - 0.5: 0.48-1.03 |k| eps max|u|.
LARGE_GATE_C = 2
LARGE_KS = [100.5, 1000.5, 9999.5]


def _large_gate_error(solver, k, near_resonant, a) -> float:
    """_gate_error at lambda = k^2 - 0.5, for sin 3x or for the near-resonant
    sin kx, over LARGE_GATE_C max(16, k)."""
    f = _forcing(k if near_resonant else 3)
    return _gate_error(solver, k * k - 0.5, f, a) / (LARGE_GATE_C * max(16, k))


@pytest.mark.parametrize("near_resonant", [False, True], ids=["sin3x", "sinkx"])
@pytest.mark.parametrize("k", LARGE_KS)
@pytest.mark.parametrize("expr", ["sqrt(2)-1", "1/3"])
def test_matches_the_mpmath_solve_at_large_lambda(expr, k, near_resonant):
    assert _large_gate_error(resolvent, k, near_resonant, ParamA.from_expr(expr)) < 1


@pytest.mark.parametrize("K", [0, 3, 1e3, 1e4, 1e6])
def test_an_eigenvalue_is_refused_whatever_the_forcing(K):
    # 9 = 3^2 is an eigenvalue at a = 1/3 (P = e^{2 pi i})
    with pytest.raises(PoleAtEigenvalue):
        apply_resolvent(9.0, _forcing(K), ParamA.from_expr("1/3"))


def _jump_forcing(a: ParamA) -> PiecewiseTrig:
    """A forcing with a value jump at pi a/2 and an x cos term."""
    return PiecewiseTrig.split(HALF_PI * a.value, [sin_term(1.0, 3.0), xcos_term(0.5, 2.0)],
                               [const(2.0), linear(1.0), cos_term(1.0, 5.0)])


@pytest.mark.parametrize("expr, lam", [("1/3", -1.0), ("1/3", 2.5 + 1j),
                                       ("sqrt(2)-1", -25.0), ("sqrt(2)-1", 9.0)])
def test_a_forcing_with_a_jump_matches_the_mpmath_solve(expr, lam):
    # measured worst 4.4 eps max|u|; u is C^1 across the jump of f
    a = ParamA.from_expr(expr)
    assert _gate_error(resolvent, lam, _jump_forcing(a), a) < MP_GATE_C
    rep = residual_report(lam, _jump_forcing(a), a)
    assert rep["c1_jump"] < 16 * EPS and rep["pde_residual"] < 16 * EPS


@pytest.mark.parametrize("lam", [9.0, 9 + 1e-9, 9.5])
def test_an_x_term_at_or_near_resonance_is_refused(lam):
    # 9 is no eigenvalue at sqrt(2)-1; |9 - lambda| < NEAR_RESONANCE = 1
    f = PiecewiseTrig.single(xcos_term(1.0, 3.0))
    with pytest.raises(ResonantForcing):
        apply_resolvent(lam, f, ParamA.from_expr("sqrt(2)-1"))


def test_exact_resonance_takes_the_secular_term():
    # sin 3x at lambda = 9 (not an eigenvalue at sqrt(2)-1): u_p = x T'/18
    solve = resolvent.ThreePointSolve(9.0, _forcing(3), ParamA.from_expr("sqrt(2)-1"))
    _, rows, sinc, covered = solve.parts[0]
    assert len(sinc) == 0 and len(covered) == 1
    assert rows.p.tolist() == [1] and rows.k.tolist() == [3.0]


def _mutant(monkeypatch, old: str, new: str):
    """jumpspec.resolvent with the one occurrence of `old` replaced by `new`,
    loaded as a module of its own."""
    path = Path(resolvent.__file__)
    source = path.read_text()
    assert source.count(old) == 1, old
    module = types.ModuleType("resolvent_mutant")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(source.replace(old, new), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("old, new, expr, lam, forcing", [
    pytest.param("2 * t.k[lin] * t.c[lin] / d[lin]**2", "0 * t.c[lin]", "1/3", -1.0,
                 _jump_forcing, id="no-2T'/d^2"),
    pytest.param("self.match = (-j0 / 2, -j1 / (2 * self.kern.ik))", "self.match = (0.0, 0.0)",
                 "1/3", 2.5 + 1j, _jump_forcing, id="no-C1-matching"),
    pytest.param("near = np.abs(d) < NEAR_RESONANCE", "near = d == 0", "sqrt(2)-1",
                 9 * (1 + 1e-12), lambda a: _forcing(3), id="no-near-resonance-form"),
])
def test_the_gate_fails_a_mutant(monkeypatch, old, new, expr, lam, forcing):
    a = ParamA.from_expr(expr)
    assert _gate_error(resolvent, lam, forcing(a), a) < MP_GATE_C
    assert _gate_error(_mutant(monkeypatch, old, new), lam, forcing(a), a) > MP_GATE_C


@pytest.mark.parametrize("k", LARGE_KS)
def test_the_large_lambda_gate_fails_the_near_resonance_mutant(monkeypatch, k):
    # without the sinc form, T/d loses k^2/d of its digits to the homogeneous part
    mutant = _mutant(monkeypatch, "near = np.abs(d) < NEAR_RESONANCE", "near = d == 0")
    assert _large_gate_error(mutant, k, True, ParamA.from_expr("sqrt(2)-1")) > 1
