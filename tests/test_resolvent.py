import math

import mpmath as mp
import numpy as np
import pytest

from jumpspec.eigensystem import biorthogonalize, eigenfunctions_H
from jumpspec.funcspace import PiecewiseTrig, const, sample, sin_term
from jumpspec.param import ParamA
from jumpspec.resolvent import (
    PoleAtDirichletEigenvalue, PoleAtEigenvalue, ResolventKernel,
    apply_resolvent, boundary_deviation, residual_report, singular_value_probe,
)
from jumpspec.spectrum import char_det, enumerate_spectrum
from rank_one_oracle import (
    dirichlet_resolvent_values, green0, h_profile, rank_one_kernel,
)

HALF_PI = math.pi / 2


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
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    u = apply_resolvent(-1.0, one, a)
    assert np.max(np.abs(u.values - 1.0)) < 1e-10


def test_boundary_identity():
    a = ParamA.from_expr("1/3")
    f = lambda x: np.sin(3 * np.asarray(x, dtype=float))
    pts = np.array([-HALF_PI, HALF_PI * a.value, HALF_PI])
    u = apply_resolvent(-2.0, f, a, xs=pts).values
    assert abs(u[0] - u[1]) < 1e-8
    assert abs(u[2] - u[1]) < 1e-8


def test_rank_one_structure():
    # R(lambda) - R0(lambda) applied to different sources gives outputs
    # proportional to the same hyperbolic profile
    a = ParamA.from_expr("2/5")
    lam = -1.5
    xs = np.linspace(-1.2, 1.2, 17)
    ratios = []
    for f in (lambda x: np.sin(3 * np.asarray(x)),
              lambda x: np.cos(np.asarray(x)) ** 2):
        u_full = apply_resolvent(lam, f, a, xs=xs).values
        u_free = dirichlet_resolvent_values(lam, f, xs)
        diff = u_full - u_free
        prof = np.asarray(h_profile(lam, xs))
        ratios.append(diff / prof)
    for r in ratios:
        assert np.max(np.abs(r - r[0])) < 1e-10 * max(1.0, abs(r[0]))


@pytest.mark.parametrize("lam", [-1.0, -2.0, 2.5 + 1j])
def test_residual_report_targets(lam):
    a = ParamA.from_expr("1/3")
    f = lambda x: np.sin(3 * np.asarray(x, dtype=float)) + 0.5
    rep = residual_report(lam, f, a)
    assert rep["boundary_deviation"] < 1e-8
    assert rep["pde_residual"] < 1e-6


def test_left_and_right_inverse():
    a = ParamA.from_expr("sqrt(2)-1")
    lam = -2.0
    # right inverse: -(R f)'' - lam (R f) = f, via the residual report
    rep = residual_report(lam, lambda x: np.cos(2 * np.asarray(x)), a)
    assert rep["pde_residual"] < 1e-6
    # left inverse on eigensystem members: R (H - lam) psi = psi
    for rec in enumerate_spectrum(a, 40.0):
        psi = eigenfunctions_H(rec, a)[0].fn
        source = lambda x, r=rec, p=psi: (r.lam - lam) * p(x)
        xs = np.linspace(-HALF_PI, HALF_PI, 65)
        u = apply_resolvent(lam, source, a, xs=xs).values
        assert np.max(np.abs(u - psi(xs))) < 1e-6


def test_useful_reference_identity():
    # applying the free resolvent to (H - lambda) psi reproduces psi up to
    # a cosine profile weighted by the restart value
    a = ParamA.from_expr("1/3")
    lam = -1.7
    k = complex(np.sqrt(complex(lam)))
    for rec in enumerate_spectrum(a, 40.0):
        psi = eigenfunctions_H(rec, a)[0].fn
        xs = np.linspace(-HALF_PI, HALF_PI, 33)
        src = lambda x, r=rec, p=psi: (r.lam - lam) * p(x)
        u0 = dirichlet_resolvent_values(lam, src, xs)
        correction = (np.cos(k * xs) / np.cos(k * HALF_PI)
                      * psi(HALF_PI * a.value))
        assert np.max(np.abs(u0 - (psi(xs) - correction))) < 1e-8


def test_first_resolvent_identity():
    a = ParamA.from_expr("2/5")
    lam1, lam2 = -1.0, -3.0
    f = lambda x: np.exp(np.sin(np.asarray(x, dtype=float)))
    xs = np.linspace(-HALF_PI, HALF_PI, 65)
    # R(l2)f as an exact callable for the nested application
    r2 = lambda x: apply_resolvent(lam2, f, a, xs=np.atleast_1d(x)).values
    u12 = apply_resolvent(lam1, r2, a, xs=xs).values
    u1 = apply_resolvent(lam1, f, a, xs=xs).values
    u2 = apply_resolvent(lam2, f, a, xs=xs).values
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
    d_far = abs(ResolventKernel.build(lam_plus - 0.5, a).denom)
    d_near = abs(ResolventKernel.build(lam_plus - 1e-6, a).denom)
    assert d_near < d_far / 1000


def test_gridfn_input_route():
    # fixed-grid kernel application: accuracy is limited by the kernel kink
    # crossing quadrature panels, so the contract is looser than the
    # kink-split callable route
    a = ParamA.from_expr("1/3")
    f = PiecewiseTrig.single([sin_term(1.0, 3.0)])
    gf = sample(f, a, 256, kmax=3.0)
    u = apply_resolvent(-2.0, gf, a)
    dense = apply_resolvent(-2.0, f, a, xs=gf.nodes).values
    assert np.max(np.abs(u.values - dense)) < 1e-4
    assert boundary_deviation(u, None, a.value) < 1e-4


def test_singular_value_probe():
    a = ParamA.from_expr("1/3")
    probe = singular_value_probe(-1.0, a, 512)
    svals = probe["singular_values"]
    assert np.all(svals >= 0)
    assert probe["decay_exponent"] <= -1.8
    probe_small = singular_value_probe(-1.0, a, 256)
    # trace-norm estimates stabilized to three digits
    assert probe["partial_sum"] == pytest.approx(probe_small["partial_sum"],
                                                 rel=1e-3)
    with pytest.raises(ValueError):
        singular_value_probe(-1.0, a, 4096)


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
    f = lambda x: np.sin(3 * np.asarray(x, dtype=float)) + 0.5
    xs = np.append(np.linspace(-HALF_PI, HALF_PI, 41), HALF_PI * a.value)
    u = apply_resolvent(lam, f, a, xs=xs).values
    ref = _closed_form(lam, xs, a.value)
    assert np.all(np.isfinite(u))
    assert np.max(np.abs(u - ref)) < tol * np.max(np.abs(ref))


@pytest.mark.parametrize("lam", [-1.0, 2.5 + 1j])
def test_kernel_matches_the_rank_one_oracle(lam):
    a = ParamA.from_expr("1/3")
    xs = np.linspace(-HALF_PI, HALF_PI, 29)
    ys = np.append(np.linspace(-HALF_PI, HALF_PI - 0.1, 37) + 0.05, HALF_PI)
    ref = rank_one_kernel(lam, a.value, xs, ys)
    mat = ResolventKernel.build(lam, a).kernel_matrix(xs, ys)
    assert np.max(np.abs(mat - ref)) < 5e-15 * np.max(np.abs(ref))


def test_determinant_is_proportional_to_char_det():
    for expr in ("1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        for lam in (-1.0, 2.5 + 1j, 1.0, 30.0):
            kern = ResolventKernel.build(lam, a)
            ref = -2j * np.exp(1j * math.pi * kern.k) * char_det(a, kern.k)
            assert abs(kern.denom - ref) < 1e-14 * abs(ref)


def test_both_sides_of_the_branch_cut_agree():
    a = ParamA.from_expr("1/3")
    f = lambda x: np.sin(3 * np.asarray(x, dtype=float)) + 0.5
    xs = np.linspace(-HALF_PI, HALF_PI, 33)
    above = apply_resolvent(2.5 + 1e-12j, f, a, xs=xs).values
    below = apply_resolvent(2.5 - 1e-12j, f, a, xs=xs).values
    assert np.max(np.abs(above - below)) < 1e-9


@pytest.mark.parametrize("expr, lam", [("1/3", 36.0), ("2/5", (20.0 / 7.0) ** 2),
                                       ("1/3", 0.0)])
def test_eigenvalues_are_the_only_poles(expr, lam):
    a = ParamA.from_expr(expr)
    with pytest.raises(PoleAtEigenvalue):
        apply_resolvent(lam, lambda x: np.ones_like(x), a)


@pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan, complex(1, math.nan)])
def test_non_finite_lambda_is_rejected(lam):
    with pytest.raises(ValueError, match="lambda"):
        ResolventKernel.build(lam, ParamA.from_expr("1/3"))


def test_probe_refuses_a_grid_beyond_the_node_cap():
    # at lambda = -1e6 the grid for n = 512 would have 9040 nodes
    with pytest.raises(ValueError, match="nodes"):
        singular_value_probe(-1e6, ParamA.from_expr("1/3"), 512)
