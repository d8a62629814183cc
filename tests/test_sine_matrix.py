"""The exact sine-basis matrix of the resolvent and its singular values.

`resolvent.sine_matrix` holds <e_m, (H - lambda)^{-1} e_n> on N sine modes
plus a border row and column; `dpr1_singular_values` takes its singular
values by two secular solves, three next to an odd square.  The gates
here: the entries against a 50-digit solve and quadrature, the secular
route against a dense SVD of the same matrix (`sine_matrix_dense`), the
tails against 50-digit sums, convergence in N, the Nystrom probe the
package used before, and the order of the resolvent's pole at each
eigenvalue against the Jordan chains of `eigensystem`.
"""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from jumpspec import resolvent
from jumpspec.eigensystem import biorthogonalize
from jumpspec.param import ParamA
from jumpspec.resolvent import (
    PoleAtEigenvalue, _secular_roots, _tail_norms, _trace_tail, check_probe,
    dpr1_singular_values, sine_matrix, singular_value_probe,
)
from reference_oracles import (
    allocating_dpr1_singular_values, allocating_secular_roots, complex_probe_singular_values,
    mp_sine_entries, sine_matrix_dense,
)

EPS = np.finfo(float).eps
GRID_A = ("1/3", "sqrt(2)-1", "1/5", "0")
# 5 and 13 tie |d_1| with |d_3| and |d_5|, 2.5 + i ties |d_1| with |d_2|, 10
# and 26 tie even modes; 0.5, 0.999 and 24.99 lie within NEAR_RESONANCE of
# an odd square
GRID_LAMBDA = (-1.0, -25.0, -1e4, 0.5, 2.5 + 1j, 5.0, 5 + 1j, 10.0, 13.0, 1e4 + 0.5,
               0.999, 24.99, 26.0)
OFF_ZONE = tuple(lam for lam in GRID_LAMBDA if lam not in (0.5, 0.999, 24.99))
ZONE = (0.5, 0.999, 24.99, 1.0, 1 + 1e-9, 1 - 1e-9, 25 - 1e-9)


def _dense_values(mat) -> np.ndarray:
    return np.linalg.svd(sine_matrix_dense(mat), compute_uv=False)


# the secular route within 64 eps sigma_1 of LAPACK on the same matrix
# (measured at most 22); next to an odd square the matrix is a diagonal
# plus rank two and takes a third solve (measured at most 6.6 there)
@pytest.mark.parametrize("expr", GRID_A)
@pytest.mark.parametrize("lam", GRID_LAMBDA)
@pytest.mark.parametrize("n", [64, 512])
def test_secular_route_matches_a_dense_svd(expr, lam, n):
    mat = sine_matrix(lam, ParamA.from_expr(expr), n)
    ref = _dense_values(mat)
    assert bool(mat.resonant) == (lam in (0.5, 0.999, 24.99))
    got = dpr1_singular_values(*mat.factors())
    assert np.max(np.abs(got - ref)) < 64 * EPS * ref[0]


# two cases a plainer route got wrong: next to 51^2, outside the zone, the
# secular equation 1 - sum g^2/(delta - mu) = 0 of step A cancels its 1
# (sigma_1 was 144 eps sigma_1 off); next to the exceptional pair at 144 a
# tie tolerance absolute in ||M|| chains the |d_n| (113 eps at N = 512);
# measured now 1.0 and 1.9 eps sigma_1 against LAPACK
@pytest.mark.parametrize("lam, n", [(2599.088254783756, 256),
                                    (144.00005730309317 + 1.6256806156839517e-05j, 512)])
def test_secular_route_keeps_its_digits_where_weights_cancel(lam, n):
    mat = sine_matrix(lam, ParamA.from_expr("1/3"), n)
    assert not mat.resonant
    ref = _dense_values(mat)
    got = dpr1_singular_values(mat.d, mat.c * mat.u, mat.y)
    assert np.max(np.abs(got - ref)) < 64 * EPS * ref[0]


def test_secular_route_matches_a_dense_svd_at_2048_modes():
    a = ParamA.from_expr("1/3")
    probe = singular_value_probe(-1.0, a, 2048)["singular_values"]
    ref = _dense_values(sine_matrix(-1.0, a, 2048))
    assert np.max(np.abs(probe - ref)) < 64 * EPS * ref[0]


# 64-row blocks cut the 2049 x 2049 matrix at 32 block edges; measured at
# most 10.8 eps sigma_1 against LAPACK (1/3, lambda = 26)
@pytest.mark.slow
@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1"])
@pytest.mark.parametrize("lam", [-25.0, 2.5 + 1j, 10.0, 26.0, 1e4 + 0.5])
def test_secular_route_matches_a_dense_svd_at_2048_modes_off_minus_one(expr, lam):
    a = ParamA.from_expr(expr)
    probe = singular_value_probe(lam, a, 2048)["singular_values"]
    ref = _dense_values(sine_matrix(lam, a, 2048))
    assert np.max(np.abs(probe - ref)) < 64 * EPS * ref[0]


# the blocked solves against their allocating predecessor, kept verbatim as
# an oracle: only the order of the row sums differs (measured at most 1.4
# eps sigma_1 over these cases)
@pytest.mark.parametrize("expr, lam, n", [
    *((expr, lam, n) for expr in GRID_A for lam in OFF_ZONE for n in (64, 512)),
    *((expr, -1.0, 2048) for expr in GRID_A)])
def test_blocked_secular_route_matches_the_allocating_one(expr, lam, n):
    mat = sine_matrix(lam, ParamA.from_expr(expr), n)
    ref = allocating_dpr1_singular_values(mat.d, mat.c * mat.u, mat.y)
    got = dpr1_singular_values(mat.d, mat.c * mat.u, mat.y)
    assert np.max(np.abs(got - ref)) <= 4 * EPS * ref[0]


# rho = 0 and 1 across three 64-row blocks, one pole, two poles.  Each
# solve stops once |f| <= 8 eps (rho + sum |w/dist|), so two of them may
# part by twice that over f'; measured at most 8.5 eps over 40 seeds
@pytest.mark.parametrize("n, rho", [(150, 0.0), (150, 1.0), (1, 1.0), (2, 0.0), (2, 1.0)])
@pytest.mark.parametrize("seed", [4, 19])
def test_secular_roots_match_the_allocating_solver(n, rho, seed):
    rng = np.random.default_rng(seed)
    p, w = np.sort(rng.uniform(-10, 10, n)), rng.uniform(0.1, 1, n)
    K, tau = _secular_roots(p, w, rho)
    K_ref, tau_ref = allocating_secular_roots(p, w, rho)
    assert len(K) == (n if rho else n - 1) and np.array_equal(K, K_ref)
    dist = (p - p[K_ref][:, None]) - tau_ref[:, None]
    scale = (rho + np.abs(w / dist).sum(1)) / (w / dist ** 2).sum(1)
    assert np.all(np.abs(tau - tau_ref) <= 16 * EPS * scale)


# every |d| twice (d = m and im): fifty ties |d_i| = |d_j| deflate;
# measured 1.2 eps sigma_1 from both references
def test_ties_match_the_allocating_route_and_a_dense_svd():
    rng = np.random.default_rng(8)
    d = np.repeat(np.arange(1.0, 51.0), 2) * np.tile([1, 1j], 50)
    x, y = rng.normal(size=(2, 100, 2)) @ np.array([1, 1j])
    got = dpr1_singular_values(d, x, y)
    ref = np.linalg.svd(np.diag(d) + np.outer(x, y), compute_uv=False)
    assert np.max(np.abs(got - allocating_dpr1_singular_values(d, x, y))) <= 4 * EPS * ref[0]
    assert np.max(np.abs(got - ref)) < 16 * EPS * ref[0]


# at 1/3, lambda = 50 + 50i, N = 256 the step-B root 206 lies between poles
# 1.999999999e-4 and 2.0e-4 (relative gap 4.9e-10, far above the 8 eps tie
# tolerance) and the model falls back to about 50 bisections: it converges
# in 51 of the SECULAR_PASSES passes (every other measured matrix takes at
# most 16), measured 5.1 eps sigma_1 from LAPACK
def test_a_root_between_nearly_tied_poles_converges_within_the_pass_cap(monkeypatch):
    mat = sine_matrix(50 + 50j, ParamA.from_expr("1/3"), 256)
    assert not mat.resonant
    ref = _dense_values(mat)
    got = dpr1_singular_values(mat.d, mat.c * mat.u, mat.y)
    assert np.max(np.abs(got - ref)) < 64 * EPS * ref[0]
    monkeypatch.setattr(resolvent, "SECULAR_PASSES", 50)
    with pytest.raises(np.linalg.LinAlgError, match=r"1 roots unconverged after 50 passes, "
                                                    r"from \[206\]"):
        dpr1_singular_values(mat.d, mat.c * mat.u, mat.y)


# one pass leaves the values 1.9e-3 sigma_1 off; they must not come out
def test_a_secular_solve_that_runs_out_of_passes_raises(monkeypatch):
    monkeypatch.setattr(resolvent, "SECULAR_PASSES", 1)
    with pytest.raises(np.linalg.LinAlgError, match="unconverged after 1 passes"):
        singular_value_probe(-1.0, ParamA.from_expr("1/3"), 512)


# measured 20.2 MB with 256-row blocks and fresh temporaries on every
# pass, 5.0 MB with 64-row blocks allocated once per solve
def test_the_probe_at_2048_modes_stays_within_8_mb():
    a = ParamA.from_expr("1/3")
    tracemalloc.start()
    try:
        singular_value_probe(-1.0, a, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


# next to an odd square the probe takes three secular solves; within 64
# eps sigma_1 of LAPACK on the dense matrix (measured at most 6.6); 25
# is an eigenvalue at 1/5
@pytest.mark.parametrize("expr, lam", [(expr, lam) for expr in GRID_A for lam in ZONE
                                       if (expr, lam) != ("1/5", 25 - 1e-9)])
@pytest.mark.parametrize("n", [64, 512])
def test_the_zone_route_matches_a_dense_svd(expr, lam, n):
    a = ParamA.from_expr(expr)
    mat = sine_matrix(lam, a, n)
    assert mat.resonant
    probe = singular_value_probe(lam, a, n)["singular_values"]
    ref = _dense_values(mat)
    assert np.max(np.abs(probe - ref)) < 64 * EPS * ref[0]


def zone_cases(seed: int, count: int):
    """(a, lambda, N) with |lambda - m^2| < 1 for an odd m <= min(N, 201),
    lambda real or complex, drawn from one seed."""
    rng = np.random.default_rng(seed)
    exprs = GRID_A + ("3/7", "1/pi", "-1/2", "9/10")
    for _ in range(count):
        expr, n = exprs[rng.integers(len(exprs))], int(rng.choice([64, 512]))
        m = 2 * int(rng.integers(0, min(n, 202) // 2)) + 1
        r, th = rng.uniform(0, 0.999), rng.uniform(0, 2 * math.pi)
        yield expr, m * m + (r * complex(math.cos(th), math.sin(th)) if rng.random() < 0.5
                             else math.copysign(r, math.cos(th))), n


# measured at most 5.0 eps sigma_1 over these 24 (8.1 over 300 of them)
def test_the_zone_route_matches_a_dense_svd_up_to_m_201():
    for expr, lam, n in zone_cases(31, 24):
        mat = sine_matrix(lam, ParamA.from_expr(expr), n)
        assert mat.resonant
        ref = _dense_values(mat)
        got = dpr1_singular_values(*mat.factors())
        assert np.max(np.abs(got - ref)) < 64 * EPS * ref[0], (expr, lam, n)


# the dense SVD took 2.6 s here; measured 5.1 MB
def test_the_zone_probe_at_2048_modes_takes_no_dense_svd_and_stays_within_8_mb(monkeypatch):
    def no_svd(*args, **kwargs):
        raise AssertionError("the zone probe took a dense SVD")
    monkeypatch.setattr(resolvent.np.linalg, "svd", no_svd)
    a = ParamA.from_expr("1/3")
    assert sine_matrix(0.5, a, 2048).resonant
    tracemalloc.start()
    try:
        singular_value_probe(0.5, a, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


# measured at most 5.3 eps sigma_1 (1/3, 22201.5); the dense SVD takes 1.8-11 s
@pytest.mark.slow
@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1"])
@pytest.mark.parametrize("lam", [0.5, 1 + 0.5j, 22201.5])
def test_the_zone_route_matches_a_dense_svd_at_2048_modes(expr, lam):
    a = ParamA.from_expr(expr)
    mat = sine_matrix(lam, a, 2048)
    assert mat.resonant
    probe = singular_value_probe(lam, a, 2048)["singular_values"]
    ref = _dense_values(mat)
    assert np.max(np.abs(probe - ref)) < 64 * EPS * ref[0]


def test_a_pole_is_refused_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the probe built something at an eigenvalue")
    for name in ("_tail_norms", "_zone_entries", "dpr1_singular_values", "_trace_tail"):
        monkeypatch.setattr(resolvent, name, no_work)
    monkeypatch.setattr(resolvent.np.linalg, "svd", no_work)
    with pytest.raises(PoleAtEigenvalue):
        singular_value_probe(36.0, ParamA.from_expr("1/3"), 512)


@pytest.mark.parametrize("d, x, y", [
    # |d| = (1, 1, 1/2, 0) with a zero row weight and a zero column weight
    ([1.0, -1.0, 0.5j, 0.0], [0.3, 0.4, 0.0, 0.2 + 0.1j], [0.5, -0.25j, 0.7, 0.0]),
    # every row weight live: step A has the root mu = 0
    ([1.0, 2.0, 0.5], [0.3, 0.2, 0.1], [1.0, 2.0, 3.0]),
])
def test_ties_and_zero_weights_deflate(d, x, y):
    d, x, y = np.array(d), np.array(x), np.array(y)
    ref = np.linalg.svd(np.diag(d) + np.outer(x, y), compute_uv=False)
    assert np.max(np.abs(dpr1_singular_values(d, x, y) - ref)) < 16 * EPS * ref[0]


# a second row h at an m with d_m = x_m = 0, as in the zone: real and
# complex, with ties |d_i| = |d_j| (seeds 2, 3), x = 0 (seed 4, where
# M*M = |D|^2 + conj(h) h^T) and another d_i = 0 (seed 5); measured at
# most 2.1 eps sigma_1
@pytest.mark.parametrize("seed", range(6))
def test_a_second_row_matches_a_dense_svd(seed):
    rng = np.random.default_rng(seed)
    n, m = 24, 5
    d, x, y, h = rng.normal(size=(4, n)) + (seed % 2) * 1j * rng.normal(size=(4, n))
    if seed in (2, 3):
        d = np.repeat(d[:n // 2], 2)
    x[m] = d[m] = 0
    if seed == 4:
        x[:] = 0
    if seed == 5:
        d[m + 1] = 0
    mat = np.diag(d) + np.outer(x, y)
    mat[m] += h
    ref = np.linalg.svd(mat, compute_uv=False)
    assert np.max(np.abs(dpr1_singular_values(d, x, y, h) - ref)) < 16 * EPS * ref[0]


# entries within 16 eps max|M| of <e_m, R e_n> from a 50-digit three-point
# solve and 50-digit Gauss-Legendre quadrature, m, n <= 8 (the odd m nearest
# k is 1 or 5 here); measured at most 5.6 eps, at 25 - 1e-9 and sqrt(2)-1
@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1"])
@pytest.mark.parametrize("lam", [-1.0, 2.5 + 1j, 1.0, 1 + 1e-9, 1 - 1e-9, 25 - 1e-9])
def test_entries_match_a_50_digit_reference(expr, lam):
    a = ParamA.from_expr(expr)
    ref = mp_sine_entries(lam, a, 8)
    got = sine_matrix_dense(sine_matrix(lam, a, 64))[:8, :8]
    assert np.max(np.abs(got - ref)) < 16 * EPS * np.max(np.abs(ref))


def _mp_tails(lam: complex, a: ParamA, n: int, dps: int = 60) -> tuple[float, float]:
    """(|u_t|^2, |v_t|^2) as ||w||^2 and ||G_D(pi a/2, .)||^2 by mp quadrature
    less the first n terms, all at `dps` digits."""
    with mp.workdps(dps):
        lam, b, h = mp.mpc(lam), mp.pi * mp.mpf(a.value) / 2, mp.pi / 2
        k = mp.sqrt(lam)
        w2 = mp.quad(lambda x: abs(mp.cos(k * x) / mp.cos(k * h)) ** 2, [-h, h])
        scale = 1 / (k * mp.sin(k * mp.pi))
        left = lambda y: abs(scale * mp.sin(k * (y + h)) * mp.sin(k * (b - h))) ** 2  # noqa: E731
        right = lambda y: abs(scale * mp.sin(k * (b + h)) * mp.sin(k * (y - h))) ** 2  # noqa: E731
        g2 = mp.quad(left, [-h, b]) + mp.quad(right, [b, h])
        u2 = mp.fsum(8 / mp.pi * j * j / abs(j * j - lam) ** 2 for j in range(1, n + 1, 2))
        v2 = mp.fsum(2 / mp.pi * mp.sin(j * (b + h)) ** 2 / abs(j * j - lam) ** 2
                     for j in range(1, n + 1))
        return float(w2 - u2), float(g2 - v2)


# Parseval by the Cauchy integral against 60-digit quadrature; measured at
# most 4.7e-15 relative at N = 64 and 4.1e-14 at N = 512
@pytest.mark.parametrize("lam", [-1.0, -25.0, 2.5 + 1j, 0.5, 1 + 1e-9, 24.99])
@pytest.mark.parametrize("n", [64, 512])
def test_tail_norms_match_parseval_at_60_digits(lam, n):
    a = ParamA.from_expr("1/3")
    u_t, v_t = _tail_norms(complex(lam), a.value, n)
    ref_u, ref_v = _mp_tails(lam, a, n)
    assert u_t ** 2 == pytest.approx(ref_u, rel=1e-12)
    assert v_t ** 2 == pytest.approx(ref_v, rel=1e-12)


# against mpmath's Euler-Maclaurin sum of the smooth summand at 30 digits
# (measured 1.1e-16 relative)
@pytest.mark.parametrize("lam", [-1.0, 2.5 + 1j, -1e4])
def test_trace_tail_matches_a_30_digit_sum(lam):
    n = 512
    with mp.workdps(30):
        re, im = mp.mpf(complex(lam).real), mp.mpf(complex(lam).imag)
        ref = mp.nsum(lambda j: 1 / mp.sqrt((j * j - re) ** 2 + im ** 2), [n + 1, mp.inf],
                      method="euler-maclaurin")
    assert _trace_tail(complex(lam), n) == pytest.approx(float(ref), rel=1e-14)


# N and 2N modes agree within 1e-6 for j <= N/4 (measured 6.8e-7 and 3.4e-7)
@pytest.mark.parametrize("n", [512, 1024])
def test_singular_values_converge_in_the_basis_size(n):
    a = ParamA.from_expr("1/3")
    small = singular_value_probe(-1.0, a, n)["singular_values"][:n // 4]
    large = singular_value_probe(-1.0, a, 2 * n)["singular_values"][:n // 4]
    assert np.max(np.abs(small - large) / large) < 1e-6


# the Nystrom probe converges like h^2: against the 1025-node probe the exact
# values are off by a third of the 513-node probe's own distance (measured
# 5.0e-4 against 1.5e-3 at j <= 16 and 8.6e-3 against 2.7e-2 at j <= 64)
@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1"])
def test_the_exact_values_are_nearer_the_finer_nystrom_probe(expr):
    a = ParamA.from_expr(expr)
    fine = complex_probe_singular_values(-1.0, a, 1024)
    coarse = complex_probe_singular_values(-1.0, a, 512)
    exact = singular_value_probe(-1.0, a, 1024)["singular_values"]
    for j in (16, 64):
        dist = lambda s: np.max(np.abs(s[:j] - fine[:j]) / fine[:j])  # noqa: E731
        assert dist(exact) <= dist(coarse)


def test_the_fit_window_starts_past_2k_and_holds_16_values():
    assert check_probe(-1.0, 64) == (4, 32)
    assert check_probe(-1e4, 512) == (200, 256)
    # 2|k| = 17 leaves j = 17..32, sixteen values; 18 leaves fifteen
    assert check_probe(-(17 / 2) ** 2, 64) == (17, 32)
    with pytest.raises(ValueError, match="window"):
        check_probe(-9.0 ** 2, 64)
    for n in (63, 2049):
        with pytest.raises(ValueError, match="64 <= n <= 2048"):
            check_probe(-1.0, n)


def chain_lengths(a: ParamA, lambda_max: float) -> dict[float, int]:
    """Longest Jordan chain at each eigenvalue up to lambda_max, as
    `biorthogonalize` builds it: 1 plus its generalized vectors xi."""
    family = biorthogonalize(a, lambda_max)
    chains: dict[float, int] = {}
    for rec, label in zip(family.records, family.labels):
        chains[rec.lam] = chains.get(rec.lam, 1) + (label == "xi")
    return chains


def pole_order_mismatches(a: ParamA, chains: dict[float, int]) -> list[tuple]:
    """(lambda_0, direction, measured, chain) wherever log10 of
    sigma_1(lambda_0 + 1e-5 z)/sigma_1(lambda_0 + 1e-4 z), z = 1 and i, does
    not round to the chain length: sigma_1 grows like delta^-m at a pole of
    order m, and the order of the resolvent's pole is the longest chain."""
    out = []
    for lam0, length in chains.items():
        for z in (1.0, 1j):
            top = [singular_value_probe(lam0 + delta * z, a, 128)["singular_values"][0]
                   for delta in (1e-5, 1e-4)]
            order = math.log10(top[0] / top[1])
            if round(order) != length:
                out.append((lam0, z, order, length))
    return out


# measured 2.000 at 36, 144, 324 (1/3), 100, 400 (1/5) and 196 (3/7), the
# exceptional pairs, and 1.000 at every other eigenvalue, 0 and the odd
# squares 9, 81, 225 at 1/3 (next to which the probe takes the zone's
# three solves) included
@pytest.mark.parametrize("expr", ["1/3", "1/5", "3/7", "sqrt(2)-1"])
def test_pole_order_is_the_jordan_chain_length(expr):
    a = ParamA.from_expr(expr)
    assert pole_order_mismatches(a, chain_lengths(a, 400.0)) == []


def test_a_family_cut_to_chain_length_one_fails_the_pole_order():
    a = ParamA.from_expr("1/3")
    cut = {lam: 1 for lam in chain_lengths(a, 150.0)}
    assert {lam for lam, *_ in pole_order_mismatches(a, cut)} == {36.0, 144.0}
