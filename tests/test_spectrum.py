import math
from fractions import Fraction

import numpy as np
import pytest

from jumpspec.param import ParamA
from jumpspec.spectrum import (
    SpectralCase, curve_grid, curves, enumerate_spectrum, grid_points,
)

from reference_oracles import (
    char_det, count_zeros_in_rectangle, family_k_fraction, scan_determinant_zeros,
    two_branch_spectrum,
)


def lam_set(records):
    return sorted(r.lam for r in records)


def test_enumerate_one_third():
    a = ParamA.from_expr("1/3")
    recs = enumerate_spectrum(a, 40.0)
    assert lam_set(recs) == pytest.approx([0.0, 4.0, 9.0, 16.0, 36.0])
    top = recs[-1]
    assert set(top.memberships) == {(-1, 1), (1, 2), (0, 3)}
    assert (top.geom_mult, top.alg_mult) == (2, 3)
    assert top.case is SpectralCase.EXCEPTIONAL_PAIR
    for r in recs[:-1]:
        assert (r.geom_mult, r.alg_mult) == (1, 1)


@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1"])
@pytest.mark.parametrize("lam_max", [math.inf, -math.inf, math.nan, 0.0, -4.0])
def test_enumerate_rejects_a_non_positive_or_non_finite_lambda_max(expr, lam_max):
    with pytest.raises(ValueError, match="lambda_max"):
        enumerate_spectrum(ParamA.from_expr(expr), lam_max)


def test_enumerate_a_zero():
    recs = enumerate_spectrum(ParamA.from_expr("0"), 20.0)
    assert lam_set(recs) == pytest.approx([0.0, 4.0, 16.0])
    by_lam = {round(r.lam): r for r in recs}
    assert by_lam[4].case is SpectralCase.EXCEPTIONAL_ODD
    assert (by_lam[4].geom_mult, by_lam[4].alg_mult) == (1, 1)
    assert by_lam[16].case is SpectralCase.EXCEPTIONAL_PAIR
    assert (by_lam[16].geom_mult, by_lam[16].alg_mult) == (2, 3)
    assert set(by_lam[16].memberships) == {(-1, 1), (1, 1), (0, 2)}


def test_enumerate_irrational():
    recs = enumerate_spectrum(ParamA.from_expr("sqrt(2)-1"), 10.0)
    assert lam_set(recs) == pytest.approx([0.0, 4.0, 8.0])
    assert all((r.geom_mult, r.alg_mult) == (1, 1) for r in recs)


def test_smallest_nonzero_eigenvalue_is_the_gap():
    for expr in ("0", "1/3", "2/5", "-4/7", "sqrt(2)-1", "(sqrt(5)-1)/2"):
        recs = enumerate_spectrum(ParamA.from_expr(expr), 30.0)
        nonzero = [r.lam for r in recs if r.lam > 0]
        assert min(nonzero) == pytest.approx(4.0)


def test_char_det_values():
    assert char_det(ParamA.from_expr("0"), 1.0) == pytest.approx(-2.0)
    a = ParamA.from_expr("2/5")
    assert abs(char_det(a, 2.0)) < 1e-12          # wavenumber-2 zero
    assert abs(char_det(a, 4 / (1 - 0.4))) < 1e-12  # second-factor zero


def test_char_det_vectorized_and_complex():
    a = ParamA.from_expr("1/3")
    ks = np.array([1.0, 2.0, 3.0 + 1.0j])
    vals = char_det(a, ks)
    assert vals.shape == (3,)
    assert vals[2] == pytest.approx(char_det(a, 3.0 + 1.0j))


@pytest.mark.parametrize("expr", ["1/3", "0", "2/5", "sqrt(2)-1"])
def test_scan_matches_enumeration(expr):
    a = ParamA.from_expr(expr)
    lam_max = 400.0
    recs = enumerate_spectrum(a, lam_max)
    zeros = scan_determinant_zeros(a, math.sqrt(lam_max))
    ks = sorted(r.k for r in recs)
    assert len(zeros) == len(ks)
    for z, k in zip(zeros, ks):
        assert z == pytest.approx(k, abs=5e-9)
    for r in recs:
        assert abs(char_det(a, r.k)) < 1e-9


def test_no_nonreal_zeros_by_argument_principle():
    # zero count inside a complex rectangle equals the membership-weighted
    # count of real zeros inside it
    for expr in ("1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        recs = enumerate_spectrum(a, 144.0)
        k_lo, k_hi = 0.5, 11.5
        expected = sum(len(r.memberships) for r in recs
                       if k_lo < r.k < k_hi)
        count = count_zeros_in_rectangle(a, k_lo, k_hi, 1.5)
        assert count == expected


def test_exceptional_set_matches_exact_intersection():
    a = ParamA.from_expr("2/5")
    lam_max = 2500.0
    recs = enumerate_spectrum(a, lam_max)
    flagged = {r.k for r in recs if r.alg_mult == 3}
    # independent route: brute-force intersection of the two wavenumber
    # families by exact fraction equality
    p, q = 2, 5
    inter = set()
    for m1 in range(1, 200):
        k1 = Fraction(4 * m1 * q, q - p)
        if float(k1) ** 2 > lam_max:
            break
        for m2 in range(1, 200):
            k2 = Fraction(4 * m2 * q, q + p)
            if k2 == k1:
                inter.add(float(k1))
    assert inter  # rational parameter: intersection below the cutoff
    assert flagged == inter


def test_membership_lambda_consistency():
    a = ParamA.from_expr("2/5")
    for r in enumerate_spectrum(a, 900.0):
        for cls, m in r.memberships:
            if cls == 0:
                assert r.lam == pytest.approx((2 * m) ** 2)
            else:
                assert r.lam == pytest.approx((4 * m / (1 + cls * a.value)) ** 2)


def test_curves_families():
    rows = curves(np.arange(-0.9, 0.91, 0.3), 3)
    zero_rows = [(a, m, lam) for a, cls, m, lam in rows if cls == 0]
    for a, m, lam in zero_rows:
        assert lam == (2 * m) ** 2  # a-independent
    minus_m1 = sorted((a, lam) for a, cls, m, lam in rows if cls == -1 and m == 1)
    lams = [lam for _, lam in minus_m1]
    assert all(l2 > l1 for l1, l2 in zip(lams, lams[1:]))  # increasing in a


@pytest.mark.parametrize("lo, hi, step", [
    (-0.95, 0.95, 0.01), (-0.9, 0.9, 0.45), (-0.5, 0.5, 0.25), (0.1, 0.9, 0.1), (0.0, 0.0, 0.1),
    (-0.9, 0.91, 0.3), (0.0, 0.5, 0.3), (-0.999999, 0.999999, 0.5), (0.3, 0.3000001, 1e-8)])
def test_curve_grid_is_counted_as_built_and_ends_at_hi(lo, hi, step):
    grid = curve_grid(lo, hi, step)
    assert len(grid) == grid_points(lo, hi, step)
    assert grid[0] == lo and grid[-1] <= hi + 1e-9 * (hi - lo) and grid[-1] + step > hi
    # a grid that ends at hi keeps np.arange's points, bit for bit
    if round((hi - lo) / step, 6).is_integer():
        assert np.array_equal(grid, np.arange(lo, hi + step / 2, step))


def test_curve_grid_counts_an_unbuildable_grid_as_inf():
    assert grid_points(-0.95, 0.95, 1e-320) == np.inf
    assert grid_points(-0.95, 0.95, 1e-12) == 1.9e12 + 1


def test_curves_cross_at_one_third():
    rows = curves([1 / 3], 4)
    hits = {(cls, m) for a, cls, m, lam in rows if lam == pytest.approx(36.0)}
    assert hits == {(-1, 1), (1, 2), (0, 3)}


@pytest.mark.parametrize("expr", ["0", "1/3", "-1/3", "2/7", "-9/10", "99/100", "1/1000003",
                                  "sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi"])
def test_enumeration_matches_the_two_branch_reference_bit_for_bit(expr):
    a = ParamA.from_expr(expr)
    got = [(r.lam, r.k, r.memberships, r.geom_mult, r.alg_mult, r.case.value)
           for r in enumerate_spectrum(a, 4.0 * 514 ** 2)]
    want = two_branch_spectrum(a, 4.0 * 514 ** 2)
    assert len(got) > 500
    # repr tells every float bit apart, 0.0 from -0.0 included
    assert repr(got) == repr(want)


@pytest.mark.parametrize("lambda_max", [36.0, 1e4 + 0.5, 4e6])
@pytest.mark.parametrize("expr", ["1/3", "-3/7", "1/1000003", "99999/100000", "0",
                                  "sqrt(2)-1", "1/pi"])
def test_integer_keys_give_the_fraction_keyed_records(expr, lambda_max):
    # members merge on the integer k (Q-P)(Q+P), not on a Fraction k
    a = ParamA.from_expr(expr)
    records = enumerate_spectrum(a, lambda_max)
    got = [(r.lam, r.k, r.memberships, r.geom_mult, r.alg_mult, r.case.value) for r in records]
    assert repr(got) == repr(two_branch_spectrum(a, lambda_max))
    for r in records:
        for cls, m in r.memberships:
            assert repr(r.k) == repr(float(family_k_fraction(a, cls, m)))
