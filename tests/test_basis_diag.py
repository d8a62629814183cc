import math

import numpy as np
import pytest

from jumpspec import basis_diag, funcspace
from jumpspec.basis_diag import (
    Which, _projection_norms, blowup_probe, expansion_residuals, proj_norm_zero_generic,
    projection_norms, random_smooth_probe, rational_bound_check, truncated_completeness,
)
from jumpspec.eigensystem import biorthogonalize
from jumpspec.param import NotIrrational, ParamA
from jumpspec.spectrum import SpectralCase, enumerate_spectrum

from reference_oracles import (
    banded_quadrature_norms, generalized_xi, generic_norm_median, per_record_quadrature_norms,
    per_remainder_residuals,
)
from util import norm_l2

EPS = np.finfo(float).eps


def record_at(a, lam, lam_max=100.0):
    for r in enumerate_spectrum(a, lam_max):
        if abs(r.lam - lam) < 1e-9:
            return r
    raise LookupError(lam)


# ---------------------------------------------------------------------------
# projection norms
# ---------------------------------------------------------------------------

def test_zero_eigenvalue_norm():
    for expr in ("0", "1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        (rec,) = _projection_norms(a, [record_at(a, 0.0)])
        assert rec.closed_form == pytest.approx(math.sqrt(4 / 3), abs=1e-12)
        assert abs(rec.closed_form - rec.pairing) / rec.closed_form < 1e-8


def test_exceptional_odd_norm_is_one():
    a = ParamA.from_expr("0")
    (rec,) = _projection_norms(a, [record_at(a, 4.0)])
    assert rec.closed_form == 1.0
    assert rec.pairing == pytest.approx(1.0, abs=1e-8)


def test_exceptional_triple_norms():
    a = ParamA.from_expr("1/3")
    recs = _projection_norms(a, [record_at(a, 36.0)])
    assert [r.which for r in recs] == [Which.P1, Which.P2, Which.P3]
    assert recs[0].closed_form == pytest.approx(math.sqrt(2 / (1 - a.value)))
    assert recs[0].closed_form == pytest.approx(math.sqrt(3.0))
    for r in recs:
        assert abs(r.closed_form - r.pairing) / r.closed_form < 1e-8
        assert r.closed_form >= 1.0


def test_all_norms_dominate_one():
    for expr in ("1/3", "2/5", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        for rec in enumerate_spectrum(a, 500.0):
            for pn in _projection_norms(a, [rec]):
                assert pn.closed_form >= 1.0 - 1e-12
                assert abs(pn.closed_form - pn.pairing) / pn.closed_form < 1e-8


DIFFERENTIAL_PARAMS = ["sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi", "1/3", "0", "2/5", "-3/7"]


@pytest.mark.parametrize("expr", DIFFERENTIAL_PARAMS)
def test_stacked_quadrature_norms_match_the_per_record_oracle(expr):
    # the pairings of the whole family against one quadrature Gram matrix
    # per record on the record's own grid
    a = ParamA.from_expr(expr)
    stacked = [pn.pairing for pn in projection_norms(a, 900.0)]
    oracle = per_record_quadrature_norms(a, 900.0)
    assert len(stacked) == len(oracle) >= 30
    for got, want in zip(stacked, oracle):
        assert abs(got - want) <= 1e-13 * want


def _conditioning_bound(pn) -> float:
    """The deviation from the closed form allowed: 4 eps max(k, 1) kappa of
    it, kappa the closed-form norm itself."""
    return 4 * EPS * max(pn.record.k, 1.0) * pn.closed_form * pn.closed_form


@pytest.mark.parametrize("expr, lambda_max", [
    ("1/3", 900.0), ("sqrt(2)-1", 900.0), ("1/pi", 1e6), ("sqrt(2)-1", 4e6),
    pytest.param("(sqrt(5)-1)/2", 1e8, marks=pytest.mark.slow),
    pytest.param("1/3", 1e8, marks=pytest.mark.slow),
    pytest.param("sqrt(2)-1", 9.9e9, marks=pytest.mark.slow),
])
def test_pairing_norms_stay_within_the_conditioning_bound(expr, lambda_max):
    # |pairing - closed| / closed measured at most 1.61 eps max(k, 1) kappa
    # on every record of these ranges: 1.24 at the near-degenerate records
    # near lambda 504100 at 1/pi (7.9e-9 relative), 1.35 near 9e9 at
    # sqrt(2)-1 (3.8e-7); the rounding of a float k amplified by kappa
    # would scale so, which side is off is open
    rows = projection_norms(ParamA.from_expr(expr), lambda_max)
    for pn in rows:
        assert abs(pn.pairing - pn.closed_form) <= _conditioning_bound(pn), pn


@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1", "1/pi"])
def test_pairing_norms_match_the_quadrature_route(expr):
    # against quad_inner on each band's own grid, 500 projections each;
    # the quadrature agrees within 1.1e-11 (sqrt(2)-1), at most 3.0 of 4 in
    # units of the conditioning bound
    a = ParamA.from_expr(expr)
    rows, quadrature = projection_norms(a, 2.5e5), banded_quadrature_norms(a, 2.5e5)
    assert len(rows) == len(quadrature) >= 500
    for pn, quad in zip(rows, quadrature):
        assert abs(pn.pairing - quad) <= _conditioning_bound(pn) * quad / pn.closed_form, pn


def test_projection_norms_pair_only_rows_that_share_an_owner(monkeypatch):
    # one root-vector pass for all records; per segment of the common
    # partition the pair kernel sees each member's rows against its
    # partner's only, sum_j r_j s_j pairs for each of the three products
    built, pairs = [], []
    real_chains, real_kernel = basis_diag._chains, funcspace._pair_kernel

    def counting_chains(a, records):
        built.append(real_chains(a, records))
        return built[-1]

    def counting_kernel(f, g, h):
        vals = real_kernel(f, g, h)
        pairs.append(vals.size)
        return vals

    monkeypatch.setattr(basis_diag, "_chains", counting_chains)
    monkeypatch.setattr(funcspace, "_pair_kernel", counting_kernel)
    a = ParamA.from_expr("1/3")
    rows = projection_norms(a, 1e4)
    records = enumerate_spectrum(a, 1e4)
    assert len(built) == 1
    fwd, adj = built[0]
    assert fwd.count == adj.count == len(rows) == len(records) + 2 * sum(
        rec.case is SpectralCase.EXCEPTIONAL_PAIR for rec in records) > len(records)
    expected = 0
    for f, g in ((fwd, fwd), (adj, adj), (adj, fwd)):
        edges = sorted({x for stack in (f, g) for piece in stack.pieces for x in piece[:2]})
        expected += sum(len(f.fn(j).on(lo, hi)[0]) * len(g.fn(j).on(lo, hi)[0])
                        for j in range(fwd.count) for lo, hi in zip(edges, edges[1:]))
    assert sum(pairs) == expected
    assert max(pairs) <= funcspace._PAIR_BLOCK


def test_triple_norm_large_m_limits():
    # the P2 and P3 norms tend to explicit constants as the family index
    # grows: sqrt(16 pi^2 (1+a))/(2 sqrt(3) pi sqrt(1+a)) = 2/sqrt(3) and
    # sqrt(64 pi^2)/(2 sqrt(6) pi sqrt(1+a)(1-a))
    rng = np.random.default_rng(0)
    from util import rational_exceptional_config
    a, m, t = rational_exceptional_config(rng)
    av = a.value
    from jumpspec.basis_diag import _proj_norms_exceptional
    _, p2, p3 = _proj_norms_exceptional(a, 1000)
    lim2 = 2 / math.sqrt(3.0)
    lim3 = 8 * math.pi / (2 * math.sqrt(6.0) * math.pi * math.sqrt(1 + av) * (1 - av))
    assert p2 == pytest.approx(lim2, rel=0.01)
    assert p3 == pytest.approx(lim3, rel=0.01)


# ---------------------------------------------------------------------------
# blow-up along convergents
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("expr", ["sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi"])
def test_blowup_running_max(expr):
    a = ParamA.from_expr(expr)
    rows = blowup_probe(a, 10)
    median = generic_norm_median(a)
    running_max = 0.0
    exceeded_at = None
    for row in rows:
        running_max = max(running_max, row.norm)
        if exceeded_at is None and running_max > 10 * median:
            exceeded_at = row.k
    assert exceeded_at is not None and exceeded_at < 10
    # envelope grows: last running max dominates the first row
    assert running_max > rows[0].norm


def test_blowup_sqrt2_values():
    a = ParamA.from_expr("sqrt(2)-1")
    rows = blowup_probe(a, 5)
    by_q = {r.q: r for r in rows}
    assert by_q[29].norm > 10           # exceeds 10 by q = 29
    assert by_q[12].norm > 10
    for r in rows:
        # Dirichlet-bound consistency: 1 - cos < (2 pi / q)^2 / 2
        assert r.one_minus_cos < (2 * math.pi / r.q) ** 2 / 2
        assert r.m == 2 * r.q
        # growth at least ~ q/(pi sqrt(2))
        assert r.norm >= r.q / (math.pi * math.sqrt(2.0))


def test_blowup_requires_irrational():
    with pytest.raises(NotIrrational):
        blowup_probe(ParamA.from_expr("1/3"), 5)


def test_generic_norms_stay_moderate_off_the_sequence():
    a = ParamA.from_expr("sqrt(2)-1")
    special = {2 * c.q for c in __import__("jumpspec.param", fromlist=["convergents"]).convergents(a, 8)}
    norms = [proj_norm_zero_generic(a, m) for m in range(1, 60) if m not in special]
    assert float(np.median(norms)) < 10.0


# ---------------------------------------------------------------------------
# rational bounds
# ---------------------------------------------------------------------------

def test_rational_bounds_one_third():
    a = ParamA.from_expr("1/3")
    rep = rational_bound_check(a, 120)
    assert rep["estimates_hold"]
    assert rep["within_bounds"]
    assert rep["bounds"]["zero"] == pytest.approx(3 * math.sqrt(2) / 2)
    assert rep["vacuous"]["minus"]  # every -1-class index is exceptional here


def test_rational_bounds_a_zero_vacuous():
    rep = rational_bound_check(ParamA.from_expr("0"), 50)
    assert all(rep["vacuous"].values())
    assert rep["within_bounds"]


@pytest.mark.parametrize("pq", [(2, 5), (-1, 4), (3, 7), (1, 6)])
def test_rational_bounds_various(pq):
    rep = rational_bound_check(ParamA.from_fraction(*pq), 150)
    assert rep["estimates_hold"] and rep["within_bounds"]


# ---------------------------------------------------------------------------
# truncated completeness
# ---------------------------------------------------------------------------

def test_residuals_decrease_for_smooth_probes():
    a = ParamA.from_expr("sqrt(2)-1")
    rep = truncated_completeness(a, 100, 3, seed=2024)
    n_lo, n_hi = 25, 100
    for name, res in rep["residuals"].items():
        if name == "family_member":
            assert res[n_hi] < 1e-9
        else:
            assert res[n_hi] < res[n_lo]


def test_family_member_reproduced_exactly():
    a = ParamA.from_expr("2/5")
    pairs = biorthogonalize(a, 600.0)
    member = pairs.psi.fn(5)
    res, = expansion_residuals([member], pairs, [6, 10])
    assert res[6] < 1e-9 and res[10] < 1e-9


def test_excluding_generalized_vectors_blocks_completeness():
    a = ParamA.from_expr("1/3")
    pairs = biorthogonalize(a, 4.0 * 44 ** 2)[:48]
    rec = record_at(a, 36.0)
    xi = generalized_xi(rec, a)
    full, = expansion_residuals([xi], pairs, [12, 24, 48], include_generalized=True)
    reduced, = expansion_residuals([xi], pairs, [12, 24, 48], include_generalized=False)
    assert full[48] < 1e-9
    floor = norm_l2(xi)
    for n_cut in (12, 24, 48):
        assert reduced[n_cut] == pytest.approx(floor, rel=1e-6)


@pytest.mark.parametrize("expr", ["0", "1/3", "-1/3", "2/7", "sqrt(2)-1", "1/pi", "99/100",
                                  "1-1/1000000", "-1+1/1000000"])
def test_n_plus_2_squared_holds_n_pairs(expr):
    # k <= K holds floor(K/2) + 1 + floor(K(1-a)/4) + floor(K(1+a)/4) > K - 2
    # pairs; biorthogonalize keeps exactly the records with k <= sqrt(lambda_max)
    a = ParamA.from_expr(expr)
    ks = [rec.k for rec in biorthogonalize(a, 302.0 ** 2).records]
    for n in range(1, 301):
        assert sum(k <= n + 2 for k in ks) >= n + 1, n
    for n in (1, 6, 29):
        assert len(biorthogonalize(a, (n + 2) ** 2)) == sum(k <= n + 2 for k in ks)


@pytest.mark.parametrize("expr", ["sqrt(2)-1", "1/3", "-9/10"])
def test_shared_term_gram_matches_per_remainder_norms(expr):
    # measured over seeds 1, 7 and 2024 at six a, N <= 200: the probes'
    # relative gap is at most 3.7e-13, but 1.1e-11 at -9/10, where both
    # routes lie ~1e-11 from a 40-digit sum of the same remainder; the
    # family member's (residual ~1e-15) is at most 4.7e-16
    a = ParamA.from_expr(expr)
    pairs = biorthogonalize(a, 202.0 ** 2)[:200]
    rng = np.random.default_rng(2024)
    fs = [random_smooth_probe(rng) for _ in range(4)] + [pairs.psi.fn(5)]
    checkpoints = [25, 50, 100, 200]
    shared = expansion_residuals(fs, pairs, checkpoints)
    for f, residuals in zip(fs, shared):
        bound = 2e-15 if f is fs[-1] else 5e-11
        for n, expected in per_remainder_residuals(f, pairs, checkpoints).items():
            assert abs(residuals[n] - expected) <= bound * expected, (n, residuals[n], expected)


def test_truncated_completeness_norms_all_remainders_in_one_pass(monkeypatch):
    # the remainders share most of their keys, so norms takes the key Gram
    norm_calls, kernel_passes = [], []
    norms, pair_blocks = funcspace.norms, funcspace._pair_blocks

    def counting_norms(fns):
        norm_calls.append(fns.count)
        return norms(fns)

    def counting_blocks(*args):
        kernel_passes.append(len(args[0]))
        return pair_blocks(*args)

    def no_inner(f, g):
        raise AssertionError("a remainder was normed on its own")

    monkeypatch.setattr(basis_diag, "norms", counting_norms)
    monkeypatch.setattr(funcspace, "_pair_blocks", counting_blocks)
    monkeypatch.setattr(funcspace, "inner_closed", no_inner)
    report = truncated_completeness(ParamA.from_expr("sqrt(2)-1"), 200, 4)
    assert len(report["checkpoints"]) == 4 and norm_calls == [5 * 4]
    # the coefficients take one pass per piece of the duals, the norms one
    assert len(kernel_passes) == 3


def test_truncation_cap():
    with pytest.raises(ValueError):
        truncated_completeness(ParamA.from_expr("sqrt(2)-1"), 500, 1)


@pytest.mark.parametrize("n_trunc", [0, -3])
def test_truncation_order_below_one_is_refused(n_trunc):
    # -3 would give checkpoints [-3, -2, -1, 1] from members[:-3], 0 a checkpoint 0
    with pytest.raises(ValueError, match="1 <= N"):
        truncated_completeness(ParamA.from_expr("1/3"), n_trunc, 1)
