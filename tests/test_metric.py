import math

import numpy as np
import pytest

from jumpspec import funcspace, metric
from jumpspec.eigensystem import biorthogonalize, eigenfunctions_H
from jumpspec.funcspace import Piece, PiecewiseTrig, Stack, const, cos_term, inner_closed
from jumpspec.metric import (
    ROUNDING_BOUND, DomainViolation, MetricOp, contract_failures,
    even_mode_coefficient, noninvertibility_probe,
)
from jumpspec.param import NotIrrational, ParamA, convergents
from jumpspec.spectrum import enumerate_spectrum

from reference_oracles import (
    injectivity_probe, neumann_mode, one_sided, per_member_metric_report, rayleigh_quotient,
    validate_domain_Hstar, zero_function,
)
from util import apply_theta, norm_l2, random_domain_member, random_trig

HALF_PI = math.pi / 2
SQRT2M1 = ParamA.from_expr("sqrt(2)-1")


def project_center(f: PiecewiseTrig) -> PiecewiseTrig:
    """metric.project_center of the one function f."""
    return metric.project_center(f).fn(0)


def project_pieces(f: PiecewiseTrig, a: ParamA) -> PiecewiseTrig:
    """metric.project_pieces of the one function f."""
    return metric.project_pieces(f, a).fn(0)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_projection_idempotence():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_trig(rng)
        p0 = project_center(f)
        assert norm_l2(project_center(p0) - p0) < 1e-12
    for _ in range(5):
        f = random_trig(rng)
        pp = project_pieces(f, SQRT2M1)
        # idempotence checked through the quadratic form identity
        # (f, P f) = ||P f||^2 for a self-adjoint idempotent
        assert inner_closed(f, pp).real == pytest.approx(
            inner_closed(pp, pp).real, abs=1e-11)


def test_projection_self_adjointness():
    rng = np.random.default_rng(4)
    f, g = random_trig(rng), random_trig(rng)
    assert inner_closed(f, project_center(g)) == pytest.approx(
        inner_closed(project_center(f), g), abs=1e-11)
    assert inner_closed(f, project_pieces(g, SQRT2M1)) == pytest.approx(
        inner_closed(project_pieces(f, SQRT2M1), g), abs=1e-11)


def test_boundary_bookkeeping_for_domain_members():
    rng = np.random.default_rng(5)
    a = SQRT2M1
    xb = HALF_PI * a.value
    for _ in range(6):
        f = random_domain_member(a, rng)
        p0 = project_center(f)
        pp = project_pieces(f, a)
        assert abs(p0(HALF_PI)) < 1e-11 and abs(p0(-HALF_PI)) < 1e-11
        assert abs(one_sided(pp, -HALF_PI, +1)) < 1e-11   # P- vanishes at -pi/2
        assert abs(one_sided(pp, HALF_PI, -1)) < 1e-11    # P+ vanishes at +pi/2
        assert abs(one_sided(pp, xb, -1)) < 1e-11         # P- at restart-
        assert abs(one_sided(pp, xb, +1)) < 1e-11         # P+ at restart+
        dpp = pp.derivative(1)
        df = f.derivative(1)
        jump_in = one_sided(dpp, xb, +1) - one_sided(dpp, xb, -1)
        half_outer = (df(HALF_PI) - df(-HALF_PI)) / 2
        assert jump_in == pytest.approx(half_outer, abs=1e-10)
        dp0 = p0.derivative(1)
        assert dp0(HALF_PI) - dp0(-HALF_PI) == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# the metric
# ---------------------------------------------------------------------------

def test_theta_symmetry():
    rng = np.random.default_rng(6)
    op = MetricOp.build(SQRT2M1)
    for _ in range(8):
        f, g = random_trig(rng), random_trig(rng)
        lhs = inner_closed(f, apply_theta(op, g))
        rhs = np.conj(inner_closed(g, apply_theta(op, f)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_theta_positivity():
    rng = np.random.default_rng(7)
    op = MetricOp.build(SQRT2M1)
    for _ in range(40):
        f = random_trig(rng)
        q = inner_closed(f, apply_theta(op, f)).real
        assert q >= -1e-12
        # quadratic form identity: |(phi0,f)|^2 + ||P0 f||^2 + ||P- f (+) P+ f||^2
        parts = (abs(inner_closed(op.phi0, f)) ** 2 + norm_l2(project_center(f)) ** 2
                 + norm_l2(project_pieces(f, SQRT2M1)) ** 2)
        assert q == pytest.approx(parts, abs=1e-10)


def test_theta_of_zero_and_constant():
    op = MetricOp.build(SQRT2M1)
    zero = zero_function()
    assert norm_l2(apply_theta(op, zero)) == 0
    one = PiecewiseTrig.single([const(1.0)])
    # antisymmetrizers annihilate constants: Theta 1 = phi0 (phi0, 1)
    expect = op.phi0.scaled(inner_closed(op.phi0, one))
    assert norm_l2(apply_theta(op, one) - expect) < 1e-12
    assert op.intertwining_residuals(one)[0] < 1e-12


def test_theta_term_by_term():
    rng = np.random.default_rng(8)
    op = MetricOp.build(SQRT2M1)
    f = op.phi0  # two-piece input is rejected by the symbolic route
    with pytest.raises(DomainViolation):
        apply_theta(op, f)
    g = random_trig(rng)
    total = apply_theta(op, g)
    parts = (op.phi0.scaled(inner_closed(op.phi0, g))
             + project_center(g) + project_pieces(g, SQRT2M1))
    assert norm_l2(total - parts) < 1e-12


def test_intertwining_on_domain_members():
    rng = np.random.default_rng(9)
    a = SQRT2M1
    op = MetricOp.build(a)
    members = [eigenfunctions_H(rec, a)[0]
               for rec in enumerate_spectrum(a, 150.0)]
    members += [random_domain_member(a, rng) for _ in range(10)]
    for psi in members:
        res = op.intertwining_residuals(psi)[0]
        assert res / max(norm_l2(psi), 1e-300) < 1e-8


def test_theta_maps_domain_into_adjoint_domain():
    rng = np.random.default_rng(10)
    a = SQRT2M1
    op = MetricOp.build(a)
    for _ in range(6):
        psi = random_domain_member(a, rng)
        assert validate_domain_Hstar(apply_theta(op, psi), a).in_domain


def test_eigen_intertwining():
    # Theta psi_lambda is an adjoint eigenfunction for the same lambda
    a = SQRT2M1
    op = MetricOp.build(a)
    for rec in enumerate_spectrum(a, 60.0):
        psi = eigenfunctions_H(rec, a)[0]
        tpsi = apply_theta(op, psi)
        resid = tpsi.derivative(2).scaled(-1.0) - tpsi.scaled(rec.lam)
        assert norm_l2(resid) < 1e-8 * max(1.0, norm_l2(tpsi))


def test_domain_violation_rejected():
    op = MetricOp.build(SQRT2M1)
    bad = PiecewiseTrig.single([cos_term(1.0, 2.0)])  # breaks the BCs
    with pytest.raises(DomainViolation):
        op.intertwining_residuals(bad)
    # one bad member among domain members fails the whole batch, by name
    members = [random_domain_member(SQRT2M1, np.random.default_rng(11)) for _ in range(3)]
    with pytest.raises(DomainViolation, match="f_2: boundary condition"):
        op.intertwining_residuals(Stack.join(members[:2] + [bad] + members[2:]))


def test_domain_check_tolerance_scales_with_the_sup():
    # a member off the three-point condition by 1e-9 * 0.9 of its sup passes,
    # by 1.1 of it fails (the sup of |f| here is about 1e3)
    op = MetricOp.build(SQRT2M1)
    base = random_domain_member(SQRT2M1, np.random.default_rng(12)).scaled(1e3)
    scale = float(np.max(np.abs(base(np.linspace(-HALF_PI, HALF_PI, 257)))))
    bump = PiecewiseTrig.single([cos_term(1.0, 1.0)])  # 0 at +-pi/2, not at pi a/2
    at_xb = math.cos(HALF_PI * SQRT2M1.value)
    for factor, ok in ((0.9, True), (1.1, False)):
        f = base + bump.scaled(factor * 1e-9 * scale / at_xb)
        if ok:
            op.intertwining_residuals(f)
        else:
            with pytest.raises(DomainViolation):
                op.intertwining_residuals(f)


# ---------------------------------------------------------------------------
# the contract on the root system
# ---------------------------------------------------------------------------

def _root_system_contract(expr: str, lambda_max: float = 200.0) -> tuple[dict, list[str]]:
    a = ParamA.from_expr(expr)
    report = MetricOp.build(a).root_system_report(biorthogonalize(a, lambda_max))
    return report, contract_failures(report)


@pytest.mark.parametrize("expr", ["sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi"])
def test_root_system_contract_holds_at_irrational_a(expr):
    report, failures = _root_system_contract(expr)
    assert failures == []
    # measured: r_j <= 1.2e-15, c_j/||psi_j||^2 >= 5.0e-3 (1/pi),
    # kappa ratio <= 0.45, intertwining residual <= 4.1e-14
    assert report["max_root_residual"] < 1e-14
    assert report["positivity_min"] > 1e-3
    assert 0.1 < report["max_kappa_ratio"] < 0.6


def test_root_system_contract_sees_the_jordan_chain_at_one_third():
    # Theta is not injective on the exceptional root spaces: c_j of the
    # chain's eigenvector psi_2 is (psi_2, Theta psi_2) = 0 up to rounding
    report, failures = _root_system_contract("1/3")
    assert report["positivity_min"] < ROUNDING_BOUND
    # the chains meet Theta psi_j = c_j phi_j too, c_j = 0 on the eigenvector
    assert report["max_root_residual"] < 1e-14
    assert len(failures) == 1 and failures[0].startswith("positivity_min")


def _shifted_antisymmetrizer(monkeypatch, which: str, shift: float = 1e-9) -> None:
    rows = metric._antisymmetric_rows
    if which == "P0":
        monkeypatch.setattr(metric, "project_center", lambda fs: Stack(
            (Piece(-HALF_PI, HALF_PI, *rows(fs, shift)),), fs.count))
        return

    def project_pieces_shifted(fs, a):
        av = a.value
        xb = HALF_PI * av
        return Stack((Piece(-HALF_PI, xb, *rows(fs, -HALF_PI * (1 - av) + shift)),
                      Piece(xb, HALF_PI, *rows(fs, HALF_PI * (1 + av)))), fs.count)
    monkeypatch.setattr(metric, "project_pieces", project_pieces_shifted)


@pytest.mark.parametrize("which", ["P0", "P-"])
def test_contract_fails_when_a_reflection_center_moves_by_1e_9(monkeypatch, which):
    _shifted_antisymmetrizer(monkeypatch, which)
    report, failures = _root_system_contract("sqrt(2)-1")
    # neither c_j nor the intertwining residual sees the shift; r_j does
    # (clean, it reads at most 1.2e-15 at lambda <= 200)
    assert report["max_root_residual"] > 1e-9
    assert report["positivity_min"] > 1e-3
    assert report["max_intertwining_residual"] < 1e-12
    assert [f.split()[0] for f in failures] == ["Theta"]


@pytest.mark.parametrize("expr", ["sqrt(2)-1", "1/3"])
def test_contract_fails_when_c_j_is_off_by_1e_6(monkeypatch, expr):
    pairs = metric.inner_pairs
    monkeypatch.setattr(metric, "inner_pairs", lambda fs, gs: pairs(fs, gs) * (1 + 1e-6))
    report, failures = _root_system_contract(expr)
    assert report["max_root_residual"] > 1e-7
    assert "Theta" in [f.split()[0] for f in failures]


def test_contract_fails_without_the_rank_one_term(monkeypatch):
    # the constant psi_0 then meets only the antisymmetrizers: c_0 = 0
    monkeypatch.setattr(metric, "phi_zero_mode", lambda a: zero_function())
    report, failures = _root_system_contract("sqrt(2)-1")
    assert report["positivity_min"] == 0.0
    assert [f.split()[0] for f in failures] == ["positivity_min"]


def test_contract_fails_without_p0(monkeypatch):
    # some psi_j is symmetric about both piece centres and orthogonal to phi0
    monkeypatch.setattr(metric, "project_center", lambda fs: fs.scaled(0.0))
    report, failures = _root_system_contract("sqrt(2)-1")
    assert abs(report["positivity_min"]) < 1e-15
    assert [f.split()[0] for f in failures] == ["positivity_min"]


@pytest.mark.parametrize("lambda_max", [120.0, 200.0, 900.0])
@pytest.mark.parametrize("expr", ["sqrt(2)-1", "(sqrt(5)-1)/2", "1/pi", "1/3", "0", "2/5",
                                  "-3/7"])
def test_root_system_report_matches_the_per_member_oracle(expr, lambda_max):
    # the whole family as one Stack against Theta, the norms and the
    # residual one member at a time, and r_j against the n x n off-diagonal
    # that it bounds by Cauchy-Schwarz
    a = ParamA.from_expr(expr)
    pairs = biorthogonalize(a, lambda_max)
    report = MetricOp.build(a).root_system_report(pairs)
    oracle = per_member_metric_report(a, pairs)
    for key in ("positivity_min", "max_kappa_ratio", "max_intertwining_residual"):
        assert abs(report[key] - oracle[key]) <= 1e-15, (key, report[key], oracle[key])
    eps = np.finfo(float).eps
    assert oracle["max_offdiagonal"] <= report["max_root_residual"] + 4 * eps


def test_root_system_report_forms_no_family_by_family_matrix(monkeypatch):
    # c_j, the norms and both residuals come from owner-local pairings: an
    # inner_matrix of two families inside the report raises, each norms
    # call integrates no more term pairs than sum_j r_j^2 over the pieces
    # (r_j member j's rows there, about the piece midpoints), and the
    # report still reads the family
    inner_matrix, norms, pair_kernel = metric.inner_matrix, metric.norms, funcspace._pair_kernel
    integrated, norm_calls = [0], []

    def one_row_only(fs, gs):
        if fs.count > 1 and gs.count > 1:
            raise AssertionError("an n x n inner_matrix inside the report")
        return inner_matrix(fs, gs)

    def counting_kernel(f, g, h):
        vals = pair_kernel(f, g, h)
        integrated[0] += vals.size
        return vals

    def owner_pairs_at_most(stack):
        integrated[0] = 0
        out = norms(stack)
        owner_pairs = sum(int(np.sum(np.bincount(owners) ** 2))
                          for *_, owners in funcspace._about_midpoints(stack).pieces)
        assert integrated[0] <= owner_pairs
        norm_calls.append(stack.count)
        return out

    monkeypatch.setattr(metric, "inner_matrix", one_row_only)
    monkeypatch.setattr(metric, "norms", owner_pairs_at_most)
    monkeypatch.setattr(funcspace, "_pair_kernel", counting_kernel)
    for lambda_max in (120.0, 900.0):
        pairs = biorthogonalize(SQRT2M1, lambda_max)
        report = MetricOp.build(SQRT2M1).root_system_report(pairs)
        assert contract_failures(report) == []
        assert norm_calls[-2:] == [3 * pairs.psi.count, pairs.psi.count]


def test_kappa_ratio_above_one_fails():
    report = {"max_root_residual": 0.0, "max_root_residual_scaled": 0.0,
              "positivity_min": 1.0, "max_kappa_ratio": 1.5,
              "max_intertwining_residual": 0.0, "max_intertwining_scaled": 0.0}
    assert [f.split()[0] for f in contract_failures(report)] == ["c_j"]
    assert contract_failures({**report, "max_kappa_ratio": 1.0}) == []


# ---------------------------------------------------------------------------
# Neumann-mode probes
# ---------------------------------------------------------------------------

def test_injectivity_probe():
    rep = injectivity_probe(SQRT2M1, 400, cross_n_max=40)
    assert rep["all_positive"]
    assert rep["max_offdiagonal"] < 1e-10
    assert rep["max_diagonal_deviation"] < 1e-10
    diag = dict(rep["diagonal"])
    assert diag[0] == pytest.approx(0.0, abs=1e-15)
    n4 = 0.5 * (1 - math.cos(2 * math.pi) * math.cos(2 * math.pi * SQRT2M1.value))
    assert diag[4] == pytest.approx(n4, abs=1e-12)
    with pytest.raises(NotIrrational):
        injectivity_probe(ParamA.from_expr("1/3"), 10)


def test_noninvertibility_probe():
    seq = noninvertibility_probe(SQRT2M1, 8)
    values = [v for _, v in seq]
    assert all(v > 0 for v in values)          # injective
    assert min(values) < 1e-2                  # but not boundedly invertible
    assert values[-1] < values[0] / 100
    qs = [c.q for c in convergents(SQRT2M1, 8)]
    assert [n for n, _ in seq] == [4 * q for q in qs]
    with pytest.raises(NotIrrational):
        noninvertibility_probe(ParamA.from_expr("1/3"), 4)


def test_generic_modes_stay_order_one():
    # comparison column: odd modes are fixed by the center antisymmetrizer
    # and stay O(1); even modes off the convergent sequence fluctuate but
    # their median is O(1), unlike the collapsing special sequence
    for n in (3, 5, 7, 9):
        assert 1.0 < rayleigh_quotient(SQRT2M1, n) < 2.0
    special = {4 * c.q for c in convergents(SQRT2M1, 6)}
    generic_even = [even_mode_coefficient(SQRT2M1, n)
                    for n in range(2, 80, 2) if n not in special]
    assert float(np.median(generic_even)) > 0.2
    assert all(v > 0 for v in generic_even)


def test_rayleigh_closed_form_agrees_with_full_theta():
    # cross-check of the probe's closed composition against (chi, Theta chi)
    op = MetricOp.build(SQRT2M1)
    for n in (4, 8, 12, 20):
        chi = neumann_mode(n)
        direct = inner_closed(chi, apply_theta(op, chi)).real
        closed = (abs(inner_closed(op.phi0, chi)) ** 2
                  + even_mode_coefficient(SQRT2M1, n))
        assert direct == pytest.approx(closed, abs=1e-11)
