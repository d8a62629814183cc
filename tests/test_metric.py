import math

import numpy as np
import pytest

from jumpspec.eigensystem import eigenfunctions_H
from jumpspec.funcspace import (
    PiecewiseTrig, const, cos_term, inner_closed, norm_l2,
    validate_domain_Hstar,
)
from jumpspec.metric import (
    DomainViolation, MetricOp, even_mode_coefficient,
    injectivity_probe, neumann_mode, noninvertibility_probe, project_center,
    project_pieces,
)
from jumpspec.param import NotIrrational, ParamA, convergents
from jumpspec.spectrum import enumerate_spectrum

from reference_oracles import rayleigh_quotient
from util import random_domain_member, random_trig

HALF_PI = math.pi / 2
SQRT2M1 = ParamA.from_expr("sqrt(2)-1")


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
        assert abs(pp.one_sided(-HALF_PI, +1)) < 1e-11   # P- vanishes at -pi/2
        assert abs(pp.one_sided(HALF_PI, -1)) < 1e-11    # P+ vanishes at +pi/2
        assert abs(pp.one_sided(xb, -1)) < 1e-11         # P- at restart-
        assert abs(pp.one_sided(xb, +1)) < 1e-11         # P+ at restart+
        dpp = pp.derivative(1)
        df = f.derivative(1)
        jump_in = dpp.one_sided(xb, +1) - dpp.one_sided(xb, -1)
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
        lhs = inner_closed(f, op.apply(g))
        rhs = np.conj(inner_closed(g, op.apply(f)))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_theta_positivity():
    rng = np.random.default_rng(7)
    op = MetricOp.build(SQRT2M1)
    for _ in range(40):
        f = random_trig(rng)
        q = op.quadratic_form(f)
        assert q >= -1e-12
        # quadratic form identity against the direct pairing
        assert q == pytest.approx(inner_closed(f, op.apply(f)).real, abs=1e-10)


def test_theta_of_zero_and_constant():
    op = MetricOp.build(SQRT2M1)
    zero = PiecewiseTrig.zero()
    assert norm_l2(op.apply(zero)) == 0
    one = PiecewiseTrig.single([const(1.0)])
    # antisymmetrizers annihilate constants: Theta 1 = phi0 (phi0, 1)
    expect = op.phi0.scaled(inner_closed(op.phi0, one))
    assert norm_l2(op.apply(one) - expect) < 1e-12
    assert op.quasi_self_adjointness_residual(one) < 1e-12


def test_theta_term_by_term():
    rng = np.random.default_rng(8)
    op = MetricOp.build(SQRT2M1)
    f = op.phi0  # two-piece input is rejected by the symbolic route
    with pytest.raises(DomainViolation):
        op.apply(f)
    g = random_trig(rng)
    total = op.apply(g)
    parts = (op.phi0.scaled(inner_closed(op.phi0, g))
             + project_center(g) + project_pieces(g, SQRT2M1))
    assert norm_l2(total - parts) < 1e-12


def test_intertwining_on_domain_members():
    rng = np.random.default_rng(9)
    a = SQRT2M1
    op = MetricOp.build(a)
    members = [eigenfunctions_H(rec, a)[0].fn
               for rec in enumerate_spectrum(a, 150.0)]
    members += [random_domain_member(a, rng) for _ in range(10)]
    for psi in members:
        res = op.quasi_self_adjointness_residual(psi)
        assert res / max(norm_l2(psi), 1e-300) < 1e-8


def test_theta_maps_domain_into_adjoint_domain():
    rng = np.random.default_rng(10)
    a = SQRT2M1
    op = MetricOp.build(a)
    for _ in range(6):
        psi = random_domain_member(a, rng)
        assert validate_domain_Hstar(op.apply(psi), a).in_domain


def test_eigen_intertwining():
    # Theta psi_lambda is an adjoint eigenfunction for the same lambda
    a = SQRT2M1
    op = MetricOp.build(a)
    for rec in enumerate_spectrum(a, 60.0):
        psi = eigenfunctions_H(rec, a)[0].fn
        tpsi = op.apply(psi)
        resid = tpsi.derivative(2).scaled(-1.0) - tpsi.scaled(rec.lam)
        assert norm_l2(resid) < 1e-8 * max(1.0, norm_l2(tpsi))


def test_domain_violation_rejected():
    op = MetricOp.build(SQRT2M1)
    bad = PiecewiseTrig.single([cos_term(1.0, 2.0)])  # breaks the BCs
    with pytest.raises(DomainViolation):
        op.quasi_self_adjointness_residual(bad)


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
        direct = op.quadratic_form(chi)
        closed = (abs(inner_closed(op.phi0, chi)) ** 2
                  + even_mode_coefficient(SQRT2M1, n))
        assert direct == pytest.approx(closed, abs=1e-11)
