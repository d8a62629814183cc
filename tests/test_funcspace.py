import argparse
import math

import mpmath as mp
import numpy as np
import pytest

from jumpspec.cli import Manifest
from jumpspec.funcspace import (
    HALF_PI, OutOfDomain, Piece, PiecewiseTrig, Stack, Terms, const, cos_term, eval_exact,
    gauss_lobatto, grid_nodes, grid_panels, inner_closed, inner_matrix, inner_pairs, norms_l2,
    norms_local, sin_term,
)
from jumpspec.param import ParamA

import reference_oracles
from reference_oracles import (
    QUAD_START_NODES, QuadratureNotConverged, _quad_rounds, eval_terms, lincomb, one_sided,
    per_function_stack, quad_gram, quad_inner, terms_on, validate_domain_H, validate_domain_Hstar,
    zero_function,
)
from util import linear, norm_l2, random_trig, xsin_term


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_simple():
    f = PiecewiseTrig.single([cos_term(1.0, 2.0)])
    assert f(0.0) == pytest.approx(1.0)
    assert f(HALF_PI) == pytest.approx(-1.0)


def test_eval_terms_matches_the_power_formula_bit_for_bit():
    # the x^p factor of every column, with x^0 = 1.0 and x^1 = x exactly
    rng = np.random.default_rng(17)
    x = np.concatenate([[-HALF_PI, HALF_PI, 0.0, -0.0], rng.uniform(-HALF_PI, HALF_PI, 60)])
    for n_terms in [0, 1, 2, 5, 9] * 8:
        p = rng.integers(0, 2, n_terms)
        if rng.random() < 0.25:
            p[:] = rng.integers(0, 2)  # all constant-power or all linear
        t = Terms(p, rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms),
                  np.where(rng.random(n_terms) < 0.2, 0.0, rng.uniform(0, 40, n_terms)),
                  rng.normal(size=n_terms), rng.integers(0, 4, n_terms))
        phase = t.s - t.q * HALF_PI
        want = (np.power.outer(x, t.p) * np.cos(np.multiply.outer(x, t.k) + phase)) @ t.c
        got = eval_terms(t, x)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_eval_out_of_domain():
    f = PiecewiseTrig.single([const(1.0)])
    with pytest.raises(OutOfDomain):
        f(2.0)
    with pytest.raises(OutOfDomain):
        f.values(np.array([0.0, -2.0]))


def _mixed_family(rng, xb: float) -> list[PiecewiseTrig]:
    """Single-piece functions, one cut at xb (continuous there, with a kink
    of slope 2) and an empty one."""
    fns = [random_trig(rng) for _ in range(3)]
    smooth = random_trig(rng).pieces[0].terms
    fns += [PiecewiseTrig.split(xb, smooth, [smooth, linear(2.0), const(-2.0 * xb)]),
            zero_function()]
    return fns


def test_stack_values_are_each_functions_piece_values():
    # points on both pieces, at the outer ends and at the cut, where the
    # value is the mean of the two one-sided ones
    rng = np.random.default_rng(21)
    xb = 0.3
    fns = _mixed_family(rng, xb) + [PiecewiseTrig.split(xb, [const(1.0)], [linear(1.0)])]
    xs = np.concatenate([[-HALF_PI, xb, HALF_PI, 0.0], rng.uniform(-HALF_PI, HALF_PI, 40)])
    vals = Stack.join(fns).values(xs)
    assert vals.shape == (len(fns), len(xs))
    for f, row in zip(fns, vals):
        left, right = (eval_terms(p.terms, xs) for p in (f.pieces[0], f.pieces[-1]))
        want = np.where(xs < xb, left, right) if f.breakpoint is not None else left
        if f.breakpoint is not None:
            want[xs == xb] = 0.5 * (left[xs == xb] + right[xs == xb])
        assert np.allclose(row, want, rtol=0, atol=1e-14)
        # the one-member stack of f sums in another BLAS blocking
        assert np.allclose(f(xs), row, rtol=0, atol=1e-14)
        assert f(float(xs[5])) == pytest.approx(row[5], rel=0, abs=1e-14)


def _same_rows(stack: Stack, j: int, f: PiecewiseTrig) -> bool:
    """Whether member j of stack has f's terms on every piece of the stack."""
    g = stack.fn(j)
    return all(terms_on(g, lo, hi) == terms_on(f, lo, hi) for lo, hi, *_ in stack.pieces)


def test_stack_merge_cancels_a_difference_key_by_key():
    # f - f merged per owner leaves no row at all; f + g keeps each owner's
    # rows apart and equals the one-function merge of each sum
    rng = np.random.default_rng(22)
    fns = _mixed_family(rng, -0.4)
    stack = Stack.join(fns)
    assert all(len(t) == 0 for *_, t, _ in Stack.total((stack, stack.scaled(-1.0))).pieces)
    others = _mixed_family(rng, -0.4)
    total = Stack.total((stack, Stack.join(others)))
    for j, (f, g) in enumerate(zip(fns, others)):
        assert _same_rows(total, j, f + g)
    # quarter turns fold mod 4: cos(kx - pi) = -cos(kx) cancels cos(kx)
    turned = Terms(np.array([0, 0]), np.array([1.0, 1.0], dtype=complex),
                   np.array([2.0, 2.0]), np.array([0.0, 0.0]), np.array([0, 2]))
    one = Stack((Piece(-HALF_PI, HALF_PI, turned, np.array([0, 0])),), 1)
    assert len(one.merged().pieces[0].terms) == 0


def test_stack_derivative_and_scaling_are_member_wise():
    rng = np.random.default_rng(23)
    fns = _mixed_family(rng, 0.1)
    z = rng.normal(size=len(fns)) + 1j * rng.normal(size=len(fns))
    d2, scaled = Stack.join(fns).derivative(2), Stack.join(fns).scaled(z)
    for j, f in enumerate(fns):
        assert _same_rows(d2, j, f.derivative(2))
        assert _same_rows(scaled, j, f.scaled(z[j]))


@pytest.mark.parametrize("seed", range(3))
def test_stack_join_is_the_per_function_construction(seed):
    # the join of functions (one-member Stacks) holds, bit for bit, the rows
    # and owners that each function's own partition and piece lookup give
    rng = np.random.default_rng(30 + seed)
    for xb in (-0.4, 0.1, 0.3):
        fns = _mixed_family(rng, xb) + _mixed_family(rng, 0.1)[::-1]
        for family in (fns, fns[:1], fns[-2:], fns[3:4]):
            got, want = Stack.join(family), per_function_stack(family)
            assert got.count == want.count and len(got.pieces) == len(want.pieces)
            for (lo, hi, terms, owners), (lo2, hi2, terms2, owners2) in zip(got.pieces,
                                                                            want.pieces):
                assert (lo, hi) == (lo2, hi2) and terms == terms2
                assert owners.dtype == owners2.dtype and np.array_equal(owners, owners2)


def _bitwise(f: PiecewiseTrig, g: PiecewiseTrig) -> bool:
    """Whether f and g have the same pieces, rows and owners, bit for bit."""
    return type(f) is type(g) and len(f.pieces) == len(g.pieces) and all(
        (p.lo, p.hi) == (q.lo, q.hi) and np.array_equal(p.owners, q.owners)
        and all(getattr(p.terms, n).dtype == getattr(q.terms, n).dtype
                and getattr(p.terms, n).tobytes() == getattr(q.terms, n).tobytes()
                for n in Terms.__slots__)
        for p, q in zip(f.pieces, g.pieces))


def _raw_derivative(f: PiecewiseTrig) -> PiecewiseTrig:
    """f' as the unmerged rows of Terms.derivative, piece by piece."""
    return PiecewiseTrig(tuple(Piece(lo, hi, t.derivative(), np.zeros(2 * len(t), dtype=np.int64))
                               for lo, hi, t, _ in f.pieces))


@pytest.mark.parametrize("seed", range(3))
def test_function_algebra_is_the_one_function_merge_bit_for_bit(seed):
    # +, -, scaled and derivative of a one-member Stack give, bit for bit,
    # what the one-function merge (lincomb, its rows in the order of the
    # terms) gives
    rng = np.random.default_rng(40 + seed)
    for xb in (-0.4, 0.3):
        fns = _mixed_family(rng, xb) + _mixed_family(rng, 0.1)
        for f, g in zip(fns, fns[::-1]):
            z = complex(rng.normal(), rng.normal())
            assert _bitwise(f + g, lincomb([f, g], [1.0, 1.0]))
            assert _bitwise(f - g, lincomb([f, g], [1.0, -1.0]))
            assert _bitwise(f.scaled(z), lincomb([f], [z]))
            once = lincomb([_raw_derivative(f)], [1.0])
            assert _bitwise(f.derivative(1), once)
            assert _bitwise(f.derivative(2), lincomb([_raw_derivative(once)], [1.0]))
        assert all(len(t) == 0 for f in fns for _, _, t, _ in (f - f).pieces)


def test_a_function_is_one_member():
    f = PiecewiseTrig.split(0.2, [cos_term(1.0, 3.0)], [sin_term(2.0, 1.0)])
    g = PiecewiseTrig.single(cos_term(1.0, 1.0))
    assert isinstance(f, Stack) and f.count == 1
    # a member is read off as it is, on the Stack's partition
    assert _bitwise(f.fn(0), f) and _bitwise(Stack.join([f, g]).fn(0), f)
    assert [p.terms for p in Stack.join([f, g]).fn(1).pieces] == [g.pieces[0].terms] * 2
    for count in (0, 2):
        with pytest.raises(ValueError, match="one function"):
            PiecewiseTrig(f.pieces, count)
    with pytest.raises(ValueError, match="one function"):
        PiecewiseTrig.join([f, g])
    assert _bitwise(PiecewiseTrig.join([f]), f)
    with pytest.raises(ValueError, match="span"):
        PiecewiseTrig(f.pieces[:1])


def test_piece_equality_compares_owners():
    piece = Stack.join([PiecewiseTrig.single(cos_term(1.0, 2.0)),
                        PiecewiseTrig.single(sin_term(1.0, 3.0))]).pieces[0]
    same = Piece(piece.lo, piece.hi, piece.terms, piece.owners.copy())
    moved = piece._replace(owners=piece.owners[::-1].copy())
    assert piece == same and not piece != same
    assert piece != moved and not piece == moved
    assert piece != piece._replace(hi=0.0) and piece != piece._replace(terms=piece.terms[::-1])
    # a Stack compares its pieces, and so its owners
    assert Stack((piece,), 2) == Stack((same,), 2) != Stack((moved,), 2)


def test_no_functions_still_span_the_interval():
    # the join of no Stacks is one full-interval piece without rows, so a
    # family of none meets any other in a (0, n) inner-product matrix
    empty = Stack.join([])
    assert empty.count == 0 and len(empty.pieces) == 1
    lo, hi, terms, owners = empty.pieces[0]
    assert (lo, hi) == (-HALF_PI, HALF_PI) and len(terms) == 0 and len(owners) == 0
    f = PiecewiseTrig.split(0.2, [cos_term(1.0, 3.0)], [sin_term(2.0, 1.0)])
    assert inner_matrix(empty, f).shape == (0, 1)
    assert inner_matrix(f, empty).shape == (1, 0)
    assert norms_l2(empty).shape == (0,)


def test_stack_join_keeps_every_function_in_order():
    rng = np.random.default_rng(24)
    first, second = _mixed_family(rng, 0.1), _mixed_family(rng, 0.1)
    joined = Stack.join((Stack.join(first), Stack.join(second)))
    assert joined.count == len(first) + len(second)
    xs = np.linspace(-HALF_PI, HALF_PI, 33)
    for j, f in enumerate(first + second):
        assert np.array_equal(joined.fn(j)(xs), f(xs))


def test_one_sided_limits_tent():
    # tent apex: both one-sided limits equal (a-1)(0 + pi/2) at a = 0
    f = PiecewiseTrig.split(0.0,
                            [linear(-1.0), const(-HALF_PI)],
                            [linear(1.0), const(-HALF_PI)])
    assert one_sided(f, 0.0, -1) == pytest.approx(-HALF_PI)
    assert one_sided(f, 0.0, +1) == pytest.approx(-HALF_PI)


def test_boundary_condition_of_zero_class_eigenfunction():
    # wavenumber-2 eigenfunction at a = 1/3 takes equal values at the
    # three coupling points
    coef = (math.cos(math.pi) - math.cos(math.pi / 3)) / math.sin(math.pi / 3)
    f = PiecewiseTrig.single([cos_term(1.0, 2.0), sin_term(coef, 2.0)])
    xb = HALF_PI / 3
    assert f(HALF_PI) == pytest.approx(f(xb))
    assert f(-HALF_PI) == pytest.approx(f(xb))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_sin():
    f = PiecewiseTrig.single([sin_term(1.0, 2.0)])
    d2 = f.derivative(2)
    xs = np.linspace(-HALF_PI, HALF_PI, 101)
    assert np.allclose(d2(xs), -4 * np.sin(2 * xs), atol=1e-14)


def test_derivative_product_rule():
    f = PiecewiseTrig.single([xsin_term(1.0, 2.0)])
    d2 = f.derivative(2)
    xs = np.linspace(-HALF_PI, HALF_PI, 101)
    assert np.allclose(d2(xs), 4 * np.cos(2 * xs) - 4 * xs * np.sin(2 * xs),
                       atol=1e-13)


def test_derivative_twice_equals_order_two():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f = random_trig(rng, n_terms=5)
        assert f.derivative(1).derivative(1).pieces == f.derivative(2).pieces


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_inner_cos2x():
    f = PiecewiseTrig.single([cos_term(1.0, 2.0)])
    assert inner_closed(f, f) == pytest.approx(math.pi / 2, abs=1e-14)


def test_inner_antilinear_first_argument():
    f = PiecewiseTrig.single([cos_term(2j, 3.0)])
    g = PiecewiseTrig.single([cos_term(1.0, 3.0)])
    val = inner_closed(f, g)
    assert val == pytest.approx(-2j * math.pi / 2, abs=1e-13)


@pytest.mark.parametrize("seed", range(8))
def test_closed_matches_quadrature_random(seed):
    rng = np.random.default_rng(seed)
    a = ParamA.from_expr("1/3") if seed % 2 else ParamA.from_expr("sqrt(2)-1")
    for _ in range(25):
        f = random_trig(rng)
        g = random_trig(rng)
        pair = Stack.join([f, g])
        closed = inner_matrix(pair, pair)
        quad = quad_gram(pair, a)
        assert np.all(np.abs(closed - quad) < 1e-10 * np.maximum(1.0, np.abs(closed)))


def test_norms_and_quadrature_take_a_stack_as_its_functions():
    rng = np.random.default_rng(25)
    a = ParamA.from_expr("1/pi")
    fns = _mixed_family(rng, HALF_PI * a.value)
    stack = Stack.join(fns)
    norms = norms_l2(stack)
    assert np.allclose(norms, [norm_l2(f) for f in fns], rtol=1e-13, atol=0)
    assert np.allclose(norms, [norms_l2(f)[0] for f in fns], rtol=1e-13, atol=0)
    assert np.allclose(np.sqrt(quad_gram(stack, a).diagonal().real), norms, rtol=1e-10, atol=0)


def test_positive_definite():
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = random_trig(rng)
        v = inner_closed(f, f)
        assert abs(v.imag) < 1e-12 * max(1.0, abs(v))
        assert v.real > 0
    z = zero_function()
    assert inner_closed(z, z) == 0


def test_xterm_inner_against_elementary_integral():
    # integral of x^2 sin^2(2x) over the interval, done by hand
    f = PiecewiseTrig.single([xsin_term(1.0, 2.0)])
    k = 2.0
    exact = (math.pi ** 3 / 24
             - math.pi / (4 * k ** 2) * math.cos(k * math.pi)
             - (math.pi ** 2 / (8 * k) - 1 / (8 * k ** 3)) * math.sin(k * math.pi))
    assert inner_closed(f, f).real == pytest.approx(exact, rel=1e-13)


def test_near_resonant_frequencies_are_stable():
    # cancellation in the 1/w antiderivative must not amplify: compare to
    # the hand-reduced value sin(e pi/2)/e + sin((10+e) pi/2)/(10+e)
    f = PiecewiseTrig.single([cos_term(1.0, 5.0)])
    for eps in (1e-15, 1e-11, 1e-8, 1e-6, 1e-4):
        g = PiecewiseTrig.single([cos_term(1.0, 5.0 + eps)])
        val = inner_closed(f, g)
        exact = (math.sin(eps * HALF_PI) / eps
                 + math.sin((10 + eps) * HALF_PI) / (10 + eps))
        assert val.real == pytest.approx(exact, abs=1e-14)


def test_two_piece_inner():
    a = ParamA.from_expr("1/3")
    xb = HALF_PI * a.value
    f = PiecewiseTrig.split(xb, [const(1.0)], [const(2.0)])
    g = PiecewiseTrig.single([const(1.0)])
    expect = (xb + HALF_PI) + 2.0 * (HALF_PI - xb)
    assert inner_closed(f, g) == pytest.approx(expect, abs=1e-14)


def _random_split(rng, xb: float, left: bool = True) -> PiecewiseTrig:
    """Random rows on both pieces of a function cut at xb, or on the right only."""
    return PiecewiseTrig.split(xb, random_trig(rng).pieces[0].terms if left else (),
                               random_trig(rng).pieces[0].terms)


def _coefficient_products(fs: Stack, gs: Stack) -> np.ndarray:
    """sum |c_f| sum |c_g| of each member over all its rows: at least the
    sum of |c_f||c_g| over the pairs inner_pairs forms."""
    f_abs, g_abs = (sum(np.bincount(o, np.abs(t.c), s.count) for *_, t, o in s.pieces)
                    for s in (fs, gs))
    return f_abs * g_abs


@pytest.mark.parametrize("seed", range(4))
def test_inner_pairs_is_the_diagonal_of_inner_matrix(seed):
    # member j against member j only, on the common partition of the two
    # Stacks: one piece against two (as forward against adjoint members),
    # a member with no rows on the left piece and one with no rows at all
    rng = np.random.default_rng(40 + seed)
    xb = HALF_PI * rng.uniform(-0.9, 0.9)
    mixed = Stack.join([_random_split(rng, xb, left=False)] + _mixed_family(rng, xb))
    single = Stack.join([random_trig(rng) for _ in range(5)] + [zero_function()])
    split = Stack.join([_random_split(rng, xb) for _ in range(4)]
                       + [_random_split(rng, xb, left=False), zero_function()])
    assert (len(single.pieces), len(split.pieces)) == (1, 2)
    for fs, gs in ((mixed, mixed), (single, split), (split, single), (mixed, single)):
        got = inner_pairs(fs, gs)
        want = np.diag(inner_matrix(fs, gs))
        assert got.shape == (fs.count,) and got[-1] == 0
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * _coefficient_products(fs, gs))


def test_norms_local_agrees_with_the_term_gram():
    rng = np.random.default_rng(26)
    xb = HALF_PI * rng.uniform(-0.9, 0.9)
    stack = Stack.join(_mixed_family(rng, xb) + [_random_split(rng, xb, left=False)])
    squares = norms_l2(stack) ** 2
    assert norms_local(stack).shape == (stack.count,) and squares[-2] == 0
    assert np.all(np.abs(norms_local(stack) ** 2 - squares)
                  <= 4 * np.finfo(float).eps * _coefficient_products(stack, stack))


@pytest.mark.parametrize("k", [3.0, 1000.3, 123456.7])
@pytest.mark.parametrize("s", [0.7, 2.5])
def test_norms_local_cancels_waves_that_cancel_as_functions(k, s):
    # cos(kx + s) - (cos s cos kx - sin s sin kx) is 0, but its three rows
    # have three keys; the term Gram cancels O(1) integrals (it reads up to
    # 1.5e-8 here), the owner-local norm cancels amplitudes
    d = (PiecewiseTrig.single([cos_term(1.0, k, s)])
         - PiecewiseTrig.single([cos_term(math.cos(s), k), sin_term(-math.sin(s), k)]))
    assert len(d.pieces[0].terms) == 3
    assert norms_local(d)[0] <= 8 * np.finfo(float).eps


def test_inner_pairs_needs_equal_counts():
    f = PiecewiseTrig.single([cos_term(1.0, 2.0)])
    with pytest.raises(ValueError, match="equal counts"):
        inner_pairs(Stack.join([f, f]), f)


# ---------------------------------------------------------------------------
# grids and quadrature
# ---------------------------------------------------------------------------

def test_lobatto_rules():
    for n in (2, 5, 24):
        x, w = gauss_lobatto(n)
        assert x[0] == -1.0 and x[-1] == 1.0
        assert np.all(w > 0)
        assert np.sum(w) == pytest.approx(2.0, abs=1e-13)


def test_grid_invariants():
    a = ParamA.from_expr("2/5")
    nodes, weights = grid_nodes(a, 64)
    assert np.sum(weights) == pytest.approx(math.pi, abs=1e-12)
    assert np.all(np.diff(nodes) > 0)
    assert np.all(weights > 0)
    for x0 in (-HALF_PI, HALF_PI * a.value, HALF_PI):
        assert np.min(np.abs(nodes - x0)) < 1e-14
    # at least 64 nodes on each side of the restart point
    xb = HALF_PI * a.value
    assert np.count_nonzero(nodes <= xb) >= 64
    assert np.count_nonzero(nodes >= xb) >= 64


def _grid_nodes_by_panel(a: ParamA, min_nodes_per_piece: int, kmax: float):
    """Panel-by-panel composite Lobatto grid: the reference for grid_nodes."""
    xb = HALF_PI * a.value
    nodes, weights = [], []
    for lo, hi in ((-HALF_PI, xb), (xb, HALF_PI)):
        panels = max(2, int(math.ceil((hi - lo) * max(kmax, 1.0) / 8.0)))
        base_x, base_w = gauss_lobatto(max(24, int(math.ceil(min_nodes_per_piece / panels)) + 1))
        edges = np.linspace(lo, hi, panels + 1)
        for a_, b_ in zip(edges, edges[1:]):
            half = 0.5 * (b_ - a_)
            xs, ws = 0.5 * (a_ + b_) + half * base_x, half * base_w
            if nodes and abs(xs[0] - nodes[-1]) < 1e-14:
                weights[-1] += ws[0]
                xs, ws = xs[1:], ws[1:]
            nodes.extend(xs)
            weights.extend(ws)
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("expr", ["1/3", "sqrt(2)-1", "-9/10", "0", "2/5", "19/20"])
def test_grid_nodes_match_the_panel_loop_bit_for_bit(expr):
    a = ParamA.from_expr(expr)
    for n in (24, 64, 96, 192, 384, 768, 1536, 3072):
        for kmax in (0.0, 3.0, 30.0, 68.0, 1000.0):
            nodes, weights = grid_nodes(a, n, kmax)
            ref_nodes, ref_weights = _grid_nodes_by_panel(a, n, kmax)
            assert np.array_equal(nodes, ref_nodes), (n, kmax)
            assert np.array_equal(weights, ref_weights), (n, kmax)
            # the panel rule alone counts the nodes (the probe's cap reads it)
            panels = grid_panels(a, n, kmax)
            assert len(nodes) == 1 + sum(count * (points - 1) for *_, count, points in panels)


def test_quadrature_not_converged():
    a = ParamA.from_expr("0")
    f = PiecewiseTrig.single([const(1.0)])
    with pytest.raises(QuadratureNotConverged):
        quad_inner(f, [(0, 0)], a, max_rounds=1)  # no second round to compare with


def _round_nodes(a: ParamA, kmax: float) -> list[int]:
    """Nodes of each piece's grid, summed, over quad_inner's six rounds."""
    return [sum(count * (points - 1) + 1 for *_, count, points in grid_panels(a, n, kmax))
            for n in _quad_rounds(a, kmax, 6)]


@pytest.mark.parametrize("expr", ["sqrt(2)-1", "1/3", "1/pi"])
def test_every_quadrature_round_refines(expr):
    a = ParamA.from_expr(expr)
    # above kmax ~ 70 the 24-point floor held doubled grids fixed, so a
    # second round compared two identical sums
    for kmax in (70.0, 100.0, 1000.0):
        nodes = _round_nodes(a, kmax)
        assert all(later > earlier for earlier, later in zip(nodes, nodes[1:])), (kmax, nodes)
    # grids that grow anyway keep their doubling (every contract grid)
    for kmax in (16.0, 30.0):
        assert list(_quad_rounds(a, kmax, 6)) == [QUAD_START_NODES << r for r in range(6)]
    if expr == "sqrt(2)-1":
        assert _round_nodes(a, 16.0)[:3] == [213, 389, 771]
        assert _round_nodes(a, 30.0)[:3] == [305, 401, 773]


def test_quad_inner_refines_at_high_frequency(monkeypatch):
    grids, grid_pieces = [], reference_oracles._grid_pieces

    def recorded(*args):
        pieces = grid_pieces(*args)
        grids.append(sum(len(x) for x, _ in pieces))
        return pieces

    monkeypatch.setattr(reference_oracles, "_grid_pieces", recorded)
    a = ParamA.from_expr("sqrt(2)-1")
    f = PiecewiseTrig.single([cos_term(1.0, 100.0), sin_term(0.5, 99.0)])
    got = quad_inner(f, [(0, 0)], a)
    assert abs(got[0] - inner_closed(f, f)) < 1e-12 * abs(got[0])
    assert len(grids) >= 2 and all(later > earlier for earlier, later in zip(grids, grids[1:]))


def test_quad_inner_forms_the_requested_products():
    # any index pairs, in any order, repeated or not, against the closed forms
    rng = np.random.default_rng(26)
    a = ParamA.from_expr("2/5")
    fns = _mixed_family(rng, HALF_PI * a.value)[:-1]
    pairs = np.array([(0, 0), (3, 1), (1, 3), (2, 2), (3, 1), (0, 2)])
    stack = Stack.join(fns)
    got = quad_inner(stack, pairs, a)
    want = inner_matrix(stack, stack)[pairs[:, 0], pairs[:, 1]]
    assert got.shape == (len(pairs),)
    assert np.all(np.abs(got - want) < 1e-10 * np.maximum(1.0, np.abs(want)))


def test_quad_inner_takes_one_sided_values_at_a_jump():
    # the restart node, which both grid pieces hold, is sampled once per
    # side; sampled at the mean of the two values, the jump to 2 + x there
    # left the rule first order and QuadratureNotConverged was raised
    a = ParamA.from_expr("1/pi")
    fns = Stack.join([PiecewiseTrig.split(HALF_PI * a.value,
                                          [sin_term(1.0, 3.0), cos_term(0.5, 2.0)],
                                          [const(2.0), linear(1.0)]),
                      PiecewiseTrig.single(cos_term(1.0, 1.0))])
    got = quad_gram(fns, a)
    want = inner_matrix(fns, fns)
    assert np.max(np.abs(got - want)) < 1e-10


def test_exact_phase_evaluation_at_large_wavenumbers():
    # cos(k x + s) with k x ~ 1e6: eval_terms loses k |x| eps, eval_exact
    # keeps a few eps of the 50-digit value
    t = Terms.concat([sin_term(1.0, 1e6), cos_term(2.0, 12345.678, 0.25), linear(1.0)])
    x = np.linspace(-HALF_PI, HALF_PI, 41)
    with mp.workdps(50):
        ref = np.array([complex(mp.sin(mp.mpf(1e6) * mp.mpf(v))
                                + 2 * mp.cos(mp.mpf(12345.678) * mp.mpf(v) + mp.mpf(0.25))
                                + mp.mpf(v)) for v in x])
    assert np.max(np.abs(eval_exact(t, x) - ref)) < 8 * np.finfo(float).eps
    assert np.max(np.abs(eval_terms(t, x) - ref)) > 1e-12


# ---------------------------------------------------------------------------
# domain validators
# ---------------------------------------------------------------------------

def test_validator_examples():
    a = ParamA.from_expr("1/3")
    assert not validate_domain_H(PiecewiseTrig.single([cos_term(1.0, 2.0)]), a).in_domain
    assert validate_domain_H(PiecewiseTrig.single([const(1.0)]), a).in_domain
    coef = (math.cos(math.pi) - math.cos(math.pi / 3)) / math.sin(math.pi / 3)
    f = PiecewiseTrig.single([cos_term(1.0, 2.0), sin_term(coef, 2.0)])
    assert validate_domain_H(f, a).in_domain


def test_adjoint_validator_examples():
    a = ParamA.from_expr("2/5")
    av = a.value
    tent = PiecewiseTrig.split(HALF_PI * av,
                               [linear(av - 1), const((av - 1) * HALF_PI)],
                               [linear(av + 1), const(-(av + 1) * HALF_PI)])
    assert validate_domain_Hstar(tent, a).in_domain
    assert not validate_domain_Hstar(
        PiecewiseTrig.single([sin_term(1.0, 1.0)]), a).in_domain


def test_validator_reports_violations():
    a = ParamA.from_expr("1/3")
    rep = validate_domain_H(PiecewiseTrig.single([cos_term(1.0, 2.0)]), a)
    assert rep.violations and rep.max_violation > 0.1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_gridfn_csv_rows(tmp_path):
    # a function sampled on the grid is written one row per node, starting
    # at -pi/2, and the %.17g cells read back to the same floats
    a = ParamA.from_expr("0")
    nodes, _ = grid_nodes(a, 64)
    values = PiecewiseTrig.single([cos_term(1.0, 1.0)])(nodes)
    man = Manifest(argparse.Namespace(command="resolvent", out=str(tmp_path / "g")))
    path = man.write_csv("u.csv", ["x", "re", "im"],
                         [(float(x), float(v.real), float(v.imag))
                          for x, v in zip(nodes, values)])
    lines = path.read_text().strip().splitlines()
    rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
    assert lines[0] == "x,re,im"
    assert len(rows) == len(nodes)
    assert rows[0][0] == pytest.approx(-HALF_PI)
    assert np.array_equal([r[0] for r in rows], nodes)
    assert np.array_equal([r[1] for r in rows], values.real)
