"""Resolvent of the jump-coupled Laplacian by a direct three-point solve.

u = (H - lambda)^{-1} f solves -u'' - lambda u = f on (-pi/2, pi/2) with
u(-pi/2) = u(pi a/2) = u(pi/2).  With k = i sqrt(-lambda) (k^2 = lambda,
Im k >= 0) it is u_p + A e^{ik(x + pi/2)} + B e^{ik(pi/2 - x)}, u_p any C^1
particular solution, built here in closed form from the term sum f
(`PiecewiseTrig`).  With d = k_j^2 - k^2 for a term T of wavenumber k_j,
it is T/d (p = 0) or xT/d + 2T'/d^2 (p = 1); x T'/(2 k_j^2) at d = 0; for
0 < |d| < NEAR_RESONANCE the divided difference (T - T_k)/d against the
same-phase homogeneous T_k, in sinc form, so no digits cancel against the
homogeneous part (a p = 1 term there is refused, `ResonantForcing`); and
across a breakpoint xb of f the bounded alpha sgn(x - xb) e^{ik|x-xb|} +
beta e^{ik|x-xb|} makes u_p C^1.  Phases are carried exactly
(`eval_exact`), so u is right to a few eps of max|u| at any k_j; nothing
is integrated.  At large |lambda| the bound grows to about |k| eps max|u|
(1.03 measured at |k| = 1e4): k = sqrt(lambda) is itself rounded, and its
relative error eps moves the phase k x by up to |k| eps pi/2.  That is the
conditioning of u in lambda, not an error of the solve.  Im k >= 0 bounds
every exponential by 1 (the even pair would carry cosh(|k| pi/2)).  With E = e^{ik pi}, P = e^{ik pi (1+a)/2},
Q = e^{ik pi (1-a)/2} (E = PQ) the determinant for A and B is

    (1 - E)(1 - P)(1 - Q) = 8i E sin(k pi (1+a)/4) sin(k pi (1-a)/4) sin(k pi/2),

-2i E times the characteristic determinant, so the only poles are the
spectrum; each factor is -expm1(i theta), never expanded.  H commutes with
conjugation, so at real lambda the kernel whose weighted SVD gives the
trace-class decay (`ResolventKernel`) is real: float64 for lambda < 0
(ik = -sqrt(-lambda)), and for lambda > 0 the rounding-only imaginary part
of its complex assembly is dropped; the SVD is real either way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from jumpspec.funcspace import (
    HALF_PI, PiecewiseTrig, Terms, eval_exact, grid_nodes, grid_panels,
)
from jumpspec.param import ParamA

# smallest determinant factor off the spectrum: k within ~1e-8 of a zero is refused
DENOM_GUARD = 1e-8
# the SVD probe's grid grows with |k|; 4097 nodes is twice the documented n
MAX_PROBE_NODES = 4097
# only the default output grid grows with |k| = sqrt(|lambda|): solve and
# residual report take 0.08 s, 48 MB at 1e8 (9.0e4 nodes), 0.11 s, 73 MB at 1e9
MAX_ABS_LAMBDA = 1e8
# |k_j^2 - k^2| below this: a forcing term takes the divided-difference form
NEAR_RESONANCE = 1.0


# never raised; kept only because perfbench/test_perfbench.py names it
class PoleAtDirichletEigenvalue(ArithmeticError):
    """lambda hit the Dirichlet reference spectrum {n^2}."""


class PoleAtEigenvalue(ArithmeticError):
    """The three-point determinant vanished: lambda is (numerically) in the spectrum."""


# kept only because perfbench/test_perfbench.py names it
DenominatorVanishes = PoleAtEigenvalue


class ResonantForcing(ValueError):
    """A p = 1 forcing term with |k_j^2 - k^2| < NEAR_RESONANCE."""


def _check_interval(*arrays: np.ndarray) -> None:
    if max(np.max(np.abs(arr), initial=0.0) for arr in arrays) > HALF_PI + 1e-12:
        raise ValueError("resolvent arguments outside [-pi/2, pi/2]")


def check_lambda(lam: complex) -> complex:
    """lam as a complex, or ValueError unless it is finite and within the cap."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda={lam} is not finite")
    if abs(lam) > MAX_ABS_LAMBDA:
        raise ValueError(f"|lambda| = {abs(lam):.3g} exceeds the cap of {MAX_ABS_LAMBDA:g} "
                         "(the output grid grows with |k| = sqrt(|lambda|))")
    return lam


@dataclass
class ResolventKernel:
    """(H - lambda)^{-1} at one lambda: the kernel
        R(x, y) = (i/2k) e^{ik|x-y|} + phi_1(x) alpha(y) + phi_2(x) beta(y),
    (alpha, beta) the `coefficients` of the free kernel's boundary
    differences, which `ThreePointSolve` feeds those of u_p: one
    three-point solve for both.  `one_minus` holds the determinant's
    factors (1 - E, 1 - P, 1 - Q); `ik`, `p`, `q` and `one_minus` are
    floats at real lambda < 0, complex otherwise.
    """

    lam: complex
    k: complex
    ik: complex
    a_value: float
    p: complex
    q: complex
    one_minus: tuple[complex, complex, complex]

    @classmethod
    def build(cls, lam: complex, a: ParamA) -> "ResolventKernel":
        lam = check_lambda(lam)
        k = 1j * cmath.sqrt(-lam)
        # real lambda < 0: ik = -sqrt(-lambda), and every factor below is real
        ik = -math.sqrt(-lam.real) if lam.imag == 0 and lam.real < 0 else 1j * k
        theta = ik * math.pi * np.array([1.0, (1 + a.value) / 2, (1 - a.value) / 2])
        one_minus = -np.expm1(theta)
        smallest = float(np.min(np.abs(one_minus)))
        if smallest < DENOM_GUARD:
            raise PoleAtEigenvalue(
                f"three-point determinant factor {smallest:.2e} at lambda={lam}: "
                "spectral point of the jump operator")
        _, p, q = np.exp(theta).tolist()
        return cls(lam=lam, k=k, ik=ik, a_value=a.value, p=p, q=q,
                   one_minus=tuple(one_minus.tolist()))

    def coefficients(self, r1, r2):
        """(A, B) such that u_p + A phi_1 + B phi_2 meets the three-point
        condition, given r1 = u_p(-pi/2) - u_p(pi a/2) and
        r2 = u_p(pi/2) - u_p(pi a/2); broadcasts over arrays.  The system
        [[1-P, E-Q], [E-P, 1-Q]] (A, B) = -(r1, r2) has, since E = PQ, the
        solution A = -(s1 + Q s2), B = -(P s1 + s2) with
        s1 = r1/((1-E)(1-P)) and s2 = r2/((1-E)(1-Q))."""
        d_e, d_p, d_q = self.one_minus
        s1 = r1 / (d_e * d_p)
        s2 = r2 / (d_e * d_q)
        return -(s1 + self.q * s2), -(self.p * s1 + s2)

    def phis(self, xs: np.ndarray) -> np.ndarray:
        """Columns phi_1(xs) = e^{ik(x + pi/2)} and phi_2(xs) = e^{ik(pi/2 - x)}."""
        xs = np.asarray(xs, dtype=float)
        return np.exp(self.ik * np.stack([xs + HALF_PI, HALF_PI - xs], axis=-1))

    def kernel_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        _check_interval(xs, ys)
        ik, c = self.ik, -0.5 / self.ik  # c = i/2k
        phi_y = self.phis(ys)
        g_jump = c * np.exp(ik * np.abs(HALF_PI * self.a_value - ys))
        alpha, beta = self.coefficients(c * phi_y[:, 0] - g_jump,
                                        c * phi_y[:, 1] - g_jump)
        out = np.empty((len(xs), len(ys)), dtype=np.result_type(ik))
        np.abs(np.subtract.outer(xs, ys, out=out), out=out)
        np.exp(np.multiply(out, ik, out=out), out=out)
        out *= c
        out += self.phis(xs) @ np.stack([alpha, beta])
        # real lambda > 0: H commutes with conjugation, Im is rounding only
        return np.ascontiguousarray(out.real) if self.lam.imag == 0 else out


def _particular(k: complex, t: Terms) -> tuple[Terms, Terms, Terms]:
    """(rows, sinc, covered): u_p of the forcing rows t of one piece, as the
    term rows of the plain and secular solutions, the rows of t that take
    the sinc form (`_sinc_values`), and the rows of t the term rows solve."""
    d = (t.k - k) * (t.k + k)
    near = np.abs(d) < NEAR_RESONANCE
    if np.any(near & (t.p == 1)):
        raise ResonantForcing(f"x cos(k_j x + s) with |k_j^2 - k^2| < {NEAR_RESONANCE:g}, k = {k}")
    far, res, lin = ~near, d == 0, ~near & (t.p == 1)
    rows = Terms.concat((
        t[far].scaled(1 / d[far]),
        Terms(t.p[lin] - 1, 2 * t.k[lin] * t.c[lin] / d[lin]**2, t.k[lin], t.s[lin], t.q[lin] - 1),
        Terms(t.p[res] + 1, t.c[res] / (2 * t.k[res]), t.k[res], t.s[res], t.q[res] - 1)))
    return rows, t[near & ~res], t[far | res]


def _sinc_values(t: Terms, k: complex, x: np.ndarray, order: int) -> np.ndarray:
    """Sum over the p = 0 rows t of c (T - T_k)/(k_j^2 - k^2) at x, T =
    cos(k_j x + th), th = s - q pi/2, or of its derivative (order 1): with
    kb = (k_j + k)/2 and z = (k_j - k) x/2, -x sin(kb x + th) sinc(z) and
    -(k_j x cos(kb x + th) sinc(z) + sin(k x + th)), over k_j + k."""
    x = x[:, None]
    th, sinc = t.s - t.q * HALF_PI, np.sinc((t.k - k) * x / (2 * math.pi))
    wave = (t.k + k) / 2 * x + th
    vals = (-(t.k * x * np.cos(wave) * sinc + np.sin(k * x + th)) if order
            else -x * np.sin(wave) * sinc)
    return vals / (t.k + k) @ t.c


class ThreePointSolve:
    """u = u_p + w + A phi_1 + B phi_2 = (H - lambda)^{-1} f (module docstring);
    u_p depends on k^2 only and takes Re k >= 0; w = 0 unless f has a breakpoint."""

    def __init__(self, lam: complex, f: PiecewiseTrig, a: ParamA):
        if not isinstance(f, PiecewiseTrig):
            raise TypeError("the forcing must be a PiecewiseTrig term sum")
        self.kern = ResolventKernel.build(lam, a)
        self.k = self.kern.k if self.kern.k.real >= 0 else -self.kern.k
        self.parts = [(p.hi, *_particular(self.k, p.terms)) for p in f.pieces]
        self.xb, self.match, self.coef = f.breakpoint or 0.0, (0.0, 0.0), (0.0, 0.0)
        if len(self.parts) == 2:
            j0, j1 = self.jumps()
            self.match = (-j0 / 2, -j1 / (2 * self.kern.ik))
        up = self(np.array([-HALF_PI, HALF_PI * a.value, HALF_PI]))  # u_p + w
        self.coef = self.kern.coefficients(up[0] - up[1], up[2] - up[1])

    def _piece(self, i: int, xs: np.ndarray, order: int) -> np.ndarray:
        _, rows, sinc, _ = self.parts[i]
        return (eval_exact(rows.derivative() if order else rows, xs)
                + _sinc_values(sinc, self.k, xs, order))

    def jumps(self) -> list[complex]:
        """Jumps of u and u' across xb."""
        (alpha, beta), x = self.match, np.array([self.xb])
        return [complex(self._piece(1, x, o)[0] - self._piece(0, x, o)[0]) + w_jump
                for o, w_jump in ((0, 2 * alpha), (1, 2 * self.kern.ik * beta))]

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """u at xs (at xb, from the left)."""
        piece = np.searchsorted([hi for hi, *_ in self.parts[:-1]], xs)
        out = self.kern.phis(xs) @ np.array(self.coef, dtype=complex)
        for i in range(len(self.parts)):
            out[piece == i] += self._piece(i, xs[piece == i], 0)
        alpha, beta = self.match
        return out + (np.where(xs > self.xb, alpha, -alpha) + beta) * np.exp(
            self.kern.ik * np.abs(xs - self.xb))


def apply_resolvent(lam: complex, f: PiecewiseTrig, a: ParamA,
                    xs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, u(nodes)) for u = (H - lambda)^{-1} f in closed form.  The
    nodes are xs, or by default the composite Lobatto grid resolving |k|."""
    solve = ThreePointSolve(lam, f, a)
    nodes = (grid_nodes(a, 96, kmax=abs(solve.kern.k))[0] if xs is None
             else np.asarray(xs, dtype=float))
    _check_interval(nodes)
    return nodes, solve(nodes)


def residual_report(lam: complex, f: PiecewiseTrig, a: ParamA) -> dict:
    """Diagnostics of u = (H - lambda)^{-1} f on no grid: pde_residual,
    -u_p'' - lambda u_p - f of the term rows (symbolic), max over pieces of
    sum |c| (pi/2)^p over max(1, that of f); c1_jump, |jump of u| + |jump
    of u'| across f's breakpoint; boundary_deviation, max |u(+-pi/2) -
    u(pi a/2)|.  The sinc rows, w and A phi_1 + B phi_2 solve -v'' = k^2 v."""
    solve = ThreePointSolve(lam, f, a)
    u_m, u_b, u_p = solve(np.array([-HALF_PI, HALF_PI * a.value, HALF_PI]))
    bound = lambda t: float(np.sum(np.abs(t.c) * HALF_PI ** t.p))  # noqa: E731
    resid = max(bound(Terms.concat((rows.derivative().derivative().scaled(-1.0),
                                    rows.scaled(-solve.kern.lam), covered.scaled(-1.0))).merged())
                for _, rows, _, covered in solve.parts)
    return {"boundary_deviation": float(max(abs(u_m - u_b), abs(u_p - u_b))),
            "pde_residual": resid / max(1.0, *(bound(p.terms) for p in f.pieces)),
            "c1_jump": sum(map(abs, solve.jumps())) if len(solve.parts) == 2 else 0.0,
            "lambda": lam}


def check_probe(lam: complex, a: ParamA, n: int) -> float:
    """|k| at lambda, or ValueError unless 64 <= n <= 2048 and the probe's
    grid has at most MAX_PROBE_NODES nodes, counted before any is built."""
    if not 64 <= n <= 2048:
        raise ValueError(f"probe needs 64 <= n <= 2048, got n={n}")
    k_abs = abs(1j * cmath.sqrt(-check_lambda(lam)))
    size = 1 + sum(panels * (points - 1) for *_, panels, points in grid_panels(a, n // 2, k_abs))
    if size > MAX_PROBE_NODES:
        raise ValueError(f"probe grid of {size} nodes at lambda={lam} exceeds the cap "
                         f"of {MAX_PROBE_NODES} (the grid grows with |k| = {k_abs:.3g})")
    return k_abs


def singular_value_probe(lam: complex, a: ParamA, n: int = 512) -> dict:
    """Singular values of the quadrature-weighted resolvent kernel, their
    fitted log-log decay exponent and partial sum (trace-norm estimate);
    compact second-order resolvents decay like j^-2, so the sum converges."""
    nodes, weights = grid_nodes(a, n // 2, kmax=check_probe(lam, a, n))
    mat = ResolventKernel.build(lam, a).kernel_matrix(nodes, nodes)
    sq = np.sqrt(weights)
    mat *= sq[:, None]
    mat *= sq[None, :]
    svals = np.linalg.svd(mat, compute_uv=False)
    j = np.arange(1, len(svals) + 1)
    window = (j >= 4) & (j <= len(svals) // 4) & (svals > 1e-14)
    slope = float(np.polyfit(np.log(j[window]), np.log(svals[window]), 1)[0])
    return {"singular_values": svals, "decay_exponent": slope,
            "partial_sum": float(np.sum(svals)), "n_nodes": len(nodes)}
