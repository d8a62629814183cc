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
spectrum; each factor is -expm1(i theta), never expanded.

The singular values of R = (H - lambda)^{-1} come from its exact matrix in
the sine basis e_n = sqrt(2/pi) sin(n (x + pi/2)) (`sine_matrix`), not
from a discretized kernel.  R is the Dirichlet resolvent plus the rank-one
term w <G_D(pi a/2, .), f> / (1 - w(pi a/2)), w = cos(kx)/cos(k pi/2), so
Green's identity gives <e_m, R e_n> = delta_mn d_n + c u_m v_n with
d_n = 1/(n^2 - lambda), u_n = <e_n, w>, v_n = e_n(pi a/2) d_n and
c = 1/(1 - w(pi a/2)).  Rows and columns beyond N add only the rank-one
part, so N modes plus one border row and column, which carry the norms of
u and v beyond N, hold all of R but the Dirichlet tail; dropping it moves
each singular value by at most 1/|(N+1)^2 - lambda| (Weyl).  That diagonal
plus rank-one matrix yields its N + 1 singular values by two rank-one
secular solves in O(N^2) (`dpr1_singular_values`, 0.1 s and 5 MB at
N = 2048 on one Xeon core), to a few eps of max|d| + |c u| |v|: a few eps
sigma_1 unless d_m and c u_m v_m cancel.  Near an odd square m^2 their
poles do; there (|lambda - m^2| < NEAR_RESONANCE) row and column m are
written in sinc and series form and the matrix takes a dense SVD.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from jumpspec.funcspace import HALF_PI, PiecewiseTrig, Terms, eval_exact, grid_nodes
from jumpspec.param import ParamA

# smallest determinant factor off the spectrum: k within ~1e-8 of a zero is refused
DENOM_GUARD = 1e-8
# the probe's sine modes N, and the singular values its decay fit needs
MIN_MODES, MAX_MODES = 64, 2048
MIN_FIT_POINTS = 16
# trapezoid nodes on the circle of the tail norms' Cauchy integral
TAIL_NODES = 64
EPS = float(np.finfo(float).eps)
# rows of a secular solve taken at once: a 64 x 2049 float64 array is 1 MB
BLOCK_ROWS = 64
# passes of a secular solve: at most 16 on 359 of 360 measured matrices (5
# values of a, 18 lambdas, N from 64 to 2048) and 51 on the last (1/3,
# 50 + 50i, N = 256); a solve that runs out raises LinAlgError
SECULAR_PASSES = 100
# (sin z - z)/z^2 = sum_i _SIN_SERIES[i] z^(2i + 1), to rounding for |z| <= pi/2
_SIN_SERIES = np.array([(-1) ** i / math.factorial(2 * i + 1) for i in range(1, 13)])
# only the default output grid grows with |k| = sqrt(|lambda|): solve and
# residual report take 0.08 s, 48 MB at 1e8 (9.0e4 nodes), 0.11 s, 73 MB at 1e9
MAX_ABS_LAMBDA = 1e8
# |k_j^2 - k^2| below this: a forcing term takes the divided-difference form,
# and the probe writes the odd mode m with |lambda - m^2| below it in sinc form
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
    """The three-point data of (H - lambda)^{-1} at one lambda: k, ik, and
    the determinant's factors `one_minus` = (1 - E, 1 - P, 1 - Q), which
    `build` guards against the spectrum; `coefficients` gives the (A, B)
    of the homogeneous solutions `phis` that make u_p + A phi_1 + B phi_2
    meet the three-point condition (`ThreePointSolve`), and `sine_matrix`
    takes its c from the same factors.  `ik`, `p`, `q` and `one_minus` are
    floats at real lambda < 0, complex otherwise.
    """

    lam: complex
    k: complex
    ik: complex
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
        return cls(lam=lam, k=k, ik=ik, p=p, q=q, one_minus=tuple(one_minus.tolist()))

    def coefficients(self, r1, r2):
        """(A, B) such that u_p + A phi_1 + B phi_2 meets the three-point
        condition, given r1 = u_p(-pi/2) - u_p(pi a/2) and
        r2 = u_p(pi/2) - u_p(pi a/2); broadcasts over arrays.  The system
        [[1-P, E-Q], [E-P, 1-Q]] (A, B) = -(r1, r2) has, since E = PQ, the
        solution A = -(s1 + Q s2), B = -(P s1 + s2) with
        s1 = r1/((1-E)(1-P)) and s2 = r2/((1-E)(1-Q))."""
        d_e, d_p, d_q = self.one_minus
        s1, s2 = r1 / (d_e * d_p), r2 / (d_e * d_q)
        return -(s1 + self.q * s2), -(self.p * s1 + s2)

    def phis(self, xs: np.ndarray) -> np.ndarray:
        """Columns phi_1(xs) = e^{ik(x + pi/2)} and phi_2(xs) = e^{ik(pi/2 - x)}."""
        xs = np.asarray(xs, dtype=float)
        return np.exp(self.ik * np.stack([xs + HALF_PI, HALF_PI - xs], axis=-1))


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


def _sinc(y):
    """np.sinc(y) = sin(pi y)/(pi y), taken as 1 below |y| = 1e-150, where it
    is 1 to the last bit: np.sinc's complex division of a subnormal
    overflows to NaN."""
    return np.sinc(np.where(abs(y) < 1e-150, 0, y))


def _sinc_values(t: Terms, k: complex, x: np.ndarray, order: int) -> np.ndarray:
    """Sum over the p = 0 rows t of c (T - T_k)/(k_j^2 - k^2) at x, T =
    cos(k_j x + th), th = s - q pi/2, or of its derivative (order 1): with
    kb = (k_j + k)/2 and z = (k_j - k) x/2, -x sin(kb x + th) sinc(z) and
    -(k_j x cos(kb x + th) sinc(z) + sin(k x + th)), over k_j + k."""
    x = x[:, None]
    th, sinc = t.s - t.q * HALF_PI, _sinc((t.k - k) * x / (2 * math.pi))
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
    if not np.all(np.abs(nodes) <= HALF_PI + 1e-12):  # NaN fails it too
        raise ValueError("resolvent arguments outside [-pi/2, pi/2]")
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


def check_probe(lam: complex, n: int) -> tuple[int, int]:
    """The decay fit's window (first, last j) for N = n sine modes, or
    ValueError unless MIN_MODES <= n <= MAX_MODES and the window holds
    MIN_FIT_POINTS singular values; nothing is built.  The fit starts at
    j >= max(4, 2|k|): below that the values 1/|j^2 - lambda| of the modes
    with j^2 near |lambda| are flat, not in their decay (at -1e4 and N = 512
    the fit from j = 4 reads -0.67, from 2|k| -1.67).  It stops at
    (n + 1)//2, where the values from N and 2N modes still agree to 1e-5,
    so that N = 64 keeps 29 points."""
    if not MIN_MODES <= n <= MAX_MODES:
        raise ValueError(f"probe needs {MIN_MODES} <= n <= {MAX_MODES}, got n={n}")
    k_abs = abs(cmath.sqrt(check_lambda(lam)))
    first, last = max(4, math.ceil(2 * k_abs)), (n + 1) // 2
    if last - first + 1 < MIN_FIT_POINTS:
        raise ValueError(f"probe window j in [{first}, {last}] at lambda={lam} holds fewer "
                         f"than {MIN_FIT_POINTS} singular values (it starts at 2|k| = "
                         f"{2 * k_abs:.3g}); raise --svd-n")
    return first, last


def _sin_pi(turns: np.ndarray) -> np.ndarray:
    """sin(pi t), reduced in turns: exactly 0 at integer t."""
    r = np.remainder(turns, 2.0)
    r = np.where(r > 1, r - 2, r)
    return np.sign(r) * np.sin(math.pi * np.minimum(np.abs(r), 1 - np.abs(r)))


def _tail_norms(lam: complex, a_value: float, n: int) -> tuple[float, float]:
    """(|u_t|, |v_t|), the norms of u_j and v_j over j > n, by Parseval:
    sum_j |u_j|^2 = ||w||^2 and sum_j |v_j|^2 = ||G_D(pi a/2, .)||^2 are
    divided differences between lambda and conj(lambda) of
        g_u(z) = sum_j u~_j^2 z/(j^2 (j^2 - z)) = 2k tan(k pi/2),
        g_v(z) = sum_j e_j(pi a/2)^2/(j^2 - z) = G_D(pi a/2, pi a/2; z)
    (u~_j = (j^2 - lambda) u_j, k^2 = z).  Less their first n2 >= n
    terms, g is analytic for |z| < (n2 + 1)^2, so Cauchy's formula on a
    circle about Re lambda that stays clear of every pole takes the tail's
    divided difference from g's closed form minus a short sum, with no
    pole of d_j near the nodes; the terms n < j <= n2 are added back."""
    c, spread = lam.real, 4 * abs(lam.imag)
    n2 = max(n, math.ceil(math.sqrt(max(c + spread, 0.0))))
    rho = ((n2 + 1) ** 2 - c) / 2
    z = c + rho * np.exp(2j * math.pi * (np.arange(TAIL_NODES) + 0.5) / TAIL_NODES)
    ik = -np.sqrt(-z)  # i k with Im k >= 0, as in ResolventKernel
    th = np.array([1 + a_value, 1 - a_value, 2.0]) * HALF_PI
    one_minus = -np.expm1(2 * ik[:, None] * th)  # 1 - e^{2ik theta}
    one_minus_e = -np.expm1(ik * math.pi)  # tan(k pi/2) = i (1 - E)/(1 + E)
    g_u = 2 * ik * one_minus_e / (2 - one_minus_e)
    g_v = -one_minus[:, 0] * one_minus[:, 1] / (2 * ik * one_minus[:, 2])
    j = np.arange(1, n2 + 1)
    odd = j[j % 2 == 1]
    e2 = 2 / math.pi * _sin_pi(j * (1 + a_value) / 2) ** 2
    g_u -= 8 / math.pi * (z[:, None] / (odd ** 2 - z[:, None])).sum(1)
    g_v -= (e2 / (j ** 2 - z[:, None])).sum(1)
    weight = (z - c) / ((z - lam) * (z - lam.conjugate())) / TAIL_NODES
    extra = slice(n, n2)
    far = abs(j[extra] ** 2 - lam) ** 2
    tail_u = float(np.real(g_u @ weight)) + float(np.sum(8 / math.pi * j[extra] ** 2
                                                          * (j[extra] % 2) / far))
    tail_v = float(np.real(g_v @ weight)) + float(np.sum(e2[extra] / far))
    return math.sqrt(max(tail_u, 0.0)), math.sqrt(max(tail_v, 0.0))


def _zone_entries(lam: complex, a_value: float, m: int) -> tuple[complex, complex, complex]:
    """(c u_m, c v_m, <e_m, R e_m>) for odd m with |lambda - m^2| < NEAR_RESONANCE,
    where d_m and c u_m v_m carry cancelling poles.  With k = sqrt(lambda),
    t = k - m (as (lambda - m^2)/(m + k), which keeps its digits), z = t pi/2,
    s = sin(m pi/2) and den = cos(k pi/2) - cos(k pi a/2):
    cos(k pi/2)/(m^2 - k^2) = s (pi/2) sinc(z)/(m + k), and the diagonal's
    second-order 0/0 reduces to
        -[-s (m+k)(pi/2) sinc(z) + 2 (m+k) sin((m+k) pi a/4)(pi a/4) sinc(t pi a/4)
          + cos(m pi a/2)((4m/pi)(sin z - z)/t^2 - 1)] / ((m+k)^2 den),
    (sin z - z)/t^2 by its series."""
    k = cmath.sqrt(lam)
    t = (lam - m * m) / (m + k)
    z, s = t * HALF_PI, (-1) ** ((m - 1) // 2)
    den = (-2 * cmath.sin(k * HALF_PI * (1 + a_value) / 2)
           * cmath.sin(k * HALF_PI * (1 - a_value) / 2))
    sinc = lambda w: _sinc(w / math.pi)  # noqa: E731
    c_d = s * HALF_PI * sinc(z) / ((m + k) * den)  # c d_m = c/(m^2 - lambda)
    series = HALF_PI ** 2 * np.sum(_SIN_SERIES * z ** np.arange(1, 24, 2))  # (sin z - z)/t^2
    cos_ma = math.cos(m * HALF_PI * a_value)
    num = (-s * (m + k) * HALF_PI * sinc(z)
           + (m + k) * 2 * cmath.sin((m + k) * HALF_PI * a_value / 2) * HALF_PI * a_value / 2
           * sinc(t * HALF_PI * a_value / 2)
           + cos_ma * (4 * m / math.pi * series - 1))
    root = math.sqrt(2 / math.pi)
    return c_d * root * 2 * m, c_d * root * s * cos_ma, -num / ((m + k) ** 2 * den)


@dataclass
class SineMatrix:
    """(<e_i, R e_j>) for i, j <= N with the border row and column N + 1:
    diag(d) + c u y^T, u = (u_1..u_N, |u_t|), y = (v_1..v_N, |v_t|) and
    d_{N+1} = 0.  `resonant` is None, or (m, c u_m, c v_m, <e_m, R e_m>)
    for the odd m with |lambda - m^2| < NEAR_RESONANCE, whose row and column
    replace the cancelling d_m + c u_m v_m (`dense`)."""

    d: np.ndarray
    c: complex
    u: np.ndarray
    y: np.ndarray
    resonant: tuple[int, complex, complex, complex] | None

    def dense(self) -> np.ndarray:
        out = np.outer(self.c * self.u, self.y)
        out[np.diag_indices_from(out)] += self.d
        if self.resonant:
            m, cu_m, cv_m, diag = self.resonant
            out[m - 1] = cu_m * self.y
            out[:, m - 1] = self.u * cv_m
            out[m - 1, m - 1] = diag
        return out


def sine_matrix(lam: complex, a: ParamA, n: int) -> SineMatrix:
    """The exact matrix of (H - lambda)^{-1} on the first n sine modes plus
    the border (module docstring); PoleAtEigenvalue at the spectrum, from
    the guard of `ResolventKernel.build`, before any array.  Real at real
    lambda: c = cos(k pi/2)/(cos(k pi/2) - cos(k pi a/2)) = (1 + E)/((1 - P)(1 - Q))
    is real there, and its rounding-only imaginary part at lambda > 0 is dropped."""
    kern = ResolventKernel.build(lam, a)
    lam = kern.lam
    real = lam.imag == 0
    d_e, d_p, d_q = kern.one_minus
    c = (2 - d_e) / (d_p * d_q)
    j = np.arange(1, n + 1)
    gap = j * j - (lam.real if real else lam)
    k = cmath.sqrt(lam)
    m = 2 * math.floor(k.real / 2) + 1  # the odd integer nearest Re k
    resonant = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = 1 / gap  # inf only at the resonant odd m (even squares are poles), reset below
        u = math.sqrt(8 / math.pi) * j * (j % 2) * d
        y = math.sqrt(2 / math.pi) * _sin_pi(j * (1 + a.value) / 2) * d
    if m <= n and abs(lam - m * m) < NEAR_RESONANCE:
        resonant = (m, *_zone_entries(lam, a.value, m))
        if real:
            resonant = (m, *(complex(v).real for v in resonant[1:]))
        d[m - 1] = u[m - 1] = y[m - 1] = 0.0
    u_t, v_t = _tail_norms(lam, a.value, n)
    return SineMatrix(d=np.append(d, 0.0), c=c.real if real else c,
                      u=np.append(u, u_t), y=np.append(y, v_t), resonant=resonant)


def _secular_roots(p: np.ndarray, w: np.ndarray,
                   rho: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The roots s_1 < s_2 < ... of rho + sum_i w_i/(p_i - s) = 0 for
    ascending, distinct poles p and weights w > 0: one in each (p_j, p_j+1),
    and for rho = 1 a last one in (p_n, p_n + sum w), as (K, tau) with
    s_j = p_K + tau_j: K is the nearer pole, so p_i - s_j = (p_i - p_K) - tau_j
    keeps its digits.  All roots of a block of rows iterate at once on the
    model that keeps f and f' and the two poles about the root (Li's middle
    way; the last root takes its two left poles), inside the bracket that
    the sign of f keeps: a step that leaves it bisects, except that the last
    root may step onto its upper bound.  LinAlgError if a root still moves
    after SECULAR_PASSES passes."""
    n, total = len(p), float(w.sum())
    count = max(n if rho else n - 1, 0)
    origin, tau = np.empty(count, dtype=np.int64), np.empty(count)
    buf = np.empty((3, min(BLOCK_ROWS, count), n))  # gaps, then w/dist and dist, summed as one
    for start in range(0, count, BLOCK_ROWS):
        j = np.arange(start, min(start + BLOCK_ROWS, count))
        last = j == n - 1
        right = np.minimum(j + 1, n - 1)
        half = np.where(last, total, p[right] - p[j]) / 2
        mid = np.subtract(p, (p[j] + half)[:, None], out=buf[1, :len(j)])
        f_mid = rho + np.divide(w, mid, out=mid).sum(1)
        left = (f_mid >= 0) | last  # the root is in (p_j, p_j + half]
        K = np.where(left, j, right)
        lo = np.where(left, 0.0, -half)
        hi = np.where(left, np.where(last, 2 * half, half), 0.0)
        t = (lo + hi) / 2
        gaps = np.subtract(p, p[K][:, None], out=buf[0, :len(j)])
        split = np.minimum(j, n - 2)  # poles <= split lie left of the model's two
        c0, c1 = max(start - 1, 0), min(start + BLOCK_ROWS + 1, n)
        tri = np.arange(c0, c1) <= split[:, None]
        act = np.arange(len(j))
        for _ in range(SECULAR_PASSES):
            if not len(act):
                break
            terms, dist = both = buf[1:, :len(act)]  # dist becomes the slope w/dist^2
            # no gather while every row of the block is active
            np.subtract(gaps if len(act) == len(j) else gaps.take(act, 0, out=dist),
                        t[act, None], out=dist)
            np.divide(w, dist, out=terms)
            r = np.arange(len(act))
            d2 = dist[r, split[act] + 1]
            d1 = dist[r, split[act]] if n > 1 else d2 - 1  # one pole: b = 0, any d1 < d2
            np.divide(terms, dist, out=dist)
            # each column range read once: left of the model's two poles, then right
            band = both[..., c0:c1]
            psi, dpsi = both[..., :c0].sum(2) + np.where(tri[act], band, 0.0).sum(2)
            phi, dphi = np.where(tri[act], 0.0, band).sum(2) + both[..., c1:].sum(2)
            f = rho + psi + phi
            ta = t[act]
            lo_a, hi_a = np.where(f < 0, ta, lo[act]), np.where(f >= 0, ta, hi[act])
            b, e = dpsi * d1 ** 2, dphi * d2 ** 2
            cc = f - b / d1 - e / d2
            with np.errstate(all="ignore"):
                # cc eta^2 - B eta + d1 d2 f = 0, the model's zero
                bb = cc * (d1 + d2) + b + e
                q = bb + np.copysign(np.sqrt(np.maximum(bb * bb - 4 * cc * d1 * d2 * f, 0)), bb)
                r1, r2 = 2 * d1 * d2 * f / q, q / (2 * cc)
                eta = np.where(last[act], np.maximum(r1, r2),
                               np.where((r1 > d1) & (r1 < d2), r1, r2))
            bound = 8 * EPS * (rho + np.abs(psi) + np.abs(phi))
            done = ((np.abs(eta) <= 4 * EPS * np.abs(ta)) | (np.abs(f) <= bound)
                    | (hi_a - lo_a <= 4 * EPS * np.abs(ta)))
            step = ta + np.where(done, 0.0, eta)
            # the last root's hi is no pole and f(hi) >= 0: a step past it stops there
            top = ~done & last[act] & (step >= hi_a) & (ta < hi_a)
            bad = ~done & ~top & ~((step > lo_a) & (step < hi_a))
            t[act] = np.where(top, hi_a, np.where(bad, (lo_a + hi_a) / 2, step))
            lo[act], hi[act] = lo_a, hi_a
            act = act[~done]
        if len(act):
            raise np.linalg.LinAlgError(f"secular solve: {len(act)} roots unconverged after "
                                        f"{SECULAR_PASSES} passes, from {j[act][:8].tolist()}")
        origin[j], tau[j] = K, t
    return origin, tau


def dpr1_singular_values(d: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
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
    K, tau = _secular_roots(poles[:top], weights[:top], rho=0.0)
    if not rho0:
        K, tau = np.append(K, len(p_a)), np.append(tau, 0.0)
    mu = -(poles[K] + tau)
    zeta_a = np.empty(len(p_a), dtype=np.result_type(yt, float))
    vec_buf, prod_buf = (np.empty((min(BLOCK_ROWS, len(p_a)), len(p_a)), dtype=dt)
                         for dt in (float, zeta_a.dtype))
    for start in range(0, len(p_a), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        vec, prod = vec_buf[:len(tau[rows])], prod_buf[:len(tau[rows])]
        np.subtract(tau[rows, None], np.subtract(p_a, poles[K[rows]][:, None], out=vec), out=vec)
        np.divide(wa, vec, out=vec)  # g/(delta - mu)
        # numpy's pairwise sums: with a BLAS dot the values at a = 0, lambda = 26,
        # N = 2048 came out 38 eps sigma_1 off the dense SVD, with these 6
        zeta_a[rows] = ((1 + nx * np.multiply(vec, yt, out=prod).sum(1))
                        / np.sqrt(np.multiply(vec, vec, out=vec).sum(1)))
    om = np.concatenate([*omega, np.sqrt(np.maximum(mu, 0.0))])
    ze = np.abs(np.concatenate([*zeta, zeta_a]))
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
    K, tau = _secular_roots(p_b, w[keep])
    out.append(np.sqrt(p_b[K] + tau))
    return np.sort(np.concatenate(out))[::-1]


def _trace_tail(lam: complex, n: int) -> float:
    """sum_{j>n} 1/|j^2 - lambda|, the trace norm of the Dirichlet tail that
    the matrix drops: 1/|1 - z| (z = lambda/j^2) is the double binomial
    series sum_{p,q} b_p b_q z^p conj(z)^q, b_p = C(2p, p)/4^p, and |z| <= 1/16
    in the probe's range, so 16 orders against the Hurwitz sums
    zeta(2 + 2i, n + 1), each by Euler-Maclaurin, reach rounding."""
    b = np.cumprod(np.r_[1.0, (2 * np.arange(1, 16) - 1) / (2 * np.arange(1, 16))])
    powers = lam ** np.arange(16)
    coef = np.array([np.sum(b[:i + 1] * b[i::-1] * powers[:i + 1] * powers[i::-1].conj()).real
                     for i in range(16)])
    q, s = n + 1.0, 2.0 + 2 * np.arange(16)
    hurwitz = q ** (1 - s) / (s - 1) + q ** -s / 2
    rising = s.copy()
    for i, bern in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30), start=1):
        hurwitz += bern / math.factorial(2 * i) * rising * q ** (-s - 2 * i + 1)
        rising = rising * (s + 2 * i - 1) * (s + 2 * i)
    return float(coef @ hurwitz)


def singular_value_probe(lam: complex, a: ParamA, n: int = 512) -> dict:
    """The N + 1 = n + 1 singular values of the exact sine-basis matrix of
    (H - lambda)^{-1} (`sine_matrix`), their log-log decay exponent fitted
    over `check_probe`'s window, and the trace-norm estimate: their sum plus
    the dropped Dirichlet tail (`_trace_tail`).  `truncation_bound`
    1/|(n+1)^2 - lambda| bounds how far the dropped tail moves each value.
    Compact second-order resolvents decay like j^-2."""
    first, last = check_probe(lam, n)
    mat = sine_matrix(lam, a, n)
    svals = (np.linalg.svd(mat.dense(), compute_uv=False) if mat.resonant
             else dpr1_singular_values(mat.d, mat.c * mat.u, mat.y))
    j = np.arange(first, last + 1)
    slope = float(np.polyfit(np.log(j), np.log(svals[first - 1:last]), 1)[0])
    return {"singular_values": svals, "decay_exponent": slope,
            "trace_norm_estimate": float(np.sum(svals)) + _trace_tail(complex(lam), n),
            "truncation_bound": 1 / abs((n + 1) ** 2 - complex(lam)), "n_modes": n}
