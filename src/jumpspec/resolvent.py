"""Resolvent of the jump-coupled Laplacian by a direct three-point solve.

u = (H - lambda)^{-1} f solves -u'' - lambda u = f on (-pi/2, pi/2) with
u(-pi/2) = u(pi a/2) = u(pi/2).  With k = i sqrt(-lambda), so that
k^2 = lambda and Im k >= 0, it is written

    u = u_p + A phi_1 + B phi_2,
    u_p(x) = (i/2k) int e^{ik|x-y|} f(y) dy,
    phi_1(x) = e^{ik(x + pi/2)},   phi_2(x) = e^{ik(pi/2 - x)}.

Im k >= 0 bounds e^{ik|x-y|}, phi_1 and phi_2 by 1 on the interval, so
nothing overflows however large |lambda| is; the even pair
(cos kx, sin kx) would carry cosh(|k| pi/2), which overflows at
lambda = -1e6.  A and B solve the 2x2 system u(-pi/2) = u(pi a/2) =
u(pi/2).  With E = e^{ik pi}, P = e^{ik pi (1+a)/2}, Q = e^{ik pi (1-a)/2}
(so E = PQ) its determinant is

    (1 - E)(1 - P)(1 - Q) = 8i E sin(k pi (1+a)/4) sin(k pi (1-a)/4) sin(k pi/2),

-2i E times the characteristic determinant, so the only poles are the
spectrum.  Each factor
is formed as -expm1(i theta) and the product is never expanded, so it
does not cancel near its zeros.  A quadrature-weighted SVD of the
discretized kernel provides the singular-value decay evidence for the
trace-class property.

For real lambda < 0, k = i kappa with kappa = sqrt(-lambda) > 0, and
(i/2k) e^{ik|x-y|} = e^{-kappa|x-y|}/(2 kappa), phi_1, phi_2, E, P and Q
are all real.  `ResolventKernel` then keeps ik = -kappa and the scalars
derived from it real, so the kernel is assembled in float64 and the SVD
probe runs a real SVD; every other lambda stays complex.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from jumpspec.funcspace import grid_nodes, grid_panels
from jumpspec.param import ParamA

HALF_PI = math.pi / 2

# smallest factor of the three-point determinant that still counts as off
# the spectrum: k within ~1e-8 of a zero of one factor is refused
DENOM_GUARD = 1e-8
# the SVD probe's grid grows with |k|; 4097 nodes is twice the documented n
MAX_PROBE_NODES = 4097
# the solve's panels grow with |k| = sqrt(|lambda|): on its default grid the
# solve plus its residual report take 0.3 s and 120 MB peak RSS at
# |lambda| = 1e8 (9.0e4 nodes), 0.9 s and 290 MB at 1e9 (2-core host)
MAX_ABS_LAMBDA = 1e8


# never raised; kept only because perfbench/test_perfbench.py names it
class PoleAtDirichletEigenvalue(ArithmeticError):
    """lambda hit the Dirichlet reference spectrum {n^2}."""


class PoleAtEigenvalue(ArithmeticError):
    """The three-point determinant vanished: lambda is (numerically) in the spectrum."""


# kept only because perfbench/test_perfbench.py names it
DenominatorVanishes = PoleAtEigenvalue


def _check_interval(*arrays: np.ndarray) -> None:
    for arr in arrays:
        if np.max(np.abs(arr), initial=0.0) > HALF_PI + 1e-12:
            raise ValueError("resolvent arguments outside [-pi/2, pi/2]")


_GL12_X, _GL12_W = np.polynomial.legendre.leggauss(12)


def particular_solution(k: complex, f, xs: np.ndarray) -> np.ndarray:
    """u_p(xs) = (i/2k) int e^{ik|x-y|} f(y) dy for callable or symbolic f, Im k >= 0.

    The evaluation points and an even grid of step <= 4/|k| cut
    [-pi/2, pi/2] into panels, so no panel crosses the kernel kink.  GL12
    integrates f on every panel against the exponential that decays
    away from its right (left) end, and the two sweeps

        L_{j+1} = e^{ik h_j} L_j + int_j e^{ik(x_{j+1} - y)} f,
        R_j     = e^{ik h_j} R_{j+1} + int_j e^{ik(y - x_j)} f

    carry the one-sided integrals across, multiplying only by factors of
    modulus <= 1.
    """
    xs = np.asarray(xs, dtype=float)
    _check_interval(xs)
    n_even = int(math.ceil(math.pi * max(abs(k), 1.0) / 4.0)) + 1
    edges, where = np.unique(np.concatenate((np.linspace(-HALF_PI, HALF_PI, n_even),
                                             np.clip(xs, -HALF_PI, HALF_PI))),
                             return_inverse=True)
    half = 0.5 * np.diff(edges)[:, None]
    ys = edges[:-1, None] + half * (1.0 + _GL12_X)
    wf = half * _GL12_W * np.asarray(f(ys.ravel()), dtype=complex).reshape(ys.shape)
    ik = 1j * k
    left = np.sum(wf * np.exp(ik * (edges[1:, None] - ys)), axis=1)
    right = np.sum(wf * np.exp(ik * (ys - edges[:-1, None])), axis=1)
    step = np.exp(ik * 2.0 * half[:, 0]).tolist()

    def sweep(acc, term):
        return acc * term[0] + term[1]

    lsum = list(accumulate(zip(step, left.tolist()), sweep, initial=0j))
    rsum = list(accumulate(zip(step[::-1], right.tolist()[::-1]), sweep,
                           initial=0j))[::-1]
    up = (0.5j / k) * (np.array(lsum) + np.array(rsum))
    return up[where[n_even:]]


def check_lambda(lam: complex) -> complex:
    """lam as a complex, or ValueError unless it is finite and within the cap."""
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lambda={lam} is not finite")
    if abs(lam) > MAX_ABS_LAMBDA:
        raise ValueError(f"|lambda| = {abs(lam):.3g} exceeds the cap of {MAX_ABS_LAMBDA:g} "
                         "(the solution grid grows with |k| = sqrt(|lambda|))")
    return lam


@dataclass
class ResolventKernel:
    """(H - lambda)^{-1} at one lambda, as the free kernel plus a rank-two term.

        R(x, y) = (i/2k) e^{ik|x-y|} + phi_1(x) alpha(y) + phi_2(x) beta(y),

    where (alpha, beta) = `coefficients` of the free kernel's boundary
    differences G(-pi/2, y) - G(pi a/2, y) and G(pi/2, y) - G(pi a/2, y).
    `apply_resolvent` feeds the same `coefficients` the boundary differences
    of u_p, so both paths share one three-point solve.  `one_minus` holds
    the determinant's factors (1 - E, 1 - P, 1 - Q); `denom` is their
    product.  `ik`, `p`, `q` and `one_minus` are Python floats when lambda
    is real and negative and complex otherwise; the arrays built from them
    inherit that type.
    """

    lam: complex
    k: complex
    ik: complex
    a_value: float
    p: complex
    q: complex
    one_minus: tuple[complex, complex, complex]
    denom: complex

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
                   one_minus=tuple(one_minus.tolist()),
                   denom=complex(np.prod(one_minus)))

    def coefficients(self, r1, r2):
        """(A, B) such that u_p + A phi_1 + B phi_2 meets the three-point
        condition, given r1 = u_p(-pi/2) - u_p(pi a/2) and
        r2 = u_p(pi/2) - u_p(pi a/2); broadcasts over arrays.

        The system [[1-P, E-Q], [E-P, 1-Q]] (A, B) = -(r1, r2) has, since
        E = PQ, the solution A = -(s1 + Q s2), B = -(P s1 + s2) with
        s1 = r1/((1-E)(1-P)) and s2 = r2/((1-E)(1-Q)).
        """
        d_e, d_p, d_q = self.one_minus
        s1 = r1 / (d_e * d_p)
        s2 = r2 / (d_e * d_q)
        return -(s1 + self.q * s2), -(self.p * s1 + s2)

    def phis(self, xs: np.ndarray) -> np.ndarray:
        """Columns phi_1(xs) = e^{ik(x + pi/2)} and phi_2(xs) = e^{ik(pi/2 - x)}."""
        xs = np.asarray(xs, dtype=float)
        return np.exp(self.ik * np.stack([xs + HALF_PI, HALF_PI - xs], axis=-1))

    def kernel_matrix(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        _check_interval(xs, ys)
        ik, c = self.ik, -0.5 / self.ik  # c = i/2k
        phi_y = self.phis(ys)
        g_jump = c * np.exp(ik * np.abs(HALF_PI * self.a_value - ys))
        alpha, beta = self.coefficients(c * phi_y[:, 0] - g_jump,
                                        c * phi_y[:, 1] - g_jump)
        out = np.empty((len(xs), len(ys)), dtype=np.result_type(ik))
        np.subtract.outer(xs, ys, out=out)
        np.abs(out, out=out)
        out *= ik
        np.exp(out, out=out)
        out *= c
        out += self.phis(xs) @ np.stack([alpha, beta])
        return out


def apply_resolvent(lam: complex, f, a: ParamA,
                    xs: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, u(nodes)) for u = (H - lambda)^{-1} f, f callable or PiecewiseTrig.

    Kink-split quadrature keeps u at machine accuracy.  The nodes are xs,
    or by default the composite Lobatto grid resolving |k|.
    """
    kern = ResolventKernel.build(lam, a)
    if xs is None:
        nodes, _ = grid_nodes(a, 96, kmax=abs(kern.k))
    else:
        nodes = np.asarray(xs, dtype=float)
    up = particular_solution(kern.k, f, np.concatenate(
        (nodes, [-HALF_PI, HALF_PI * a.value, HALF_PI])))
    u_m, u_b, u_p = up[-3:]
    coef = kern.coefficients(u_m - u_b, u_p - u_b)
    return nodes, up[:-3] + kern.phis(nodes) @ np.array(coef)


def residual_report(lam: complex, f, a: ParamA, n: int = 4096) -> dict:
    """Uniform-grid diagnostics: boundary deviation and the second-order
    ODE residual -u'' - lambda u - f under 4th-order central differences."""
    h = math.pi / n
    xs = np.linspace(-HALF_PI, HALF_PI, n + 1)
    _, u = apply_resolvent(lam, f, a, xs=np.append(xs, HALF_PI * a.value))
    u, u_b = u[:-1], u[-1]
    fv = np.asarray(f(xs), dtype=complex)
    upp = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1] - u[4:]) / (12 * h * h)
    resid = -upp - lam * u[2:-2] - fv[2:-2]
    scale = max(1.0, float(np.max(np.abs(fv))))
    return {
        "boundary_deviation": float(max(abs(u[0] - u_b), abs(u[-1] - u_b))),
        "pde_residual": float(np.max(np.abs(resid)) / scale),
        "lambda": lam,
    }


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
    """Singular values of the quadrature-weighted resolvent kernel.

    Returns the values, the fitted log-log decay exponent, and the partial
    sum (trace-norm estimate); compact second-order resolvents decay like
    j^-2, so the sum converges.
    """
    nodes, weights = grid_nodes(a, n // 2, kmax=check_probe(lam, a, n))
    mat = ResolventKernel.build(lam, a).kernel_matrix(nodes, nodes)
    sq = np.sqrt(weights)
    mat *= sq[:, None]
    mat *= sq[None, :]
    svals = np.linalg.svd(mat, compute_uv=False)
    j = np.arange(1, len(svals) + 1)
    window = (j >= 4) & (j <= len(svals) // 4) & (svals > 1e-14)
    slope = float(np.polyfit(np.log(j[window]), np.log(svals[window]), 1)[0])
    return {
        "singular_values": svals,
        "decay_exponent": slope,
        "partial_sum": float(np.sum(svals)),
        "n_nodes": len(nodes),
    }
