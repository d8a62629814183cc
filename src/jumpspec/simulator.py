"""Monte Carlo simulation of Brownian motion restarted from the boundary.

Paths carry quadratic variation 2 (increments sqrt(2 dt) N(0,1)) inside
(-pi/2, pi/2); on hitting either endpoint the particle restarts at the
interior point pi*a/2.  Boundary hits between grid times are recovered
with the Brownian-bridge exceedance probability
exp(-(b - x0)(b - x1)/dt) (variance-matched to quadratic variation 2),
since plain threshold crossing undercounts hits and biases every rate
estimate.

The bridge rule runs only on candidate paths, those with
max(|x0|, |x1|) above pi/2 - sqrt(CUTOFF dt), less four ulps of pi/2 for
rounding.  Off that set both exponents are at most -CUTOFF, so both
probabilities are at most exp(-40) < 2**-53, the smallest positive
uniform the generator draws: the full-width rule could have restarted a
skipped path only on a uniform of exactly 0.0, so the skip moves a
step's hit probability by at most 2**-53.  Each bridge step draws the
normals of the paths it steps, then one uniform per candidate, in path
order.

Paths are walked in strides of at most SAMPLE_STRIDE steps; a stride
ends on every sample step, on the last uncounted step and on the last
step.  A path is deep for a stride of S steps when |x| is at most the
threshold less sqrt(4 S dt (CUTOFF + ln 2)) and four ulps of pi/2, the
threshold being the candidate margin with the bridge and pi/2 without.
A walk of quadratic variation 2 strays by D or more within time S dt
with probability at most 2 exp(-D**2 / (4 S dt)) = exp(-CUTOFF) at that
D, so a deep path would have become a candidate (or, without the bridge,
crossed pi/2) at some step of the stride with probability below 2**-53.
Deep paths therefore take the S steps as one normal of variance 2 S dt;
the others take S steps of the stepper.  A stride draws the deep
normals in path order, then the S steps of the other paths.

Two theory targets are checked against the spectral side: the occupation
density relaxes to the tent profile (the adjoint zero-mode, used here as
the stationary-density candidate and verified empirically), and relaxation
rates of mean observables decay at the spectral gap 4, the second
Dirichlet eigenvalue of the interval.

Both checks drive one walker, `_walk`, which steps a batch of paths on
its own Philox stream and observes it at chosen steps.  `run` keys batch
i by (seed, i), starts at pi*a/2 and bins occupation (N_BINS bins) and
moments every SAMPLE_STRIDE steps after the burn-in; `estimate_gap` keys
it by (seed + GAP_STREAM, i), starts at the right-piece midpoint and
averages the observable at GAP_TIMES times across GAP_WINDOW.  Results
are reproducible for a fixed batch partition at any thread count, and
moment reductions use exact summation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from jumpspec.eigensystem import BiorthPair, biorthogonalize, phi_zero_mode
from jumpspec.funcspace import PiecewiseTrig, inner_closed, norm_l2
from jumpspec.param import ParamA

HALF_PI = math.pi / 2
N_BINS = 50  # occupation histogram bins over (-pi/2, pi/2)
SAMPLE_STRIDE = 10  # occupation/moment subsampling and the longest stride, in steps
GAP_WINDOW = (0.2, 1.2)  # relaxation times fitted by estimate_gap
GAP_TIMES = 50
GAP_STREAM = 104729  # seed offset that keeps the gap streams apart from run's
CUTOFF = 40.0  # bridge exponents below -CUTOFF are skipped: exp(-40) < 2**-53


class ObservableOrthogonalToGapMode(ValueError):
    """Observable has no component on the slowest decaying mode."""


class RelaxationBelowNoise(RuntimeError):
    """Too few relaxation times stand above the Monte Carlo noise to fit."""


@dataclass
class SimConfig:
    """Simulation parameters shared by `run` and `estimate_gap`.

    `horizon` and `burn_in` apply to `run` only: `estimate_gap` steps to
    the end of GAP_WINDOW and samples from time 0.  Paths are split into
    batches of at most `batch_size`, run on up to `threads` threads.
    """
    a: ParamA
    dt: float = 1e-4
    horizon: float = 10.0
    n_paths: int = 10_000
    seed: int = 0
    bridge_correction: bool = True
    burn_in: float = 6.25  # five relaxation times of the gap-4 mode
    batch_size: int = 20_000
    threads: int = 1

    def __post_init__(self):
        if not 0 < self.dt <= 1e-3:
            raise ValueError(f"dt must be in (0, 1e-3], got {self.dt}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not 0 <= self.burn_in < math.inf:
            raise ValueError(f"burn_in must be nonnegative and finite, got {self.burn_in}")
        if self.n_paths < 1:
            raise ValueError("need at least one path")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")


@dataclass
class SimReport:
    bin_edges: np.ndarray
    bin_density: np.ndarray
    moment2: float
    mean: float
    jumps_per_unit_time: float
    time_units: float
    n_paths: int
    gap_estimate: float | None = None
    gap_stderr: float | None = None

    def to_dict(self) -> dict:
        return asdict(self) | {"bin_edges": self.bin_edges.tolist(),
                               "bin_density": self.bin_density.tolist()}


def stationary_density(a: ParamA) -> PiecewiseTrig:
    """Normalized tent profile: the adjoint zero-mode with positive sign."""
    tent = phi_zero_mode(a, -1.0)  # C = -1 makes both pieces nonnegative
    mass = math.pi ** 2 * (1 - a.value ** 2) / 4  # exact integral of the tent
    return tent.scaled(1.0 / mass)


def tent_bin_probabilities(a: ParamA, edges: np.ndarray) -> np.ndarray:
    """Exact bin masses of the stationary tent density."""
    av = a.value
    xb = HALF_PI * av
    c = 4.0 / (math.pi ** 2 * (1 - av ** 2))
    x = np.asarray(edges, dtype=float)
    # the normalized tent integrated from -pi/2 to each edge
    left = c * (1 - av) * 0.5 * (x + HALF_PI) ** 2
    right = (1 + av) * 0.5 * ((HALF_PI - xb) ** 2 - (HALF_PI - x) ** 2)
    right = c * ((1 - av) * 0.5 * (xb + HALF_PI) ** 2 + right)
    return np.diff(np.where(x <= xb, left, right))


def gap_mode(a: ParamA) -> BiorthPair:
    """The biorthogonal pair at the spectral gap, lambda = 4."""
    return next(p for p in biorthogonalize(a, 4.5) if abs(p.psi.record.lam - 4.0) < 1e-9)


def _bridge_margin(dt: float) -> float:
    """|x| up to which a step end cannot start a boundary hit.

    Both ends within pi/2 - sqrt(CUTOFF dt) keep both bridge exponents at
    or below -CUTOFF; four ulps of pi/2 more absorb the rounding of this
    subtraction and of the exponent, however small dt is."""
    return HALF_PI - math.sqrt(CUTOFF * dt) - 4 * math.ulp(HALF_PI)


def _deep_margin(dt: float, stride: int, bridge: bool) -> float:
    """|x| up to which a path cannot reach the threshold within `stride`
    steps, but with probability at most exp(-CUTOFF).

    The threshold is `_bridge_margin(dt)` with the bridge correction and
    pi/2 without; four ulps of pi/2 absorb the rounding, as there."""
    threshold = _bridge_margin(dt) if bridge else HALF_PI
    return (threshold - math.sqrt(4 * stride * dt * (CUTOFF + math.log(2)))
            - 4 * math.ulp(HALF_PI))


def _bridge_probabilities(x0: np.ndarray, x1: np.ndarray,
                          dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities that the bridge from x0 to x1 over one step reaches
    the upper and the lower boundary, exp(-(b -+ x0)(b -+ x1)/dt).

    The exponent is clipped at 0, which makes a probability exactly 1
    whenever the endpoint landed on or beyond that boundary."""
    upper = np.exp(np.minimum((HALF_PI - x0) * (HALF_PI - x1) / -dt, 0.0))
    lower = np.exp(np.minimum((x0 + HALF_PI) * (x1 + HALF_PI) / -dt, 0.0))
    return upper, lower


class _Stepper:
    """Reusable-buffer Euler stepper with bridge-corrected boundary hits.

    `step` moves the paths it is given, a prefix's worth of its buffers.
    With the bridge correction, a step draws one normal per path, moves
    every path, flags as candidates the paths with max(|x0|, |x1|) above
    `_bridge_margin(dt)`, then draws one uniform per candidate and
    restarts those below the sum of their two bridge probabilities.  The
    other paths have both probabilities at most exp(-CUTOFF) < 2**-53,
    so the skip is exact up to a uniform of 0.0 (see the module
    docstring).  Without it, a path restarts when it ends a step on or
    beyond the boundary.

    `stride` takes S steps at once: the deep paths (|x| at most
    `_deep_margin(dt, S, bridge)`) move by one normal of variance 2 S dt,
    drawn first in path order, and the others take S calls of `step`.
    """

    def __init__(self, n_paths: int, dt: float, bridge: bool, rng):
        self.rng = rng
        self.dt = dt
        self.bridge = bridge
        self.sig = math.sqrt(2.0 * dt)
        self.margin = _bridge_margin(dt)
        self.noise = np.empty(n_paths)
        self.reach = np.empty(n_paths)
        self.x_old = np.empty(n_paths)

    def step(self, x: np.ndarray, restart: float) -> int:
        """Advance x in place by one step; returns the number of restarts."""
        n = len(x)
        noise, reach, x_old = self.noise[:n], self.reach[:n], self.x_old[:n]
        if self.bridge:
            np.copyto(x_old, x)
        self.rng.standard_normal(out=noise)
        noise *= self.sig
        x += noise
        if self.bridge:
            np.abs(x_old, out=reach)
            np.abs(x, out=noise)  # the step is taken; reuse its buffer
            np.maximum(reach, noise, out=reach)
            cand = np.flatnonzero(reach > self.margin)
            upper, lower = _bridge_probabilities(x_old[cand], x[cand], self.dt)
            hit = cand[self.rng.random(len(cand)) < upper + lower]
            x[hit] = restart
            return len(hit)
        hit = np.abs(x) >= HALF_PI
        np.copyto(x, restart, where=hit)
        return int(np.count_nonzero(hit))

    def stride(self, x: np.ndarray, restart: float, n_steps: int) -> int:
        """Advance x in place by n_steps steps; returns the number of restarts."""
        deep = np.abs(x) <= _deep_margin(self.dt, n_steps, self.bridge)
        inner = np.flatnonzero(deep)
        outer = np.flatnonzero(~deep)
        x[inner] += math.sqrt(2.0 * n_steps * self.dt) * self.rng.standard_normal(len(inner))
        shallow = x[outer]
        n_hit = sum(self.step(shallow, restart) for _ in range(n_steps))
        x[outer] = shallow
        return n_hit


def _walk(cfg: SimConfig, key, n_paths: int, x0: float, n_steps: int,
          sample_steps, observe, count_after: int = 0) -> int:
    """Step one batch of n_paths paths from x0 for n_steps steps.

    The batch draws from the Philox stream `key`; observe(x) sees the
    positions after every step in `sample_steps`, in step order.  Returns
    the number of restarts after step `count_after`.

    The steps go in strides of at most SAMPLE_STRIDE, cut to end on every
    sample step, on step `count_after` and on step n_steps.  Each stride
    (`_Stepper.stride`) draws one normal per deep path, in path order,
    then the S steps of the other paths; a deep path reaches the
    threshold within the stride with probability at most exp(-CUTOFF)
    (see `_deep_margin` and the module docstring)."""
    rng = np.random.Generator(np.random.Philox(key=key))
    restart = HALF_PI * cfg.a.value
    x = np.full(n_paths, x0)
    stepper = _Stepper(n_paths, cfg.dt, cfg.bridge_correction, rng)
    stops = sorted(s for s in {count_after, n_steps, *sample_steps} if 0 < s <= n_steps)
    jumps = 0
    step = 0
    for stop in stops:
        while step < stop:
            n = min(SAMPLE_STRIDE, stop - step)
            n_hit = stepper.stride(x, restart, n)
            step += n
            if step > count_after:
                jumps += n_hit
        if stop in sample_steps:
            observe(x)
    return jumps


def _batches(cfg: SimConfig) -> list[tuple[int, int]]:
    """(index, size) of each batch of at most cfg.batch_size paths."""
    starts = range(0, cfg.n_paths, cfg.batch_size)
    return [(idx, min(cfg.batch_size, cfg.n_paths - start))
            for idx, start in enumerate(starts)]


def _map_batches(cfg: SimConfig, plan: list[tuple[int, int]], job) -> list:
    """[job(idx, n) for each batch], on up to cfg.threads threads.

    Each batch owns its stream, and results come back in batch order, so
    the thread count does not change any result."""
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(lambda item: job(*item), plan))


def _occupation_batch(cfg: SimConfig, idx: int, n_paths: int, n_steps: int,
                      burn_steps: int, sample_steps: range) -> tuple:
    """Bin counts, [sum of x^2, sum of x] over the samples, and the
    restarts after burn-in, of batch idx."""
    counts = np.zeros(N_BINS, dtype=np.int64)
    sums = np.zeros(2)

    def observe(x):
        bins = ((x + HALF_PI) * (N_BINS / math.pi)).astype(np.int64)
        np.clip(bins, 0, N_BINS - 1, out=bins)
        counts[:] += np.bincount(bins, minlength=N_BINS)
        sums[:] += (np.dot(x, x), np.sum(x))

    jumps = _walk(cfg, [cfg.seed, idx], n_paths, HALF_PI * cfg.a.value, n_steps,
                  sample_steps, observe, count_after=burn_steps)
    return counts, sums, jumps


def run(cfg: SimConfig) -> SimReport:
    """Simulate and report occupation statistics after burn-in.

    ValueError when no sample falls after burn-in."""
    n_steps = int(round(cfg.horizon / cfg.dt))
    burn_steps = int(round(cfg.burn_in / cfg.dt))
    first = (burn_steps // SAMPLE_STRIDE + 1) * SAMPLE_STRIDE
    sample_steps = range(first, n_steps + 1, SAMPLE_STRIDE)
    if not sample_steps:
        raise ValueError(f"horizon {cfg.horizon} leaves no sample after the "
                         f"burn-in of {cfg.burn_in} at dt {cfg.dt}")
    results = _map_batches(
        cfg, _batches(cfg),
        lambda idx, n: _occupation_batch(cfg, idx, n, n_steps, burn_steps, sample_steps))

    counts = np.sum([r[0] for r in results], axis=0)
    n_samples = cfg.n_paths * len(sample_steps)
    sum_sq = math.fsum(r[1][0] for r in results)
    sum_x = math.fsum(r[1][1] for r in results)
    jumps = sum(r[2] for r in results)
    width = math.pi / N_BINS
    effective_time = cfg.n_paths * (n_steps - burn_steps) * cfg.dt
    return SimReport(
        bin_edges=np.linspace(-HALF_PI, HALF_PI, N_BINS + 1),
        bin_density=counts / n_samples / width,
        moment2=sum_sq / n_samples,
        mean=sum_x / n_samples,
        jumps_per_unit_time=jumps / effective_time,
        time_units=effective_time,
        n_paths=cfg.n_paths)


# ---------------------------------------------------------------------------
# spectral-gap estimation
# ---------------------------------------------------------------------------

def estimate_gap(cfg: SimConfig, observable: PiecewiseTrig) -> tuple[float, float | None]:
    """Fit -d/dt log |E[g(X_t)] - mu_inf| over GAP_WINDOW.

    The observable must have a nonzero pairing with the gap-mode dual;
    paths launch from the right-piece midpoint, where the gap
    eigenfunction never vanishes.  The standard error is None when fewer
    than two batches give a slope.  RelaxationBelowNoise when too few
    sample times rise above the noise to fit.
    """
    pairing = inner_closed(gap_mode(cfg.a).phi.fn, observable)
    if abs(pairing) < 1e-8 * max(norm_l2(observable), 1e-30):
        raise ObservableOrthogonalToGapMode(
            "observable is orthogonal to the gap-mode dual; the fitted decay "
            "would track a higher mode")
    x0 = HALF_PI * (1 + cfg.a.value) / 2  # right-piece midpoint
    mu_inf = inner_closed(stationary_density(cfg.a), observable).real

    times = np.linspace(*GAP_WINDOW, GAP_TIMES)
    sample_steps = np.unique(np.round(times / cfg.dt).astype(int))
    times = sample_steps * cfg.dt
    wanted = set(sample_steps.tolist())

    def trace(idx: int, n_paths: int) -> list[float]:
        means = []
        _walk(cfg, [cfg.seed + GAP_STREAM, idx], n_paths, x0, int(sample_steps[-1]),
              wanted, lambda x: means.append(float(np.mean(np.real(observable(x))))))
        return means

    plan = _batches(cfg)
    traces = np.array(_map_batches(cfg, plan, trace))
    weights = np.array([n for _, n in plan], dtype=float)
    pooled = np.average(traces, axis=0, weights=weights)

    signal = np.abs(pooled - mu_inf)
    if len(plan) > 1:
        point_std = np.std(traces - mu_inf, axis=0, ddof=1) / math.sqrt(len(plan))
    else:
        point_std = np.full_like(pooled, 1e-3)
    keep = signal > 3 * point_std
    if np.count_nonzero(keep) < max(5, GAP_TIMES // 4):
        raise RelaxationBelowNoise("relaxation signal below noise; increase n_paths")
    slope, _ = np.polyfit(times[keep], np.log(signal[keep]), 1)

    slopes = []
    for tr in traces:
        s = np.abs(tr - mu_inf)
        ok = keep & (s > 0)
        if np.count_nonzero(ok) >= 5:
            slopes.append(np.polyfit(times[ok], np.log(s[ok]), 1)[0])
    stderr = (float(np.std(slopes, ddof=1) / math.sqrt(len(slopes)))
              if len(slopes) > 1 else None)
    return -float(slope), stderr
