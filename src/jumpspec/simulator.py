"""Monte Carlo simulation of Brownian motion restarted from the boundary.

Paths carry quadratic variation 2 inside (-pi/2, pi/2); on hitting either
endpoint the particle restarts at the interior point pi*a/2.  The checks:
the occupation density relaxes to the tent profile (the adjoint
zero-mode), and mean observables relax at the spectral gap 4.

Each stride of length h moves every path by one exact step from x0 to
x1 = x0 + sqrt(2 h) N.  With b the boundary on the side of the step's
midpoint, alpha = |b - x0| and beta = |b - x1|, the path hit b surely if
x1 lies on or beyond b, else with the bridge probability
exp(-alpha beta / h), and then at T = h S / (1 + S) with S ~ Wald(mean
alpha/beta, scale alpha**2/(2 h)): s = t / (h - t) turns the bridge's
first-passage density into that inverse Gaussian one.  The path restarts
at pi*a/2 and runs the remaining h - T by the same rule, link by link
until no path hits again.  Per link it draws one normal per moving path,
one uniform per path with alpha beta / h < CUTOFF, then a normal and a
uniform per hit.  This is exact but for events below 2**-53, the least
positive uniform drawn:
- alpha beta / h >= CUTOFF bounds the hit probability by exp(-40).
- The far boundary lies pi/2 or more from the midpoint, so a path that
  touches it and ends at x1 ends, reflected there, at least pi from x0:
  probability exp(-pi**2/(4 h)) <= 2 exp(-(pi/2)**2/(4 h)) at most, below
  exp(-CUTOFF) while h <= FAR_STRIDE = (pi/2)**2 / (4 (CUTOFF + ln 2)),
  about 0.0152.  No stride is longer.

Strides end on every sample step, on the last uncounted step and on the
last step: a burn-in goes in strides of FAR_STRIDE, a sampled stretch in
SAMPLE_STRIDE steps.  Cost grows with the restart count n_paths * time *
8 / (pi**2 (1 - a**2)); `run` and `estimate_gap` refuse a run expected
to exceed RESTART_BUDGET.  `bridge_correction=False` keeps fine steps of
dt, restarting a path that ends a step on or beyond the boundary; such a
walk exits as if each boundary lay further out, which no exact step
reproduces.  It moves paths within `_deep_margin` by one normal per
stride of S steps, drawn first in path order, the others by S steps.

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
SAMPLE_STRIDE = 10  # occupation/moment subsampling, in steps; the longest fine-step stride
GAP_WINDOW = (0.2, 1.2)  # relaxation times fitted by estimate_gap
GAP_TIMES = 50
GAP_STREAM = 104729  # seed offset that keeps the gap streams apart from run's
CUTOFF = 40.0  # hit probabilities below exp(-CUTOFF) < 2**-53 are skipped
FAR_STRIDE = HALF_PI ** 2 / (4 * (CUTOFF + math.log(2)))  # longest exact step
RESTART_BUDGET = 5e7  # expected restarts per run: ~100 s at 2 us a restart


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


def _deep_margin(dt: float, stride: int) -> float:
    """|x| up to which a discretely monitored path reaches pi/2 within
    `stride` steps with probability at most 2 exp(-D**2 / (4 stride dt))
    = exp(-CUTOFF), D being the distance left; four ulps absorb rounding."""
    return (HALF_PI - math.sqrt(4 * stride * dt * (CUTOFF + math.log(2)))
            - 4 * math.ulp(HALF_PI))


class _Stepper:
    """Exact strides with the bridge correction, fine steps of dt without."""

    def __init__(self, dt: float, bridge: bool, rng):
        self.dt, self.bridge, self.rng = dt, bridge, rng

    def step(self, x: np.ndarray, restart: float) -> int:
        """Advance x in place by one fine step; returns the number of restarts."""
        x += math.sqrt(2.0 * self.dt) * self.rng.standard_normal(len(x))
        hit = np.abs(x) >= HALF_PI
        np.copyto(x, restart, where=hit)
        return int(np.count_nonzero(hit))

    def stride(self, x: np.ndarray, restart: float, n_steps: int) -> int:
        """Advance x in place by n_steps steps; returns the number of restarts."""
        if self.bridge:
            return self.exact(x, restart, n_steps * self.dt)
        deep = np.abs(x) <= _deep_margin(self.dt, n_steps)
        inner = np.flatnonzero(deep)
        outer = np.flatnonzero(~deep)
        x[inner] += math.sqrt(2.0 * n_steps * self.dt) * self.rng.standard_normal(len(inner))
        shallow = x[outer]
        n_hit = sum(self.step(shallow, restart) for _ in range(n_steps))
        x[outer] = shallow
        return n_hit

    def exact(self, x: np.ndarray, restart: float, h: float) -> int:
        """Advance x in place by time h; returns the number of restarts."""
        x0 = x.copy()
        x += math.sqrt(2.0 * h) * self.rng.standard_normal(len(x))
        paths, left = self._hits(x0, x, h)
        n_hit = 0
        while len(paths):
            n_hit += len(paths)
            if not left.all():  # hits at the very end of the step stay put
                x[paths[left == 0]] = restart
                paths, left = paths[left > 0], left[left > 0]
            x[paths] = x1 = restart + np.sqrt(2.0 * left) * self.rng.standard_normal(len(paths))
            hit, left = self._hits(restart, x1, left)
            paths = paths[hit]
        return n_hit

    def _hits(self, x0, x1: np.ndarray, h):
        """Indices of the steps x0 -> x1 over time h that hit a boundary,
        and the time h - T = h / (1 + S) each has left after its hit.

        S is drawn by Michael-Schucany-Haas from y = N**2, as
        `Generator.wald` does; but that subtracts nearly equal numbers
        (S = 0 once alpha/beta exceeds the scale ~1e16-fold, NaN at
        beta = 0).  With g = alpha |beta| and k = g + h y +
        sqrt(h y (h y + 2 g)), the roots are alpha**2 / k <= k / beta**2,
        the larger taken when u (k + g) > k."""
        side = np.copysign(1.0, x0 + x1)
        alpha = HALF_PI - side * x0
        beta = HALF_PI - side * x1  # <= 0 on or beyond the boundary
        expo = alpha * beta / h
        cand = (expo < CUTOFF).nonzero()[0]
        hit = cand[self.rng.random(len(cand)) < np.exp(-np.maximum(expo[cand], 0.0))]
        alpha, beta = alpha[hit], beta[hit]
        h = h[hit] if isinstance(h, np.ndarray) else h
        g = np.abs(alpha * beta)
        hy = h * self.rng.standard_normal(len(hit)) ** 2
        k = g + hy + np.sqrt(hy * (hy + 2 * g))
        late = self.rng.random(len(hit)) * (k + g) > k
        wald = alpha * alpha / k
        np.divide(k, beta * beta, out=wald, where=late)
        return hit, h / (1 + wald)


def _walk(cfg: SimConfig, key, n_paths: int, x0: float, n_steps: int,
          sample_steps, observe, count_after: int = 0) -> int:
    """Step one batch of n_paths paths from x0 for n_steps steps.

    The batch draws from the Philox stream `key`; observe(x) sees the
    positions after every step in `sample_steps`, in step order.  Returns
    the number of restarts after step `count_after`.  Strides (see the
    module docstring) last at most FAR_STRIDE, SAMPLE_STRIDE steps without
    the bridge."""
    rng = np.random.Generator(np.random.Philox(key=key))
    restart = HALF_PI * cfg.a.value
    x = np.full(n_paths, x0)
    stepper = _Stepper(cfg.dt, cfg.bridge_correction, rng)
    longest = int(FAR_STRIDE / cfg.dt) if cfg.bridge_correction else SAMPLE_STRIDE
    stops = sorted(s for s in {count_after, n_steps, *sample_steps} if 0 < s <= n_steps)
    jumps = 0
    step = 0
    for stop in stops:
        while step < stop:
            n = min(longest, stop - step)
            n_hit = stepper.stride(x, restart, n)
            step += n
            if step > count_after:
                jumps += n_hit
        if stop in sample_steps:
            observe(x)
    return jumps


def _check_restart_budget(cfg: SimConfig, duration: float) -> None:
    """ValueError when n_paths over `duration` expect more than
    RESTART_BUDGET restarts at the renewal rate 8 / (pi**2 (1 - a**2))."""
    av = cfg.a.value
    rate = 8 / (math.pi ** 2 * (1 - av) * (1 + av)) if abs(av) < 1 else math.inf
    if (expected := cfg.n_paths * duration * rate) > RESTART_BUDGET:
        raise ValueError(f"a = {cfg.a}: {cfg.n_paths} paths over {duration:g} expect "
                         f"{expected:.3g} restarts, above the budget of {RESTART_BUDGET:.3g}")


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

    ValueError when no sample falls after burn-in or the run would
    exceed RESTART_BUDGET."""
    _check_restart_budget(cfg, cfg.horizon)
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
    sample times rise above the noise to fit; ValueError when the walk
    would exceed RESTART_BUDGET.
    """
    _check_restart_budget(cfg, GAP_WINDOW[1])
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
