"""Monte Carlo simulation of Brownian motion restarted from the boundary.

Paths carry quadratic variation 2 inside (-pi/2, pi/2); on hitting either
endpoint the particle restarts at the interior point pi*a/2.  The checks:
the occupation density relaxes to the tent profile (the adjoint
zero-mode), and the mean of a root vector follows the semigroup exactly:
E_x[f(X_t)] = (exp(-tH) f)(x), so exp(-lam t) psi(x) for an eigenfunction
and exp(-lam t) (xi(x) - t psi2(x)) on a Jordan chain (H - lam) xi = psi2.

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
8 / (pi**2 (1 - a**2)) and with the strides and samples of every batch;
`run` and `semigroup_check` refuse a walk expected to exceed
RESTART_BUDGET restarts or WORK_BUDGET path-passes.
`bridge_correction=False` keeps fine steps of dt, restarting a path that
ends a step on or beyond the boundary;
such a walk exits as if each boundary lay further out, which no exact step
reproduces.  It moves paths within `_deep_margin` by one normal per
stride of S steps, drawn first in path order, the others by S steps.

Both checks drive one walker, `_walk`, which steps a batch of paths on
its own Philox stream and observes it at chosen steps.  `run` keys batch
i by (seed, i), starts at pi*a/2 and bins occupation (N_BINS bins) and
moments every SAMPLE_STRIDE steps after the burn-in; `semigroup_check`
keys it by (seed + GAP_STREAM, i), starts at the caller's x0 and sums the
deviation of the observable from the closed form, and its square, at
GAP_TIMES times with lam t across DECAY_WINDOW.  Results are reproducible
for a fixed batch partition at any thread count, and moment reductions
use exact summation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from jumpspec.param import ParamA

HALF_PI = math.pi / 2
N_BINS = 50  # occupation histogram bins over (-pi/2, pi/2)
SAMPLE_STRIDE = 10  # occupation/moment subsampling, in steps; the longest fine-step stride
DECAY_WINDOW = (0.8, 4.8)  # lam t over semigroup_check's samples: (0.2, 1.2) at the gap 4
GAP_TIMES = 50
GAP_STREAM = 104729  # seed offset that keeps the check's streams apart from run's
Z_BOUND = 5.0  # largest |z| a semigroup check passes with
CUTOFF = 40.0  # hit probabilities below exp(-CUTOFF) < 2**-53 are skipped
FAR_STRIDE = HALF_PI ** 2 / (4 * (CUTOFF + math.log(2)))  # longest exact step
# expected restarts per walk.  It bounds restarts, not wall time: the cost
# of a restart grows as the path count falls near |a| = 1
RESTART_BUDGET = 5e7
# path-passes per walk: a pass (one stride or one sample over a batch)
# costs about what PASS_OVERHEAD_PATHS paths add to it, so the estimate is
# passes x (paths + PASS_OVERHEAD_PATHS per batch).  Measured on one core,
# 30-80 ns per path-pass with the bridge correction and 2-3x that without,
# so the budget is about 1-3 minutes of walking with the bridge
PASS_OVERHEAD_PATHS = 1000
WORK_BUDGET = 2e9


@dataclass
class SimConfig:
    """Simulation parameters shared by `run` and `semigroup_check`.

    `horizon` and `burn_in` apply to `run` only: `semigroup_check` steps
    to its last sample time and samples from time 0.  Paths are split into
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
        if not self.horizon / self.dt < 2.0 ** 53:  # steps are counted in integers
            raise ValueError(f"horizon {self.horizon} spans 2**53 or more steps of dt {self.dt}")
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
    gap_max_z: float | None = None

    def to_dict(self) -> dict:
        return asdict(self) | {"bin_edges": self.bin_edges.tolist(),
                               "bin_density": self.bin_density.tolist()}


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


def _check_work(cfg: SimConfig, duration: float, samples: float) -> None:
    """ValueError when a walk over `duration`, observed at `samples` steps,
    would exceed WORK_BUDGET path-passes: its strides (the duration over the
    longest stride, plus one cut at each sample) and its samples, over
    every batch (see PASS_OVERHEAD_PATHS)."""
    longest = FAR_STRIDE if cfg.bridge_correction else SAMPLE_STRIDE * cfg.dt
    passes = duration / longest + 2 * samples
    batches = -(-cfg.n_paths // cfg.batch_size)
    if (work := passes * (cfg.n_paths + batches * PASS_OVERHEAD_PATHS)) > WORK_BUDGET:
        raise ValueError(f"{cfg.n_paths} paths over {duration:g} at dt {cfg.dt:g} take about "
                         f"{work:.3g} path-passes, above the work budget of {WORK_BUDGET:.3g}")


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
    exceed RESTART_BUDGET or WORK_BUDGET."""
    _check_restart_budget(cfg, cfg.horizon)
    _check_work(cfg, cfg.horizon, max(cfg.horizon - cfg.burn_in, 0.0) / (SAMPLE_STRIDE * cfg.dt))
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
# the semigroup check
# ---------------------------------------------------------------------------

def check_steps(cfg: SimConfig, lam: float) -> np.ndarray:
    """The steps at which `semigroup_check` samples: GAP_TIMES times with
    lam t spread over DECAY_WINDOW, rounded to steps of dt.

    ValueError, before any walk, when lam is not positive and finite, dt
    is too coarse to sample exp(-lam t), one path leaves no standard
    error, or the walk would exceed RESTART_BUDGET or WORK_BUDGET."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    if cfg.n_paths < 2:
        raise ValueError("one path has no standard error: the check needs two or more")
    times = np.linspace(*DECAY_WINDOW, GAP_TIMES) / lam
    _check_work(cfg, times[-1], GAP_TIMES)
    steps = np.unique(np.round(times / cfg.dt).astype(int))
    if steps[0] < 1:
        raise ValueError(f"dt {cfg.dt} is too coarse to sample exp(-{lam:g} t)")
    _check_restart_budget(cfg, steps[-1] * cfg.dt)
    return steps


def semigroup_check(cfg: SimConfig, chain: list, lam: float, x0: float) -> float:
    """Worst |z| over the sample times of mean chain[0](X_t) against
    exp(-lam t) sum_j (-t)**j / j! chain[j](x0), paths started at x0.

    chain[j] = (H - lam)**j chain[0]: [psi] for an eigenfunction,
    [xi, psi2] for a Jordan chain (H - lam) xi = psi2.  The restarted
    process has generator -H, so E_x0[f(X_t)] = (exp(-tH) f)(x0) exactly,
    and the sum is that expansion.  Each z divides the mean deviation by
    its standard error from the per-path variance; both reduce the batch
    sums by exact summation in batch order.  Real parts are compared.
    ValueError as `check_steps` gives it, or when chain[0](X_t) has no
    spread at some time.
    """
    steps = check_steps(cfg, lam)
    times = steps * cfg.dt
    at_x0 = [complex(f(x0)).real for f in chain]
    target = np.exp(-lam * times) * sum(
        (-times) ** j / math.factorial(j) * v for j, v in enumerate(at_x0))
    wanted = set(steps.tolist())

    def sums(idx: int, n_paths: int) -> list[tuple[float, float]]:
        """[sum of d, sum of d^2] at each sample time, d the deviation of
        chain[0](X_t) from the target, over batch idx."""
        out = []

        def observe(x):
            d = np.real(chain[0](x)) - target[len(out)]
            out.append((np.sum(d), np.dot(d, d)))

        _walk(cfg, [cfg.seed + GAP_STREAM, idx], n_paths, x0, int(steps[-1]),
              wanted, observe)
        return out

    n = cfg.n_paths
    worst = 0.0
    for at_t in zip(*_map_batches(cfg, _batches(cfg), sums)):
        s1 = math.fsum(b[0] for b in at_t)
        var = (math.fsum(b[1] for b in at_t) - s1 * s1 / n) / (n - 1)
        if not var > 0:
            raise ValueError("chain[0](X_t) does not vary over the paths: no standard error")
        worst = max(worst, abs(s1 / n) / math.sqrt(var / n))
    return worst
