"""Monte Carlo simulation of Brownian motion restarted from the boundary.

Paths carry quadratic variation 2 (increments sqrt(2 dt) N(0,1)) inside
(-pi/2, pi/2); on hitting either endpoint the particle restarts at the
interior point pi*a/2.  Boundary hits between grid times are recovered
with the Brownian-bridge exceedance probability
exp(-(b - x0)(b - x1)/dt) (variance-matched to quadratic variation 2),
since plain threshold crossing undercounts hits and biases every rate
estimate.

Two theory targets are checked against the spectral side: the occupation
density relaxes to the tent profile (the adjoint zero-mode, used here as
the stationary-density candidate and verified empirically), and relaxation
rates of mean observables decay at the spectral gap 4, the second
Dirichlet eigenvalue of the interval.

Paths are embarrassingly parallel: each batch owns a counter-based Philox
stream keyed by (seed, batch index), so results are reproducible for a
fixed batch partition, and moment reductions use exact summation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from jumpspec.eigensystem import biorthogonalize, phi_zero_mode
from jumpspec.funcspace import PiecewiseTrig, inner_closed, norm_l2
from jumpspec.param import ParamA

HALF_PI = math.pi / 2


class ObservableOrthogonalToGapMode(ValueError):
    """Observable has no component on the slowest decaying mode."""


@dataclass
class SimConfig:
    a: ParamA
    dt: float = 1e-4
    horizon: float = 10.0
    n_paths: int = 10_000
    seed: int = 0
    bridge_correction: bool = True
    burn_in: float = 6.25  # five relaxation times of the gap-4 mode
    n_bins: int = 50
    batch_size: int = 20_000
    sample_stride: int = 10  # occupation/moment subsampling, in steps
    threads: int = 1

    def __post_init__(self):
        if not 0 < self.dt <= 1e-3:
            raise ValueError(f"dt must be in (0, 1e-3], got {self.dt}")
        if not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if self.n_paths < 1:
            raise ValueError("need at least one path")


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
        return {
            "bin_edges": [float(v) for v in self.bin_edges],
            "bin_density": [float(v) for v in self.bin_density],
            "moment2": self.moment2,
            "mean": self.mean,
            "jumps_per_unit_time": self.jumps_per_unit_time,
            "time_units": self.time_units,
            "n_paths": self.n_paths,
            "gap_estimate": self.gap_estimate,
            "gap_stderr": self.gap_stderr,
        }


def stationary_density(a: ParamA) -> PiecewiseTrig:
    """Normalized tent profile: the adjoint zero-mode with positive sign."""
    tent = phi_zero_mode(a, -1.0)  # C = -1 makes both pieces nonnegative
    mass = math.pi ** 2 * (1 - a.value ** 2) / 4  # exact integral of the tent
    return tent.scaled(1.0 / mass)


def tent_bin_probabilities(a: ParamA, edges: np.ndarray) -> np.ndarray:
    """Exact bin masses of the stationary tent density."""
    p = stationary_density(a)
    av = a.value
    xb = HALF_PI * av

    def cdf_piece(x: float) -> float:
        # integrate the normalized tent from -pi/2 to x
        c = 4.0 / (math.pi ** 2 * (1 - av ** 2))
        if x <= xb:
            return c * (1 - av) * 0.5 * (x + HALF_PI) ** 2
        right = (1 + av) * 0.5 * ((HALF_PI - xb) ** 2 - (HALF_PI - x) ** 2)
        return c * ((1 - av) * 0.5 * (xb + HALF_PI) ** 2 + right)

    cdf = np.array([cdf_piece(float(x)) for x in edges])
    return np.diff(cdf)


class _Stepper:
    """Reusable-buffer Euler stepper with bridge-corrected boundary hits.

    Direct crossings fold into the bridge rule: the exceedance exponent is
    clipped at 0, which makes the hit probability exactly 1 whenever the
    endpoint landed outside.
    """

    def __init__(self, n_paths: int, dt: float, bridge: bool, rng):
        self.rng = rng
        self.dt = dt
        self.bridge = bridge
        self.sig = math.sqrt(2.0 * dt)
        self.noise = np.empty(n_paths)
        self.t1 = np.empty(n_paths)
        self.t2 = np.empty(n_paths)
        self.arg = np.empty(n_paths)
        self.prob = np.empty(n_paths)
        self.u = np.empty(n_paths)
        self.x_old = np.empty(n_paths)

    def step(self, x: np.ndarray, restart: float) -> int:
        """Advance x in place by one step; returns the number of restarts."""
        np.copyto(self.x_old, x)
        self.rng.standard_normal(out=self.noise)
        x += self.sig * self.noise
        if self.bridge:
            # upper boundary: exp(-(b - x0)(b - x1)/dt), clipped at prob 1
            np.subtract(HALF_PI, self.x_old, out=self.t1)
            np.subtract(HALF_PI, x, out=self.t2)
            np.multiply(self.t1, self.t2, out=self.arg)
            self.arg /= -self.dt
            np.minimum(self.arg, 0.0, out=self.arg)
            np.exp(self.arg, out=self.prob)
            # lower boundary
            np.add(self.x_old, HALF_PI, out=self.t1)
            np.add(x, HALF_PI, out=self.t2)
            np.multiply(self.t1, self.t2, out=self.arg)
            self.arg /= -self.dt
            np.minimum(self.arg, 0.0, out=self.arg)
            np.exp(self.arg, out=self.t2)
            self.prob += self.t2
            self.rng.random(out=self.u)
            hit = self.u < self.prob
        else:
            hit = (x >= HALF_PI) | (x <= -HALF_PI)
        n_hit = int(np.count_nonzero(hit))
        if n_hit:
            np.copyto(x, restart, where=hit)
        return n_hit


def _simulate_batch(a_value: float, cfg: SimConfig, n_paths: int, key) -> dict:
    """One vectorized batch; returns occupation counts and moment sums."""
    rng = np.random.Generator(np.random.Philox(key=key))
    n_steps = int(round(cfg.horizon / cfg.dt))
    burn_steps = int(round(cfg.burn_in / cfg.dt))
    restart = HALF_PI * a_value
    x = np.full(n_paths, restart)
    stepper = _Stepper(n_paths, cfg.dt, cfg.bridge_correction, rng)
    inv_width = cfg.n_bins / math.pi
    counts = np.zeros(cfg.n_bins, dtype=np.int64)
    jumps = 0
    sum_sq = 0.0
    sum_x = 0.0
    n_samples = 0
    for step in range(1, n_steps + 1):
        n_hit = stepper.step(x, restart)
        if step > burn_steps:
            jumps += n_hit
            if step % cfg.sample_stride == 0:
                idx = ((x + HALF_PI) * inv_width).astype(np.int64)
                np.clip(idx, 0, cfg.n_bins - 1, out=idx)
                counts += np.bincount(idx, minlength=cfg.n_bins)
                sum_sq += float(np.dot(x, x))
                sum_x += float(np.sum(x))
                n_samples += n_paths
    return {"counts": counts, "jumps": jumps, "sum_sq": sum_sq,
            "sum_x": sum_x, "n_samples": n_samples}


def _batches(cfg: SimConfig) -> list[tuple[int, int]]:
    out = []
    remaining = cfg.n_paths
    idx = 0
    while remaining > 0:
        take = min(cfg.batch_size, remaining)
        out.append((idx, take))
        remaining -= take
        idx += 1
    return out


def _map_batches(cfg: SimConfig, plan: list[tuple[int, int]], job) -> list:
    """[job(idx, n) for each batch], on up to cfg.threads threads.

    Each batch owns its stream, and results come back in batch order, so
    the thread count does not change any result."""
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            return list(pool.map(lambda item: job(*item), plan))
    return [job(*item) for item in plan]


def run(cfg: SimConfig) -> SimReport:
    """Simulate and report occupation statistics after burn-in.

    ValueError when no sample falls after burn-in (SimConfig allows that:
    estimate_gap samples from time 0)."""
    n_steps = int(round(cfg.horizon / cfg.dt))
    burn_steps = int(round(cfg.burn_in / cfg.dt))
    if n_steps // cfg.sample_stride <= burn_steps // cfg.sample_stride:
        raise ValueError(f"horizon {cfg.horizon} leaves no sample after the "
                         f"burn-in of {cfg.burn_in} at dt {cfg.dt}")
    a_value = cfg.a.value
    results = _map_batches(
        cfg, _batches(cfg),
        lambda idx, n: _simulate_batch(a_value, cfg, n, key=[cfg.seed, idx]))

    counts = np.sum([r["counts"] for r in results], axis=0)
    n_samples = int(sum(r["n_samples"] for r in results))
    sum_sq = math.fsum(r["sum_sq"] for r in results)
    sum_x = math.fsum(r["sum_x"] for r in results)
    jumps = int(sum(r["jumps"] for r in results))
    edges = np.linspace(-HALF_PI, HALF_PI, cfg.n_bins + 1)
    width = math.pi / cfg.n_bins
    effective_time = cfg.n_paths * (cfg.horizon - cfg.burn_in)
    return SimReport(
        bin_edges=edges,
        bin_density=counts / n_samples / width,
        moment2=sum_sq / n_samples,
        mean=sum_x / n_samples,
        jumps_per_unit_time=jumps / effective_time,
        time_units=effective_time,
        n_paths=cfg.n_paths)


# ---------------------------------------------------------------------------
# spectral-gap estimation
# ---------------------------------------------------------------------------

def _gap_mode_pairing(cfg: SimConfig, observable: PiecewiseTrig) -> complex:
    pairs = biorthogonalize(cfg.a, 4.5)
    gap_pair = next(p for p in pairs if abs(p.psi.record.lam - 4.0) < 1e-9)
    return inner_closed(gap_pair.phi.fn, observable)


def _relax_batch(cfg: SimConfig, n_paths: int, key, x0: float,
                 sample_steps: np.ndarray, observable) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=key))
    restart = HALF_PI * cfg.a.value
    x = np.full(n_paths, x0)
    stepper = _Stepper(n_paths, cfg.dt, cfg.bridge_correction, rng)
    out = np.zeros(len(sample_steps))
    targets = {int(s): i for i, s in enumerate(sample_steps)}
    for step in range(1, int(sample_steps[-1]) + 1):
        stepper.step(x, restart)
        if step in targets:
            out[targets[step]] = float(np.mean(np.real(observable(x))))
    return out


def estimate_gap(cfg: SimConfig, observable: PiecewiseTrig,
                 x0: float | None = None,
                 t_window: tuple[float, float] = (0.2, 1.2),
                 n_times: int = 50) -> tuple[float, float | None]:
    """Fit -d/dt log |E[g(X_t)] - mu_inf| over the relaxation window.

    The observable must have a nonzero pairing with the gap-mode dual;
    paths launch from the right-piece midpoint by default, where the gap
    eigenfunction never vanishes.  The standard error is None when fewer
    than two batches give a slope.
    """
    pairing = _gap_mode_pairing(cfg, observable)
    if abs(pairing) < 1e-8 * max(norm_l2(observable), 1e-30):
        raise ObservableOrthogonalToGapMode(
            "observable is orthogonal to the gap-mode dual; the fitted decay "
            "would track a higher mode")
    if x0 is None:
        x0 = HALF_PI * (1 + cfg.a.value) / 2  # right-piece midpoint
    mu_inf = inner_closed(stationary_density(cfg.a), observable).real

    times = np.linspace(t_window[0], t_window[1], n_times)
    sample_steps = np.unique(np.round(times / cfg.dt).astype(int))
    times = sample_steps * cfg.dt

    plan = _batches(cfg)
    traces = np.array(_map_batches(
        cfg, plan,
        lambda idx, n: _relax_batch(cfg, n, [cfg.seed + 104729, idx], x0,
                                    sample_steps, observable)))
    weights = np.array([n for _, n in plan], dtype=float)
    pooled = np.average(traces, axis=0, weights=weights)

    signal = np.abs(pooled - mu_inf)
    if len(plan) > 1:
        point_std = np.std(traces - mu_inf, axis=0, ddof=1) / math.sqrt(len(plan))
    else:
        point_std = np.full_like(pooled, 1e-3)
    keep = signal > 3 * point_std
    if np.count_nonzero(keep) < max(5, n_times // 4):
        raise RuntimeError("relaxation signal below noise; increase n_paths")
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
