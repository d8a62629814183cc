import json
import math
from pathlib import Path

import numpy as np
import pytest

from jumpspec.funcspace import PiecewiseTrig, const, inner_closed, sin_term
from jumpspec.param import ParamA
from jumpspec.simulator import (
    ObservableOrthogonalToGapMode, SimConfig, SimReport, estimate_gap, run,
    stationary_density, tent_bin_probabilities,
)

A0 = ParamA.from_expr("0")


def small_cfg(**kw) -> SimConfig:
    base = dict(a=A0, dt=5e-4, horizon=8.25, n_paths=2000, seed=42,
                burn_in=6.25)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(a=A0, dt=5e-3)
    with pytest.raises(ValueError):
        SimConfig(a=A0, n_paths=0)
    for bad in (0.0, -1e-4, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(a=A0, dt=bad)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(a=A0, horizon=bad)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="batch_size"):
            SimConfig(a=A0, batch_size=bad)
        with pytest.raises(ValueError, match="threads"):
            SimConfig(a=A0, threads=bad)


def test_stationary_density_normalized():
    for expr in ("0", "1/3", "sqrt(2)-1"):
        a = ParamA.from_expr(expr)
        p = stationary_density(a)
        mass = inner_closed(PiecewiseTrig.single([const(1.0)]), p).real
        assert mass == pytest.approx(1.0, abs=1e-12)
        xs = np.linspace(-math.pi / 2, math.pi / 2, 101)
        assert np.all(p(xs).real >= -1e-12)


def test_tent_bin_probabilities_sum_to_one():
    a = ParamA.from_expr("1/3")
    edges = np.linspace(-math.pi / 2, math.pi / 2, 51)
    probs = tent_bin_probabilities(a, edges)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs >= 0)


def test_seeded_runs_are_bit_reproducible():
    r1 = run(small_cfg(horizon=6.75))
    r2 = run(small_cfg(horizon=6.75))
    assert r1.moment2 == r2.moment2
    assert r1.jumps_per_unit_time == r2.jumps_per_unit_time
    assert np.array_equal(r1.bin_density, r2.bin_density)
    r3 = run(small_cfg(horizon=6.75, seed=43))
    assert r3.moment2 != r1.moment2


def test_seeded_run_matches_the_recorded_report():
    # pins the per-batch Philox streams and their draw order: a change to
    # the stepper's use of the stream shows up here as a changed record
    golden = json.loads((Path(__file__).parent / "golden_run.json").read_text())
    rep = run(small_cfg(a=ParamA.from_expr("1/3"), horizon=6.45, n_paths=600,
                        batch_size=300))
    assert rep.to_dict() == golden


def test_moment_and_histogram_against_theory():
    rep = run(small_cfg(horizon=9.25, n_paths=4000))
    target = math.pi ** 2 / 24
    assert rep.moment2 == pytest.approx(target, rel=0.05)
    assert abs(rep.mean) < 0.02
    probs = tent_bin_probabilities(A0, rep.bin_edges)
    width = math.pi / len(probs)
    sup = np.max(np.abs(rep.bin_density * width - probs)) / width
    assert sup < 0.05


def test_dt_halving_bias_under_control():
    r_coarse = run(small_cfg(dt=8e-4, horizon=8.25, n_paths=3000, seed=5))
    r_fine = run(small_cfg(dt=4e-4, horizon=8.25, n_paths=3000, seed=5))
    # discretization shift stays within the Monte Carlo scatter
    assert abs(r_coarse.moment2 - r_fine.moment2) < 0.01
    assert abs(r_coarse.jumps_per_unit_time - r_fine.jumps_per_unit_time) < 0.05


def test_histogram_start_invariance():
    # burn-in of five relaxation times erases the starting point
    rep_a = run(small_cfg(horizon=8.25, n_paths=3000, seed=1))
    cfg_b = small_cfg(horizon=8.25, n_paths=3000, seed=2)
    rep_b = run(cfg_b)
    width = math.pi / len(rep_a.bin_density)
    sup = np.max(np.abs(rep_a.bin_density - rep_b.bin_density)) * width
    assert sup < 0.02


def test_gap_estimate_cheap():
    cfg = SimConfig(a=A0, dt=5e-4, horizon=1.5, n_paths=12000, seed=3,
                    batch_size=4000)
    g = PiecewiseTrig.single([sin_term(1.0, 2.0)])
    gap, err = estimate_gap(cfg, g)
    assert gap == pytest.approx(4.0, rel=0.25)
    assert err < 2.0
    # the recorded seeded result: pins the gap walk's streams
    assert (gap, err) == (3.7355177690218846, 0.1854881736168638)


def test_orthogonal_observable_rejected():
    cfg = small_cfg()
    with pytest.raises(ObservableOrthogonalToGapMode):
        estimate_gap(cfg, PiecewiseTrig.single([const(1.0)]))


def test_report_serialization():
    rep = run(small_cfg(horizon=6.45, n_paths=500))
    d = rep.to_dict()
    assert set(d) >= {"bin_edges", "bin_density", "moment2",
                      "jumps_per_unit_time", "time_units"}
    assert isinstance(rep, SimReport)


def test_threaded_partition_reproducible():
    cfg1 = small_cfg(horizon=6.75, n_paths=2000, batch_size=1000, threads=2)
    cfg2 = small_cfg(horizon=6.75, n_paths=2000, batch_size=1000, threads=1)
    # same batch partition, different scheduling: identical results
    assert run(cfg1).moment2 == run(cfg2).moment2
