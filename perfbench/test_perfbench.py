"""Tests of the benchmark's own counters, oracles and span arithmetic."""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from jumpspec import eigensystem, funcspace, metric, simulator  # noqa: E402
from jumpspec.funcspace import PiecewiseTrig, const, cos_term, sin_term  # noqa: E402
from jumpspec.param import ParamA  # noqa: E402


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def _three_terms() -> PiecewiseTrig:
    return PiecewiseTrig.single([cos_term(1.0, 1.0), sin_term(2.0, 2.0), const(0.5)])


def _split_one_two() -> PiecewiseTrig:
    return PiecewiseTrig.split(0.3, [cos_term(1.0, 1.0)],
                               [cos_term(1.0, 1.0), sin_term(1.0, 3.0)])


def test_term_pairs_hand_count():
    f, g = _three_terms(), _split_one_two()
    assert spans.term_pairs(f, f) == 9
    # segments (-pi/2, 0.3) and (0.3, pi/2): 3*1 + 3*2
    assert spans.term_pairs(f, g) == 9
    assert spans.term_pairs(g, g) == 1 + 4


def test_traced_inner_closed_counts_pairs_and_is_rebound_everywhere():
    tracer = spans.Tracer()
    original = funcspace.inner_closed
    tracer.install()
    try:
        assert metric.inner_closed is funcspace.inner_closed is not original
        assert eigensystem.inner_closed is funcspace.inner_closed
        tracer.enabled = True
        f, g = _three_terms(), _split_one_two()
        assert funcspace.inner_closed(f, g) == original(f, g)
        metric.inner_closed(f, f)
    finally:
        tracer.uninstall()
    assert funcspace.inner_closed is original and metric.inner_closed is original
    assert tracer.counters["funcspace.inner_closed.term_pairs"] == 18
    assert tracer.log.summary()["funcspace.inner_closed"]["calls"] == 2


def test_path_steps_is_paths_times_steps():
    a = ParamA.from_expr("1/3")
    cfg = simulator.SimConfig(a=a, dt=1e-3, horizon=2.5, n_paths=7)
    assert spans.path_steps(cfg) == 7 * 2500
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        simulator.run(simulator.SimConfig(a=a, dt=1e-3, horizon=0.05, n_paths=3,
                                          burn_in=0.0, bridge_correction=False))
    finally:
        tracer.uninstall()
    assert tracer.counters["simulator.nobridge.path_steps"] == 3 * 50
    assert tracer.counters["simulator.post_burn_path_steps"] == 3 * 50


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    log = spans.SpanLog()
    root = log.add("root", 0.0, 10.0)
    a = log.add("a", 1.0, 4.0, parent=root)
    log.add("leaf", 2.0, 3.0, parent=a)
    log.add("b", 3.0, 6.0, parent=root)     # overlaps a: union is [1, 6]
    log.add("c", 8.0, 9.0, parent=root)
    assert log.self_times() == [10.0 - 6.0, 3.0 - 1.0, 1.0, 3.0, 1.0]


def test_summary_counts_nested_same_name_once_in_inclusive_time():
    log = spans.SpanLog()
    outer = log.add("alg", 0.0, 4.0)
    log.add("alg", 1.0, 2.0, parent=outer)
    log.add("alg", 5.0, 6.0)
    row = log.summary()["alg"]
    assert row == {"calls": 3, "s": 5.0, "self_s": 3.0 + 1.0 + 1.0}


def test_counter_time_is_not_charged_to_the_caller():
    tracer = spans.Tracer()

    def slow_count(counters, args, kwargs, result, dur):
        time.sleep(0.05)
        counters["inner.n"] += 1

    inner = tracer.wrap("inner", lambda: None, slow_count)
    outer = tracer.wrap("outer", lambda: inner())
    tracer.enabled = True
    outer()
    summary = tracer.log.summary()
    counted = summary[spans.COUNTER_SPAN]
    assert counted["calls"] == 1 and counted["self_s"] >= 0.05
    assert summary["outer"]["self_s"] < 0.01 and summary["outer"]["s"] >= 0.05
    assert tracer.counters["inner.n"] == 1


# ---------------------------------------------------------------------------
# oracles reject known-wrong answers
# ---------------------------------------------------------------------------

def _blowup_rows(expr: str, count: int, scale: float = 1.0) -> list[list[float]]:
    return [[k, q, 2 * q, norm * scale]
            for k, (q, norm) in enumerate(oracles.reference_blowup_norms(expr, count))]


def test_blowup_oracle_rejects_a_1e6_perturbation():
    assert oracles.blowup_errors("sqrt(2)-1", 10, _blowup_rows("sqrt(2)-1", 10))[0] is None
    reason, worst = oracles.blowup_errors("sqrt(2)-1", 10,
                                          _blowup_rows("sqrt(2)-1", 10, 1 + 1e-6))
    assert reason is not None and worst == pytest.approx(1e-6, rel=1e-3)
    assert oracles.blowup_errors("sqrt(2)-1", 10, _blowup_rows("sqrt(2)-1", 9))[0]


def test_reference_denominators_match_known_continued_fractions():
    assert oracles.reference_convergent_denominators("sqrt(2)-1", 6) == [1, 2, 5, 12, 29, 70]
    assert oracles.reference_convergent_denominators("1/pi", 5) == [1, 3, 22, 333, 355]


def test_csv_reader_keeps_big_integers_exact(tmp_path):
    path = tmp_path / "blowup.csv"
    path.write_text("k,q,m,norm\n39,123456789012345678901,246913578024691357802,1.5\n")
    assert oracles.load_csv(path) == [[39, 123456789012345678901, 246913578024691357802, 1.5]]
    path.write_text("x,v\n1,nan\n")
    with pytest.raises(oracles.BadOutput):
        oracles.load_csv(path)


def test_json_reader_rejects_nan(tmp_path):
    path = tmp_path / "report.json"
    path.write_text('{"pde_residual": NaN}')
    with pytest.raises(oracles.BadOutput):
        oracles.load_json(path)
    with pytest.raises(oracles.BadOutput):
        oracles.load_json(tmp_path / "missing.json")


def test_resolvent_oracle_thresholds():
    good = {"boundary_deviation": 1e-12, "pde_residual": 2e-9, "svd_decay_exponent": -1.97}
    assert oracles.check_resolvent(good) is None
    assert oracles.check_resolvent({**good, "pde_residual": 3.0})
    assert oracles.check_resolvent({**good, "boundary_deviation": 1e-7})
    assert oracles.check_resolvent({**good, "svd_decay_exponent": -1.5})


def test_pole_refusal_accepts_only_the_spectral_pole():
    from jumpspec import resolvent
    assert oracles.is_pole_refusal(resolvent.PoleAtEigenvalue("x"), None, None)
    assert oracles.is_pole_refusal(resolvent.DenominatorVanishes("x"), None, None)
    assert not oracles.is_pole_refusal(resolvent.PoleAtDirichletEigenvalue("x"), None, None)
    assert not oracles.is_pole_refusal(ZeroDivisionError("x"), None, None)
    assert not oracles.is_pole_refusal(None, 0, None)
    assert oracles.is_pole_refusal(None, 3, {"error": {"type": "PoleAtEigenvalue"}})
    assert not oracles.is_pole_refusal(
        None, 3, {"error": {"type": "PoleAtDirichletEigenvalue", "message": "pole"}})


def test_spectrum_oracle():
    ref = oracles.spectrum_reference(1 / 3, 100.0)
    assert ref == pytest.approx([0.0, 4.0, 9.0, 16.0, 36.0, 64.0, 81.0, 100.0])
    records = [{"lambda": lam} for lam in ref]
    rows = [[1 / 3, 0, 1, 4.0], [1 / 3, -1, 1, 36.0]]
    assert oracles.check_spectrum(records, 1 / 3, 100.0, rows) is None
    assert oracles.check_spectrum(records[:-1], 1 / 3, 100.0, rows)
    assert oracles.check_spectrum(records, 1 / 3, 100.0, [[1 / 3, 0, 1, 5.0]])


def test_gram_oracle():
    import numpy as np
    g = np.eye(4, dtype=complex)
    assert oracles.check_gram(g, 4) == (None, 0.0)
    g[1, 2] = 1e-6
    assert oracles.check_gram(g, 4)[0]
    g[1, 2] = math.nan
    assert oracles.check_gram(g, 4)[0]


def _sim_report(a: float, rate: float, masses: list[float], edges: list[float],
                t_tot: float = 1000.0) -> dict:
    width = edges[1] - edges[0]
    return {"time_units": t_tot, "jumps_per_unit_time": rate,
            "bin_edges": edges, "bin_density": [m / width for m in masses]}


def test_simulation_oracle():
    a = 1 / 3
    edges = [-math.pi / 2 + j * math.pi / 50 for j in range(51)]
    exact = oracles.tent_bin_masses(a, edges)
    assert oracles.check_simulation(a, _sim_report(a, oracles.jump_rate(a), exact, edges)) is None
    mean, var = oracles.exit_time_moments(a)
    se = math.sqrt(var / mean ** 3 / 1000.0)
    off = oracles.jump_rate(a) + 10 * se
    assert "jump rate" in oracles.check_simulation(a, _sim_report(a, off, exact, edges))
    uniform = [1 / 50] * 50
    assert "occupation" in oracles.check_simulation(
        a, _sim_report(a, oracles.jump_rate(a), uniform, edges))
    assert oracles.check_simulation(a, _sim_report(a, math.nan, exact, edges))


def test_renewal_values():
    assert oracles.jump_rate(1 / 3) == pytest.approx(0.91189065278104)
    mean, _ = oracles.exit_time_moments(1 / 3)
    assert 1 / mean == pytest.approx(oracles.jump_rate(1 / 3))


def test_tent_masses_match_the_program():
    a = ParamA.from_expr("1/3")
    import numpy as np
    edges = np.linspace(-math.pi / 2, math.pi / 2, 51)
    ours = oracles.tent_bin_masses(a.value, list(edges))
    assert ours == pytest.approx(list(simulator.tent_bin_probabilities(a, edges)),
                                 rel=1e-12, abs=1e-15)
    assert sum(ours) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# workloads and the metric list
# ---------------------------------------------------------------------------

def test_inputs_derive_from_the_workload_seed():
    for build in workloads.BUILDERS.values():
        assert [op.inputs for op in build(5)] == [op.inputs for op in build(5)]
    for build in (workloads.contract, workloads.expansion, workloads.montecarlo):
        assert [op.inputs for op in build(5)] != [op.inputs for op in build(6)]


def test_known_failures_name_real_ops():
    ids = {op.id for build in workloads.BUILDERS.values() for op in build(0)}
    assert set(workloads.KNOWN_FAILURES) <= ids


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_scaled_time_is_the_time_at_the_reference_speed():
    assert calib.scaled(3.0, calib.REF_S, calib.REF_S) == pytest.approx(3.0)
    # a host twice as slow around the op halves its time
    assert calib.scaled(3.0, 2 * calib.REF_S, 2 * calib.REF_S) == pytest.approx(1.5)
    assert calib.scaled(3.0, calib.REF_S, 3 * calib.REF_S) == pytest.approx(1.5)
    assert calib.unit_s() > 0.0


def test_quartiles():
    assert run.quartiles([2.0]) == (2.0, 2.0, 2.0)
    q1, med, q3 = run.quartiles([1.0, 2.0, 3.0, 4.0])
    assert (q1, med, q3) == (1.25, 2.5, 3.75)


def test_simulation_oracle_allows_for_discrete_monitoring_only_when_asked():
    a, dt, t_tot = 1 / 3, 5e-4, 1e5
    edges = [-math.pi / 2 + j * math.pi / 50 for j in range(51)]
    exact = oracles.tent_bin_masses(a, edges)
    widen = oracles.MONITOR_BETA * math.sqrt(2 * dt)
    slow = 1 / oracles.exit_time_moments(a, widen)[0]
    assert slow == pytest.approx(oracles.jump_rate(a) * (1 - 0.0257), rel=1e-3)
    report = _sim_report(a, slow, exact, edges, t_tot)
    assert oracles.check_simulation(a, report, monitor_dt=dt) is None
    assert "jump rate" in oracles.check_simulation(a, report)
    fast = _sim_report(a, oracles.jump_rate(a), exact, edges, t_tot)
    assert "jump rate" in oracles.check_simulation(a, fast, monitor_dt=dt)
