"""Tests of the benchmark's own helpers: node counts, span arithmetic,
layer instrumentation, host-speed calibration and the accounting of failed
and wrong verdicts."""

import math
import signal
import time

import pytest

import metsymp
import metsymp.contact
import metsymp.suite
from metsymp.expressions import Coord

import reference
import tracing
import workloads


def test_node_counts_on_a_hand_built_dag():
    x = Coord(0, "x")
    s = x * x                            # one Coord object used twice
    t = s + s                            # one product used twice
    u = Coord(0, "x") * Coord(0, "x")    # the structure of s from new objects
    roots = [t, u, x ** 2, x ** 3]
    # tree: t = 1 + 2 * 3, u = 3, each power 2
    # shared: t, s, x, u, its two coordinates, the two powers
    # unique: coordinate, product, sum, and two powers differing in exponent
    assert tracing.node_counts(roots) == (14, 8, 5)


def test_self_time_subtracts_the_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 7.0, 8.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    with tracer.span("suite.run_suite"):                 # 0 .. 10
        with tracer.span("contact.fit_kappa_mu"):        # 1 .. 6
            with tracer.span("fields.values"):           # 3 .. 4
                pass
        with tracer.span("fields.values"):               # 7 .. 8
            pass
    spans = tracer.spans
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert tracing.self_times(spans) == [4.0, 4.0, 1.0, 1.0]
    assert tracing.self_by_layer(spans) == {"suite": 4.0, "contact": 4.0, "fields": 2.0}
    assert tracing.totals_by_name(spans) == {
        "suite.run_suite": 10.0, "contact.fit_kappa_mu": 5.0, "fields.values": 2.0}


def test_overlapping_children_are_covered_once():
    spans = [tracing.Span("a.outer", 0.0, 10.0, None),
             tracing.Span("b.x", 1.0, 4.0, 0),
             tracing.Span("b.y", 3.0, 6.0, 0),
             tracing.Span("b.z", 9.0, 12.0, 0)]     # clipped at the parent's end
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_nested_calls_of_one_name_count_once():
    spans = [tracing.Span("contact.build", 0.0, 5.0, None),
             tracing.Span("contact.build", 1.0, 2.0, 0)]
    assert tracing.totals_by_name(spans) == {"contact.build": 5.0}


def test_instrumentation_wraps_every_binding_and_restores_it():
    original = metsymp.contact.fit_kappa_mu
    S = metsymp.catalog_load("darboux-sasakian-r3").structure
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer):
        assert metsymp.suite.fit_kappa_mu is metsymp.contact.fit_kappa_mu is not original
        metsymp.suite.fit_kappa_mu(S, 4, seed=0)
    assert metsymp.contact.fit_kappa_mu is original
    assert metsymp.suite.fit_kappa_mu is original
    assert metsymp.fit_kappa_mu is original
    times, counts = tracing.unit_metrics(tracer)
    assert counts["contact.fit_kappa_mu_calls"] == 1
    assert counts["curvature.christoffel_batch_calls"] == 1
    assert counts["jets.ops"] > 0
    assert times["contact.fit_kappa_mu_s"] >= times["curvature.christoffel_batch_s"] > 0.0


def _sasakian_sweep(known):
    sweep = workloads.SweepWorkload()
    S = metsymp.catalog_load("darboux-sasakian-r3").structure
    sweep.models = [workloads.SweepModel("r3", S, known)]
    sweep.seed = 0
    return sweep


def test_a_raising_verdict_is_counted_with_its_factor(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_GRID", (-1.0, 2.0))
    out = _sasakian_sweep((1.0, None, None)).run_unit()
    assert (out.attempted, out.failed, len(out.times)) == (2, 1, 2)
    assert out.failures == ["r3 a=-1.0: GeometryError: d_homothety needs a positive factor"]
    assert out.problems == []


def test_a_wrong_verdict_is_counted_and_reported(monkeypatch):
    monkeypatch.setattr(workloads, "SWEEP_GRID", (2.0,))
    out = _sasakian_sweep((0.5, None, None)).run_unit()   # the law then gives 0.875
    assert (out.attempted, out.failed, out.failures) == (1, 1, [])
    assert len(out.problems) == 1 and out.problems[0].startswith("r3 a=2.0: kappa")


def test_suite_gate_rejects_a_nan_residual_and_bare_nan_json():
    cfg = metsymp.SuiteConfig(samples=1, seed=0)
    check = metsymp.suite.CheckRecord(id="compatibility", anchor="", residual=math.nan,
                                      threshold=1e-8, passed=True, samples=1, seed=0)
    report = metsymp.SuiteReport(version="0", entry="x", config=cfg, checks=(check,),
                                 kappa=0.0, mu=0.0, index=1.0, wall_time=0.0)
    problems = workloads.judge_suite(report, metsymp.report_emit(report, "json"),
                                     (0.0, 0.0, 1.0))
    assert problems[0].startswith("check compatibility: residual nan")
    assert any("does not parse strictly" in p for p in problems)



def test_calibration_scales_by_the_pass_time():
    nominal = reference.NOMINAL_S
    assert reference.calibrate(3.0, 2 * nominal) == pytest.approx(1.5)
    assert reference.calibrate(3.0, nominal / 2) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        reference.calibrate(1.0, math.nan)


def test_gauge_takes_passes_keeps_them_off_its_clock_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Gauge(interval=0.01) as gauge:
        mark, spent = gauge.mark(), gauge.spent
        while gauge.passes < mark[0] + 3:
            pass
        mean, taken = gauge.pass_mean(mark), gauge.spent - spent
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < 3 * mean <= taken
    assert gauge.clock() == pytest.approx(time.perf_counter() - gauge.spent, abs=1e-3)
    mark = gauge.mark()
    assert gauge.pass_mean(mark) > 0.0 and gauge.passes == mark[0] + 1
