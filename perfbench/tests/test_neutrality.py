"""Measuring must not change what is measured.

On a reduced instance of every workload, the timing wrapper and the traced
run must reproduce a plain ``repro.run`` bit for bit: the same makespans
and the same decision lists.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

import repro
import harness
import workloads
from gate import case_problems, signature
from harness import (
    END_TO_END, PER_LAYER, _percentile, execute, grouped, name_groups, replan_percentile,
)
from repro.simulation.event_core import EventCore
from repro.workflow.costs import CostModel
from timing import CallLog
from tracing import SPANS, Tracer

BENCH = Path(__file__).resolve().parent.parent

#: module constant -> reduced value, per workload
REDUCED = {
    "cold_large": {"COLD_V": 400},
    "multi_flash": {
        "FLASH_TENANTS": 2, "FLASH_ARRIVALS": 3, "FLASH_V": 16, "FLASH_GRIDS": 2,
    },
    "strategy_mix": {
        "STRATEGY_MIX": {
            name: (mode, 12 if name == "lookahead_heft" else 24, 1)
            for name, (mode, _, _) in workloads.STRATEGY_MIX.items()
        },
    },
}


def no_span(name):
    return nullcontext()


def outcome(fn):
    """A run's signature, or the error it raised (a raise must reproduce too)."""
    try:
        return fn()
    except Exception as exc:  # compared, not hidden
        return ("raised", type(exc).__name__, str(exc))


def plain(run):
    return repro.run(
        run.workload, run.pool, mode=run.mode, strategy=run.strategy,
        costs=run.costs, **run.options,
    )


def traced(run):
    tracer = Tracer()
    with tracer.installed():
        return execute(run, tracer)


@pytest.fixture
def reduced(monkeypatch):
    def apply(workload):
        for name, value in REDUCED[workload].items():
            monkeypatch.setattr(workloads, name, value)
        return workloads.WORKLOADS[workload](3, no_span)

    return apply


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_wrapped_and_traced_runs_match_plain_run(workload, reduced):
    variants = {
        "plain": plain,
        "wrapped": lambda run: execute(run, CallLog()),
        "traced": traced,
    }
    results = {}
    for variant, fn in variants.items():
        runs = reduced(workload)  # fresh inputs: no variant sees warm caches
        results[variant] = [
            outcome(lambda: signature(run, fn(run))) for run in runs
        ]
    assert results["wrapped"] == results["plain"]
    assert results["traced"] == results["plain"]


def test_noisy_run_is_the_named_scenario_run():
    seed = 11
    run = workloads.noisy_run("x", "adaptive", "aheft", 30, seed, no_span)
    fresh = workloads.noisy_run("x", "adaptive", "aheft", 30, seed, no_span)
    named = repro.run(
        fresh.workload, costs=fresh.costs, mode="adaptive", strategy="aheft",
        scenario=workloads.NOISY_SCENARIO, resources=workloads.NOISY_RESOURCES,
        seed=seed, error_model=workloads.NOISY_ERROR,
    )
    assert signature(run, execute(run, CallLog())) == signature(fresh, named)


def test_gate_passes_a_valid_run():
    run = workloads.noisy_run("x", "adaptive", "aheft", 30, 5, no_span)
    assert case_problems(run, execute(run, CallLog())) == [[]]


def test_strategy_mix_covers_every_registered_strategy():
    assert set(workloads.STRATEGY_MIX) == set(repro.registry.available("scheduler"))


def test_tracing_restores_everything_even_on_error():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in SPANS]
    matrix = CostModel.__dict__["computation_matrix"]
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            assert CostModel.__dict__["computation_matrix"] is not matrix
            assert EventCore._instrumented
            raise RuntimeError("boom")
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original
    assert not EventCore._instrumented


def test_timed_calls_split_plans_from_decisions():
    log = CallLog()
    run = workloads.noisy_run("x", "adaptive", "aheft", 30, 5, no_span)
    name_groups(run, log)
    result = execute(run, log)
    assert list(log.plans) == ["x"] and len(log.plans["x"]) == 1
    assert len(log.decisions["x"]) == len(result.decisions)


def test_multi_mode_plans_once_per_arrival(reduced):
    run = reduced("multi_flash")[0]
    log = CallLog()
    name_groups(run, log)
    execute(run, log)
    # the first offer plans; its probe, re-offers and event replans decide
    assert sum(map(len, log.plans.values())) == len(run.workload)
    assert set(log.plans) == {arrival.kind for arrival in run.workload}
    assert log.decisions


def test_a_case_that_raised_leaves_no_latency_samples(monkeypatch):
    monkeypatch.setitem(
        workloads.WORKLOADS, "two",
        lambda seed, span: [
            workloads.noisy_run(f"c{i}", "adaptive", "aheft", 20, seed + i, span)
            for i in range(2)
        ],
    )
    real = harness.execute

    def cut_short(run, log):
        if run.label != "c1":
            return real(run, log)
        left = [3]

        def call(*args, **kwargs):
            left[0] -= 1
            if left[0] < 0:
                raise RuntimeError("cut short after three scheduler calls")
            return CallLog.call(log, *args, **kwargs)

        log.call = call
        try:
            return real(run, log)
        finally:
            del log.call

    monkeypatch.setattr(harness, "execute", cut_short)
    result = harness.run_round("two", 1, CallLog(), gated=True)
    assert (result.attempted, result.failed) == (2, 1)
    assert list(result.plan_s) == list(result.decision_s) == ["c0"]


def test_percentile_stays_within_the_samples():
    samples = [1.0, 2.0, 3.0, 4.0, 10.0]
    assert 4.0 < _percentile(samples, 90) <= 10.0
    assert _percentile([2.0, 2.0], 90) == 2.0


def test_latency_statistics_weigh_groups_alike():
    many_fast = [0.001] * 90
    few_slow = [0.004] * 10
    # pooled, the slow strategy would only reach p90's edge
    assert replan_percentile({"fast": many_fast, "slow": few_slow}, 90) == pytest.approx(0.002)
    assert replan_percentile({"only": many_fast + few_slow}, 50) == pytest.approx(0.001)
    assert replan_percentile({"only": many_fast, "one": [9.0]}, 90) == pytest.approx(0.001)
    plans = {"small": [0.001, 0.001, 0.002], "large": [0.004]}
    assert grouped(plans, statistics.median) == pytest.approx(0.002)


def test_manifest_lists_the_harness_metrics():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]
    ] == [row[:3] for row in PER_LAYER]


def test_runner_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    manifest = BENCH.parent / "BENCHMARK.json"
    if manifest.exists():
        shutil.copy(manifest, tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
