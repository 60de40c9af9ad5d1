"""Rounds, the correctness gate and the metrics of one benchmark run.

A *round* generates a workload's inputs from the seed (timed: set-up) and
executes its ``repro.run`` calls (timed: run).  The first round's outputs
are then validated case by case (untimed); every later round must
reproduce the first round's outputs exactly (``gate.signature``), so it is
as valid.  Rounds repeat while the next one fits in the measuring time,
at least twice.  ``attempted`` and ``failed`` count the seed's cases once,
as the first round found them, so they are the same on every run of a
seed however many rounds fit.

Because rounds repeat the same deterministic operations, every operation
-- each ``repro.run`` call, each scheduler call -- is timed once per
round, and its time is the fastest of those timings.  The copies do the
same work, so they differ only by interference from the host, which can
only add time; a burst of host slowness is dropped unless it hits every
round's copy of the operation.  The untraced run reports the
end-to-end metrics; the traced run alternates untraced and traced rounds
and reports the per-layer metrics, the tracing overhead among them.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

import repro
from gate import case_problems, signature
from timing import CallLog, timed_scheduler
from tracing import Tracer
from workloads import STRATEGY_MIX, WORKLOADS

#: timings per operation: a host burst must hit all of them to count
MIN_ROUNDS = 2

#: (name, unit) of every end-to-end metric, in print order
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("plan_s", "s"),
    ("replan_ms.p50", "ms"),
    ("replan_ms.p90", "ms"),
    ("makespan", "time_units"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _entry_methods(mode: str):
    return {
        "static": ("schedule",),
        "adaptive": ("schedule", "reschedule"),
        "dynamic": ("map_ready_jobs",),
    }[mode]


#: (strategy, entry method) pairs with their own per-layer metrics
SCHEDULER_ENTRIES = tuple(
    (strategy, method)
    for strategy, (mode, _, _) in STRATEGY_MIX.items()
    for method in _entry_methods(mode)
)


@dataclass
class TraceView:
    """What one traced round leaves behind for its per-layer metrics."""

    layers: Dict[str, Dict[str, float]]
    counts: Dict[str, int]
    event_stats: Dict[str, float]
    loop_self_s: float
    #: ``RunResult.decisions`` of the round's adaptive runs
    decisions: list
    #: admission decisions of the round's shared grids
    admission: list
    plans: int
    replans: int
    run_s: float
    #: run time of the untraced round run just before this one
    untraced_run_s: float = float("nan")

    def total(self, span: str) -> float:
        return self.layers[span]["total_s"] if span in self.layers else 0.0

    def calls(self, span: str) -> int:
        return self.layers[span]["calls"] if span in self.layers else 0

    def self_s(self, *prefixes: str) -> float:
        return sum(
            row["self_s"] for name, row in self.layers.items() if name.startswith(prefixes)
        )


def _share(items, accept) -> float:
    return sum(map(accept, items)) / len(items) if items else 0.0


def _total(span: str):
    return lambda view: view.total(span)


def _calls(span: str):
    return lambda view: view.calls(span)


def _count(counter: str):
    return lambda view: view.counts.get(counter, 0)


#: every per-layer metric: (name, unit, better, its value in one traced
#: round).  ``BENCHMARK.json`` lists the same names, units and directions;
#: a test keeps the two in step.
PER_LAYER = (
    ("generators.dag_s", "s", "lower", _total("generators.dag")),
    ("generators.price_s", "s", "lower", _total("generators.price")),
    ("generators.stream_s", "s", "lower", _total("generators.stream")),
    ("scenarios.materialize_s", "s", "lower", _total("scenarios.materialize")),
    ("workflow.ranks.calls", "count", "lower", _calls("workflow.ranks")),
    ("workflow.ranks_s", "s", "lower", _total("workflow.ranks")),
    ("workflow.pred_comms_s", "s", "lower", _total("workflow.pred_comms")),
    ("workflow.cost_matrix.calls", "count", "lower", _calls("workflow.cost_matrix")),
    ("workflow.cost_matrix_s", "s", "lower", _total("workflow.cost_matrix")),
    ("predictor.estimate.calls", "count", "lower", _calls("predictor.estimate")),
    ("predictor.estimate_s", "s", "lower", _total("predictor.estimate")),
    ("costs.lazy_price.calls", "count", "lower", _count("costs.lazy_price")),
    (
        "scheduling.self_s", "s", "lower",
        lambda view: view.self_s(
            "scheduling.schedule.", "scheduling.reschedule.", "scheduling.map_ready_jobs."
        ),
    ),
    ("scheduling.frame.fea.calls", "count", "lower", _count("scheduling.frame.fea")),
    ("scheduling.flow.solve.calls", "count", "lower", _calls("scheduling.flow.solve")),
    ("scheduling.flow.solve_s", "s", "lower", _total("scheduling.flow.solve")),
    *(
        row
        for strategy, method in SCHEDULER_ENTRIES
        for row in (
            (f"scheduling.{method}_s.{strategy}", "s", "lower",
             _total(f"scheduling.{method}.{strategy}")),
            (f"scheduling.{method}.calls.{strategy}", "count", "lower",
             _calls(f"scheduling.{method}.{strategy}")),
        )
    ),
    ("adaptive.project_s", "s", "lower", _total("adaptive.project")),
    ("adaptive.repair_s", "s", "lower", _total("adaptive.repair")),
    ("adaptive.loop_self_s", "s", "lower", lambda view: view.loop_self_s),
    ("adaptive.decisions", "count", "lower", lambda view: len(view.decisions)),
    (
        "adaptive.adopted_frac", "ratio", "higher",
        lambda view: _share(view.decisions, lambda d: d.adopted),
    ),
    ("multi_tenant.plan_arrival.calls", "count", "lower", _calls("multi_tenant.plan_arrival")),
    ("multi_tenant.plan_arrival_s", "s", "lower", _total("multi_tenant.plan_arrival")),
    ("multi_tenant.handle_event_s", "s", "lower", _total("multi_tenant.handle_event")),
    ("admission.evaluate.calls", "count", "lower", _calls("admission.evaluate")),
    (
        "admission.admitted_frac", "ratio", "higher",
        lambda view: _share(view.admission, lambda d: d.action == "admit"),
    ),
    (
        "admission.deferred", "count", "lower",
        lambda view: sum(d.action == "defer" for d in view.admission),
    ),
    (
        "admission.rejected", "count", "lower",
        lambda view: sum(d.action == "reject" for d in view.admission),
    ),
    ("simulation.events", "count", "lower", lambda view: view.event_stats.get("events", 0)),
    (
        "simulation.dispatch_s", "s", "lower",
        lambda view: view.event_stats.get("dispatch_seconds", 0.0),
    ),
    ("simulation.replay_s", "s", "lower", _total("simulation.replay")),
    ("run.self_s", "s", "lower", lambda view: view.self_s("run.")),
    ("plan.samples", "count", "lower", lambda view: view.plans),
    ("replan.samples", "count", "lower", lambda view: view.replans),
    ("trace.overhead", "ratio", "lower", lambda view: view.run_s / view.untraced_run_s),
)


@dataclass
class Round:
    setup_s: float
    #: wall time of each ``repro.run`` call, in round order
    run_times: List[float]
    #: group -> its plan / decision times, in call order (``CallLog``)
    plan_s: Dict[str, List[float]]
    decision_s: Dict[str, List[float]]
    makespan: float
    signature: list
    attempted: int
    failed: int
    trace: Optional[TraceView] = None


def execute(run, log: CallLog):
    """One ``repro.run`` call with the timed scheduler wrapper."""
    options = dict(run.options)
    if run.mode == "multi":
        options["scheduler_factory"] = lambda: timed_scheduler(run.strategy, log)
    else:
        options["strategy"] = timed_scheduler(run.strategy, log)
    return repro.run(run.workload, run.pool, mode=run.mode, costs=run.costs, **options)


def _no_span(name: str):
    return nullcontext()


def name_groups(run, log: CallLog) -> None:
    """Group ``run``'s calls by case, or by DAG kind in multi mode.

    A latency statistic is taken per group and the groups are weighed alike
    (:func:`grouped`): cases and kinds differ in size, so a statistic over
    the pooled calls would fall between their populations and move with the
    seed's mix of them.
    """
    if run.mode == "multi":
        log.groups.update((id(a.case.workflow), a.kind) for a in run.workload)
    else:
        log.groups[id(run.workload)] = run.label


def run_round(workload: str, seed: int, log: CallLog, *, gated: bool = False) -> Round:
    """Set up and execute; validate every case if ``gated``."""
    tracer = log if isinstance(log, Tracer) else None
    span = tracer.span if tracer is not None else _no_span
    with tracer.installed() if tracer is not None else nullcontext():
        log.new_round()
        gc.collect()  # the previous round's garbage is not this round's cost
        t0 = perf_counter()
        runs = WORKLOADS[workload](seed, span)
        setup_s = perf_counter() - t0
        gc.collect()
        results = []
        run_times = []
        for run in runs:
            if tracer is not None:
                tracer.case = run.label
            name_groups(run, log)
            tables = (log.plans, log.decisions)
            kept = [{group: len(samples) for group, samples in t.items()} for t in tables]
            t0 = perf_counter()
            try:
                with span(f"run.{run.mode}"):
                    result = execute(run, log)
            except Exception:  # a failing case is counted, never fatal
                if gated:
                    traceback.print_exc(file=sys.stderr)
                result = None
                # a raise cuts a case short at a point that varies with the
                # seed; its calls would shift the latency percentiles
                for table, lengths in zip(tables, kept):
                    for group in list(table):
                        del table[group][lengths.get(group, 0):]
                        if not table[group]:
                            del table[group]
            run_times.append(perf_counter() - t0)
            results.append(result)

    attempted = failed = 0
    makespan = 0.0
    signatures = []
    for run, result in zip(runs, results):
        attempted += run.cases
        if result is None:
            failed += run.cases
            signatures.append((run.label, None))
            continue
        for problems in case_problems(run, result) if gated else ():
            if problems:
                failed += 1
                print(
                    f"perfbench: {workload} {run.label} failed the gate: "
                    + "; ".join(problems[:3]),
                    file=sys.stderr,
                )
        makespan += result.makespan
        signatures.append(signature(run, result))
    return Round(
        setup_s=setup_s,
        run_times=run_times,
        plan_s=log.plans,
        decision_s=log.decisions,
        makespan=makespan,
        signature=signatures,
        attempted=attempted,
        failed=failed,
        trace=(
            trace_view(tracer, runs, results, sum(run_times)) if tracer is not None else None
        ),
    )


def trace_view(tracer: Tracer, runs, results, run_s: float) -> TraceView:
    ran = [(run, result) for run, result in zip(runs, results) if result is not None]
    return TraceView(
        layers=tracer.layers(),
        counts=dict(tracer.counts),
        event_stats=dict(tracer.event_stats),
        loop_self_s=tracer.loop_self_seconds("run.adaptive"),
        decisions=[
            d for run, result in ran if run.mode == "adaptive" for d in result.decisions
        ],
        admission=[
            d for run, result in ran if run.mode == "multi" for d in result.raw.admission
        ],
        plans=sum(map(len, tracer.plans.values())),
        replans=sum(map(len, tracer.decisions.values())),
        run_s=run_s,
    )


def _percentile(samples: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between measured samples.

    The inclusive method never extrapolates beyond the slowest sample, so
    the value lies within what the program took, even with few samples.
    """
    if len(samples) < 2:
        raise ValueError(f"need at least two samples for a percentile, got {len(samples)}")
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def grouped(samples: Dict[str, List[float]], statistic, minimum: int = 1) -> float:
    """``statistic`` of each group's samples, combined by geometric mean.

    Groups (cases, or DAG kinds in multi mode; see :func:`name_groups`)
    differ in size, so their latencies lie apart.  A statistic of the pooled
    samples would weigh each group by its call count and fall wherever two
    groups' populations meet, moving with every seed; the geometric mean
    weighs every group alike.  A group with fewer than ``minimum`` samples
    is left out.
    """
    values = [statistic(times) for times in samples.values() if len(times) >= minimum]
    if not values:
        raise ValueError(f"no group has {minimum} samples")
    return statistics.geometric_mean(values)


def replan_percentile(decisions: Dict[str, List[float]], q: int) -> float:
    """The ``q``-th percentile of each group's decisions, geometric mean."""
    return grouped(decisions, lambda times: _percentile(times, q), minimum=2)


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Dict[str, float]]
    notes: List[str]
    trace_export: Optional[Dict[str, object]] = None


def per_operation(rounds: List[List[float]]) -> List[float]:
    """Each operation's fastest time over the rounds that all timed it.

    Rounds that reproduce each other make the same calls in the same
    order; if they did not (``correct`` is then false), the timings are
    pooled instead.
    """
    if len({len(times) for times in rounds}) != 1:
        return [t for times in rounds for t in times]
    return [min(copies) for copies in zip(*rounds)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run rounds of ``workload`` for ``seconds`` and derive its metrics."""
    plain = CallLog()
    tracer = Tracer() if trace else None
    untraced: List[Round] = []
    traced: List[Round] = []
    start = last = perf_counter()
    while True:
        if tracer is not None and len(traced) < len(untraced):
            traced.append(run_round(workload, seed, tracer))
        else:
            untraced.append(run_round(workload, seed, plain, gated=not untraced))
        now = perf_counter()
        elapsed, round_s, last = now - start, now - last, now
        # stop before a round that would overrun the measuring time
        if len(untraced) + len(traced) >= MIN_ROUNDS and elapsed + round_s > seconds:
            break

    every = untraced + traced
    notes = []
    correct = True
    for index, other in enumerate(every[1:], start=1):
        if other.signature != every[0].signature:
            correct = False
            notes.append(f"round {index} did not reproduce round 0's outputs")
    # the seed's cases, as the gated first round found them
    attempted, failed = untraced[0].attempted, untraced[0].failed

    if tracer is None:
        plans, decisions = (
            {
                group: per_operation([getattr(r, table).get(group, []) for r in untraced])
                for group in getattr(untraced[0], table)
            }
            for table in ("plan_s", "decision_s")
        )
        values = {
            "setup_s": statistics.median(r.setup_s for r in untraced),
            "run_s": sum(per_operation([r.run_times for r in untraced])),
            "plan_s": grouped(plans, statistics.median),
            "replan_ms.p50": 1000.0 * replan_percentile(decisions, 50),
            "replan_ms.p90": 1000.0 * replan_percentile(decisions, 90),
            "makespan": untraced[0].makespan,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        notes.append(
            f"{len(untraced)} rounds; {sum(map(len, plans.values()))} plans and "
            f"{sum(map(len, decisions.values()))} decisions in {len(decisions)} groups "
            "per round; run time per round: "
            + " ".join(f"{sum(r.run_times):.3f}" for r in untraced)
        )
        export = None
    else:
        # rounds alternate untraced, traced: each traced round pairs with
        # the untraced round before it
        for r, before in zip(traced, untraced):
            r.trace.untraced_run_s = sum(before.run_times)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        values = {
            name: statistics.median(value(r.trace) for r in traced)
            for name, _, _, value in PER_LAYER
        }
        notes.append(f"{len(untraced)} untraced + {len(traced)} traced rounds")
        export = tracer.export()
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return Outcome(correct, attempted, failed, metrics, notes, export)
