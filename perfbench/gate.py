"""The correctness gate: every case's output is validated, failures counted.

A failing case is reported, never hidden and never fatal: the harness
counts it in ``failed`` and in the ``ok_frac`` metric and goes on.  The
first round of a run is gated case by case; every later round must
reproduce its :func:`signature` exactly.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro import validate_schedule


def _problems(workflow, costs, schedule, pool) -> List[str]:
    """Completeness, overlap (duplicates included), availability, precedence."""
    return validate_schedule(workflow, costs, schedule, pool=pool, raise_on_error=False)


def single_problems(run, result) -> List[str]:
    """Violations of one single-workflow run.

    The executed trace is checked under the costs the run actually ran
    with.  The final plan is checked too when the run replanned (adaptive
    mode) or was never simulated; a static plan that the executor failed
    over around departures is not expected to fit the pool.
    """
    problems: List[str] = []
    if result.trace is not None:
        problems += _problems(
            run.workload, run.truth or run.costs, result.trace.to_schedule(), run.pool
        )
    if run.mode == "adaptive" or result.trace is None:
        problems += _problems(run.workload, run.costs, result.schedule, run.pool)
    return problems


def multi_problems(run, result) -> List[List[str]]:
    """Per-arrival violations of one shared-grid run (``[]`` = valid).

    Each admitted workflow's plan must be feasible on its own, and the
    joint per-resource timelines (``shared_timelines``) must never
    double-book a slot.  Rejected arrivals are admission decisions, not
    failures.  A shared-grid overlap fails every workflow of the run.
    """
    by_key = {outcome.key: outcome for outcome in result.raw.outcomes}
    rejected = set(result.raw.rejected_keys())
    problems: List[List[str]] = []
    for arrival in run.workload:
        outcome = by_key.get(arrival.key)
        found: List[str] = []
        if outcome is None and arrival.key not in rejected:
            found.append(f"{arrival.key} was neither run nor rejected")
        if outcome is not None:
            costs = arrival.case.costs
            found += _problems(arrival.case.workflow, costs, outcome.schedule, run.pool)
            if outcome.actual_schedule is not None:
                found += _problems(
                    arrival.case.workflow, costs, outcome.actual_schedule, run.pool
                )
        problems.append(found)
    try:
        result.raw.shared_timelines()
    except ValueError as exc:
        problems = [found + [f"shared grid: {exc}"] for found in problems]
    return problems


def case_problems(run, result) -> List[List[str]]:
    """One violation list per validation unit of ``run``."""
    if run.mode == "multi":
        return multi_problems(run, result)
    return [single_problems(run, result)]


def _assignments(schedule):
    return None if schedule is None else tuple(schedule.all_assignments())


def signature(run, result):
    """The whole output of a run, which a repeat of the same seed must
    reproduce exactly: makespan, decisions and every assignment of the
    final plan and of the executed trace (each workflow's, in multi mode).

    A repeat whose signature equals a gated round's is as valid as that
    round, so only the first round of a run is gated in full.  The output
    is kept as a digest of its ``repr`` (exact for floats), so a run does
    not hold its first round's schedules in memory.
    """
    if run.mode == "multi":
        schedules = tuple(
            (o.key, _assignments(o.schedule), _assignments(o.actual_schedule))
            for o in result.raw.outcomes
        )
        schedules += (tuple(result.raw.rejected_keys()),)
    else:
        trace = result.trace
        schedules = (
            _assignments(result.schedule),
            None if trace is None else _assignments(trace.to_schedule()),
        )
    output = repr((tuple(result.decisions), schedules)).encode()
    return (run.label, result.makespan, hashlib.sha256(output).hexdigest())
