"""Scheduler entry-call timing from outside the program.

:class:`Timed` is a thin delegating wrapper handed to ``repro.run`` as
``strategy=`` (or built by ``scheduler_factory=`` in multi mode).  A timed
entry call (``schedule`` / ``reschedule`` / ``map_ready_jobs``) costs
exactly two clock reads and one list append in :meth:`CallLog.call`; every
other attribute is the wrapped scheduler's own, so the run takes the same
decisions it would take unwrapped.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from time import perf_counter
from typing import Dict, List

import repro

ENTRY_POINTS = frozenset({"schedule", "reschedule", "map_ready_jobs"})


class CallLog:
    """Wall times of wrapped scheduler entry calls, split by role and group.

    A workflow's first call is its *plan*; every later ``reschedule`` or
    ``map_ready_jobs`` batch on it is a *decision*.  Later ``schedule``
    calls (a warm re-plan) are neither.  In multi mode the plan is the
    first admission offer's tentative plan; its dedicated-span probe (made
    on a busy grid), every deferred re-offer and every grid-event replan
    are decisions.

    Samples are kept per *group*.  Before a run, the harness names the group
    of each workflow it hands over in :attr:`groups` (keyed by
    ``id(workflow)``): the case for a single-workflow run, the DAG kind for
    an arrival in multi mode.  A workflow it did not name falls in its
    strategy's group.
    """

    def __init__(self) -> None:
        self.new_round()

    def new_round(self) -> None:
        """Start empty: a round re-creates its inputs."""
        self.plans: Dict[str, List[float]] = defaultdict(list)
        self.decisions: Dict[str, List[float]] = defaultdict(list)
        self.groups: Dict[int, str] = {}
        self._planned: set = set()

    def call(self, strategy: str, method: str, fn, *args, **kwargs):
        batch = method == "map_ready_jobs"  # (ready_jobs, workflow, ...)
        workflow = id(args[1] if batch else args[0])
        group = self.groups.get(workflow, strategy)
        if workflow not in self._planned:
            self._planned.add(workflow)
            samples = self.plans[group]
        elif method != "schedule":
            samples = self.decisions[group]
        else:
            return fn(*args, **kwargs)
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        samples.append(perf_counter() - t0)
        return result


class Timed:
    """Delegate everything to ``inner``; time its scheduler entry calls."""

    __slots__ = ("_inner", "_log", "_strategy")

    def __init__(self, inner, log: CallLog, strategy: str) -> None:
        self._inner = inner
        self._log = log
        self._strategy = strategy

    def __getattr__(self, attr: str):
        value = getattr(self._inner, attr)
        if attr in ENTRY_POINTS:
            return partial(self._log.call, self._strategy, attr, value)
        if attr == "bind_tenant_context":
            # the planner keeps the rebound scheduler for the workflow's
            # whole life, so it must stay wrapped too
            return lambda **context: Timed(value(**context), self._log, self._strategy)
        return value


def timed_scheduler(strategy: str, log: CallLog) -> Timed:
    """A fresh registered scheduler, wrapped."""
    return Timed(repro.registry.make("scheduler", strategy), log, strategy)
