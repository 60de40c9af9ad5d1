"""The traced run: spans and counts recorded around public calls.

Nothing here edits the program.  :meth:`Tracer.installed` wraps a fixed
list of public functions and methods (:data:`SPANS`, :data:`COUNTS`) for
the duration of a traced round and restores every original in a
``finally``; it also switches the process-wide ``EventCore.instrument``
counters on and, in the same ``finally``, off again.  Spans live in memory
as ``[name, start, end, parent, case]`` rows; a layer's self time is its
span's duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

from repro.core import adaptive, multi_tenant
from repro.core.admission import AdmissionController
from repro.core.predictor import Predictor
from repro.scheduling import cpop, heft
from repro.scheduling.flow.solver import FlowNetwork
from repro.scheduling.frame import PartialScheduleFrame
from repro.simulation.event_core import EventCore
from repro.simulation.executor import JustInTimeExecutor, StaticScheduleExecutor
from repro.workflow import costs as cost_models
from repro.workflow.costs import CostModel

from timing import CallLog

#: (owner, attribute, span name): wrapped in a span while tracing
SPANS = (
    (heft, "upward_ranks", "workflow.ranks"),
    (cpop, "upward_ranks", "workflow.ranks"),
    (CostModel, "predecessor_communications", "workflow.pred_comms"),
    (CostModel, "computation_matrix", "workflow.cost_matrix"),
    (Predictor, "estimate", "predictor.estimate"),
    (FlowNetwork, "min_cost_max_flow", "scheduling.flow.solve"),
    (adaptive, "project_actuals", "adaptive.project"),
    (adaptive, "repair_schedule", "adaptive.repair"),
    (multi_tenant, "repair_schedule", "adaptive.repair"),
    (multi_tenant.MultiTenantPlanner, "plan_arrival", "multi_tenant.plan_arrival"),
    (multi_tenant.MultiTenantPlanner, "handle_event", "multi_tenant.handle_event"),
    (AdmissionController, "evaluate", "admission.evaluate"),
    (StaticScheduleExecutor, "run", "simulation.replay"),
    (JustInTimeExecutor, "run", "simulation.replay"),
)

#: (owner, attribute, counter name): hot calls whose count is the metric,
#: counted without clock reads
COUNTS = ((PartialScheduleFrame, "fea", "scheduling.frame.fea"),)


class Tracer(CallLog):
    """A :class:`CallLog` that also records spans and counts."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.case = ""
        self.event_stats: Dict[str, float] = {}
        self._stack: List[int] = []

    def new_round(self) -> None:
        super().new_round()
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # -- spans --------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.case])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return spanned

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def call(self, strategy: str, method: str, fn, *args, **kwargs):
        index = self.open(f"scheduling.{method}.{strategy}")
        try:
            return super().call(strategy, method, fn, *args, **kwargs)
        finally:
            self.close(index)

    # -- installation -------------------------------------------------
    @contextmanager
    def installed(self):
        """Wrap the traced calls; restore everything on the way out."""
        originals = []
        try:
            for owner, attr, name in SPANS:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._spanned(name, original))
            for owner, attr, name in COUNTS:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._counted(name, original))
            original_rng = cost_models.spawn_rng
            originals.append((cost_models, "spawn_rng", original_rng))

            def spawn_rng(root_seed, *tokens):
                # per-(job, resource) draws of the lazily priced model
                if tokens and tokens[0] == "wij":
                    self.counts["costs.lazy_price"] += 1
                return original_rng(root_seed, *tokens)

            cost_models.spawn_rng = spawn_rng
            EventCore.instrument(True)
            yield self
        finally:
            self.event_stats = dict(EventCore.stats)
            EventCore.instrument(False)
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------
    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return dict(table)

    def loop_self_seconds(self, run_span: str) -> float:
        """``run_span`` time not spent in scheduler, predictor or executor."""
        excluded = ("scheduling.", "predictor.", "simulation.replay")
        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if name == run_span:
                total += end - start
            elif parent >= 0 and self.spans[parent][0] == run_span and name.startswith(excluded):
                total -= end - start
        return total

    def export(self) -> Dict[str, object]:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "case": c}
                for n, s, e, p, c in self.spans
            ],
            "counts": dict(self.counts),
            "layers": self.layers(),
            "event_core": self.event_stats,
        }
