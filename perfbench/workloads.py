"""The benchmark's workloads: inputs generated from a seed, one round each.

A workload's ``setup(seed, span)`` generates and prices every input of one
round and returns the :class:`Run` list the round executes, in order.  The
program only ever receives these generated inputs through ``repro.run``.
``span(name)`` is a context manager naming a set-up layer (a no-op outside
the traced run).  Sizes and the reasons for each workload are in
``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro
from repro.core.admission import AdmissionConfig
from repro.generators.random_dag import (
    RandomDAGParameters,
    generate_random_case,
    generate_random_dag,
)
from repro.resources.dynamics import ResourceChangeModel
from repro.scenarios import materialize
from repro.utils.rng import spawn_rng
from repro.workflow.costs import PerturbedCostModel, TabularCostModel
from repro.workload.streams import WorkloadStream, default_tenants


@dataclass
class Run:
    """One ``repro.run`` call of a round, with what its gate needs."""

    label: str
    workload: object  # a Workflow, or the arrival list in multi mode
    pool: object
    mode: str
    strategy: str
    costs: Optional[object] = None
    options: Dict[str, object] = field(default_factory=dict)
    #: the cost model the run executed (estimates perturbed by the error
    #: model); precedence of the executed trace is checked under it
    truth: Optional[object] = None

    @property
    def cases(self) -> int:
        """Validation units: one per workflow."""
        return len(self.workload) if self.mode == "multi" else 1


def case_seed(seed: int, workload: str, index: int) -> int:
    """The run seed of a workload's ``index``-th case."""
    return int(spawn_rng(seed, "perfbench", workload, index).integers(0, 2**31))


# ----------------------------------------------------------------------
# cold_large: one big sparse DAG, cold static plan, then 5 pool joins
# ----------------------------------------------------------------------
COLD_V = 10_000
COLD_RESOURCES = 20


def sparse_case(v: int, seed: int, span):
    """The sparse family of ``benchmarks/bench_kernel_scaling.scaling_case``.

    |E| ≈ 10·V, tabular prices over 20 resources.  Rebuilt here rather than
    imported: that module also pulls in the frozen seed-reference kernel.
    """
    with span("generators.dag"):
        params = RandomDAGParameters(
            v=v, out_degree=min(1.0, 20.0 / v), ccr=1.0, beta=0.5, omega_dag=300.0
        )
        workflow = generate_random_dag(params, seed=seed)
    with span("generators.price"):
        rng = spawn_rng(seed, "scaling-costs", v)
        jobs = list(workflow.jobs)
        base = np.maximum(1.0, rng.uniform(0.0, 600.0, size=len(jobs)))
        w = rng.uniform(
            base[:, None] * 0.75, base[:, None] * 1.25, size=(len(jobs), COLD_RESOURCES)
        )
        rids = [f"r{i + 1}" for i in range(COLD_RESOURCES)]
        table = {job: dict(zip(rids, row)) for job, row in zip(jobs, w.tolist())}
        edges = [(s, d) for s, d, _ in workflow.edges()]
        volumes = rng.uniform(0.0, 600.0, size=len(edges))
        for (s, d), volume in zip(edges, volumes.tolist()):
            workflow.set_data(s, d, volume)
        costs = TabularCostModel(workflow, table)
    return workflow, costs


def cold_large(seed: int, span) -> List[Run]:
    workflow, costs = sparse_case(COLD_V, case_seed(seed, "cold_large", 0), span)
    joins = ResourceChangeModel(
        initial_size=10, interval=120.0, fraction=0.15, max_events=5
    )
    return [
        Run("heft/static", workflow, joins.build_pool(), "static", "heft", costs),
        Run("aheft/adaptive", workflow, joins.build_pool(), "adaptive", "aheft", costs),
    ]


# ----------------------------------------------------------------------
# strategy_mix: every registered strategy on noisy churn runs
# ----------------------------------------------------------------------
NOISY_SCENARIO = "churn"
NOISY_ERROR = "gaussian"  # registered default magnitude: 0.2
NOISY_RESOURCES = 10
#: out-degree cap per job: a fixed cap, unlike a fixed fraction of V, keeps
#: |E| proportional to V, so DAGs of one size cost about the same to plan
NOISY_MAX_OUT = 6


def noisy_run(
    label: str, mode: str, strategy: str, v: int, run_seed: int, span
) -> Run:
    """One random DAG on a churn pool under gaussian estimate error.

    Bit-identical to ``repro.run(workflow, costs=..., mode=mode,
    strategy=strategy, scenario="churn", resources=10, seed=run_seed,
    error_model="gaussian")`` — the neutrality tests pin that down.
    """
    with span("generators.dag"):
        params = RandomDAGParameters(
            v=v, out_degree=min(1.0, NOISY_MAX_OUT / v), omega_dag=300.0
        )
        case = generate_random_case(params, seed=run_seed)
    with span("scenarios.materialize"):
        scenario = materialize(
            repro.registry.make("scenario", NOISY_SCENARIO),
            initial_size=NOISY_RESOURCES,
            seed=run_seed,
        )
    error_model = repro.registry.make("error_model", NOISY_ERROR, seed=run_seed)
    return Run(
        label,
        case.workflow,
        scenario.pool,
        mode,
        strategy,
        case.costs,
        options={"perf_profile": scenario.profile, "error_model": error_model},
        truth=PerturbedCostModel(case.costs, error_model),
    )


#: strategy -> (mode that exercises it, V, DAGs per round).  One DAG's
#: cost varies by 20-40 % with its seed at any V, and a strategy's cost
#: grows faster than V, so many small DAGs average that out far better in
#: the same time than a few large ones.  Each strategy's DAGs take about
#: 0.2-0.5 s together.
STRATEGY_MIX = {
    "aheft": ("adaptive", 30, 4),
    "cpop": ("adaptive", 30, 4),
    "heft_dup": ("adaptive", 30, 4),
    "mincost_flow": ("adaptive", 30, 4),
    "lookahead_heft": ("adaptive", 12, 6),
    "minmin": ("dynamic", 50, 4),
    "maxmin": ("dynamic", 50, 4),
    "sufferage": ("dynamic", 50, 4),
    "heft": ("static", 60, 4),
    "olb": ("static", 60, 4),
    "random_static": ("static", 60, 4),
}


def strategy_mix(seed: int, span) -> List[Run]:
    runs = []
    for strategy, (mode, v, cases) in STRATEGY_MIX.items():
        for i in range(cases):
            run_seed = case_seed(seed, f"strategy_mix/{strategy}", i)
            runs.append(noisy_run(f"{strategy}/{mode}#{i}", mode, strategy, v, run_seed, span))
    return runs


# ----------------------------------------------------------------------
# multi_flash: four tenants, flash crowd, admission control, credit_drf
# ----------------------------------------------------------------------
FLASH_TENANTS = 4
FLASH_RATE = 0.003
FLASH_ARRIVALS = 12
FLASH_V = 60
FLASH_RESOURCES = 12
#: independent shared grids per round: one grid's completion time hangs on
#: its last few arrivals, so a single grid would make the round noisy
FLASH_GRIDS = 2


def flash_grid(label: str, grid_seed: int, span) -> Run:
    stream = WorkloadStream(
        default_tenants(
            FLASH_TENANTS, arrival_rate=FLASH_RATE, max_arrivals=FLASH_ARRIVALS, v=FLASH_V
        ),
        seed=grid_seed,
    )
    with span("generators.stream"):
        arrivals = stream.arrivals()
    with span("scenarios.materialize"):
        scenario = materialize(
            repro.registry.make("scenario", "flash_crowd"),
            initial_size=FLASH_RESOURCES,
            seed=grid_seed,
        )
    return Run(
        label,
        arrivals,
        scenario.pool,
        "multi",
        "aheft",
        options={
            "perf_profile": scenario.profile,
            "policy": "credit_drf",
            "tenant_weights": stream.weights(),
            "admission": AdmissionConfig(),
        },
    )


def multi_flash(seed: int, span) -> List[Run]:
    return [
        flash_grid(f"aheft/multi#{g}", case_seed(seed, "multi_flash", g), span)
        for g in range(FLASH_GRIDS)
    ]


WORKLOADS: Dict[str, Callable[[int, Callable], List[Run]]] = {
    "cold_large": cold_large,
    "multi_flash": multi_flash,
    "strategy_mix": strategy_mix,
}
