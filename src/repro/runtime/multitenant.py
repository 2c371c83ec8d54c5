"""Multi-tenant deployments on a shared cluster (section 2.1).

"In the case of multi-tenancy, our proposed ideas can be individually
applied to each tenant.  Note that serverless platforms do not share
microservices across tenants — doing so would violate the security and
isolation guarantees" (footnote 4).

:class:`MultiTenantSystem` runs several tenants — each with its own
policy, workload mix, arrival trace and isolated function pools — on one
physical cluster and one simulation clock.  Cluster energy is metered
once centrally; placement pressure (and the idle-reclaim path) couples
the tenants the way a real shared cluster does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.cluster.energy import EnergyMeter, NodePowerModel
from repro.core.policies import RMConfig
from repro.metrics.collector import RunResult
from repro.prediction.base import Predictor
from repro.runtime.system import ClusterSpec, ServerlessSystem
from repro.sim.engine import Simulator
from repro.sim.process import CoalescedTicker
from repro.traces.base import ArrivalTrace
from repro.workflow.lifecycle import drain
from repro.workloads.mixes import WorkloadMix


@dataclass
class TenantSpec:
    """One tenant: a policy, a workload and its arrival trace."""

    name: str
    config: RMConfig
    mix: WorkloadMix
    trace: ArrivalTrace
    predictor: Optional[Predictor] = None
    seed: int = 0


@dataclass
class MultiTenantResult:
    """Per-tenant results plus shared-cluster aggregates."""

    tenants: Dict[str, RunResult]
    cluster_energy_joules: float
    cluster_mean_power_w: float
    peak_total_containers: int

    def total_violation_rate(self) -> float:
        jobs = sum(r.n_jobs for r in self.tenants.values())
        if jobs == 0:
            return 0.0
        violated = sum(
            r.violations + r.n_incomplete for r in self.tenants.values()
        )
        return violated / jobs


class MultiTenantSystem:
    """Several isolated tenants sharing one cluster and clock."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        cluster_spec: ClusterSpec = ClusterSpec(),
        power_model: Optional[NodePowerModel] = None,
        monitor_interval_ms: float = 10_000.0,
        drain_ms: float = 120_000.0,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        self.specs = list(tenants)
        self.cluster_spec = cluster_spec
        self.power_model = power_model or NodePowerModel()
        self.monitor_interval_ms = monitor_interval_ms
        self.drain_ms = drain_ms
        self.systems: Dict[str, ServerlessSystem] = {}

    def run(self) -> MultiTenantResult:
        """Execute every tenant's trace on the shared cluster."""
        sim = Simulator()
        # The shared cluster uses the first tenant's placement policy for
        # its node ordering; PACK/SPREAD is a per-placement decision and
        # in shared deployments the operator picks one cluster-wide.
        cluster = Cluster(
            n_nodes=self.cluster_spec.n_nodes,
            cores_per_node=self.cluster_spec.cores_per_node,
            memory_per_node_mb=self.cluster_spec.memory_per_node_mb,
            policy=self.specs[0].config.placement,
        )
        meter = EnergyMeter(
            model=self.power_model, interval_ms=self.monitor_interval_ms
        )
        # All same-cadence periodic work — every tenant's monitor plus
        # the central energy sampler — shares one coalesced timer: one
        # heap entry per interval instead of n_tenants + 1.
        ticker = CoalescedTicker(
            sim, self.monitor_interval_ms, label="tenant-monitor"
        )
        monitors: List = []
        for spec in self.specs:
            system = ServerlessSystem(
                config=spec.config,
                mix=spec.mix,
                cluster_spec=self.cluster_spec,
                predictor=spec.predictor,
                power_model=self.power_model,
                seed=spec.seed,
                shared_cluster=cluster,
                sample_energy=False,  # metered centrally below
            )
            self.systems[spec.name] = system
            monitors.append(system.attach(sim, spec.trace, ticker=ticker))

        peak = {"containers": 0}

        def central_sample(now_ms: float) -> None:
            meter.sample(cluster.nodes, now_ms)
            peak["containers"] = max(
                peak["containers"], cluster.total_containers
            )

        central = ticker.add(central_sample)
        horizon = max(s.trace.duration_ms for s in self.specs) + 1.0
        sim.run(until=horizon)
        lifecycles = {n: s.lifecycle for n, s in self.systems.items()}
        drain(lambda t: sim.run(until=t),
              lambda: all(lc.outcomes().settled for lc in lifecycles.values()),
              horizon, self.drain_ms, self.monitor_interval_ms)
        for monitor in monitors:
            monitor.stop()
        central.stop()
        for name, lifecycle in lifecycles.items():
            lifecycle.outcomes().check(f"tenant {name}")
        return MultiTenantResult(
            tenants={
                name: system.finalize()
                for name, system in self.systems.items()
            },
            cluster_energy_joules=meter.total_joules,
            cluster_mean_power_w=meter.mean_power_w,
            peak_total_containers=peak["containers"],
        )
