"""The simulated cloud provider facade.

Wires one :class:`~repro.cloud.simulator.SimulationEnvironment` together
with every service the framework needs — network, functions, pub/sub,
key-value stores, container registries, IAM, Step Functions — plus the
synthetic external data sources (carbon, pricing, latency).  One
``SimulatedCloud`` is one self-consistent "world" for an experiment.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.cloud.faults import FaultInjector, FaultPlan
from repro.cloud.functions import FunctionService
from repro.cloud.kvstore import KeyValueStore
from repro.cloud.ledger import LedgerMetrics, MeteringLedger
from repro.cloud.network import Network
from repro.cloud.pubsub import PubSubService
from repro.cloud.registry import ContainerRegistry, IamService
from repro.cloud.simulator import SimulationEnvironment
from repro.cloud.stepfunctions import StepFunctionsService
from repro.data.carbon import CarbonIntensitySource
from repro.data.latency import LatencySource
from repro.data.pricing import PricingSource
from repro.data.regions import EVALUATION_REGIONS, get_region
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer


class SimulatedCloud:
    """All services of the provider, sharing one clock, RNG, and ledger;
    ``metrics`` folds ``ledger``'s rows at each read (:class:`LedgerMetrics`)."""

    def __init__(
        self,
        seed: int = 0,
        regions: Optional[Sequence[str]] = None,
        carbon_horizon_hours: int = 24 * 7,
        carbon_overrides: Optional[Mapping[str, Sequence[float]]] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Optional[Tracer] = None,
    ):
        """Build a cloud.

        Args:
            seed: Experiment seed; drives every stochastic component.
            regions: Regions available for deployment.  Defaults to the
                paper's four evaluation regions (§9.1).
            carbon_horizon_hours: Length of the materialised carbon
                traces (defaults to the paper's one-week window).
            carbon_overrides: Explicit carbon series per grid zone (for
                tests / what-if studies).
            fault_plan: Declarative fault schedule for chaos
                experiments.  Defaults to the empty plan, which injects
                nothing and leaves every service's behaviour (including
                its RNG streams) byte-identical to a fault-free build.
            tracer: Structured span tracer all services report into.
                Defaults to the no-op tracer; traced runs stay
                byte-identical (ledger, RNG, event order) to untraced
                ones because tracing only *observes*.
        """
        self.regions: tuple = tuple(regions if regions is not None else EVALUATION_REGIONS)
        for name in self.regions:
            get_region(name)  # validate early

        self.env = SimulationEnvironment(seed=seed)
        self.ledger = MeteringLedger()
        self.latency_source = LatencySource()
        self.pricing_source = PricingSource()
        self.carbon_source = CarbonIntensitySource(
            hours=carbon_horizon_hours, seed=seed, overrides=carbon_overrides
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.tracer.bind_clock(self.env.clock)
        self.metrics = MetricsRegistry()
        self.metrics._read_hook = LedgerMetrics(self.ledger, self.metrics).fold
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.faults = FaultInjector(self.fault_plan, self.env)
        self.network = Network(
            self.env, self.latency_source, self.ledger, faults=self.faults,
            tracer=self.tracer, metrics=self.metrics,
        )
        self.functions = FunctionService(
            self.env, self.ledger, faults=self.faults,
            tracer=self.tracer, metrics=self.metrics,
        )
        self.pubsub = PubSubService(
            self.env, self.network, self.ledger, faults=self.faults,
            tracer=self.tracer, metrics=self.metrics,
        )
        self.registry = ContainerRegistry(self.env, self.network)
        self.iam = IamService()
        self._kvstores: Dict[str, KeyValueStore] = {}
        self._stepfunctions: Dict[str, StepFunctionsService] = {}
        #: Per workflow, how many Caribou executors have run it on this
        #: cloud: the epoch the next one numbers its requests under, so
        #: request ids stay unique across an engine restart.
        self.executor_epochs: Dict[str, int] = {}

    def kvstore(self, region: str) -> KeyValueStore:
        """The distributed key-value store hosted in ``region``.

        Caribou keeps its metadata (deployment plans, annotations,
        intermediate data) in one store in the framework's region; this
        accessor creates it lazily.
        """
        if region not in self._kvstores:
            get_region(region)
            self._kvstores[region] = KeyValueStore(
                self.env, region, self.latency_source, self.ledger,
                faults=self.faults, tracer=self.tracer, metrics=self.metrics,
            )
        return self._kvstores[region]

    def stepfunctions(self, region: str) -> StepFunctionsService:
        """The Step Functions orchestration service in ``region``."""
        if region not in self._stepfunctions:
            get_region(region)
            self._stepfunctions[region] = StepFunctionsService(self.env, region)
        return self._stepfunctions[region]

    def now(self) -> float:
        return self.env.now()

    def run(self, until: Optional[float] = None) -> int:
        """Advance the simulation (see :meth:`SimulationEnvironment.run`)."""
        return self.env.run(until=until)

    def run_until_idle(self) -> int:
        return self.env.run_until_idle()
