"""HyperLoop reproduction (SIGCOMM 2018).

Group-based NIC-offloading for replicated transactions in multi-tenant
storage systems, reproduced end-to-end on a discrete-event simulated
RDMA/NVM substrate.  See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro.cluster import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig(
        backend="hyperloop", replicas=3, seed=1,
        backend_kwargs={"slots": 64}))
    group = scenario.build_group()

    def workload(sim):
        group.write_local(0, b"hello")
        result = yield group.gwrite(0, 5, durable=True)
        print(f"replicated in {result.latency_ns / 1000:.1f} us")

    scenario.cluster.sim.process(workload(scenario.cluster.sim))
    scenario.cluster.run()

Backends resolve by name through :mod:`repro.backend`'s registry
(``repro.backend.names()`` lists them); the concrete group classes remain
importable for advanced use.
"""

from . import backend
from .host import Cluster, Host, HostParams
from .cluster import Scenario, ScenarioConfig, build_scenario
from .core.fanout import FanoutGroup
from .core.multiclient import SharedChain, SharedChainClient
from .core.group import GroupConfig, HyperLoopGroup, OpResult
from .core.client import ReplicatedStore, StoreConfig, initialize, recover
from .baseline.naive import NaiveConfig, NaiveGroup
from .apps.rediscache import CacheConfig, ReplicatedCache
from .apps.rockskv import ReplicatedRocksKV, RocksConfig
from .apps.mongolike import MongoConfig, MongoLikeDB, MongoSession
from .storage.twophase import PartitionWrite, TwoPhaseCoordinator
from .storage.wal import LogEntry, LogRecord, RecordKind
from .workloads.ycsb import YCSBConfig, YCSBWorkload

__version__ = "1.0.0"

__all__ = [
    "backend",
    "Cluster",
    "Host",
    "HostParams",
    "Scenario",
    "ScenarioConfig",
    "build_scenario",
    "FanoutGroup",
    "SharedChain",
    "SharedChainClient",
    "GroupConfig",
    "HyperLoopGroup",
    "OpResult",
    "ReplicatedStore",
    "StoreConfig",
    "initialize",
    "recover",
    "NaiveConfig",
    "NaiveGroup",
    "CacheConfig",
    "ReplicatedCache",
    "ReplicatedRocksKV",
    "RocksConfig",
    "MongoConfig",
    "MongoLikeDB",
    "MongoSession",
    "PartitionWrite",
    "TwoPhaseCoordinator",
    "LogEntry",
    "LogRecord",
    "RecordKind",
    "YCSBConfig",
    "YCSBWorkload",
    "__version__",
]
