"""Workload generation: YCSB mixes and closed-loop runners."""

from .ycsb import (
    WORKLOAD_MIXES,
    OpType,
    WorkloadMix,
    YCSBConfig,
    YCSBOperation,
    YCSBWorkload,
    make_value,
)
from .runner import (
    MongoAdapter,
    RocksAdapter,
    RunStats,
    YCSBRunner,
)
from .tenants import Surge, TenantSpec, tenant_arrivals

__all__ = [
    "Surge",
    "TenantSpec",
    "tenant_arrivals",
    "WORKLOAD_MIXES",
    "OpType",
    "WorkloadMix",
    "YCSBConfig",
    "YCSBOperation",
    "YCSBWorkload",
    "make_value",
    "MongoAdapter",
    "RocksAdapter",
    "RunStats",
    "YCSBRunner",
]
