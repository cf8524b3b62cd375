"""Case-study applications: RocksDB-like KV store, MongoDB-like document
store, and a Memcache/Redis-like replicated cache (§7's weaker semantics)."""

from .mongolike import MongoConfig, MongoLikeDB, MongoSession
from .rediscache import CacheConfig, ReplicatedCache
from .rockskv import ReplicatedRocksKV, RocksConfig

__all__ = [
    "MongoConfig",
    "MongoLikeDB",
    "MongoSession",
    "CacheConfig",
    "ReplicatedCache",
    "ReplicatedRocksKV",
    "RocksConfig",
]
