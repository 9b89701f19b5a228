"""The serving layer: a long-lived, caching, batching completion engine.

``repro.core`` implements the paper's per-query pipeline; this package
amortises it for production-style workloads.  A scene is *prepared* once
(coercion extension, succinct signature, interning, fingerprinting) and
then serves many queries, with an LRU result cache and an order-preserving
batch API.  One synthesis runs on one core; more cores serve more scenes
through ``repro route`` backends, each its own process over its own
engine.  The benchmark runner and the CLI both sit on top of this seam,
and so does the async server behind every router backend.
"""

from repro.engine.cache import CacheStats, LRUCache
from repro.engine.engine import (VARIANTS, CompletionEngine, EngineQuery,
                                 EngineResult, PreparedScene,
                                 policy_for_variant)
from repro.engine.keys import QueryKey, config_key, policy_key, query_key

__all__ = [
    "CacheStats",
    "CompletionEngine",
    "EngineQuery",
    "EngineResult",
    "LRUCache",
    "PreparedScene",
    "QueryKey",
    "VARIANTS",
    "config_key",
    "policy_for_variant",
    "policy_key",
    "query_key",
]
