"""The async serving layer: a long-running completion service.

``repro.engine`` amortises the paper's pipeline across queries inside one
process; this package turns that engine into a *service* — the always-on
assistant the paper's interactive setting assumes.  Stdlib-only asyncio,
HTTP/1.1 with JSON bodies:

* :mod:`repro.server.protocol` — the versioned wire schema (requests,
  responses, error codes, deadline-to-budget mapping);
* :mod:`repro.server.registry` — registered scenes with LRU eviction that
  releases engine state (and interned succinct types) on the way out;
* :mod:`repro.server.metrics` — live counters and latency percentiles,
  served at ``/v1/stats``;
* :mod:`repro.server.front` — :class:`HttpFront`, the HTTP wire the
  server and the router share (connection loop, route table, error
  envelopes, NDJSON streams);
* :mod:`repro.server.server` — :class:`AsyncCompletionServer`: request
  coalescing (single-flight per :class:`~repro.engine.keys.QueryKey`),
  admission control (bounded pending queue, 429 on overflow), per-request
  deadlines mapped onto the paper's anytime budgets, synthesis on an
  executor so the event loop never blocks;
* :mod:`repro.server.client` — :class:`AsyncCompletionClient`, the async
  counterpart used by the CLI, the smoke test and the load benchmark;
* :mod:`repro.server.router` — :class:`CompletionRouter`: the sharded
  front door (consistent-hash scene routing over N supervised backend
  processes, durable scene journal with replica warm-up replay,
  aggregated stats) speaking the same protocol on both sides.

``python -m repro.cli serve`` runs one server from the terminal;
``python -m repro.cli route`` runs the sharded router.
"""

from repro.server.client import (AsyncCompletionClient, ClientConnectionError,
                                 OverloadedError, SceneNotFoundError,
                                 ServerError)
from repro.server.metrics import LatencyWindow, ServerMetrics
from repro.server.protocol import (PROTOCOL_VERSION, CompleteRequest,
                                   ProtocolError, RegisterSceneRequest,
                                   ReleaseSceneRequest, deadline_config)
from repro.server.registry import RegisteredScene, SceneRegistry
from repro.server.router import (CompletionRouter, HashRing, RouterConfig,
                                 SceneJournal)
from repro.server.server import AsyncCompletionServer, ServerConfig

__all__ = [
    "AsyncCompletionClient",
    "AsyncCompletionServer",
    "ClientConnectionError",
    "CompleteRequest",
    "CompletionRouter",
    "HashRing",
    "LatencyWindow",
    "OverloadedError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RegisteredScene",
    "RegisterSceneRequest",
    "ReleaseSceneRequest",
    "RouterConfig",
    "SceneJournal",
    "SceneNotFoundError",
    "SceneRegistry",
    "ServerConfig",
    "ServerError",
    "ServerMetrics",
    "deadline_config",
]
