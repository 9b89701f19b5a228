"""The server's versioned JSON wire protocol.

Every response body is an envelope ``{"v": 1, "ok": true/false, ...}``;
errors carry a machine-readable ``error.code`` from :data:`ERROR_CODES`
plus a human message.  Requests are validated here — the server and the
client both go through this module, so the two ends can never drift.

Endpoints (all bodies JSON):

======================  ======  ==============================================
``/v1/register-scene``  POST    upload ``.ins`` text, get a stable scene id
``/v1/complete``        POST    one completion query (by scene id or inline)
``/v1/complete-batch``  POST    many queries, answered concurrently
``/v1/release-scene``   POST    explicitly drop a registered scene
``/v1/edit-scene``      POST    declaration deltas against a registered scene
``/v1/admin/backends``  both    router only: list / add / drain / remove
``/v1/stats``           GET     live metrics snapshot
``/healthz``            GET     liveness probe
======================  ======  ==============================================

Deadlines: a request's ``deadline_ms`` is mapped onto the paper's anytime
budgets by :func:`deadline_config` — the prover and reconstruction limits
are scaled so their sum fits the deadline while keeping the evaluation's
0.5 s : 7 s proportion.  An expired deadline is not an error: synthesis
returns whatever it proved/reconstructed in time and the response marks
``"partial": true`` (the paper's §5.6 anytime behaviour on the wire).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Optional

from repro.core.config import SynthesisConfig
from repro.core.errors import ReproError
from repro.core.ranking import CompletionContext, ContextError
from repro.engine.engine import VARIANTS

#: Bump when the wire schema changes incompatibly.  v2 added scene deltas
#: (``/v1/edit-scene``), streaming completions (``"stream": true`` on
#: ``/v1/complete``, NDJSON chunks) and server-side request-version
#: validation (``unsupported_version``).
PROTOCOL_VERSION = 2

#: Machine-readable error codes carried in ``error.code``.
ERROR_CODES = (
    "bad_request",      # malformed JSON / missing or invalid fields -> 400
    "unsupported_version",  # request 'v' != server protocol version -> 400
    "invalid_context",  # malformed/typo'd context hint object -> 400
    "not_found",        # unknown path or scene id -> 404
    "overloaded",       # admission control rejected the request -> 429
    "scene_error",      # the scene text failed to parse/load -> 422
    "deadline_exceeded",  # end-to-end budget spent before serving -> 504
    "internal",         # unexpected server-side failure -> 500
)

#: HTTP status for each error code.
STATUS_FOR_CODE = {
    "bad_request": 400,
    "unsupported_version": 400,
    "invalid_context": 400,
    "not_found": 404,
    "overloaded": 429,
    "scene_error": 422,
    "deadline_exceeded": 504,
    "internal": 500,
}

#: Hard ceiling on request deadlines (guards against absurd budgets).
MAX_DEADLINE_MS = 600_000

#: Most queries accepted in one ``complete-batch`` body: each entry
#: becomes a concurrent task on the event loop before admission control
#: can see it, so the count must be bounded at the protocol edge.
MAX_BATCH_QUERIES = 256

#: Floor for a mapped per-phase budget: never hand the pipeline a zero or
#: negative limit, even for a 1 ms deadline.
MIN_PHASE_SECONDS = 0.001

#: Request priority scale for admission-pressure shedding.  Priorities
#: below :data:`NORMAL_PRIORITY` are shed first when the queue crosses
#: the server's soft watermark; an absent ``priority`` means normal.
MAX_PRIORITY = 9
NORMAL_PRIORITY = 5


class ProtocolError(ReproError):
    """A request failed protocol validation."""

    def __init__(self, message: str, code: str = "bad_request"):
        assert code in ERROR_CODES
        self.code = code
        self.status = STATUS_FOR_CODE[code]
        super().__init__(message)


def _require(payload: Any) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError("request body must be a JSON object")
    # Version validation mirrors the client's response-side envelope check:
    # a request *may* carry "v" (the bundled client always sends it), and a
    # carried version must match exactly — a silent mismatch would let an
    # old client's payload be reinterpreted under new field semantics.
    # Version-less requests are accepted for plain-HTTP callers.
    version = payload.get("v")
    if version is not None and version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r}; this server speaks "
            f"v{PROTOCOL_VERSION}", code="unsupported_version")
    return payload


def _optional_str(payload: dict, field: str) -> Optional[str]:
    value = payload.get(field)
    if value is None:
        return None
    if not isinstance(value, str) or not value.strip():
        raise ProtocolError(f"{field!r} must be a non-empty string")
    return value


def _optional_int(payload: dict, field: str, minimum: int,
                  maximum: Optional[int] = None) -> Optional[int]:
    value = payload.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{field!r} must be an integer")
    if value < minimum:
        raise ProtocolError(f"{field!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ProtocolError(f"{field!r} must be <= {maximum}, got {value}")
    return value


@dataclass(frozen=True)
class RegisterSceneRequest:
    """``POST /v1/register-scene``: upload one ``.ins`` scene."""

    text: str
    name: Optional[str] = None

    @staticmethod
    def from_payload(payload: Any) -> "RegisterSceneRequest":
        payload = _require(payload)
        text = payload.get("text")
        if not isinstance(text, str) or not text.strip():
            raise ProtocolError("'text' (the .ins scene source) is required")
        return RegisterSceneRequest(text=text,
                                    name=_optional_str(payload, "name"))

    def to_payload(self) -> dict:
        payload: dict = {"text": self.text}
        if self.name is not None:
            payload["name"] = self.name
        return payload


@dataclass(frozen=True)
class CompleteRequest:
    """``POST /v1/complete`` (and each entry of ``complete-batch``).

    Exactly one of ``scene_id`` (a previously registered scene) or
    ``scene`` (inline ``.ins`` text, registered on the fly) names the
    environment; ``goal`` defaults to the scene's own goal line.  With
    ``stream`` the response is NDJSON: one ``snippet`` chunk per ranked
    suggestion as reconstruction emits it, then one ``done`` chunk
    carrying the full batch payload (``stream`` is ignored inside
    ``complete-batch`` entries — a multiplexed body has one envelope).
    """

    scene_id: Optional[str] = None
    scene: Optional[str] = None
    goal: Optional[str] = None
    variant: Optional[str] = None
    n: Optional[int] = None
    deadline_ms: Optional[int] = None
    #: Remaining *end-to-end* budget at this hop, in milliseconds.  Unlike
    #: ``deadline_ms`` (the synthesis anytime budget, constant across
    #: retries), ``budget_ms`` shrinks at every hop: the client stamps the
    #: absolute budget, the router re-stamps whatever is left before each
    #: dispatch, and a hop receiving ``0`` must fast-fail with
    #: ``deadline_exceeded`` rather than start work it cannot finish in
    #: time.  ``0`` is deliberately *valid* on the wire — a spent budget
    #: is a deadline error, not a malformed request.
    budget_ms: Optional[int] = None
    stream: bool = False
    #: Optional admission-pressure priority, ``0`` (shed first) to ``9``
    #: (shed last); absent means :data:`NORMAL_PRIORITY`.  Under load the
    #: server sheds below-normal work at a soft watermark before the
    #: hard ``overloaded`` ceiling applies to everyone — interactive
    #: completions keep landing while batch backfill waits.
    priority: Optional[int] = None
    #: Optional per-query position hints for the ranking pipeline
    #: (``receiver_type`` / ``enclosing_class`` / ``position_kind``).
    #: Hints never enter cache keys — the same query under different
    #: hints is a cache hit, re-ranked per context — and a typo'd hint
    #: key is rejected with ``invalid_context`` rather than silently
    #: ignored.
    context: Optional[CompletionContext] = None

    @staticmethod
    def from_payload(payload: Any) -> "CompleteRequest":
        payload = _require(payload)
        scene_id = _optional_str(payload, "scene_id")
        scene = _optional_str(payload, "scene")
        if (scene_id is None) == (scene is None):
            raise ProtocolError(
                "pass exactly one of 'scene_id' or 'scene' (inline text)")
        variant = _optional_str(payload, "variant")
        if variant is not None and variant not in VARIANTS:
            raise ProtocolError(
                f"unknown variant {variant!r}; expected one of {VARIANTS}")
        stream = payload.get("stream", False)
        if not isinstance(stream, bool):
            raise ProtocolError("'stream' must be a boolean")
        raw_context = payload.get("context")
        context = None
        if raw_context is not None:
            try:
                context = CompletionContext.from_payload(raw_context)
            except ContextError as exc:
                raise ProtocolError(str(exc), code="invalid_context") from exc
            if context.is_empty:
                context = None
        return CompleteRequest(
            scene_id=scene_id,
            scene=scene,
            goal=_optional_str(payload, "goal"),
            variant=variant,
            n=_optional_int(payload, "n", minimum=1, maximum=10_000),
            deadline_ms=_optional_int(payload, "deadline_ms", minimum=1,
                                      maximum=MAX_DEADLINE_MS),
            budget_ms=_optional_int(payload, "budget_ms", minimum=0,
                                    maximum=MAX_DEADLINE_MS),
            stream=stream,
            priority=_optional_int(payload, "priority", minimum=0,
                                   maximum=MAX_PRIORITY),
            context=context,
        )

    def to_payload(self) -> dict:
        payload = {}
        for field in ("scene_id", "scene", "goal", "variant", "n",
                      "deadline_ms", "budget_ms", "priority"):
            value = getattr(self, field)
            if value is not None:
                payload[field] = value
        if self.stream:
            payload["stream"] = True
        if self.context is not None and not self.context.is_empty:
            payload["context"] = self.context.to_payload()
        return payload


@dataclass(frozen=True)
class ReleaseSceneRequest:
    """``POST /v1/release-scene``: explicitly drop one registered scene.

    Releasing an unknown (or already released) id is not an error — the
    response carries ``"released": false`` — so releases are idempotent
    and safe to retry, which a sharded router relies on when re-homing
    scenes across backends.
    """

    scene_id: str

    @staticmethod
    def from_payload(payload: Any) -> "ReleaseSceneRequest":
        payload = _require(payload)
        scene_id = _optional_str(payload, "scene_id")
        if scene_id is None:
            raise ProtocolError("'scene_id' is required")
        return ReleaseSceneRequest(scene_id=scene_id)

    def to_payload(self) -> dict:
        return {"scene_id": self.scene_id}


@dataclass(frozen=True)
class AdoptSnapshotRequest:
    """``POST /v1/adopt-snapshot``: merge a sibling replica's results.

    ``peer`` names the sibling's snapshot, ``<peer>.snapshot`` in the
    directory of this server's own ``--snapshot`` file — the layout
    ``repro route --snapshot-dir`` gives its backends — so a caller can
    only point at files the operator already placed there.  The server
    restores only entries for scenes it holds.
    """

    peer: str

    @staticmethod
    def from_payload(payload: Any) -> "AdoptSnapshotRequest":
        payload = _require(payload)
        peer = _optional_str(payload, "peer")
        if not peer or peer.startswith(".") or "/" in peer or "\\" in peer:
            raise ProtocolError("'peer' must be a backend id "
                                "(a plain file-name stem)")
        return AdoptSnapshotRequest(peer=peer)

    def to_payload(self) -> dict:
        return {"peer": self.peer}


#: Most delta ops accepted per ``edit-scene`` request: each op is one
#: editor keystroke's worth of change; hundreds in one body means a bulk
#: rewrite, which is what ``register-scene`` is for.
MAX_EDIT_OPS = 256


@dataclass(frozen=True)
class EditSceneRequest:
    """``POST /v1/edit-scene``: declaration deltas against a registered scene.

    ``ops`` is an ordered list of ``{"op": "add", "decl": <line>}`` /
    ``{"op": "remove", "name": <name>}`` objects (the
    :class:`repro.incremental.DeltaOp` wire form).  Only the op *shape* is
    validated here; declaration-line parsing happens scene-side and
    answers ``scene_error``.  The response names the edited scene's new
    content-derived id and carries the canonical serialized final text, so
    callers (the sharded router's journal above all) can reproduce the
    edited state by plain re-registration.
    """

    scene_id: str
    ops: tuple
    name: Optional[str] = None

    @staticmethod
    def from_payload(payload: Any) -> "EditSceneRequest":
        payload = _require(payload)
        scene_id = _optional_str(payload, "scene_id")
        if scene_id is None:
            raise ProtocolError("'scene_id' is required")
        ops = payload.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ProtocolError("'ops' must be a non-empty list of delta ops")
        if len(ops) > MAX_EDIT_OPS:
            raise ProtocolError(
                f"edit of {len(ops)} ops exceeds the {MAX_EDIT_OPS}-op "
                f"limit; re-register the scene instead")
        for index, op in enumerate(ops):
            if not isinstance(op, dict):
                raise ProtocolError(f"ops[{index}] must be an object")
            kind = op.get("op")
            if kind == "add":
                if not isinstance(op.get("decl"), str) or \
                        not op["decl"].strip():
                    raise ProtocolError(
                        f"ops[{index}]: add requires 'decl' "
                        f"(one declaration line)")
            elif kind == "remove":
                if not isinstance(op.get("name"), str) or \
                        not op["name"].strip():
                    raise ProtocolError(f"ops[{index}]: remove requires "
                                        f"'name'")
            else:
                raise ProtocolError(
                    f"ops[{index}]: 'op' must be 'add' or 'remove', "
                    f"got {kind!r}")
        return EditSceneRequest(scene_id=scene_id,
                                ops=tuple(ops),
                                name=_optional_str(payload, "name"))

    def to_payload(self) -> dict:
        payload: dict = {"scene_id": self.scene_id, "ops": list(self.ops)}
        if self.name is not None:
            payload["name"] = self.name
        return payload


#: Actions accepted by the router's ``POST /v1/admin/backends``.
#: ``rebalance`` forces one load-skew rebalancing pass immediately — the
#: same scene moves the supervisor's dwell-timed policy performs, minus
#: the dwell wait (the operator's "do it now" lever, and the testable
#: entry point).
ADMIN_ACTIONS = ("add", "drain", "remove", "rebalance")


@dataclass(frozen=True)
class AdminBackendsRequest:
    """``POST /v1/admin/backends`` (router only): live elasticity.

    ``add`` spawns a new managed backend (or attaches ``address``),
    waits for health, and replays its journal shard into it; ``drain``
    takes a backend off the hash ring, re-registers its scenes on their
    new owners, and moves sticky edit-sessions — the backend keeps
    serving in-flight traffic until ``remove`` tears it down (``remove``
    drains first when needed).  Replica answers with ``degraded: true``
    mark last-known-good responses served while every owner of a scene
    is down — same envelope, one extra marker, no new status code.
    """

    action: str
    backend_id: Optional[str] = None
    address: Optional[str] = None

    @staticmethod
    def from_payload(payload: Any) -> "AdminBackendsRequest":
        payload = _require(payload)
        action = _optional_str(payload, "action")
        if action not in ADMIN_ACTIONS:
            raise ProtocolError(
                f"'action' must be one of {ADMIN_ACTIONS}, got {action!r}")
        backend_id = _optional_str(payload, "backend_id")
        if action in ("drain", "remove") and backend_id is None:
            raise ProtocolError(f"'backend_id' is required for {action!r}")
        address = _optional_str(payload, "address")
        if address is not None:
            if action != "add":
                raise ProtocolError("'address' only applies to 'add'")
            host, _, port = address.rpartition(":")
            if not host or not port.isdigit() or not 0 < int(port) < 65536:
                raise ProtocolError(
                    f"'address' {address!r} is not host:port")
        return AdminBackendsRequest(action=action, backend_id=backend_id,
                                    address=address)

    def to_payload(self) -> dict:
        payload: dict = {"action": self.action}
        if self.backend_id is not None:
            payload["backend_id"] = self.backend_id
        if self.address is not None:
            payload["address"] = self.address
        return payload


def parse_batch_payload(payload: Any) -> list[CompleteRequest]:
    """Validate a ``complete-batch`` body into its per-query requests."""
    payload = _require(payload)
    queries = payload.get("queries")
    if not isinstance(queries, list) or not queries:
        raise ProtocolError("'queries' must be a non-empty list")
    if len(queries) > MAX_BATCH_QUERIES:
        raise ProtocolError(
            f"batch of {len(queries)} queries exceeds the "
            f"{MAX_BATCH_QUERIES}-query limit; split the request")
    return [CompleteRequest.from_payload(entry) for entry in queries]


# -- responses ---------------------------------------------------------------


def ok_payload(**fields: Any) -> dict:
    """An ``ok`` response envelope."""
    return {"v": PROTOCOL_VERSION, "ok": True, **fields}


def error_payload(code: str, message: str) -> dict:
    """An error response envelope."""
    assert code in ERROR_CODES
    return {"v": PROTOCOL_VERSION, "ok": False,
            "error": {"code": code, "message": message}}


def snippet_payload(snippet) -> dict:
    """One ranked suggestion on the wire."""
    return {"rank": snippet.rank, "code": snippet.code,
            "weight": round(snippet.weight, 4)}


def completion_payload(*, scene_id: str, goal, variant: str, result,
                       cache_hit: bool, coalesced: bool,
                       deadline_ms: Optional[int],
                       server_seconds: float,
                       reranked: bool = False) -> dict:
    """The response body for one served completion.

    ``reranked`` marks results the weigher chain adjusted after cache
    lookup — the observable half of the "hints never fragment the cache"
    contract: a hinted repeat of a cached query answers ``cache_hit:
    true`` *and* ``reranked: true``.
    """
    return ok_payload(
        scene_id=scene_id,
        goal=str(goal),
        variant=variant,
        inhabited=result.inhabited,
        snippets=[snippet_payload(s) for s in result.snippets],
        partial=bool(result.explore_truncated
                     or result.reconstruction_truncated),
        cache_hit=cache_hit,
        coalesced=coalesced,
        deadline_ms=deadline_ms,
        synthesis_ms=round(result.total_seconds * 1000, 3),
        server_ms=round(server_seconds * 1000, 3),
        reranked=reranked,
    )


# -- streaming (NDJSON) ------------------------------------------------------

#: ``Content-Type`` of a streamed completion response.
STREAM_CONTENT_TYPE = "application/x-ndjson"


def stream_snippet_chunk(snippet) -> dict:
    """One NDJSON line per ranked suggestion, as reconstruction emits it."""
    return {"v": PROTOCOL_VERSION, "chunk": "snippet",
            **snippet_payload(snippet)}


def stream_done_chunk(completion: dict) -> dict:
    """The terminal NDJSON line: the full batch-mode completion payload.

    Carrying the whole payload (snippets included) makes the stream
    self-checking — a client can assert the chunks it collected equal the
    batch answer — and lets pure proxies forward streams without
    reassembling state.
    """
    return {"v": PROTOCOL_VERSION, "chunk": "done", **completion}


def stream_error_chunk(code: str, message: str) -> dict:
    """A mid-stream failure (the HTTP status is long gone at this point)."""
    return {"v": PROTOCOL_VERSION, "chunk": "error",
            **error_payload(code, message)}


def encode_stream_chunk(chunk: dict) -> bytes:
    """One NDJSON line: compact JSON + newline (the chunk framing)."""
    return json.dumps(chunk, separators=(",", ":"),
                      sort_keys=True).encode("utf-8") + b"\n"


def encode_body(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def decode_body(body: bytes) -> Any:
    if not body:
        raise ProtocolError("empty request body; expected JSON")
    try:
        return json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"invalid JSON body: {exc}") from exc


# -- deadlines ---------------------------------------------------------------


def deadline_config(base: SynthesisConfig,
                    deadline_ms: Optional[int]) -> SynthesisConfig:
    """Map a request deadline onto the paper's anytime budgets.

    The deadline is split between the prover and reconstruction phases in
    the proportion of the base config's limits (the evaluation's 0.5 s
    prover : 7 s reconstruction by default), and each phase limit is also
    clamped by its base value — a generous deadline never *extends* the
    configured budgets.  Deterministic: equal deadlines yield equal
    configs, so they share cache keys and coalesce.
    """
    if deadline_ms is None:
        return base
    budget = deadline_ms / 1000.0
    prover_base = base.prover_time_limit if base.prover_time_limit else 0.5
    recon_base = (base.reconstruction_time_limit
                  if base.reconstruction_time_limit else 7.0)
    share = prover_base / (prover_base + recon_base)
    prover = max(min(prover_base, budget * share), MIN_PHASE_SECONDS)
    recon = max(min(recon_base, budget - prover), MIN_PHASE_SECONDS)
    return base.with_(prover_time_limit=round(prover, 6),
                      reconstruction_time_limit=round(recon, 6))
