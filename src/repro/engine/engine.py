"""The long-lived completion engine: prepare once, answer many.

The paper's pipeline (Fig. 5: Explore -> GenerateP -> GenerateT) is run per
query, but its expensive inputs are per *scene*: the coercion-extended
environment, its succinct signature, and the interned succinct types.  A
:class:`CompletionEngine` separates the two lifetimes:

* :meth:`~CompletionEngine.prepare` builds a :class:`PreparedScene` —
  environment with subtyping applied, content fingerprint, cached
  per-policy synthesizers — and registers it in an LRU scene table keyed by
  the *base* environment fingerprint plus the subtype edges, so preparing
  the same scene twice is free;
* :meth:`~CompletionEngine.complete` answers one query, consulting an LRU
  result cache keyed by (prepared-environment fingerprint, goal type,
  weight policy, budgets) before running the pipeline;
* :meth:`~CompletionEngine.complete_batch` serves many queries (across one
  or many scenes) in input order, one :meth:`~CompletionEngine.complete`
  after another, so identical queries compute once and hit thereafter;
* :meth:`~CompletionEngine.warm` pre-populates the result cache.

Engine-served results are *identical* to direct
:meth:`~repro.core.synthesizer.Synthesizer.synthesize` output: a cache miss
runs the very same pipeline over the very same prepared environment, and a
hit returns what that run produced.  A miss proves at most once per root
env (:meth:`PreparedScene.synthesize`): a goal whose request lies inside a
graph already explored over the same sigma(Gamma_o) reconstructs from that
graph's stored patterns, with the same snippets and work counts as a fresh
prove.  An engine constructed with a non-empty
:class:`~repro.core.ranking.RankingPipeline` re-scores results *after* the
cache — the cache (and its snapshots) always hold base, un-reranked
results, so one cached synthesis serves every per-query context and the
fingerprint-keyed cache never fragments on hints.

One synthesis runs on one core, in the calling thread.  More cores serve
more traffic through more ``repro route`` backends, each a process with
its own engine, not through worker processes behind one engine: such a
worker re-pickles and re-prepares every scene it is sent and never sees
the warm per-environment memos of the process that prepared it.

Every newly prepared scene settles the heap (:class:`GcPolicy`): what is
alive then is frozen out of all later collections, so the collector's
cost follows allocation churn, not the resident scenes.
"""

from __future__ import annotations

import dataclasses
import gc
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.core.config import SynthesisConfig
from repro.core.environment import Environment
from repro.core.errors import EngineError
from repro.core.ranking import CompletionContext, RankingPipeline
from repro.core.subtyping import SubtypeGraph, environment_with_subtyping
from repro.core.succinct import sigma
from repro.core.synthesizer import Proof, SynthesisResult, Synthesizer
from repro.core.types import Type
from repro.core.weights import WeightPolicy
from repro.corpus.mining import ProjectWeightTables
from repro.engine.cache import CacheStats, LRUCache
from repro.engine.keys import QueryKey, config_key, policy_key, query_key

#: The three Table 2 policy variants, by name.
VARIANTS = ("no_weights", "no_corpus", "full")

#: Format version of result-cache snapshot files
#: (:meth:`CompletionEngine.snapshot_results`); bump on layout changes,
#: a `QueryKey.budgets` that gains or loses a config field included — a
#: mismatched snapshot restores nothing rather than garbage.
SNAPSHOT_VERSION = 2


#: A settle reclaims (unfreeze, one full collection, re-freeze) instead of
#: only freezing once the heap holds this many times the blocks it held at
#: the previous full settle.
RECLAIM_GROWTH = 2


class GcPolicy:
    """The process's collector policy: freeze what prepared scenes keep.

    A prepared scene, the model it was built from and the memos its
    queries fill stay alive until the scene is released, yet every gen-2
    collection walks all of them again; on Table-2-sized heaps that costs
    more than synthesis.  :meth:`settle`, run by
    :meth:`CompletionEngine.prepare` after each newly built scene, moves
    everything alive at that moment into the permanent generation
    (``gc.freeze()``, constant time), which no collection visits.  Frozen
    objects still die by reference counting, and a released scene holds
    no cycles, so releasing it still frees it.

    A freeze also keeps whatever cyclic garbage is alive but not yet
    collected at that moment.  To bound it, a settle reclaims instead once
    ``sys.getallocatedblocks()`` passes :data:`RECLAIM_GROWTH` times its
    value at the previous full settle; the first settle only freezes and
    records that value.  The block count reads pymalloc's arena table,
    never the objects, so outside a reclaim no settle walks the heap (nor
    calls ``gc.get_freeze_count()``, which does).  CPython's collection
    thresholds stay at their defaults.

    One policy per process, like the heap it settles, behind one lock: a
    server prepares on executor threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._baseline: Optional[int] = None
        self.settles = 0
        self.reclaims = 0

    def settle(self) -> None:
        """Freeze the live heap; reclaim first once it outgrew its bound."""
        with self._lock:
            blocks = sys.getallocatedblocks()
            if self._baseline is None:
                self._baseline = blocks
            elif blocks > RECLAIM_GROWTH * self._baseline:
                gc.unfreeze()
                gc.collect()
                self._baseline = sys.getallocatedblocks()
                self.reclaims += 1
            gc.freeze()
            self.settles += 1

    def stats(self) -> dict:
        return {"settles": self.settles, "reclaims": self.reclaims}


#: The one policy of this process; every engine's ``prepare`` settles it.
GC_POLICY = GcPolicy()


def policy_for_variant(variant: str) -> WeightPolicy:
    """The weight policy behind a Table 2 variant name."""
    if variant == "no_weights":
        return WeightPolicy.uniform_policy()
    if variant == "no_corpus":
        return WeightPolicy.without_corpus()
    if variant == "full":
        return WeightPolicy.standard()
    raise EngineError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


@dataclass
class PreparedScene:
    """One scene's reusable synthesis state.

    ``environment`` is the coercion-extended environment (what the pipeline
    actually searches); ``fingerprint`` hashes it, so any change to the
    declarations *or* the subtype edges yields a different prepared identity
    and therefore different cache keys.
    """

    name: str
    base_environment: Environment
    environment: Environment
    subtypes: SubtypeGraph
    fingerprint: str
    goal: Optional[Type] = None
    #: The engine scene-table key this state lives under (set by
    #: :meth:`CompletionEngine.prepare`); release and LRU promotion use it
    #: without re-fingerprinting the base environment.
    scene_key: Optional[tuple] = None
    _synthesizers: dict = field(default_factory=dict, repr=False)

    def synthesizer(self, policy: WeightPolicy,
                    config: SynthesisConfig) -> Synthesizer:
        """A (cached) synthesizer over this scene for one policy/config."""
        key = (policy_key(policy), config_key(config))
        synthesizer = self._synthesizers.get(key)
        if synthesizer is None:
            synthesizer = Synthesizer.from_prepared(
                self.environment, self.base_environment, self.subtypes,
                policy=policy, config=config)
            self._synthesizers[key] = synthesizer
        return synthesizer

    def synthesize(self, goal: Type, policy: WeightPolicy,
                   config: SynthesisConfig, n: Optional[int] = None,
                   on_snippet=None) -> SynthesisResult:
        """One synthesis over this scene, proving once per root env.

        A prove that no node or time budget cut, and that explored fewer
        nodes than the node budget (which another exploration order could
        reach), stores its explored graph on the scene's arena (a
        :class:`~repro.core.synthesizer.Proof`) under ``(policy, root
        sigma(Gamma_o) id, max_explore_nodes)``; edits that keep
        sigma(Gamma_o) hand the arena on.  A later call whose root request
        ``STRIP(sigma(goal), sigma(Gamma_o))`` is a node of a stored graph
        reconstructs from it without exploring.  Any other call runs
        :meth:`Synthesizer.synthesize`'s prove, and its graph replaces the
        stored ones whose root it contains.

        Reuse is exact:

        * an untruncated graph is closed: every node it mentions was
          visited;
        * so exploring a node from scratch reaches exactly its reachable
          set in the graph, with the same MATCH edges; the §5.6 weight
          w(t, Gamma_o), which an edit can change, orders that work but
          not its result;
        * inhabitation of that set agrees with the stored fixpoint,
          because a node depends only on its successors;
        * a node's patterns are its firing edges, and ``PatternSet.build``
          orders each slice by ``sort_key``, so the stored set restricted
          to the reachable set's inhabited requests equals a fresh build;
        * the reachable set has no more nodes than the stored graph, which
          had fewer than the node budget, so a fresh run would not be cut
          either.

        The policy is in the key so that each Table 2 variant's served run
        proves.
        """
        synthesizer = self.synthesizer(policy, config)
        limit = synthesizer.snippet_limit(n)
        start = time.perf_counter()
        environment = self.environment
        arena = environment.succinct_arena()
        budget = config.max_explore_nodes
        root_env = arena.intern(environment.succinct_environment())
        key = (policy, root_env, budget)
        found = arena.find_proof(key, *arena.strip(sigma(goal), root_env))
        if found is not None:
            proof, node = found
            result, patterns = proof.answer(node, arena.members)
            result.explore_seconds = time.perf_counter() - start
        else:
            result, patterns, space, inhabited = \
                synthesizer.prove_result(goal)
            if not result.explore_truncated and (
                    budget is None or result.nodes_explored < budget):
                arena.store_proof(key, Proof(space, patterns, inhabited))
        return synthesizer.reconstruct(goal, patterns, result, limit,
                                       on_snippet)

    def __repr__(self) -> str:
        return (f"PreparedScene({self.name!r}, "
                f"{len(self.environment)} declarations, "
                f"fingerprint {self.fingerprint[:12]}...)")


#: Anything ``complete`` accepts as a scene: already-prepared state, a bare
#: environment, or a Scene-like object (``.environment``/``.subtypes``/...).
SceneLike = Union[PreparedScene, Environment, object]


@dataclass(frozen=True)
class EngineQuery:
    """One entry of a :meth:`CompletionEngine.complete_batch` request."""

    goal: Type
    scene: Optional[SceneLike] = None     # falls back to the batch default
    variant: Optional[str] = None
    policy: Optional[WeightPolicy] = None
    config: Optional[SynthesisConfig] = None
    n: Optional[int] = None
    context: Optional[CompletionContext] = None


@dataclass
class EngineResult:
    """A synthesis result plus how the engine served it."""

    result: SynthesisResult
    key: QueryKey
    cache_hit: bool
    scene_name: str
    engine_seconds: float
    #: True when the ranking pipeline adjusted this result after cache
    #: lookup (the cached entry itself is always the base result).
    reranked: bool = False

    @property
    def snippets(self):
        return self.result.snippets


class CompletionEngine:
    """A reusable, caching front end over the synthesis pipeline."""

    def __init__(self, policy: Optional[WeightPolicy] = None,
                 config: Optional[SynthesisConfig] = None,
                 result_entries: int = 512,
                 scene_entries: int = 16,
                 ranking: Optional[RankingPipeline] = None):
        self.default_policy = policy or WeightPolicy.standard()
        self.default_config = config or SynthesisConfig.paper_defaults()
        self.results = LRUCache(result_entries)
        self.scenes = LRUCache(scene_entries)
        #: The post-cache re-weighting stage.  Defaults to the *empty*
        #: pipeline: a bare engine is byte-identical to the pre-ranking
        #: weight path (bench/CLI/table-2 parity); serving layers opt in
        #: with ``RankingPipeline.standard()``.
        self.ranking = ranking if ranking is not None \
            else RankingPipeline.empty()
        #: Per-project frequency tables for the project-affinity weigher;
        #: ``None`` means every scene uses the (base-weight) global table.
        self.project_weights: Optional[ProjectWeightTables] = None
        self._ranking_lock = threading.Lock()
        self._rank_counters = {"reranks": 0, "reordered": 0}
        self._weigher_counters: dict[str, int] = {}

    # -- scene preparation ---------------------------------------------------

    def prepare(self, environment: Environment,
                subtypes: Optional[SubtypeGraph] = None,
                goal: Optional[Type] = None,
                name: str = "scene") -> PreparedScene:
        """Prepare (or fetch the already-prepared state of) one scene.

        A newly built scene settles the heap (:data:`GC_POLICY`) before it
        is returned; a scene-table hit does not.
        """
        subtypes = subtypes or SubtypeGraph()
        scene_key = (environment.fingerprint(), tuple(subtypes.edges()))
        prepared = self.scenes.get(scene_key)
        if prepared is None:
            extended = environment_with_subtyping(environment, subtypes)
            extended.succinct_environment()  # precompute sigma(Gamma_o)
            prepared = PreparedScene(
                name=name,
                base_environment=environment,
                environment=extended,
                subtypes=subtypes,
                fingerprint=extended.fingerprint(),
                goal=goal,
                scene_key=scene_key,
            )
            self.scenes.put(scene_key, prepared)
            GC_POLICY.settle()
            return prepared
        # Cache hit: the expensive state is shared, but the caller's default
        # goal (and label) must win — two scenes with identical declarations
        # may still ask for different things.
        overrides = {}
        if goal is not None and goal != prepared.goal:
            overrides["goal"] = goal
        if name != "scene" and name != prepared.name:
            overrides["name"] = name
        if overrides:
            prepared = dataclasses.replace(prepared, **overrides)
        return prepared

    def prepare_scene(self, scene) -> PreparedScene:
        """Prepare a Scene-like object (``.environment``/``.subtypes``/...)."""
        return self.prepare(scene.environment,
                            subtypes=getattr(scene, "subtypes", None),
                            goal=getattr(scene, "goal", None),
                            name=getattr(scene, "name", "scene"))

    def open_session(self, scene: "SceneLike", name: Optional[str] = None):
        """Open an incremental :class:`~repro.incremental.SceneSession`.

        The editor-path API: ``apply_delta`` advances the session by
        declaration-level add/remove ops with an incremental re-prepare,
        ``complete`` serves against the current state through this
        engine's caches.  Sessions are the engine-call form of the
        server's ``/v1/edit-scene`` endpoint, so CLI, bench and server
        paths stay expressible as the same calls.
        """
        from repro.incremental.session import SceneSession  # deferred: layering

        return SceneSession(self, self._as_prepared(scene), name=name)

    def _as_prepared(self, scene: Optional[SceneLike]) -> PreparedScene:
        if isinstance(scene, PreparedScene):
            return scene
        if isinstance(scene, Environment):
            return self.prepare(scene)
        if scene is not None and hasattr(scene, "environment"):
            return self.prepare_scene(scene)
        raise EngineError(f"cannot prepare a scene from {scene!r}")

    # -- single queries ------------------------------------------------------

    def _resolve_policy(self, variant: Optional[str],
                        policy: Optional[WeightPolicy]) -> WeightPolicy:
        if policy is not None and variant is not None:
            raise EngineError("pass either variant= or policy=, not both")
        if policy is not None:
            return policy
        if variant is not None:
            return policy_for_variant(variant)
        return self.default_policy

    def complete(self, scene: SceneLike, goal: Optional[Type] = None, *,
                 variant: Optional[str] = None,
                 policy: Optional[WeightPolicy] = None,
                 config: Optional[SynthesisConfig] = None,
                 n: Optional[int] = None,
                 context: Optional[CompletionContext] = None) -> EngineResult:
        """Serve one query, from cache when possible.

        The returned :class:`~repro.core.synthesizer.SynthesisResult` is
        shared between callers that hit the same cache entry — treat it as
        read-only.  ``context`` carries per-query position hints for the
        ranking pipeline; it deliberately does *not* participate in the
        cache key, so the same query under different hints is a cache hit
        re-ranked per context.
        """
        start = time.perf_counter()
        prepared = self._as_prepared(scene)
        goal = goal if goal is not None else prepared.goal
        if goal is None:
            raise EngineError(
                f"scene {prepared.name!r} has no goal; pass one explicitly")
        policy = self._resolve_policy(variant, policy)
        config = config or self.default_config
        key = query_key(prepared.fingerprint, goal, policy, config, n)
        cached = self.results.get(key)
        if cached is not None:
            served, reranked = self.rerank_result(cached, prepared, context)
            return EngineResult(served, key, True, prepared.name,
                                time.perf_counter() - start, reranked)

        result = prepared.synthesize(goal, policy, config, n=n)
        self.results.put(key, result)
        served, reranked = self.rerank_result(result, prepared, context)
        return EngineResult(served, key, False, prepared.name,
                            time.perf_counter() - start, reranked)

    # -- post-cache ranking ----------------------------------------------------

    def set_project_weights(self,
                            tables: Optional[ProjectWeightTables]) -> None:
        """Install (or clear) the per-project tables the ranking stage uses."""
        self.project_weights = tables

    def rerank_result(self, result: SynthesisResult, prepared: PreparedScene,
                      context: Optional[CompletionContext] = None,
                      ) -> tuple[SynthesisResult, bool]:
        """Apply the ranking pipeline to one (possibly cached) base result.

        Runs strictly *after* cache lookup — cached entries stay base —
        and returns the input object unchanged when the chain is empty or
        adjusts nothing, preserving the parity and identity guarantees
        the engine tests pin down.
        """
        pipeline = self.ranking
        if not pipeline or not result.snippets:
            return result, False
        if context is not None and context.is_empty:
            context = None
        frequencies = None
        if self.project_weights is not None:
            table = self.project_weights.for_scene(prepared.name)
            if len(table):
                frequencies = table
        outcome = pipeline.rerank(result, prepared.environment,
                                  context=context, frequencies=frequencies)
        with self._ranking_lock:
            self._rank_counters["reranks"] += 1
            if outcome.reordered:
                self._rank_counters["reordered"] += 1
            for name, moved in outcome.adjustments.items():
                if moved:
                    self._weigher_counters[name] = \
                        self._weigher_counters.get(name, 0) + moved
        return outcome.result, outcome.applied

    def ranking_stats(self) -> dict:
        """Ranking counters for ``/v1/stats``: reranks + per-weigher moves."""
        with self._ranking_lock:
            return {
                "weighers": list(self.ranking.names),
                "reranks": self._rank_counters["reranks"],
                "reordered": self._rank_counters["reordered"],
                "adjustments": dict(sorted(self._weigher_counters.items())),
            }

    # -- batched queries -----------------------------------------------------

    def complete_batch(self, queries: Sequence[EngineQuery],
                       scene: Optional[SceneLike] = None,
                       ) -> list[EngineResult]:
        """Serve many queries in input order, one :meth:`complete` each.

        A query without a scene falls back to *scene*.  The result cache
        computes identical queries once: the first is a miss, every
        repeat a hit, and the cache stats count exactly that.
        """
        return [self.complete(query.scene if query.scene is not None
                              else scene,
                              query.goal, variant=query.variant,
                              policy=query.policy, config=query.config,
                              n=query.n, context=query.context)
                for query in queries]

    # -- cache management ----------------------------------------------------

    def warm(self, scene: SceneLike, goals: Iterable[Type],
             variants: Sequence[str] = ("full",),
             config: Optional[SynthesisConfig] = None,
             n: Optional[int] = None) -> int:
        """Pre-populate the result cache; returns fresh computations done."""
        computed = 0
        for goal in goals:
            for variant in variants:
                served = self.complete(scene, goal, variant=variant,
                                       config=config, n=n)
                if not served.cache_hit:
                    computed += 1
        return computed

    @property
    def cache_stats(self) -> CacheStats:
        return self.results.stats

    # -- cache persistence ---------------------------------------------------

    def collect_results(self) -> list:
        """The result cache as picklable ``(QueryKey, result)`` pairs.

        In LRU order (least recent first), so restoring replays the same
        relative order.  Split from :meth:`write_snapshot` so a serving
        layer can take this cheap copy on the cache's owning thread and
        hand the pickling/disk work to an executor — iterating the live
        LRU off-thread would race its ``get``-promotes.
        """
        return [(key, self.results.peek(key)) for key in self.results]

    @staticmethod
    def write_snapshot(path: str, entries: list,
                       project_weights: Optional[dict] = None) -> int:
        """Write collected entries to *path* (any thread; atomic).

        The snapshot is a pickle of ``{"version": ..., "by_fingerprint":
        {fingerprint: [(QueryKey, SynthesisResult), ...]}}`` written
        atomically (temp file + ``os.replace``), so a reader never sees a
        half-written file and a crash mid-save leaves the previous
        snapshot intact.  Returns the number of entries written.

        ``project_weights`` (a ``ProjectWeightTables.to_doc()`` document)
        rides along when given, so a respawned replica restores the same
        per-project ranking behaviour with its warm cache.  The key is
        additive: version-1 snapshots without it restore fine, and older
        readers ignore it.

        Staleness is impossible by construction: every key embeds the
        content fingerprint of the prepared environment, so a restored
        entry is only ever served to a query against byte-identical scene
        content — editing a scene changes its fingerprint and misses.
        Cached results are always *base* (un-reranked) results, so
        snapshots are agnostic to whatever weigher chain is configured.
        """
        import os
        import pickle
        import tempfile

        by_fingerprint: dict[str, list] = {}
        for key, result in entries:
            by_fingerprint.setdefault(key.environment_fingerprint,
                                      []).append((key, result))
        payload = {"version": SNAPSHOT_VERSION,
                   "by_fingerprint": by_fingerprint}
        if project_weights is not None:
            payload["project_weights"] = project_weights
        directory = os.path.dirname(os.path.abspath(path)) or "."
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".snapshot-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(payload, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(entries)

    def snapshot_results(self, path: str) -> int:
        """Persist the result cache to *path* for cross-process warm-up.

        Collect + write in one call — for single-threaded callers; a
        serving layer splits the two (see :meth:`collect_results`).
        """
        return self.write_snapshot(path, self.collect_results(),
                                   project_weights=self.project_weights_doc())

    def project_weights_doc(self) -> Optional[dict]:
        """The installed per-project tables as a snapshot-ready document."""
        if self.project_weights is None:
            return None
        return self.project_weights.to_doc()

    def restore_results(self, path: str,
                        fingerprints: Optional[set] = None) -> int:
        """Load a :meth:`snapshot_results` file into the result cache.

        Forgiving by design — a replica must come up cold rather than not
        at all: a missing, unreadable, wrong-version or corrupt snapshot
        restores nothing and returns 0.  Every entry is validated against
        the fingerprint it is filed under (``key.environment_fingerprint``
        must match), so a tampered or mis-merged file can never serve a
        result for the wrong scene content.  Pass ``fingerprints`` to
        restore only entries for those environments.  Returns the number
        of entries restored.
        """
        snapshot = self.read_snapshot(path)
        if snapshot is None:
            return 0
        weights_doc = snapshot.get("project_weights")
        if weights_doc is not None and self.project_weights is None:
            # Explicit configuration (``--project-weights``) wins over the
            # snapshot; a bare respawn gets its ranking behaviour back.
            try:
                self.project_weights = ProjectWeightTables.from_doc(
                    weights_doc)
            except Exception:   # noqa: BLE001 — forgiving, like the cache
                pass
        return self.merge_results(snapshot, fingerprints)

    @staticmethod
    def read_snapshot(path: str) -> Optional[dict]:
        """Unpickle and version-check a snapshot file (any thread).

        ``None`` for a missing, unreadable, wrong-version or corrupt
        file.  Split from :meth:`merge_results` so a serving layer can
        read on an executor and merge on the cache's owning thread.
        """
        import pickle

        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except Exception:   # noqa: BLE001 — any unreadable file = cold start
            return None
        if (not isinstance(payload, dict)
                or payload.get("version") != SNAPSHOT_VERSION
                or not isinstance(payload.get("by_fingerprint"), dict)):
            return None
        return payload

    def merge_results(self, snapshot: dict,
                      fingerprints: Optional[set] = None) -> int:
        """Put a :meth:`read_snapshot` payload's valid entries into the
        result cache (only those under *fingerprints*, when given)."""
        restored = 0
        for fingerprint, entries in snapshot["by_fingerprint"].items():
            if fingerprints is not None and fingerprint not in fingerprints:
                continue
            if not isinstance(entries, list):
                continue
            for entry in entries:
                if not (isinstance(entry, tuple) and len(entry) == 2):
                    continue
                key, result = entry
                if (not isinstance(key, QueryKey)
                        or key.environment_fingerprint != fingerprint):
                    continue
                self.results.put(key, result)
                restored += 1
        return restored

    # -- scene lifecycle -----------------------------------------------------

    def purge_results(self, fingerprint: str) -> int:
        """Drop every cached result computed against *fingerprint*."""
        stale = [key for key in self.results
                 if key.environment_fingerprint == fingerprint]
        for key in stale:
            self.results.pop(key)
        return len(stale)

    def release_scene(self, prepared: PreparedScene, *,
                      shed_types: bool = True) -> int:
        """Release one prepared scene at a tenancy boundary.

        Drops the scene-table entry, every result cached against the
        scene's fingerprint, the scene's per-policy synthesizers, and the
        scene's environment arena (the prover's STRIP/MATCH memo state
        and stored proofs — see
        :meth:`~repro.core.environment.Environment.succinct_arena`);
        with ``shed_types`` (the default) also sheds the global
        succinct-type intern table — cleared outright when this was the
        last prepared scene, trimmed to its configured bound otherwise
        (see :func:`repro.core.succinct.trim_intern_table`).  This is the
        hook a serving layer's scene eviction calls so dropping a tenant
        actually frees memory.  Returns the number of purged results.

        Releasing is always safe: a subsequent :meth:`prepare` of the same
        scene simply rebuilds (and re-interns) from scratch, and any
        in-flight synthesis keeps the arena it started with alive until it
        finishes.
        """
        scene_key = prepared.scene_key
        if scene_key is None:
            scene_key = (prepared.base_environment.fingerprint(),
                         tuple(prepared.subtypes.edges()))
        self.scenes.pop(scene_key)
        purged = self.purge_results(prepared.fingerprint)
        prepared._synthesizers.clear()
        prepared.environment.release_arena()
        prepared.base_environment.release_arena()
        if shed_types:
            self.shed_types()
        return purged

    def shed_types(self) -> None:
        """Shed the global succinct-type tables for this engine's tenancy.

        Cleared outright when no prepared scenes remain; trimmed to a
        quarter of the *currently configured* intern-table bound otherwise
        (so operator-tuned limits keep shedding proportionally).  Split
        out from :meth:`release_scene` so a serving layer can run the shed
        off its event loop (``release_scene(..., shed_types=False)`` then
        ``shed_types()`` on an executor).
        """
        from repro.core import space, succinct
        if len(self.scenes) == 0:
            succinct.clear_intern_table()
            # The simple-type id table follows the same discipline: ids
            # stay cached on live instances (and are never reused), so
            # dropping the structural table only frees dead entries.
            space.trim_simple_type_ids(0)
        else:
            limit = succinct.intern_table_stats()["limit"]
            succinct.trim_intern_table(limit // 4)
            # Bound the simple-type table under scene churn too; live
            # scenes keep their ids through the instance caches.
            space.trim_simple_type_ids(limit // 4)

    def clear(self) -> None:
        """Drop all cached results and prepared scenes."""
        self.results.clear()
        self.scenes.clear()

    def __repr__(self) -> str:
        return (f"CompletionEngine({len(self.scenes)} scenes, "
                f"{len(self.results)} results, {self.cache_stats.as_text()})")

