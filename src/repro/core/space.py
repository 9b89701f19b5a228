"""Integer-ID arenas: succinct environments and simple types.

Exploration (§5.3) repeatedly extends environments with STRIP and asks
each one "which members return ``t``?".  Environments are frozensets of
thousands of :class:`~repro.core.succinct.SuccinctType`; manipulating
them structurally — hashing a whole set per request, re-sorting and
re-grouping every member for each distinct environment — dominates the
per-query prover cost once the serving layers (engine, server) have
amortised everything else.

:class:`EnvArena` interns environments as small integers and keeps three
memo structures per arena:

* ``env -> env_id`` — structural interning (one frozenset hash per
  *distinct* environment, ever);
* ``(env_id, stripped-type id) -> (result, env_id')`` — the STRIP
  transition memo: stripping the same type in the same environment is a
  dict hit, no set union;
* ``env_id -> {result -> sorted members}`` — the MATCH index, built
  *incrementally*: an extended environment merges only its added members
  into the parent's (already sorted) groups, never re-sorting the whole
  environment.

It also holds the scene's stored proofs (:meth:`EnvArena.find_proof`):
closed explored graphs the engine files under keys that name one of the
arena's environment ids, so they go with the arena.

An arena is a cache, never a correctness requirement: every query it
answers is derivable from the structural data it stores, dropping it
merely costs re-interning.  Arenas grow append-only — ids handed out
stay valid for the arena's lifetime — which is what makes concurrent
readers (the async server synthesises on several executor threads) safe
without read locks: insertion takes a per-arena lock, published ids
always point at fully built rows, and "release" is *replacement* (the
holder forgets the arena object) rather than in-place clearing, so an
in-flight exploration keeps its consistent snapshot until it finishes.

This module also hosts the **simple-type id table** used by the
reconstruction hot path (:func:`simple_type_id`): every simple
:class:`~repro.core.types.Type` gets a stable per-process integer id, so
reconstruction's memo tables (candidate lists, completion-bound levels,
pattern-environment unions) key on small ints instead of re-hashing
structural type spines.  Ids follow the same discipline as the succinct
``type_id`` counter: assigned from a monotonic counter that never
resets, so "same id => same structure" can never be violated; the id is
additionally cached on the type instance itself (and excluded from
pickling — see ``Type.__getstate__``), making repeat lookups a plain
attribute read.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Iterable, Optional

from repro.core.succinct import SuccinctType, sort_key, type_id
from repro.core.types import Type

#: An environment in succinct space: just the set of member types.
EnvKey = frozenset  # frozenset[SuccinctType]

#: Default bound on interned environments per arena.  The request space of
#: one scene is finite (subterm-closure), but adversarial scenes could
#: push it far; past the bound the *next* `arena_for`-style accessor swaps
#: in a fresh arena (see `Environment.succinct_arena`).
DEFAULT_MAX_ENVS = 1 << 14

#: The lifetime counters of an arena (:class:`ArenaCounts`).
COUNTERS = ("transition_hits", "transition_misses", "index_merges",
            "proof_hits", "proof_stores")


class ArenaCounts:
    """One arena's counters.

    Held by the arena and by :data:`_ARENAS`, so they outlive the arena:
    a collected arena has its counts folded into :data:`_RETIRED` by the
    next :func:`_sweep`.  Nothing runs when an arena dies, so nothing can
    block on :data:`_RETIRED_LOCK` there.
    """

    __slots__ = COUNTERS + ("envs",)

    def __init__(self) -> None:
        for name in COUNTERS:
            setattr(self, name, 0)
        self.envs = 0


#: serial -> (weak reference to an arena, its counts), for aggregate
#: statistics only.  Guarded by :data:`_RETIRED_LOCK`.
_ARENAS: dict[int, tuple] = {}
_SERIALS = itertools.count()

#: Lifetime totals over collected arenas (so `/v1/stats` totals do not
#: shrink when a tenant is dropped): their counters, arenas and envs.
_RETIRED = dict.fromkeys(("arenas", "envs") + COUNTERS, 0)
_RETIRED_LOCK = threading.Lock()


def _sweep() -> list:
    """Fold collected arenas' counts into `_RETIRED`, each exactly once,
    and return the live arenas.  The caller holds `_RETIRED_LOCK`."""
    live = []
    for serial, (ref, counts) in list(_ARENAS.items()):
        arena = ref()
        if arena is not None:
            live.append(arena)
            continue
        del _ARENAS[serial]
        _RETIRED["arenas"] += 1
        _RETIRED["envs"] += counts.envs
        for name in COUNTERS:
            _RETIRED[name] += getattr(counts, name)
    return live


class EnvArena:
    """Intern table mapping succinct environments to dense integer ids."""

    #: Bound on stored proofs; past it the oldest stored one is dropped.
    MAX_PROOFS = 32

    def __init__(self, root: Optional[Iterable[SuccinctType]] = None,
                 max_envs: int = DEFAULT_MAX_ENVS):
        self._lock = threading.Lock()
        self._ids_by_key: dict[EnvKey, int] = {}
        self._members: list[EnvKey] = []
        self._indexes: list[dict[str, tuple[SuccinctType, ...]]] = []
        #: (env_id, type_id of the stripped type) -> (result, env_id').
        self._strips: dict[tuple[int, int], tuple[str, int]] = {}
        self.max_envs = max_envs
        self.counts = ArenaCounts()
        #: Stored proofs: key -> immutable tuple, replaced under the lock
        #: and read without it (see :meth:`find_proof`).
        self._proofs: dict[tuple, tuple] = {}
        #: Every stored ``(key, proof)``, oldest first, for the bound.
        self._proof_order: list[tuple] = []
        with _RETIRED_LOCK:
            _sweep()
            _ARENAS[next(_SERIALS)] = (weakref.ref(self), self.counts)
        if root is not None:
            self.intern(frozenset(root))

    # -- interning -----------------------------------------------------------

    def intern(self, members: EnvKey, parent: int = -1) -> int:
        """The id of *members*, interning (with index build) if new.

        ``parent`` is an optional id of an environment *members* extends;
        when given, the MATCH index is derived from the parent's by
        merging only the added members.
        """
        env_id = self._ids_by_key.get(members)
        if env_id is not None:
            return env_id
        with self._lock:
            env_id = self._ids_by_key.get(members)
            if env_id is not None:
                return env_id
            index = self._build_index(members, parent)
            self._members.append(members)
            self._indexes.append(index)
            self.counts.envs += 1
            env_id = len(self._members) - 1
            # Publish last: any thread that can see the id sees full rows.
            self._ids_by_key[members] = env_id
            return env_id

    def _build_index(self, members: EnvKey,
                     parent: int) -> dict[str, tuple[SuccinctType, ...]]:
        """``result -> members returning result``, sorted by `sort_key`.

        With a parent, only ``members - parent`` is sorted and merged into
        the parent's groups; concatenating two runs that are each already
        in `sort_key` order keeps every group exactly as a full re-sort
        would produce it (`sort_key` is a total structural order).
        """
        if parent < 0:
            grouped: dict[str, list[SuccinctType]] = {}
            for member in sorted(members, key=sort_key):
                grouped.setdefault(member.result, []).append(member)
            return {result: tuple(group)
                    for result, group in grouped.items()}
        self.counts.index_merges += 1
        added: dict[str, list[SuccinctType]] = {}
        for member in sorted(members - self._members[parent], key=sort_key):
            added.setdefault(member.result, []).append(member)
        index = dict(self._indexes[parent])
        for result, group in added.items():
            existing = index.get(result)
            if existing is None:
                index[result] = tuple(group)
            else:
                index[result] = tuple(sorted(existing + tuple(group),
                                             key=sort_key))
        return index

    # -- the STRIP transition ------------------------------------------------

    def strip(self, target: SuccinctType, env_id: int) -> tuple[str, int]:
        """The STRIP rule over ids: ``(S -> t) ;Gamma ?  =>  t ;Gamma+S ?``.

        Returns ``(basic result name, id of the extended environment)``.
        """
        if not target.arguments:
            return target.result, env_id
        key = (env_id, type_id(target))
        memo = self._strips.get(key)
        if memo is not None:
            self.counts.transition_hits += 1
            return memo
        self.counts.transition_misses += 1
        members = self._members[env_id]
        if target.arguments <= members:
            extended = env_id
        else:
            extended = self.intern(members | target.arguments, parent=env_id)
        memo = (target.result, extended)
        self._strips[key] = memo
        return memo

    # -- queries -------------------------------------------------------------

    def members(self, env_id: int) -> EnvKey:
        """The environment behind *env_id*, as the original frozenset."""
        return self._members[env_id]

    def members_returning(self, env_id: int,
                          target: str) -> tuple[SuccinctType, ...]:
        """All members of *env_id* whose result type is *target* (MATCH)."""
        return self._indexes[env_id].get(target, ())

    def __len__(self) -> int:
        return len(self._members)

    # -- stored proofs -------------------------------------------------------

    def find_proof(self, key: tuple, target: str, env_id: int):
        """``(proof, node)``: a proof stored under *key* whose graph has
        the request ``target ;env_id ?``, and that request's node; or
        ``None``.  Lock-free.

        The engine's ``PreparedScene.synthesize`` defines keys and proofs
        and says when answering from one is exact; the arena asks a proof
        only ``node(target, env_id)`` and ``root_request``.
        """
        for proof in self._proofs.get(key, ()):
            node = proof.node(target, env_id)
            if node is not None:
                self.counts.proof_hits += 1
                return proof, node
        return None

    def store_proof(self, key: tuple, proof) -> None:
        """File *proof* under *key*; drop the proofs under *key* whose root
        request its graph has (it answers all they did) and, past the
        bound, the oldest.
        """
        with self._lock:
            kept = tuple(stored for stored in self._proofs.get(key, ())
                         if proof.node(*stored.root_request) is None)
            self._proofs[key] = kept + (proof,)
            self._proof_order = [(stored_key, stored) for stored_key, stored
                                 in self._proof_order
                                 if stored_key != key or stored in kept]
            self._proof_order.append((key, proof))
            self.counts.proof_stores += 1
            while len(self._proof_order) > self.MAX_PROOFS:
                oldest_key, oldest = self._proof_order.pop(0)
                rest = tuple(stored for stored in self._proofs[oldest_key]
                             if stored is not oldest)
                if rest:
                    self._proofs[oldest_key] = rest
                else:
                    del self._proofs[oldest_key]

    def proof_count(self) -> int:
        """The number of stored proofs."""
        return len(self._proof_order)

    def oversized(self) -> bool:
        """True once the arena should be replaced at the next boundary.

        Never acted on mid-exploration: a running search keeps using the
        arena it started with (append-only growth stays valid), and the
        holder swaps in a fresh arena before the *next* query.
        """
        return len(self._members) > self.max_envs

    def stats(self) -> dict:
        return {
            "env_count": len(self._members),
            "max_envs": self.max_envs,
            "transitions": len(self._strips),
            **{name: getattr(self.counts, name) for name in COUNTERS},
            "proofs": self.proof_count(),
        }

    def __repr__(self) -> str:
        return (f"EnvArena({len(self._members)} envs, "
                f"{len(self._strips)} transitions)")


# -- simple-type ids ---------------------------------------------------------

#: Structural ``Type -> id`` table.  Only consulted when an instance does
#: not yet carry its cached id; after that, :func:`simple_type_id` is an
#: attribute read.  The table gives cross-instance consistency: two
#: structurally equal types always map to one id while both stay in the
#: table (and an instance keeps its cached id forever once assigned).
_SIMPLE_TYPE_IDS: dict[Type, int] = {}
_NEXT_SIMPLE_TYPE_ID = 0
_SIMPLE_TYPE_LOCK = threading.Lock()

#: Bound on the structural table, mirroring the succinct intern table's
#: discipline: past it the oldest entries are evicted on insert, so a
#: serving process fed unboundedly many distinct client goal types stays
#: bounded.  Instances keep their cached ids regardless (see the
#: eviction caveat on :func:`trim_simple_type_ids`).
DEFAULT_SIMPLE_TYPE_LIMIT = 1 << 17

#: Attribute the id is cached under on the type instance.  Excluded from
#: pickling (``BaseType.__getstate__`` / ``Arrow.__getstate__``): ids are
#: per-process, so a cache restored from a result-cache snapshot would be
#: silently wrong — and could silently collide — in the process that
#: loads it.
_SIMPLE_TYPE_ID_ATTR = "_simple_type_id"


def simple_type_id(tpe: Type) -> int:
    """The stable per-process integer id of simple type *tpe*.

    Distinct structures never share an id (the counter is monotonic and
    never reset); structurally equal instances share one id via the
    structural table.  The id is cached on the instance, so the common
    case — reconstruction re-asking about the same declaration/uncurry
    type objects — is a single attribute read with no hashing at all.
    """
    global _NEXT_SIMPLE_TYPE_ID
    try:
        return object.__getattribute__(tpe, _SIMPLE_TYPE_ID_ATTR)
    except AttributeError:
        pass
    with _SIMPLE_TYPE_LOCK:
        assigned = _SIMPLE_TYPE_IDS.get(tpe)
        if assigned is None:
            assigned = _NEXT_SIMPLE_TYPE_ID
            _NEXT_SIMPLE_TYPE_ID += 1
            _SIMPLE_TYPE_IDS[tpe] = assigned
            while len(_SIMPLE_TYPE_IDS) > DEFAULT_SIMPLE_TYPE_LIMIT:
                del _SIMPLE_TYPE_IDS[next(iter(_SIMPLE_TYPE_IDS))]
    object.__setattr__(tpe, _SIMPLE_TYPE_ID_ATTR, assigned)
    return assigned


def simple_type_stats() -> dict:
    """Size and id high-water mark of the simple-type id table."""
    return {"size": len(_SIMPLE_TYPE_IDS),
            "ids_assigned": _NEXT_SIMPLE_TYPE_ID}


def trim_simple_type_ids(max_entries: int = 0) -> int:
    """Shed structural table entries down to *max_entries* (oldest first).

    Safe at any time: instances keep their cached ids (attribute cache),
    and a structurally equal *new* instance interned after a trim simply
    gets a fresh id — memo entries under the old id go cold, exactly the
    eviction contract of the succinct ``type_id`` table.  Engine tenancy
    boundaries call this so a dropped scene's types can be collected.

    Eviction caveat (shared with the succinct table): after a trim, a
    *fresh* instance of an evicted structure gets a new id while older
    instances keep their cached one, so id-keyed reconstruction memos
    treat the two as distinct and rebuild — which may draw extra fresh
    binder names.  Emitted term structure, weights and ranking are
    unaffected (the memos are pure), but binder-name choices across a
    trim boundary can differ from an untrimmed process.  Within one
    uninterrupted tenancy — the determinism contract the parity suite
    asserts — no trim occurs and results are bit-reproducible.
    """
    evicted = 0
    with _SIMPLE_TYPE_LOCK:
        while len(_SIMPLE_TYPE_IDS) > max_entries:
            oldest = next(iter(_SIMPLE_TYPE_IDS))
            del _SIMPLE_TYPE_IDS[oldest]
            evicted += 1
    return evicted


def arena_stats() -> dict:
    """Aggregate arena statistics: live arenas plus collected totals.

    The ``transition_memo_hits``-style counters and the proof counters
    are process-lifetime (every arena, collected ones included), so
    serving dashboards see monotone rates; the ``env_count`` and
    ``proofs`` gauges cover live arenas only.  An arena lives while any
    scene holds it: an edited scene keeps its donor's arena after the
    donor's release.
    """
    with _RETIRED_LOCK:
        live = _sweep()
        retired = dict(_RETIRED)
    totals = {name: retired[name] + sum(getattr(arena.counts, name)
                                        for arena in live)
              for name in COUNTERS}
    return {
        "live_arenas": len(live),
        "env_count": sum(len(arena) for arena in live),
        "transition_memo_hits": totals["transition_hits"],
        "transition_memo_misses": totals["transition_misses"],
        "index_merges": totals["index_merges"],
        "proofs": sum(arena.proof_count() for arena in live),
        "proof_hits": totals["proof_hits"],
        "proof_stores": totals["proof_stores"],
        "retired_arenas": retired["arenas"],
        "retired_envs": retired["envs"],
    }
