"""Succinct types and the sigma conversion (paper §3.2).

Succinct types are simple types taken modulo the isomorphisms of currying and
products — equivalently, modulo commutativity, associativity and idempotence
of intuitionistic conjunction:

    ts ::= {ts, ..., ts} -> v        where v is a basic type

``sigma`` maps every simple type into this representation:

    sigma(v)          = {} -> v
    sigma(t1 -> t2)   = ({sigma(t1)} union A(sigma(t2))) -> R(sigma(t2))

Because the arguments form a *set*, ``A -> A -> B`` and ``A -> B`` (after the
duplicate collapses) and every argument permutation share one representative.
This is the representation that collapsed 3356 declarations to 1783 types in
the paper's running example, and the whole exploration phase works on it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

from repro.core.types import Arrow, BaseType, Type, uncurry


@dataclass(frozen=True)
class SuccinctType:
    """A succinct type ``{t1, ..., tn} -> result``.

    ``arguments`` is a frozenset of succinct types; ``result`` is the name of
    a basic type.  The basic succinct type ``v`` is represented — exactly as
    in the paper — as ``{} -> v``.
    """

    arguments: frozenset["SuccinctType"]
    result: str

    @property
    def is_primitive(self) -> bool:
        """True for ``{} -> v``, the succinct image of a basic type."""
        return not self.arguments

    def sorted_arguments(self) -> tuple["SuccinctType", ...]:
        """The argument set in canonical (deterministic) order.

        Memoised per structural value: exploration asks for the premises
        of every matched member at every visit, and re-sorting the same
        small set thousands of times adds up.
        """
        cached = _SORTED_ARGS.get(self)
        if cached is None:
            cached = tuple(sorted(self.arguments, key=sort_key))
            if len(_SORTED_ARGS) >= MEMO_CACHE_SIZE:
                _SORTED_ARGS.clear()
            _SORTED_ARGS[self] = cached
        return cached

    def __str__(self) -> str:
        return format_succinct(self)

    def __hash__(self) -> int:
        # Cached: succinct types key the intern table, environment sets and
        # per-env indexes; the generated hash re-hashes the argument
        # frozenset tuple on every lookup.
        try:
            return object.__getattribute__(self, "_hash_cache")
        except AttributeError:
            value = hash((self.arguments, self.result))
            object.__setattr__(self, "_hash_cache", value)
            return value

    def __getstate__(self):
        # Never pickle the cached hash: string hashing is per-process
        # randomised, so a restored cache would be silently wrong in the
        # process that unpickles it.  Result-cache snapshots, the one
        # payload that crosses processes, carry no succinct types; this
        # keeps any other pickle safe too.
        state = dict(self.__dict__)
        state.pop("_hash_cache", None)
        return state


#: Canonical-instance table: one shared object per distinct succinct type.
#: A long-lived engine holds many environments whose signatures overlap
#: heavily; interning keeps one copy of each type and makes repeated
#: hashing/equality cheap (dict hits instead of deep structural work).
#:
#: The table is *bounded*: once it holds more than the configured limit,
#: the oldest entries (dict insertion order) are dropped.  Eviction is
#: always safe — interning is a sharing optimisation, never a correctness
#: requirement: equality and hashing on :class:`SuccinctType` are
#: structural, so a live scene that still references an evicted instance
#: keeps working, and a later request for the same structure simply
#: interns a fresh canonical copy.  Long-lived multi-tenant processes can
#: additionally call :func:`trim_intern_table` (the engine's
#: ``release_scene`` path does) or :func:`clear_intern_table` at tenancy
#: boundaries.
_INTERN_TABLE: dict["SuccinctType", "SuccinctType"] = {}

#: Stable per-process integer id of each interned instance.  Ids are
#: assigned from a monotonic counter that never resets, so an id can
#: never be reused for a different structure: consumers (the environment
#: arena in :mod:`repro.core.space`) key memo tables by id and rely only
#: on "same id => same structure", which eviction cannot violate — an
#: evicted-and-re-interned type simply gets a *fresh* id and the stale
#: memo entry goes cold.
_TYPE_IDS: dict["SuccinctType", int] = {}
_NEXT_TYPE_ID = 0

#: Structural-value memo for :meth:`SuccinctType.sorted_arguments`.
_SORTED_ARGS: dict["SuccinctType", tuple] = {}

#: Per-instance memo for :func:`succinct_subterms` (see there).
_SUBTERMS: dict["SuccinctType", frozenset] = {}

#: Default bound on interned instances.  The paper's biggest scene maps
#: 3356 declarations to 1783 succinct types, so a quarter-million entries
#: is room for hundreds of concurrently-live large scenes.
DEFAULT_INTERN_LIMIT = 1 << 18

#: Bound on the ``sigma``/``sort_key`` memo caches (per-type conversion
#: results; small entries, but previously unbounded).
MEMO_CACHE_SIZE = 1 << 16

_INTERN_LIMIT = DEFAULT_INTERN_LIMIT
_INTERN_EVICTIONS = 0

#: Guards table *mutation*: the async server interns from executor
#: threads while the event loop trims at scene release.  Lock-free reads
#: (plain dict get) stay on the hot path; insert/evict take the lock.
_INTERN_LOCK = threading.Lock()


def _evict_oldest_locked() -> bool:
    """Drop the oldest entry; caller holds :data:`_INTERN_LOCK`."""
    global _INTERN_EVICTIONS
    try:
        oldest = next(iter(_INTERN_TABLE))
    except StopIteration:                   # empty table
        return False
    del _INTERN_TABLE[oldest]
    _TYPE_IDS.pop(oldest, None)
    _INTERN_EVICTIONS += 1
    return True


def intern_succinct(stype: SuccinctType) -> SuccinctType:
    """The canonical shared instance structurally equal to *stype*."""
    global _NEXT_TYPE_ID
    canonical = _INTERN_TABLE.get(stype)
    if canonical is None:
        with _INTERN_LOCK:
            canonical = _INTERN_TABLE.get(stype)
            if canonical is None:
                _INTERN_TABLE[stype] = stype
                _TYPE_IDS[stype] = _NEXT_TYPE_ID
                _NEXT_TYPE_ID += 1
                canonical = stype
                while (len(_INTERN_TABLE) > _INTERN_LIMIT
                       and _evict_oldest_locked()):
                    pass
    return canonical


def type_id(stype: SuccinctType) -> int:
    """The stable per-process integer id of *stype* (interning it first).

    Two structurally equal types always map to the same id while either
    stays interned; distinct structures never share an id (the counter is
    monotonic and never reset, even by :func:`clear_intern_table`).
    """
    global _NEXT_TYPE_ID
    assigned = _TYPE_IDS.get(stype)
    if assigned is not None:
        return assigned
    canonical = intern_succinct(stype)
    assigned = _TYPE_IDS.get(canonical)
    if assigned is None:
        # The instance predates id-tracking (interned before this module
        # was reloaded) or was evicted between the intern and the lookup;
        # assign directly.
        with _INTERN_LOCK:
            assigned = _TYPE_IDS.get(canonical)
            if assigned is None:
                assigned = _NEXT_TYPE_ID
                _NEXT_TYPE_ID += 1
                _TYPE_IDS[canonical] = assigned
    return assigned


def intern_table_size() -> int:
    """Number of distinct succinct types currently interned."""
    return len(_INTERN_TABLE)


def intern_table_stats() -> dict:
    """Size, limit, id high-water mark and lifetime evictions."""
    return {"size": len(_INTERN_TABLE), "limit": _INTERN_LIMIT,
            "evictions": _INTERN_EVICTIONS,
            "type_ids_assigned": _NEXT_TYPE_ID,
            "subterm_memo": len(_SUBTERMS)}


def _clear_derived_memos() -> None:
    """Drop every memo that pins interned instances (they all rebuild).

    ``uncurry``'s memo pins no succinct types, but it keeps every simple
    type it has split alive, released scenes' included.
    """
    sigma.cache_clear()
    sort_key.cache_clear()
    uncurry.cache_clear()
    _SORTED_ARGS.clear()
    _SUBTERMS.clear()


def set_intern_table_limit(limit: int) -> int:
    """Set the intern-table bound; returns the previous limit.

    The new bound is applied immediately (oldest entries evicted first);
    if that evicted anything, the ``sigma``/``sort_key`` memos — which
    pin interned instances — are cleared too, so the memory actually
    frees.
    """
    global _INTERN_LIMIT
    if limit <= 0:
        raise ValueError(f"intern table limit must be positive, got {limit}")
    with _INTERN_LOCK:
        previous = _INTERN_LIMIT
        _INTERN_LIMIT = limit
        before = len(_INTERN_TABLE)
        while len(_INTERN_TABLE) > _INTERN_LIMIT and _evict_oldest_locked():
            pass
        evicted = before - len(_INTERN_TABLE)
    if evicted:
        _clear_derived_memos()
    return previous


#: Entries evicted per lock acquisition by :func:`trim_intern_table`, so a
#: large shed never holds interning threads on the lock for long.
TRIM_CHUNK = 4096


def trim_intern_table(max_entries: int = 0) -> int:
    """Shed interned instances down to *max_entries*; returns evicted count.

    The ``sigma``/``sort_key`` memo caches pin interned instances, so a
    trim that actually evicts also clears them — they are pure memos and
    rebuild on demand.  This is the engine's scene-release hook: evicting
    a prepared scene calls this so the types it interned can be freed.
    Eviction happens in :data:`TRIM_CHUNK`-sized bites, releasing the
    intern lock between chunks, so a multi-hundred-thousand-entry shed
    stays a sequence of short pauses rather than one long stall.
    """
    total = 0
    while True:
        with _INTERN_LOCK:
            chunk = 0
            while (len(_INTERN_TABLE) > max_entries and chunk < TRIM_CHUNK
                   and _evict_oldest_locked()):
                chunk += 1
            done = len(_INTERN_TABLE) <= max_entries or chunk == 0
        total += chunk
        if done:
            break
    if total:
        _clear_derived_memos()
    return total


def clear_intern_table() -> None:
    """Drop all interned instances (and the memoised conversions over them)."""
    with _INTERN_LOCK:
        _INTERN_TABLE.clear()
        _TYPE_IDS.clear()
    _clear_derived_memos()


def primitive(name: str) -> SuccinctType:
    """The succinct type ``{} -> name``."""
    return intern_succinct(SuccinctType(frozenset(), name))


def succinct(arguments: frozenset[SuccinctType] | set[SuccinctType] | tuple,
             result: str) -> SuccinctType:
    """Construct ``{arguments} -> result``."""
    return intern_succinct(SuccinctType(frozenset(arguments), result))


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def sort_key(stype: SuccinctType) -> tuple:
    """A total order on succinct types (for deterministic iteration).

    Memoised: exploration sorts environments with thousands of members, and
    the recursive key would otherwise be recomputed per comparison.
    """
    return (stype.result, len(stype.arguments),
            tuple(sorted(sort_key(argument) for argument in stype.arguments)))


@lru_cache(maxsize=MEMO_CACHE_SIZE)
def sigma(tpe: Type) -> SuccinctType:
    """The sigma conversion from simple to succinct types (§3.2)."""
    if isinstance(tpe, BaseType):
        return primitive(tpe.name)
    assert isinstance(tpe, Arrow)
    tail = sigma(tpe.result)
    return intern_succinct(
        SuccinctType(frozenset((sigma(tpe.argument),)) | tail.arguments,
                     tail.result))


def arguments_of(stype: SuccinctType) -> frozenset[SuccinctType]:
    """The paper's ``A`` function."""
    return stype.arguments


def result_of(stype: SuccinctType) -> str:
    """The paper's ``R`` function (name of the basic result type)."""
    return stype.result


def succinct_subterms(stype: SuccinctType) -> frozenset[SuccinctType]:
    """All succinct types reachable through argument sets, inclusive.

    The backward search (§5.3) only ever adds such subterms to the
    environment, which is what makes its state space finite.

    Memoised per interned instance: the bare recursion re-walks shared
    argument structure, which is worst-case exponential on deeply nested
    curried types (each nesting level revisits every subterm below it);
    with the memo each distinct subterm is expanded exactly once.
    """
    stype = intern_succinct(stype)
    cached = _SUBTERMS.get(stype)
    if cached is not None:
        return cached
    collected = {stype}
    for argument in stype.arguments:
        collected |= succinct_subterms(argument)
    result = frozenset(collected)
    if len(_SUBTERMS) >= MEMO_CACHE_SIZE:
        _SUBTERMS.clear()
    _SUBTERMS[stype] = result
    return result


def format_succinct(stype: SuccinctType) -> str:
    """Render a succinct type; primitives print bare, like the paper."""
    if stype.is_primitive:
        return stype.result
    inner = ", ".join(format_succinct(a) for a in stype.sorted_arguments())
    return "{" + inner + "} -> " + stype.result


def compression_ratio(types: list[Type]) -> tuple[int, int]:
    """Return ``(len(types), distinct succinct images)`` — the §3.2 statistic.

    In the paper's Figure 1 scene this was 3356 declarations against 1783
    succinct types.
    """
    return len(types), len({sigma(tpe) for tpe in types})
