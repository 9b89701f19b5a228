"""Type environments and declarations (paper §3).

An :class:`Environment` is the paper's Gamma_o: a finite set of declarations
``name : tau``.  Each declaration additionally carries

* a :class:`DeclKind` — the "nature" from Table 1 (lambda binder, local,
  coercion, class member, package member, literal, imported) that determines
  its base weight;
* a usage ``frequency`` mined from the corpus (only meaningful for imported
  declarations);
* an optional :class:`RenderSpec` telling the snippet renderer whether the
  declaration is a constructor, an instance method, a field, ... so that the
  lambda term ``FileInputStream.new name`` prints as
  ``new FileInputStream(name)``.

Environments are immutable.  The reconstruction phase extends them with
fresh lambda binders; ``extended`` creates a chained child environment in
O(new declarations) so deep searches stay cheap.

The ``select`` method is the paper's ``Select(Gamma_o, t)`` from Fig. 4: all
declarations whose type's sigma image equals the requested succinct type.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.core.errors import EnvironmentError_
from repro.core.succinct import SuccinctType, sigma
from repro.core.types import Type


class DeclKind(enum.Enum):
    """The declaration natures of Table 1, ordered by preference."""

    LAMBDA = "lambda"
    LOCAL = "local"
    COERCION = "coercion"
    CLASS_MEMBER = "class"
    PACKAGE_MEMBER = "package"
    LITERAL = "literal"
    IMPORTED = "imported"


class RenderStyle(enum.Enum):
    """How a declaration head should be printed in a code snippet."""

    VALUE = "value"                  # plain identifier:        name
    CONSTRUCTOR = "constructor"      # new Simple(args...)
    METHOD = "method"                # receiver.name(args...)
    STATIC_METHOD = "static_method"  # Owner.name(args...)
    FIELD = "field"                  # receiver.name
    STATIC_FIELD = "static_field"    # Owner.name
    FUNCTION = "function"            # name(args...)
    LITERAL = "literal"              # verbatim text
    COERCION = "coercion"            # invisible: renders as its argument


@dataclass(frozen=True)
class RenderSpec:
    """Rendering metadata for a declaration head."""

    style: RenderStyle = RenderStyle.VALUE
    display: str = ""

    def display_or(self, fallback: str) -> str:
        return self.display or fallback


@dataclass(frozen=True)
class Declaration:
    """A typed declaration ``name : type`` with ranking metadata."""

    name: str
    type: Type
    kind: DeclKind = DeclKind.LOCAL
    frequency: int = 0
    render: Optional[RenderSpec] = None

    @property
    def succinct_type(self) -> SuccinctType:
        return sigma(self.type)

    @property
    def is_coercion(self) -> bool:
        return self.kind is DeclKind.COERCION

    @property
    def fingerprint_bytes(self) -> bytes:
        """This declaration's contribution to an environment fingerprint.

        Cached on the instance: declarations are immutable and shared
        across every environment that contains them, so the type
        formatting behind the digest is paid once per declaration, not
        once per fingerprinted environment — which is what makes
        re-fingerprinting a 10k-declaration scene after a one-line edit
        cheap.
        """
        cached = self.__dict__.get("_fingerprint_bytes")
        if cached is None:
            render = self.render
            cached = repr((
                self.name, str(self.type), self.kind.value, self.frequency,
                render.style.value if render is not None else None,
                render.display if render is not None else None,
            )).encode("utf-8") + b"\x00"
            object.__setattr__(self, "_fingerprint_bytes", cached)
        return cached

    def __str__(self) -> str:
        return f"{self.name} : {self.type}"


def declaration(name: str, tpe: Type, kind: DeclKind = DeclKind.LOCAL,
                frequency: int = 0,
                render: Optional[RenderSpec] = None) -> Declaration:
    """Convenience constructor mirroring :class:`Declaration`."""
    return Declaration(name, tpe, kind, frequency, render)


class Environment:
    """An immutable set of declarations with a ``Select`` index.

    Duplicate names are rejected: the paper's calculus identifies
    declarations by name, and synthesis introduces only fresh binder names.
    """

    def __init__(self, declarations: Iterable[Declaration] = (),
                 _parent: Optional["Environment"] = None):
        self._parent = _parent
        self._declarations: tuple[Declaration, ...] = tuple(declarations)
        self._by_name: dict[str, Declaration] = {}
        grouped: dict[SuccinctType, list[Declaration]] = {}
        for decl in self._declarations:
            if decl.name in self._by_name or (
                    _parent is not None and _parent.lookup(decl.name) is not None):
                raise EnvironmentError_(f"duplicate declaration name: {decl.name!r}")
            self._by_name[decl.name] = decl
            grouped.setdefault(decl.succinct_type, []).append(decl)
        # Stored as tuples so ``select`` returns them without a copy.
        self._by_succinct: dict[SuccinctType, tuple[Declaration, ...]] = {
            stype: tuple(decls) for stype, decls in grouped.items()}
        self._weight_memos: dict = {}  # WeightPolicy -> {SuccinctType: float}
        self._decl_weight_memos: dict = {}  # WeightPolicy -> {id(decl): float}
        self._recon_memos: dict = {}  # WeightPolicy -> candidate-list memo
        self._pattern_env_memo: dict = {}  # frozenset -> frozenset
        self._succinct_env: Optional[frozenset[SuccinctType]] = None
        self._reserved_names: Optional[frozenset[str]] = None
        self._fingerprint: Optional[str] = None
        self._arena = None  # lazily built EnvArena (see succinct_arena)

    # -- construction -------------------------------------------------------

    @staticmethod
    def of(*declarations: Declaration) -> "Environment":
        return Environment(declarations)

    def extended(self, declarations: Iterable[Declaration]) -> "Environment":
        """A child environment with *declarations* added (names must be new)."""
        return Environment(declarations, _parent=self)

    @classmethod
    def reindexed(cls, declarations: tuple[Declaration, ...],
                  by_name: dict, by_succinct: dict) -> "Environment":
        """A flat environment from pre-built index structures.

        The delta path's constructor: a one-declaration edit of a large
        scene should not regroup every declaration, so the caller (see
        :func:`repro.incremental.delta.apply_scene_delta`) maintains the
        name table and Select index incrementally and hands them over.
        The caller owns the invariants the normal constructor checks and
        derives: no duplicate names, and both indexes consistent with
        *declarations* in declaration order — the fingerprint/parity
        test-suite is the gate on that contract.
        """
        env = cls.__new__(cls)
        env._parent = None
        env._declarations = declarations
        env._by_name = by_name
        env._by_succinct = by_succinct
        env._weight_memos = {}
        env._decl_weight_memos = {}
        env._recon_memos = {}
        env._pattern_env_memo = {}
        env._succinct_env = None
        env._reserved_names = None
        env._fingerprint = None
        env._arena = None
        return env

    # -- queries -------------------------------------------------------------

    def lookup(self, name: str) -> Optional[Declaration]:
        """The declaration bound to *name*, or ``None``."""
        decl = self._by_name.get(name)
        if decl is not None:
            return decl
        if self._parent is not None:
            return self._parent.lookup(name)
        return None

    def __contains__(self, name: str) -> bool:
        return self.lookup(name) is not None

    def select(self, stype: SuccinctType) -> tuple[Declaration, ...]:
        """All declarations whose sigma image is *stype* (Fig. 4's Select)."""
        local = self._by_succinct.get(stype, ())
        if self._parent is None:
            return local
        return self._parent.select(stype) + local

    def succinct_environment(self) -> frozenset[SuccinctType]:
        """sigma(Gamma_o): the set of succinct types of all declarations."""
        if self._succinct_env is None:
            own = frozenset(self._by_succinct)
            if self._parent is not None:
                own |= self._parent.succinct_environment()
            self._succinct_env = own
        return self._succinct_env

    def reserved_names(self) -> frozenset[str]:
        """All declaration names in scope, as one shared frozen set.

        Computed once per environment and cached: reconstruction needs the
        full protected-name set to seed its fresh-name supply, and a large
        scene has ~10k declarations — rebuilding the list per query used to
        cost more than many whole queries.  The set is immutable, so every
        :class:`~repro.core.names.NameSupply` over this environment shares
        it by reference (``frozen=``) instead of copying it.
        """
        if self._reserved_names is None:
            own = frozenset(self._by_name)
            if self._parent is not None:
                own |= self._parent.reserved_names()
            self._reserved_names = own
        return self._reserved_names

    def type_weight_memo(self, policy) -> dict:
        """The mutable ``succinct type -> w(t, Gamma_o)`` memo for *policy*.

        Request priorities (§5.6) are pure in (environment, policy), and
        environments are immutable, so the memo lives here: every fresh
        :class:`~repro.core.synthesizer.Synthesizer` over this environment
        starts with the weights earlier ones already computed.
        """
        memo = self._weight_memos.get(policy)
        if memo is None:
            memo = self._weight_memos.setdefault(policy, {})
        return memo

    def declaration_weight_memo(self, policy) -> dict:
        """The ``id(declaration) -> weight`` memo for *policy*.

        Keyed by identity: every declaration in scope is pinned by this
        environment for its whole lifetime, and reconstruction weighs
        thousands of them per query.  Like :meth:`type_weight_memo`, the
        values are pure in (environment, policy).
        """
        memo = self._decl_weight_memos.get(policy)
        if memo is None:
            memo = self._decl_weight_memos.setdefault(policy, {})
        return memo

    def candidate_list_memo(self, policy) -> dict:
        """Cross-query memo for reconstruction's root-scope candidate lists.

        Keyed by ``(hole simple-type id, pattern slice tuple)`` — the exact
        inputs a candidate list is a pure function of in the empty binder
        scope (plus this environment and *policy*, which select the memo).
        Values are ``(names_needed, candidates)``: a hit must still draw
        ``names_needed`` fresh binder names so the reconstructor's name
        supply stays in lockstep with a cold run (binder names drawn while
        building a list are consumed even though they never outlive it).
        Pattern slices compare pointer-fast on a warm scene arena because
        the environment frozensets inside patterns are shared instances.
        Entries survive scene edits: a delta that keeps sigma(Gamma_o)
        hands the edited environment every entry whose slice does not
        touch a dirty sigma image (see :meth:`adopt_prepared_state`).
        """
        memo = self._recon_memos.get(policy)
        if memo is None:
            memo = self._recon_memos.setdefault(policy, {})
        return memo

    def pattern_env_memo(self) -> dict:
        """``binder sigma set -> sigma(Gamma_o) | sigmas`` (cross-query).

        The union re-walks the full succinct signature (thousands of
        types), so it is memoised here — pure in (environment, sigma set)
        — rather than per reconstructor.
        """
        return self._pattern_env_memo

    def succinct_arena(self):
        """The scene-scoped :class:`~repro.core.space.EnvArena` for this
        environment, built lazily over ``sigma(Gamma_o)``.

        The arena carries the prover's STRIP transition memo and MATCH
        indexes from query to query, which is what makes warm per-query
        prover latency cheap.  An arena that has outgrown its bound is
        *replaced* here (never cleared in place), so any exploration that
        started on the old one keeps its consistent snapshot.
        """
        from repro.core.space import EnvArena  # deferred: keeps import DAG flat

        arena = self._arena
        if arena is None or arena.oversized():
            arena = EnvArena(self.succinct_environment())
            self._arena = arena
        return arena

    def release_arena(self) -> None:
        """Drop this environment's reference to its arena (engine scene
        release calls this).

        The arena, its stored proofs included, lives on while anything
        else holds it: an in-flight exploration, or an edited scene that
        adopted it (:meth:`adopt_prepared_state`).  It goes with the last
        holder.
        """
        self._arena = None

    def adopt_prepared_state(self, donor: "Environment",
                             dirty_stypes: Iterable[SuccinctType]) -> None:
        """Inherit *donor*'s warm prover, weight and reconstruction state
        after a declaration delta (the incremental-scene re-prepare path).

        ``dirty_stypes`` must be the sigma images of every declaration the
        delta added or removed.  Five pieces of state transfer, each with
        an exactness argument:

        * **Arena.**  The arena is content-addressed (a cache, never a
          correctness requirement), so the whole object is shared: every
          STRIP transition and interned environment stays warm.  Our new
          root is interned with the donor's root as ``parent`` when it is
          a superset, so only the added members are merged into the MATCH
          index instead of re-sorting all of sigma(Gamma_o).
        * **sigma(Gamma_o) itself.**  This environment's succinct
          environment becomes the arena's interned instance.  Patterns
          carry that instance as their ``env``, and reconstruction looks
          up every hole's pattern slice by ``sigma(Gamma_o)``; sharing it
          keeps those dict probes identity hits instead of element-by-
          element comparisons of two equal sets of thousands of members.
        * **Type-weight memos.**  ``w(t, Gamma_o)`` is the minimum
          declaration weight over ``select(t)``, and ``select(t)`` only
          sees declarations whose sigma image *is* ``t`` — so exactly the
          dirty types can change and everything else transfers verbatim.
        * **Declaration-weight memos.**  Keyed by ``id(decl)`` and pure in
          (kind, frequency, policy); entries transfer for declaration
          objects this environment still holds.  Donor-only ids are
          dropped (their objects may be freed and their ids reused).
        * **Reconstruction memos**, only when sigma(Gamma_o) is unchanged
          (a changed one changes every root pattern's ``env``, so no
          candidate-list key could hit, and every pattern-environment
          union changes).  A root-scope candidate list is a pure function
          of its key ``(hole simple-type id, pattern slice)``, of
          ``select(p.succinct_type())`` for each pattern ``p`` in the
          slice, and of declaration weights, which are pure in the
          declaration and the policy.  A delta changes ``select`` only at
          the dirty set, so the candidate-list memo transfers minus
          exactly the entries whose slice holds a pattern with a dirty
          image.  A removed declaration's candidates came from a pattern
          with that declaration's own image, which is dirty, so they are
          dropped and cannot come back.  Every pattern of a slice has the
          hole's result name, so only slices whose result is the result
          of a dirty image are scanned.  A hit still draws
          ``names_needed`` fresh names, keeping the name supply in
          lockstep as on any warm hit; a cached binder-headed candidate's
          own declaration name is never rendered (the head is the
          realized binder's fresh name).  Pattern-environment unions are
          pure in sigma(Gamma_o) and the binder sigma set, so that memo
          transfers whole.

        Each donor memo is read through one ``dict.copy()`` snapshot: a
        synthesis on the donor scene may be inserting into it from another
        thread, and iterating the live dict could raise "dictionary changed
        size during iteration".  ``copy()`` is one C call under the GIL
        and keeps every entry's stored hash, so dropping the few dirty
        candidate-list keys from the copy is cheaper than a comprehension
        that re-hashes every pattern slice.
        """
        dirty = frozenset(dirty_stypes)
        arena = donor._arena
        if arena is not None and not arena.oversized():
            old_root = arena.intern(donor.succinct_environment())
            new_root = self.succinct_environment()
            if new_root >= arena.members(old_root):
                new_id = arena.intern(new_root, parent=old_root)
            else:
                new_id = arena.intern(new_root)
            self._succinct_env = arena.members(new_id)
            self._arena = arena
            if new_id == old_root:
                dirty_results = {stype.result for stype in dirty}
                for policy, memo in list(donor._recon_memos.items()):
                    kept = memo.copy()
                    stale = [key for key in kept
                             if key[1] and key[1][0].result in dirty_results
                             and any(pattern.succinct_type() in dirty
                                     for pattern in key[1])]
                    for key in stale:
                        del kept[key]
                    self._recon_memos[policy] = kept
                self._pattern_env_memo = donor._pattern_env_memo.copy()
        live_ids = {id(decl) for decl in self.declarations()}
        for policy, memo in list(donor._weight_memos.items()):
            kept = {stype: weight for stype, weight in memo.copy().items()
                    if stype not in dirty}
            if kept:
                self._weight_memos.setdefault(policy, {}).update(kept)
        for policy, memo in list(donor._decl_weight_memos.items()):
            kept = {decl_id: weight
                    for decl_id, weight in memo.copy().items()
                    if decl_id in live_ids}
            if kept:
                self._decl_weight_memos.setdefault(policy, {}).update(kept)

    def fingerprint(self) -> str:
        """A stable content hash of the environment (for result caching).

        Covers every declaration in scope order — name, type, kind,
        frequency and render metadata all participate, and so does the
        order itself, because tie-breaking among equal-weight candidates
        follows declaration order.  Child environments chain the parent's
        fingerprint, so extending stays O(new declarations).
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            if self._parent is not None:
                digest.update(self._parent.fingerprint().encode("ascii"))
            for decl in self._declarations:
                digest.update(decl.fingerprint_bytes)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def declarations(self) -> Iterator[Declaration]:
        """All declarations, outermost scope first."""
        if self._parent is not None:
            yield from self._parent.declarations()
        yield from self._declarations

    def __iter__(self) -> Iterator[Declaration]:
        return self.declarations()

    def __len__(self) -> int:
        own = len(self._declarations)
        return own + (len(self._parent) if self._parent is not None else 0)

    def variable_types(self) -> dict[str, Type]:
        """A ``name -> type`` mapping (for the generic type checker)."""
        return {decl.name: decl.type for decl in self.declarations()}

    def __getstate__(self) -> dict:
        # The arena is process-local (it holds a lock and per-process type
        # ids), and the weight memos must not cross either: the
        # declaration-weight memo is keyed by raw id() addresses, which
        # mean nothing — and could silently collide — in another process.
        # Processes share results through result-cache snapshots, which
        # carry no environment; any unpickled copy rebuilds all three
        # lazily.
        state = dict(self.__dict__)
        state["_arena"] = None
        state["_weight_memos"] = {}
        state["_decl_weight_memos"] = {}
        # The candidate-list memo keys on per-process simple-type ids and
        # holds per-process declaration references; never ship it.
        state["_recon_memos"] = {}
        state["_pattern_env_memo"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Unpickled instances from older payloads may predate the memos.
        self.__dict__.setdefault("_arena", None)
        self.__dict__.setdefault("_weight_memos", {})
        self.__dict__.setdefault("_decl_weight_memos", {})
        self.__dict__.setdefault("_recon_memos", {})
        self.__dict__.setdefault("_pattern_env_memo", {})
        self.__dict__.setdefault("_reserved_names", None)

    def __repr__(self) -> str:
        return f"Environment({len(self)} declarations)"
