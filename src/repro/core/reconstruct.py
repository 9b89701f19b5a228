"""Term reconstruction — GenerateT (paper §5.5, Fig. 10).

Starting from a single typed hole at the desired type, the algorithm pops
the lightest partial expression from a priority queue, finds its first hole
(leftmost-outermost, exactly the paper's ``findFirstHole``), and replaces it
with every candidate ``\\x1...xn. f [ ]r1 ... [ ]rm`` that the pattern set
licenses.  Complete expressions (no holes left) are emitted in order of
non-decreasing weight, so the first N emitted are the N best snippets.

Key invariants:

* Hole weight is zero (Fig. 10), so a partial expression's weight is a lower
  bound on the weight of every completion — which makes the best-first
  search admissible: snippets come out sorted by final weight.
* Every declaration has strictly positive weight under all policies, so
  expansion strictly increases weight and the enumeration cannot stall even
  when the solution set is infinite.
* Expansion is deterministic (first hole, declarations in environment
  order, FIFO tie-breaking), so results are reproducible.

Packed frontier
---------------

The direct transcription of Fig. 10 — the reference, kept as a test
oracle in ``tests/core/oracle.py`` — makes each frontier entry a whole
partial expression tree and re-walks it on every pop (``findFirstHole``,
``sub``, size and bound sums): O(term size) per expansion.
:class:`Reconstructor` runs the *same* search over a **packed
frontier**: a frontier entry is a persistent spine of immutable
:class:`_Frame` records — the path from the root to the current hole, each
frame holding its completed children (already assembled ``LNFTerm``\\ s)
and the hole types still pending to its right.  The invariants that make
this exact:

* **Holes are filled in pre-order, so the frontier is a stack.**  The
  leftmost-outermost hole is always the top frame's first pending slot;
  filling it either pushes one frame (the candidate has parameter holes)
  or completes ``LNFTerm``\\ s upward until a frame with pending slots
  remains.  A pop therefore does O(spine depth) work, never O(term size),
  and the finished term needs no ``to_lnf`` conversion pass.
* **The cursor, term size and open-holes bound ride on the heap entry.**
  Each entry carries the spine (which *is* the next-hole cursor), the
  realized weight ``g``, the incrementally maintained node count, and the
  completion bound of all non-cursor open holes (``rest``) — the three
  quantities the reference recomputes by full-tree walks.  ``rest`` is
  re-derived from the spine's pending slots in exactly the reference's
  summation order (top frame first, left to right, holes under binders
  contributing nothing), so every float equals the reference's bit for
  bit and the heap pops in the identical order.
* **Memo keys are small ints.**  Hole types key the candidate/bound tables
  by their per-process :func:`~repro.core.space.simple_type_id`; binder
  scopes are interned :class:`_Scope` records carrying their own candidate
  tables and a ``sig_id`` for the pattern-environment cache — no
  structural type or binder tuple is hashed on the steady-state path.
* **Name draws are order-identical.**  Fresh binder names are drawn at
  exactly the reference's program points (candidate-list misses and
  expansion realization), and the int-keyed caches are bijective with the
  reference's structural keys, so the two implementations consume their
  name supplies in lockstep — emitted terms match byte for byte, which is
  what ``tests/properties/test_reconstruct_parity.py`` asserts.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core.environment import Declaration, DeclKind, Environment
from repro.core.generate_patterns import PatternSet
from repro.core.names import NameSupply
from repro.core.space import simple_type_id
from repro.core.succinct import sigma
from repro.core.terms import Binder, LNFTerm
from repro.core.types import Type, uncurry
from repro.core.weights import WeightPolicy


@dataclass(frozen=True)
class RawSnippet:
    """One reconstructed term (coercions still present) with its weight."""

    term: LNFTerm
    weight: float
    order: int  # 0-based emission index


@dataclass(frozen=True)
class Candidate:
    """One way to fill a hole: a declaration plus the binders it needs.

    ``added_weight`` is the weight delta the substitution contributes
    (binders + declaration; fresh holes cost zero).  Binder names and hole
    ids are instantiated lazily, per use, so candidate lists can be cached
    and shared across expansions of same-typed holes.
    """

    added_weight: float
    declaration: Declaration
    binder_types: tuple[Type, ...]
    parameter_types: tuple[Type, ...]
    #: When the filling head is one of the hole's own fresh binders (e.g.
    #: the identity ``\\x. x``), this is its position; the realized binder's
    #: fresh name is used as the head instead of ``declaration.name``.
    binder_index: Optional[int] = None
    #: Per-process :func:`~repro.core.space.simple_type_id` of each
    #: parameter type, aligned with ``parameter_types``.  Filled by the
    #: packed reconstructor so its bound tables key on small ints; the
    #: reference reconstructor in ``tests/core/oracle.py`` leaves it empty.
    parameter_type_ids: tuple[int, ...] = ()


@dataclass
class ReconstructionStats:
    """Bookkeeping for the reconstruction phase."""

    expansions: int = 0
    enqueued: int = 0  # counts every heap push, the initial hole included
    emitted: int = 0
    truncated: bool = False
    elapsed_seconds: float = 0.0


class _Scope:
    """One binder scope (the exact path-binder tuple) with its memo tables.

    Interned per distinct binder tuple, so a heap entry's frame can reach
    its candidate tables without hashing binders: ``candidates`` and
    ``ordered`` key on the hole's ``simple_type_id`` — together the pair
    ``(type_id, scope)`` is bijective with the reference's structural
    ``(hole_type, path_binders)`` cache key.  ``binder_sigmas`` is the
    scope's binder sigma set, which keys the shared pattern-environment
    memo (scopes whose binders have the same succinct images share its
    entries).
    """

    __slots__ = ("binders", "has_binders", "binder_sigmas",
                 "environment", "candidates", "ordered")

    def __init__(self, binders: tuple[Binder, ...],
                 binder_sigmas: frozenset):
        self.binders = binders
        self.has_binders = bool(binders)
        self.binder_sigmas = binder_sigmas
        self.environment: Optional[Environment] = None  # built lazily
        self.candidates: dict[int, tuple[Candidate, ...]] = {}
        self.ordered: dict[int, tuple[Candidate, ...]] = {}


class _Frame:
    """One spine record: a partially built ``\\binders. head children``.

    ``done`` holds the already-assembled children (complete
    :class:`LNFTerm`\\ s), ``pending`` the hole types still to fill to
    their right (``pending_ids`` the matching simple-type ids).  For the
    frontier's *top* frame, ``pending[0]`` is the current (leftmost-
    outermost) hole; for ancestor frames the in-progress child subtree
    sits between ``done`` and ``pending``.  Frames are immutable and share
    parents, so sibling heap entries alias one spine safely.
    """

    __slots__ = ("parent", "binders", "head", "done", "pending",
                 "pending_ids", "scope", "under")

    def __init__(self, parent: Optional["_Frame"],
                 binders: tuple[Binder, ...], head: str,
                 done: tuple[LNFTerm, ...], pending: tuple[Type, ...],
                 pending_ids: tuple[int, ...], scope: _Scope, under: bool):
        self.parent = parent
        self.binders = binders
        self.head = head
        self.done = done
        self.pending = pending
        self.pending_ids = pending_ids
        #: Scope of this frame's own children (path binders incl. ours).
        self.scope = scope
        #: True when this frame or any ancestor introduces binders — its
        #: pending holes then contribute nothing to the open-holes bound
        #: (matching the reference's ``under_binders`` threading).
        self.under = under


class Reconstructor:
    """Best-first enumeration of complete terms from a pattern set.

    This is the packed-frontier implementation (see the module docstring);
    it is byte-identical to the whole-tree Fig. 10 transcription in
    ``tests/core/oracle.py``.
    """

    def __init__(self, patterns: PatternSet, environment: Environment,
                 policy: WeightPolicy,
                 max_steps: Optional[int] = None,
                 time_limit: Optional[float] = None,
                 max_term_size: Optional[int] = None):
        self._patterns = patterns
        self._environment = environment
        self._policy = policy
        self._max_steps = max_steps
        self._time_limit = time_limit
        self._max_term_size = max_term_size
        self.stats = ReconstructionStats()
        # The scene-wide protected-name set is computed once per
        # environment and shared by reference (never copied per query).
        self._names = NameSupply(prefix="x",
                                 frozen=environment.reserved_names())
        self._seq = itertools.count()
        self._base_succinct = environment.succinct_environment()
        # Scopes interned by binder tuple; the root scope (no binders) is
        # where almost all Table-2-style reconstruction happens.
        self._root_scope = _Scope((), frozenset())
        self._root_scope.environment = environment
        self._scopes: dict[tuple[Binder, ...], _Scope] = {
            (): self._root_scope}
        # Pattern-environment memo (environment-level, shared across
        # queries): binder sigma set -> the succinct environment the
        # Fig. 10 pattern query runs over.  The base environment holds
        # thousands of types; recomputing the union per candidate-list
        # build would dominate reconstruction time.
        self._pattern_envs = environment.pattern_env_memo()
        # Root-scope candidate lists, shared across queries on this
        # environment+policy (see Environment.candidate_list_memo).
        self._shared_candidates = environment.candidate_list_memo(policy)
        # Completion-bound caches, one flat dict (keyed by simple type id)
        # per lookahead depth (the inner fixpoint loop hits these once per
        # candidate parameter).
        self._bound_levels: list[dict[int, float]] = [
            {} for _ in range(self._HEURISTIC_DEPTH + 1)]
        # Per-candidate empty-context completion bounds, keyed by identity
        # (candidates are pinned by their scope tables for our lifetime).
        self._candidate_bounds: dict[int, float] = {}
        # Declaration weights, keyed by identity; shared through the
        # environment so repeated queries over one scene stay warm.  Only
        # environment-owned declarations may enter this memo: they live
        # exactly as long as the memo does, so their ids can never be
        # reused under it (a fresh binder declaration's could).
        self._decl_weights = environment.declaration_weight_memo(policy)

    def enumerate(self, goal: Type) -> Iterator[RawSnippet]:
        """Yield complete terms of type *goal* in non-decreasing weight.

        Best-first over partial expressions with two refinements on top of
        the paper's Fig. 10 loop, both order-preserving:

        * **Lazy sibling succession** — when a hole has B candidate
          fillings only the cheapest is materialised; popping it
          re-enqueues the next sibling.  Each pop pushes at most two
          entries instead of B.

        * **Admissible completion bounds** — the queue is ordered by
          ``realized weight + sum over open holes of a lower bound on the
          hole's cheapest completion`` (a depth-bounded fixpoint over the
          candidate lists; §4's "weight of succinct types guides the
          search", taken transitively).  Because the bound never
          overestimates and is consistent, complete terms still pop in
          exact weight order, but partial expressions whose completions
          are necessarily expensive no longer flood the frontier — with
          plain zero-weight holes, a constructor with four ``int``
          parameters makes the frontier combinatorial in the number of
          ``int`` producers.

        Heap entries are ``(f, seq, frame, index, g, size, rest)`` where
        *frame* is the top of the packed spine (its first pending slot is
        the hole to fill with candidate *index*), ``g`` is the realized
        weight so far, ``size`` the node count of the partial expression
        and ``rest`` the completion bound of all *other* open holes.
        """
        start = time.perf_counter()
        queue: list = []
        stats = self.stats
        max_steps = self._max_steps
        time_limit = self._time_limit
        max_term_size = self._max_term_size
        names = self._names
        seq = self._seq
        perf_counter = time.perf_counter

        goal_id = simple_type_id(goal)
        root = _Frame(None, (), "", (), (goal,), (goal_id,),
                      self._root_scope, False)
        root_candidates = self._ordered_candidates(goal, goal_id,
                                                   self._root_scope)
        if root_candidates:
            f0 = self._completion_bound(root_candidates[0], self._root_scope)
            heapq.heappush(queue, (f0, next(seq), root, 0, 0.0, 1, 0.0))
            stats.enqueued += 1

        while queue:
            if max_steps is not None and stats.expansions >= max_steps:
                stats.truncated = True
                break
            if time_limit is not None and \
                    perf_counter() - start > time_limit:
                stats.truncated = True
                break

            _, _, frame, index, g, size, rest = heapq.heappop(queue)
            scope = frame.scope
            candidates = self._ordered_candidates(frame.pending[0],
                                                  frame.pending_ids[0], scope)

            # Lazy sibling: the next candidate for the same hole.
            if index + 1 < len(candidates):
                f_sibling = (g + rest
                             + self._completion_bound(candidates[index + 1],
                                                      scope))
                if f_sibling != math.inf:
                    heapq.heappush(queue, (f_sibling, next(seq), frame,
                                           index + 1, g, size, rest))
                    stats.enqueued += 1

            # Realize this candidate.
            stats.expansions += 1
            candidate = candidates[index]
            binders = tuple(Binder(names.fresh(), tpe)
                            for tpe in candidate.binder_types)
            head = (binders[candidate.binder_index].name
                    if candidate.binder_index is not None
                    else candidate.declaration.name)
            realized_weight = g + candidate.added_weight
            parameters = candidate.parameter_types
            realized_size = size + len(parameters)
            if max_term_size is not None and realized_size > max_term_size:
                continue

            if parameters:
                # Descend: the filled hole's frame loses its first pending
                # slot; the replacement becomes the new top frame and its
                # first parameter the new cursor.
                above = _Frame(frame.parent, frame.binders, frame.head,
                               frame.done, frame.pending[1:],
                               frame.pending_ids[1:], scope, frame.under)
                top = _Frame(above, binders, head, (), parameters,
                             candidate.parameter_type_ids,
                             scope if not binders
                             else self._scope_for(scope, binders),
                             frame.under or bool(binders))
            else:
                # A leaf: assemble completed terms upward until a frame
                # with pending slots remains (or the spine empties).
                term = LNFTerm(binders, head, ())
                walk = frame
                done = walk.done + (term,)
                pending = walk.pending[1:]
                pending_ids = walk.pending_ids[1:]
                while not pending:
                    if walk.parent is None:
                        break
                    term = LNFTerm(walk.binders, walk.head, done)
                    walk = walk.parent
                    done = walk.done + (term,)
                    pending = walk.pending
                    pending_ids = walk.pending_ids
                if not pending:  # completed the root: a full term
                    stats.emitted += 1
                    stats.elapsed_seconds = perf_counter() - start
                    yield RawSnippet(done[-1], realized_weight,
                                     stats.emitted - 1)
                    continue
                top = _Frame(walk.parent, walk.binders, walk.head, done,
                             pending, pending_ids, walk.scope, walk.under)

            next_candidates = self._ordered_candidates(top.pending[0],
                                                       top.pending_ids[0],
                                                       top.scope)
            if not next_candidates:
                continue  # this hole can never be filled
            next_rest = self._frontier_rest(top)
            if next_rest == math.inf:
                continue  # some other hole can never be filled
            f_child = (realized_weight + next_rest
                       + self._completion_bound(next_candidates[0],
                                                top.scope))
            if f_child != math.inf:
                heapq.heappush(queue, (f_child, next(seq), top, 0,
                                       realized_weight, realized_size,
                                       next_rest))
                stats.enqueued += 1

        stats.elapsed_seconds = perf_counter() - start

    # -- packed-frontier structure -------------------------------------------

    def _scope_for(self, parent: _Scope,
                   binders: tuple[Binder, ...]) -> _Scope:
        """The interned scope for ``parent.binders + binders``."""
        path = parent.binders + binders
        scope = self._scopes.get(path)
        if scope is None:
            sigmas = parent.binder_sigmas | frozenset(
                sigma(binder.type) for binder in binders)
            scope = _Scope(path, sigmas)
            self._scopes[path] = scope
        return scope

    def _scope_environment(self, scope: _Scope) -> Environment:
        """Gamma_o extended with every binder of *scope* (built once)."""
        environment = scope.environment
        if environment is None:
            decls = [Declaration(b.name, b.type, DeclKind.LAMBDA)
                     for b in scope.binders]
            environment = self._environment.extended(decls)
            scope.environment = environment
        return environment

    def _frontier_rest(self, top: _Frame) -> float:
        """Sum of completion bounds over all open holes except the cursor.

        Walks the spine's pending slots in exactly the reference's
        ``_open_holes_bound`` order — top frame first (skipping the cursor
        slot), then each ancestor, left to right — and skips frames under
        binders, whose holes the reference zeroes.  Both the visit order
        (name draws happen inside cold ``_hole_bound`` calls) and the
        float summation order are therefore identical to a full-tree walk.
        """
        total = 0.0
        hole_bound = self._hole_bound
        frame: Optional[_Frame] = top
        first_index = 1  # skip the cursor on the top frame only
        while frame is not None:
            if not frame.under:
                pending = frame.pending
                pending_ids = frame.pending_ids
                for position in range(first_index, len(pending)):
                    total += hole_bound(pending[position],
                                        pending_ids[position])
            first_index = 0
            frame = frame.parent
        return total

    # -- admissible completion bounds ---------------------------------------

    #: Lookahead depth of the completion-bound fixpoint.  Any depth is
    #: admissible (deeper = tighter); 4 covers the nesting the benchmarks
    #: exhibit without noticeable precomputation cost.
    _HEURISTIC_DEPTH = 4

    def _ordered_candidates(self, hole_type: Type, hole_type_id: int,
                            scope: _Scope) -> tuple[Candidate, ...]:
        """Candidates sorted by completion bound.

        The lazy sibling chain walks candidates in this order, so the f
        values along the chain are non-decreasing — sorting by bare added
        weight instead would bury a cheap-completion candidate behind ties
        whose completions are expensive, breaking emission order.  Kept
        separate from :meth:`_candidates` because the bound computation
        itself consumes raw candidate lists (sorting there would recurse).
        """
        cached = scope.ordered.get(hole_type_id)
        if cached is not None:
            return cached
        ordered = sorted(
            self._candidates(hole_type, hole_type_id, scope),
            key=lambda c: self._completion_bound(c, scope))
        result = tuple(ordered)
        scope.ordered[hole_type_id] = result
        return result

    def _completion_bound(self, candidate: Candidate,
                          scope: _Scope) -> float:
        """Lower bound on the weight this candidate adds, completions
        of its fresh parameter holes included.

        Memoised per candidate: only two values are ever possible (the
        bare added weight under binders, the parameter-summed bound in the
        empty context), and the lazy-sibling chain re-asks on every pop.
        """
        if scope.has_binders or candidate.binder_types:
            # Under binders (or introducing them) cheaper binder-headed
            # completions may exist that the empty-context tables cannot
            # see; stay conservative.
            return candidate.added_weight
        key = id(candidate)
        bound = self._candidate_bounds.get(key)
        if bound is None:
            total = 0.0
            for parameter, parameter_id in zip(candidate.parameter_types,
                                               candidate.parameter_type_ids):
                total += self._hole_bound(parameter, parameter_id)
            bound = candidate.added_weight + total
            self._candidate_bounds[key] = bound
        return bound

    def _hole_bound(self, hole_type: Type, hole_type_id: Optional[int] = None,
                    depth: Optional[int] = None) -> float:
        """Lower bound on the cheapest completion of an empty-context hole."""
        if hole_type_id is None:
            hole_type_id = simple_type_id(hole_type)
        if depth is None:
            depth = self._HEURISTIC_DEPTH
        if depth <= 0:
            return 0.0
        levels = self._bound_levels
        while len(levels) <= depth:        # robust to overridden lookahead
            levels.append({})
        level = levels[depth]
        cached = level.get(hole_type_id)
        if cached is not None:
            return cached
        level[hole_type_id] = 0.0  # cycle guard (admissible placeholder)
        best = math.inf
        next_depth = depth - 1
        next_level = self._bound_levels[next_depth] if next_depth > 0 else None
        for candidate in self._candidates(hole_type, hole_type_id,
                                          self._root_scope):
            value = candidate.added_weight
            if not candidate.binder_types and next_level is not None:
                # Inlined recursion fast path: one dict hit per parameter
                # (depth 0 contributes nothing, so the loop is skipped).
                for parameter, parameter_id in zip(
                        candidate.parameter_types,
                        candidate.parameter_type_ids):
                    bound = next_level.get(parameter_id)
                    if bound is None:
                        bound = self._hole_bound(parameter, parameter_id,
                                                 next_depth)
                    value += bound
            if value < best:
                best = value
        level[hole_type_id] = best
        return best

    def _candidates(self, hole_type: Type, hole_type_id: int,
                    scope: _Scope) -> tuple[Candidate, ...]:
        """All fillings for a hole of *hole_type* under *scope*.

        Sorted by added weight (stable on discovery order), and cached at
        two levels: per scope for this query, and — for the empty binder
        scope — across queries on the shared environment memo, keyed by
        the exact pattern slice the list is derived from.  A cross-query
        hit still consumes the fresh names a cold build would have drawn,
        so the supply stays in lockstep with the reference walk.
        """
        cached = scope.candidates.get(hole_type_id)
        if cached is not None:
            return cached

        argument_types, result = uncurry(hole_type)
        if scope.has_binders or argument_types:
            binder_sigmas = scope.binder_sigmas | frozenset(
                sigma(tpe) for tpe in argument_types)
            pattern_env = self._pattern_envs.get(binder_sigmas)
            if pattern_env is None:
                pattern_env = self._base_succinct | binder_sigmas
                self._pattern_envs[binder_sigmas] = pattern_env
        else:
            pattern_env = self._base_succinct
        pattern_slice = self._patterns.lookup(pattern_env, result.name)

        shared_key = None
        if not scope.has_binders:
            shared_key = (hole_type_id, pattern_slice)
            entry = self._shared_candidates.get(shared_key)
            if entry is not None:
                names_needed, result_tuple = entry
                for _ in range(names_needed):
                    self._names.fresh()
                scope.candidates[hole_type_id] = result_tuple
                return result_tuple

        hole_env = self._scope_environment(scope)
        binders = tuple(Binder(self._names.fresh(), tpe)
                        for tpe in argument_types)
        binder_decls = [Declaration(b.name, b.type, DeclKind.LAMBDA)
                        for b in binders]
        inner_env = hole_env.extended(binder_decls) if binder_decls else hole_env
        binder_cost = len(binders) * self._policy.binder_weight()

        probe_positions = {binder.name: position
                           for position, binder in enumerate(binders)}
        found: list[Candidate] = []
        decl_weights = self._decl_weights
        declaration_weight = self._policy.declaration_weight
        environment_lookup = self._environment.lookup
        for pattern in pattern_slice:
            wanted = pattern.succinct_type()
            for decl in inner_env.select(wanted):
                parameter_types, _ = uncurry(decl.type)
                weight = decl_weights.get(id(decl))
                if weight is None:
                    weight = declaration_weight(decl)
                    if environment_lookup(decl.name) is decl:
                        decl_weights[id(decl)] = weight
                found.append(Candidate(
                    added_weight=binder_cost + weight,
                    declaration=decl,
                    binder_types=tuple(argument_types),
                    parameter_types=parameter_types,
                    binder_index=probe_positions.get(decl.name),
                    parameter_type_ids=tuple(simple_type_id(tpe)
                                             for tpe in parameter_types),
                ))
        found.sort(key=lambda candidate: candidate.added_weight)
        result_tuple = tuple(found)
        if shared_key is not None:
            self._shared_candidates[shared_key] = (len(argument_types),
                                                   result_tuple)
        scope.candidates[hole_type_id] = result_tuple
        return result_tuple


def reconstruct(patterns: PatternSet, environment: Environment, goal: Type,
                policy: WeightPolicy, limit: Optional[int] = None,
                max_steps: Optional[int] = None,
                time_limit: Optional[float] = None,
                max_term_size: Optional[int] = None) -> list[RawSnippet]:
    """Run GenerateT and return at most *limit* snippets, best first."""
    reconstructor = Reconstructor(patterns, environment, policy,
                                  max_steps=max_steps, time_limit=time_limit,
                                  max_term_size=max_term_size)
    return _collect(reconstructor, goal, limit)


def _collect(reconstructor, goal: Type,
             limit: Optional[int]) -> list[RawSnippet]:
    snippets: list[RawSnippet] = []
    for snippet in reconstructor.enumerate(goal):
        snippets.append(snippet)
        if limit is not None and len(snippets) >= limit:
            break
    return snippets
