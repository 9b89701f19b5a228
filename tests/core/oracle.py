"""Structural reference implementations of the core algorithms.

``repro.core`` runs each of the paper's algorithms once, in its fast form:
Explore (Fig. 7) over an integer-id environment arena, GenerateP
(Fig. 8/9) as one Fig. 9 fixpoint over dense node and edge ids, GenerateT
(Fig. 10) over a packed spine frontier.  This module keeps the direct
transcriptions those forms replaced — whole ``Request`` and
``ReachabilityEdge`` objects, whole partial-expression trees — plus the
brute-force CL / Select / RCN functions of Fig. 4 behind Theorem 3.3.
They are slow but easy to check against the paper, so the parity
properties hold the production code to them:

* ``tests/properties/test_arena_parity.py`` — :func:`explore_reference`
  and the three structural fixpoints against ``explore`` and
  ``generate_patterns`` (post-hoc, Fig. 9 online, §5.7 backward map);
* ``tests/properties/test_reconstruct_parity.py`` —
  :class:`ReferenceReconstructor` against the packed ``Reconstructor``;
* ``tests/properties/test_table2_parity.py`` — both, on the paper's own
  Table-2 scenes;
* ``tests/properties/test_completeness.py`` — the synthesizer against
  :func:`rcn`.

The post-hoc and Fig. 9 fixpoints read only ``space.edges``, so they run
over a :class:`StructuralSpace` and over the views of a production
``SearchSpace`` alike.  The §5.7 reference now reads only the oracle's
:class:`StructuralSpace`: it also reads ``space.predecessors``, the
backward map that only :func:`explore_reference` builds (production
keeps that map inside its pattern generator, as waiting-edge lists).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Union

from repro.core.environment import Declaration, DeclKind, Environment
from repro.core.explore import (EnvKey, ReachabilityEdge, Request,
                                RequestPriority, _Worklist, explore)
from repro.core.generate_patterns import (Pattern, PatternSet,
                                          generate_patterns)
from repro.core.names import NameSupply
from repro.core.reconstruct import (Candidate, RawSnippet,
                                    ReconstructionStats, _collect)
from repro.core.succinct import SuccinctType, sigma, sort_key
from repro.core.terms import Binder, LNFTerm, canonicalize_lnf
from repro.core.types import Type, uncurry
from repro.core.weights import WeightPolicy

# ---------------------------------------------------------------------------
# Explore (§5.3, Fig. 6/7)
# ---------------------------------------------------------------------------


def strip(target: SuccinctType, env: EnvKey) -> Request:
    """The STRIP rule: ``(S -> t) ;Gamma ?``  =>  ``t ;Gamma+S ?``.

    Primitive targets reuse the environment object unchanged: environments
    hold thousands of types, and copying one per request dominates the
    exploration cost otherwise.
    """
    if not target.arguments:
        return Request(target.result, env)
    extended = env if target.arguments <= env else env | target.arguments
    return Request(target.result, extended)


def child_request(premise: SuccinctType, env: EnvKey) -> Request:
    """PROP followed by STRIP for one premise type."""
    return strip(premise, env)


def edge_premises(edge: ReachabilityEdge) -> tuple[SuccinctType, ...]:
    """The matched argument set ``S'`` of *edge* in canonical order."""
    return edge.source.sorted_arguments()


def edge_children(edge: ReachabilityEdge) -> tuple[Request, ...]:
    """The requests *edge* depends on (PROP then STRIP)."""
    return tuple(child_request(premise, edge.request.env)
                 for premise in edge_premises(edge))


@dataclass
class StructuralSpace:
    """The search space :func:`explore_reference` fills eagerly.

    ``order`` and ``edges`` match the production ``SearchSpace`` views:
    ``edges`` maps each visited request to its edges in discovery order.
    ``predecessors``, which production does not build, is the §5.7
    backward map: each request to the deduplicated edges that wait on it.
    """

    root: Request
    order: tuple = ()
    edges: dict = field(default_factory=dict)
    predecessors: dict = field(default_factory=dict)
    iterations: int = 0
    truncated: bool = False


class _EnvIndex:
    """Per-environment index: result type name -> members with that result.

    Environments encountered during a search share almost all content, but
    they are distinct frozensets; we memoise one index per distinct key.
    """

    def __init__(self) -> None:
        self._cache: dict[EnvKey, dict[str, tuple[SuccinctType, ...]]] = {}

    def members_returning(self, env: EnvKey, target: str) -> tuple[SuccinctType, ...]:
        index = self._cache.get(env)
        if index is None:
            grouped: dict[str, list[SuccinctType]] = {}
            for member in sorted(env, key=sort_key):
                grouped.setdefault(member.result, []).append(member)
            index = {result: tuple(members)
                     for result, members in grouped.items()}
            self._cache[env] = index
        return index.get(target, ())


def explore_reference(env: EnvKey, goal: SuccinctType,
                      priority: Optional[RequestPriority] = None,
                      max_nodes: Optional[int] = None,
                      time_limit: Optional[float] = None,
                      on_edges: Optional[Callable[[Iterable[ReachabilityEdge]], None]] = None,
                      ) -> StructuralSpace:
    """Fig. 7 in direct structural form.

    Semantically identical to ``explore`` (node order and edge map,
    truncated runs included); it also builds the §5.7 predecessor map.
    ``on_edges`` receives each visited request's batch of new edges, as
    the §5.6 interleaved prover would.
    """
    start = time.perf_counter()
    env = frozenset(env)
    root = strip(goal, env)

    index = _EnvIndex()
    worklist = _Worklist(prioritised=priority is not None)
    worklist.push(priority(goal) if priority else 0.0, root)

    space = StructuralSpace(root=root)
    visited: set[Request] = set()
    order: list[Request] = []
    predecessors: dict[Request, list[ReachabilityEdge]] = {}
    iterations = 0

    while worklist:
        if max_nodes is not None and len(visited) >= max_nodes:
            space.truncated = True
            break
        if time_limit is not None and time.perf_counter() - start > time_limit:
            space.truncated = True
            break
        current = worklist.pop()
        if current in visited:
            continue
        visited.add(current)
        order.append(current)
        iterations += 1

        found = [ReachabilityEdge(current, member)
                 for member in index.members_returning(current.env, current.target)]
        space.edges[current] = tuple(found)
        if on_edges is not None and found:
            on_edges(found)

        for edge in found:
            for premise in edge_premises(edge):
                child = child_request(premise, current.env)
                predecessors.setdefault(child, []).append(edge)
                if child not in visited:
                    worklist.push(priority(premise) if priority else 0.0, child)

    space.predecessors = {request: tuple(dict.fromkeys(edges))
                          for request, edges in predecessors.items()}
    space.order = tuple(order)
    space.iterations = iterations
    return space


# ---------------------------------------------------------------------------
# GenerateP (§5.4, Fig. 8/9)
# ---------------------------------------------------------------------------


def _firing_patterns(space, inhabited: set) -> set[Pattern]:
    """A pattern per edge whose premises are all inhabited (PROD).

    Every such edge yields one — not just the edges that drove the
    fixpoint (several edges of one request fire).
    """
    return {
        Pattern(edge.request.env, edge.source.arguments, edge.request.target)
        for edges in space.edges.values()
        for edge in edges
        if all(child in inhabited for child in edge_children(edge))
    }


def generate_patterns_reference(space) -> PatternSet:
    """Counter-based least fixpoint over the explored AND-OR space."""
    # An edge waits on its *distinct* child requests.
    waiting: dict[ReachabilityEdge, int] = {}
    watchers: dict[Request, list[ReachabilityEdge]] = {}
    ready: deque[ReachabilityEdge] = deque()

    for edges in space.edges.values():
        for edge in edges:
            children = frozenset(edge_children(edge))
            waiting[edge] = len(children)
            if not children:
                ready.append(edge)
            for child in children:
                watchers.setdefault(child, []).append(edge)

    inhabited: set[Request] = set()
    while ready:
        edge = ready.popleft()
        request = edge.request
        if request in inhabited:
            continue
        inhabited.add(request)
        for watcher in watchers.get(request, ()):
            waiting[watcher] -= 1
            if waiting[watcher] == 0:
                ready.append(watcher)

    return PatternSet.build(_firing_patterns(space, inhabited), inhabited)


class IncrementalPatternGenerator:
    """The paper's Fig. 9 algorithm over structural edges (§5.6).

    Mirrors the published pseudo-code: each reachability term carries a
    pending set ``S`` and a witnessed set ``Pi``; terms with empty ``S`` are
    *leaves*, processed from a queue; TRANSFER resolves a compatible pending
    term against a leaf; PROD emits the pattern of each processed leaf.

    ``add_edges`` may be called repeatedly as exploration discovers new
    reachability terms.  ``IndexedPatternGenerator`` is the production
    (integer-id) equivalent, the one pattern fixpoint in ``repro.core``.
    """

    def __init__(self) -> None:
        # Edge state: edge -> (pending set of child requests, witnessed set).
        self._pending: dict[ReachabilityEdge, set[Request]] = {}
        self._leaves: deque[ReachabilityEdge] = deque()
        self._visited_leaves: set[ReachabilityEdge] = set()
        self._inhabited: set[Request] = set()
        self._watchers: dict[Request, list[ReachabilityEdge]] = {}
        self._patterns: set[Pattern] = set()

    def add_edges(self, edges: Iterable[ReachabilityEdge]) -> None:
        for edge in edges:
            pending = set(edge_children(edge))
            # Premises already known inhabited transfer immediately.
            pending -= self._inhabited
            self._pending[edge] = pending
            if pending:
                for child in pending:
                    self._watchers.setdefault(child, []).append(edge)
            else:
                self._leaves.append(edge)
        self._drain()

    def _drain(self) -> None:
        while self._leaves:
            leaf = self._leaves.popleft()
            if leaf in self._visited_leaves:
                continue
            self._visited_leaves.add(leaf)
            # PROD: emit the pattern of this (now fully witnessed) term.
            self._patterns.add(Pattern(leaf.request.env,
                                       leaf.source.arguments,
                                       leaf.request.target))
            request = leaf.request
            if request in self._inhabited:
                continue
            self._inhabited.add(request)
            # TRANSFER: resolve compatible pending terms against this leaf.
            for watcher in self._watchers.get(request, ()):
                pending = self._pending.get(watcher)
                if pending is None or request not in pending:
                    continue
                pending.discard(request)
                if not pending:
                    self._leaves.append(watcher)

    def goal_reached(self, root: Request) -> bool:
        """True as soon as the root request is known inhabited."""
        return root in self._inhabited

    def result(self) -> PatternSet:
        return PatternSet.build(self._patterns, self._inhabited)


def generate_patterns_incremental_reference(space) -> PatternSet:
    """Run the Fig. 9 worklist over a fully explored space."""
    generator = IncrementalPatternGenerator()
    generator.add_edges(edge for edges in space.edges.values()
                        for edge in edges)
    return generator.result()


def generate_patterns_with_predecessor_map_reference(space) -> PatternSet:
    """The §5.7 fixpoint: resolve watchers through the backward map."""
    waiting: dict[ReachabilityEdge, int] = {}
    ready: deque[ReachabilityEdge] = deque()
    for edges in space.edges.values():
        for edge in edges:
            children = frozenset(edge_children(edge))
            waiting[edge] = len(children)
            if not children:
                ready.append(edge)

    inhabited: set[Request] = set()
    while ready:
        edge = ready.popleft()
        request = edge.request
        if request in inhabited:
            continue
        inhabited.add(request)
        # §5.7: predecessors(request) is exactly the compatible set.  The
        # backward map is watcher-deduplicated at build time (explore),
        # matching the distinct-children countdown above — a twice-watched
        # request must decrement its edge once, not once per occurrence.
        for watcher in space.predecessors.get(request, ()):
            if watcher not in waiting:
                continue  # predecessor edge outside the (truncated) space
            waiting[watcher] -= 1
            if waiting[watcher] == 0:
                ready.append(watcher)

    return PatternSet.build(_firing_patterns(space, inhabited), inhabited)


# ---------------------------------------------------------------------------
# GenerateT (§5.5, Fig. 10): whole-tree partial expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HoleNode:
    """A typed hole ``[ ]h : type`` in a partial expression."""

    hole_id: int
    type: Type


@dataclass(frozen=True)
class AppNode:
    """A partial expression ``\\binders. head arg1 ... argn``.

    Arguments may contain holes; a node with no holes anywhere below it is a
    complete long-normal-form term.
    """

    binders: tuple[Binder, ...]
    head: str
    arguments: tuple["PartialNode", ...]


PartialNode = Union[HoleNode, AppNode]


def is_complete(node: PartialNode) -> bool:
    """True when no hole occurs in *node*."""
    if isinstance(node, HoleNode):
        return False
    return all(is_complete(argument) for argument in node.arguments)


def hole_count(node: PartialNode) -> int:
    if isinstance(node, HoleNode):
        return 1
    return sum(hole_count(argument) for argument in node.arguments)


def find_first_hole(node: PartialNode,
                    path_binders: tuple[Binder, ...] = (),
                    ) -> Optional[tuple[tuple[Binder, ...], HoleNode]]:
    """The paper's ``findFirstHole``: leftmost-outermost hole plus the
    binders in scope on the path to it (from which the hole's environment is
    rebuilt, matching Fig. 10's Gamma_o threading)."""
    if isinstance(node, HoleNode):
        return path_binders, node
    extended = path_binders + node.binders
    for argument in node.arguments:
        found = find_first_hole(argument, extended)
        if found is not None:
            return found
    return None


def substitute_hole(node: PartialNode, hole_id: int,
                    replacement: PartialNode) -> PartialNode:
    """The paper's ``sub``: replace the hole named *hole_id*."""
    if isinstance(node, HoleNode):
        return replacement if node.hole_id == hole_id else node
    return AppNode(node.binders, node.head,
                   tuple(substitute_hole(argument, hole_id, replacement)
                         for argument in node.arguments))


def to_lnf(node: PartialNode) -> LNFTerm:
    """Convert a complete partial expression to an :class:`LNFTerm`."""
    if isinstance(node, HoleNode):
        raise ValueError("partial expression still contains holes")
    return LNFTerm(node.binders, node.head,
                   tuple(to_lnf(argument) for argument in node.arguments))


class ReferenceReconstructor:
    """The Fig. 10 transcription: whole-tree frontier entries.

    The executable specification the packed ``Reconstructor`` is
    verified against (byte-identical terms, weights, emission order, stats
    and truncation — ``tests/properties/test_reconstruct_parity.py``).
    Every pop re-walks the popped partial expression: ``findFirstHole``,
    ``sub``, the size measure and the open-holes bound are all O(term
    size).
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
        self._names = NameSupply(prefix="x",
                                 frozen=environment.reserved_names())
        self._hole_ids = itertools.count()
        self._seq = itertools.count()
        self._base_succinct = environment.succinct_environment()
        # Pattern-environment cache: binder succinct types in scope -> env key.
        self._pattern_env_cache: dict[frozenset, frozenset] = {}
        # Candidate cache: (hole type, binders in scope) -> sorted fillings.
        self._candidate_cache: dict[tuple, tuple[Candidate, ...]] = {}
        # Completion-bound caches, one flat dict per lookahead depth.
        self._bound_levels: list[dict[Type, float]] = [
            {} for _ in range(self._HEURISTIC_DEPTH + 1)]
        self._candidate_bounds: dict[int, float] = {}
        self._decl_weights = environment.declaration_weight_memo(policy)
        # Candidates re-sorted by completion bound (what enumeration walks).
        self._ordered_cache: dict[tuple, tuple[Candidate, ...]] = {}

    def enumerate(self, goal: Type) -> Iterator[RawSnippet]:
        """Yield complete terms of type *goal* in non-decreasing weight.

        Heap entries are ``(f, seq, expression, hole, path, index, g, rest)``
        where *expression* still contains *hole* (to be filled with
        candidate *index*), ``g`` is the realized weight so far and
        ``rest`` is the completion bound of all *other* open holes.
        """
        start = time.perf_counter()
        queue: list = []

        root = HoleNode(next(self._hole_ids), goal)
        root_candidates = self._ordered_candidates(goal, ())
        if root_candidates:
            f0 = self._completion_bound(root_candidates[0], ())
            heapq.heappush(queue, (f0, next(self._seq), root, root, (), 0,
                                   0.0, 0.0))
            self.stats.enqueued += 1

        while queue:
            if self._max_steps is not None and \
                    self.stats.expansions >= self._max_steps:
                self.stats.truncated = True
                break
            if self._time_limit is not None and \
                    time.perf_counter() - start > self._time_limit:
                self.stats.truncated = True
                break

            _, _, expression, hole, path_binders, index, g, rest = \
                heapq.heappop(queue)
            candidates = self._ordered_candidates(hole.type, path_binders)

            # Lazy sibling: the next candidate for the same hole.
            if index + 1 < len(candidates):
                f_sibling = (g + rest
                             + self._completion_bound(candidates[index + 1],
                                                      path_binders))
                if f_sibling != math.inf:
                    heapq.heappush(queue, (f_sibling, next(self._seq),
                                           expression, hole, path_binders,
                                           index + 1, g, rest))
                    self.stats.enqueued += 1

            # Realize this candidate.
            self.stats.expansions += 1
            candidate = candidates[index]
            binders = tuple(Binder(self._names.fresh(), tpe)
                            for tpe in candidate.binder_types)
            holes = tuple(HoleNode(next(self._hole_ids), tpe)
                          for tpe in candidate.parameter_types)
            head = (binders[candidate.binder_index].name
                    if candidate.binder_index is not None
                    else candidate.declaration.name)
            replacement = AppNode(binders, head, holes)
            realized = substitute_hole(expression, hole.hole_id, replacement)
            realized_weight = g + candidate.added_weight
            if self._max_term_size is not None and \
                    _node_size(realized) > self._max_term_size:
                continue

            found = find_first_hole(realized)
            if found is None:
                self.stats.emitted += 1
                self.stats.elapsed_seconds = time.perf_counter() - start
                yield RawSnippet(to_lnf(realized), realized_weight,
                                 self.stats.emitted - 1)
                continue

            next_path, next_hole = found
            next_candidates = self._ordered_candidates(next_hole.type, next_path)
            if not next_candidates:
                continue  # this hole can never be filled
            next_rest = self._open_holes_bound(realized, next_hole.hole_id)
            if next_rest == math.inf:
                continue  # some other hole can never be filled
            f_child = (realized_weight + next_rest
                       + self._completion_bound(next_candidates[0], next_path))
            if f_child != math.inf:
                heapq.heappush(queue, (f_child, next(self._seq), realized,
                                       next_hole, next_path, 0,
                                       realized_weight, next_rest))
                self.stats.enqueued += 1

        self.stats.elapsed_seconds = time.perf_counter() - start

    # -- admissible completion bounds ---------------------------------------

    _HEURISTIC_DEPTH = 4

    def _ordered_candidates(self, hole_type: Type,
                            path_binders: tuple[Binder, ...],
                            ) -> tuple[Candidate, ...]:
        """Candidates sorted by completion bound."""
        key = (hole_type, path_binders)
        cached = self._ordered_cache.get(key)
        if cached is not None:
            return cached
        ordered = sorted(
            self._candidates(hole_type, path_binders),
            key=lambda c: self._completion_bound(c, path_binders))
        result = tuple(ordered)
        self._ordered_cache[key] = result
        return result

    def _completion_bound(self, candidate: Candidate,
                          path_binders: tuple[Binder, ...]) -> float:
        """Lower bound on the weight this candidate adds, completions
        of its fresh parameter holes included."""
        if path_binders or candidate.binder_types:
            return candidate.added_weight
        key = id(candidate)
        bound = self._candidate_bounds.get(key)
        if bound is None:
            bound = candidate.added_weight + sum(
                self._hole_bound(parameter)
                for parameter in candidate.parameter_types)
            self._candidate_bounds[key] = bound
        return bound

    def _hole_bound(self, hole_type: Type, depth: Optional[int] = None) -> float:
        """Lower bound on the cheapest completion of an empty-context hole."""
        if depth is None:
            depth = self._HEURISTIC_DEPTH
        if depth <= 0:
            return 0.0
        levels = self._bound_levels
        while len(levels) <= depth:        # robust to overridden lookahead
            levels.append({})
        level = levels[depth]
        cached = level.get(hole_type)
        if cached is not None:
            return cached
        level[hole_type] = 0.0  # cycle guard (admissible placeholder)
        best = math.inf
        next_depth = depth - 1
        next_level = self._bound_levels[next_depth] if next_depth > 0 else None
        for candidate in self._candidates(hole_type, ()):
            value = candidate.added_weight
            if not candidate.binder_types and next_level is not None:
                for parameter in candidate.parameter_types:
                    bound = next_level.get(parameter)
                    if bound is None:
                        bound = self._hole_bound(parameter, next_depth)
                    value += bound
            if value < best:
                best = value
        level[hole_type] = best
        return best

    def _open_holes_bound(self, node: PartialNode, exclude_id: int,
                          under_binders: bool = False) -> float:
        """Sum of completion bounds over all open holes except *exclude_id*."""
        if isinstance(node, HoleNode):
            if node.hole_id == exclude_id:
                return 0.0
            return 0.0 if under_binders else self._hole_bound(node.type)
        inner = under_binders or bool(node.binders)
        return sum(self._open_holes_bound(argument, exclude_id, inner)
                   for argument in node.arguments)

    def _candidates(self, hole_type: Type,
                    path_binders: tuple[Binder, ...]) -> tuple[Candidate, ...]:
        """All fillings for a hole of *hole_type* under *path_binders*."""
        key = (hole_type, path_binders)
        cached = self._candidate_cache.get(key)
        if cached is not None:
            return cached

        hole_env = self._hole_environment(path_binders)
        argument_types, result = uncurry(hole_type)
        binders = tuple(Binder(self._names.fresh(), tpe)
                        for tpe in argument_types)
        binder_decls = [Declaration(b.name, b.type, DeclKind.LAMBDA)
                        for b in binders]
        inner_env = hole_env.extended(binder_decls) if binder_decls else hole_env

        binder_sigmas = frozenset(sigma(b.type)
                                  for b in path_binders + binders)
        pattern_env = self._pattern_env_cache.get(binder_sigmas)
        if pattern_env is None:
            pattern_env = (self._base_succinct | binder_sigmas
                           if binder_sigmas else self._base_succinct)
            self._pattern_env_cache[binder_sigmas] = pattern_env
        binder_cost = len(binders) * self._policy.binder_weight()

        probe_positions = {binder.name: position
                           for position, binder in enumerate(binders)}
        found: list[Candidate] = []
        decl_weights = self._decl_weights
        declaration_weight = self._policy.declaration_weight
        environment_lookup = self._environment.lookup
        for pattern in self._patterns.lookup(pattern_env, result.name):
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
                ))
        found.sort(key=lambda candidate: candidate.added_weight)
        result_tuple = tuple(found)
        self._candidate_cache[key] = result_tuple
        return result_tuple

    def _hole_environment(self, path_binders: tuple[Binder, ...]) -> Environment:
        """Gamma_o extended with every binder in scope at the hole."""
        if not path_binders:
            return self._environment
        decls = [Declaration(b.name, b.type, DeclKind.LAMBDA)
                 for b in path_binders]
        return self._environment.extended(decls)


def _node_size(node: PartialNode) -> int:
    if isinstance(node, HoleNode):
        return 1
    return 1 + sum(_node_size(argument) for argument in node.arguments)


def reconstruct_reference(patterns: PatternSet, environment: Environment,
                          goal: Type, policy: WeightPolicy,
                          limit: Optional[int] = None,
                          max_steps: Optional[int] = None,
                          time_limit: Optional[float] = None,
                          max_term_size: Optional[int] = None,
                          ) -> list[RawSnippet]:
    """GenerateT over the reference (whole-tree) frontier, best first."""
    reconstructor = ReferenceReconstructor(
        patterns, environment, policy, max_steps=max_steps,
        time_limit=time_limit, max_term_size=max_term_size)
    return _collect(reconstructor, goal, limit)


# ---------------------------------------------------------------------------
# CL / Select / RCN (§3.5, Fig. 4)
#
# RCN rebuilds every long-normal-form inhabitant of a type up to a given
# depth d by brute-force recursion over the succinct calculus.  Theorem 3.3
# states  Gamma_o |-lambda e : tau  <=>  e in RCN(Gamma_o, tau, D(e)).
# Exponential: use only on small instances.
# ---------------------------------------------------------------------------


class SuccinctDecider:
    """Memoised decision procedure for ``Gamma |-c t`` on succinct types."""

    def __init__(self) -> None:
        self._cache: dict[tuple[EnvKey, SuccinctType], bool] = {}

    def inhabited(self, env: EnvKey, stype: SuccinctType) -> bool:
        """Is the succinct type *stype* inhabited in environment *env*?"""
        key = (env, stype)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        space = explore(env, stype)
        patterns = generate_patterns(space)
        decision = patterns.is_inhabited(space.root)
        self._cache[key] = decision
        return decision


def cl(env: EnvKey, goal: SuccinctType,
       decider: SuccinctDecider | None = None,
       ) -> list[tuple[EnvKey, frozenset, str]]:
    """The CL function of Fig. 4.

    ``CL(Gamma, S->t)`` returns all patterns ``(Gamma+S)@S1 : t`` such that
    ``S1 -> t`` is a member of ``Gamma+S`` and every type in ``S1`` is
    inhabited in ``Gamma+S``.  Results are triples
    ``(extended env, S1, t)`` in deterministic order.
    """
    decider = decider or SuccinctDecider()
    extended = frozenset(env) | goal.arguments
    target = goal.result
    found = []
    for member in sorted(extended, key=sort_key):
        if member.result != target:
            continue
        if all(decider.inhabited(extended, premise)
               for premise in member.arguments):
            found.append((extended, member.arguments, target))
    return found


def rcn(environment: Environment, goal: Type, depth: int,
        _decider: SuccinctDecider | None = None,
        _names: NameSupply | None = None) -> set[LNFTerm]:
    """The RCN function of Fig. 4: all LNF inhabitants up to depth *depth*.

    Returned terms are canonicalised (binders renamed in preorder), so the
    result is a genuine set modulo alpha-equivalence.
    """
    decider = _decider or SuccinctDecider()
    names = _names or NameSupply(
        prefix="x", reserved=[decl.name for decl in environment.declarations()])

    terms = _rcn(environment, goal, depth, decider, names)
    return {canonicalize_lnf(term) for term in terms}


def _rcn(environment: Environment, goal: Type, depth: int,
         decider: SuccinctDecider, names: NameSupply) -> set[LNFTerm]:
    if depth <= 0:
        return set()
    argument_types, _result = uncurry(goal)
    succinct_goal = sigma(goal)
    env_key = environment.succinct_environment()

    binders = tuple(Binder(names.fresh(), tpe) for tpe in argument_types)
    binder_decls = [Declaration(b.name, b.type, DeclKind.LAMBDA)
                    for b in binders]
    extended = environment.extended(binder_decls) if binder_decls else environment

    terms: set[LNFTerm] = set()
    for _env, premises, result in cl(env_key, succinct_goal, decider):
        wanted = SuccinctType(premises, result)
        for decl in extended.select(wanted):
            parameter_types, _ = uncurry(decl.type)
            if not parameter_types:
                terms.add(LNFTerm(binders, decl.name, ()))
                continue
            candidate_lists = [
                sorted(_rcn(extended, parameter, depth - 1, decider, names),
                       key=str)
                for parameter in parameter_types
            ]
            if any(not candidates for candidates in candidate_lists):
                continue
            for combination in itertools.product(*candidate_lists):
                terms.add(LNFTerm(binders, decl.name, tuple(combination)))
    return terms
