"""Backward exploration of the succinct search space (paper §5.3, Fig. 6/7).

The exploration phase starts from the desired succinct type and discovers
the part of the search space reachable from it, producing *reachability
edges* (the paper's reachability terms).  The three rules:

* **STRIP** — a request for a function type ``(S -> t) ;Gamma ?`` becomes a
  request for its result in the extended environment: ``t ;Gamma+S ?``.
  We normalise eagerly, so every stored :class:`Request` targets a basic
  type.
* **MATCH** — a request ``t ;Gamma ?`` matches every environment member
  ``S' -> t`` whose result is ``t``; each match is a reachability edge whose
  premises are the types in ``S'``.
* **PROP** — every premise ``t'`` of a match spawns the request
  ``t' ;Gamma ?`` (which STRIP then normalises to ``R(t') ;Gamma+A(t') ?``).

The worklist is either FIFO (plain queue) or a priority queue ordered by the
weight of the requested type in the *initial* environment (§5.6) — the
weighted discipline is what makes the search goal-directed in practice.

Termination: every type ever added to an environment is a succinct subterm
of the initial environment or the goal, so the request space is finite.

:func:`explore` runs entirely over integer ids: environments are interned
in an :class:`~repro.core.space.EnvArena` (STRIP is a transition-memo
hit, MATCH an incremental per-env index lookup) and requests are dense
``(target, env_id)`` node ids, so the inner loop hashes small ints instead
of multi-thousand-member frozensets.  The resulting :class:`SearchSpace`
carries the raw :class:`IndexedSpace` and materialises the classic
:class:`Request`/:class:`ReachabilityEdge` views lazily, on first access —
consumers that only need counts or the indexed form never pay for view
construction.  The direct structural transcription of Fig. 7 lives with
the tests (``tests/core/oracle.py``); the property suite checks that both
produce identical spaces, truncated runs included.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

from repro.core.space import EnvArena
from repro.core.succinct import SuccinctType

#: An environment in succinct space: just the set of member types.
EnvKey = frozenset  # frozenset[SuccinctType]


@dataclass(frozen=True)
class Request:
    """A normalised (post-STRIP) exploration request ``target ;env ?``.

    ``target`` is the name of a basic type; ``env`` is the succinct
    environment in effect, *including* any argument sets added by STRIP.
    """

    target: str
    env: EnvKey

    def __str__(self) -> str:
        return f"{self.target} ;|env|={len(self.env)} ?"


@dataclass(frozen=True)
class ReachabilityEdge:
    """A MATCH result: ``request.target`` is derivable from ``source``.

    ``source`` is the environment member ``S' -> target`` that matched; the
    edge's children are the requests its premises propagate to.
    """

    request: Request
    source: SuccinctType


@dataclass
class IndexedSpace:
    """The explored space in integer form: dense node and edge arrays.

    Nodes are requests, numbered in order of first *mention* (the root,
    then children as PROP discovers them); a node can therefore exist
    without ever having been visited — truncated runs reference such
    frontier nodes from their edges.  Edges are numbered in discovery
    order and grouped per visited node as a contiguous span.
    """

    arena: EnvArena
    root: int = 0
    node_targets: list = field(default_factory=list)   # node -> basic type
    node_envs: list = field(default_factory=list)      # node -> env id
    order: list = field(default_factory=list)          # visited, pop order
    edge_node: list = field(default_factory=list)      # edge -> its request
    edge_source: list = field(default_factory=list)    # edge -> matched member
    edge_children: list = field(default_factory=list)  # edge -> child nodes
    node_edges: dict = field(default_factory=dict)     # node -> (start, end)
    _requests: dict = field(default_factory=dict, repr=False)
    _edges: dict = field(default_factory=dict, repr=False)

    def node_count(self) -> int:
        return len(self.node_targets)

    def edge_count(self) -> int:
        return len(self.edge_node)

    # -- classic views -------------------------------------------------------

    def request_view(self, node: int) -> Request:
        """The :class:`Request` behind one node id (memoised)."""
        view = self._requests.get(node)
        if view is None:
            view = Request(self.node_targets[node],
                           self.arena.members(self.node_envs[node]))
            self._requests[node] = view
        return view

    def edge_view(self, edge: int) -> ReachabilityEdge:
        """The :class:`ReachabilityEdge` behind one edge id (memoised)."""
        view = self._edges.get(edge)
        if view is None:
            view = ReachabilityEdge(self.request_view(self.edge_node[edge]),
                                    self.edge_source[edge])
            self._edges[edge] = view
        return view


class SearchSpace:
    """The explored search space: nodes, edges and exploration statistics.

    ``order`` and ``edges`` are classic views, materialised from the
    integer arrays of ``indexed`` on first access.
    """

    def __init__(self, root: Request, indexed: IndexedSpace):
        self.root = root
        self.indexed = indexed
        self.iterations = 0
        self.truncated = False
        self.elapsed_seconds = 0.0

    # -- lazily materialised views ------------------------------------------

    @cached_property
    def order(self) -> tuple[Request, ...]:
        return tuple(map(self.indexed.request_view, self.indexed.order))

    @cached_property
    def edges(self) -> dict:
        isp = self.indexed
        edge = isp.edge_view
        return {isp.request_view(node):
                tuple(edge(j) for j in range(*isp.node_edges[node]))
                for node in isp.order}

    # -- queries -------------------------------------------------------------

    def nodes(self) -> tuple[Request, ...]:
        return self.order

    def all_edges(self) -> list[ReachabilityEdge]:
        return [edge for edges in self.edges.values() for edge in edges]

    def node_count(self) -> int:
        """Visited requests, without materialising the views."""
        return len(self.indexed.order)

    def edge_count(self) -> int:
        return self.indexed.edge_count()

    def __repr__(self) -> str:
        return (f"SearchSpace({self.node_count()} nodes, "
                f"{self.edge_count()} edges, truncated={self.truncated})")


#: Priority function for requests: lower = explored earlier.
RequestPriority = Callable[[SuccinctType], float]


class _Worklist:
    """FIFO or weighted-priority worklist over (priority, item) pairs."""

    def __init__(self, prioritised: bool):
        self._prioritised = prioritised
        self._fifo: deque = deque()
        self._heap: list = []
        self._seq = 0

    def push(self, priority: float, item) -> None:
        if self._prioritised:
            heapq.heappush(self._heap, (priority, self._seq, item))
        else:
            self._fifo.append(item)
        self._seq += 1

    def pop(self):
        if self._prioritised:
            return heapq.heappop(self._heap)[2]
        return self._fifo.popleft()

    def __bool__(self) -> bool:
        return bool(self._heap) if self._prioritised else bool(self._fifo)


def explore(env: EnvKey, goal: SuccinctType,
            priority: Optional[RequestPriority] = None,
            max_nodes: Optional[int] = None,
            time_limit: Optional[float] = None,
            arena: Optional[EnvArena] = None,
            on_edges_indexed: Optional[Callable[[IndexedSpace, int, int], None]] = None,
            ) -> SearchSpace:
    """Run the Explore algorithm of Fig. 7 over the integer-ID arena.

    Parameters
    ----------
    env:
        The initial succinct environment (sigma of the declaration set,
        coercions included).
    goal:
        The desired succinct type; STRIP is applied to form the root request.
    priority:
        Optional request-priority function (the §5.6 weighted discipline):
        maps the *requested succinct type* to the weight of that type in the
        initial environment.  ``None`` selects the plain FIFO queue.
    max_nodes / time_limit:
        Resource budgets; exceeding either marks the space ``truncated``.
    arena:
        Optional long-lived :class:`~repro.core.space.EnvArena` to run in.
        A scene-scoped arena (see ``Environment.succinct_arena``) carries
        its STRIP transition memo and MATCH indexes from query to query;
        omitted, a private arena lives for just this call.
    on_edges_indexed:
        Optional callback invoked as ``(space, start, end)`` with each
        visited request's half-open range of new edge ids — the hook
        through which the prover interleaves pattern generation with
        exploration (§5.6).  The pattern generator keeps the §5.7
        node -> waiting-edges map itself.  No view objects are built.

    Returns the explored :class:`SearchSpace`.
    """
    start = time.perf_counter()
    env = frozenset(env)
    if arena is None:
        arena = EnvArena(env)
    root_env = arena.intern(env)

    isp = IndexedSpace(arena=arena)
    node_targets = isp.node_targets
    node_envs = isp.node_envs
    edge_node = isp.edge_node
    edge_source = isp.edge_source
    edge_children = isp.edge_children
    node_edges = isp.node_edges
    order = isp.order
    node_of: dict[tuple[str, int], int] = {}
    arena_strip = arena.strip
    arena_members = arena.members_returning

    def node_for(target: str, env_id: int) -> int:
        key = (target, env_id)
        node = node_of.get(key)
        if node is None:
            node = len(node_targets)
            node_of[key] = node
            node_targets.append(target)
            node_envs.append(env_id)
        return node

    root_target, root_env_id = arena_strip(goal, root_env)
    root = node_for(root_target, root_env_id)
    isp.root = root

    worklist = _Worklist(prioritised=priority is not None)
    worklist.push(priority(goal) if priority else 0.0, root)

    visited: set[int] = set()
    truncated = False

    while worklist:
        if max_nodes is not None and len(visited) >= max_nodes:
            truncated = True
            break
        if time_limit is not None and time.perf_counter() - start > time_limit:
            truncated = True
            break
        current = worklist.pop()
        if current in visited:
            continue
        visited.add(current)
        order.append(current)

        env_id = node_envs[current]
        span_start = len(edge_node)
        for member in arena_members(env_id, node_targets[current]):
            edge_node.append(current)
            edge_source.append(member)
            children = []
            for premise in member.sorted_arguments():
                child = node_for(*arena_strip(premise, env_id))
                children.append(child)
                if child not in visited:
                    worklist.push(priority(premise) if priority else 0.0,
                                  child)
            edge_children.append(tuple(children))
        span_end = len(edge_node)
        node_edges[current] = (span_start, span_end)
        if span_end > span_start and on_edges_indexed is not None:
            on_edges_indexed(isp, span_start, span_end)

    space = SearchSpace(root=isp.request_view(root), indexed=isp)
    space.truncated = truncated
    space.iterations = len(order)
    space.elapsed_seconds = time.perf_counter() - start
    return space

