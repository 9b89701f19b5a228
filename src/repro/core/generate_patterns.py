"""Pattern generation (paper §5.4, Fig. 8/9).

Given the explored :class:`~repro.core.explore.SearchSpace`, this phase
computes which requests are *inhabited* — the least fixpoint of the
AND-OR structure: an edge fires when all its premise requests are
inhabited, a request is inhabited when at least one of its edges fires —
and turns every firing edge into a *succinct pattern* ``Gamma@S' : t``
(the PROD rule).  The TRANSFER rule of the paper moves premises that
became inhabited from the pending set ``S`` to the witnessed set ``Pi``.

:class:`IndexedPatternGenerator` is the one implementation: the Fig. 9
worklist over the explored space's
:class:`~repro.core.explore.IndexedSpace`, whose pending sets,
watch-lists and inhabited set are keyed by dense integer node/edge ids,
so no `Request`/`ReachabilityEdge` view is hashed anywhere in the
fixpoint.  The prover feeds it online, one edge-id span per visited
request (§5.6), and its watch-lists are the §5.7 node -> waiting-edges
map, built as the edges arrive; :func:`generate_patterns` feeds it a
whole explored space at once.  The structural post-hoc, Fig. 9 and §5.7
fixpoints live with the tests (``tests/core/oracle.py``); the property
suites assert that this one produces identical pattern sets, truncated
runs included.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Optional

from repro.core.explore import EnvKey, IndexedSpace, Request, SearchSpace
from repro.core.succinct import SuccinctType, sort_key


@dataclass(frozen=True)
class Pattern:
    """A succinct pattern ``Gamma@{t1,...,tn} : t`` (§3.3).

    ``premises`` is the argument set ``S'`` of the matched environment
    member; all of its types are inhabited in ``env``, and an inhabitant of
    ``result`` can be built from them by applying any declaration whose
    succinct type is ``premises -> result``.
    """

    env: EnvKey
    premises: frozenset  # frozenset[SuccinctType]
    result: str

    def sorted_premises(self) -> tuple[SuccinctType, ...]:
        # Routed through the succinct-type view so the canonical order is
        # served from the global sorted-arguments memo (premise sets are
        # shared with the matched members, so it is almost always warm).
        return self.succinct_type().sorted_arguments()

    def succinct_type(self) -> SuccinctType:
        """The member type ``premises -> result`` this pattern matched.

        Cached per pattern: reconstruction probes ``Select`` with this
        type once per candidate-list build, and handing back the same
        instance makes those dict lookups identity-fast.
        """
        stype = self.__dict__.get("_stype")
        if stype is None:
            stype = SuccinctType(self.premises, self.result)
            object.__setattr__(self, "_stype", stype)
        return stype

    def __str__(self) -> str:
        inner = ", ".join(str(p) for p in self.sorted_premises())
        return f"Gamma@{{{inner}}} : {self.result}"


@dataclass
class PatternSet:
    """The generated patterns plus the inhabited-request relation."""

    patterns: frozenset = frozenset()          # frozenset[Pattern]
    inhabited: frozenset = frozenset()         # frozenset[Request]
    _index: dict = field(default_factory=dict)  # (EnvKey, result) -> tuple[Pattern]

    @staticmethod
    def build(patterns: Iterable[Pattern],
              inhabited: Iterable[Request]) -> "PatternSet":
        patterns = frozenset(patterns)
        index: dict[tuple[EnvKey, str], list[Pattern]] = {}
        # The historical index order sorted on ``(result, len(premises),
        # sorted premise keys)`` — which is, component for component,
        # exactly ``sort_key`` of the pattern's member type, served from
        # the global (cross-query) memo.
        for pattern in sorted(patterns,
                              key=lambda p: sort_key(p.succinct_type())):
            index.setdefault((pattern.env, pattern.result), []).append(pattern)
        return PatternSet(
            patterns=patterns,
            inhabited=frozenset(inhabited),
            _index={key: tuple(values) for key, values in index.items()},
        )

    def lookup(self, env: EnvKey, result: str) -> tuple[Pattern, ...]:
        """All patterns ``env@S' : result`` — the Fig. 10 pattern query."""
        return self._index.get((env, result), ())

    def restricted(self, inhabited: Iterable[Request]) -> "PatternSet":
        """The pattern set of a sub-closure whose inhabited requests are
        *inhabited* (each inhabited in this set too).

        A request's patterns are its firing edges, so the sub-closure's
        are exactly these requests' slices here.  Each slice already has
        the `sort_key` order :meth:`build` gives it, so the result equals
        a fresh build over the sub-closure.
        """
        inhabited = frozenset(inhabited)
        index = {(request.env, request.target):
                 self._index[(request.env, request.target)]
                 for request in inhabited}
        return PatternSet(patterns=frozenset(chain.from_iterable(
                              index.values())),
                          inhabited=inhabited, _index=index)

    def is_inhabited(self, request: Request) -> bool:
        return request in self.inhabited

    def __len__(self) -> int:
        return len(self.patterns)

    def __repr__(self) -> str:
        return (f"PatternSet({len(self.patterns)} patterns, "
                f"{len(self.inhabited)} inhabited requests)")


class IndexedPatternGenerator:
    """The paper's Fig. 9 algorithm over integer ids, consumable online.

    The prover wires :meth:`add_span` into the explorer's
    ``on_edges_indexed`` hook (§5.6): every batch of freshly discovered
    edges is folded into the fixpoint immediately, so a time-limited
    prover still yields patterns for everything it has explored.  State
    is exactly the published pseudo-code's — a pending set ``S`` per
    reachability term, leaves processed from a queue, TRANSFER resolving
    pending terms against each new leaf, PROD emitting the leaf's pattern
    — just keyed by edge/node ids instead of structural objects.
    """

    def __init__(self) -> None:
        self._space: Optional[IndexedSpace] = None
        self._pending: dict[int, set[int]] = {}    # edge -> pending children
        self._leaves: deque[int] = deque()
        self._inhabited: set[int] = set()          # node ids
        self._watchers: dict[int, list[int]] = {}  # node -> waiting edges
        self._pattern_edges: set[int] = set()

    def add_span(self, isp: IndexedSpace, start: int, end: int) -> None:
        """Fold the edge-id range ``[start, end)`` into the fixpoint."""
        self._space = isp
        edge_children = isp.edge_children
        for edge in range(start, end):
            # Premises already known inhabited transfer immediately.
            pending = set(edge_children[edge]) - self._inhabited
            self._pending[edge] = pending
            if pending:
                for child in pending:
                    self._watchers.setdefault(child, []).append(edge)
            else:
                self._leaves.append(edge)
        self._drain(isp)

    def _drain(self, isp: IndexedSpace) -> None:
        edge_node = isp.edge_node
        while self._leaves:
            leaf = self._leaves.popleft()
            if leaf in self._pattern_edges:
                continue
            # PROD: emit the pattern of this (now fully witnessed) term.
            self._pattern_edges.add(leaf)
            node = edge_node[leaf]
            if node in self._inhabited:
                continue
            self._inhabited.add(node)
            # TRANSFER: resolve compatible pending terms against this leaf.
            for watcher in self._watchers.get(node, ()):
                pending = self._pending.get(watcher)
                if pending is None or node not in pending:
                    continue
                pending.discard(node)
                if not pending:
                    self._leaves.append(watcher)

    def goal_reached(self, root: int) -> bool:
        """True as soon as the root node is known inhabited."""
        return root in self._inhabited

    @property
    def inhabited(self) -> set[int]:
        """The node ids known inhabited so far."""
        return self._inhabited

    def result(self) -> PatternSet:
        """Materialise the classic :class:`PatternSet` from integer results."""
        isp = self._space
        if isp is None:                            # no edges ever arrived
            return PatternSet.build((), ())
        # Dedup on (env id, interned source) before building Pattern
        # objects: several edges of one request share a source type, and
        # int/identity keys are far cheaper to hash than pattern triples.
        edge_node = isp.edge_node
        edge_source = isp.edge_source
        node_envs = isp.node_envs
        node_targets = isp.node_targets
        distinct = set()
        for edge in self._pattern_edges:
            node = edge_node[edge]
            distinct.add((node_envs[node], edge_source[edge],
                          node_targets[node]))
        arena_members = isp.arena.members
        patterns = set()
        for env_id, source, target in distinct:
            pattern = Pattern(arena_members(env_id), source.arguments, target)
            # The matched member *is* the pattern's succinct type
            # (``arguments -> result`` with ``result == target``); seeding
            # the view with the interned instance makes downstream
            # ``sort_key`` and ``Select`` lookups identity-fast, and warm
            # across queries.
            object.__setattr__(pattern, "_stype", source)
            patterns.add(pattern)
        inhabited = {isp.request_view(node) for node in self._inhabited}
        return PatternSet.build(patterns, inhabited)


def generate_patterns(space: SearchSpace) -> PatternSet:
    """GenerateP over a fully explored *space*: its whole edge range
    ``[0, edge_count)`` fed to one :class:`IndexedPatternGenerator`."""
    isp = space.indexed
    generator = IndexedPatternGenerator()
    generator.add_span(isp, 0, isp.edge_count())
    return generator.result()
