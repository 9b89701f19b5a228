"""The top-level synthesis pipeline (paper Fig. 5 and §5.6).

``Synthesize(Gamma_o, tau_o, N)`` runs three phases:

1. **Explore** — backward search over succinct types (`repro.core.explore`);
2. **GenerateP** — pattern generation (`repro.core.generate_patterns`);
3. **GenerateT** — best-first term reconstruction (`repro.core.reconstruct`).

:class:`Synthesizer` wires the phases together with the configured budgets,
weight policy and subtype graph, erases coercions from the results (§6),
renders Scala-like code for each snippet, and reports per-phase timings —
the quantities Table 2 calls *Prove*, *Recon* and *Total*.

Pattern generation runs online, interleaved with exploration (§5.6):
every batch of reachability edges found by exploration is fed to an
:class:`IndexedPatternGenerator` immediately, so a time-limited prover
still yields patterns for everything it has explored.

:meth:`Synthesizer.synthesize` is :meth:`~Synthesizer.prove_result`
followed by :meth:`~Synthesizer.reconstruct`, and always proves.  The
split lets the engine reconstruct from a stored :class:`Proof`, a closed
explored graph, instead (see ``repro.engine.PreparedScene.synthesize``).
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Callable, Iterable, Optional, Sequence

from repro.core.config import SynthesisConfig
from repro.core.environment import Environment
from repro.core.errors import SynthesisError
from repro.core.explore import Request, SearchSpace, explore
from repro.core.generate_patterns import IndexedPatternGenerator, PatternSet
from repro.core.reconstruct import Reconstructor
from repro.core.subtyping import (SubtypeGraph, environment_with_subtyping,
                                  erase_coercions)
from repro.core.succinct import sigma
from repro.core.terms import LNFTerm, canonicalize_lnf
from repro.core.types import Type
from repro.core.weights import WeightPolicy


@dataclass(frozen=True)
class Snippet:
    """One ranked suggestion.

    ``term`` is the raw synthesized term (coercions included, as derived);
    ``surface_term`` has coercions erased (§6) — this is what the user sees;
    ``code`` is the rendered Scala-like text; ``rank`` is 1-based.
    """

    term: LNFTerm
    surface_term: LNFTerm
    weight: float
    rank: int
    code: str

    def __str__(self) -> str:
        return f"#{self.rank} [{self.weight:.1f}] {self.code}"


@dataclass
class SynthesisResult:
    """Snippets plus the phase statistics Table 2 reports."""

    snippets: list[Snippet] = field(default_factory=list)
    inhabited: bool = False
    explore_seconds: float = 0.0
    patterns_seconds: float = 0.0
    reconstruction_seconds: float = 0.0
    nodes_explored: int = 0
    edges_found: int = 0
    pattern_count: int = 0
    reconstruction_expansions: int = 0
    #: Frontier entries pushed (initial hole included) — with the packed
    #: frontier's lazy sibling chain this stays within 2x of expansions.
    reconstruction_enqueued: int = 0
    reconstruction_emitted: int = 0
    explore_truncated: bool = False
    reconstruction_truncated: bool = False
    #: True when explore and patterns did not run: the patterns and work
    #: counts came from a stored :class:`Proof`, and ``explore_seconds``
    #: is the lookup's time (walk included).
    prove_reused: bool = False

    @property
    def prove_seconds(self) -> float:
        """Explore + pattern generation — the paper's *Prove* column."""
        return self.explore_seconds + self.patterns_seconds

    @property
    def total_seconds(self) -> float:
        return self.prove_seconds + self.reconstruction_seconds

    def best(self) -> Optional[Snippet]:
        return self.snippets[0] if self.snippets else None

    def __repr__(self) -> str:
        return (f"SynthesisResult({len(self.snippets)} snippets, "
                f"inhabited={self.inhabited}, "
                f"total={self.total_seconds * 1000:.1f} ms)")


class Proof:
    """One closed explored graph and its pattern set.

    An exploration that no budget cut closes its graph: every node it
    mentions was visited.  A node's inhabitation depends only on the
    nodes below it (§5.4), so any goal whose root request is a node here
    has its proof inside the graph, and :meth:`answer` gives it without
    exploring.

    The graph is flat int data: CSR successors per node (children
    deduplicated), per-node edge counts, an inhabited bitmap, and ``env
    id -> {target -> node}``.  It refers to neither the arena that stores
    it nor the :class:`SearchSpace` it came from; a reference back to the
    arena would make the two a cycle that outlives an evicted scene until
    a collection.
    """

    __slots__ = ("patterns", "root", "_targets", "_envs", "_offsets",
                 "_successors", "_edge_counts", "_edges", "_inhabited",
                 "_nodes")

    def __init__(self, space: SearchSpace, patterns: PatternSet,
                 inhabited: Iterable[int]):
        """The graph of untruncated *space*, whose fixpoint gave
        *patterns* and the *inhabited* node ids."""
        isp = space.indexed
        self.patterns = patterns
        self.root = isp.root
        self._targets = tuple(isp.node_targets)
        self._envs = array("i", isp.node_envs)
        self._edges = isp.edge_count()
        spans = [isp.node_edges[node] for node in range(len(self._targets))]
        edge_children = isp.edge_children
        children = [set().union(*edge_children[start:end])
                    for start, end in spans]
        self._edge_counts = array("i", [end - start for start, end in spans])
        self._offsets = array("i", [0])
        self._offsets.extend(accumulate(map(len, children)))
        self._successors = array("i", chain.from_iterable(children))
        self._inhabited = bytearray(len(self._targets))
        for node in inhabited:
            self._inhabited[node] = 1
        self._nodes: dict[int, dict[str, int]] = {}
        for node, (target, env_id) in enumerate(zip(self._targets,
                                                    self._envs)):
            self._nodes.setdefault(env_id, {})[target] = node

    def node(self, target: str, env_id: int) -> Optional[int]:
        """The node of request ``target ;env_id ?``, or ``None``."""
        targets = self._nodes.get(env_id)
        return None if targets is None else targets.get(target)

    @property
    def root_request(self) -> tuple[str, int]:
        """The ``(target, env id)`` the graph was explored from."""
        return self._targets[self.root], self._envs[self.root]

    def answer(self, node: int,
               members: Callable[[int], frozenset],
               ) -> tuple[SynthesisResult, PatternSet]:
        """What a fresh prove from *node* gives: its work counts (no
        timings) and pattern set.

        The root's closure, or any walk that reaches every node, is the
        whole graph: the stored pattern set and counts.  A strict
        sub-closure has the stored pattern set restricted to its
        inhabited requests, whose envs *members* (the arena's
        ``members``) gives.
        """
        reached = self._closure(node)
        if len(reached) == len(self._targets):
            patterns, edges = self.patterns, self._edges
        else:
            patterns = self.patterns.restricted(
                Request(self._targets[v], members(self._envs[v]))
                for v in reached if self._inhabited[v])
            edges = sum(self._edge_counts[v] for v in reached)
        return SynthesisResult(inhabited=bool(self._inhabited[node]),
                               nodes_explored=len(reached),
                               edges_found=edges,
                               pattern_count=len(patterns),
                               prove_reused=True), patterns

    def _closure(self, node: int) -> Sequence[int]:
        """*node* and every node below it."""
        if node == self.root:
            return range(len(self._targets))
        offsets, successors = self._offsets, self._successors
        seen = bytearray(len(self._targets))
        seen[node] = 1
        reached = [node]
        for current in reached:                  # grows as it goes: BFS
            for child in successors[offsets[current]:offsets[current + 1]]:
                if not seen[child]:
                    seen[child] = 1
                    reached.append(child)
        return reached


class Synthesizer:
    """A reusable synthesis engine over one environment.

    Parameters
    ----------
    environment:
        The declarations visible at the program point (Gamma_o).
    policy:
        The weight policy; defaults to the full Table 1 policy.
    config:
        Budgets and strategy switches; defaults to the paper's evaluation
        settings.
    subtypes:
        Optional subtype graph.  Edges become coercion declarations (§6);
        coercions are erased from returned snippets.
    """

    def __init__(self, environment: Environment,
                 policy: Optional[WeightPolicy] = None,
                 config: Optional[SynthesisConfig] = None,
                 subtypes: Optional[SubtypeGraph] = None):
        self.policy = policy or WeightPolicy.standard()
        self.config = config or SynthesisConfig.paper_defaults()
        self.subtype_graph = subtypes or SubtypeGraph()
        self.base_environment = environment
        self.environment = environment_with_subtyping(environment,
                                                      self.subtype_graph)
        self._env_key = self.environment.succinct_environment()
        self._type_weights = self.environment.type_weight_memo(self.policy)

    @classmethod
    def from_prepared(cls, prepared_environment: Environment,
                      base_environment: Environment,
                      subtype_graph: SubtypeGraph,
                      policy: Optional[WeightPolicy] = None,
                      config: Optional[SynthesisConfig] = None) -> "Synthesizer":
        """Build a synthesizer over an already coercion-extended environment.

        ``prepared_environment`` must be ``environment_with_subtyping(
        base_environment, subtype_graph)`` (or an equivalent).  Skipping that
        rebuild lets a long-lived engine prepare a scene once and then spin
        up per-policy synthesizers at near-zero cost, since the succinct
        signature is cached on the shared environment instance.
        """
        self = cls.__new__(cls)
        self.policy = policy or WeightPolicy.standard()
        self.config = config or SynthesisConfig.paper_defaults()
        self.subtype_graph = subtype_graph
        self.base_environment = base_environment
        self.environment = prepared_environment
        self._env_key = prepared_environment.succinct_environment()
        self._type_weights = prepared_environment.type_weight_memo(self.policy)
        return self

    # -- prover -----------------------------------------------------------

    def _priority(self, stype) -> float:
        """Memoised §5.6 request priority: w(t, Gamma_o), cached per type.

        The weight of a succinct type in the initial environment never
        changes for a given (environment, policy) pair, but exploration
        asks for it once per premise *occurrence*; the memo turns the
        repeated Select scans into dict hits.
        """
        weight = self._type_weights.get(stype)
        if weight is None:
            weight = self.policy.type_weight(stype, self.environment)
            self._type_weights[stype] = weight
        return weight

    def prove(self, goal: Type) -> tuple[SearchSpace, PatternSet]:
        """Run exploration + pattern generation for *goal*.

        Runs over the environment's scene-scoped integer-ID arena
        (:meth:`Environment.succinct_arena`), so repeated queries against
        one scene share STRIP transitions and MATCH indexes.
        """
        space, patterns, _ = self._prove(goal)
        return space, patterns

    def _prove(self, goal: Type) -> tuple[SearchSpace, PatternSet, set]:
        """:meth:`prove`, plus the inhabited node ids."""
        succinct_goal = sigma(goal)
        priority = None
        if self.config.prioritised_exploration and not self.policy.uniform:
            priority = self._priority
        generator = IndexedPatternGenerator()
        space = explore(self._env_key, succinct_goal,
                        priority=priority,
                        max_nodes=self.config.max_explore_nodes,
                        time_limit=self.config.prover_time_limit,
                        arena=self.environment.succinct_arena(),
                        on_edges_indexed=generator.add_span)
        return space, generator.result(), generator.inhabited

    def is_inhabited(self, goal: Type) -> bool:
        """Decide plain type inhabitation (the provability question)."""
        space, patterns = self.prove(goal)
        return patterns.is_inhabited(space.root)

    # -- full synthesis ------------------------------------------------------

    def synthesize(self, goal: Type, n: Optional[int] = None,
                   on_snippet=None) -> SynthesisResult:
        """Synthesize the *n* best snippets of type *goal* (Fig. 5).

        ``on_snippet`` is an optional callback invoked with each
        :class:`Snippet` the moment reconstruction emits it (already
        deduplicated, ranked and rendered) — the serving layer's streaming
        mode hangs off this hook.  The callback runs on the synthesizing
        thread and must not raise; the returned result is identical with
        or without it.
        """
        limit = self.snippet_limit(n)
        result, patterns, _, _ = self.prove_result(goal)
        return self.reconstruct(goal, patterns, result, limit, on_snippet)

    def snippet_limit(self, n: Optional[int]) -> int:
        """The effective snippet limit of one call (``n`` or the config's)."""
        limit = n if n is not None else self.config.max_snippets
        if limit <= 0:
            raise SynthesisError(f"snippet limit must be positive, got {limit}")
        return limit

    def prove_result(self, goal: Type,
                     ) -> tuple[SynthesisResult, PatternSet, SearchSpace, set]:
        """Explore + pattern generation for *goal*, timed.

        Returns a result holding only the prove's statistics and the
        pattern set, for :meth:`reconstruct` to complete, then what a
        :class:`Proof` is built from: the explored space and the
        inhabited node ids.
        """
        result = SynthesisResult()

        prove_start = time.perf_counter()
        space, patterns, inhabited = self._prove(goal)
        prove_elapsed = time.perf_counter() - prove_start

        result.nodes_explored = space.node_count()
        result.edges_found = space.edge_count()
        result.pattern_count = len(patterns)
        result.explore_truncated = space.truncated
        result.inhabited = patterns.is_inhabited(space.root)
        # Pattern time is folded into exploration; report the split by
        # attributing the explorer's own measure to explore and the
        # remainder to patterns.
        result.explore_seconds = min(space.elapsed_seconds, prove_elapsed)
        result.patterns_seconds = max(prove_elapsed - result.explore_seconds, 0.0)
        return result, patterns, space, inhabited

    def reconstruct(self, goal: Type, patterns: PatternSet,
                    result: SynthesisResult, limit: int,
                    on_snippet=None) -> SynthesisResult:
        """GenerateT: the *limit* best snippets of *goal* from *patterns*,
        filled into *result* (which carries the prove's statistics)."""
        if not result.inhabited:
            return result

        reconstructor = Reconstructor(
            patterns, self.environment, self.policy,
            max_steps=self.config.max_reconstruction_steps,
            time_limit=self.config.reconstruction_time_limit,
            max_term_size=self.config.max_term_size)

        seen: set[LNFTerm] = set()
        snippets: list[Snippet] = []
        for raw in reconstructor.enumerate(goal):
            surface = erase_coercions(raw.term)
            canonical = canonicalize_lnf(surface)
            if canonical in seen:
                continue  # distinct coercion paths, identical visible snippet
            seen.add(canonical)
            snippet = Snippet(
                term=raw.term,
                surface_term=surface,
                weight=raw.weight,
                rank=len(snippets) + 1,
                code=self._render(surface),
            )
            snippets.append(snippet)
            if on_snippet is not None:
                on_snippet(snippet)
            if len(snippets) >= limit:
                break

        result.snippets = snippets
        result.reconstruction_seconds = reconstructor.stats.elapsed_seconds
        result.reconstruction_expansions = reconstructor.stats.expansions
        result.reconstruction_enqueued = reconstructor.stats.enqueued
        result.reconstruction_emitted = reconstructor.stats.emitted
        result.reconstruction_truncated = reconstructor.stats.truncated
        return result

    def _render(self, term: LNFTerm) -> str:
        from repro.lang.printer import render_snippet  # avoid import cycle

        return render_snippet(term, self.environment)


def synthesize(environment: Environment, goal: Type, n: int = 10,
               policy: Optional[WeightPolicy] = None,
               config: Optional[SynthesisConfig] = None,
               subtypes: Optional[SubtypeGraph] = None) -> SynthesisResult:
    """One-shot convenience wrapper: ``Synthesize(Gamma_o, tau_o, N)``."""
    synthesizer = Synthesizer(environment, policy=policy, config=config,
                              subtypes=subtypes)
    return synthesizer.synthesize(goal, n)
