"""The top-level synthesis pipeline (paper Fig. 5 and §5.6).

``Synthesize(Gamma_o, tau_o, N)`` runs three phases:

1. **Explore** — backward search over succinct types (`repro.core.explore`);
2. **GenerateP** — pattern generation (`repro.core.generate_patterns`);
3. **GenerateT** — best-first term reconstruction (`repro.core.reconstruct`).

:class:`Synthesizer` wires the phases together with the configured budgets,
weight policy and subtype graph, erases coercions from the results (§6),
renders Scala-like code for each snippet, and reports per-phase timings —
the quantities Table 2 calls *Prove*, *Recon* and *Total*.

With ``config.interleaved`` (the default, following §5.6) pattern generation
runs online: every batch of reachability edges found by exploration is fed
to an :class:`IndexedPatternGenerator` immediately, so a time-limited
prover still yields patterns for everything it has explored.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import SynthesisConfig
from repro.core.environment import Environment
from repro.core.errors import SynthesisError
from repro.core.explore import SearchSpace, explore
from repro.core.generate_patterns import (IndexedPatternGenerator,
                                          PatternSet, generate_patterns)
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
        succinct_goal = sigma(goal)
        priority = None
        if self.config.prioritised_exploration and not self.policy.uniform:
            priority = self._priority
        arena = self.environment.succinct_arena()

        if self.config.interleaved:
            generator = IndexedPatternGenerator()
            space = explore(self._env_key, succinct_goal,
                            priority=priority,
                            max_nodes=self.config.max_explore_nodes,
                            time_limit=self.config.prover_time_limit,
                            arena=arena,
                            on_edges_indexed=generator.add_span)
            patterns = generator.result()
        else:
            space = explore(self._env_key, succinct_goal,
                            priority=priority,
                            max_nodes=self.config.max_explore_nodes,
                            time_limit=self.config.prover_time_limit,
                            arena=arena)
            patterns = generate_patterns(space)
        return space, patterns

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
        limit = n if n is not None else self.config.max_snippets
        if limit <= 0:
            raise SynthesisError(f"snippet limit must be positive, got {limit}")

        result = SynthesisResult()

        prove_start = time.perf_counter()
        space, patterns = self.prove(goal)
        prove_elapsed = time.perf_counter() - prove_start

        result.nodes_explored = space.node_count()
        result.edges_found = space.edge_count()
        result.pattern_count = len(patterns)
        result.explore_truncated = space.truncated
        result.inhabited = patterns.is_inhabited(space.root)
        # In interleaved mode pattern time is folded into exploration; report
        # the split by attributing the explorer's own measure to explore and
        # the remainder to patterns.
        result.explore_seconds = min(space.elapsed_seconds, prove_elapsed)
        result.patterns_seconds = max(prove_elapsed - result.explore_seconds, 0.0)

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
