"""Arena/structural parity: the indexed prover equals the reference path.

The production prover (`explore` + the one indexed fixpoint,
`IndexedPatternGenerator`, behind `generate_patterns`) runs over integer
ids in an :class:`~repro.core.space.EnvArena`; `explore_reference` and the
``*_reference`` fixpoints in ``tests/core/oracle.py`` (post-hoc, Fig. 9,
§5.7) are the structural transcription of Fig. 7/8/9.  These properties
assert the two produce *identical* search spaces and pattern sets — node
order, edge maps, patterns and the inhabited relation — on random scenes,
including truncated (budgeted) runs and both queue disciplines.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explore import explore
from repro.core.generate_patterns import (IndexedPatternGenerator,
                                          generate_patterns)
from repro.core.space import EnvArena
from repro.core.succinct import sigma, sort_key
from tests.core import oracle
from tests.helpers import environments, simple_types

#: The structural oracles that read only ``space.edges``, so they run over
#: the production space's views too; the §5.7 oracle also reads the
#: backward map only the oracle's space builds.
EDGE_ORACLES = (oracle.generate_patterns_reference,
                oracle.generate_patterns_incremental_reference)


@st.composite
def exploration_cases(draw):
    """A random scene: environment, goal, budget, queue discipline."""
    environment = draw(environments(min_size=1, max_size=10))
    goal = draw(simple_types())
    max_nodes = draw(st.sampled_from([None, None, 1, 2, 5, 10]))
    prioritised = draw(st.booleans())
    return environment, goal, max_nodes, prioritised


def _deterministic_priority(stype):
    # Any pure function of the type works as a §5.6 stand-in; sort_key
    # gives a stable, discriminating one.
    return float(len(str(sort_key(stype))))


def _run_both(environment, goal, max_nodes, prioritised):
    env = environment.succinct_environment()
    succinct_goal = sigma(goal)
    priority = _deterministic_priority if prioritised else None
    indexed = explore(env, succinct_goal, priority=priority,
                      max_nodes=max_nodes)
    reference = oracle.explore_reference(env, succinct_goal,
                                         priority=priority,
                                         max_nodes=max_nodes)
    return indexed, reference


@settings(max_examples=60, deadline=None)
@given(exploration_cases())
def test_explore_matches_reference(case):
    indexed, reference = _run_both(*case)
    assert indexed.root == reference.root
    assert indexed.truncated == reference.truncated
    assert indexed.iterations == reference.iterations
    # Byte-identical views: same visit order, same edge map (values are
    # ordered tuples).
    assert indexed.order == reference.order
    assert indexed.edges == reference.edges


@settings(max_examples=60, deadline=None)
@given(exploration_cases())
def test_pattern_sets_match_across_all_fixpoints(case):
    indexed, reference = _run_both(*case)
    baseline = oracle.generate_patterns_reference(reference)
    indexed_set = generate_patterns(indexed)
    # The edge oracles read the production space's views as well as their
    # own; the §5.7 oracle reads only its own space.
    produced_sets = [indexed_set]
    produced_sets += [fixpoint(space) for space in (indexed, reference)
                      for fixpoint in EDGE_ORACLES]
    produced_sets.append(
        oracle.generate_patterns_with_predecessor_map_reference(reference))
    for produced in produced_sets:
        assert produced.patterns == baseline.patterns
        assert produced.inhabited == baseline.inhabited
    # The Fig. 10 lookup index must agree entry for entry (same order).
    assert indexed_set._index == baseline._index


@settings(max_examples=40, deadline=None)
@given(exploration_cases())
def test_interleaved_generators_match_post_hoc(case):
    environment, goal, max_nodes, prioritised = case
    env = environment.succinct_environment()
    succinct_goal = sigma(goal)
    priority = _deterministic_priority if prioritised else None

    online = IndexedPatternGenerator()
    space = explore(env, succinct_goal, priority=priority,
                    max_nodes=max_nodes, on_edges_indexed=online.add_span)

    batches = []
    reference_online = oracle.IncrementalPatternGenerator()
    reference_space = oracle.explore_reference(
        env, succinct_goal, priority=priority, max_nodes=max_nodes,
        on_edges=lambda edges: (batches.append(list(edges)),
                                reference_online.add_edges(edges)))

    produced = online.result()
    expected = reference_online.result()
    assert produced.patterns == expected.patterns
    assert produced.inhabited == expected.inhabited
    # And both equal the post-hoc fixpoint over the full space.
    post_hoc = oracle.generate_patterns_reference(reference_space)
    assert produced.patterns == post_hoc.patterns
    assert produced.inhabited == post_hoc.inhabited
    # The indexed explorer feeds its callback the same edge batches.
    assert sum(len(batch) for batch in batches) == space.edge_count()


@settings(max_examples=30, deadline=None)
@given(exploration_cases())
def test_shared_arena_reuse_is_transparent(case):
    """Re-running queries on one warm arena changes nothing."""
    environment, goal, max_nodes, prioritised = case
    env = environment.succinct_environment()
    succinct_goal = sigma(goal)
    priority = _deterministic_priority if prioritised else None
    arena = EnvArena(env)
    first = explore(env, succinct_goal, priority=priority,
                    max_nodes=max_nodes, arena=arena)
    second = explore(env, succinct_goal, priority=priority,
                     max_nodes=max_nodes, arena=arena)
    reference = oracle.explore_reference(env, succinct_goal,
                                         priority=priority,
                                         max_nodes=max_nodes)
    for space in (first, second):
        assert space.order == reference.order
        assert space.edges == reference.edges
        patterns = generate_patterns(space)
        baseline = oracle.generate_patterns_reference(reference)
        assert patterns.patterns == baseline.patterns
        assert patterns.inhabited == baseline.inhabited
