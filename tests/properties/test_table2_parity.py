"""Oracle parity on the paper's own Table-2 scenes.

The parity properties draw environments of at most ten declarations; the
scenes Table 2 measures hold thousands.  For one Table-2 row this checks
the production prover and reconstructor against the structural oracles in
``tests/core/oracle.py``:

* prover — ``Synthesizer.prove`` (no time limit) against
  ``explore_reference`` plus the post-hoc fixpoint under the same §5.6
  priority: node order, edge map, patterns, the inhabited set and the
  Fig. 10 lookup index;
* reconstruction — ``Reconstructor`` against ``ReferenceReconstructor`` on
  that pattern set: the first ten ``(term, weight, order)`` and the stats.

One row per import group runs in tier-1; all fifty run under ``slow``.
"""

import pytest

from repro.bench.suite import benchmark_by_number, build_scene
from repro.core.config import SynthesisConfig
from repro.core.reconstruct import Reconstructor
from repro.core.succinct import sigma
from repro.core.synthesizer import Synthesizer
from tests.core import oracle

#: Snippets compared per row: the paper's N.
LIMIT = 10


def _first_snippets(reconstructor, goal):
    snippets = []
    for snippet in reconstructor.enumerate(goal):
        snippets.append((snippet.term, snippet.weight, snippet.order))
        if len(snippets) >= LIMIT:
            break
    stats = reconstructor.stats
    return snippets, (stats.expansions, stats.enqueued, stats.emitted,
                      stats.truncated)


def _assert_oracle_parity(number):
    scene = build_scene(benchmark_by_number(number))
    config = SynthesisConfig(prover_time_limit=None)
    synthesizer = Synthesizer(scene.environment, config=config,
                              subtypes=scene.subtypes)
    environment, policy, goal = (synthesizer.environment, synthesizer.policy,
                                 scene.goal)

    space, patterns = synthesizer.prove(goal)
    reference = oracle.explore_reference(
        environment.succinct_environment(), sigma(goal),
        priority=lambda stype: policy.type_weight(stype, environment),
        max_nodes=config.max_explore_nodes)
    baseline = oracle.generate_patterns_reference(reference)
    assert space.root == reference.root
    assert space.truncated == reference.truncated
    assert space.order == reference.order
    assert space.edges == reference.edges
    assert patterns.patterns == baseline.patterns
    assert patterns.inhabited == baseline.inhabited
    assert patterns._index == baseline._index

    max_steps = config.max_reconstruction_steps
    packed = _first_snippets(
        Reconstructor(patterns, environment, policy, max_steps=max_steps),
        goal)
    whole_tree = _first_snippets(
        oracle.ReferenceReconstructor(patterns, environment, policy,
                                      max_steps=max_steps),
        goal)
    assert packed[0], f"row {number} emitted no snippet"
    assert packed == whole_tree


# The smallest row of each import group: java.io, java.net, java.awt,
# javax.swing.
@pytest.mark.parametrize("number", [40, 9, 41, 31])
def test_one_row_per_import_group(number):
    _assert_oracle_parity(number)


@pytest.mark.slow
@pytest.mark.parametrize("number", range(1, 51))
def test_every_row(number):
    _assert_oracle_parity(number)
