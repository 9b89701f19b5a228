"""Ablation benches for design choices the paper argues for (§4-§6).

* weighted-priority vs FIFO exploration (§5.6's responsiveness argument);
* interleaved vs batch pattern generation (§5.6, Fig. 9);
* coercion weight (Table 1's 10) vs an expensive-coercion variant (§6);
* the completion-bound lookahead in reconstruction (the transitively
  applied "type weights guide the search" of §4).
"""

import time

import pytest

from repro.core.config import SynthesisConfig
from repro.core.explore import explore
from repro.core.generate_patterns import generate_patterns
from repro.core.reconstruct import Reconstructor
from repro.core.succinct import sigma
from repro.core.synthesizer import Synthesizer
from repro.core.weights import WeightPolicy
from repro.bench.suite import benchmark_by_number, build_scene


@pytest.fixture(scope="module")
def display_mode_scene():
    return build_scene(benchmark_by_number(13))


def test_ablation_exploration_discipline(benchmark, figure1_scene):
    """Priority exploration reaches the goal-relevant space no slower than
    FIFO and produces identical pattern sets (completeness)."""
    scene = figure1_scene

    def run(prioritised):
        synthesizer = Synthesizer(
            scene.environment,
            config=SynthesisConfig(prioritised_exploration=prioritised),
            subtypes=scene.subtypes)
        return synthesizer.prove(scene.goal)

    space_priority, patterns_priority = benchmark.pedantic(
        lambda: run(True), rounds=3, iterations=1)
    space_fifo, patterns_fifo = run(False)

    print("\n=== Ablation: exploration discipline ===")
    print(f"  priority: {len(space_priority.order)} nodes, "
          f"{len(patterns_priority)} patterns, "
          f"{space_priority.elapsed_seconds * 1000:.0f} ms")
    print(f"  fifo:     {len(space_fifo.order)} nodes, "
          f"{len(patterns_fifo)} patterns, "
          f"{space_fifo.elapsed_seconds * 1000:.0f} ms")

    assert patterns_priority.patterns == patterns_fifo.patterns
    assert len(space_priority.order) == len(space_fifo.order)


def test_ablation_interleaved_patterns(benchmark, figure1_scene):
    """§5.6 interleaving must not change results; timings are comparable.

    The interleaved arm is the prover, which feeds each visited request's
    edges to the Fig. 9 fixpoint as exploration finds them; the batch arm
    explores first, then feeds the whole space at once.  `Reconstructor`
    reads only the `PatternSet`, so equal sets give equal snippets.
    """
    scene = figure1_scene
    synthesizer = Synthesizer(scene.environment,
                              config=SynthesisConfig(prover_time_limit=None),
                              subtypes=scene.subtypes)
    environment = synthesizer.environment

    def batch():
        space = explore(environment.succinct_environment(), sigma(scene.goal),
                        priority=lambda stype: synthesizer.policy.type_weight(
                            stype, environment),
                        max_nodes=synthesizer.config.max_explore_nodes)
        return generate_patterns(space)

    def timed(run):
        start = time.perf_counter()
        patterns = run()
        return patterns, time.perf_counter() - start

    interleaved, interleaved_s = benchmark.pedantic(
        lambda: timed(lambda: synthesizer.prove(scene.goal)[1]), rounds=3,
        iterations=1)
    batched, batched_s = timed(batch)

    print("\n=== Ablation: interleaved vs batch pattern generation ===")
    print(f"  interleaved: prove {interleaved_s * 1000:.0f} ms")
    print(f"  batch:       prove {batched_s * 1000:.0f} ms")
    assert interleaved.patterns == batched.patterns
    assert interleaved.inhabited == batched.inhabited
    assert interleaved._index == batched._index


def test_ablation_coercion_weight(benchmark):
    """Cheap coercions (Table 1: 10) are what let subtype-mediated snippets
    compete; pricing them like imports buries ``panel.getLayout()``."""
    from repro.javamodel.scenes import drawing_layout_scene

    scene = drawing_layout_scene()

    def rank_with(coercion_weight):
        policy = WeightPolicy.standard().with_constants(
            coercion_weight=coercion_weight)
        synthesizer = Synthesizer(scene.environment, policy=policy,
                                  subtypes=scene.subtypes)
        result = synthesizer.synthesize(scene.goal, n=10)
        for snippet in result.snippets:
            if snippet.code == "panel.getLayout()":
                return snippet.rank
        return None

    cheap = benchmark.pedantic(lambda: rank_with(10.0), rounds=1,
                               iterations=1)
    pricey = rank_with(500.0)

    print("\n=== Ablation: coercion weight (drawing-layout scene) ===")
    print(f"  weight 10 (paper):  rank {cheap}")
    print(f"  weight 500:         rank {pricey}")
    assert cheap is not None and cheap <= 3
    assert pricey is None or pricey > cheap


def test_ablation_completion_bound_depth(benchmark, display_mode_scene):
    """Without the completion-bound lookahead the four-int-hole benchmark
    expands orders of magnitude more states (the 'int flood')."""
    scene = display_mode_scene
    synthesizer = Synthesizer(scene.environment, subtypes=scene.subtypes)
    space, patterns = synthesizer.prove(scene.goal)

    def expansions(depth):
        reconstructor = Reconstructor(patterns, synthesizer.environment,
                                      synthesizer.policy,
                                      max_steps=120_000, time_limit=10.0)
        reconstructor._HEURISTIC_DEPTH = depth
        emitted = 0
        for _snippet in reconstructor.enumerate(scene.goal):
            emitted += 1
            if emitted >= 10:
                break
        return reconstructor.stats.expansions

    with_bound = benchmark.pedantic(lambda: expansions(4), rounds=1,
                                    iterations=1)
    without_bound = expansions(0)

    print("\n=== Ablation: completion-bound lookahead (DisplayMode row) ===")
    print(f"  depth 4: {with_bound} expansions for 10 snippets")
    print(f"  depth 0: {without_bound} expansions (zero-weight holes)")
    assert with_bound * 5 <= without_bound, \
        "the admissible bound should prune the frontier dramatically"
