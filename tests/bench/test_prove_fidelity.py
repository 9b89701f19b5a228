"""Table 2 and BENCH_core time real proves.

The engine reconstructs a result-cache miss from a stored proof when the
scene state has already proved the goal (``PreparedScene.synthesize``).
The paper's Prove column and BENCH_core's prove gate must still time
explore and pattern generation: ``Synthesizer.synthesize`` always proves,
the Table 2 runner's timing repeats and ``core_bench`` call it directly,
and the weight policy is part of a stored proof's key, so each variant's
served run proves too.
"""

from repro.bench import core_bench
from repro.bench.runner import run_benchmark, scene_for
from repro.bench.suite import benchmark_by_number
from repro.core.synthesizer import Synthesizer
from repro.engine import VARIANTS, CompletionEngine, policy_for_variant

ROW = 9


def test_table2_and_core_bench_time_real_proves(monkeypatch):
    proved = []
    real = Synthesizer.prove_result

    def counted(self, goal):
        proved.append(self.policy)
        return real(self, goal)

    monkeypatch.setattr(Synthesizer, "prove_result", counted)
    spec = benchmark_by_number(ROW)
    engine = CompletionEngine()

    # Each variant's served run proves, then full's three timed repeats.
    outcome = run_benchmark(spec, engine=engine, timing_repeats=3)
    assert proved == ([policy_for_variant(v) for v in VARIANTS]
                      + [policy_for_variant("full")] * 3)
    assert outcome.outcomes["full"].prove_ms > 0

    # The arena now holds full's proof; direct synthesizers over it still
    # prove, while the engine reuses it for a new n.
    scene = scene_for(spec)
    prepared = engine.prepare_scene(scene)
    proved.clear()
    direct = [Synthesizer.from_prepared(prepared.environment,
                                        prepared.base_environment,
                                        prepared.subtypes).synthesize(
                  scene.goal, n=10) for _ in range(2)]
    assert len(proved) == 2
    assert [result.prove_reused for result in direct] == [False, False]
    assert direct[0].nodes_explored == direct[1].nodes_explored > 0
    reused = engine.complete(prepared, variant="full", n=5).result
    assert len(proved) == 2
    assert reused.prove_reused
    assert reused.nodes_explored == direct[0].nodes_explored

    # core_bench: one cold and two warm runs, every one a prove.
    proved.clear()
    rows = core_bench.measure_rows(rows=(ROW,), repeats=2)
    assert len(proved) == 3
    assert rows[str(ROW)]["prove_ms"] > 0
