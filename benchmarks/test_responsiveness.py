"""§5.6 responsiveness: anytime behaviour under shrinking prover budgets.

The paper interleaves exploration with pattern generation precisely so
that a *time-limited* prover still hands reconstruction a usable pattern
set.  This bench sweeps the prover budget downward on the Figure 1 scene
and reports how many suggestions survive — the anytime curve an IDE user
experiences — asserting the two §5.6 properties: graceful degradation
(never an error, snippets monotonically non-increasing-ish) and a usable
answer already at small budgets.
"""

from repro.core.config import SynthesisConfig
from repro.core.synthesizer import Synthesizer

BUDGETS = [None, 0.5, 0.1, 0.05, 0.02, 0.01]


def test_anytime_prover_budgets(benchmark, figure1_scene):
    scene = figure1_scene

    def sweep():
        outcomes = []
        for budget in BUDGETS:
            synthesizer = Synthesizer(
                scene.environment,
                config=SynthesisConfig(prover_time_limit=budget),
                subtypes=scene.subtypes)
            result = synthesizer.synthesize(scene.goal, n=5)
            outcomes.append((budget, result))
        return outcomes

    outcomes = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\n=== §5.6 anytime curve (Figure 1 scene, interleaved prover) ===")
    print(f"{'budget':>10} {'truncated':>10} {'snippets':>9} "
          f"{'expected found':>15}")
    for budget, result in outcomes:
        codes = [snippet.code for snippet in result.snippets]
        hit = "new SequenceInputStream(body, sig)" in codes
        label = "none" if budget is None else f"{budget * 1000:.0f} ms"
        print(f"{label:>10} {str(result.explore_truncated):>10} "
              f"{len(result.snippets):>9} {str(hit):>15}")

    # Unlimited budget finds the full answer.
    _, unlimited = outcomes[0]
    assert len(unlimited.snippets) == 5
    # Every budget, however tight, returns cleanly (no exception) and
    # anything returned is ranked.
    for _budget, result in outcomes:
        assert [s.rank for s in result.snippets] == \
            list(range(1, len(result.snippets) + 1))
    # A modest 100 ms budget already produces suggestions on this scene.
    budget_100 = dict((b, r) for b, r in outcomes)[0.1]
    assert budget_100.snippets
