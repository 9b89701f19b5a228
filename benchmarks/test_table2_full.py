"""Table 2, full algorithm: all 50 benchmarks, measured vs published.

Regenerates the paper's main table for the full variant (weights + corpus):
goal-snippet rank, prover/reconstruction/total times — and asserts the
headline shape: the expected snippet lands in the top ten on >= 90 % of the
rows (paper: 96 %) and at rank one on >= 50 % (paper: 64 %).  Also writes
machine-readable artefacts to ``benchmarks/out/``; they hold the timings
of the machine that ran them, so git ignores them and CI uploads them.
"""

from pathlib import Path

from repro.bench.export import write_csv, write_json
from repro.bench.reporting import format_table, summarize

OUT_DIR = Path(__file__).parent / "out"


def test_table2_full_variant(benchmark, suite_results):
    summary = benchmark.pedantic(lambda: summarize(suite_results),
                                 rounds=1, iterations=1)

    print("\n=== Table 2 (measured; 'paper' column = published full rank) ===")
    print(format_table(suite_results))
    print()
    print(summary.as_text())

    # Per-row latency sanity *before* touching benchmarks/out/: a single
    # measurement glitch (a multi-second outlier from OS scheduling noise)
    # must fail loudly without overwriting the last good artefacts —
    # averaging it away or writing it to disk first would both let it land.
    glitches = [(result.spec.number, round(result.outcomes["full"].total_ms, 1))
                for result in suite_results
                if "full" in result.outcomes
                and result.outcomes["full"].total_ms >= 1000.0]
    if not glitches:
        OUT_DIR.mkdir(exist_ok=True)
        write_csv(suite_results, OUT_DIR / "table2.csv")
        write_json(suite_results, OUT_DIR / "table2.json")
        print(f"\nmachine-readable results: {OUT_DIR / 'table2.csv'}")
    assert not glitches, (
        f"per-row total_ms glitches (row, ms): {glitches}; artefacts not "
        "written — re-run on an idle machine")

    total = summary.benchmarks
    assert summary.full_top10 / total >= 0.90
    assert summary.full_rank1 / total >= 0.50
    # Interactive latency: sub-second on average, as in the paper.
    assert summary.mean_total_full_ms < 1000.0
