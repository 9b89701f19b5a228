"""Unit tests for the BENCH_edit structural gate (no timing)."""

import json
from pathlib import Path

from repro.bench.edit_bench import (EDITOR_ROWS, MAX_POST_EDIT_RATIO, SCHEMA,
                                    check_ordering)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _measured(ratio: float) -> dict:
    return {
        "row": 28,
        "edits": {"add": {"delta_ms": 10.0, "rebuild_ms": 50.0}},
        "editor_loop": [{"row": row, "warm_miss_ms": 100.0,
                         "post_edit_miss_ms": 100.0 * ratio,
                         "post_edit_ratio": ratio}
                        for row in EDITOR_ROWS],
    }


class TestOrderingGate:
    def test_warm_post_edit_miss_passes(self):
        assert check_ordering(_measured(1.2)) == []

    def test_post_edit_miss_over_the_limit_fails_per_row(self):
        failures = check_ordering(_measured(MAX_POST_EDIT_RATIO + 0.5))
        assert len(failures) == len(EDITOR_ROWS)
        assert "the completion after an edit" in failures[0]

    def test_committed_bench_edit_meets_the_editor_loop_target(self):
        """The repo-root BENCH_edit.json must pass its own gate and record
        every editor-loop row within 1.3x of its warm miss."""
        committed = json.loads(
            (REPO_ROOT / "BENCH_edit.json").read_text(encoding="utf-8"))
        assert committed["schema"] == SCHEMA
        current = committed["current"]
        assert check_ordering(current) == []
        assert [row["row"] for row in current["editor_loop"]] \
            == list(EDITOR_ROWS)
        for row in current["editor_loop"]:
            assert row["post_edit_ratio"] <= 1.3
