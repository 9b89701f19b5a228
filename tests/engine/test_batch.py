"""Batch API ordering and deduplication."""

import pytest

from repro.engine import CompletionEngine, EngineQuery
from repro.lang.loader import load_environment_text
from repro.lang.parser import parse_type

SCENE_A = """
local name : String
imported java.io.File.new : String -> File \
[freq=100] [style=constructor] [display=File]
goal File
"""

SCENE_B = """
local path : String
imported java.io.FileReader.new : String -> FileReader \
[freq=90] [style=constructor] [display=FileReader]
goal FileReader
"""


@pytest.fixture
def engine():
    return CompletionEngine()


class TestCompleteBatch:
    def test_results_in_input_order(self, engine):
        loaded_a = load_environment_text(SCENE_A)
        loaded_b = load_environment_text(SCENE_B)
        scene_a = engine.prepare(loaded_a.environment, loaded_a.subtypes,
                                 goal=loaded_a.goal, name="a")
        scene_b = engine.prepare(loaded_b.environment, loaded_b.subtypes,
                                 goal=loaded_b.goal, name="b")
        queries = [
            EngineQuery(goal=loaded_b.goal, scene=scene_b),
            EngineQuery(goal=loaded_a.goal, scene=scene_a),
            EngineQuery(goal=parse_type("String"), scene=scene_a),
        ]
        served = engine.complete_batch(queries)
        assert [outcome.scene_name for outcome in served] == ["b", "a", "a"]
        assert served[0].snippets[0].code == 'new FileReader(path)'
        assert served[1].snippets[0].code == 'new File(name)'
        assert served[2].snippets[0].code == 'name'

    def test_batch_scene_default(self, engine):
        loaded = load_environment_text(SCENE_A)
        prepared = engine.prepare(loaded.environment, loaded.subtypes,
                                  goal=loaded.goal)
        served = engine.complete_batch(
            [EngineQuery(goal=loaded.goal),
             EngineQuery(goal=parse_type("String"))],
            scene=prepared)
        assert len(served) == 2
        assert all(outcome.result.inhabited for outcome in served)

    def test_duplicate_queries_computed_once(self, engine):
        loaded = load_environment_text(SCENE_A)
        prepared = engine.prepare(loaded.environment, loaded.subtypes,
                                  goal=loaded.goal)
        queries = [EngineQuery(goal=loaded.goal) for _ in range(3)]
        served = engine.complete_batch(queries, scene=prepared)
        assert engine.cache_stats.insertions == 1
        assert [outcome.cache_hit for outcome in served] == \
            [False, True, True]
        assert served[0].result is served[1].result is served[2].result
        assert engine.cache_stats.misses == 1
        assert engine.cache_stats.hits == 2

    def test_second_batch_is_all_hits(self, engine):
        loaded = load_environment_text(SCENE_A)
        prepared = engine.prepare(loaded.environment, loaded.subtypes,
                                  goal=loaded.goal)
        queries = [EngineQuery(goal=loaded.goal),
                   EngineQuery(goal=loaded.goal, variant="no_weights")]
        engine.complete_batch(queries, scene=prepared)
        rerun = engine.complete_batch(queries, scene=prepared)
        assert all(outcome.cache_hit for outcome in rerun)

    def test_batch_without_goal_rejected(self, engine):
        from repro.core.errors import EngineError

        loaded = load_environment_text(SCENE_A)
        prepared = engine.prepare(loaded.environment, loaded.subtypes)
        with pytest.raises(EngineError):
            engine.complete_batch([EngineQuery(goal=None)], scene=prepared)
