"""Scene lifecycle: release_scene, result purging, intern-table shedding."""

from pathlib import Path

import pytest

from repro.core.succinct import intern_table_size
from repro.engine import CompletionEngine
from repro.lang.loader import load_environment_text

SCENE = """
local name : String
imported java.io.File.new : String -> File \
[freq=100] [style=constructor] [display=File]
goal File
"""

URL_READER = (Path(__file__).resolve().parents[2]
              / "examples/scenes/url_reader.ins")

OTHER_SCENE = """
local count : Int
imported demo.Box.new : Int -> Box \
[freq=10] [style=constructor] [display=Box]
goal Box
"""


@pytest.fixture
def engine():
    return CompletionEngine()


def _prepare(engine, text, name="scene"):
    loaded = load_environment_text(text)
    return engine.prepare(loaded.environment, loaded.subtypes,
                          goal=loaded.goal, name=name)


class TestReleaseScene:
    def test_release_retires_environment_arena(self, engine):
        import weakref

        from repro.core.space import arena_stats

        prepared = _prepare(engine, SCENE)
        engine.complete(prepared)  # builds the scene arena
        arena = weakref.ref(prepared.environment.succinct_arena())
        before = arena_stats()["retired_arenas"]
        engine.release_scene(prepared)
        assert arena() is None          # the scene held the last reference
        assert arena_stats()["retired_arenas"] >= before + 1
        assert prepared.environment.succinct_arena() is not None

    @pytest.mark.parametrize("released", ["donor", "edited"])
    def test_releasing_one_scene_of_an_edit_chain_keeps_reuse(
            self, engine, released):
        """The edited scene shares its donor's arena, so releasing either
        one leaves the other's stored proof in place."""
        from repro.incremental import apply_scene_delta, parse_delta_ops
        from repro.lang.loader import load_environment_file

        loaded = load_environment_file(URL_READER)
        donor = engine.prepare(loaded.environment, loaded.subtypes,
                               goal=loaded.goal, name="donor")
        assert not engine.complete(donor, n=3).result.prove_reused
        edited = apply_scene_delta(engine, donor, parse_delta_ops(
            [{"op": "add", "decl": "local probe : Int"}])).prepared
        assert not engine.complete(edited, n=3).result.prove_reused
        gone, kept = ((donor, edited) if released == "donor"
                      else (edited, donor))
        engine.release_scene(gone)
        assert [engine.complete(kept, n=n).result.prove_reused
                for n in (4, 5, 6)] == [True, True, True]

    def test_release_drops_scene_and_results(self, engine):
        prepared = _prepare(engine, SCENE)
        engine.complete(prepared)
        engine.complete(prepared, n=3)
        assert len(engine.scenes) == 1
        assert len(engine.results) == 2

        purged = engine.release_scene(prepared)
        assert purged == 2
        assert len(engine.scenes) == 0
        assert len(engine.results) == 0

    def test_release_keeps_other_scenes_results(self, engine):
        first = _prepare(engine, SCENE)
        second = _prepare(engine, OTHER_SCENE)
        engine.complete(first)
        engine.complete(second)

        engine.release_scene(first)
        assert len(engine.scenes) == 1
        assert len(engine.results) == 1
        # The survivor still serves from cache.
        assert engine.complete(second).cache_hit

    def test_release_last_scene_sheds_intern_table(self, engine):
        prepared = _prepare(engine, SCENE)
        assert intern_table_size() > 0
        engine.release_scene(prepared)
        assert intern_table_size() == 0

    def test_release_last_scene_clears_the_uncurry_memo(self, engine):
        from repro.core.types import uncurry

        prepared = _prepare(engine, SCENE)
        engine.complete(prepared)
        assert uncurry.cache_info().currsize > 0
        engine.release_scene(prepared)
        # The memo would otherwise keep the released scene's types alive.
        assert uncurry.cache_info().currsize == 0

    def test_released_scene_can_be_reprepared(self, engine):
        prepared = _prepare(engine, SCENE)
        before = engine.complete(prepared)
        engine.release_scene(prepared)

        again = _prepare(engine, SCENE)
        served = engine.complete(again)
        assert not served.cache_hit         # results were really purged
        assert ([snippet.code for snippet in served.snippets]
                == [snippet.code for snippet in before.snippets])

    def test_release_without_shedding_keeps_types(self, engine):
        prepared = _prepare(engine, SCENE)
        assert intern_table_size() > 0
        engine.release_scene(prepared, shed_types=False)
        assert intern_table_size() > 0

    def test_purge_results_counts_only_matching_fingerprint(self, engine):
        first = _prepare(engine, SCENE)
        second = _prepare(engine, OTHER_SCENE)
        engine.complete(first)
        engine.complete(second)
        assert engine.purge_results(first.fingerprint) == 1
        assert engine.purge_results(first.fingerprint) == 0
        assert len(engine.results) == 1


class TestEviction:
    """The scene LRU evicts without ``release_scene``: the evicted scene's
    arena must still go, and take nothing from the lifetime totals."""

    @staticmethod
    def _evicted_arena(engine):
        """Prove and reuse on SCENE, then evict it; a weak reference to
        its arena."""
        import weakref

        from repro.core.types import parse

        prepared = _prepare(engine, SCENE)
        engine.complete(prepared)
        assert engine.complete(prepared, parse("String")).result.prove_reused
        arena = prepared.environment.succinct_arena()
        assert arena.proof_count() == 1
        evicted = weakref.ref(arena)
        del prepared, arena
        _prepare(engine, OTHER_SCENE)
        return evicted

    def test_a_stored_graph_keeps_no_arena_alive(self):
        import gc

        engine = CompletionEngine(scene_entries=1)
        gc.disable()
        try:
            evicted = self._evicted_arena(engine)
            assert evicted() is None    # reference counting alone freed it
        finally:
            gc.enable()

    def test_lifetime_totals_never_decrease_across_an_eviction(self):
        import gc

        from repro.core.space import arena_stats

        engine = CompletionEngine(scene_entries=1)
        first = _prepare(engine, OTHER_SCENE)
        engine.complete(first)
        before = arena_stats()
        del first
        evicted = self._evicted_arena(engine)
        middle = arena_stats()
        gc.unfreeze()
        gc.collect()
        assert evicted() is None
        after = arena_stats()
        for key in ("transition_memo_hits", "transition_memo_misses",
                    "index_merges", "proof_hits", "proof_stores",
                    "retired_arenas"):
            assert before[key] <= middle[key] <= after[key], key
        assert after["proof_hits"] >= before["proof_hits"] + 1
        assert after["proof_stores"] >= before["proof_stores"] + 1
