"""Declaration-level deltas: op parsing and incremental re-prepare.

The load-bearing invariant everywhere here is *content addressing*: the
environment produced by a delta must be indistinguishable — fingerprint,
name table, Select index, rankings — from an environment freshly built
over the same final declaration list, because every cache key and scene
id downstream hangs off that identity.
"""

import itertools
import sys
import threading

import pytest

from repro.core.environment import Environment
from repro.engine import CompletionEngine
from repro.incremental import (DeltaError, DeltaOp, apply_scene_delta,
                               parse_delta_ops)
from repro.lang.loader import load_environment_text

SCENE = """
subtype FileWriter <: Writer
local path : String
imported java.io.FileWriter.new : String -> FileWriter \
[freq=118] [style=constructor] [display=FileWriter]
imported java.io.PrintWriter.new : Writer -> PrintWriter \
[freq=102] [style=constructor] [display=PrintWriter]
goal PrintWriter
"""

#: SCENE plus a String literal: removing ``path`` keeps sigma(Gamma).
LITERAL_SCENE = SCENE.replace(
    "goal PrintWriter", 'literal "out.txt" : String\ngoal PrintWriter')

EXTRA_LINE = "local label : String"
READER_LINE = ("imported java.io.FileReader.new : String -> FileReader "
               "[freq=74] [style=constructor] [display=FileReader]")


def _prepared(engine=None, text=SCENE):
    engine = engine or CompletionEngine()
    loaded = load_environment_text(text)
    return engine, engine.prepare(loaded.environment, loaded.subtypes,
                                  goal=loaded.goal, name="scene-under-edit")


def _fresh_ranking(prepared, n):
    """The ranking of a fresh engine over *prepared*'s final content."""
    engine = CompletionEngine()
    fresh = engine.prepare(Environment(tuple(prepared.base_environment)),
                           prepared.subtypes, goal=prepared.goal)
    return _ranking(engine.complete(fresh, fresh.goal, n=n))


def _ranking(served):
    return [(s.rank, s.code, s.weight) for s in served.snippets]


class TestDeltaOp:
    def test_add_parses_the_declaration_line(self):
        op = DeltaOp.add(EXTRA_LINE)
        assert op.op == "add"
        assert op.name == "label"
        assert op.declaration is not None
        assert op.line == EXTRA_LINE

    def test_add_rejects_garbage(self):
        with pytest.raises(DeltaError, match="unparsable"):
            DeltaOp.add("local oops : ")
        with pytest.raises(DeltaError):
            DeltaOp.add("goal PrintWriter")      # not a declaration line

    def test_payload_round_trip(self):
        for op in (DeltaOp.add(EXTRA_LINE), DeltaOp.remove("path")):
            assert DeltaOp.from_payload(op.to_payload()) == op

    def test_from_payload_validation(self):
        with pytest.raises(DeltaError, match="must be an object"):
            DeltaOp.from_payload("add label")
        with pytest.raises(DeltaError, match="'op' must be one of"):
            DeltaOp.from_payload({"op": "rename", "name": "path"})
        with pytest.raises(DeltaError, match="requires 'decl'"):
            DeltaOp.from_payload({"op": "add"})
        with pytest.raises(DeltaError, match="requires 'name'"):
            DeltaOp.from_payload({"op": "remove", "name": "  "})

    def test_parse_delta_ops(self):
        ops = parse_delta_ops([{"op": "add", "decl": EXTRA_LINE},
                               {"op": "remove", "name": "path"}])
        assert [op.op for op in ops] == ["add", "remove"]


class TestApplySceneDelta:
    def test_add_appends_in_declaration_order(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        names = [decl.name for decl in outcome.prepared.base_environment]
        assert names[-1] == "label"
        assert outcome.added == ("label",)
        assert outcome.removed == ()
        assert not outcome.reused
        assert outcome.declarations == len(prepared.base_environment) + 1

    def test_remove_drops_the_declaration(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared,
                                    [DeltaOp.remove("path")])
        assert "path" not in outcome.prepared.base_environment
        assert outcome.removed == ("path",)

    def test_errors_are_atomic(self):
        engine, prepared = _prepared()
        table_before = len(engine.scenes)
        with pytest.raises(DeltaError, match="already declared"):
            apply_scene_delta(engine, prepared,
                              [DeltaOp.add(EXTRA_LINE),
                               DeltaOp.add("local path : String")])
        with pytest.raises(DeltaError, match="not declared"):
            apply_scene_delta(engine, prepared, [DeltaOp.remove("ghost")])
        with pytest.raises(DeltaError, match="empty delta"):
            apply_scene_delta(engine, prepared, [])
        assert len(engine.scenes) == table_before

    def test_indexes_match_a_fresh_environment(self):
        """The incremental name/Select index maintenance must be
        indistinguishable from regrouping the final declaration list."""
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add(EXTRA_LINE),
            DeltaOp.remove("path"),
            DeltaOp.add(READER_LINE),
        ])
        edited = outcome.prepared.base_environment
        fresh = Environment(tuple(edited))
        assert edited.fingerprint() == fresh.fingerprint()
        assert edited._by_name == fresh._by_name
        assert edited._by_succinct == fresh._by_succinct
        assert edited.succinct_environment() == fresh.succinct_environment()

    def test_add_then_remove_same_declaration_reuses_the_scene(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add(EXTRA_LINE),
            DeltaOp.remove("label"),
        ])
        assert outcome.reused
        assert outcome.prepared.fingerprint == prepared.fingerprint
        assert outcome.added == ("label",)
        assert outcome.removed == ("label",)

    def test_round_trip_script_reattaches_the_original_scene(self):
        engine, prepared = _prepared()
        there = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        assert not there.reused
        back = apply_scene_delta(engine, there.prepared,
                                 [DeltaOp.remove("label")])
        assert back.reused
        assert back.prepared.fingerprint == prepared.fingerprint

    def test_dirty_types_counts_distinct_sigma_images(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add("local first : String"),
            DeltaOp.add("local second : String"),   # same sigma image
            DeltaOp.add(READER_LINE),               # a new one
        ])
        assert outcome.dirty_types == 2

    def test_weight_memos_transplant_except_dirty(self):
        engine, prepared = _prepared()
        # Warm the donor's memos with a real completion.
        engine.complete(prepared, prepared.goal, n=3)
        donor = prepared.environment
        assert donor._weight_memos, "completion should have warmed memos"
        outcome = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        adopted = outcome.prepared.environment._weight_memos
        dirty = DeltaOp.add(EXTRA_LINE).declaration.succinct_type
        for policy, memo in adopted.items():
            assert dirty not in memo
            donor_memo = donor._weight_memos.get(policy, {})
            for stype, weight in memo.items():
                assert donor_memo.get(stype) == weight

    def test_reconstruction_memos_transplant_except_dirty_slices(self):
        engine, prepared = _prepared()
        engine.complete(prepared, prepared.goal, n=3)
        donor = prepared.environment
        ((policy, donor_memo),) = donor._recon_memos.items()
        dirty = DeltaOp.add(EXTRA_LINE).declaration.succinct_type
        dropped = {key for key in donor_memo
                   if any(pattern.succinct_type() == dirty
                          for pattern in key[1])}
        assert dropped, "the String hole's list should be dirty"

        # String already has a declaration: sigma(Gamma) is unchanged.
        outcome = apply_scene_delta(engine, prepared, [DeltaOp.add(EXTRA_LINE)])
        edited = outcome.prepared.environment
        memo = edited._recon_memos[policy]
        assert memo == {key: entry for key, entry in donor_memo.items()
                        if key not in dropped}
        arena = edited._arena
        assert arena is donor._arena
        interned = arena.members(arena.intern(edited.succinct_environment()))
        assert edited.succinct_environment() is interned
        kept = set(memo)
        engine.complete(outcome.prepared, outcome.prepared.goal, n=3)
        assert set(memo) - kept == dropped

        # FileReader's constructor has a new sigma image: nothing transfers.
        grown = apply_scene_delta(engine, prepared,
                                  [DeltaOp.add(READER_LINE)])
        assert grown.prepared.environment._recon_memos == {}
        assert grown.prepared.environment.pattern_env_memo() == {}

    def test_removed_declaration_never_resurfaces_from_a_warm_donor(self):
        """Removing ``path`` keeps sigma(Gamma) (the literal is a String
        too), so the warm donor's candidate lists transplant — all but the
        ones that could still name ``path``."""
        engine, prepared = _prepared(text=LITERAL_SCENE)
        engine.complete(prepared, prepared.goal, n=5)
        outcome = apply_scene_delta(engine, prepared,
                                    [DeltaOp.remove("path")])
        assert (outcome.prepared.environment.succinct_environment()
                == prepared.environment.succinct_environment())
        served = engine.complete(outcome.prepared, outcome.prepared.goal,
                                 n=5)
        assert [s.code for s in served.snippets] == [
            'new PrintWriter(new FileWriter("out.txt"))']
        assert _ranking(served) == _fresh_ranking(outcome.prepared, n=5)

    def test_rankings_match_a_fresh_engine_on_the_edited_content(self):
        engine, prepared = _prepared()
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.remove("path"),
            DeltaOp.add("local stream_name : String"),
        ])
        served = engine.complete(outcome.prepared, outcome.prepared.goal,
                                 n=6)
        assert _ranking(served) == _fresh_ranking(outcome.prepared, n=6)


def test_edit_snapshots_donor_memos_while_the_scene_is_completed():
    """The server applies an edit on its executor, beside syntheses on
    the same scene that insert into the donor's memos; the edit must read
    them without "dictionary changed size during iteration"."""
    from repro.bench.suite import BENCHMARKS, build_scene

    engine = CompletionEngine()
    scene = build_scene(BENCHMARKS[8])  # Table 2 row 9, 3.2k declarations
    prepared = engine.prepare(scene.environment, scene.subtypes,
                              goal=scene.goal)
    engine.complete(prepared)
    donor = prepared.environment
    weight_memos = [*donor._weight_memos.values(),
                    *donor._decl_weight_memos.values()]
    (recon_memo,) = donor._recon_memos.values()
    # The candidate-list filter reads the slice, so reuse a real one.
    real_slice = next(key[1] for key in recon_memo if key[1])
    stop = threading.Event()

    def insert_fresh_keys():
        # Negative keys: never a live declaration id or simple-type id.
        for key in itertools.count(-1, -1):
            if stop.is_set():
                return
            for memo in weight_memos:
                memo[key] = 1.0
            recon_memo[(key, real_slice)] = (0, ())
            donor._pattern_env_memo[frozenset((key,))] = frozenset()

    writer = threading.Thread(target=insert_fresh_keys, daemon=True)
    failures = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writer.start()
        for index in range(40):
            try:
                apply_scene_delta(engine, prepared, [
                    DeltaOp.add(f"local race_{index} : String")])
            except RuntimeError as exc:
                failures.append(str(exc))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert failures == []
