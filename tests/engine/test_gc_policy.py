"""The engine's collector policy: every new prepare settles the heap."""

import gc
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import pytest

import repro.engine.engine as engine_module
from repro.engine import CompletionEngine
from repro.engine.engine import GcPolicy
from repro.lang.loader import load_environment_text

SCENE = """
local name : String
imported java.io.File.new : String -> File \
[freq=100] [style=constructor] [display=File]
goal File
"""

#: The source root the engine was imported from, for a child interpreter.
SRC = str(Path(engine_module.__file__).resolve().parents[2])


@pytest.fixture
def policy(monkeypatch):
    """A fresh policy for the engine; teardown unfreezes what it froze."""
    fresh = GcPolicy()
    monkeypatch.setattr(engine_module, "GC_POLICY", fresh)
    yield fresh
    gc.unfreeze()


def _prepare(engine, text=SCENE):
    loaded = load_environment_text(text)
    return engine.prepare(loaded.environment, loaded.subtypes,
                          goal=loaded.goal)


def test_new_prepare_settles_once_and_a_hit_does_not(policy):
    engine = CompletionEngine()
    _prepare(engine)
    assert policy.stats() == {"settles": 1, "reclaims": 0}
    _prepare(engine)                       # scene-table hit
    assert policy.stats() == {"settles": 1, "reclaims": 0}


def test_released_scene_is_freed_without_the_collector(policy):
    engine = CompletionEngine()
    enabled = gc.isenabled()
    gc.disable()
    try:
        prepared = _prepare(engine)
        assert engine.complete(prepared).result.snippets
        refs = [weakref.ref(prepared),
                weakref.ref(prepared.environment),
                weakref.ref(prepared.base_environment),
                weakref.ref(prepared.environment.succinct_arena())]
        engine.release_scene(prepared)
        del prepared
        # Frozen or not, reference counting alone frees the whole scene.
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()


def test_prepare_never_walks_the_heap(policy, monkeypatch):
    def walks(*args):
        raise AssertionError("prepare walked the heap")

    monkeypatch.setattr(gc, "get_freeze_count", walks)
    monkeypatch.setattr(gc, "get_objects", walks)
    engine = CompletionEngine()
    _prepare(engine)
    _prepare(engine, SCENE.replace("name", "path"))
    assert policy.settles == 2


#: Run in a fresh interpreter, whose small heap a test can double cheaply.
RECLAIM_SCRIPT = textwrap.dedent("""
    import gc
    import sys

    from repro.engine.engine import RECLAIM_GROWTH, GcPolicy

    class Cycle:
        def __init__(self, finalized):
            self.me = self
            self.finalized = finalized

        def __del__(self):
            self.finalized.append(True)

    policy = GcPolicy()
    policy.settle()                 # records the baseline, only freezes
    baseline = sys.getallocatedblocks()
    finalized = []
    Cycle(finalized)                # cyclic garbage, not yet collected
    policy.settle()                 # ...frozen with the live heap
    gc.collect()
    assert (finalized, policy.reclaims) == ([], 0), "frozen garbage died"

    ballast = [object() for _ in range(RECLAIM_GROWTH * baseline)]
    assert sys.getallocatedblocks() > RECLAIM_GROWTH * baseline
    policy.settle()                 # past the bound: reclaims
    assert (finalized, policy.reclaims) == ([True], 1), finalized
    policy.settle()                 # the reclaim reset the baseline
    assert policy.stats() == {"settles": 4, "reclaims": 1}
    print("ok")
""")


def test_reclaim_finalizes_frozen_cyclic_garbage_past_twice_the_heap():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", RECLAIM_SCRIPT], capture_output=True,
        text=True, timeout=60, env=env)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "ok"
