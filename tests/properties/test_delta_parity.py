"""Delta parity: edit scripts vs fresh builds of the same final text.

The incremental subsystem's acceptance property: for ANY valid edit
script, the delta-edited scene must be byte-identical — fingerprint,
scene identity, and complete rankings — to a scene freshly loaded from
the serialized final text.  Scripts are generated against a simulated
name table so every op is valid by construction, and deliberately
include add-then-remove-the-same-declaration churn (the editor's
keystroke-undo pattern), which must land back on previously prepared
states and reuse them.  One property completes before every edit, so
every delta hands a warm donor's reconstruction memos to the edited
scene.
"""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import CompletionEngine
from repro.incremental import apply_scene_delta, parse_delta_ops
from repro.lang.loader import load_environment_file, load_environment_text
from repro.lang.serializer import serialize_environment

SCENES_DIR = Path(__file__).resolve().parents[2] / "examples/scenes"

BASE_SCENE = """
subtype FileWriter <: Writer
subtype BufferedWriter <: Writer
subtype PrintWriter <: Writer
local path : String
imported java.io.FileWriter.new : String -> FileWriter \
[freq=118] [style=constructor] [display=FileWriter]
imported java.io.BufferedWriter.new : Writer -> BufferedWriter \
[freq=95] [style=constructor] [display=BufferedWriter]
imported java.io.PrintWriter.new : Writer -> PrintWriter \
[freq=102] [style=constructor] [display=PrintWriter]
literal "out.txt" : String
goal PrintWriter
"""

BASE_NAMES = ("path", "java.io.FileWriter.new", "java.io.BufferedWriter.new",
              "java.io.PrintWriter.new", '"out.txt"')

#: Candidate additions: (name, declaration line).  A mix of sigma images
#: that already exist in the base scene and ones that do not.
ADDABLE = (
    ("banner", "local banner : String"),
    ("backup_path", "local backup_path : String"),
    ("writer_cache", "local writer_cache : Writer"),
    ("java.io.FileReader.new",
     "imported java.io.FileReader.new : String -> FileReader "
     "[freq=74] [style=constructor] [display=FileReader]"),
    ("java.io.PrintWriter.println",
     "imported java.io.PrintWriter.println : PrintWriter -> String -> Unit "
     "[freq=210] [style=method] [display=println]"),
)

ADDABLE_BY_NAME = dict(ADDABLE)

#: BASE_SCENE plus a higher-order local: its parameter hole
#: ``FileReader -> String`` has argument types, so reconstruction fills it
#: under a fresh binder through the pattern-environment memo.
WARM_SCENE = BASE_SCENE.replace(
    "goal PrintWriter",
    "local wrap : (FileReader -> String) -> Writer\ngoal PrintWriter")

WARM_NAMES = BASE_NAMES + ("wrap",)


@st.composite
def edit_scripts(draw, base_names=BASE_NAMES):
    """A multi-batch edit script, valid against the simulated name table."""
    current = set(base_names)
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        batch = []
        for _ in range(draw(st.integers(1, 3))):
            addable = sorted(name for name, _ in ADDABLE
                             if name not in current)
            removable = sorted(current)
            kinds = (["add"] if addable else []) + \
                    (["remove"] if removable else [])
            kind = draw(st.sampled_from(kinds))
            if kind == "add":
                name = draw(st.sampled_from(addable))
                batch.append({"op": "add", "decl": ADDABLE_BY_NAME[name]})
                current.add(name)
            else:
                name = draw(st.sampled_from(removable))
                batch.append({"op": "remove", "name": name})
                current.remove(name)
        batches.append(batch)
    return batches


def _rankings(engine, prepared, n=5):
    served = engine.complete(prepared, prepared.goal, n=n)
    return [(s.rank, s.code, round(s.weight, 6))
            for s in served.result.snippets]


def _assert_parity(prepared, engine):
    """delta-edited *prepared* ≡ a fresh build of its serialized text."""
    text = serialize_environment(prepared.base_environment,
                                 prepared.subtypes, prepared.goal)
    reloaded = load_environment_text(text)
    fresh_engine = CompletionEngine()
    fresh = fresh_engine.prepare(reloaded.environment, reloaded.subtypes,
                                 goal=reloaded.goal)
    assert (prepared.base_environment.fingerprint()
            == fresh.base_environment.fingerprint())
    assert prepared.fingerprint == fresh.fingerprint
    assert _rankings(engine, prepared) == _rankings(fresh_engine, fresh)


@settings(max_examples=30, deadline=None)
@given(script=edit_scripts())
def test_any_edit_script_matches_a_fresh_build(script):
    engine = CompletionEngine()
    loaded = load_environment_text(BASE_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name="parity")
    seen = {prepared.fingerprint: prepared}
    for batch in script:
        outcome = apply_scene_delta(engine, prepared,
                                    parse_delta_ops(batch), name="parity")
        if outcome.prepared.fingerprint in seen:
            # Revisited content must reattach, never rebuild.
            assert outcome.reused or outcome.prepared is prepared
        seen[outcome.prepared.fingerprint] = outcome.prepared
        prepared = outcome.prepared
    _assert_parity(prepared, engine)


@settings(max_examples=30, deadline=None)
@given(script=edit_scripts(WARM_NAMES))
def test_warm_donors_match_a_fresh_build_at_every_step(script):
    """Complete before every edit, then check the edited scene against a
    fresh build: transplanted candidate lists and pattern-environment
    unions must rank exactly like cold ones."""
    engine = CompletionEngine()
    loaded = load_environment_text(WARM_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name="warm")
    _assert_parity(prepared, engine)
    assert prepared.environment.pattern_env_memo(), \
        "the higher-order hole should have warmed the union memo"
    for batch in script:
        prepared = apply_scene_delta(engine, prepared, parse_delta_ops(batch),
                                     name="warm").prepared
        _assert_parity(prepared, engine)


@settings(max_examples=15, deadline=None)
@given(index=st.integers(0, len(ADDABLE) - 1),
       repeats=st.integers(1, 3))
def test_add_then_remove_same_declaration_is_a_no_op(index, repeats):
    """Keystroke churn: N rounds of add X / remove X must land back on
    the opening scene and re-hit its warm cache entries."""
    engine = CompletionEngine()
    loaded = load_environment_text(BASE_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal)
    opening = prepared.fingerprint
    baseline = _rankings(engine, prepared)
    name, line = ADDABLE[index]
    current = prepared
    for _ in range(repeats):
        there = apply_scene_delta(engine, current, parse_delta_ops(
            [{"op": "add", "decl": line}]))
        back = apply_scene_delta(engine, there.prepared, parse_delta_ops(
            [{"op": "remove", "name": name}]))
        assert back.reused
        assert back.prepared.fingerprint == opening
        current = back.prepared
    served = engine.complete(current, current.goal, n=5)
    assert served.cache_hit
    assert _rankings(engine, current) == baseline


def test_every_example_scene_holds_parity_under_edits():
    """The shipped scenes are the acceptance corpus: one add + one
    remove each, then full parity against a fresh build."""
    from repro.incremental import DeltaOp

    for path in sorted(SCENES_DIR.glob("*.ins")):
        engine = CompletionEngine()
        loaded = load_environment_file(path)
        prepared = engine.prepare(loaded.environment, loaded.subtypes,
                                  goal=loaded.goal, name=path.name)
        first_name = next(iter(prepared.base_environment)).name
        outcome = apply_scene_delta(engine, prepared, [
            DeltaOp.add("local parity_probe : String"),
            DeltaOp.remove(first_name),
        ])
        _assert_parity(outcome.prepared, engine)
