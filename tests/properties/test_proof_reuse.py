"""Proof reuse: an engine that proves once per root env answers like a
fresh one.

``engine.complete`` reconstructs a result-cache miss from a graph stored
on the scene's arena under the same ``(policy, sigma(Gamma_o), node
budget)`` when the goal's root request is one of its nodes: from the
whole stored pattern set when the goal's closure is the whole graph, from
the set restricted to a strict sub-closure otherwise.  Over random edit
scripts — locals of types the scene already has, locals and imports of new
types (which change sigma(Gamma_o)), edits that change the weight w(t) of
an explored type without changing sigma(Gamma_o), and undos — every answer
must equal a fresh engine's over the same final scene text: snippets,
weights, ranks and work counts.  A run cut by a small node budget must
never be reused.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SynthesisConfig
from repro.core.space import EnvArena
from repro.core.types import parse
from repro.engine import VARIANTS, CompletionEngine, policy_for_variant
from repro.incremental import apply_scene_delta, parse_delta_ops
from repro.lang.loader import load_environment_text
from repro.lang.serializer import serialize_environment

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
imported java.io.Writer.nullWriter : Writer \
[freq=3] [style=static_field] [display=Writer.nullWriter]
literal "out.txt" : String
goal PrintWriter
"""

BASE_NAMES = ("path", "java.io.FileWriter.new", "java.io.BufferedWriter.new",
              "java.io.PrintWriter.new", "java.io.Writer.nullWriter",
              '"out.txt"')

#: Candidate additions: (name, declaration line).
ADDABLE = (
    # Locals of existing sigma images.  ``sink`` and ``make_writer`` also
    # lower w(t) of explored types (Writer, String -> FileWriter) from an
    # import's weight to a local's; removing ``path`` raises w(String).
    ("banner", "local banner : String"),
    ("sink", "local sink : Writer"),
    ("make_writer", "local make_writer : String -> FileWriter"),
    # New sigma images: sigma(Gamma_o) changes.
    ("reader", "local reader : FileReader"),
    ("wrap", "local wrap : (FileReader -> String) -> Writer"),
    ("java.io.FileReader.new",
     "imported java.io.FileReader.new : String -> FileReader "
     "[freq=74] [style=constructor] [display=FileReader]"),
    ("java.io.PrintWriter.println",
     "imported java.io.PrintWriter.println : PrintWriter -> String -> Unit "
     "[freq=210] [style=method] [display=println]"),
)

ADDABLE_BY_NAME = dict(ADDABLE)

GOALS = ("PrintWriter", "Writer", "BufferedWriter", "String", "Unit")

#: Node budgets: 1-3 cut every run of the PrintWriter goal; None and the
#: paper's 200,000 cut none.
BUDGETS = (1, 2, 3, None, 200_000)


@st.composite
def edit_sessions(draw):
    """Steps of (delta ops, queries after it); every op is valid.

    Queries come from a few completion sites (goal, variant, node
    budget), each asked with its own ``n``, so later steps ask sites
    that earlier steps proved: the editor's pattern, and the reuse case.
    """
    sites = draw(st.lists(st.tuples(st.sampled_from(GOALS),
                                    st.sampled_from(VARIANTS),
                                    st.sampled_from(BUDGETS)),
                          min_size=1, max_size=3))
    queries = st.builds(lambda site, n: (site[0], site[1], n, site[2]),
                        st.sampled_from(sites), st.integers(1, 6))
    current = set(BASE_NAMES)
    added: list[str] = []
    steps = [([], draw(st.lists(queries, min_size=1, max_size=3)))]
    for _ in range(draw(st.integers(1, 6))):
        addable = sorted(name for name, _ in ADDABLE if name not in current)
        kinds = (["add"] if addable else []) + ["remove"] + \
            (["undo"] if added else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "add":
            name = draw(st.sampled_from(addable))
            ops = [{"op": "add", "decl": ADDABLE_BY_NAME[name]}]
            current.add(name)
            added.append(name)
        else:
            name = (added.pop() if kind == "undo"
                    else draw(st.sampled_from(sorted(current))))
            if name in added:
                added.remove(name)
            ops = [{"op": "remove", "name": name}]
            current.remove(name)
        steps.append((ops, draw(st.lists(queries, min_size=1,
                                          max_size=3))))
    return steps


def _answer(engine, prepared, query):
    goal, variant, n, budget = query
    config = SynthesisConfig(prover_time_limit=None,
                             reconstruction_time_limit=None,
                             max_explore_nodes=budget)
    result = engine.complete(prepared, parse(goal), variant=variant,
                             config=config, n=n).result
    return _answer_of(result), result


def _answer_of(result):
    """Snippets and work counts: everything but timings and the flag."""
    return {
        "snippets": [(s.rank, s.code, s.weight, s.term, s.surface_term)
                     for s in result.snippets],
        "counts": (result.inhabited, result.nodes_explored,
                   result.edges_found, result.pattern_count,
                   result.reconstruction_expansions,
                   result.reconstruction_enqueued,
                   result.reconstruction_emitted,
                   result.explore_truncated,
                   result.reconstruction_truncated),
    }


def _fresh(prepared):
    text = serialize_environment(prepared.base_environment,
                                 prepared.subtypes, prepared.goal)
    loaded = load_environment_text(text)
    engine = CompletionEngine()
    return engine, engine.prepare(loaded.environment, loaded.subtypes,
                                  goal=loaded.goal)


@settings(max_examples=60, deadline=None)
@given(session=edit_sessions())
def test_reused_proofs_answer_like_a_fresh_engine(session):
    engine = CompletionEngine()
    loaded = load_environment_text(BASE_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name="reuse")
    for ops, asked in session:
        if ops:
            prepared = apply_scene_delta(engine, prepared,
                                         parse_delta_ops(ops),
                                         name="reuse").prepared
        for query in asked:
            served, result = _answer(engine, prepared, query)
            expected, cold = _answer(*_fresh(prepared), query)
            assert not cold.prove_reused
            assert served == expected
            budget = query[3]
            if result.prove_reused:
                assert budget is None or result.nodes_explored < budget
            if result.explore_truncated:
                # A cut run is never stored: asking again for another n
                # (a result-cache miss) proves again.
                goal, variant, n, _ = query
                again, rerun = _answer(engine, prepared,
                                       (goal, variant, n % 6 + 1, budget))
                assert not rerun.prove_reused
                assert rerun.explore_truncated


def test_a_new_n_after_an_edit_and_an_undo_reuses_the_proof():
    engine = CompletionEngine()
    loaded = load_environment_text(BASE_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name="reuse")
    first = engine.complete(prepared, n=3).result
    assert not first.prove_reused
    edited = apply_scene_delta(engine, prepared, parse_delta_ops(
        [{"op": "add", "decl": "local sink : Writer"}])).prepared
    assert (edited.environment.succinct_environment()
            is prepared.environment.succinct_environment())
    after_edit = engine.complete(edited, n=3).result
    assert after_edit.prove_reused
    assert after_edit.patterns_seconds == 0.0
    assert (after_edit.nodes_explored, after_edit.edges_found,
            after_edit.pattern_count) == (first.nodes_explored,
                                          first.edges_found,
                                          first.pattern_count)
    # w(Writer) fell to a local's weight: the ranking changes, the proof
    # does not.
    assert [s.code for s in after_edit.snippets] != \
        [s.code for s in first.snippets]
    undone = apply_scene_delta(engine, edited, parse_delta_ops(
        [{"op": "remove", "name": "sink"}])).prepared
    assert undone.fingerprint == prepared.fingerprint
    assert engine.complete(undone, n=4).result.prove_reused


#: Goals asked in order over BASE_SCENE, with how each must be answered:
#: by a prove, or from a stored graph that it covers whole or in part.
#: PrintWriter's graph has five nodes: PrintWriter, Writer, FileWriter,
#: BufferedWriter and String.
CROSS_GOALS = (
    ("String", "prove"),                    # stores {String}
    ("PrintWriter", "prove"),               # replaces the String graph
    ("Writer", "whole"),                    # reaches PrintWriter again
    ("String", "part"),
    ("Writer -> FileWriter", "part"),       # Writer is in sigma(Gamma_o)
    ("String -> BufferedWriter", "whole"),
    ("FileReader -> Writer", "prove"),      # FileReader extends the env
    ("FileReader -> FileWriter", "part"),   # inside the graph just stored
    ("Unit", "prove"),                      # no declaration returns Unit
    ("PrintWriter", "whole"),               # a new n: the root
)


def test_goals_inside_a_stored_graph_answer_like_a_fresh_engine():
    engine = CompletionEngine()
    loaded = load_environment_text(BASE_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal, name="reuse")
    arena = prepared.environment.succinct_arena()
    whole = None
    for n, (goal, path) in enumerate(CROSS_GOALS, start=1):
        query = (goal, "full", n, None)
        served, result = _answer(engine, prepared, query)
        assert served == _answer(*_fresh(prepared), query)[0], goal
        assert result.prove_reused == (path != "prove"), goal
        if goal == "PrintWriter" and path == "prove":
            whole = result.nodes_explored
            assert arena.proof_count() == 1
        elif path == "whole":
            assert result.nodes_explored == whole, goal
        elif path == "part":
            assert result.nodes_explored < whole, goal
    assert arena.proof_count() == 3


def test_threads_sharing_a_scene_store_and_reuse_proofs_safely(monkeypatch):
    """Executor threads share one arena's proof table: with a tiny bound
    (every store evicts) and a short switch interval, every answer must
    still equal the serial one."""
    import sys
    import threading

    monkeypatch.setattr(EnvArena, "MAX_PROOFS", 2)
    asked = [(goal, variant, n, None) for goal in GOALS[:4]
             for variant in VARIANTS for n in (1, 3)]
    engine = CompletionEngine()
    loaded = load_environment_text(BASE_SCENE)
    prepared = engine.prepare(loaded.environment, loaded.subtypes,
                              goal=loaded.goal)
    expected = {query: _answer(*_fresh(prepared), query)[0]
                for query in asked}
    answers: dict = {}
    errors: list = []

    def work(offset: int) -> None:
        try:
            for query in asked[offset:] + asked[:offset]:
                goal, variant, n, budget = query
                result = prepared.synthesize(
                    parse(goal), policy_for_variant(variant),
                    SynthesisConfig(prover_time_limit=None,
                                    reconstruction_time_limit=None,
                                    max_explore_nodes=budget), n=n)
                answers.setdefault(query, []).append(result)
        except Exception as error:      # noqa: BLE001 — re-raised below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,))
                   for index in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for query in asked:
        assert len(answers[query]) == 8
        for result in answers[query]:
            assert _answer_of(result) == expected[query]
    assert prepared.environment.succinct_arena().proof_count() <= 2
