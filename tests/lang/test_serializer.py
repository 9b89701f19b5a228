"""Round-trip tests: environment -> .ins text -> environment."""

import pytest

from repro.core.environment import (Declaration, DeclKind, Environment,
                                    RenderSpec, RenderStyle)
from repro.core.subtyping import SubtypeGraph, environment_with_subtyping
from repro.core.types import base
from repro.lang.loader import load_environment_text
from repro.lang.parser import parse_type
from repro.lang.serializer import save_scene, serialize_environment


@pytest.fixture
def scene():
    environment = Environment([
        Declaration("body", parse_type("InputStream"), DeclKind.LOCAL),
        Declaration("helper", parse_type("int -> String"),
                    DeclKind.CLASS_MEMBER),
        Declaration("shared", parse_type("Object"),
                    DeclKind.PACKAGE_MEMBER),
        Declaration('"LPT1"', parse_type("String"), DeclKind.LITERAL,
                    render=RenderSpec(RenderStyle.LITERAL, '"LPT1"')),
        Declaration("java.io.FileWriter.new", parse_type("String -> FileWriter"),
                    DeclKind.IMPORTED, frequency=120,
                    render=RenderSpec(RenderStyle.CONSTRUCTOR, "FileWriter")),
    ])
    graph = SubtypeGraph()
    graph.add_edge("FileWriter", "Writer")
    return environment, graph, parse_type("FileWriter")


class TestRoundTrip:
    def test_declarations_survive(self, scene):
        environment, graph, goal = scene
        text = serialize_environment(environment, graph, goal)
        loaded = load_environment_text(text)
        assert len(loaded.environment) == len(environment)
        for declaration in environment:
            reloaded = loaded.environment.lookup(declaration.name)
            assert reloaded is not None
            assert reloaded.type == declaration.type
            assert reloaded.kind == declaration.kind
            assert reloaded.frequency == declaration.frequency

    def test_render_styles_survive(self, scene):
        environment, graph, goal = scene
        loaded = load_environment_text(
            serialize_environment(environment, graph, goal))
        ctor = loaded.environment.lookup("java.io.FileWriter.new")
        assert ctor.render.style is RenderStyle.CONSTRUCTOR
        assert ctor.render.display == "FileWriter"

    def test_subtypes_and_goal_survive(self, scene):
        environment, graph, goal = scene
        loaded = load_environment_text(
            serialize_environment(environment, graph, goal))
        assert loaded.subtypes.is_subtype("FileWriter", "Writer")
        assert loaded.goal == goal

    def test_generated_coercions_skipped(self, scene):
        environment, graph, goal = scene
        with_coercions = environment_with_subtyping(environment, graph)
        text = serialize_environment(with_coercions, graph, goal)
        assert "$coerce$" not in text
        loaded = load_environment_text(text)
        assert len(loaded.environment) == len(environment)

    def test_header_comments(self, scene):
        environment, graph, goal = scene
        text = serialize_environment(environment, graph, goal,
                                     header="benchmark 20\nFileWriter LPT1")
        assert text.startswith("# benchmark 20\n# FileWriter LPT1")
        load_environment_text(text)  # still parses

    def test_save_scene_writes_file(self, scene, tmp_path):
        environment, graph, goal = scene
        path = tmp_path / "scene.ins"
        save_scene(path, environment, graph, goal)
        loaded = load_environment_text(path.read_text(encoding="utf-8"))
        assert loaded.goal == goal

    def test_round_trip_synthesis_equivalence(self, scene):
        from repro.core.synthesizer import Synthesizer

        environment, graph, goal = scene
        direct = Synthesizer(environment, subtypes=graph).synthesize(goal, n=5)
        loaded = load_environment_text(
            serialize_environment(environment, graph, goal))
        reloaded = Synthesizer(loaded.environment,
                               subtypes=loaded.subtypes).synthesize(
            loaded.goal, n=5)
        assert [s.code for s in direct.snippets] == \
            [s.code for s in reloaded.snippets]


class TestNameAndDisplayForms:
    def test_non_identifier_names_are_backquoted(self):
        environment = Environment([
            Declaration("java.lang.Object.equals(Object)",
                        parse_type("Object -> Object -> boolean"),
                        DeclKind.IMPORTED,
                        render=RenderSpec(RenderStyle.METHOD, "equals")),
            Declaration("0", parse_type("int"), DeclKind.LITERAL,
                        render=RenderSpec(RenderStyle.LITERAL, "0")),
            Declaration('odd `"\\ name', parse_type("A"), DeclKind.LOCAL,
                        render=RenderSpec(RenderStyle.VALUE, "")),
        ])
        text = serialize_environment(environment)
        assert "imported `java.lang.Object.equals(Object)` :" in text
        assert "literal `0` : int\n" in text
        reloaded = load_environment_text(text).environment
        assert reloaded.fingerprint() == environment.fingerprint()

    def test_display_written_exactly_when_not_the_default(self):
        environment = Environment([
            Declaration("name", parse_type("String"), DeclKind.LOCAL,
                        render=RenderSpec(RenderStyle.VALUE, "name")),
            Declaration("plain", parse_type("String"), DeclKind.LOCAL,
                        render=RenderSpec(RenderStyle.VALUE, "")),
            Declaration("f", parse_type("A -> B"), DeclKind.IMPORTED,
                        render=RenderSpec(RenderStyle.FUNCTION, 'x "y"')),
            Declaration('"s"', parse_type("String"), DeclKind.LITERAL,
                        render=RenderSpec(RenderStyle.VALUE, '"s"')),
        ])
        text = serialize_environment(environment)
        assert "local name : String [display=name]\n" in text
        assert "local plain : String\n" in text
        reloaded = load_environment_text(text).environment
        assert reloaded.fingerprint() == environment.fingerprint()


def _table2_round_trip(number):
    """Serialize -> load one Table-2 scene; returns (scene, reloaded)."""
    from repro.bench.suite import benchmark_by_number, build_scene

    scene = build_scene(benchmark_by_number(number))
    loaded = load_environment_text(serialize_environment(
        scene.environment, scene.subtypes, scene.goal))
    assert loaded.environment.fingerprint() == scene.environment.fingerprint()
    assert loaded.goal == scene.goal
    assert list(loaded.subtypes.edges()) == list(scene.subtypes.edges())
    return scene, loaded


class TestTable2RoundTrip:
    """The paper's own scenes survive the text round trip."""

    # The smallest row of each import group: java.io, java.net, java.awt,
    # javax.swing.
    @pytest.mark.parametrize("number", [40, 9, 41, 31])
    def test_one_row_per_import_group(self, number):
        _table2_round_trip(number)

    def test_ranking_survives(self):
        from repro.bench.matching import find_rank
        from repro.bench.suite import benchmark_by_number
        from repro.core.synthesizer import Synthesizer

        scene, loaded = _table2_round_trip(9)
        results = [
            Synthesizer(environment, subtypes=subtypes).synthesize(goal, n=10)
            for environment, subtypes, goal in (
                (scene.environment, scene.subtypes, scene.goal),
                (loaded.environment, loaded.subtypes, loaded.goal))]
        direct, reloaded = ([(s.code, s.weight) for s in result.snippets]
                            for result in results)
        assert direct and direct == reloaded
        expected = benchmark_by_number(9).expected
        assert find_rank(results[0].snippets, expected, scene.environment) \
            == find_rank(results[1].snippets, expected, loaded.environment)

    @pytest.mark.slow
    @pytest.mark.parametrize("number", range(1, 51))
    def test_every_row(self, number):
        _table2_round_trip(number)
