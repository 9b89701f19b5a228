"""Tests for the command-line interface."""

import pytest

from repro.cli import main

SCENE = """
local name : String
imported java.io.File.new : String -> File \
[freq=100] [style=constructor] [display=File]
goal File
"""

BAD_SCENE = "local broken :\n"

NO_GOAL_SCENE = """
local name : String
"""


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "scene.ins"
    path.write_text(SCENE, encoding="utf-8")
    return str(path)


class TestSynthesizeCommand:
    def test_prints_ranked_snippets(self, scene_file, capsys):
        code = main(["synthesize", scene_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "new File(name)" in out
        assert "goal: File" in out

    def test_n_limits_output(self, scene_file, capsys):
        code = main(["synthesize", scene_file, "--n", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n  1.") + out.count("  1.") >= 1
        assert "  2." not in out

    def test_show_weights(self, scene_file, capsys):
        main(["synthesize", scene_file, "--show-weights"])
        out = capsys.readouterr().out
        assert "[" in out and "]" in out

    def test_goal_override(self, scene_file, capsys):
        code = main(["synthesize", scene_file, "--goal", "String"])
        out = capsys.readouterr().out
        assert code == 0
        assert "name" in out

    def test_uninhabited_goal_exit_code(self, scene_file, capsys):
        code = main(["synthesize", scene_file, "--goal", "Unobtainium"])
        out = capsys.readouterr().out
        assert code == 1
        assert "not inhabited" in out

    def test_variant_flag(self, scene_file, capsys):
        code = main(["synthesize", scene_file, "--variant", "no_weights"])
        assert code == 0
        assert "no_weights" in capsys.readouterr().out

    def test_missing_goal_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "nogoal.ins"
        path.write_text(NO_GOAL_SCENE, encoding="utf-8")
        code = main(["synthesize", str(path)])
        assert code == 2
        assert "no goal" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.ins"
        path.write_text(BAD_SCENE, encoding="utf-8")
        code = main(["synthesize", str(path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_reported(self, capsys):
        code = main(["synthesize", "/nonexistent/scene.ins"])
        assert code == 2

    def test_shipped_example_scene(self, capsys):
        code = main(["synthesize", "examples/scenes/url_reader.ins",
                     "--n", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "new BufferedReader" in out


class TestBatchCommand:
    def test_many_scenes_one_invocation(self, scene_file, tmp_path, capsys):
        other = tmp_path / "reader.ins"
        other.write_text(
            "local path : String\n"
            "imported java.io.FileReader.new : String -> FileReader "
            "[freq=90] [style=constructor] [display=FileReader]\n"
            "goal FileReader\n", encoding="utf-8")
        code = main(["batch", scene_file, str(other), "--n", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "new File(name)" in out
        assert "new FileReader(path)" in out
        assert "2 queries over 2 scenes" in out

    def test_many_goals_one_scene(self, scene_file, capsys):
        code = main(["batch", scene_file, "--goals", "File,String"])
        out = capsys.readouterr().out
        assert code == 0
        assert "goal File" in out
        assert "goal String" in out

    def test_uninhabited_goal_reported(self, scene_file, capsys):
        code = main(["batch", scene_file, "--goals", "Unobtainium"])
        out = capsys.readouterr().out
        assert code == 1
        assert "not inhabited" in out

    def test_scene_without_goal_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "nogoal.ins"
        path.write_text(NO_GOAL_SCENE, encoding="utf-8")
        code = main(["batch", str(path)])
        assert code == 2
        assert "no goal" in capsys.readouterr().err

    def test_no_scenes_and_no_stdin_is_an_error(self, capsys):
        code = main(["batch"])
        assert code == 2
        assert "stdin" in capsys.readouterr().err


class TestBatchStdinQueries:
    def _feed(self, monkeypatch, lines):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))

    def test_json_lines_queries(self, scene_file, monkeypatch, capsys):
        import json
        self._feed(monkeypatch, [
            json.dumps({"scene": scene_file, "goal": "File"}),
            "",                                       # blank lines skipped
            json.dumps({"scene": scene_file, "goal": "String", "n": 1}),
        ])
        code = main(["batch", "-"])
        out = capsys.readouterr().out
        assert code == 0
        assert "new File(name)" in out
        assert "goal String" in out
        assert "2 queries over 1 scenes" in out

    def test_stdin_flag_equivalent_to_dash(self, scene_file, monkeypatch,
                                           capsys):
        import json
        self._feed(monkeypatch,
                   [json.dumps({"scene": scene_file})])   # scene's own goal
        code = main(["batch", "--stdin"])
        out = capsys.readouterr().out
        assert code == 0
        assert "new File(name)" in out

    def test_stdin_queries_combine_with_file_scenes(self, scene_file,
                                                    monkeypatch, capsys):
        import json
        self._feed(monkeypatch, [
            json.dumps({"scene": scene_file, "goal": "String",
                        "variant": "no_weights"}),
        ])
        code = main(["batch", scene_file, "-"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no_weights" in out
        assert "2 queries over 1 scenes" in out

    def test_invalid_json_line_is_an_error(self, monkeypatch, capsys):
        self._feed(monkeypatch, ["{broken"])
        code = main(["batch", "-"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_scene_field_is_an_error(self, scene_file, monkeypatch,
                                             capsys):
        self._feed(monkeypatch, ['{"goal": "File"}'])
        code = main(["batch", "-"])
        assert code == 2
        assert "'scene'" in capsys.readouterr().err

    def test_wrongly_typed_fields_are_clean_errors(self, scene_file,
                                                   monkeypatch, capsys):
        import json
        for bad in ({"scene": scene_file, "n": "5"},
                    {"scene": 5},
                    {"scene": scene_file, "goal": 7},
                    {"scene": scene_file, "variant": "turbo"}):
            self._feed(monkeypatch, [json.dumps(bad)])
            code = main(["batch", "-"])
            assert code == 2, f"{bad} should be a usage error"
            assert "error:" in capsys.readouterr().err

    def test_empty_stdin_is_an_error(self, monkeypatch, capsys):
        self._feed(monkeypatch, [])
        code = main(["batch", "-"])
        assert code == 2
        assert "no queries" in capsys.readouterr().err


class TestServeCommand:
    def test_parser_accepts_serving_flags(self):
        from repro.cli import _build_parser
        args = _build_parser().parse_args(
            ["serve", "--port", "0", "--max-pending", "8",
             "--max-scenes", "4", "--deadline-ms", "500",
             "--scenes", "a.ins", "b.ins"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.max_pending == 8
        assert args.scenes == ["a.ins", "b.ins"]

    def test_invalid_deadline_is_a_usage_error(self, capsys):
        code = main(["serve", "--port", "0", "--deadline-ms", "0"])
        assert code == 2
        assert "--deadline-ms" in capsys.readouterr().err

    def test_serve_registers_scenes_and_answers(self, scene_file):
        """Boot the real server via the CLI path and complete against it."""
        import asyncio
        import threading

        from repro.server import AsyncCompletionServer, ServerConfig
        from repro.server.client import (AsyncCompletionClient,
                                         wait_until_healthy)

        # Exercise the serve wiring in-process (the subprocess path is
        # covered by repro.server.smoke / CI).
        server = AsyncCompletionServer(config=ServerConfig(port=0))
        started = threading.Event()
        stop_loop: list = []

        def _run():
            async def _main():
                await server.start()
                started.set()
                stop_loop.append(asyncio.get_running_loop())
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    pass
                finally:
                    await server.close()

            asyncio.run(_main())

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        assert started.wait(10)

        async def _drive():
            async with AsyncCompletionClient(server.host,
                                             server.port) as client:
                await wait_until_healthy(client)
                registered = await client.register_scene(SCENE, name="cli")
                served = await client.complete(registered["scene_id"])
                assert served["snippets"][0]["code"] == "new File(name)"

        asyncio.run(_drive())
        stop_loop[0].call_soon_threadsafe(
            lambda: [task.cancel() for task in
                     asyncio.all_tasks(stop_loop[0])])
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestWarmCommand:
    def test_warm_reports_cache_round_trip(self, scene_file, capsys):
        code = main(["warm", scene_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "warmed 1 entries" in out
        assert "1/1 hits" in out
        assert "cache:" in out

    def test_warm_multiple_goals_and_variants(self, scene_file, capsys):
        code = main(["warm", scene_file, "--goals", "File,String",
                     "--variants", "full,no_weights"])
        out = capsys.readouterr().out
        assert code == 0
        assert "warmed 4 entries" in out
        assert "4/4 hits" in out

    def test_warm_without_goal_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "nogoal.ins"
        path.write_text(NO_GOAL_SCENE, encoding="utf-8")
        code = main(["warm", str(path)])
        assert code == 2
        assert "no goal" in capsys.readouterr().err


class TestBenchCommand:
    def test_single_row_single_variant(self, capsys):
        code = main(["bench", "--rows", "9", "--variants", "full"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DatagramSocket" in out

    def test_all_variants_prints_summary(self, capsys):
        code = main(["bench", "--rows", "9"])
        out = capsys.readouterr().out
        assert code == 0
        assert "top 10" in out


class TestStatsCommand:
    def test_unreachable_server_is_a_clean_error(self, capsys):
        # Port 1 is never listening; the client raises a typed error the
        # CLI maps to the usual exit-2 contract.
        code = main(["stats", "--port", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_pretty_prints_running_server_stats(self, capsys):
        import asyncio
        import threading

        from repro.server import AsyncCompletionServer, ServerConfig

        server = AsyncCompletionServer(config=ServerConfig(port=0))
        started = threading.Event()
        stop_loop: list = []

        def _run():
            async def _main():
                await server.start()
                started.set()
                stop_loop.append(asyncio.get_running_loop())
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    pass
                finally:
                    await server.close()

            asyncio.run(_main())

        thread = threading.Thread(target=_run, daemon=True)
        thread.start()
        assert started.wait(10)
        try:
            code = main(["stats", "--port", str(server.port)])
            out = capsys.readouterr().out
            assert code == 0
            assert "env arena" in out
            assert "proof_hits=" in out
            assert "interned types" in out
            code = main(["stats", "--port", str(server.port), "--json"])
            out = capsys.readouterr().out
            assert code == 0
            assert '"env_arena"' in out
        finally:
            stop_loop[0].call_soon_threadsafe(
                lambda: [task.cancel() for task in
                         asyncio.all_tasks(stop_loop[0])])
            thread.join(timeout=10)
        assert not thread.is_alive()


class TestCorpusStatsCommand:
    def test_prints_marginals(self, capsys):
        code = main(["corpus-stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "7516 declarations" in out
        assert "scala.Boolean.&&" in out


class TestLoadgenCommand:
    def test_emit_trace_is_byte_identical_across_runs(self, tmp_path,
                                                      capsys):
        """The committed-trace workflow's foundation: two emits of the
        same profile+seed write byte-for-byte equal files."""
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["loadgen", "--profile", "smoke", "--seed", "424",
                     "--emit-trace", str(first)]) == 0
        out = capsys.readouterr().out
        assert "events" in out and "digest" in out
        assert main(["loadgen", "--profile", "smoke", "--seed", "424",
                     "--emit-trace", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_emit_trace_seed_changes_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["loadgen", "--profile", "smoke", "--seed", "1",
                     "--emit-trace", str(a)]) == 0
        assert main(["loadgen", "--profile", "smoke", "--seed", "2",
                     "--emit-trace", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()

    def test_loaded_trace_rejects_contradicting_seed(self, tmp_path,
                                                     capsys):
        path = tmp_path / "trace.json"
        assert main(["loadgen", "--profile", "smoke", "--seed", "9",
                     "--emit-trace", str(path)]) == 0
        capsys.readouterr()
        code = main(["loadgen", "--trace", str(path), "--seed", "10",
                     "--emit-trace", str(tmp_path / "out.json")])
        assert code == 2

    def test_chaos_requires_positive_kills(self, capsys):
        assert main(["loadgen", "--chaos", "--kills", "0",
                     "--emit-trace", "/dev/null"]) == 2

    def test_removes_only_the_state_directory_it_made(self, tmp_path,
                                                      monkeypatch, capsys):
        """Without --workdir the topology's state lives in a directory
        of loadgen's own making, removed once the router is stopped —
        after a failed replay too; a --workdir directory stays."""
        import tempfile
        from pathlib import Path

        import repro.loadgen.driver as driver
        import repro.server.router as router
        from repro.core.errors import ReproError
        from repro.loadgen.driver import ReplayResult
        from repro.loadgen.slo import SloAccountant

        workdirs, stopped = [], []
        fail = []

        def fake_spawn(command, args=(), label=None):
            journal = Path(args[list(args).index("--journal") + 1])
            assert journal.parent.is_dir()
            workdirs.append(journal.parent)
            return object(), "127.0.0.1", 1

        async def fake_replay(trace, config):
            if fail:
                raise ReproError("replay failed")
            return ReplayResult(accountant=SloAccountant(), wall_seconds=0.0)

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(router, "spawn_cli_server", fake_spawn)
        monkeypatch.setattr(router, "stop_cli_server",
                            lambda process, host, port: stopped.append(
                                process))
        monkeypatch.setattr(driver, "replay_trace", fake_replay)

        main(["loadgen", "--profile", "smoke"])
        fail.append(True)
        assert main(["loadgen", "--profile", "smoke"]) == 2
        capsys.readouterr()
        assert len(workdirs) == len(stopped) == 2
        assert all(workdir.name.startswith("repro-loadgen-")
                   for workdir in workdirs)
        assert list(tmp_path.glob("repro-loadgen-*")) == []

        kept = tmp_path / "state"
        assert main(["loadgen", "--profile", "smoke",
                     "--workdir", str(kept)]) == 2
        capsys.readouterr()
        assert workdirs[-1] == kept and kept.is_dir()


class TestConfigFields:
    def test_config_fields_are_exactly_the_ones_the_cli_fills(self):
        """Each serving config is built by one command, from its flags: a
        new field arrives with a flag, or it is a constant."""
        import ast
        import dataclasses
        import inspect
        import textwrap

        import repro.cli as cli
        from repro.loadgen.chaos import ChaosPlan
        from repro.loadgen.driver import DriverConfig
        from repro.server.router import RouterConfig
        from repro.server.server import ServerConfig

        mismatched = {}
        for command, config_class in ((cli._cmd_serve, ServerConfig),
                                      (cli._cmd_route, RouterConfig),
                                      (cli._cmd_loadgen, DriverConfig),
                                      (cli._cmd_loadgen, ChaosPlan)):
            tree = ast.parse(textwrap.dedent(inspect.getsource(command)))
            (call,) = [node for node in ast.walk(tree)
                       if isinstance(node, ast.Call)
                       and getattr(node.func, "id", None)
                       == config_class.__name__]
            filled = {keyword.arg for keyword in call.keywords}
            fields = {field.name
                      for field in dataclasses.fields(config_class)}
            if filled != fields:
                mismatched[config_class.__name__] = sorted(fields ^ filled)
        assert mismatched == {}


class TestArgumentErrors:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_variant_rejected(self, scene_file):
        with pytest.raises(SystemExit):
            main(["synthesize", scene_file, "--variant", "psychic"])

    @pytest.mark.parametrize("argv", [
        pytest.param(["serve", "--workers", "2"], id="serve-workers"),
        pytest.param(["serve", "--executor-workers", "2"],
                     id="serve-executor-workers"),
        pytest.param(["serve", "--gc-thresholds", "1"],
                     id="serve-gc-thresholds"),
        pytest.param(["serve", "--gc-tune"], id="serve-gc-tune"),
        pytest.param(["route", "--workers", "2"], id="route-workers"),
        pytest.param(["batch", "--workers", "2"], id="batch-workers"),
        pytest.param(["loadgen", "--max-regression", "0.3"],
                     id="loadgen-max-regression"),
    ])
    def test_removed_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert argv[1] in capsys.readouterr().err
