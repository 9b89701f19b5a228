"""``python -m repro.server.smoke`` reporting, with its processes stubbed."""

import pytest

import repro.server.smoke as smoke


def test_step_lines_reach_stdout_when_the_drive_fails(monkeypatch, capsys):
    monkeypatch.setattr(smoke, "_spawn_server",
                        lambda *args, **kwargs: (None, "127.0.0.1", 1))
    monkeypatch.setattr(smoke, "stop_cli_server",
                        lambda process, host, port: None)

    async def failing_drive(*args, report, **kwargs):
        report.append("first step done")
        raise AssertionError("second step broke")

    monkeypatch.setattr(smoke, "_drive", failing_drive)
    with pytest.raises(AssertionError, match="second step broke"):
        smoke.main([])
    assert "smoke: first step done" in capsys.readouterr().out
