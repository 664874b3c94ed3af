"""``python -m repro smoke NAME``: the smoke table, its CLI wiring, and
the pinned rows in ``tools/smoke_digests.py`` (the only CI job that
runs the smokes, so a smoke without a row would run nowhere)."""

import importlib.util
import inspect
import pathlib

import pytest

from repro import cli

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "smoke_digests.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("smoke_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


smoke_digests = _load_tool()


def test_every_smoke_has_a_pinned_row_and_every_smoke_row_a_smoke():
    named = [cmd[1] for _, cmd, _ in smoke_digests.ROWS if cmd[0] == "smoke"]
    assert sorted(named) == sorted(cli.SMOKES)
    for name, fn in cli.SMOKES.items():
        assert "seed" in inspect.signature(fn).parameters, name


def test_smoke_prints_the_report_and_returns_its_code(monkeypatch, capsys):
    seeds = []

    def fake(seed):
        seeds.append(seed)
        return 1, "boom"

    monkeypatch.setitem(cli.SMOKES, "chaos", fake)
    assert cli.main(["smoke", "chaos"]) == 1
    assert capsys.readouterr().out == "boom\n"
    assert cli.main(["smoke", "chaos", "--seed", "7"]) == 1
    assert seeds == [0, 7]


def test_unknown_smoke_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["smoke", "nope"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("row", ["chaos-smoke", "recover-smoke"])
def test_cheapest_pinned_rows_match_their_digests(row, tmp_path):
    ((_, cmd, files),) = [r for r in smoke_digests.ROWS if r[0] == row]
    rc, digest, stderr = smoke_digests.run_row(cmd, files, tmp_path / row)
    assert rc == 0, stderr
    assert digest == smoke_digests.load(smoke_digests.GOLDEN)[row]
