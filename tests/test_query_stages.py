import importlib.util
from pathlib import Path

from bisectrix import cli

_SPEC = importlib.util.spec_from_file_location(
    "query_stages", Path(__file__).resolve().parents[1] / "tools" / "query_stages.py")
query_stages = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(query_stages)


def test_query_stages_time_every_stage_of_a_prefix(capsys):
    """A 40-request prefix: the three front stages see every request, each
    command has a dispatch row per field family, and load_config's key
    parsers are restored afterwards."""
    keys = cli._KEYS
    assert query_stages.main(["--seed", "1", "--requests", "40", "--passes", "1"]) == 0
    assert cli._KEYS is keys
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[:2] for row in rows[:3]] == [["argv", "40"], ["literals", "40"],
                                            ["quadrilateral", "40"]]
    commands = {row[0] for row in rows[3:]}
    assert commands == {"analyze", "bisector", "partner", "pencil"} and len(rows) == 3 + 16
    assert all(float(row[-1]) > 0 for row in rows)
