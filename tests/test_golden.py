"""Replay the golden CLI corpus and compare every byte.

tests/golden/records.json was written once by tests/golden/make_corpus.py;
a mismatch here is a change in the CLI's output or exit code, to be fixed
in the code.  A missing corpus fails the test rather than regenerating it.
"""

import json
from pathlib import Path

from bisectrix.cli import main

CORPUS = Path(__file__).parent / "golden" / "records.json"


def test_golden_corpus_replays_byte_identical(capsys):
    assert CORPUS.is_file(), f"golden corpus {CORPUS} is missing"
    entries = json.loads(CORPUS.read_text(encoding="utf-8"))
    assert entries
    mismatches = []
    for entry in entries:
        code = main(list(entry["argv"]))
        captured = capsys.readouterr()
        got = {"argv": entry["argv"], "exit": code, "stdout": captured.out}
        if code != 0:
            got["stderr"] = captured.err
        if got != entry:
            mismatches.append(entry["argv"])
    assert not mismatches, f"{len(mismatches)} entries differ, first: {mismatches[:3]}"
