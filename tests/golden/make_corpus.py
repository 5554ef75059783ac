"""Write the golden `--format record` corpus replayed by tests/test_golden.py.

Run once, from the repository root, when the corpus is first created:

    PYTHONPATH=src python tests/golden/make_corpus.py

Never rerun it to "bless" a diff.  The corpus pins the bytes the CLI
printed when it was written; a refactor that changes them is a regression
to fix in the code, not in records.json.

Each entry holds an argv, its exit code and stdout, plus stderr when the
exit code is not 0.  Every value is passed as `--flag=value` so entries do
not depend on how argparse splits a separate value that starts with '-'.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from bisectrix import GF, QQ, Line, Quadrilateral, random_quadrilateral
from bisectrix.cli import main
from bisectrix.plane import midpoint

CORPUS = Path(__file__).with_name("records.json")

FIXTURES = {
    "E1": ("Y=0", "Y=X+1", "X=0", "Y=2X-1"),
    "E2": ("Y=0", "X=0", "Y=1", "X=1"),
    "improper": ("Y=0", "Y=X", "X=0", "Y=2X+1"),
}
FIELDS = ((QQ, "Q"), (GF(7), "GFp:7"))
SEEDS = range(20)
PENCIL_COEFFS = ((1, 0), (0, 1), (1, 1), (2, 3))


def _quad_literal(q: Quadrilateral) -> str:
    text = "; ".join(str(side) for side in q.sides)
    reparsed = Quadrilateral(*(Line.parse(q.field, s) for s in text.split(";")))
    assert reparsed.sides == q.sides, text
    return text


def _point_literal(p) -> str:
    return f"{p.x},{p.y}"


def _quad_argvs(q: Quadrilateral, flag: str, fmt: str, verify: bool) -> list[list[str]]:
    base = [f"--field={flag}", f"--quad={_quad_literal(q)}", f"--format={fmt}"]
    v0, _, _, v3 = q.vertices
    argvs = [
        base + ["--cmd=analyze"],
        base + ["--cmd=bisector", f"--point={_point_literal(midpoint(v0, v3))}"],
        base + ["--cmd=bisector", f"--point={_point_literal(q.centroid)}"],
        base + ["--cmd=partner", f"--line={q.b}"],
        base + ["--cmd=partner", "--line=X=3"],
    ]
    argvs += [
        base + ["--cmd=pencil", f"--alpha={a}", f"--beta={b}"] for a, b in PENCIL_COEFFS
    ]
    if verify:
        argvs.append(base + ["--cmd=verify"])
    return argvs


def corpus_argvs() -> list[list[str]]:
    argvs: list[list[str]] = []
    for field, flag in FIELDS:
        for sides in FIXTURES.values():
            q = Quadrilateral(*(Line.parse(field, s) for s in sides))
            for fmt in ("record", "text"):
                argvs += _quad_argvs(q, flag, fmt, verify=True)
        for seed in SEEDS:
            argvs += _quad_argvs(random_quadrilateral(field, seed), flag, "record", verify=False)
        argvs.append([
            f"--field={flag}", "--cmd=verify", "--seed=0",
            f"--instances={len(SEEDS)}", "--format=record",
        ])
    return argvs


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    entry = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    if code != 0:
        entry["stderr"] = err.getvalue()
    return entry


if __name__ == "__main__":
    entries = [run(argv) for argv in corpus_argvs()]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}")
