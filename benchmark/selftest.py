"""Smoke-size tests of the benchmark itself (kept out of the package's suite).

    python3 -m pytest -q benchmark/selftest.py
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

SMOKE = 40


def _digest(workload: str, seed: int, n: int) -> str:
    digest = gate.Digest()
    for req in inputs.requests(workload, seed, n):
        code, stdout, stderr, _ = run.invoke(req.argv)
        assert gate.check(req, code, stdout, stderr) is None
        digest.add(code, stdout)
    return digest.hexdigest()


def test_same_seed_same_inputs_and_digest():
    for workload in inputs.WORKLOADS:
        assert inputs.requests(workload, 7, SMOKE) == inputs.requests(workload, 7, SMOKE)
    for workload in ("verify-p7", "verify-q", "query"):
        n = 6 if workload.startswith("verify") else SMOKE
        assert _digest(workload, 7, n) == _digest(workload, 7, n)


def test_different_seed_different_inputs():
    for workload in inputs.WORKLOADS:
        first = [r.argv for r in inputs.requests(workload, 7, SMOKE)]
        second = [r.argv for r in inputs.requests(workload, 8, SMOKE)]
        assert first != second


def test_families_and_expected_errors_hold():
    reqs = inputs.requests("query", 3, 200)
    assert {r.family for r in reqs} == set(inputs.FAMILIES)
    assert {r.expect_rule for r in reqs} >= set(inputs.INVALID_RULES) | {"NotABisector"}
    for req in reqs:
        code, stdout, stderr, _ = run.invoke(req.argv)
        assert gate.check(req, code, stdout, stderr) is None, req.argv


def test_gate_rejects_corrupted_partner():
    req = next(r for r in inputs.requests("query", 5, SMOKE)
               if r.cmd == "partner" and r.expect_exit == 0)
    code, stdout, stderr, _ = run.invoke(req.argv)
    assert gate.check(req, code, stdout, stderr) is None
    # The request's own line is a side; its Q-partner is another line, so
    # printing the line itself as its partner is wrong unless it is self-paired.
    A = inputs.Arith(req.spec.p)
    wrong = next(s for s in req.sides if s != req.line)
    corrupted = f"partner\t{A.literal(wrong)}\n"
    assert corrupted != stdout
    assert gate.check(req, code, corrupted, stderr) is not None


def test_gate_rejects_verify_violation():
    req = inputs.requests("verify-p7", 5, 1)[0]
    code, stdout, stderr, _ = run.invoke(req.argv)
    assert gate.check(req, code, stdout, stderr) is None
    injected = stdout + "violation eq1_discriminant: discriminant 1 != factor product 2\n"
    assert gate.check(req, code, injected, stderr) is not None
    dropped = "\n".join(stdout.splitlines()[1:])
    assert gate.check(req, code, dropped, stderr) is not None
    assert gate.check(req, 1, stdout, stderr) is not None


def _run(argv, monkeypatch, prefix):
    monkeypatch.setitem(run.PREFIX, argv[1], prefix)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def test_every_metric_is_printed(monkeypatch):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in ("verify-p7", "query"):
            argv = ["--workload", workload, "--seed", "2", "--seconds", "0.2",
                    "--trace", str(trace)]
            lines, result = _run(argv, monkeypatch, 20 if workload == "query" else 6)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0
            assert set(result["metrics"]) == {m["name"] for m in spec[key]}
            if trace == 0:
                text = "\n".join(lines)
                for name in ("failed_ratio", "digest sha256:", "family.invalid.share",
                             "wait n/a"):
                    assert name in text
                assert ("analyze.p50_ms" if workload == "query" else "p7.quads_per_s") in text


def test_traced_counts_repeat(monkeypatch):
    argv = ["--workload", "verify-p7", "--seed", "4", "--seconds", "0.2", "--trace", "1"]
    exact = [k for k in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
             if k["name"].endswith((".instances", ".calls", "bisector_ratio"))]
    first = _run(argv, monkeypatch, 6)[1]["metrics"]
    second = _run(argv, monkeypatch, 6)[1]["metrics"]
    for metric in exact:
        assert first[metric["name"]] == second[metric["name"]]
    assert first["oracle.check.desargues_reflection.instances"]["value"] > 0
    assert 0 < first["oracle.brute.bisector_ratio"]["value"] < 1
