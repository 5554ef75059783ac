"""bisectrix benchmark: closed-loop CLI workloads, end to end and per layer.

    python3 benchmark/run.py --workload query --seed 1 --seconds 15 --trace 0

Run from the repository root.  One client sends one request at a time to the
in-process entry point `bisectrix.cli.main(argv)` (closed loop, a single
thread) and checks every answer outside the timed region.  The loop stops at
the first boundary of the workload's family cycle after --seconds of
measured time, so every run sees the same family mix.

--trace 0 prints the end-to-end metrics; --trace 1 runs a fixed prefix of the
same requests through `main` and then replays them layer by layer (see
spans.py), printing the per-layer metrics.  Report lines come first; the
last line of stdout is one JSON object.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

from calibrate import REF_SECONDS, PaceSampler
from inputs import FAMILIES, WORKLOADS, requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The fixed prefix of whole family cycles that the digest covers and that
# the traced run replays.
PREFIX = {"verify-p101": 4, "verify-p7": 60, "verify-q": 60, "query": 2000}
SETUP_SAMPLES = 15

_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import bisectrix.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "from calibrate import time_reference as ref; pace = sorted(ref() for _ in range(5))[2]; "
    "print(t, pace, bisectrix.cli.__file__)"
)


def setup_seconds() -> tuple[list[float], list[float]]:
    """Import time of bisectrix.cli in fresh interpreters, timed in the child:
    (raw, normalized by the reference loop timed right after the import).

    The first child (which may compile bytecode) is not counted."""
    raw, normalized = [], []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-E", "-s", "-c", _IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        seconds, pace, path = done.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported bisectrix from {path}, not {SRC}")
        if i:
            raw.append(float(seconds))
            normalized.append(float(seconds) * REF_SECONDS / float(pace))
    return raw, normalized


def invoke(argv) -> tuple[int, str, str, float]:
    """main(argv) with stdout and stderr captured; exit code, output, seconds."""
    from bisectrix.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a wrong answer, not a benchmark crash
            err.write(f"uncaught {type(exc).__name__}: {exc}")
            code = -1
        elapsed = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tally:
    """Gate outcomes, digest and family counts of one run."""

    def __init__(self, prefix: int):
        from gate import Digest, check

        self.check = check
        self.prefix = prefix
        self.digest = Digest()
        self.families = Counter()
        self.failures: list[str] = []
        self.attempted = 0

    def record(self, req, code, stdout, stderr) -> None:
        self.attempted += 1
        self.families[req.family] += 1
        if self.digest.requests < self.prefix:
            self.digest.add(code, stdout)
        problem = self.check(req, code, stdout, stderr)
        if problem:
            self.failures.append(f"{' '.join(req.argv)}: {problem}")

    def report(self) -> list[str]:
        n = self.attempted
        lines = [f"info failed_ratio {len(self.failures) / n:.6f} ratio "
                 f"({len(self.failures)} of {n} requests failed the gate)",
                 f"info digest sha256:{self.digest.hexdigest()} over the first "
                 f"{self.digest.requests} requests"]
        for family in FAMILIES:
            lines.append(f"info family.{family}.share {self.families[family] / n:.4f} ratio")
        lines += [f"fail {f[:400]}" for f in self.failures[:5]]
        return lines


def warm_up() -> None:
    """Lazy set-up users pay once per process (imports inside commands)."""
    quad = "--quad=Y=0; Y=X+1; X=0; Y=2X-1"
    for cmd in ("analyze", "pencil"):
        invoke(["--field", "Q", quad, "--cmd", cmd, "--format", "record"])


def timed_run(workload: str, seed: int, seconds: float) -> tuple[dict, list[str], Tally]:
    cycle = WORKLOADS[workload][1]
    setup_raw, setup = setup_seconds()
    warm_up()
    tally = Tally(PREFIX[workload])
    raw, latencies = array("d"), array("d")
    by_cmd: dict[str, array] = {}
    busy = 0.0
    with PaceSampler() as pace:
        for req in requests(workload, seed):
            if busy >= seconds and len(latencies) >= PREFIX[workload] \
                    and len(latencies) % cycle == 0:
                break
            before = perf_counter()
            code, stdout, stderr, elapsed = invoke(req.argv)
            seconds_raw, seconds_norm = pace.normalize(before, perf_counter(), elapsed)
            busy += seconds_raw
            raw.append(seconds_raw)
            latencies.append(seconds_norm)
            by_cmd.setdefault(req.cmd, array("d")).append(seconds_norm)
            tally.record(req, code, stdout, stderr)
    n = len(latencies)
    metrics = {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "requests_per_s": (n / sum(latencies), "1/s"),
        "p50_ms": (median(latencies) * 1e3, "ms"),
        "p99_ms": (nearest_rank(latencies, 0.99) * 1e3, "ms"),
    }
    slow = [d / REF_SECONDS for d in pace.durations]
    report = [f"info samples {n} requests, {busy:.3f} s measured; "
              f"p99 is nearest-rank with {n - math.ceil(0.99 * n)} samples above it",
              f"info pace: reference loop at {median(slow):.3f}x its nominal time "
              f"(p10 {nearest_rank(slow, 0.1):.3f}x, p90 {nearest_rank(slow, 0.9):.3f}x) "
              f"over {len(slow)} samples; times above are normalized",
              f"info raw requests_per_s {n / busy:.6g} 1/s, p50_ms {median(raw) * 1e3:.6g} ms, "
              f"p99_ms {nearest_rank(raw, 0.99) * 1e3:.6g} ms, setup_s {median(setup_raw):.6g} s"]
    for cmd, values in sorted(by_cmd.items()):
        report.append(f"info {cmd}.p50_ms {median(values) * 1e3:.4f} ms ({len(values)} samples)")
    if workload.startswith("verify"):
        field = workload.split("-")[1]
        report.append(f"info {field}.quads_per_s {n / sum(latencies):.4f} quads/s")
    report.append("info wait n/a: one closed-loop client, no queue and no second thread")
    return metrics, report, tally


def traced_run(workload: str, seed: int) -> tuple[dict, list[str], Tally]:
    from bisectrix import cli
    from spans import Tracer, layer_metrics, replay

    warm_up()
    prefix = PREFIX[workload]
    tally = Tally(prefix)
    tracer, commands, reports = Tracer(), {}, []
    for i, req in enumerate(requests(workload, seed, prefix)):
        commands[i] = req.cmd
        tracer.begin(i)
        code, stdout, stderr, _ = tracer.call(f"cli.{req.cmd}.dispatch", invoke, req.argv)
        cfg = tracer.call("cli.load_config", cli.load_config, list(req.argv))
        replay(tracer, req, cfg, reports)
        tracer.end()
        tally.record(req, code, stdout, stderr)
    metrics = layer_metrics(tracer, commands, reports)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(path)
    report = [f"info traced {prefix} requests, {len(tracer.spans)} spans written to "
              f"{path.relative_to(ROOT)}",
              "info wait n/a: one closed-loop client, no queue and no second thread"]
    return metrics, report, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREFIX))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bisectrix" / "cli.py").is_file():
        print(f"error: no bisectrix sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    if args.trace:
        metrics, report, tally = traced_run(args.workload, args.seed)
    else:
        metrics, report, tally = timed_run(args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    for line in report + tally.report():
        print(line)
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
