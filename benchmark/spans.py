"""Traced replay: per-layer spans recorded from the benchmark's own files.

Each request gets a root span.  Inside it the request is first run through
`bisectrix.cli.main` exactly as in the untraced run (span
`cli.<cmd>.dispatch`), then replayed through each module's public functions
on the request's own inputs, in the order the command uses them, one span
per call.  Nothing is recorded inside the package itself.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median
from time import perf_counter

from inputs import EXHAUSTIVE_TAGS, Request

from bisectrix import (
    GF, QQ, Line, Quadrilateral, bisector_locus, bisector_through, brute_bisectors,
    classify, degenerations, desargues_involution, intersect, is_bisector, pencil_of,
    q_partner, quadratic_data, random_quadrilateral, standard_form, verify_all,
)
from bisectrix import cli
from bisectrix.errors import GeometryError

# (span name, unit of its per-call median).  Field rows are per operation.
LAYERS = (
    ("field.gf_mul_add", "ns"), ("field.q_mul_add", "ns"), ("field.inverse", "ns"),
    ("plane.line", "us"), ("plane.intersect", "us"),
    ("quad.quadrilateral", "us"), ("quad.standard_form", "us"),
    ("form.quadratic_data", "us"), ("form.desargues_involution", "us"),
    ("bisectors.is_bisector", "us"), ("bisectors.bisector_locus", "us"),
    ("bisectors.bisector_through", "us"), ("bisectors.q_partner", "us"),
    ("pencil.pencil_of", "us"), ("pencil.classify", "us"), ("pencil.degenerations", "us"),
    ("oracle.random_quadrilateral", "us"), ("oracle.brute_bisectors", "ms"),
    ("oracle.verify_all", "ms"),
    ("cli.load_config", "us"),
    *((f"cli.{cmd}.dispatch", "us") for cmd in ("analyze", "bisector", "partner", "pencil", "verify")),
)
_SCALE = {"ns": 1e9, "us": 1e6, "ms": 1e3}

# Replayed calls that `main` itself makes at top level, per command.  The
# rest of a dispatch span is the CLI's own time (cli.self).
ON_PATH = {
    "analyze": {"plane.line", "quad.quadrilateral", "form.quadratic_data",
                "quad.standard_form", "bisectors.bisector_locus", "pencil.classify"},
    "bisector": {"plane.line", "quad.quadrilateral", "bisectors.bisector_through"},
    "partner": {"plane.line", "quad.quadrilateral", "bisectors.q_partner"},
    "pencil": {"plane.line", "quad.quadrilateral", "pencil.pencil_of", "pencil.classify",
               "pencil.degenerations"},
    "verify": {"plane.line", "quad.quadrilateral", "oracle.random_quadrilateral",
               "oracle.verify_all"},
}

FIELD_REPEATS = 8     # passes over a request's 12 side coefficients per field span
DESARGUES_LINES = 4   # lines per quadrilateral for the desargues_involution probe


class Tracer:
    """In-memory spans: [id, parent, request, name, start, end, ops]."""

    def __init__(self):
        self.spans: list[list] = []
        self._root = None
        self._request = None

    def begin(self, request: int) -> None:
        self._request, self._root = request, len(self.spans)
        self.spans.append([self._root, None, request, "request", perf_counter(), None, 1])

    def end(self) -> None:
        self.spans[self._root][5] = perf_counter()

    def call(self, name: str, fn, *args, ops: int = 1):
        """fn(*args) in a span; a kernel error is returned, not raised."""
        start = perf_counter()
        try:
            return fn(*args)
        except (GeometryError, cli.ConfigError) as err:
            return err
        finally:
            end = perf_counter()
            self.spans.append([len(self.spans), self._root, self._request, name, start, end, ops])

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover (children of
        one span run one after another, so they never overlap)."""
        child = [0.0] * len(self.spans)
        for sid, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [s[5] - s[4] - child[s[0]] for s in self.spans]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "request", "name", "start", "end", "ops")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _field_probe(tr: Tracer, field, scalars) -> None:
    name = "field.q_mul_add" if field is QQ else "field.gf_mul_add"
    triples = [(scalars[i], scalars[i - 1], scalars[i - 2]) for i in range(len(scalars))]
    triples *= FIELD_REPEATS

    def mul_add():
        for x, y, z in triples:
            x * y + z

    nonzero = [s for s in scalars if not s.is_zero()] * FIELD_REPEATS

    def inverse():
        for x in nonzero:
            x.inverse()

    tr.call(name, mul_add, ops=len(triples))
    if nonzero:
        tr.call("field.inverse", inverse, ops=len(nonzero))


def _probe_lines(q):
    """The first lines Y = tX + v (t, v = 0, 1, 2, ...) that avoid every vertex."""
    field, out = q.field, []
    for n in range(64):
        line = Line(field.scalar(n // 8), field.one, field.scalar(n % 8))
        if not any(line.contains(v) for v in q.vertices) and line not in out:
            out.append(line)
            if len(out) == DESARGUES_LINES:
                break
    return out


def replay(tr: Tracer, req: Request, cfg, reports: list) -> None:
    """Replay one request's kernel calls; cfg is the replayed load_config result."""
    field = QQ if req.spec.p is None else GF(req.spec.p)
    if req.literals is not None:
        literals = req.literals + ([] if req.line is None else [" ".join(map(str, req.line))])
        lines = [tr.call("plane.line", Line, *(field.parse(x) for x in lit.split()))
                 for lit in literals]
        q = tr.call("quad.quadrilateral", Quadrilateral, *lines[:4])
    else:
        q = tr.call("oracle.random_quadrilateral", random_quadrilateral, field, cfg.seed)
        lines = list(q.sides)
    lines = [l for l in lines if isinstance(l, Line)]
    _field_probe(tr, field, [c for l in lines[:4] for c in (l.t, l.u, l.v)])
    for l1, l2 in zip(lines[:4], lines[1:4] + lines[:1]):
        if not l1.is_parallel(l2):
            tr.call("plane.intersect", intersect, l1, l2)
    if isinstance(q, Exception) or isinstance(cfg, Exception):
        return
    if req.cmd == "analyze":
        tr.call("form.quadratic_data", quadratic_data, q)
        tr.call("quad.standard_form", standard_form, q)
        locus = tr.call("bisectors.bisector_locus", bisector_locus, q)
        tr.call("pencil.classify", classify, locus.conic)
    elif req.cmd == "bisector":
        tr.call("bisectors.bisector_through", bisector_through, q, cfg.point)
    elif req.cmd == "partner":
        tr.call("bisectors.is_bisector", is_bisector, q, cfg.line)
        tr.call("bisectors.q_partner", q_partner, q, cfg.line)
    elif req.cmd == "pencil":
        alpha = cfg.alpha if cfg.alpha is not None else field.one
        beta = cfg.beta if cfg.beta is not None else field.zero
        member = tr.call("pencil.pencil_of", lambda: pencil_of(q).member(alpha, beta))
        tr.call("pencil.classify", classify, member)
        tr.call("pencil.degenerations", degenerations, member)
    else:
        _replay_verify(tr, q, field, cfg, reports)


def _replay_verify(tr: Tracer, q, field, cfg, reports: list) -> None:
    # Probes of the layers the checks call, on this quadrilateral, in check order.
    tr.call("form.quadratic_data", quadratic_data, q)
    if q.proper:
        qr = q.quadrangle()
        for line in _probe_lines(q):
            tr.call("form.desargues_involution", desargues_involution, qr, line)
    mids = [tr.call("bisectors.is_bisector", is_bisector, q, side) for side in q.sides]
    tr.call("quad.standard_form", standard_form, q)
    tr.call("bisectors.bisector_through", bisector_through, q, mids[0])
    tr.call("bisectors.bisector_locus", bisector_locus, q)
    member = tr.call("pencil.pencil_of", lambda: pencil_of(q).member(field.one, field.zero))
    tr.call("pencil.degenerations", degenerations, member)
    tr.call("bisectors.q_partner", q_partner, q, q.a)
    if field is not QQ:
        found = tr.call("oracle.brute_bisectors", brute_bisectors, q)
        reports.append(("brute", len(found), field.p * field.p + field.p))
    profile = "fixture" if field is QQ else "exhaustive"
    for report in tr.call("oracle.verify_all", verify_all, q, profile, cfg.seed):
        reports.append(("check", report.tag, report.instances, report.elapsed))


def layer_metrics(tr: Tracer, commands: dict[int, str], reports: list) -> dict:
    """Per-call medians, call counts and shares of every layer, cli.self,
    the verify check rows and the tracing overhead, as metric -> (value, unit)."""
    self_times = tr.self_times()
    roots = [s for s in tr.spans if s[3] == "request"]
    total = sum(s[5] - s[4] for s in roots) or 1.0
    by_name: dict[str, list[tuple[float, int]]] = {}
    for span, st in zip(tr.spans, self_times):
        by_name.setdefault(span[3], []).append((st, span[6]))
    out = {}
    for name, unit in LAYERS:
        rows = by_name.get(name, [])
        out[f"{name}_{unit}"] = (median(t / n for t, n in rows) * _SCALE[unit] if rows else 0.0, unit)
        out[f"{name}.calls"] = (len(rows), "count")
        out[f"{name}.share"] = (sum(t for t, _ in rows) / total, "ratio")

    # cli.self: each dispatch minus that request's replayed top-level kernel calls.
    per_request: dict[int, list] = {}
    for span in tr.spans:
        per_request.setdefault(span[2], []).append(span)
    cli_self = []
    for request, spans in per_request.items():
        path = ON_PATH[commands[request]]
        dispatch = sum(s[5] - s[4] for s in spans if s[3].endswith(".dispatch"))
        kernel = sum(s[5] - s[4] for s in spans if s[3] in path)
        cli_self.append(dispatch - kernel)
    out["cli.self_us"] = (median(cli_self) * 1e6, "us")
    out["cli.self.share"] = (sum(cli_self) / total, "ratio")

    checks = [r for r in reports if r[0] == "check"]
    for tag in EXHAUSTIVE_TAGS:
        rows = [r for r in checks if r[1] == tag]
        out[f"oracle.check.{tag}_ms"] = (median(r[3] for r in rows) * 1e3 if rows else 0.0, "ms")
        out[f"oracle.check.{tag}.instances"] = (sum(r[2] for r in rows), "count")
    brute = [r for r in reports if r[0] == "brute"]
    tested = sum(r[2] for r in brute)
    out["oracle.brute.bisector_ratio"] = (sum(r[1] for r in brute) / tested if tested else 0.0, "ratio")

    dispatch_total = sum(s[5] - s[4] for s in tr.spans if s[3].endswith(".dispatch"))
    out["trace.overhead_share"] = ((total - dispatch_total) / dispatch_total, "ratio")
    return out
