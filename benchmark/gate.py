"""Correctness gate and output digest of the bisectrix benchmark.

The gate runs outside the timed region.  Answers are checked against the
definitions: printed bisectors and partners through the definition-level
predicates `is_bisector` / `is_q_pair`, conics by evaluating them with the
benchmark's own arithmetic at points it computed itself.  The closed forms
under test (standard form, locus, bisector_through, q_partner) are never
used to check an answer.
"""

from __future__ import annotations

import hashlib

from inputs import EXHAUSTIVE_TAGS, FIXTURE_TAGS, Arith, Request, vertices

from bisectrix import GF, QQ, Line, LinePair, Quadrilateral, is_bisector, is_q_pair
from bisectrix.errors import GeometryError


def _field(req: Request):
    return QQ if req.spec.p is None else GF(req.spec.p)


def _records(stdout: str) -> list[tuple[str, str]]:
    return [tuple(line.split("\t", 1)) for line in stdout.splitlines() if "\t" in line]


def _lib_point(A: Arith, p):
    return (A.parse(str(p.x)), A.parse(str(p.y)))


def check(req: Request, code: int, stdout: str, stderr: str) -> str | None:
    """None if the answer is right, else the reason it is wrong."""
    if code != req.expect_exit:
        return f"exit {code}, expected {req.expect_exit}: {stderr.strip()[:200]}"
    if req.expect_exit:
        if req.expect_rule not in stderr:
            return f"exit {code} without naming {req.expect_rule}: {stderr.strip()[:200]}"
        return None
    try:
        return _CHECKS[req.cmd](req, stdout)
    except (GeometryError, ValueError, ZeroDivisionError, KeyError) as err:
        return f"unparseable or invalid answer: {type(err).__name__}: {err}"


def _check_verify(req: Request, stdout: str) -> str | None:
    lines = stdout.splitlines()
    if any(line.startswith("violation") for line in lines):
        return "verify reported a violation"
    p = req.spec.p
    tags = EXHAUSTIVE_TAGS if p is not None else FIXTURE_TAGS
    rows = {}
    for line in lines:
        parts = line.split()
        if parts and parts[0] in tags:
            if parts[0] in rows:
                return f"tag {parts[0]} printed twice"
            rows[parts[0]] = parts
    if set(rows) != set(tags):
        return f"missing tags {sorted(set(tags) - set(rows))}"
    # Counts that follow from the definitions alone.
    fixed = {"eq1_discriminant": 1, "opposite_orthogonal": 3, "locus_degeneracy": 1,
             "lambda_involution": 3 if p is None else 3 + p + 1,
             "affine_invariance": 10 if p is None else 5}
    if p is not None:
        fixed["parallel_bisectors"] = p + 1
    for tag, parts in rows.items():
        if len(parts) < 4 or parts[1] != req.spec.name or parts[3] != "0":
            return f"bad summary line {' '.join(parts)!r}"
        if not parts[2].isdigit() or int(parts[2]) != fixed.get(tag, int(parts[2])):
            return f"tag {tag}: instance count {parts[2]}, expected {fixed.get(tag)}"
    return None


def _lib_quad(req: Request):
    field = _field(req)
    return field, Quadrilateral(*(Line.parse(field, lit) for lit in req.literals))


def _check_analyze(req: Request, stdout: str) -> str | None:
    A = Arith(req.spec.p)
    records = dict(reversed(_records(stdout)))
    if records.get("field") != req.spec.name:
        return f"field record {records.get('field')!r}"
    v = vertices(A, req.sides)
    proper = all(v[i] != v[(i + 1) % 4] for i in range(4))
    if records.get("proper") != ("true" if proper else "false"):
        return f"proper record {records.get('proper')!r}, expected {proper}"
    conic = [A.parse(c) for c in records["locus_conic"].split()]
    if len(conic) != 6:
        return "locus_conic needs six coefficients"
    field, q = _lib_quad(req)
    candidates = list(req.sides) + [A.join(v[0], v[2]), A.join(v[1], v[3])]
    for side in candidates:
        m = is_bisector(q, Line.parse(field, A.literal(side)))
        if m is not None and A.conic_at(conic, _lib_point(A, m)) != 0:
            return f"midpoint {m} of bisecting {A.literal(side)} is off the locus"
    return None


def _check_bisector(req: Request, stdout: str) -> str | None:
    A = Arith(req.spec.p)
    field, q = _lib_quad(req)
    records = _records(stdout)
    if records == [("bisector", "none")]:
        return "no bisector, but a side has this midpoint" if req.expect_line else None
    if len(records) == 1 and records[0][1].startswith("all lines through"):
        center = records[0][1][len("all lines through"):].strip(" ()")
        if tuple(A.parse(c) for c in center.split(",")) != req.point:
            return f"all lines through {center}, asked for {req.point}"
        probe = req.expect_line or A.line(1, 0, -req.point[0])
        m = is_bisector(q, Line.parse(field, A.literal(probe)))
        return None if m is not None and _lib_point(A, m) == req.point else (
            f"{A.literal(probe)} through the center does not bisect there")
    if len(records) % 2 or not records:
        return f"malformed bisector answer {records[:4]}"
    found = set()
    for (k1, line_text), (k2, mid_text) in zip(records[::2], records[1::2]):
        if (k1, k2) != ("bisector", "midpoint"):
            return f"malformed bisector answer {records[:4]}"
        line = Line.parse(field, line_text)
        m = is_bisector(q, line)
        printed = tuple(A.parse(c) for c in mid_text.split())
        if m is None or _lib_point(A, m) != req.point or printed != req.point:
            return f"{line_text} is not a bisector with midpoint {req.point}"
        found.add(line)
    if req.expect_line and Line.parse(field, A.literal(req.expect_line)) not in found:
        return f"answer misses the side {A.literal(req.expect_line)}"
    return None


def _check_partner(req: Request, stdout: str) -> str | None:
    field, q = _lib_quad(req)
    records = _records(stdout)
    if len(records) != 1 or records[0][0] != "partner":
        return f"malformed partner answer {records[:2]}"
    pair = LinePair(Line.parse(field, Arith(req.spec.p).literal(req.line)),
                    Line.parse(field, records[0][1]))
    return None if is_q_pair(q, pair) else f"{pair} is not a Q-pair"


def _check_pencil(req: Request, stdout: str) -> str | None:
    A = Arith(req.spec.p)
    records = dict(reversed(_records(stdout)))
    conic = [A.parse(c) for c in records["conic"].split()]
    if len(conic) != 6 or all(c == 0 for c in conic[:3]):
        return f"not a conic: {records['conic']}"
    for v in vertices(A, req.sides):
        if A.conic_at(conic, v) != 0:
            return f"pencil member misses vertex {v}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "analyze": _check_analyze,
    "bisector": _check_bisector,
    "partner": _check_partner,
    "pencil": _check_pencil,
}


class Digest:
    """SHA-256 of the record output and exit code of each request in order.

    Lines that carry a timing (any line mentioning "elapsed") are left out,
    so per-check timings added to the record format do not change it.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.requests = 0

    def add(self, code: int, stdout: str) -> None:
        kept = [line for line in stdout.splitlines() if "elapsed" not in line]
        self._hash.update(("\n".join(kept) + f"\nexit {code}\n").encode())
        self.requests += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
