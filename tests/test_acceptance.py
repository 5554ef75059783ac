"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass line with its elapsed time (visible with
pytest -s or -v); every expected value is either computed by the
definition-level oracle routes or was derived by hand and cross-checked
against them.
"""

import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest

from bisectrix import (
    GF,
    Line,
    LinePair,
    Point,
    QQ,
    bisector_locus,
    brute_bisectors,
    closed_form_bisectors,
    desargues_involution,
    inner,
    intersect,
    is_bisector,
    is_q_pair,
    line_from_points,
    midpoint,
    nine_points,
    pencil_of,
    q_partner,
    quadratic_data,
    random_quadrilateral,
)
from bisectrix.cli import main
from bisectrix.oracle import Lcg64, random_invertible_map, random_scalar
from bisectrix.pencil import Conic, degenerations
from conftest import E1_SIDES, E2_SIDES, chart_point, in_pencil, make_quad
from test_oracle import bisector_field_by_definition

SVG_NS = "{http://www.w3.org/2000/svg}"


def _stopwatch(budget):
    start = time.perf_counter()

    def done(n, desc):
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"criterion {n} exceeded {budget}s ({elapsed:.2f}s)"
        print(f"criterion {n:2d}: PASS ({elapsed:.2f}s < {budget}s) {desc}")

    return done


def test_criterion_01_discriminant_identity():
    done = _stopwatch(5.0)
    for field, count in ((GF(101), 1000), (QQ, 100)):
        for seed in range(count):
            q = random_quadrilateral(field, seed)
            d = quadratic_data(q)
            sides = (q.a, q.b, q.a2, q.b2)
            product = field.one
            for l1, l2 in zip(sides, sides[1:] + sides[:1]):
                product = product * (l1.t * l2.u - l2.t * l1.u)
            assert d.discriminant() == product
    done(1, "discriminant identity on 1000 GF(101) + 100 Q quadrilaterals")


def test_criterion_02_opposite_orthogonality():
    done = _stopwatch(10.0)
    g7 = GF(7)
    quads = [random_quadrilateral(g7, seed) for seed in range(10000)]
    quads.append(make_quad(QQ, *E1_SIDES))
    quads.append(make_quad(QQ, *E2_SIDES))
    for q in quads:
        d = quadratic_data(q)
        d1, d2 = q.diagonal_lines
        for l1, l2 in ((q.a, q.a2), (q.b, q.b2), (d1, d2)):
            assert inner(d, (l1.u, l1.t), (l2.u, l2.t)).is_zero()
    done(2, "opposite sides and diagonals Q-orthogonal on 10000 GF(7) + E1/E2")


def test_criterion_03_bisector_oracle_equivalence():
    done = _stopwatch(30.0)
    for seed in range(50):
        q = random_quadrilateral(GF(7), seed)
        assert brute_bisectors(q) == closed_form_bisectors(q)
    done(3, "brute-force bisector set equals closed form on 50 GF(7) instances")


def test_criterion_04_bisector_locus():
    done = _stopwatch(30.0)
    e1 = make_quad(QQ, *E1_SIDES)
    # Y^2 - 2(X + 1/8)^2 + 1/32 expanded by hand with exact fractions.
    h = Fraction(1, 8)
    expected = Conic(
        QQ.scalar(-2),
        QQ.zero,
        QQ.one,
        QQ.scalar(-2 * 2 * h),
        QQ.zero,
        QQ.scalar(-2 * h * h + Fraction(1, 32)),
    )
    assert bisector_locus(e1).conic == expected
    g7 = GF(7)
    points = [Point(g7.scalar(x), g7.scalar(y)) for x in range(7) for y in range(7)]
    for seed in range(50):
        q = random_quadrilateral(g7, seed)
        conic = bisector_locus(q).conic
        midpoints = {b.midpoint for b in brute_bisectors(q)}
        zero_set = {p for p in points if conic.contains(p)}
        assert midpoints == zero_set
    done(4, "locus equation exact on E1; midpoint set = zero set on 50 GF(7)")


def test_criterion_05_nine_point_conic():
    done = _stopwatch(10.0)
    quads = [make_quad(QQ, *E1_SIDES), make_quad(QQ, *E2_SIDES)]
    seed = 0
    while len(quads) < 52:
        q = random_quadrilateral(GF(7), seed)
        seed += 1
        if q.proper:
            quads.append(q)
    for q in quads:
        locus = bisector_locus(q)
        pts = nine_points(q.quadrangle())
        assert len(pts) == 9
        for p in pts:
            assert locus.contains(p)
    done(5, "all nine canonical points on the locus for E1, E2 and 50 GF(7)")


def test_criterion_06_degenerate_locus():
    done = _stopwatch(30.0)
    g5 = GF(5)
    quads = [make_quad(QQ, *E2_SIDES)]
    seed = 0
    while len(quads) < 51:
        q = random_quadrilateral(g5, seed)
        seed += 1
        d1, d2 = q.diagonal_lines
        if q.a.is_parallel(q.a2) or q.b.is_parallel(q.b2) or d1.is_parallel(d2):
            quads.append(q)
    for q in quads:
        locus = bisector_locus(q)
        assert locus.components is not None
        assert locus.conic.is_degenerate()
        # Independent reconstruction from the first parallel pair.
        v0, v1, v2, v3 = q.vertices
        d1, d2 = q.diagonal_lines
        for l1, l2, m1, m2 in (
            (q.a, q.a2, midpoint(v0, v3), midpoint(v1, v2)),
            (q.b, q.b2, midpoint(v0, v1), midpoint(v2, v3)),
            (d1, d2, midpoint(v0, v2), midpoint(v1, v3)),
        ):
            if l1.is_parallel(l2):
                mid_line = Line(l1.t, l1.u, (l1.v + l2.v) / 2)
                midpoint_line = line_from_points(m1, m2)
                assert locus.components == (mid_line, midpoint_line)
                assert Conic.from_lines(mid_line, midpoint_line) == locus.conic
                break
    # Nondegenerate direction of the criterion: no parallel pair, no split.
    count = 0
    seed = 0
    while count < 25:
        q = random_quadrilateral(g5, seed)
        seed += 1
        d1, d2 = q.diagonal_lines
        if not (q.a.is_parallel(q.a2) or q.b.is_parallel(q.b2) or d1.is_parallel(d2)):
            assert bisector_locus(q).components is None
            assert not bisector_locus(q).conic.is_degenerate()
            count += 1
    done(6, "degeneracy iff parallel pair; components are midline + midpoint line")


def test_criterion_07_pencil_degenerations():
    done = _stopwatch(60.0)
    g7 = GF(7)
    for seed in range(50):
        q = random_quadrilateral(g7, seed)
        pen = pencil_of(q)
        members = [pen.member(g7.one, g7.scalar(t)) for t in range(7)]
        members.append(pen.member(g7.zero, g7.one))
        for member in members:
            report = degenerations(member)
            entries = list(report.entries)
            if report.family is not None:
                entries.extend(
                    report.family.pair_at_offset(g7.scalar(r)) for r in range(4)
                )
            for entry in entries:
                assert is_q_pair(q, entry.pair)
        for b in brute_bisectors(q):
            partner = q_partner(q, b.line)
            assert in_pencil(q, LinePair(b.line, partner))
    done(7, "pencil degenerations are exactly the Q-pairs on 50 GF(7) instances")


def test_criterion_08_bisector_field_property():
    done = _stopwatch(60.0)
    g7 = GF(7)
    for seed in range(20):
        q = random_quadrilateral(g7, seed)
        pairs = []
        seen = set()
        for b in brute_bisectors(q):
            pair = LinePair(b.line, q_partner(q, b.line))
            if pair not in seen:
                seen.add(pair)
                assert is_q_pair(q, pair)
                pairs.append(pair)
        checked, violations = bisector_field_by_definition(q, pairs)
        assert checked > 0 and violations == [], violations
    done(8, "every bisector bisects every Q-pair: 0 violations on 20 GF(7) instances")


def test_criterion_09_desargues_involution():
    done = _stopwatch(10.0)
    g11 = GF(11)
    rng = Lcg64(2026)
    checked = 0
    seed = 0
    while checked < 200:
        q = random_quadrilateral(g11, seed)
        seed += 1
        if not q.proper:
            continue
        qr = q.quadrangle()
        from bisectrix.oracle import random_line

        line = random_line(g11, rng)
        if any(line.contains(v) for v in qr.points):
            continue
        inv = desargues_involution(qr, line)
        third = qr.opposite_side_pairs()[2]
        s1 = chart_point(line, intersect(line, third.a))
        s2 = chart_point(line, intersect(line, third.b))
        assert inv.conjugate(s1, s2)
        bisects = is_bisector(q, line) is not None
        assert inv.m2.is_zero() == bisects
        checked += 1
    done(9, "Desargues involution conjugates the third pair on 200 GF(11) cases")


def test_criterion_10_affine_invariance():
    done = _stopwatch(5.0)
    rng = Lcg64(7)
    for seed in range(100):
        q = random_quadrilateral(QQ, seed)
        f = random_invertible_map(QQ, rng)
        fq = q.transform(f)
        d_q = quadratic_data(q)
        d_fq = quadratic_data(fq)

        def image(v):
            return (f.m00 * v[0] + f.m01 * v[1], f.m10 * v[0] + f.m11 * v[1])

        basis = [(QQ.one, QQ.zero), (QQ.zero, QQ.one), (QQ.one, QQ.one)]
        lam = None
        for v in basis:
            for w in basis:
                denom = inner(d_fq, image(v), image(w))
                if not denom.is_zero():
                    lam = inner(d_q, v, w) / denom
                    break
            if lam is not None:
                break
        assert lam is not None
        for _ in range(100):
            v = (random_scalar(QQ, rng), random_scalar(QQ, rng))
            w = (random_scalar(QQ, rng), random_scalar(QQ, rng))
            assert inner(d_q, v, w) == lam * inner(d_fq, image(v), image(w))
    done(10, "one probe fixes lambda for 100 vector pairs on 100 Q instances")


def test_criterion_11_cli_contract(tmp_path, capsys):
    done = _stopwatch(5.0)
    e1_quad = "Y=0; Y=X+1; X=0; Y=2X-1"

    code = main(["--field", "Q", "--quad", e1_quad, "--cmd", "analyze"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert "centroid: -1/8, 0" in out
    assert "mu: 2" in out

    code = main(
        ["--field", "Q", "--quad", e1_quad, "--cmd", "partner", "--line", "Y=X+1"]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out == ["Y=2X-1"]

    code = main(
        ["--field", "GFp:7", "--cmd", "verify", "--seed", "1", "--instances", "5"]
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert all(line.split()[-1] == "0" for line in out)

    svg_path = tmp_path / "locus.svg"
    code = main(
        ["--field", "Q", "--quad", e1_quad, "--cmd", "plot", "--what", "locus",
         "--out", str(svg_path)]
    )
    capsys.readouterr()
    assert code == 0
    root = ET.parse(svg_path).getroot()
    declared = {}
    for item in root.find(f"{SVG_NS}metadata").text.split():
        key, value = item.split("=")
        declared[key] = int(value)
    actual = {g.get("id"): len(list(g)) for g in root.findall(f"{SVG_NS}g")}
    assert declared == actual
    assert actual["sides"] == 4
    assert actual["locus"] >= 1
    assert actual["midpoints"] >= 8
    with capsys.disabled():
        print()
    done(11, "CLI analyze/partner/verify/plot contract")
