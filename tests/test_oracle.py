import pytest

from bisectrix import (
    GF,
    Bisector,
    Point,
    QQ,
    brute_bisectors,
    chart_point,
    closed_form_bisectors,
    enumerate_lines,
    intersect,
    is_bisector,
    lines_through,
    random_quadrilateral,
    verify_all,
)
from bisectrix.errors import InfiniteField
from bisectrix.oracle import Lcg64, _desargues_sweep, enumerate_points
from conftest import E1_SIDES, E2_SIDES, make_quad

# Parallelogram, improper (A, B, A' through the origin), parallel pair
# (A parallel to A') and parallelogram vertices (the unit square, crossed).
SPECIAL_SIDES = (
    E2_SIDES,
    ("Y=0", "Y=X", "X=0", "Y=2X+1"),
    ("Y=0", "X=0", "Y=1", "Y=X+2"),
    ("X=0", "Y=X", "X=1", "Y=-X+1"),
)


def test_enumerate_lines_counts():
    assert len(enumerate_lines(GF(3))) == 12
    assert len(enumerate_lines(GF(5))) == 30
    assert len(enumerate_lines(GF(7))) == 56
    for field in (GF(3), GF(5)):
        lines = enumerate_lines(field)
        assert len(set(lines)) == len(lines)
    with pytest.raises(InfiniteField):
        enumerate_lines(QQ)


def test_enumerate_points_and_lines_through():
    g5 = GF(5)
    assert len(enumerate_points(g5)) == 25
    p = Point(g5.scalar(2), g5.scalar(3))
    through = lines_through(g5, p)
    assert len(through) == 6
    assert all(l.contains(p) for l in through)


def test_brute_bisectors_contains_sides_and_diagonals():
    q = make_quad(GF(7), *E1_SIDES)
    lines = {b.line for b in brute_bisectors(q)}
    for side in q.sides:
        assert side in lines
    for diagonal in q.diagonal_lines:
        assert diagonal in lines
    with pytest.raises(InfiniteField):
        brute_bisectors(make_quad(QQ, *E1_SIDES))


def test_parallelogram_bisectors_contain_center_star():
    g5 = GF(5)
    q = make_quad(g5, "Y=0", "X=0", "Y=1", "X=1")
    lines = {b.line for b in brute_bisectors(q)}
    star = lines_through(g5, q.centroid)
    assert len(star) == 6
    assert set(star) <= lines


def test_oracle_equivalence():
    """Brute-force bisectors equal the closed-form set (the core dual-route
    check), over GF(5) and GF(7)."""
    for field, count in ((GF(5), 20), (GF(7), 20)):
        for seed in range(count):
            q = random_quadrilateral(field, seed)
            assert brute_bisectors(q) == closed_form_bisectors(q)


def test_brute_bisectors_equal_definition_per_line():
    """The raw-residue sweep finds exactly the lines that is_bisector accepts,
    with the same midpoints."""
    for p in (3, 5, 7, 11, 13):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in range(60)]
        quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        lines = enumerate_lines(field)
        for q in quads:
            expected = set()
            for line in lines:
                m = is_bisector(q, line)
                if m is not None:
                    expected.add(Bisector(line, m))
            assert brute_bisectors(q) == expected, (p, q)


def test_desargues_sweep_pairs_equal_chart_points():
    """The oracle's conjugate pairs on every swept line equal the chart
    parameters of the kernel's intersection points."""
    for p in (7, 11):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in range(12)]
        quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        for q in (q for q in quads if q.proper):
            qr = q.quadrangle()
            swept = list(_desargues_sweep(qr))
            avoiding = [
                l for l in enumerate_lines(field) if not any(l.contains(v) for v in qr.points)
            ]
            assert [line for line, _ in swept] == avoiding
            for line, pairs in swept:
                assert pairs == [
                    tuple(chart_point(line, intersect(line, m)) for m in pair.lines)
                    for pair in qr.opposite_side_pairs()
                ]


def test_random_quadrilateral_deterministic():
    a = random_quadrilateral(GF(7), 1)
    b = random_quadrilateral(GF(7), 1)
    assert a == b
    c = random_quadrilateral(GF(7), 2)
    assert a != c
    q = random_quadrilateral(QQ, 2)
    assert q.proper or q.double_vertex is not None


def test_lcg_sequence_stable():
    rng = Lcg64(1)
    first = [rng.below(100) for _ in range(5)]
    rng2 = Lcg64(1)
    assert first == [rng2.below(100) for _ in range(5)]


def test_verify_all_fixture_profiles(e1, e2, improper):
    for q in (e1, e2, improper):
        reports = verify_all(q, "fixture")
        assert reports
        for r in reports:
            assert r.passed, (r.tag, r.violations)


def test_verify_all_exhaustive_gf7():
    for seed in range(5):
        q = random_quadrilateral(GF(7), seed)
        reports = verify_all(q, "exhaustive")
        tags = {r.tag for r in reports}
        assert "closed_form_oracle" in tags
        assert "pencil_degenerations" in tags
        for r in reports:
            assert r.passed, (r.tag, r.violations)


def test_verify_all_rejects_bad_input(e1):
    with pytest.raises(InfiniteField):
        verify_all(e1, "exhaustive")
    with pytest.raises(ValueError):
        verify_all(e1, "nonsense")


def test_verify_all_flags_corrupted_data():
    """Corrupting the closed-form coefficient surfaces a named violation in
    the oracle-equivalence check."""
    from bisectrix import standard_form

    q = random_quadrilateral(GF(7), 3)
    f, mu = standard_form(q)
    # The memo is a frozen slot: inject the corruption past the guard.
    object.__setattr__(q, "_standard", (f, 2 * mu))
    reports = verify_all(q, "exhaustive")
    failing = {r.tag for r in reports if not r.passed}
    assert "closed_form_oracle" in failing


def test_exhaustive_desargues_compares_every_swept_line(monkeypatch):
    """With reflections suppressed, every swept bisector is a violation."""
    from bisectrix import Involution

    monkeypatch.setattr(Involution, "is_reflection", lambda self: False)
    for seed in (1, 2, 4):
        q = random_quadrilateral(GF(7), seed)
        assert q.proper
        swept = [
            b for b in brute_bisectors(q) if not any(b.line.contains(v) for v in q.vertices)
        ]
        report = {r.tag: r for r in verify_all(q, "exhaustive")}["desargues_reflection"]
        assert len(report.violations) == len(swept) > 0
        assert all("reflection=False but bisector=True" in v for v in report.violations)


def test_report_summary_format():
    q = random_quadrilateral(GF(7), 1)
    report = verify_all(q, "fixture")[0]
    parts = report.summary().split()
    assert parts[0] == report.tag
    assert parts[-1] == "0"
