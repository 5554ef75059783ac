from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bisectrix import (
    GF,
    AffineMap,
    Conic,
    InfPoint,
    Line,
    Point,
    QQ,
    intersect,
    line_from_points,
    midpoint,
)
from bisectrix.errors import DegenerateInput, FieldMismatch, IdenticalLines, SingularMap
from bisectrix.field import _Rat
from bisectrix.oracle import Lcg64, enumerate_lines, random_line, random_quadrilateral
from bisectrix.plane import _PARALLEL, _SAME, _meet, _mid
from conftest import (
    apply_by_rats, intersect_by_scalars, line_from_points_by_rats, map_point, meet_by_rats,
    mid_by_rats, midpoint_by_scalars,
)


def pt(x, y, field=QQ):
    return Point(field.scalar(Fraction(x)), field.scalar(Fraction(y)))


def test_line_from_points_examples():
    assert line_from_points(pt(0, 0), pt(1, 1)) == Line.parse(QQ, "Y=X")
    assert line_from_points(pt(0, 1), pt(0, -1)) == Line.parse(QQ, "X=0")
    assert line_from_points(pt(-1, 0), pt(0, 1)) == Line.parse(QQ, "Y=X+1")
    with pytest.raises(DegenerateInput):
        line_from_points(pt(2, 3), pt(2, 3))


def test_intersect_examples():
    assert intersect(Line.parse(QQ, "Y=0"), Line.parse(QQ, "X=0")) == pt(0, 0)
    assert intersect(Line.parse(QQ, "Y=X+1"), Line.parse(QQ, "Y=2X-1")) == pt(2, 3)
    at_inf = intersect(Line.parse(QQ, "Y=X"), Line.parse(QQ, "Y=X+1"))
    assert at_inf == InfPoint(QQ.one, QQ.one)
    with pytest.raises(IdenticalLines):
        intersect(Line.parse(QQ, "Y=X"), Line.parse(QQ, "Y=X"))


def test_infinite_point():
    assert Line.parse(QQ, "Y=0").infinite_point() == InfPoint(QQ.one, QQ.zero)
    assert Line.parse(QQ, "X=0").infinite_point() == InfPoint(QQ.zero, QQ.one)
    assert Line.parse(QQ, "Y=2X-1").infinite_point() == InfPoint(QQ.one, QQ.scalar(2))


def test_midpoint():
    assert midpoint(pt(0, 0), pt(2, 4)) == pt(1, 2)
    p = pt(3, -5)
    assert midpoint(p, p) == p
    g7 = GF(7)
    a = Point(g7.scalar(1), g7.zero)
    b = Point(g7.scalar(2), g7.zero)
    assert midpoint(a, b) == Point(g7.scalar(5), g7.zero)


def test_apply_map_examples():
    ident = AffineMap.identity(QQ)
    p = pt(3, 4)
    assert map_point(ident, p) == p
    swap = AffineMap.linear(QQ.zero, QQ.one, QQ.one, QQ.zero)
    assert swap.apply(Line.parse(QQ, "Y=0")) == Line.parse(QQ, "X=0")
    stretch = AffineMap.linear(QQ.scalar(2), QQ.zero, QQ.zero, QQ.one)
    assert stretch.apply(Line.parse(QQ, "Y=2X-1")) == Line.parse(QQ, "Y=X-1")
    with pytest.raises(SingularMap):
        AffineMap.linear(QQ.one, QQ.one, QQ.one, QQ.one)


def _two_points(l):
    """Two distinct points of l: X = 0 and 1 on Y = tX + v, Y = 0 and 1 on
    a vertical line."""
    zero, one = l.field.zero, l.field.one
    if l.is_vertical:
        return Point(-l.v, zero), Point(-l.v, one)
    return Point(zero, l.v), Point(one, l.t + l.v)


def test_map_compose_inverse():
    """A map's image of a line, by the adjugate, is the line through the
    images of two of its points; random maps over Q, and maps with a
    nonzero translation on every line of GF(7)."""
    rng = Lcg64(7)
    for _ in range(20):
        entries = [QQ.scalar(rng.below(9) - 4) for _ in range(6)]
        try:
            f = AffineMap(*entries)
        except SingularMap:
            continue
        t, u, v = (QQ.scalar(rng.below(9) - 4) for _ in range(3))
        if t.is_zero() and u.is_zero():
            continue
        l = Line(t, u, v)
        assert f.apply(l) == line_from_points(*(map_point(f, x) for x in _two_points(l)))
    g7 = GF(7)
    maps = 0
    while maps < 12:
        entries = [g7.scalar(rng.below(7)) for _ in range(6)]
        if entries[4].is_zero() or entries[5].is_zero():
            continue
        try:
            f = AffineMap(*entries)
        except SingularMap:
            continue
        maps += 1
        for l in enumerate_lines(g7):
            assert f.apply(l) == line_from_points(*(map_point(f, x) for x in _two_points(l)))


def test_canonicalization_idempotent_and_round_trip():
    texts = ["Y=0", "X=0", "Y=X+1", "Y=2X-1", "Y=-X", "X=-1/2", "Y=1/2X+1/3", "Y=7"]
    for text in texts:
        l = Line.parse(QQ, text)
        rebuilt = Line(l.t, l.u, l.v)
        assert rebuilt == l
        assert Line.parse(QQ, str(l)) == l
    triple = Line.parse(QQ, "2 2 4")
    assert triple == Line.parse(QQ, "Y=X+2")
    g7 = GF(7)
    for line in enumerate_lines(g7):
        assert Line.parse(g7, str(line)) == line


def test_raw_constructors_hold_fractions_over_q():
    """Line.of and Conic.of make int entries _Rats (the raw Fractions of Q)
    before they normalize, so they agree with the parser and their Scalars
    divide exactly."""
    line = Line.of(QQ, (1, 3, 0))
    assert line == Line.parse(QQ, "1 3 0")
    assert all(type(c) is _Rat for c in line.raw)
    assert Line.of(QQ, (0, 1, 2)).v / 4 == QQ.scalar(Fraction(1, 2))
    conic = Conic.of(QQ, (2, 0, 1, 0, 0, -1))
    assert conic == Conic(*(QQ.scalar(c) for c in (2, 0, 1, 0, 0, -1)))
    assert all(type(c) is _Rat for c in conic.raw)


# The slope sugar: literal, then the canonical line it denotes.
_SUGAR = (
    ("Y=X", "Y=X"), ("Y=-X-1", "Y=-X-1"), ("Y=+X+1/2", "Y=X+1/2"), ("Y=2*X+3", "Y=2X+3"),
    ("y=2x+1", "Y=2X+1"), ("Y = 2 X + 1", "Y=2X+1"), ("Y=1/2X", "Y=1/2X"), ("Y=X+1.5", "Y=X+3/2"),
    ("Y=-7/2", "Y=-7/2"), ("Y=3", "Y=3"),
)
# Malformed sugar: a '*' without a coefficient, or a tail after X that is
# not a sign and a scalar.  These used to read Y=X+2, Y=2X+3, Y=X, Y=X+1, ...
_BAD_SUGAR = ("Y=X2", "Y=2X3", "Y=*X", "Y=X 1", "Y=-*X", "Y=2**X", "Y=X+", "Y=X+2X", "Y=XX",
              "Y=X--1", "Y=X+ABC")


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_slope_sugar_parses_strictly(field):
    for text, canonical in _SUGAR:
        assert str(Line.parse(field, text)) == str(Line.parse(field, canonical)), text
    for text in _BAD_SUGAR:
        with pytest.raises(DegenerateInput, match="cannot parse line literal"):
            Line.parse(field, text)


@pytest.mark.parametrize("field", [QQ, GF(7)])
def test_slope_sugar_takes_decimal_and_exponent_slopes(field):
    """The slope before X is a scalar literal in Fraction's grammar, as the
    intercept after it is; what that grammar refuses still cannot parse."""
    assert Line.parse(field, "Y=1.5X+1") == Line.parse(field, "3/2 1 1")
    assert Line.parse(field, "Y=1e2X+1") == Line.parse(field, "100 1 1")
    assert Line.parse(field, "Y=-.5*X") == Line.parse(field, "-1/2 1 0")
    assert Line.parse(field, "y=2.5e-1x-1E1") == Line.parse(field, "1/4 1 -10")
    assert Line.parse(field, "Y=1_0.0_1X") == Line.parse(field, "1001/100 1 0")
    for text in ("Y=1.2.3X", "Y=1eX", "Y=1/2e3X", "Y=/2X", "Y=.X", "Y=1e2.5X"):
        with pytest.raises(DegenerateInput, match="cannot parse line literal"):
            Line.parse(field, text)


def test_parallel_iff_same_infinite_point():
    g5 = GF(5)
    lines = enumerate_lines(g5)
    for i in range(0, len(lines), 7):
        for j in range(0, len(lines), 5):
            l1, l2 = lines[i], lines[j]
            assert l1.is_parallel(l2) == (l1.infinite_point() == l2.infinite_point())


def test_map_preserves_incidence_and_midpoints():
    rng = Lcg64(99)
    for seed in range(10):
        q = random_quadrilateral(QQ, seed)
        entries = [QQ.scalar(rng.below(9) - 4) for _ in range(6)]
        try:
            f = AffineMap(*entries)
        except SingularMap:
            continue
        line = random_line(QQ, rng)
        for p in q.vertices:
            assert line.contains(p) == f.apply(line).contains(map_point(f, p))
        p1, p2 = q.vertices[0], q.vertices[1]
        assert midpoint(p1, p2) == midpoint(p2, p1)
        assert map_point(f, midpoint(p1, p2)) == midpoint(map_point(f, p1), map_point(f, p2))


def test_inf_point_normalization():
    two = QQ.scalar(2)
    assert InfPoint(two, two * 2) == InfPoint(QQ.one, QQ.scalar(2))
    assert InfPoint(QQ.zero, two) == InfPoint(QQ.zero, QQ.one)
    with pytest.raises(DegenerateInput):
        InfPoint(QQ.zero, QQ.zero)


def test_vertical_line_accessors():
    l = Line.parse(QQ, "X=3")
    assert l.is_vertical
    assert str(l) == "X=3"
    l2 = Line.parse(QQ, "Y=3")
    assert not l2.is_vertical and l2.t == QQ.zero


def _meet_or_error(meet, l1, l2):
    try:
        return meet(l1, l2)
    except IdenticalLines as err:
        return ("IdenticalLines", str(err))


def test_intersect_and_midpoint_wrap_the_scalar_rule():
    """intersect and midpoint run the raw rules of plane; on every pair of
    lines and of points of GF(3), GF(5) and GF(7) they give what the Scalar
    rule gives, parallel (InfPoint) and identical (IdenticalLines) pairs
    included."""
    for p in (3, 5, 7):
        field = GF(p)
        lines = enumerate_lines(field)
        kinds = set()
        for l1 in lines:
            for l2 in lines:
                got = _meet_or_error(intersect, l1, l2)
                assert got == _meet_or_error(intersect_by_scalars, l1, l2), (l1, l2)
                kinds.add(type(got))
        assert kinds == {Point, InfPoint, tuple}
        points = [pt(x, y, field) for x in range(p) for y in range(p)]
        for a in points:
            for b in points:
                assert midpoint(a, b) == midpoint_by_scalars(a, b), (a, b)


def test_intersect_and_midpoint_over_q_heights():
    """The same on lines and points over Q with heights up to 10^6/10^3."""
    rng = Lcg64(17)

    def scalar():
        return QQ.scalar(Fraction(rng.below(2_000_001) - 1_000_000, rng.below(1000) + 1))

    for _ in range(200):
        l1 = Line(scalar(), QQ.one, scalar()) if rng.below(6) else Line(QQ.one, QQ.zero, scalar())
        l2 = Line(l1.t, l1.u, scalar()) if rng.below(6) == 0 else Line(scalar(), QQ.one, scalar())
        assert _meet_or_error(intersect, l1, l2) == _meet_or_error(intersect_by_scalars, l1, l2)
        a, b = Point(scalar(), scalar()), Point(scalar(), scalar())
        assert midpoint(a, b) == midpoint_by_scalars(a, b)
    line = Line.parse(QQ, "Y=2X+1")
    assert _meet_or_error(intersect, line, line) == ("IdenticalLines", "lines coincide")


def test_intersect_and_midpoint_refuse_mixed_fields():
    with pytest.raises(FieldMismatch):
        intersect(Line.parse(QQ, "Y=X"), Line.parse(GF(7), "Y=2X"))
    with pytest.raises(FieldMismatch):
        midpoint(pt(0, 0), pt(1, 1, GF(7)))


# Zero, ±1 and 30-digit numerators and denominators; lines in canonical form,
# vertical ones (u = 0) among them.
_INTS = st.one_of(st.sampled_from((0, 1, -1, 2)), st.integers(-10 ** 30, 10 ** 30))
_RATS = st.builds(Fraction, _INTS, st.one_of(st.just(1), st.integers(1, 10 ** 30))).map(QQ._coerce)
_POINTS = st.tuples(_RATS, _RATS)
_LINES = st.tuples(_RATS, st.one_of(st.just(QQ._coerce(0)), _RATS), _RATS).filter(
    lambda raw: raw[0] or raw[1]).map(lambda raw: Line.of(QQ, raw).raw)


def _all_rats(raw):
    return all(type(c) is _Rat for c in raw)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_LINES, _LINES, _RATS, st.sampled_from(("other", "parallel", "same")), _POINTS, _POINTS)
def test_q_meet_mid_and_join_agree_with_rational_formulas(l, m, v, kind, a, b):
    """Over Q, _meet, _mid and line_from_points run on cleared integers;
    each gives what its rational formula gives (conftest), as _Rats, on
    vertical, parallel and equal lines (_PARALLEL and _SAME), zero
    coordinates and 30-digit heights."""
    if kind == "parallel":
        m = Line.of(QQ, (*l[:2], v)).raw
    elif kind == "same":
        m = l
    got = _meet(l, m, None)
    assert got == meet_by_rats(l, m)
    assert got in (_PARALLEL, _SAME) if isinstance(got, str) else _all_rats(got)
    got = _mid(a, b, None)
    assert got == mid_by_rats(a, b) and _all_rats(got)
    assume(a != b)
    got = line_from_points(Point.of(QQ, a), Point.of(QQ, b)).raw
    assert got == line_from_points_by_rats(a, b) and _all_rats(got)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.tuples(*[_RATS] * 6), _LINES)
def test_q_map_image_agrees_with_rational_formula(entries, line):
    """AffineMap.apply over Q moves the cleared line by the adjugate of the
    cleared matrix, translation included (b != 0, which verify's linear
    maps never reach), and gives what the rational formula gives."""
    m00, m01, m10, m11, _, _ = entries
    assume(m00 * m11 != m01 * m10)
    f = AffineMap(*(QQ.scalar(c) for c in entries))
    got = f.apply(Line.of(QQ, line)).raw
    assert got == apply_by_rats(f, line) and _all_rats(got)
