from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisectrix import (
    GF,
    Conic,
    ConicClass,
    InfPoint,
    Line,
    LinePair,
    Point,
    QQ,
    center,
    classify,
    degenerations,
    is_q_pair,
    lambda_q,
    pencil_of,
    phi,
    q_partner,
    quadratic_data,
)
from bisectrix.errors import DegenerateInput, FieldMismatch
from bisectrix.oracle import _p1, brute_bisectors, enumerate_lines, random_quadrilateral
from bisectrix.pencil import ParallelFamily
from conftest import (
    conic_contains_by_scalars, conjugate_by_scalars, degenerations_by_scalars, in_pencil,
    is_degenerate_by_scalars, kernel_quads, outcome, pair_at_offset_by_scalars, phi_by_scalars,
    typed,
)


def conic(field, *values):
    return Conic(*(field.scalar(Fraction(v)) for v in values))


def pt(x, y, field=QQ):
    return Point(field.scalar(Fraction(x)), field.scalar(Fraction(y)))


def ip(x, y, field=QQ):
    return InfPoint(field.scalar(Fraction(x)), field.scalar(Fraction(y)))


def test_pencil_generators_e1(e1):
    pen = pencil_of(e1)
    assert pen.f1 == conic(QQ, 0, 1, 0, 0, 0, 0)  # X*Y
    # (X - Y + 1)(2X - Y - 1) = 2X^2 - 3XY + Y^2 + X - 1, normalized.
    assert pen.f2 == conic(QQ, 1, "-3/2", "1/2", "1/2", 0, "-1/2")


def test_pencil_members_vanish_at_vertices(e1):
    pen = pencil_of(e1)
    member = pen.member(QQ.one, QQ.one)
    for v in e1.vertices:
        assert member.contains(v)
    with pytest.raises(DegenerateInput):
        pen.member(QQ.zero, QQ.zero)


# Coefficients over Q (small literals, where zeros are common, and the
# heights of the benchmark's queries), GF(7) and GF(101).
_CONTAINS_COEFFS = {
    "Q": (QQ, st.one_of(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
                        st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                                  st.integers(1, 10 ** 3)))),
    "GF(7)": (GF(7), st.integers(0, 6)),
    "GF(101)": (GF(101), st.integers(0, 100)),
}


@st.composite
def _contains_case(draw):
    """A conic and a Point or an InfPoint of one field of _CONTAINS_COEFFS;
    half the time the conic is drawn through the point."""
    field, coeff = _CONTAINS_COEFFS[draw(st.sampled_from(sorted(_CONTAINS_COEFFS)))]
    a, b, c, d, e, f, x, y = (field.scalar(draw(coeff)) for _ in range(8))
    through = draw(st.booleans())
    if draw(st.booleans()):
        point = Point(x, y)
        if through:
            f = -(a * x * x + b * x * y + c * y * y + d * x + e * y)
    else:
        point = InfPoint(x, y) if x or y else InfPoint(field.one, y)
        x, y = point.x, point.y
        if through and y:
            c = -(a * x * x + b * x * y) / (y * y)
        elif through:
            a = -(b * x * y + c * y * y) / (x * x)
    if not (a or b or c):
        return draw(st.nothing())
    return Conic(a, b, c, d, e, f), point


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_contains_case())
@example(case=(conic(QQ, 1, 0, -4, 1, 1, 1), InfPoint(QQ.one, QQ.scalar(Fraction(1, 2)))))
@example(case=(conic(QQ, 1, 0, -4, 1, 1, 1), InfPoint(QQ.one, QQ.scalar(Fraction(1, 3)))))
@example(case=(conic(QQ, "1/2", 0, 0, 0, "-1/3", "1/9"), pt("2/3", "3/2")))
@example(case=(conic(GF(7), 1, 0, 3, 0, 0, 0), InfPoint(GF(7).scalar(2), GF(7).one)))
def test_contains_equals_the_scalar_route(case):
    """Conic.contains, one homogeneous evaluation on ints, decides as the
    Scalar evaluation (conftest) does, at Points and at InfPoints, over Q,
    GF(7) and GF(101)."""
    c, point = case
    assert c.contains(point) == conic_contains_by_scalars(c, point)


def test_contains_refuses_a_point_of_another_field():
    with pytest.raises(FieldMismatch):
        conic(QQ, 1, 0, 1, 0, 0, -1).contains(pt(1, 0, GF(7)))
    with pytest.raises(FieldMismatch):
        conic(GF(7), 1, 0, 1, 0, 0, -1).contains(InfPoint(QQ.one, QQ.zero))


def test_improper_pencil_tangent_at_double_vertex(improper):
    """Members are tangent to the odd concurrent side at the double vertex:
    restricting to that side gives a double root there."""
    pen = pencil_of(improper)
    # improper has A, B, A' through the origin; B is Y=X, parameterized (s, s).
    for alpha, beta in ((1, 1), (1, -1), (2, 3)):
        member = pen.member(QQ.scalar(alpha), QQ.scalar(beta))
        # member(s, s) = c2*s^2 + c1*s + c0
        c2 = member.a + member.b + member.c
        c1 = member.d + member.e
        c0 = member.f
        assert c1.is_zero() and c0.is_zero()
        assert not c2.is_zero()


def test_classify_degenerate_pair():
    xy = conic(QQ, 0, 1, 0, 0, 0, 0)
    result = classify(xy)
    assert result.kind == "degenerate_pair"
    assert result.pair == LinePair(Line.parse(QQ, "X=0"), Line.parse(QQ, "Y=0"))
    # Every pair of lines: crossing with A != 0 or A = 0, parallel, double.
    for field in (GF(5), GF(7)):
        lines = enumerate_lines(field)
        for i, l1 in enumerate(lines):
            for l2 in lines[i:]:
                assert classify(Conic.from_lines(l1, l2)).pair == LinePair(l1, l2)


def test_classify_field_dependent():
    c_q = conic(QQ, -2, 0, 1, 0, 0, 1)  # Y^2 - 2X^2 + 1
    assert classify(c_q).kind == "ellipse"
    g7 = GF(7)
    c_7 = conic(g7, -2, 0, 1, 0, 0, 1)
    assert classify(c_7).kind == "hyperbola"


def test_classify_irreducible_over_k():
    g3 = GF(3)
    c = conic(g3, 1, 0, 1, 0, 0, 0)  # X^2 + Y^2 over GF(3)
    assert c.is_degenerate()
    assert classify(c).kind == "degenerate_irreducible"


def test_classify_parabola_and_double_line():
    parabola = conic(QQ, 1, 0, 0, 0, -1, 0)  # X^2 - Y
    assert classify(parabola).kind == "parabola"
    double = conic(QQ, 1, 0, 0, 0, 0, 0)  # X^2
    result = classify(double)
    assert result.kind == "degenerate_pair"
    assert result.pair == LinePair(Line.parse(QQ, "X=0"), Line.parse(QQ, "X=0"))


def test_classify_parallel_pair_needs_a_square_offset():
    """A parallel-pair conic L^2 - r^2 splits over k exactly when r^2 is a
    square: the offset of its family's midline, for t = 1 and t = 2."""
    for c in (conic(QQ, 1, 0, 0, 0, 0, -2), conic(GF(7), 1, 0, 0, 0, 0, -3),
              conic(QQ, 4, -4, 1, 0, 0, -2)):  # X^2 - 2, X^2 - 3, (2X - Y)^2 - 2
        assert c.is_degenerate()
        assert classify(c) == ConicClass("degenerate_irreducible")
    for c, lines in ((conic(QQ, 1, 0, 0, 0, 0, -4), ("X=2", "X=-2")),
                     (conic(QQ, 4, -4, 1, 0, 0, -4), ("Y=2X+2", "Y=2X-2"))):
        result = classify(c)
        assert result.kind == "degenerate_pair"
        assert result.pair == LinePair(*(Line.parse(QQ, text) for text in lines))


def test_degenerations_hyperbola_gf7():
    g7 = GF(7)
    c = conic(g7, -2, 0, 1, 0, 0, "1/32")  # Y^2 - 2X^2 + 1/32 mod 7
    report = degenerations(c)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.pair == LinePair(Line.parse(g7, "Y=4X"), Line.parse(g7, "Y=3X"))
    assert c.shift(entry.lam).is_degenerate()


def test_degenerations_xy_plus_one():
    c = conic(QQ, 0, 1, 0, 0, 0, 1)  # XY + 1
    report = degenerations(c)
    assert len(report.entries) == 1
    entry = report.entries[0]
    assert entry.lam == QQ.scalar(-1)
    assert entry.pair == LinePair(Line.parse(QQ, "X=0"), Line.parse(QQ, "Y=0"))


def test_degenerations_parallel_family():
    c = conic(QQ, 1, 0, 0, 0, 0, -1)  # X^2 - 1
    report = degenerations(c)
    assert not report.entries
    family = report.family
    assert family is not None
    assert family.midline == Line.parse(QQ, "X=0")
    base = family.pair_at_offset(QQ.zero)
    assert base.pair == LinePair(Line.parse(QQ, "X=0"), Line.parse(QQ, "X=0"))
    assert base.lam == QQ.one
    for r in (1, 2, 3):
        deg = family.pair_at_offset(QQ.scalar(r))
        assert deg.pair == LinePair(
            Line.parse(QQ, f"X={r}"), Line.parse(QQ, f"X={-r}")
        )
        assert c.shift(deg.lam) == Conic.from_lines(*deg.pair.lines)


def test_degenerations_absent_over_q():
    c = conic(QQ, -2, 0, 1, 0, 0, 1)  # asymptotes need sqrt(2)
    report = degenerations(c)
    assert not report.entries
    assert report.family is None
    assert report.absent_witness == c.leading_discriminant()
    assert report.absent_witness.sqrt() is None


def test_degenerations_witness_builds_no_shifted_conic(monkeypatch):
    """A pencil member whose asymptotes need a square root is answered by
    its witness alone, without shifting the conic."""

    def refuse(self, lam):
        raise AssertionError("degenerations shifted a conic")

    monkeypatch.setattr(Conic, "shift", refuse)
    absent = 0
    for seed in range(30):
        pen = pencil_of(random_quadrilateral(QQ, seed))
        for beta in range(1, 8):
            member = pen.member(QQ.one, QQ.scalar(beta))
            disc = member.leading_discriminant()
            if disc.is_zero() or disc.sqrt() is not None:
                continue
            report = degenerations(member)
            assert report.entries == () and report.family is None
            assert report.absent_witness == disc
            absent += 1
    assert absent > 100


def test_degenerations_ellipse_parabola_empty():
    ellipse = conic(QQ, 1, 0, 1, 0, 0, -1)
    parabola = conic(QQ, 1, 0, 0, 0, -1, 0)
    assert degenerations(parabola).entries == ()
    assert degenerations(parabola).family is None
    report = degenerations(ellipse)
    assert not report.entries and report.absent_witness is not None


def test_in_span_examples(e1):
    pen = pencil_of(e1)
    assert in_pencil(e1, LinePair(e1.a, e1.a2))
    assert in_pencil(e1, LinePair(e1.b, e1.b2))
    assert not in_pencil(e1, LinePair(Line.parse(QQ, "X=3"), Line.parse(QQ, "Y=5")))
    member = pen.member(QQ.one, QQ.scalar(3))
    report = degenerations(member)
    for entry in report.entries:
        assert in_pencil(e1, entry.pair)


def test_in_span_matches_vertex_values_gf7():
    """No three vertices of a proper quadrilateral are collinear, so the
    conics through all four form the pencil, and a line pair belongs to it
    up to a constant exactly when its product is constant on the vertices:
    a definition of the oracle's span test independent of its algebra."""
    g7 = GF(7)
    lines = enumerate_lines(g7)
    checked = 0
    for seed in range(10):
        q = random_quadrilateral(g7, seed)
        if not q.proper:
            continue
        forms = [[l.t * v.x - l.u * v.y + l.v for v in q.vertices] for l in lines]
        for i, l1 in enumerate(lines):
            for j in range(i, len(lines)):
                values = {x * y for x, y in zip(forms[i], forms[j])}
                member = in_pencil(q, LinePair(l1, lines[j]))
                assert member == (len(values) == 1), (seed, l1, lines[j])
                checked += member
    assert checked > 0


def test_center_examples(e1):
    circle = conic(QQ, 1, 0, 1, 0, 0, -1)
    assert center(circle) == pt(0, 0)
    parabola = conic(QQ, 1, 0, 0, 0, -1, 0)
    assert center(parabola) is None
    from bisectrix import bisector_locus

    assert center(bisector_locus(e1).conic) == e1.centroid


def test_degenerations_are_q_pairs_gf7():
    g7 = GF(7)
    central = 0
    for seed in range(12):
        q = random_quadrilateral(g7, seed)
        pen = pencil_of(q)
        members = [pen.member(g7.one, g7.scalar(t)) for t in range(7)]
        members.append(pen.member(g7.zero, g7.one))
        for member in members:
            report = degenerations(member)
            entries = list(report.entries)
            central += len(entries)
            if report.family is not None:
                entries.extend(
                    report.family.pair_at_offset(g7.scalar(r)) for r in range(4)
                )
            for entry in entries:
                assert is_q_pair(q, entry.pair)
                assert member.shift(entry.lam) == Conic.from_lines(*entry.pair.lines)
    assert central > 0


def test_bisector_partner_pairs_are_degenerations_gf7():
    g7 = GF(7)
    for seed in range(8):
        q = random_quadrilateral(g7, seed)
        for b in brute_bisectors(q):
            partner = q_partner(q, b.line)
            assert in_pencil(q, LinePair(b.line, partner))


def test_pencil_member_centers_on_locus(e1):
    from bisectrix import bisector_locus

    locus = bisector_locus(e1)
    pen = pencil_of(e1)
    for alpha, beta in ((1, 1), (1, -1), (2, 1), (1, 5), (3, -2)):
        member = pen.member(QQ.scalar(alpha), QQ.scalar(beta))
        if member.is_degenerate():
            continue
        ctr = center(member)
        if ctr is not None:
            assert locus.conic.contains(ctr)


def test_opposite_pair_centers_are_diagonal_points(e1):
    pen = pencil_of(e1)
    dps = e1.diagonal_points()
    assert center(pen.f1) == dps[0]
    assert center(pen.f2) == dps[1]


def test_conic_string_and_normalization():
    c = conic(QQ, 2, -3, 1, 1, 0, -1)
    assert c == conic(QQ, 1, "-3/2", "1/2", "1/2", 0, "-1/2")
    assert str(c) == "X^2 - 3/2*X*Y + 1/2*Y^2 + 1/2*X - 1/2"
    with pytest.raises(DegenerateInput):
        conic(QQ, 0, 0, 0, 1, 1, 1)


def test_classify_parallel_pair_non_unit_slope():
    # Double-direction branch with canonical midline Y=2X-1, whose t = 2
    # rescales the constant term when the conic is split.
    for field, far in ((QQ, "Y=2X-3"), (GF(7), "Y=2X+4")):
        l1, l2 = Line.parse(field, "Y=2X+1"), Line.parse(field, "Y=2X-3")
        assert str(l2) == far
        result = classify(Conic.from_lines(l1, l2))
        assert result.kind == "degenerate_pair"
        assert result.pair == LinePair(l1, l2)
        assert str(result.pair) == ("{Y=2X-3, Y=2X+1}" if field is QQ else "{Y=2X+1, Y=2X+4}")


def _degeneration(entry):
    return typed(entry.lam), entry.pair


def test_raw_kernel_equals_the_scalar_routes():
    """phi, Involution.conjugate and fixes, Conic.is_degenerate,
    degenerations and ParallelFamily.pair_at_offset, which run on raw
    values, against their Scalar routes in conftest: at every P1 direction
    and on every pencil member over GF(p) (a sample over Q), of quadrilaterals
    of every family.  Results are compared with the class of each Scalar and
    of its raw value; errors by type and text, a field mismatch and a
    midline that does not split the conic included."""
    seen = Counter()
    for q in kernel_quads():
        field = q.field
        p = field.p
        d = quadratic_data(q)
        inv = lambda_q(d)
        if p:
            directions = [InfPoint.of(field, xy) for xy in _p1(field)]
            coeffs = _p1(field)
            offsets = [field.scalar(r) for r in range(p)]
        else:
            directions = [ip(*xy) for xy in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 3), (3, -5))]
            directions += [l.infinite_point() for pair in q.line_pairs for l in pair]
            coeffs = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 3), (-3, 7))
            offsets = [QQ.scalar(Fraction(r)) for r in (0, 1, "1/2", -3)]
        stranger = GF(5) if p is None else QQ
        alien = ip(1, 2, stranger)
        partners = directions if p is None or p < 100 else directions[:4]
        for point in directions:
            for v in ((point.x, point.y), (point.x + 1, 2 * point.y), (point.x, stranger.one),
                      (stranger.one, point.y)):
                new = outcome(phi, d, *v, key=typed)
                assert new == outcome(phi_by_scalars, d, *v, key=typed)
                seen["phi " + new[0]] += 1
            assert inv.fixes(point) == conjugate_by_scalars(inv, point, point)
            for other in partners + [alien]:
                new = outcome(inv.conjugate, point, other)
                assert new == outcome(conjugate_by_scalars, inv, point, other)
                seen["conjugate " + str(new[1] if new[0] == "returns" else new[0])] += 1
        assert outcome(inv.conjugate, alien, alien) == outcome(
            conjugate_by_scalars, inv, alien, alien)
        pen = pencil_of(q)
        for alpha, beta in coeffs:
            member = pen.member(field.scalar(alpha), field.scalar(beta))
            assert member.is_degenerate() == is_degenerate_by_scalars(member)
            seen[f"degenerate {member.is_degenerate()}"] += 1
            new, ref = degenerations(member), degenerations_by_scalars(member)
            assert [_degeneration(e) for e in new.entries] == [
                _degeneration(e) for e in ref.entries]
            assert (new.family, typed(new.absent_witness)) == (
                ref.family, typed(ref.absent_witness))
            seen["entry" if new.entries else "family" if new.family
                 else "witness" if new.absent_witness else "none"] += 1
            if new.family is None:
                continue
            for family in (new.family, ParallelFamily(member, q.a), ParallelFamily(member, q.b)):
                for r in offsets:
                    got = outcome(family.pair_at_offset, r, key=_degeneration)
                    assert got == outcome(pair_at_offset_by_scalars, family, r, key=_degeneration)
                    seen["pair_at_offset " + got[0]] += 1
    assert all(seen[k] for k in (
        "phi returns", "phi raises", "conjugate True", "conjugate False", "conjugate raises", "degenerate True", "degenerate False", "entry", "family", "witness",
        "none", "pair_at_offset returns", "pair_at_offset raises")), seen


def test_degenerations_and_pair_at_offset_never_shift_a_conic(monkeypatch):
    """degenerations and ParallelFamily.pair_at_offset decide on raw
    coefficients: on every pencil member of quadrilaterals of every family
    over GF(p), and at every offset of each parallel family, neither builds a
    shifted conic."""

    def refuse(self, lam):
        raise AssertionError("a conic was shifted")

    monkeypatch.setattr(Conic, "shift", refuse)
    kinds = Counter()
    for q in kernel_quads():
        field = q.field
        if not field.p:
            continue
        pen = pencil_of(q)
        for alpha, beta in _p1(field):
            report = degenerations(pen.member(field.scalar(alpha), field.scalar(beta)))
            kinds["entry" if report.entries else "family" if report.family else "other"] += 1
            if report.family is not None:
                for r in range(field.p):
                    report.family.pair_at_offset(field.scalar(r))
    assert kinds["entry"] and kinds["family"] and kinds["other"]
