import sys
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from bisectrix import (
    GF,
    AffineMap,
    AllLinesThrough,
    Bisector,
    InfPoint,
    Line,
    LinePair,
    Point,
    QQ,
    Quadrilateral,
    bisector_locus,
    bisector_through,
    is_bisector,
    is_q_pair,
    midpoint,
    nine_points,
    q_partner,
    quadratic_data,
)
from bisectrix.errors import (
    ExhaustedSampling, FieldMismatch, GeometryError, InvariantViolation, NotABisector,
    NotBisectors,
)
from bisectrix import plane
from bisectrix.field import _Rat
from bisectrix.oracle import (
    _gram, _pulled_back_gram, _raw_cross, brute_bisectors, enumerate_lines, random_quadrilateral,
    verify_all,
)
from bisectrix.pencil import Conic, center
from bisectrix.plane import _integral, _product
from conftest import (
    E1_SIDES, SPECIAL_SIDES, bisector_through_by_rats, bisector_through_by_standard_form,
    kernel_quads, make_quad, mid_cross, outcome, pulled_back_gram_by_scalars, q_pair_by_scalars,
    q_partner_by_rats, q_partner_by_standard_form, quadratic_data_by_rats, slope_product,
)
from test_oracle import bisector_field_by_definition


def pt(x, y, field=QQ):
    return Point(field.scalar(Fraction(x)), field.scalar(Fraction(y)))


def pair(field, t1, t2):
    return LinePair(Line.parse(field, t1), Line.parse(field, t2))


def test_mid_cross_examples():
    """The test-side Scalar reference of the definition."""
    l = Line.parse(QQ, "Y=0")
    assert mid_cross(l, pair(QQ, "X=0", "X=2")) == pt(1, 0)
    assert mid_cross(l, pair(QQ, "X=0", "Y=1")) == InfPoint(QQ.one, QQ.zero)
    assert mid_cross(l, pair(QQ, "Y=0", "X=1")) is None
    assert mid_cross(Line.parse(QQ, "X=5"), pair(QQ, "X=0", "X=2")) is None


def test_is_bisector_examples(e1):
    assert is_bisector(e1, Line.parse(QQ, "Y=X+1")) == pt("-1/2", "1/2")
    assert is_bisector(e1, Line.parse(QQ, "X=3")) is None
    assert is_bisector(e1, Line.parse(QQ, "Y=0")) == pt("-1/4", 0)


def test_is_bisector_rejects_a_line_of_another_field():
    q = random_quadrilateral(GF(7), 1)
    for field in (QQ, GF(11)):
        with pytest.raises(FieldMismatch):
            is_bisector(q, Line.parse(field, "Y=X+1"))


def test_bisector_rule_needs_a_crossed_pair():
    """No valid quadrilateral has a line that crosses neither opposite-side
    pair, so the raw rule reports one as a kernel bug."""
    from bisectrix.bisectors import _bisector_mid
    from bisectrix.plane import _PARALLEL, _SAME

    for p in (7, None):
        with pytest.raises(InvariantViolation):
            _bisector_mid((_SAME, _PARALLEL, _PARALLEL, _PARALLEL), p)


def test_bisector_through_examples(e1, e2):
    found = bisector_through(e1, pt("-1/2", "1/2"))
    assert found == [Bisector(Line.parse(QQ, "Y=X+1"), pt("-1/2", "1/2"))]
    found = bisector_through(e1, pt(0, 0))
    assert found == [Bisector(Line.parse(QQ, "X=0"), pt(0, 0))]
    assert bisector_through(e1, pt(5, 5)) == []
    center_result = bisector_through(e2, pt("1/2", "1/2"))
    assert center_result == AllLinesThrough(pt("1/2", "1/2"))


def _plane(field):
    coords = [field.scalar(x) for x in range(field.p)]
    return [Point(x, y) for x in coords for y in coords]


def _through_cases():
    """(q, points): every point of GF(3)^2 for every valid ordered
    quadrilateral of GF(3); every point of GF(p)^2 for p = 5, 7, 11, 13 on
    seeds 0-59 and for E1 and the special quadrilaterals at p = 7, 11; and
    over Q, for the same quadrilaterals, a grid of halves, the vertices,
    centroid, diagonal points and nine points, the midpoints of the sides
    and diagonals as bisectors with their antipodes, and points of each
    line of a split locus."""
    g3 = GF(3)
    for sides in product(enumerate_lines(g3), repeat=4):
        try:
            q = Quadrilateral(*sides)
        except GeometryError:
            continue
        yield q, _plane(g3)
    for p in (5, 7, 11, 13):
        for seed in range(60):
            try:
                yield random_quadrilateral(GF(p), seed), _plane(GF(p))
            except ExhaustedSampling:
                continue
    for field in (GF(7), GF(11), QQ):
        for sides in (E1_SIDES,) + SPECIAL_SIDES:
            q = make_quad(field, *sides)
            if field is not QQ:
                yield q, _plane(field)
                continue
            halves = [Fraction(x, 2) for x in range(-4, 5)]
            points = [pt(x, y) for x in halves for y in halves]
            points += [*q.vertices, q.centroid, *q.diagonal_points()]
            points += nine_points(q.quadrangle()) if q.proper else []
            mids = [is_bisector(q, l) for l in q.sides + q.diagonal_lines]
            c = q.centroid
            points += mids + [Point(2 * c.x - m.x, 2 * c.y - m.y) for m in mids]
            for line in bisector_locus(q).components or ():
                for x in map(QQ.scalar, range(-3, 4)):
                    points.append(Point(-line.v, x) if line.is_vertical
                                  else Point(x, line.t * x + line.v))
            yield q, [m for m in points if isinstance(m, Point)]


def test_bisector_through_equals_the_standard_form_route():
    """bisector_through, read off the pencil, against the standard-form
    route (conftest) on every point of _through_cases.  Every outcome is
    reached in GF(3) and over Q: off the locus, one bisector, the vertex
    A.A' (where grad F(m) = 0, so the bisector is normal to grad G(m)) and
    AllLinesThrough."""
    counts = {field: Counter() for field in (GF(3), QQ)}
    for q, points in _through_cases():
        vertex, seen = q.diagonal_points()[0], counts.get(q.field, Counter())
        for m in points:
            found = bisector_through(q, m)
            assert found == bisector_through_by_standard_form(q, m), (q, m)
            seen["all" if isinstance(found, AllLinesThrough) else len(found)] += 1
            seen["vertex"] += m == vertex and found != []
    gf3 = counts[GF(3)]  # 4,752 quadrilaterals, 9 points each
    assert (gf3[0], gf3[1], gf3["all"]) == (20736, 20736, 1296), gf3
    for field, seen in counts.items():
        assert all(seen[kind] for kind in (0, 1, "all", "vertex")), (field, seen)


def test_locus_e1_exact(e1):
    locus = bisector_locus(e1)
    # Y^2 - 2(X + 1/8)^2 + 1/32 expanded and normalized.
    expected = Conic(
        QQ.scalar(-2),
        QQ.zero,
        QQ.one,
        QQ.scalar(Fraction(-1, 2)),
        QQ.zero,
        QQ.zero,
    )
    assert locus.conic == expected
    assert locus.center == pt("-1/8", 0)
    assert locus.components is None
    assert center(locus.conic) == e1.centroid
    assert locus.constant == QQ.scalar(Fraction(-1, 32))


def test_locus_e2_degenerate(e2):
    locus = bisector_locus(e2)
    assert locus.components == (Line.parse(QQ, "Y=1/2"), Line.parse(QQ, "X=1/2"))
    assert Conic.from_lines(*locus.components) == locus.conic
    assert locus.center == pt("1/2", "1/2")


def test_locus_degenerate_iff_parallel_pair():
    for seed in range(40):
        q = random_quadrilateral(GF(7), seed)
        locus = bisector_locus(q)
        d1, d2 = q.diagonal_lines
        has_parallel = (
            q.a.is_parallel(q.a2) or q.b.is_parallel(q.b2) or d1.is_parallel(d2)
        )
        assert (locus.components is not None) == has_parallel
        assert locus.conic.is_degenerate() == has_parallel


def test_nine_points_e1(e1):
    locus = bisector_locus(e1)
    pts = nine_points(e1.quadrangle())
    assert len(pts) == 9
    for p in pts:
        assert locus.contains(p)
    assert all(isinstance(p, Point) for p in pts)


def test_nine_points_square(e2):
    locus = bisector_locus(e2)
    pts = nine_points(e2.quadrangle())
    infinite = [p for p in pts if isinstance(p, InfPoint)]
    assert len(infinite) == 2
    for p in pts:
        assert locus.contains(p)
    assert pt("1/2", "1/2") in pts


def q_antipodal(q, l1, l2):
    """Q-antipodal by definition: the two bisector midpoints average to the centroid."""
    return midpoint(is_bisector(q, l1), is_bisector(q, l2)) == q.centroid


def test_q_antipodal_examples(e1, e2):
    l = Line.parse(QQ, "Y=X+1")
    assert is_bisector(e1, l) == pt("-1/2", "1/2")
    assert q_antipodal(e1, l, Line.parse(QQ, "Y=2X-1"))
    # Y=X+1 has midpoint (-1/2, 1/2), not the centroid: not antipodal to itself.
    assert not q_antipodal(e1, l, l)
    assert not is_q_pair(e1, LinePair(l, l))
    midline = Line.parse(QQ, "X=1/2")
    assert q_antipodal(e2, midline, midline)
    assert is_q_pair(e2, LinePair(midline, midline))


def test_is_q_pair_examples(e1, e2):
    assert is_q_pair(e1, pair(QQ, "Y=X+1", "Y=2X-1"))
    assert not is_q_pair(e1, pair(QQ, "Y=0", "Y=X+1"))
    assert is_q_pair(e2, pair(QQ, "X=1/2", "X=1/2"))
    with pytest.raises(NotBisectors):
        is_q_pair(e1, pair(QQ, "X=3", "Y=X+1"))


def test_q_partner_examples(e1, e2):
    assert q_partner(e1, Line.parse(QQ, "Y=X+1")) == Line.parse(QQ, "Y=2X-1")
    assert q_partner(e1, Line.parse(QQ, "Y=0")) == Line.parse(QQ, "X=0")
    assert q_partner(e1, Line.parse(QQ, "X=0")) == Line.parse(QQ, "Y=0")
    # Parallelogram: the diagonal pairs with the other diagonal, the midline
    # with itself.
    assert q_partner(e2, Line.parse(QQ, "Y=X")) == Line.parse(QQ, "Y=-X+1")
    assert q_partner(e2, Line.parse(QQ, "X=1/2")) == Line.parse(QQ, "X=1/2")
    with pytest.raises(NotABisector):
        q_partner(e1, Line.parse(QQ, "X=3"))


def test_q_partner_is_involution():
    for seed in range(15):
        q = random_quadrilateral(GF(7), seed)
        for b in brute_bisectors(q):
            partner = q_partner(q, b.line)
            assert q_partner(q, partner) == b.line
            assert is_q_pair(q, LinePair(b.line, partner))


def _partner_cases():
    """(q, its bisectors in sort order): every bisector, exhaustive, over
    GF(3), GF(5), GF(7), GF(11) and GF(13) seeds 0-59 and GF(101) seeds
    1-3, the sides and diagonals over Q seeds 0-39, and SPECIAL_SIDES in
    each of these fields."""
    exhaustive = [(GF(p), seed) for p in (3, 5, 7, 11, 13) for seed in range(60)]
    exhaustive += [(GF(101), seed) for seed in (1, 2, 3)]
    quads = []
    for field, seed in exhaustive:
        try:
            quads.append(random_quadrilateral(field, seed))
        except ExhaustedSampling:
            continue
    quads += [random_quadrilateral(QQ, seed) for seed in range(40)]
    for field in (QQ, GF(3), GF(5), GF(7), GF(11), GF(13), GF(101)):
        for sides in SPECIAL_SIDES:
            try:
                quads.append(make_quad(field, *sides))
            except GeometryError:
                continue
    for q in quads:
        if q.field is QQ:
            yield q, list(dict.fromkeys(q.sides + q.diagonal_lines))
        else:
            yield q, sorted({b.line for b in brute_bisectors(q)}, key=Line.sort_key)


def test_q_partner_and_is_q_pair_equal_the_standard_form_route():
    """The closed form of q_partner against the standard-form route, and the
    raw is_q_pair against its Scalar form on each Q-pair, on each bisector
    paired with the next one (mostly not a Q-pair), and with a line that
    does not bisect."""
    counts = {"vertical": 0, "centroid": 0, "non-pairs": 0}
    for q, lines in _partner_cases():
        field = q.field
        for i, line in enumerate(lines):
            partner = q_partner(q, line)
            assert partner == q_partner_by_standard_form(q, line), (q, line)
            counts["vertical"] += line.is_vertical
            counts["centroid"] += is_bisector(q, line) == q.centroid
            for pair in (LinePair(line, partner), LinePair(line, lines[(i + 1) % len(lines)])):
                assert is_q_pair(q, pair) == q_pair_by_scalars(q, pair), (q, pair)
                counts["non-pairs"] += not is_q_pair(q, pair)
        off = next(l for l in (Line.parse(field, f"{text}{c}")
                               for text in ("X=", "Y=X+", "Y=2X+") for c in range(9))
                   if is_bisector(q, l) is None)
        with pytest.raises(NotBisectors):
            is_q_pair(q, LinePair(lines[0], off))
        with pytest.raises(NotABisector):
            q_partner(q, off)
    assert all(counts.values()), counts


# Coefficients of three kinds: Q with small literals, Q with the heights of
# the benchmark's queries (numerators up to 10^6, denominators up to 10^3),
# and GF(7) and GF(101).
_COEFFS = {
    "Q small": (QQ, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))),
    "Q query": (QQ, st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 3))),
    "GF(7)": (GF(7), st.integers(0, 6)),
    "GF(101)": (GF(101), st.integers(0, 100)),
}


@st.composite
def _routes_case(draw):
    """A valid quadrilateral, an invertible linear map, a point and a line,
    all over one field of _COEFFS."""
    field, coeff = _COEFFS[draw(st.sampled_from(sorted(_COEFFS)))]

    def scalar():
        return field.scalar(draw(coeff))

    lines = []
    while len(lines) < 5:
        t, u, v = scalar(), scalar() if draw(st.booleans()) else field.one, scalar()
        if not (t.is_zero() and u.is_zero()):
            lines.append(Line(t, u, v))
    try:
        q = Quadrilateral(*lines[:4])
    except GeometryError:
        return draw(st.nothing())
    entries = [scalar() for _ in range(4)]
    if (entries[0] * entries[3] - entries[1] * entries[2]).is_zero():
        entries = [field.one, field.zero, field.zero, field.one]
    return q, AffineMap.linear(*entries), Point(scalar(), scalar()), lines[4]


def _multiple(new, old, p):
    """Whether the raw tuple new is a nonzero multiple of the Scalars old,
    or both vanish; over GF(p), where _integral is the identity, equal."""
    old = [x.value for x in old]
    if p:
        return [x % p for x in new] == old
    return not any(_raw_cross(new, old, None)) and any(new) == any(old)


def _outcome(route, *args):
    try:
        return route(*args)
    except NotABisector as err:
        return str(err)


def _special_case(sides, line):
    """One of conftest's SPECIAL_SIDES over Q as a _routes_case."""
    point = Point(QQ.one, QQ.one)
    return make_quad(QQ, *sides), AffineMap.identity(QQ), point, Line.parse(QQ, line)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_routes_case())
@example(case=_special_case(SPECIAL_SIDES[0], "Y=1/2"))
@example(case=_special_case(SPECIAL_SIDES[1], "Y=X"))
@example(case=_special_case(SPECIAL_SIDES[2], "X=1/2"))
@example(case=_special_case(SPECIAL_SIDES[3], "X=1/2"))
def test_integral_routes_equal_the_rational_routes(case):
    """quadratic_data, q_partner and bisector_through, which over Q run on
    plane._integral tuples, give what their _Rat routes (conftest) give: at
    the midpoints of the sides and diagonals, at the centroid, at a drawn
    point and line, and on the partners.  affine_invariance's Gram entries
    are nonzero multiples of the Scalar ones (equal over GF(p)), so its
    nonzero and proportionality tests decide alike."""
    q, f, point, line = case
    p = q.field.p
    d = quadratic_data(q)
    assert d == quadratic_data_by_rats(q)
    lines = list(dict.fromkeys(q.sides + q.diagonal_lines))
    for l in lines + [line]:
        partner = _outcome(q_partner, q, l)
        assert partner == _outcome(q_partner_by_rats, q, l), (q, l)
        if isinstance(partner, Line):
            assert p or all(type(c) is _Rat for c in partner.raw)
            assert q_partner(q, partner) == q_partner_by_rats(q, partner)
    points = [is_bisector(q, l) for l in lines] + [q.centroid, point]
    for m in points:
        found = bisector_through(q, m)
        assert found == bisector_through_by_rats(q, m), (q, m)
        assert p or not isinstance(found, list) or all(
            type(c) is _Rat for b in found for c in b.line.raw)
    image = quadratic_data(q.transform(f))
    assert _multiple(_gram(d, p), (d.gamma, -d.beta, d.alpha), p)
    for form in (image, d):
        assert _multiple(_pulled_back_gram(_gram(form, p), f, p),
                         pulled_back_gram_by_scalars(form, f), p)


def test_bisectors_share_midpoint_iff_parallelogram():
    for seed in range(25):
        q = random_quadrilateral(GF(5), seed)
        by_mid = {}
        for b in brute_bisectors(q):
            by_mid.setdefault(b.midpoint, []).append(b.line)
        shared = {m for m, lines in by_mid.items() if len(lines) > 1}
        if q.has_parallelogram_vertices():
            assert shared == {q.centroid}
        else:
            assert not shared


def test_locus_is_midpoint_set_gf7():
    g7 = GF(7)
    points = [Point(g7.scalar(x), g7.scalar(y)) for x in range(7) for y in range(7)]
    for seed in range(10):
        q = random_quadrilateral(g7, seed)
        locus = bisector_locus(q)
        midpoints = {b.midpoint for b in brute_bisectors(q)}
        zero_set = {p for p in points if locus.conic.contains(p)}
        assert midpoints == zero_set


def test_same_mu_centroid_same_bisectors():
    """Standard-form quadrilaterals with equal coefficient and centroid have
    equal bisector sets."""
    from bisectrix import Quadrilateral
    from bisectrix.errors import GeometryError

    g7 = GF(7)
    axis_a = Line.parse(g7, "Y=0")
    axis_a2 = Line.parse(g7, "X=0")
    found = {}
    for tb in range(1, 7):
        for vb in range(7):
            for tb2 in range(1, 7):
                for vb2 in range(7):
                    try:
                        quad = Quadrilateral(
                            axis_a,
                            Line(g7.scalar(tb), g7.one, g7.scalar(vb)),
                            axis_a2,
                            Line(g7.scalar(tb2), g7.one, g7.scalar(vb2)),
                        )
                    except GeometryError:
                        continue
                    found.setdefault((slope_product(quad), quad.centroid), []).append(quad)
    multi = [quads for quads in found.values() if len(quads) >= 2]
    assert multi, "expected standard-form quadrilaterals sharing (mu, centroid)"
    checked = 0
    for quads in multi[:5]:
        reference = {(b.line, b.midpoint) for b in brute_bisectors(quads[0])}
        for other in quads[1:3]:
            assert {(b.line, b.midpoint) for b in brute_bisectors(other)} == reference
            checked += 1
    assert checked


def test_bisector_field_check_e1(e1):
    d1, d2 = e1.diagonal_lines
    pairs = [
        LinePair(e1.a, e1.a2),
        LinePair(e1.b, e1.b2),
        LinePair(d1, d2),
    ]
    assert bisector_field_by_definition(e1, pairs) == (6, [])
    # The sides and diagonals pair up with their Q-partners into these pairs.
    report = {r.tag: r for r in verify_all(e1, "fixture")}["bisector_field"]
    assert (report.instances, report.violations) == (6, [])


def test_bisector_field_check_gf7():
    for seed in (3, 4, 5):
        q = random_quadrilateral(GF(7), seed)
        pairs = []
        seen = set()
        for b in brute_bisectors(q):
            p = LinePair(b.line, q_partner(q, b.line))
            if p not in seen:
                seen.add(p)
                pairs.append(p)
        checked, violations = bisector_field_by_definition(q, pairs)
        assert checked == len({b.line for b in brute_bisectors(q)})
        assert violations == []
        report = {r.tag: r for r in verify_all(q, "exhaustive")}["bisector_field"]
        assert (report.instances, report.violations) == (checked, [])


def test_bisector_field_check_corrupted_pair(e1):
    pairs = [
        LinePair(e1.a, e1.a2),
        LinePair(e1.b, Line.parse(QQ, "X=3")),
    ]
    checked, violations = bisector_field_by_definition(e1, pairs)
    assert checked == 4
    assert any("not a bisector" in v for v in violations)


def _kernel_probes(q):
    """Lines and points to ask q_partner and bisector_through about: every
    bisector and its midpoint (the brute sweep over GF(p); over Q the
    bisectors through the midpoints of the six vertex pairs, with the sides
    and diagonals), non-bisectors, the vertices and the centroid."""
    field = q.field
    if field.p:
        found = list(brute_bisectors(q))
        lines = [b.line for b in found] + enumerate_lines(field)[:6]
    else:
        v = q.vertices
        mids = [midpoint(a, b) for i, a in enumerate(v) for b in v[i + 1:] if a != b]
        found = [b for m in mids for b in bisector_through(q, m) if isinstance(b, Bisector)]
        lines = [b.line for b in found] + list(q.sides) + list(q.diagonal_lines)
        lines += [Line.parse(QQ, text) for text in ("X=3", "Y=2X+5")]
    return lines, [b.midpoint for b in found] + list(q.vertices) + [q.centroid]


def test_side_product_memo_keeps_partner_and_bisector_through():
    """q_partner and bisector_through answer alike, errors included, with the
    side-product memo empty before each call and once it is filled, and the
    memo holds the products of the _integral sides."""
    asked = 0
    for q in kernel_quads():
        lines, points = _kernel_probes(q)
        calls = [(q_partner, l) for l in lines] + [(bisector_through, m) for m in points]
        cold = []
        for fn, arg in calls:
            object.__setattr__(q, "_pencil", None)
            cold.append(outcome(fn, q, arg))
        assert q._pencil is not None
        assert [outcome(fn, q, arg) for fn, arg in calls] == cold
        sides = [_integral(l.raw, q.field.p) for l in (q.a, q.a2, q.b, q.b2)]
        assert q._pencil == (_product(*sides[:2]), _product(*sides[2:]))
        asked += len(calls)
    assert asked > 2000


def test_side_products_run_twice_per_quadrilateral(monkeypatch):
    """However often q_partner and bisector_through are asked, the side
    products (plane._product) are multiplied out at most twice per
    quadrilateral."""
    calls = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "bisectrix"]
    original = plane._product

    def counted(l, m):
        calls[current] += 1
        return original(l, m)

    for module in modules:
        if getattr(module, "_product", None) is original:
            monkeypatch.setattr(module, "_product", counted)
    for current, q in enumerate(kernel_quads()):
        lines, points = _kernel_probes(q)
        for _ in range(2):
            for l in lines:
                outcome(q_partner, q, l)
            for m in points:
                outcome(bisector_through, q, m)
        assert calls[current] <= 2, (q, calls[current])
