from fractions import Fraction
from itertools import permutations

import pytest

from bisectrix import (
    GF,
    AffineMap,
    InfPoint,
    Line,
    Point,
    QQ,
    Quadrangle,
    Quadrilateral,
    intersect,
    line_from_points,
    midpoint,
    requadrilate,
    standard_form,
)
from bisectrix.errors import (
    AdjacentParallel,
    Concurrent4Lines,
    DegenerateInput,
    DuplicateLine,
    FieldMismatch,
    GeometryError,
)
from bisectrix.oracle import Lcg64, enumerate_lines, random_line, random_quadrilateral
from conftest import (
    make_quad, map_point, quadrilateral_by_scalars, slope_product, standard_by_transform,
)


def pt(x, y, field=QQ):
    return Point(field.scalar(Fraction(x)), field.scalar(Fraction(y)))


def test_e1_vertices_and_centroid(e1):
    assert e1.vertices == (pt(-1, 0), pt(0, 1), pt(0, -1), pt("1/2", 0))
    assert e1.centroid == pt("-1/8", 0)
    assert e1.proper


def test_validation_errors():
    with pytest.raises(AdjacentParallel):
        make_quad(QQ, "Y=0", "Y=1", "X=0", "Y=X")
    with pytest.raises(DuplicateLine):
        make_quad(QQ, "Y=0", "Y=X", "Y=0", "Y=2X")
    with pytest.raises(Concurrent4Lines):
        make_quad(QQ, "Y=0", "Y=X", "X=0", "Y=2X")


def test_centroid_examples(e1, e2):
    assert e2.centroid == pt("1/2", "1/2")
    shift = AffineMap(QQ.one, QQ.zero, QQ.zero, QQ.one, QQ.one, QQ.zero)
    assert e1.transform(shift).centroid == pt("7/8", 0)


def test_centroid_equals_pair_midpoints(e1, e2, improper):
    for q in (e1, e2, improper):
        v0, v1, v2, v3 = q.vertices
        assert q.centroid == midpoint(midpoint(v0, v3), midpoint(v1, v2))
        assert q.centroid == midpoint(midpoint(v0, v1), midpoint(v2, v3))
        assert q.centroid == midpoint(midpoint(v0, v2), midpoint(v1, v3))


def test_diagonals(e1, e2, improper):
    assert e1.diagonal_lines == (Line.parse(QQ, "Y=-X-1"), Line.parse(QQ, "Y=-2X+1"))
    assert e2.diagonal_lines == (Line.parse(QQ, "Y=X"), Line.parse(QQ, "Y=-X+1"))
    # Improper: the diagonals are the opposite sides through the double vertex.
    assert set(improper.diagonal_lines) == {improper.a, improper.a2}


def test_diagonal_points(e1, e2):
    assert e1.diagonal_points() == (pt(0, 0), pt(2, 3), pt(2, -3))
    dps = e2.diagonal_points()
    assert dps[0] == InfPoint(QQ.one, QQ.zero)
    assert dps[1] == InfPoint(QQ.zero, QQ.one)
    assert dps[2] == pt("1/2", "1/2")
    infinite = [p for p in dps if isinstance(p, InfPoint)]
    assert len(infinite) == 2


def test_improper_flags(improper):
    assert not improper.proper
    assert improper.double_vertex == pt(0, 0)
    with pytest.raises(DegenerateInput):
        improper.quadrangle()


def test_improper_diagonal_points_keep_multiplicity(improper):
    # The diagonals coincide with A and A', so the diagonal intersection
    # repeats A.A'; multiplicities are reported, not deduplicated.
    dps = improper.diagonal_points()
    assert dps[0] == pt(0, 0)
    assert dps[2] == dps[0]


def test_requadrilate_contains_original(e1):
    results = requadrilate(e1.quadrangle())
    assert results[0] == e1
    valid = [r for r in results if isinstance(r, Quadrilateral)]
    assert len(valid) == 3
    for other in valid:
        assert set(other.vertices) == set(e1.vertices)


def test_requadrilate_square_uses_diagonals(e2):
    results = requadrilate(e2.quadrangle())
    diagonals = set(e2.diagonal_lines)
    for other in results[1:]:
        assert isinstance(other, Quadrilateral)
        assert not other.is_parallelogram()
        assert diagonals <= set(other.sides)


def test_requadrilate_collinear_flagged():
    qr = Quadrangle(pt(0, 0), pt(1, 0), pt(2, 0), pt(0, 1))
    results = requadrilate(qr)
    assert any(isinstance(r, GeometryError) for r in results)


def test_standard_form_e1(e1):
    f, mu = standard_form(e1)
    assert f == AffineMap.identity(QQ)
    assert standard_by_transform(e1, f) == [e1]
    assert mu == QQ.scalar(2)
    assert slope_product(e1) == QQ.scalar(2)


def test_standard_form_translated(e1):
    shift = AffineMap(QQ.one, QQ.zero, QQ.zero, QQ.one, QQ.one, QQ.zero)
    moved = e1.transform(shift)
    f, mu = standard_form(moved)
    # The map subtracts the image of A.A' = (1, 0).
    assert f == AffineMap(QQ.one, QQ.zero, QQ.zero, QQ.one, -QQ.one, QQ.zero)
    assert mu == QQ.scalar(2)
    assert [slope_product(std) for std in standard_by_transform(moved, f)] == [mu]


def test_standard_form_parallelogram(e2):
    f, mu = standard_form(e2)
    assert [slope_product(std) for std in standard_by_transform(e2, f)] == [mu, mu]
    assert mu == QQ.one
    # The re-pairing sends the diagonals of the square to the axes.
    for diagonal in e2.diagonal_lines:
        image = f.apply(diagonal)
        assert image in (Line.parse(QQ, "Y=0"), Line.parse(QQ, "X=0"))


def _standard_form_by_repairing(q):
    """A parallelogram's standard form by re-pairing: that of the first
    valid quadrilateral of its quadrangle that is no parallelogram, with the
    cyclic labels rotated one step (BA'B'A) when its A and A' are parallel."""
    other = next(c for c in requadrilate(q.quadrangle())
                 if isinstance(c, Quadrilateral) and not c.is_parallelogram())
    if other.a.is_parallel(other.a2):
        other = Quadrilateral(other.b, other.a2, other.b2, other.a)
    return standard_form(other)


def test_standard_form_parallelograms_gf5():
    """Every ordered parallelogram over GF(5) with A.B at the origin: the
    diagonals carried to the axes give the re-pairing's (f, mu).  Every
    ordered parallelogram is a translate of one of these, and translation
    changes neither parallelism nor the pairing the re-pairing takes."""
    g5 = GF(5)
    classes = {}
    for line in enumerate_lines(g5):
        classes.setdefault(line.infinite_point(), []).append(line)
    checked = 0
    for lines_a, lines_b in permutations(classes.values(), 2):
        a, b = (next(l for l in ls if l.v.is_zero()) for ls in (lines_a, lines_b))
        for a2 in lines_a:
            for b2 in lines_b:
                if a2 != a and b2 != b:
                    q = Quadrilateral(a, b, a2, b2)
                    assert standard_form(q) == _standard_form_by_repairing(q), q
                    checked += 1
    assert checked == 6 * 5 * 4 * 4


def test_standard_form_always_nonzero_mu():
    g7 = GF(7)
    for seed in range(30):
        q = random_quadrilateral(g7, seed)
        f, mu = standard_form(q)
        for std in standard_by_transform(q, f):
            assert slope_product(std) == mu
            assert std.centroid == map_point(f, q.centroid)
        assert not mu.is_zero()


def test_standard_form_matches_transform_route(e1, e2, improper):
    """(f, mu) against the definition: f carries a pair of opposite sides
    (or a parallelogram's diagonals) onto the axes, and mu is the product of
    the slopes of the images of the other pair."""
    shift = AffineMap(QQ.one, QQ.zero, QQ.zero, QQ.one, QQ.one, QQ.zero)
    rotated = make_quad(QQ, "Y=0", "X=0", "Y=1", "Y=X+3")  # A || A': relabelled
    quads = [e1, e2, improper, e1.transform(shift), rotated]
    quads += [random_quadrilateral(GF(7), seed) for seed in range(60)]
    quads += [random_quadrilateral(GF(101), seed) for seed in range(20)]
    cases = set()
    for q in quads:
        f, mu = standard_form(q)
        for std in standard_by_transform(q, f):
            assert slope_product(std) == mu, q
        cases.add((q.is_parallelogram(), q.a.is_parallel(q.a2), q.proper))
    assert {(True, True, True), (False, True, True), (False, False, False)} <= cases


def test_origin_centroid_iff_parallelogram_vertices_gf5():
    """Exhaustive over GF(5): standard-form quadrilaterals have centroid at
    the origin exactly when their vertices form a parallelogram."""
    g5 = GF(5)
    axis_a = Line.parse(g5, "Y=0")
    axis_a2 = Line.parse(g5, "X=0")
    checked = 0
    for tb in range(1, 5):
        for vb in range(5):
            for tb2 in range(1, 5):
                for vb2 in range(5):
                    b = Line(g5.scalar(tb), g5.one, g5.scalar(vb))
                    b2 = Line(g5.scalar(tb2), g5.one, g5.scalar(vb2))
                    try:
                        q = Quadrilateral(axis_a, b, axis_a2, b2)
                    except GeometryError:
                        continue
                    checked += 1
                    origin = Point(g5.zero, g5.zero)
                    assert (q.centroid == origin) == q.has_parallelogram_vertices()
    assert checked > 100


def test_quadrangle_validation():
    with pytest.raises(DegenerateInput):
        Quadrangle(pt(0, 0), pt(0, 0), pt(1, 1), pt(2, 2))


_DERIVED = ("vertices", "centroid", "proper", "double_vertex", "diagonal_lines", "line_pairs")


def _built(construct, sides):
    """The derived data of a construction, or its error's class and message."""
    try:
        q = construct(*sides)
    except GeometryError as err:
        return type(err).__name__, str(err)
    return q if isinstance(q, dict) else {name: getattr(q, name) for name in _DERIVED}


def _wide_line(field, rng):
    """A line with full-size coefficients: 61-bit residues over GF(p), heights
    up to 10^6/10^3 over Q."""
    def scalar():
        if field is QQ:
            return QQ.scalar(Fraction(rng.below(2_000_001) - 1_000_000, rng.below(1000) + 1))
        return field.scalar(rng.next_u64())

    return Line(scalar(), field.one, scalar()) if rng.below(8) else Line(field.one, field.zero, scalar())


def _side_sets(field, line, n, rng):
    """n random side quadruples, valid or not, then, from the first valid
    one ABA'B': a duplicate side, parallel adjacent sides, four sides
    through the vertex A.B and an improper quadrilateral (A, B and a third
    side through A.B)."""
    out = [[line(field, rng) for _ in range(4)] for _ in range(n)]
    a, b, a2, b2 = next(s for s in out if isinstance(_built(quadrilateral_by_scalars, s), dict))
    v = intersect(a, b)
    through = [Line(t, field.one, v.y - t * v.x) for t in map(field.scalar, range(1, 6))]
    c, d = [l for l in through if not (l.is_parallel(a) or l.is_parallel(b))][:2]
    return out + [[a, b, a, b2], [a, Line(a.t, a.u, a.v + field.one), a2, b2],
                  [a, b, c, d], [a, b, c, b2]]


def test_quadrilateral_matches_the_scalar_rules():
    """Quadrilateral validates on raw values; its derived data, and the class
    and message of each refusal, are those of the rules on Scalars.  Its
    diagonals, joined on raw vertices, are line_from_points of its vertices."""
    rng = Lcg64(5)
    cases = [(GF(7), random_line, 400), (GF(101), random_line, 120),
             (GF(2**61 - 1), _wide_line, 60), (QQ, random_line, 120), (QQ, _wide_line, 60)]
    seen = set()
    for field, line, n in cases:
        for sides in _side_sets(field, line, n, rng):
            got = _built(Quadrilateral, sides)
            assert got == _built(quadrilateral_by_scalars, sides), sides
            if isinstance(got, dict):
                v0, v1, v2, v3 = got["vertices"]
                assert got["diagonal_lines"] == (line_from_points(v0, v2), line_from_points(v1, v3))
            seen.add(got[0] if isinstance(got, tuple) else got["proper"])
    assert seen == {True, False, "DuplicateLine", "AdjacentParallel", "Concurrent4Lines"}


def test_quadrilateral_refuses_mixed_fields():
    sides = [Line.parse(QQ, text) for text in ("Y=0", "Y=X+1", "X=0")]
    with pytest.raises(FieldMismatch):
        Quadrilateral(*sides, Line.parse(GF(7), "Y=2X-1"))
