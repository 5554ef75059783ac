"""Validated quadrilaterals and quadrangles with their derived data.

A quadrilateral ABA'B' is four distinct lines in cyclic order with opposite
pairs {A, A'} and {B, B'}; adjacent sides may not be parallel and the four
lines may not be concurrent.  Three sides through one point are allowed
(improper case, two coincident vertices).  All derived data is computed
eagerly at validation time on raw values (see plane), except the quadratic
data (form.quadratic_data) and the side products of the pencil
(bisectors._side_products), each memoised on first use; standard_form,
analyze's printed normal form, is computed on each call.
"""

from __future__ import annotations

from .errors import (
    AdjacentParallel,
    Concurrent4Lines,
    DegenerateInput,
    DuplicateLine,
    FieldMismatch,
    GeometryError,
    InvariantViolation,
)
from .field import Frozen, Scalar
from .plane import (
    AffineMap,
    Line,
    LinePair,
    PlanePoint,
    Point,
    _affine,
    _cleared,
    _meet,
    _mid,
    intersect,
    line_det,
    line_from_points,
    midpoint,
)


class Quadrilateral(Frozen, identity=("a", "b", "a2", "b2")):
    """Four lines A, B, A', B' with vertices (A.B, B.A', A'.B', B'.A)."""

    __slots__ = (
        "a", "b", "a2", "b2",
        "vertices", "centroid", "proper", "double_vertex",
        "diagonal_lines", "line_pairs", "_quadratic_data", "_pencil", "_hash",
    )

    def __init__(self, a: Line, b: Line, a2: Line, b2: Line):
        sides = (a, b, a2, b2)
        field = a.field
        if any(side.field is not field for side in sides):
            raise FieldMismatch("quadrilateral sides from different fields")
        p = field.p
        raw = [side.raw for side in sides]
        r0, r1, r2, r3 = raw
        if r0 in (r1, r2, r3) or r1 in (r2, r3) or r2 == r3:
            raise DuplicateLine("sides must be four distinct lines")
        for i in range(4):
            j = (i + 1) % 4
            if raw[i][:2] == raw[j][:2]:
                raise AdjacentParallel(f"adjacent sides {sides[i]} and {sides[j]} are parallel")
        # Vertex i is where sides i and i + 1 meet; all four sides pass
        # through v0 exactly when v0 = v1 = v2.
        v = [_meet(raw[i], raw[(i + 1) % 4], p) for i in range(4)]
        if v[0] == v[1] == v[2]:
            raise Concurrent4Lines("all four sides pass through one point")
        # The centroid: the summed vertices, jointly cleared, over 4W.
        *xy, w = _cleared(sum(v, ()), p)
        centroid = _affine(sum(xy[::2]), sum(xy[1::2]), 4 * w, p)
        m03_12 = _mid(_mid(v[0], v[3], p), _mid(v[1], v[2], p), p)
        m01_23 = _mid(_mid(v[0], v[1], p), _mid(v[2], v[3], p), p)
        if not centroid == m03_12 == m01_23:
            raise InvariantViolation("the centroid is the midpoint of both bimedians")
        vertices = tuple(Point.of(field, xy) for xy in v)
        double = None
        for i in range(4):
            if v[i] == v[(i + 1) % 4]:
                double = vertices[i]
        # For an improper quadrilateral these come out as the pair of
        # opposite sides through the double vertex.
        diagonals = (line_from_points(vertices[0], vertices[2]),
                     line_from_points(vertices[1], vertices[3]))
        # line_pairs: (A, A'), (B, B') and the diagonals, in that order.
        self._write(
            a, b, a2, b2, vertices, Point.of(field, centroid), double is None, double, diagonals,
            ((a, a2), (b, b2), diagonals), None, None, None,
        )

    def __hash__(self):
        # Frozen's hash, memoised as _quadratic_data is: the oracle's
        # _Context.once keys on q, and each Frozen hash rehashes four Lines.
        if self._hash is None:
            object.__setattr__(self, "_hash", Frozen.__hash__(self))
        return self._hash

    @property
    def sides(self) -> tuple[Line, Line, Line, Line]:
        return (self.a, self.b, self.a2, self.b2)

    def diagonal_points(self) -> tuple[PlanePoint, PlanePoint, PlanePoint]:
        """A.A', B.B' and the diagonal intersection, each possibly at infinity.

        Improper quadrilaterals repeat one of the side intersections here
        (their diagonals coincide with opposite sides); multiplicities are
        reported as they come.
        """
        return tuple(intersect(l1, l2) for l1, l2 in self.line_pairs)

    def is_parallelogram(self) -> bool:
        """Both pairs of opposite sides parallel."""
        return self.a.is_parallel(self.a2) and self.b.is_parallel(self.b2)

    def has_parallelogram_vertices(self) -> bool:
        """The vertex set is the vertex set of some parallelogram."""
        if not self.proper:
            return False
        v0, v1, v2, v3 = self.vertices
        return (
            midpoint(v0, v2) == midpoint(v1, v3)
            or midpoint(v0, v1) == midpoint(v2, v3)
            or midpoint(v0, v3) == midpoint(v1, v2)
        )

    def quadrangle(self) -> "Quadrangle":
        if not self.proper:
            raise DegenerateInput("improper quadrilaterals belong to no quadrangle")
        return Quadrangle(*self.vertices)

    def transform(self, f: AffineMap) -> "Quadrilateral":
        return Quadrilateral(*(f.apply(side) for side in self.sides))

    def __repr__(self):
        return f"Quadrilateral({self.a!r}, {self.b!r}, {self.a2!r}, {self.b2!r})"


class Quadrangle(Frozen, identity=("points",)):
    """Four distinct affine points and the six lines through them."""

    __slots__ = ("points", "_side_pairs")

    def __init__(self, p0: Point, p1: Point, p2: Point, p3: Point):
        points = (p0, p1, p2, p3)
        for i in range(4):
            if not isinstance(points[i], Point):
                raise DegenerateInput("quadrangle vertices must be affine points")
            for j in range(i + 1, 4):
                if points[i] == points[j]:
                    raise DegenerateInput("quadrangle needs four distinct points")
        self._write(points, (
            LinePair(line_from_points(p0, p1), line_from_points(p2, p3)),
            LinePair(line_from_points(p0, p2), line_from_points(p1, p3)),
            LinePair(line_from_points(p0, p3), line_from_points(p1, p2)),
        ))

    @property
    def field(self):
        return self.points[0].field

    def opposite_side_pairs(self) -> tuple[LinePair, LinePair, LinePair]:
        return self._side_pairs

    def __repr__(self):
        return "Quadrangle" + repr(self.points)


# The three side pairings of a quadrangle, as vertex orders.
_PAIRINGS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))


def requadrilate(qr: Quadrangle) -> list[Quadrilateral | GeometryError]:
    """The three quadrilaterals belonging to a quadrangle, in a fixed order.

    Pairings invalidated by collinear vertex triples are returned as the
    validation error instead of raising, so callers can inspect all three.
    The first pairing of a proper quadrilateral's own quadrangle is always
    that quadrilateral.
    """
    out: list[Quadrilateral | GeometryError] = []
    for (i, j, k, l) in _PAIRINGS:
        p = qr.points
        try:
            out.append(
                Quadrilateral(
                    line_from_points(p[l], p[i]),
                    line_from_points(p[i], p[j]),
                    line_from_points(p[j], p[k]),
                    line_from_points(p[k], p[l]),
                )
            )
        except GeometryError as err:
            out.append(err)
    return out


def standard_form(q: Quadrilateral) -> tuple[AffineMap, Scalar]:
    """The map f carrying Q to standard form (A: Y=0, A': X=0) and mu.

    f(x, y) = (A'(x, y), -A(x, y)) for the sides' canonical linear forms
    tX - uY + v, the identity on a quadrilateral already in standard form.
    The opposite pair carried to the axes is {A, A'} when those are not
    parallel, else {B, B'} (relabelled), else the quadrilateral is a
    parallelogram and its diagonals D0, D1 go to the axes, re-paired as the
    quadrilateral (D0, A', D1, A) of its quadrangle.  The coefficient mu is
    the product of the slopes of f(B) and f(B'), where f(L) has slope
    [A, L] / [L, A'] in terms of line_det; it never vanishes.
    """
    a, b, a2, b2 = q.sides
    if q.is_parallelogram():
        d0, d1 = q.diagonal_lines
        a, b, a2, b2 = d0, q.a2, d1, q.a
    if a.is_parallel(a2):
        # Rotate the cyclic labels one step: BA'B'A.
        a, b, a2, b2 = b, a2, b2, a
    f = AffineMap(a2.t, -a2.u, -a.t, a.u, a2.v, -a.v)
    scalar = q.field.scalar
    mu = scalar(line_det(a, b) * line_det(a, b2)) / scalar(line_det(a2, b) * line_det(a2, b2))
    if mu.is_zero():
        raise InvariantViolation("the standard form has nonzero mu")
    return f, mu
