"""Validated quadrilaterals and quadrangles with their derived data.

A quadrilateral ABA'B' is four distinct lines in cyclic order with opposite
pairs {A, A'} and {B, B'}; adjacent sides may not be parallel and the four
lines may not be concurrent.  Three sides through one point are allowed
(improper case, two coincident vertices).  All derived data is computed
eagerly at validation time, except the standard form, which is memoised on
first use.
"""

from __future__ import annotations

from .errors import (
    AdjacentParallel,
    Concurrent4Lines,
    DegenerateInput,
    DuplicateLine,
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
    intersect,
    line_from_points,
    midpoint,
)


class Quadrilateral(Frozen, identity=("a", "b", "a2", "b2")):
    """Four lines A, B, A', B' with vertices (A.B, B.A', A'.B', B'.A)."""

    __slots__ = (
        "a", "b", "a2", "b2",
        "vertices", "centroid", "proper", "double_vertex",
        "diagonal_lines", "line_pairs", "_opposite_pairs", "_standard",
    )

    def __init__(self, a: Line, b: Line, a2: Line, b2: Line):
        sides = (a, b, a2, b2)
        for i in range(4):
            for j in range(i + 1, 4):
                if sides[i] == sides[j]:
                    raise DuplicateLine("sides must be four distinct lines")
        for l1, l2 in ((a, b), (b, a2), (a2, b2), (b2, a)):
            if l1.is_parallel(l2):
                raise AdjacentParallel(f"adjacent sides {l1} and {l2} are parallel")
        v0 = intersect(a, b)
        if a2.contains(v0) and b2.contains(v0):
            raise Concurrent4Lines("all four sides pass through one point")
        v1 = intersect(b, a2)
        v2 = intersect(a2, b2)
        v3 = intersect(b2, a)
        vertices = (v0, v1, v2, v3)
        centroid = Point(
            (v0.x + v1.x + v2.x + v3.x) / 4,
            (v0.y + v1.y + v2.y + v3.y) / 4,
        )
        m03_12 = midpoint(midpoint(v0, v3), midpoint(v1, v2))
        m01_23 = midpoint(midpoint(v0, v1), midpoint(v2, v3))
        if not centroid == m03_12 == m01_23:
            raise InvariantViolation("the centroid is the midpoint of both bimedians")
        double = None
        for i in range(4):
            if vertices[i] == vertices[(i + 1) % 4]:
                double = vertices[i]
        # For an improper quadrilateral these come out as the pair of
        # opposite sides through the double vertex.
        diagonals = (line_from_points(v0, v2), line_from_points(v1, v3))
        # line_pairs: (A, A'), (B, B') and the diagonals, in that order.
        self._write(
            a, b, a2, b2, vertices, centroid, double is None, double, diagonals,
            ((a, a2), (b, b2), diagonals), (LinePair(a, a2), LinePair(b, b2)), None,
        )

    @property
    def sides(self) -> tuple[Line, Line, Line, Line]:
        return (self.a, self.b, self.a2, self.b2)

    def opposite_pairs(self) -> tuple[LinePair, LinePair]:
        return self._opposite_pairs

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

    @property
    def is_standard(self) -> bool:
        """A is the line Y = 0 and A' is the line X = 0."""
        field = self.field
        return (
            self.a == Line(field.zero, field.one, field.zero)
            and self.a2 == Line(field.one, field.zero, field.zero)
        )

    @property
    def mu(self) -> Scalar | None:
        """Product of the slopes of B and B'; defined only in standard form."""
        if not self.is_standard:
            return None
        return self.b.slope * self.b2.slope

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


def _axis_map(q: Quadrilateral) -> AffineMap:
    """The map sending A to the X-axis and A' to the Y-axis.

    f(x, y) = (A'(x, y), -A(x, y)) where each side contributes its canonical
    linear form tX - uY + v; the sign on the second coordinate makes the map
    the identity when the quadrilateral is already in standard form.
    """
    a, a2 = q.a, q.a2
    return AffineMap(a2.t, -a2.u, -a.t, a.u, a2.v, -a.v)


def standard_form(q: Quadrilateral) -> tuple[AffineMap, Quadrilateral, Scalar]:
    """Reduce to a quadrilateral with A: Y=0 and A': X=0; returns (f, f(Q), mu).

    The opposite pair carried to the axes is {A, A'} when those are not
    parallel, else {B, B'} (relabelled), else the quadrilateral is a
    parallelogram and is first re-paired through its quadrangle, taking the
    first valid non-parallelogram pairing.  The coefficient mu is the
    product of the images' slopes; it never vanishes.
    """
    if q._standard is not None:
        return q._standard
    base = q
    if base.a.is_parallel(base.a2):
        if not base.b.is_parallel(base.b2):
            # Rotate the cyclic labels one step: BA'B'A.
            base = Quadrilateral(base.b, base.a2, base.b2, base.a)
        else:
            for candidate in requadrilate(base.quadrangle()):
                if isinstance(candidate, Quadrilateral) and not candidate.is_parallelogram():
                    base = candidate
                    break
            else:
                raise DegenerateInput("no non-parallelogram pairing found")
            if base.a.is_parallel(base.a2):
                base = Quadrilateral(base.b, base.a2, base.b2, base.a)
    f = _axis_map(base)
    std = base.transform(f)
    mu = std.mu
    if not std.is_standard or mu is None or mu.is_zero():
        raise InvariantViolation("the axis map gives no standard form with nonzero mu")
    # The memo is the one slot written after __init__.
    object.__setattr__(q, "_standard", (f, std, mu))
    return q._standard
