"""Points, lines in canonical form, incidence and affine maps.

A line is stored as the coefficients (t, u, v) of tX - uY + v = 0 under the
normalization u = 1 when u != 0, else t = 1, so equal lines have equal
coefficients.  Points at infinity are explicit values (InfPoint), never
sentinel coordinates; PlanePoint is the union of the two kinds.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import DegenerateInput, FieldMismatch, IdenticalLines, SingularMap
from .field import Field, Frozen, Scalar


class Point(Frozen):
    """An affine point (x, y)."""

    __slots__ = ("x", "y")

    def __init__(self, x: Scalar, y: Scalar):
        if x.field != y.field:
            raise FieldMismatch("point coordinates from different fields")
        self._write(x, y)

    def __str__(self):
        return f"({self.x}, {self.y})"

    def __repr__(self):
        return f"Point({self.x}, {self.y})"


class InfPoint(Frozen):
    """A point on the line at infinity, i.e. a point of P1(k).

    Stored as a normalized homogeneous pair [x : y]: x = 1 when x != 0,
    else y = 1.  For the infinite point of a line this pair is (u, t);
    the same type doubles as a projective parameter value on a chart of
    an affine line.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: Scalar, y: Scalar):
        if x.field != y.field:
            raise FieldMismatch("homogeneous coordinates from different fields")
        if x.is_zero() and y.is_zero():
            raise DegenerateInput("[0 : 0] is not a projective point")
        if not x.is_zero():
            x, y = x.field.one, y / x
        else:
            y = y.field.one
        self._write(x, y)

    def __str__(self):
        return f"[{self.x}:{self.y}:0]"

    def __repr__(self):
        return f"InfPoint({self.x}, {self.y})"


PlanePoint = Union[Point, InfPoint]

_SLOPE_RE = re.compile(r"^([+-]?(?:\d+(?:/\d+)?)?)\*?X(.*)$", re.IGNORECASE)


class Line(Frozen):
    """The affine line tX - uY + v = 0 with canonical coefficients."""

    __slots__ = ("t", "u", "v")

    def __init__(self, t: Scalar, u: Scalar, v: Scalar):
        if u.field != t.field or v.field != t.field:
            raise FieldMismatch("line coefficients from different fields")
        if t.is_zero() and u.is_zero():
            raise DegenerateInput("line needs (t, u) != (0, 0)")
        if not u.is_zero():
            t, v, u = t / u, v / u, u.field.one
        else:
            v, t = v / t, t.field.one
        self._write(t, u, v)

    @property
    def is_vertical(self) -> bool:
        return self.u.is_zero()

    @property
    def slope(self):
        """Slope t for Y = tX + v lines, None for vertical ones."""
        return None if self.is_vertical else self.t

    def evaluate(self, p: Point) -> Scalar:
        return self.t * p.x - self.u * p.y + self.v

    def contains(self, p: Point) -> bool:
        return self.evaluate(p).is_zero()

    def infinite_point(self) -> InfPoint:
        return InfPoint(self.u, self.t)

    def is_parallel(self, other: "Line") -> bool:
        # Canonical coefficients make parallelism a direct comparison.
        return self.t == other.t and self.u == other.u

    def two_points(self) -> tuple[Point, Point]:
        """Two distinct points on the line, used to transport it through maps."""
        field = self.field
        if self.is_vertical:
            x = -self.v
            return Point(x, field.zero), Point(x, field.one)
        return Point(field.zero, self.v), Point(field.one, self.t + self.v)

    def sort_key(self):
        return (self.t.sort_key(), self.u.sort_key(), self.v.sort_key())

    @classmethod
    def parse(cls, field: Field, text: str) -> "Line":
        """Parse "t u v" or the sugar "Y=mX+b" / "X=c"."""
        text = text.strip()
        upper = text.replace(" ", "").upper()
        if upper.startswith("X="):
            c = field.parse(upper[2:])
            return cls(field.one, field.zero, -c)
        if upper.startswith("Y="):
            rest = upper[2:]
            m = _SLOPE_RE.match(rest)
            if m:
                coeff, tail = m.group(1), m.group(2)
                if coeff in ("", "+"):
                    slope = field.one
                elif coeff == "-":
                    slope = -field.one
                else:
                    slope = field.parse(coeff)
                intercept = field.parse(tail) if tail else field.zero
            else:
                slope = field.zero
                intercept = field.parse(rest)
            return cls(slope, field.one, intercept)
        parts = text.split()
        if len(parts) != 3:
            raise DegenerateInput(f"cannot parse line literal {text!r}")
        t, u, v = (field.parse(p) for p in parts)
        return cls(t, u, v)

    def __str__(self):
        if self.is_vertical:
            return f"X={-self.v}"
        if self.t.is_zero():
            return f"Y={self.v}"
        t = str(self.t)
        term = "X" if t == "1" else ("-X" if t == "-1" else f"{t}X")
        if self.v.is_zero():
            return f"Y={term}"
        v = str(self.v)
        sign = "" if v.startswith("-") else "+"
        return f"Y={term}{sign}{v}"

    def __repr__(self):
        return f"Line<{self}>"


class LinePair(Frozen):
    """An unordered pair of lines; the two lines may coincide.

    Stored in a fixed order (lexicographic on coefficients) so equal pairs
    compare and hash equal.
    """

    __slots__ = ("a", "b")

    def __init__(self, l1: Line, l2: Line):
        if l2.sort_key() < l1.sort_key():
            l1, l2 = l2, l1
        self._write(l1, l2)

    @property
    def lines(self) -> tuple[Line, Line]:
        return (self.a, self.b)

    def __str__(self):
        return f"{{{self.a}, {self.b}}}"

    def __repr__(self):
        return f"LinePair({self.a!r}, {self.b!r})"


def line_from_points(p: Point, q: Point) -> Line:
    """The canonical line through two distinct points."""
    if p == q:
        raise DegenerateInput("two coincident points do not span a line")
    dx, dy = q.x - p.x, q.y - p.y
    return Line(dy, dx, dx * p.y - dy * p.x)


def intersect(l1: Line, l2: Line) -> PlanePoint:
    """Intersection point; at infinity when the lines are parallel."""
    if l1 == l2:
        raise IdenticalLines("lines coincide")
    det = l1.u * l2.t - l1.t * l2.u
    if det.is_zero():
        return l1.infinite_point()
    x = (l1.v * l2.u - l1.u * l2.v) / det
    y = (l1.v * l2.t - l1.t * l2.v) / det
    return Point(x, y)


def midpoint(p: Point, q: Point) -> Point:
    # Division by 2 is always possible: characteristic != 2.
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


class AffineMap(Frozen):
    """x |-> Mx + b with invertible linear part M."""

    __slots__ = ("m00", "m01", "m10", "m11", "b0", "b1")

    def __init__(self, m00, m01, m10, m11, b0, b1):
        det = m00 * m11 - m01 * m10
        if det.is_zero():
            raise SingularMap("linear part has determinant 0")
        self._write(m00, m01, m10, m11, b0, b1)

    @classmethod
    def identity(cls, field: Field) -> "AffineMap":
        one, zero = field.one, field.zero
        return cls(one, zero, zero, one, zero, zero)

    @classmethod
    def linear(cls, m00, m01, m10, m11) -> "AffineMap":
        zero = m00.field.zero
        return cls(m00, m01, m10, m11, zero, zero)

    @property
    def det(self) -> Scalar:
        return self.m00 * self.m11 - self.m01 * self.m10

    def apply(self, obj):
        """Image of a Point or a Line (lines move by mapping two points)."""
        if isinstance(obj, Point):
            return Point(
                self.m00 * obj.x + self.m01 * obj.y + self.b0,
                self.m10 * obj.x + self.m11 * obj.y + self.b1,
            )
        if isinstance(obj, Line):
            p, q = obj.two_points()
            return line_from_points(self.apply(p), self.apply(q))
        raise TypeError(f"cannot apply an affine map to {obj!r}")

    def inverse(self) -> "AffineMap":
        det = self.det
        i00, i01 = self.m11 / det, -self.m01 / det
        i10, i11 = -self.m10 / det, self.m00 / det
        return AffineMap(
            i00, i01, i10, i11,
            -(i00 * self.b0 + i01 * self.b1),
            -(i10 * self.b0 + i11 * self.b1),
        )

    def __repr__(self):
        return (
            f"AffineMap([[{self.m00}, {self.m01}], [{self.m10}, {self.m11}]]"
            f" + ({self.b0}, {self.b1}))"
        )
