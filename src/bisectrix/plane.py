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

# The slope sugar mX+b: a '*' needs a coefficient, and the tail after X is
# empty or a sign and a scalar.
_SLOPE_RE = re.compile(r"^([+-]?(?:\d+(?:/\d+)?\*?)?)X([+-][\d.][^X]*)?$", re.IGNORECASE)


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

    def evaluate(self, p: Point) -> Scalar:
        return self.t * p.x - self.u * p.y + self.v

    def contains(self, p: Point) -> bool:
        return self.evaluate(p).is_zero()

    def infinite_point(self) -> InfPoint:
        return InfPoint(self.u, self.t)

    def is_parallel(self, other: "Line") -> bool:
        # Canonical coefficients make parallelism a direct comparison.
        return self.t == other.t and self.u == other.u

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
            if "X" not in rest:
                return cls(field.zero, field.one, field.parse(rest))
            m = _SLOPE_RE.match(rest)
            if m is None:
                raise DegenerateInput(f"cannot parse line literal {text!r}")
            coeff, tail = m.group(1).rstrip("*"), m.group(2)
            if coeff in ("", "+"):
                slope = field.one
            elif coeff == "-":
                slope = -field.one
            else:
                slope = field.parse(coeff)
            intercept = field.parse(tail) if tail else field.zero
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


def line_det(l1: Line, l2: Line) -> Scalar:
    """[L, M] = L.u M.t - L.t M.u, Cramer's determinant of two lines: zero
    exactly when they are parallel."""
    return l1.u * l2.t - l1.t * l2.u


# Raw values: a line is its canonical (t, u, v) and a point its (x, y), as
# ints in [0, p) over GF(p) or as the Scalars' Fractions over Q, where p is
# None and nothing is reduced.  The meet, midpoint, product and gradient rules
# below are the only ones; intersect, midpoint and Conic.from_lines wrap them.

# A raw line's crossing with another, when it is not an affine point.
_PARALLEL = "parallel"
_SAME = "same line"


def _raw_line(line: Line) -> tuple:
    return (line.t.value, line.u.value, line.v.value)


def _raw_point(point: Point) -> tuple:
    return (point.x.value, point.y.value)


def _point(field: Field, xy) -> Point:
    """The Point of a canonical raw (x, y)."""
    return Point(field._make(xy[0]), field._make(xy[1]))


def _meet(l, m, p: int | None):
    """Where raw line l meets raw line m: an affine (x, y), _PARALLEL or
    _SAME, by Cramer's rule on line_det."""
    t, u, v = l
    mt, mu, mv = m
    det = u * mt - t * mu
    if not (det % p if p else det):
        return _SAME if l == m else _PARALLEL
    inv = pow(det, -1, p) if p else 1 / det
    x, y = (v * mu - u * mv) * inv, (v * mt - t * mv) * inv
    return (x % p, y % p) if p else (x, y)


def _product(l, m) -> tuple:
    """The conic l*m of two raw lines tX - uY + v = 0 without its constant
    term: its coefficients of X^2, XY, Y^2, X and Y."""
    (t1, u1, v1), (t2, u2, v2) = l, m
    return (t1 * t2, -(t1 * u2 + u1 * t2), u1 * u2, t1 * v2 + v1 * t2, -(u1 * v2 + v1 * u2))


def _gradient(c, m) -> tuple:
    """grad C(m) for the conic C of coefficients c (see _product) at a raw
    point m: L_C(m, d) = grad C(m) . d is the coefficient of s in C(m + s*d)."""
    (xx, xy, yy, x, y), (mx, my) = c, m
    return (2 * xx * mx + xy * my + x, xy * mx + 2 * yy * my + y)


def _mid(c1, c2, p: int | None):
    """A line's midpoint across a pair it meets at c1 and c2 (see _meet):
    None when the line does not cross the pair, _PARALLEL for the line's
    own infinite point, else the midpoint of the two affine points."""
    if c1 is _SAME or c2 is _SAME or (c1 is _PARALLEL and c2 is _PARALLEL):
        return None
    if c1 is _PARALLEL or c2 is _PARALLEL:
        return _PARALLEL
    # Division by 2 is always possible: characteristic != 2.
    x, y = c1[0] + c2[0], c1[1] + c2[1]
    if p:
        half = (p + 1) // 2
        return (x * half % p, y * half % p)
    return (x / 2, y / 2)


def _field_of(a, b) -> Field:
    """The field of two kernel values; FieldMismatch when they differ."""
    if a.field is not b.field:
        raise FieldMismatch(f"{a.field.name} vs {b.field.name}")
    return a.field


def intersect(l1: Line, l2: Line) -> PlanePoint:
    """Intersection point; at infinity when the lines are parallel."""
    field = _field_of(l1, l2)
    c = _meet(_raw_line(l1), _raw_line(l2), field.p)
    if c is _SAME:
        raise IdenticalLines("lines coincide")
    return l1.infinite_point() if c is _PARALLEL else _point(field, c)


def midpoint(p: Point, q: Point) -> Point:
    field = _field_of(p, q)
    return _point(field, _mid(_raw_point(p), _raw_point(q), field.p))


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

    def apply(self, obj):
        """Image of a Point or a Line (lines move by the adjugate of M)."""
        if isinstance(obj, Point):
            return Point(
                self.m00 * obj.x + self.m01 * obj.y + self.b0,
                self.m10 * obj.x + self.m11 * obj.y + self.b1,
            )
        if isinstance(obj, Line):
            t, u = obj.t * self.m11 + obj.u * self.m10, obj.t * self.m01 + obj.u * self.m00
            det = self.m00 * self.m11 - self.m01 * self.m10
            return Line(t, u, det * obj.v - t * self.b0 + u * self.b1)
        raise TypeError(f"cannot apply an affine map to {obj!r}")

    def __repr__(self):
        return (
            f"AffineMap([[{self.m00}, {self.m01}], [{self.m10}, {self.m11}]]"
            f" + ({self.b0}, {self.b1}))"
        )
