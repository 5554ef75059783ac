"""Points, lines in canonical form, incidence and affine maps.

Points, lines and conics (pencil) hold their field and a raw tuple (ints in
[0, p) over GF(p), or field._Rat fractions over Q, where p is None), which
x, y, t, u and v wrap as Scalars on access and Point.of, InfPoint.of and
Line.of build from.  A line tX - uY + v = 0 holds (t, u, v) under the
normalization u = 1 when u != 0, else t = 1, so equal lines have equal raw
tuples.  The meet, the line through two points (_join) and a map's image
of a line are one formula for both fields, on cleared integers (_cleared:
raw followed by 1 over GF(p)), normalised once: _affine for a point (one
inverse mod p, or one gcd per coordinate over Q), Line.of for a line.  The
rules that hold up to scale (the meet, the form, the side-product pencil)
run on _integral tuples.  Line.parse coerces each scalar text straight to
a raw value (Field._coerce_text) and builds the line once by Line.of, and
a line prints from its raw tuple, so neither builds a Scalar.  Points at
infinity are explicit values (InfPoint), never sentinel coordinates;
PlanePoint is the union of the two kinds.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import DegenerateInput, FieldMismatch, IdenticalLines, SingularMap
from .field import _DIGITS, QQ, Field, Frozen, Scalar, _quotient, _rat, _Rat, _thaw, _wrapped


def _scaled(raw, p: int | None, lead: tuple, error: str) -> tuple:
    """raw divided by its first nonzero entry among the indices lead
    (DegenerateInput(error) if none): one inverse and one pass mod p; over
    Q, one _quotient per entry when raw holds ints (see _cleared), else one
    _Rat division per entry, the entries made _Rats."""
    if not p and not all(type(c) is int for c in raw):
        raw = [c if type(c) is _Rat else QQ._coerce(c) for c in raw]
    for i in lead:
        k = raw[i] % p if p else raw[i]
        if k:
            break
    else:
        raise DegenerateInput(error)
    if p:
        inv = pow(k, -1, p)
        return tuple([c * inv % p for c in raw])
    if type(k) is int:
        return tuple([_quotient(c, k) for c in raw])
    if k == 1:
        return tuple(raw)
    return tuple([c / k if c else c for c in raw])


def _affine(x: int, y: int, w: int, p: int | None) -> tuple:
    """The raw affine point (x/w, y/w) of ints with w nonzero: one inverse
    mod p, or over Q one _quotient (one gcd) per coordinate.  Every point
    computed on _cleared ints is normalised here."""
    if p:
        inv = pow(w, -1, p)
        return (x * inv % p, y * inv % p)
    return (_quotient(x, w), _quotient(y, w))


def _cleared(raw, p: int | None):
    """The tuple raw followed by 1 over GF(p); over Q, its _Rat entries
    followed by 1, times the product W of their denominators.  Ints either
    way, the same projective point: a point (x, y) comes out as (X, Y, W),
    a line (t, u, v) as (T, U, V, W), W unused."""
    if p:
        return raw + (1,)
    d = 1
    for c in raw:
        d *= c._denominator
    return [c._numerator * (d // c._denominator) for c in raw] + [d]


def _integral(raw, p: int | None):
    """raw over GF(p); over Q its _cleared ints without W, a nonzero
    multiple of raw: for the rules that hold up to scale (a line, a conic,
    a direction, the form's triple)."""
    return raw if p else _cleared(raw, p)[:-1]


class Point(Frozen):
    """An affine point (x, y)."""

    __slots__ = ("field", "raw")
    x, y = _wrapped(0), _wrapped(1)

    def __init__(self, x: Scalar, y: Scalar):
        if x.field != y.field:
            raise FieldMismatch("point coordinates from different fields")
        self._write(x.field, (x.value, y.value))

    @classmethod
    def of(cls, field: Field, raw: tuple) -> "Point":
        """The point of a raw (x, y) already reduced mod p, or of _Rats."""
        return _thaw(cls, (field, raw))

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

    __slots__ = ("field", "raw")
    x, y = _wrapped(0), _wrapped(1)

    def __init__(self, x: Scalar, y: Scalar):
        if x.field != y.field:
            raise FieldMismatch("homogeneous coordinates from different fields")
        raw = _scaled((x.value, y.value), x.field.p, (0, 1), "[0 : 0] is not a projective point")
        self._write(x.field, raw)

    @classmethod
    def of(cls, field: Field, raw: tuple) -> "InfPoint":
        """The point of a raw pair [x : y] already reduced and normalized."""
        return _thaw(cls, (field, raw))

    def __str__(self):
        return f"[{self.x}:{self.y}:0]"

    def __repr__(self):
        return f"InfPoint({self.x}, {self.y})"


PlanePoint = Union[Point, InfPoint]

# The slope sugar mX+b: the slope is empty, a sign, or a scalar literal of
# Fraction's grammar with an optional '*' (a '*' needs a coefficient), and
# the tail after X is empty or a sign and a scalar.
_SLOPE = rf"(?=\.?\d)(?:{_DIGITS})?(?:/{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:E[+-]?{_DIGITS})?)"
_SLOPE_RE = re.compile(rf"^([+-]?(?:{_SLOPE}\*?)?)X([+-][\d.][^X]*)?$", re.IGNORECASE)
_NO_LINE = "line needs (t, u) != (0, 0)"


class Line(Frozen):
    """The affine line tX - uY + v = 0 with canonical coefficients."""

    __slots__ = ("field", "raw")
    t, u, v = _wrapped(0), _wrapped(1), _wrapped(2)

    def __init__(self, t: Scalar, u: Scalar, v: Scalar):
        if u.field != t.field or v.field != t.field:
            raise FieldMismatch("line coefficients from different fields")
        self._write(t.field, _scaled((t.value, u.value, v.value), t.field.p, (1, 0), _NO_LINE))

    @classmethod
    def of(cls, field: Field, raw: tuple) -> "Line":
        """The line of raw coefficients (t, u, v), reduced and normalized here."""
        return _thaw(cls, (field, _scaled(raw, field.p, (1, 0), _NO_LINE)))

    @property
    def is_vertical(self) -> bool:
        return not self.raw[1]

    def contains(self, p: PlanePoint) -> bool:
        """Whether tX - uY + vW vanishes at p: at (x, y, 1) for a Point, at
        (x, y, 0) for an InfPoint [x : y], as Conic.contains evaluates."""
        (t, u, v), (x, y) = self.raw, p.raw
        return not _field_of(self, p)._coerce(t * x - u * y + (0 if type(p) is InfPoint else v))

    def infinite_point(self) -> InfPoint:
        t, u, _ = self.raw
        return InfPoint.of(self.field, (u, t))  # normalized as the line is

    def is_parallel(self, other: "Line") -> bool:
        # Canonical coefficients make parallelism a direct comparison.
        return self.field is other.field and self.raw[:2] == other.raw[:2]

    def sort_key(self):
        return self.raw

    @classmethod
    def parse(cls, field: Field, text: str) -> "Line":
        """Parse "t u v" or the sugar "Y=mX+b" / "X=c": each scalar text is
        coerced to a raw value and the line built once by Line.of."""
        text = text.strip()
        upper = text.replace(" ", "").upper()
        coerce = field._coerce_text
        if upper.startswith("X="):
            return cls.of(field, (1, 0, -coerce(upper[2:].strip())))
        if upper.startswith("Y="):
            rest = upper[2:]
            if "X" not in rest:
                return cls.of(field, (0, 1, coerce(rest.strip())))
            m = _SLOPE_RE.match(rest)
            if m is None:
                raise DegenerateInput(f"cannot parse line literal {text!r}")
            coeff, tail = m.group(1).rstrip("*"), m.group(2)
            slope = coerce(coeff + "1" if coeff in ("", "+", "-") else coeff)
            return cls.of(field, (slope, 1, coerce(tail) if tail else 0))
        parts = text.split()
        if len(parts) != 3:
            raise DegenerateInput(f"cannot parse line literal {text!r}")
        return cls.of(field, tuple(coerce(p) for p in parts))

    def __str__(self):
        t, u, v = self.raw
        if not u:
            return f"X={self.field._coerce(-v)}"
        if not t:
            return f"Y={v}"
        t = str(t)
        term = "X" if t == "1" else ("-X" if t == "-1" else f"{t}X")
        if not v:
            return f"Y={term}"
        v = str(v)
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
        _field_of(l1, l2)
        if l2.raw < l1.raw:
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
    """The canonical line through two distinct points: the cross product of
    the cleared points."""
    if p == q:
        raise DegenerateInput("two coincident points do not span a line")
    field = _field_of(p, q)
    return Line.of(field, _join(p.raw, q.raw, field.p))


def _join(a, b, p: int | None) -> tuple:
    """The raw line through two distinct raw points, not normalised: the
    cross product of the _cleared points, ints for Line.of."""
    (x, y, w), (qx, qy, qw) = _cleared(a, p), _cleared(b, p)
    return (y * qw - w * qy, x * qw - w * qx, x * qy - y * qx)


def line_det(l1: Line, l2: Line):
    """[L, M] = L.u M.t - L.t M.u, Cramer's determinant of two lines, as a
    raw value: zero exactly when they are parallel."""
    (t, u, _), (mt, mu, _) = l1.raw, l2.raw
    det, p = u * mt - t * mu, _field_of(l1, l2).p
    return det % p if p else det


# The meet, midpoint, product and gradient rules below, on raw tuples, are
# the only ones; intersect, midpoint and Conic.from_lines run them.

# A raw line's crossing with another, when it is not an affine point.
_PARALLEL = "parallel"
_SAME = "same line"


def _meet(l, m, p: int | None):
    """Where raw line l meets raw line m: an affine (x, y), _PARALLEL or
    _SAME, by Cramer's rule on the two lines cleared together (_integral),
    whose determinant is line_det's times a nonzero int."""
    t, u, v, mt, mu, mv = _integral(l + m, p)
    det = u * mt - t * mu
    if not (det % p if p else det):
        return _SAME if l == m else _PARALLEL
    return _affine(v * mu - u * mv, v * mt - t * mv, det, p)


def _product(l, m) -> tuple:
    """The conic l*m of two raw lines tX - uY + v = 0 without its constant
    term: its coefficients of X^2, XY, Y^2, X and Y."""
    (t1, u1, v1), (t2, u2, v2) = l, m
    return (t1 * t2, -(t1 * u2 + u1 * t2), u1 * u2, t1 * v2 + v1 * t2, -(u1 * v2 + v1 * u2))


def _gradient(c, m) -> tuple:
    """w*grad C(x/w, y/w) for the conic C of coefficients c (see _product)
    at the homogeneous raw point m = (x, y, w): L_C(m, d) = grad C(m) . d
    is the coefficient of s in C(m + s*d)."""
    (xx, xy, yy, x, y), (mx, my, w) = c, m
    return (2 * xx * mx + xy * my + x * w, xy * mx + 2 * yy * my + y * w)


def _mid(c1, c2, p: int | None):
    """A line's midpoint across a pair it meets at c1 and c2 (see _meet):
    None when the line does not cross the pair, _PARALLEL for the line's
    own infinite point, else the midpoint of the two affine points."""
    if c1 is _SAME or c2 is _SAME or (c1 is _PARALLEL and c2 is _PARALLEL):
        return None
    if c1 is _PARALLEL or c2 is _PARALLEL:
        return _PARALLEL
    # Division by 2 is always possible: characteristic != 2.  Two bodies, as
    # one on _cleared points over _affine made fixture verify over Q 3-6% slower.
    if not p:
        (x1, y1), (x2, y2) = c1, c2
        return (_rat(x1._numerator * x2._denominator + x2._numerator * x1._denominator,
                     2 * x1._denominator * x2._denominator),
                _rat(y1._numerator * y2._denominator + y2._numerator * y1._denominator,
                     2 * y1._denominator * y2._denominator))
    x, y = c1[0] + c2[0], c1[1] + c2[1]
    half = (p + 1) // 2
    return (x * half % p, y * half % p)


def _field_of(a, b) -> Field:
    """The field of two kernel values; FieldMismatch when they differ."""
    if a.field is not b.field:
        raise FieldMismatch(f"{a.field.name} vs {b.field.name}")
    return a.field


def intersect(l1: Line, l2: Line) -> PlanePoint:
    """Intersection point; at infinity when the lines are parallel."""
    field = _field_of(l1, l2)
    c = _meet(l1.raw, l2.raw, field.p)
    if c is _SAME:
        raise IdenticalLines("lines coincide")
    return l1.infinite_point() if c is _PARALLEL else Point.of(field, c)


def midpoint(p: Point, q: Point) -> Point:
    field = _field_of(p, q)
    return Point.of(field, _mid(p.raw, q.raw, field.p))


class AffineMap(Frozen):
    """x |-> Mx + b with invertible linear part M."""

    __slots__ = ("m00", "m01", "m10", "m11", "b0", "b1")

    def __init__(self, m00, m01, m10, m11, b0, b1):
        for x in (m01, m10, m11, b0, b1):
            _field_of(m00, x)
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

    def apply(self, line: Line) -> Line:
        """Image of a line: lines move by the adjugate of M."""
        if not isinstance(line, Line):
            raise TypeError(f"cannot apply an affine map to {line!r}")
        field = _field_of(self, line)
        # The cleared matrix [[m00, m01, b0], [m10, m11, b1], [0, 0, w]].
        (m00, m01, m10, m11, b0, b1, w), (t, u, v, _) = (
            _cleared(tuple(getattr(self, name).value for name in self.__slots__), field.p),
            _cleared(line.raw, field.p))
        t2, u2 = t * m11 + u * m10, t * m01 + u * m00
        return Line.of(field, (w * t2, w * u2, (m00 * m11 - m01 * m10) * v - t2 * b0 + u2 * b1))

    def __repr__(self):
        return (
            f"AffineMap([[{self.m00}, {self.m01}], [{self.m10}, {self.m11}]]"
            f" + ({self.b0}, {self.b1}))"
        )
