"""Conics, the pencil of a quadrilateral, classification and degenerations.

A conic is a quadratic polynomial a*X^2 + b*X*Y + c*Y^2 + d*X + e*Y + f
with (a, b, c) not all zero, stored with the first nonzero coefficient
normalized to 1.  Classification counts points at infinity over the ground
field, so it is deliberately field-dependent: Y^2 - 2X^2 + 1 is an ellipse
over Q and a hyperbola over GF(7).

Degenerations of a conic are the line pairs whose union is the zero set of
the conic plus a constant; they are computed over the ground field only,
and a pair that would need a quadratic extension is reported absent
together with the nonsquare discriminant that witnesses it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput, InvariantViolation
from .field import Frozen, Scalar
from .plane import (
    InfPoint, Line, LinePair, PlanePoint, Point, _field_of, _product, _raw_line, _raw_point,
)
from .quad import Quadrilateral

_COEFF_NAMES = ("a", "b", "c", "d", "e", "f")


def format_polynomial(terms) -> str:
    """Render (coefficient, monomial) terms as a signed sum such as
    "X^2 - 1/2*X*Y + 3"; zero terms are skipped, unit coefficients are
    dropped before a monomial, and an all-zero sum renders as "0"."""
    out = ""
    for coeff, mono in terms:
        if coeff.is_zero():
            continue
        text = str(coeff)
        negative = text.startswith("-")
        mag = text[1:] if negative else text
        if mono and mag == "1":
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = mag
        if out:
            out += f" {'-' if negative else '+'} {body}"
        else:
            out = ("-" if negative else "") + body
    return out or "0"


class Conic(Frozen):
    """Six normalized coefficients of a quadratic polynomial."""

    __slots__ = _COEFF_NAMES

    def __init__(self, a, b, c, d, e, f):
        coeffs = (a, b, c, d, e, f)
        if a.is_zero() and b.is_zero() and c.is_zero():
            raise DegenerateInput("quadratic part vanishes")
        lead = next(x for x in coeffs if not x.is_zero())
        self._write(*(x / lead for x in coeffs))

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple(getattr(self, name) for name in _COEFF_NAMES)

    @classmethod
    def from_lines(cls, l1: Line, l2: Line) -> "Conic":
        """Product of the two canonical linear forms (plane._product)."""
        field = _field_of(l1, l2)
        r1, r2 = _raw_line(l1), _raw_line(l2)
        return cls(*(field.scalar(c) for c in (*_product(r1, r2), r1[2] * r2[2])))

    def shift(self, lam: Scalar) -> "Conic":
        """The conic plus a constant; normalization is unaffected."""
        a, b, c, d, e, f = self.coeffs
        return Conic(a, b, c, d, e, f + lam)

    def evaluate(self, p: Point) -> Scalar:
        field = _field_of(self, p)
        a, b, c, d, e, f = (x.value for x in self.coeffs)
        x, y = _raw_point(p)
        value = (a * x + b * y + d) * x + (c * y + e) * y + f
        return field.scalar(value)

    def evaluate_infinite(self, p: InfPoint) -> Scalar:
        """Homogenized value at [x : y : 0], i.e. the leading form."""
        return self.a * p.x * p.x + self.b * p.x * p.y + self.c * p.y * p.y

    def contains(self, p: PlanePoint) -> bool:
        if isinstance(p, InfPoint):
            return self.evaluate_infinite(p).is_zero()
        return self.evaluate(p).is_zero()

    def leading_discriminant(self) -> Scalar:
        return self.b * self.b - 4 * self.a * self.c

    def det3(self) -> Scalar:
        """Determinant of the symmetric 3x3 matrix of the homogenized conic."""
        a, b, c, d, e, f = self.coeffs
        b2, d2, e2 = b / 2, d / 2, e / 2
        return (
            a * (c * f - e2 * e2)
            - b2 * (b2 * f - d2 * e2)
            + d2 * (b2 * e2 - c * d2)
        )

    def is_degenerate(self) -> bool:
        return self.det3().is_zero()

    def __str__(self):
        return format_polynomial(zip(self.coeffs, ("X^2", "X*Y", "Y^2", "X", "Y", "")))

    def __repr__(self):
        return f"Conic<{self}>"


@dataclass(frozen=True)
class ConicClass:
    """Classification by points at infinity over k and reducibility over k."""

    kind: str  # ellipse | parabola | hyperbola | degenerate_pair | degenerate_irreducible
    pair: LinePair | None = None

    def __str__(self):
        if self.pair is not None:
            return f"{self.kind} {self.pair}"
        return self.kind


@dataclass(frozen=True)
class Degeneration:
    lam: Scalar
    pair: LinePair


@dataclass(frozen=True)
class ParallelFamily:
    """All degenerations of a parallel-line-pair conic.

    The pairs are exactly {midline shifted by +r, midline shifted by -r}
    for r in the field (r = 0 gives the double midline).
    """

    conic: "Conic"
    midline: Line

    def pair_at_offset(self, r: Scalar) -> Degeneration:
        pair = _offset_pair(self.midline, r)
        return Degeneration(_lambda_for(self.conic, pair.a, pair.b), pair)


@dataclass(frozen=True)
class DegenerationReport:
    """Degenerations of a conic over the ground field.

    entries holds the isolated degenerations (at most one: the asymptote
    pair); family is set for parallel-line-pair conics; absent_witness is
    the nonsquare leading discriminant when the unique degeneration exists
    only over a quadratic extension.
    """

    entries: tuple[Degeneration, ...]
    family: ParallelFamily | None = None
    absent_witness: Scalar | None = None


def _lambda_for(conic: Conic, l1: Line, l2: Line) -> Scalar:
    """The constant lam with conic + lam equal to the product l1*l2: both
    are normalized, so their constant terms differ by exactly lam."""
    product = Conic.from_lines(l1, l2)
    lam = product.f - conic.f
    if conic.shift(lam) != product:
        raise InvariantViolation(f"{conic} shifted by {lam} is not {product}")
    return lam


def _central_pair(c: Conic, o: Point, root: Scalar) -> LinePair:
    """The lines through o along the null directions [dx : dy] of c's
    quadratic part, whose discriminant has the nonzero square root root."""
    A, B, C, field = c.a, c.b, c.c, c.field
    if A.is_zero():
        directions = ((field.one, field.zero), (-C, B))
    else:
        directions = ((r / (2 * A), field.one) for r in (-B + root, -B - root))
    return LinePair(*(Line(dy, dx, dx * o.y - dy * o.x) for dx, dy in directions))


def _offset_pair(midline: Line, r: Scalar) -> LinePair:
    """The parallel pair midline + r and midline - r."""
    t, u, v = midline.t, midline.u, midline.v
    return LinePair(Line(t, u, v + r), Line(t, u, v - r))


def _midline(c: Conic) -> Line | None:
    """For a conic whose quadratic part is the square of a linear form w,
    the line w + s/2 = 0 when c = k*(w^2 + s*w) + const: the common midline
    of every parallel pair c + lam splits into.  None when the linear part
    is not a multiple of w (a parabola)."""
    A, B, C, D, E = c.a, c.b, c.c, c.d, c.e
    if not A.is_zero():
        if 2 * A * E != B * D:
            return None
        return Line(c.field.one, -B / (2 * A), D / (2 * A))
    if not D.is_zero():
        return None
    return Line(c.field.zero, -c.field.one, E / (2 * C))


def classify(c: Conic) -> ConicClass:
    """A degenerate c splits as degenerations(c) does: into the asymptote
    pair (lam = 0), or into L + r, L - r of its parallel family, with c =
    (L^2 - r^2)/k for the midline L = tX - uY + v, k = t^2 (1 if t = 0)."""
    if c.is_degenerate():
        report = degenerations(c)
        pair = report.entries[0].pair if report.entries else None
        if report.family is not None:
            midline = report.family.midline
            t, v = midline.t, midline.v
            r = (v * v - (c.field.one if t.is_zero() else t * t) * c.f).sqrt()
            pair = None if r is None else _offset_pair(midline, r)
        if pair is None:
            return ConicClass("degenerate_irreducible")
        return ConicClass("degenerate_pair", pair)
    disc = c.leading_discriminant()
    if disc.is_zero():
        return ConicClass("parabola")
    if disc.sqrt() is not None:
        return ConicClass("hyperbola")
    return ConicClass("ellipse")


def degenerations(c: Conic) -> DegenerationReport:
    """All constants lam with c + lam reducible over the ground field."""
    disc = c.leading_discriminant()
    if not disc.is_zero():
        root = disc.sqrt()
        if root is None:
            return DegenerationReport(entries=(), absent_witness=disc)
        # c is its value at the center plus a form in the offset from it;
        # the gradient vanishes there, so that value is f + (d*x + e*y)/2.
        # c + lam has c's quadratic part and center, so it splits as c does.
        o = center(c)
        lam = -(c.f + (c.d * o.x + c.e * o.y) / 2)
        return DegenerationReport(entries=(Degeneration(lam, _central_pair(c, o, root)),))
    # Perfect-square leading form: either a parabola (no degenerations) or
    # a one-parameter family of parallel pairs sharing a midline.
    midline = _midline(c)
    if midline is None:
        return DegenerationReport(entries=())
    return DegenerationReport(entries=(), family=ParallelFamily(c, midline))


def center(c: Conic) -> Point | None:
    """Solution of the gradient system; None when it is not unique."""
    det = 4 * c.a * c.c - c.b * c.b
    if det.is_zero():
        return None
    x = (c.b * c.e - 2 * c.c * c.d) / det
    y = (c.b * c.d - 2 * c.a * c.e) / det
    return Point(x, y)


@dataclass(frozen=True)
class Pencil:
    """Generated by the two degenerate conics of the opposite-side pairs."""

    f1: Conic
    f2: Conic

    def member(self, alpha: Scalar, beta: Scalar) -> Conic:
        if alpha.is_zero() and beta.is_zero():
            raise DegenerateInput("pencil member needs (alpha, beta) != (0, 0)")
        return Conic(*(alpha * x + beta * y for x, y in zip(self.f1.coeffs, self.f2.coeffs)))


def pencil_of(q: Quadrilateral) -> Pencil:
    f1 = Conic.from_lines(q.a, q.a2)
    f2 = Conic.from_lines(q.b, q.b2)
    if q.proper and not all(f1.contains(v) and f2.contains(v) for v in q.vertices):
        raise InvariantViolation("both generators of the pencil pass through every vertex")
    return Pencil(f1, f2)

