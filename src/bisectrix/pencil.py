"""Conics, the pencil of a quadrilateral, classification and degenerations.

A conic is a quadratic polynomial a*X^2 + b*X*Y + c*Y^2 + d*X + e*Y + f
with (a, b, c) not all zero, held like a line (see plane) as its field and
raw coefficients, the first nonzero one normalized to 1.  Classification
counts points at infinity over the ground field, so it is deliberately
field-dependent: Y^2 - 2X^2 + 1 is an ellipse over Q and a hyperbola over
GF(7).

Degenerations of a conic are the line pairs whose union is the zero set of
the conic plus a constant; they are computed over the ground field only,
and a pair that would need a quadratic extension is reported absent
together with the nonsquare discriminant that witnesses it.

The rules asked once per pencil member (is_degenerate, center,
degenerations, ParallelFamily.pair_at_offset) compute on raw coefficients,
each formula in one helper (_evaluate, _discriminant, _det3_numerator,
_center), and wrap a Scalar only in what they return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateInput, FieldMismatch, InvariantViolation
from .field import Field, Frozen, Scalar, _thaw, _wrapped
from .plane import (
    InfPoint, Line, LinePair, PlanePoint, Point, _cleared, _field_of, _integral, _meet, _product,
    _scaled,
)
from .quad import Quadrilateral

_NO_QUADRATIC_PART = "quadratic part vanishes"


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


def _evaluate(raw, xy):
    """The conic of raw coefficients at the raw affine point xy."""
    (a, b, c, d, e, f), (x, y) = raw, xy
    return (a * x + b * y + d) * x + (c * y + e) * y + f


def _discriminant(raw):
    """b^2 - 4ac of the conic's raw quadratic part, unreduced."""
    a, b, c, *_ = raw
    return b * b - 4 * a * c


def _det3_numerator(raw):
    """4*det3 of the conic of raw coefficients, unreduced."""
    a, b, c, d, e, f = raw
    return 4 * a * c * f - a * e * e - b * b * f + b * d * e - c * d * d


def _center(raw, p: int | None):
    """The raw center of the conic of raw coefficients: where the lines
    2A*X + B*Y + D = 0 and B*X + 2C*Y + E = 0 meet, or None when they do
    not meet in one point."""
    A, B, C, D, E, _ = raw
    o = _meet((2 * A, -B, D), (B, -2 * C, E), p)
    return o if isinstance(o, tuple) else None


class Conic(Frozen):
    """Six normalized coefficients of a quadratic polynomial."""

    __slots__ = ("field", "raw")
    a, b, c, d, e, f = map(_wrapped, range(6))

    def __init__(self, a, b, c, d, e, f):
        coeffs = (a, b, c, d, e, f)
        if any(x.field is not a.field for x in coeffs):
            raise FieldMismatch("conic coefficients from different fields")
        raw = [x.value for x in coeffs]
        self._write(a.field, _scaled(raw, a.field.p, (0, 1, 2), _NO_QUADRATIC_PART))

    @classmethod
    def of(cls, field: Field, raw) -> "Conic":
        """The conic of raw coefficients (a, ..., f), reduced and normalized here."""
        return _thaw(cls, (field, _scaled(raw, field.p, (0, 1, 2), _NO_QUADRATIC_PART)))

    @property
    def coeffs(self) -> tuple[Scalar, ...]:
        return tuple(map(self.field._make, self.raw))

    @classmethod
    def from_lines(cls, l1: Line, l2: Line) -> "Conic":
        """Product of the two canonical linear forms (plane._product)."""
        r1, r2 = l1.raw, l2.raw
        return cls.of(_field_of(l1, l2), (*_product(r1, r2), r1[2] * r2[2]))

    def shift(self, lam: Scalar) -> "Conic":
        """The conic plus a constant; normalization is unaffected."""
        *rest, f = self.raw
        return Conic.of(_field_of(self, lam), (*rest, f + lam.value))

    def contains(self, pt: PlanePoint) -> bool:
        """Whether the homogenized conic vanishes at pt, on ints: at the
        cleared (x, y, w) of a Point, at (x, y, 0) for an InfPoint."""
        p = _field_of(self, pt).p
        (a, b, c, d, e, f), (x, y, w) = _integral(self.raw, p), _cleared(pt.raw, p)
        if type(pt) is InfPoint:
            w = 0
        value = (a * x + b * y + d * w) * x + (c * y + e * w) * y + f * w * w
        return not (value % p if p else value)

    def leading_discriminant(self) -> Scalar:
        return self.field.scalar(_discriminant(self.raw))

    def is_degenerate(self) -> bool:
        """Whether det3, the determinant of the symmetric 3x3 matrix of the
        homogenized conic, is 0, tested on its raw numerator (4 is a unit)."""
        return not self.field._coerce(_det3_numerator(self.raw))

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
    are normalized, so that holds exactly when their raw quadratic and
    linear parts agree, and their constant terms differ by lam."""
    product = Conic.from_lines(l1, l2)
    lam = _field_of(product, conic).scalar(product.raw[5] - conic.raw[5])
    if conic.raw[:5] != product.raw[:5]:
        raise InvariantViolation(f"{conic} shifted by {lam} is not {product}")
    return lam


def _central_pair(c: Conic, o: tuple, root) -> LinePair:
    """The lines through the raw point o along the null directions [dx :
    dy] of c's quadratic part, whose discriminant has the nonzero raw
    square root root.  The directions hold up to scale and o = (x/w, y/w),
    so over Q each line is built from ints."""
    p = c.field.p
    A, B, C, r = _integral((*c.raw[:3], root), p)
    x, y, w = _cleared(o, p)
    if not A:
        directions = ((1, A), (-C, B))  # A is zero here
    else:
        directions = ((r - B, 2 * A), (-r - B, 2 * A))
    return LinePair(*(Line.of(c.field, (dy * w, dx * w, dx * y - dy * x))
                      for dx, dy in directions))


def _offset_pair(midline: Line, r: Scalar) -> LinePair:
    """The parallel pair midline + r and midline - r (over Q, of ints)."""
    t, u, v, r = _integral((*midline.raw, r.value), midline.field.p)
    return LinePair(*(Line.of(midline.field, (t, u, v + s)) for s in (r, -r)))


def _midline(c: Conic) -> Line | None:
    """For a conic whose quadratic part is the square of a linear form w,
    the line w + s/2 = 0 when c = k*(w^2 + s*w) + const: the common midline
    of every parallel pair c + lam splits into.  None when the linear part
    is not a multiple of w (a parabola).  Over Q, of ints."""
    p = c.field.p
    A, B, C, D, E = _integral(c.raw[:5], p)
    if A:
        square = 2 * A * E - B * D
        return None if (square % p if p else square) else Line.of(c.field, (2 * A, -B, D))
    return None if D else Line.of(c.field, (A, -2 * C, E))  # A is zero here


def classify(c: Conic) -> ConicClass:
    """A degenerate c splits as degenerations(c) does: into the asymptote
    pair (lam = 0), or into L + r, L - r of its parallel family, with c =
    (L^2 - r^2)/k for the midline L = tX - uY + v, k = t^2 (1 if t = 0)."""
    if c.is_degenerate():
        report = degenerations(c)
        pair = report.entries[0].pair if report.entries else None
        if report.family is not None:
            midline = report.family.midline
            t, _, v = midline.raw
            r = c.field.scalar(v * v - (t * t if t else 1) * c.raw[5]).sqrt()
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
    """All constants lam with c + lam reducible over the ground field,
    computed on raw values; lam and absent_witness are wrapped once."""
    field = c.field
    disc = field._coerce(_discriminant(c.raw))
    if disc:
        root = field._sqrt(disc)
        if root is None:
            return DegenerationReport(entries=(), absent_witness=field._make(disc))
        # c = c(o) + Q(X - o) for its center o and quadratic part Q, as the
        # gradient vanishes at o, so c - c(o) splits into the lines through
        # o along the null directions of Q.
        o = _center(c.raw, field.p)
        entry = Degeneration(field.scalar(-_evaluate(c.raw, o)), _central_pair(c, o, root))
        return DegenerationReport(entries=(entry,))
    # Perfect-square leading form: either a parabola (no degenerations) or
    # a one-parameter family of parallel pairs sharing a midline.
    midline = _midline(c)
    if midline is None:
        return DegenerationReport(entries=())
    return DegenerationReport(entries=(), family=ParallelFamily(c, midline))


def center(c: Conic) -> Point | None:
    """Solution of the gradient system (_center); None when it is not unique."""
    o = _center(c.raw, c.field.p)
    return None if o is None else Point.of(c.field, o)


@dataclass(frozen=True)
class Pencil:
    """Generated by the two degenerate conics of the opposite-side pairs."""

    f1: Conic
    f2: Conic

    def member(self, alpha: Scalar, beta: Scalar) -> Conic:
        if not (self.f1.field is alpha.field is beta.field):
            raise FieldMismatch("pencil member coefficients from another field")
        if alpha.is_zero() and beta.is_zero():
            raise DegenerateInput("pencil member needs (alpha, beta) != (0, 0)")
        a, b = alpha.value, beta.value
        return Conic.of(alpha.field, [a * x + b * y for x, y in zip(self.f1.raw, self.f2.raw)])


def pencil_of(q: Quadrilateral) -> Pencil:
    f1 = Conic.from_lines(q.a, q.a2)
    f2 = Conic.from_lines(q.b, q.b2)
    if q.proper and not all(f1.contains(v) and f2.contains(v) for v in q.vertices):
        raise InvariantViolation("both generators of the pencil pass through every vertex")
    return Pencil(f1, f2)

