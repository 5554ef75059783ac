"""The inner product and quadratic form induced by a quadrilateral.

A quadrilateral yields a triple (alpha, beta, gamma), read off the pencil
of its side products F = A*A' and G = B*B' (arXiv 2305.11762): minus the
cross product of their quadratic parts.  It defines the quadratic form
Phi(X, Y) = gamma*X^2 - 2*beta*X*Y + alpha*Y^2 and the symmetric bilinear
form with matrix [[gamma, -beta], [-beta, alpha]].  Two lines are
Q-orthogonal when their (u, t) coefficient vectors pair to zero; this is
equivalent to their infinite points being conjugate under the involution
with matrix [[beta, -alpha], [gamma, -beta]] on the line at infinity.
The Desargues involution of a quadrangle along a parallel class is read
off the same kind of pencil, the products of two pairs of opposite sides
restricted to the class (_restriction); the oracle derives it from each
side's crossing with the class instead.  inner and Involution.conjugate
compute on raw values (see plane) and wrap a Scalar only in what they
return; each quantity has one formula, so phi is inner of a vector with
itself and desargues_involution is desargues_pencil evaluated at the
line's offset v.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateForm,
    DegenerateInput,
    FieldMismatch,
    LineThroughVertex,
    NotConjugate,
)
from .field import QQ, Frozen, Scalar
from .plane import _NO_LINE, InfPoint, Line, _cleared, _field_of, _integral, _product
from .quad import Quadrangle, Quadrilateral

Vec = tuple[Scalar, Scalar]


@dataclass(frozen=True)
class QuadraticData:
    alpha: Scalar
    beta: Scalar
    gamma: Scalar

    def __post_init__(self):
        _field_of(self.alpha, self.beta)
        _field_of(self.alpha, self.gamma)

    @property
    def field(self):
        return self.alpha.field

    def discriminant(self) -> Scalar:
        return self.beta * self.beta - self.alpha * self.gamma


def quadratic_data(q: Quadrilateral) -> QuadraticData:
    """The (alpha, beta, gamma) triple, wrapped once and memoised on q:
    minus the cross product of the quadratic parts Q_F and Q_G (the first
    three entries of plane._product) of the side products F = A*A' and
    G = B*B', so that beta^2 - alpha*gamma is the resultant of Q_F and Q_G.

    No rescaling is applied; proportionality of the triples across
    re-pairings of a quadrangle is a theorem, not a normalization.  Q_F and
    Q_G are linear in each side's (t, u), so they are computed on each
    side's cleared (T, U, W), which _product reads as a line TX - UY + W
    (the quadratic part does not involve W), and the triple is divided
    once by the product of the W's.
    """
    if q._quadratic_data is not None:
        return q._quadratic_data
    field = q.field
    a, b, a2, b2 = (_cleared(l.raw[:2], field.p) for l in q.sides)
    w = field.scalar(-a[2] * b[2] * a2[2] * b2[2])
    triple = _cross(_product(a, a2)[:3], _product(b, b2)[:3])
    object.__setattr__(q, "_quadratic_data", QuadraticData(*(field.scalar(c) / w for c in triple)))
    return q._quadratic_data


def phi(d: QuadraticData, vx: Scalar, vy: Scalar) -> Scalar:
    """The form at (vx, vy): inner of the vector with itself."""
    return inner(d, (vx, vy), (vx, vy))


def inner(d: QuadraticData, v: Vec, w: Vec) -> Scalar:
    """The bilinear form on two pairs of Scalars of d's field (FieldMismatch
    otherwise), or of raw values (see plane), wrapped once."""
    for c in (*v, *w):
        if isinstance(c, Scalar):
            _field_of(d, c)
    v0, v1, w0, w1 = (c.value if isinstance(c, Scalar) else c for c in (*v, *w))
    g, b, a = d.gamma.value, d.beta.value, d.alpha.value
    return d.field.scalar(g * v0 * w0 - b * (v0 * w1 + v1 * w0) + a * v1 * w1)


def q_orthogonal(d: QuadraticData, l1: Line, l2: Line) -> bool:
    _field_of(d, l1)
    _field_of(l1, l2)
    (t1, u1, _), (t2, u2, _) = l1.raw, l2.raw
    return inner(d, (u1, t1), (u2, t2)).is_zero()


class Involution(Frozen):
    """An involutive homography of P1: the trace-free matrix [[m0, m1],
    [m2, -m0]] up to scale (a non-scalar matrix squares to a scalar exactly
    when its trace is 0).  Conjugacy is one exchange row dotted with the
    triple; equality up to scale is a vanishing cross product."""

    __slots__ = ("m0", "m1", "m2")

    def __init__(self, m0: Scalar, m1: Scalar, m2: Scalar):
        if (m0 * m0 + m1 * m2).is_zero():
            raise DegenerateInput("matrix does not square to a nonzero scalar")
        self._write(m0, m1, m2)

    def conjugate(self, p: InfPoint, q: InfPoint) -> bool:
        """The exchange row of the raw pairs dotted with the raw triple."""
        _field_of(p, q)
        field = _field_of(p, self)
        r0, r1, r2 = _exchange_row(p.raw, q.raw)
        return not field._coerce(r0 * self.m0.value + r1 * self.m1.value + r2 * self.m2.value)

    def fixes(self, p: InfPoint) -> bool:
        return self.conjugate(p, p)

    def __eq__(self, other):
        if not isinstance(other, Involution):
            return NotImplemented
        cross = _cross((self.m0, self.m1, self.m2), (other.m0, other.m1, other.m2))
        return all(x.is_zero() for x in cross)

    def __repr__(self):
        return f"Involution([[{self.m0}, {self.m1}], [{self.m2}, {-self.m0}]])"


def lambda_q(d: QuadraticData) -> Involution:
    """The involution on the line at infinity whose conjugate pairs are the
    infinite points of Q-orthogonal lines."""
    if d.discriminant().is_zero():
        raise DegenerateForm("beta^2 - alpha*gamma = 0")
    return Involution(d.beta, -d.alpha, d.gamma)


def _exchange_row(p, q) -> tuple:
    # Linear constraint on (m0, m1, m2) with M = [[m0, m1], [m2, -m0]]
    # expressing M(p) proportional to q, for homogeneous raw pairs p =
    # (x, y) and q (Involution.conjugate).
    (px, py), (qx, qy) = p, q
    return (px * qy + py * qx, py * qy, -(px * qx))


def _cross(r1, r2) -> tuple:
    return (
        r1[1] * r2[2] - r1[2] * r2[1],
        r1[2] * r2[0] - r1[0] * r2[2],
        r1[0] * r2[1] - r1[1] * r2[0],
    )


def _restriction(c, t, u) -> tuple:
    """The conic of raw coefficients c (see plane._product, then its
    constant) on the lines tX - uY + v = 0 of a parallel class, in the
    chart parameter x of each (its X coordinate, or its Y when u = 0): times
    u^2 (t^2 when u = 0) it is a*x^2 + b*x + e, with b of degree 1 and e
    of degree 2 in v.  Returned as the exchange row (-b, a, -e) of its two
    roots (see _exchange_row; a root at the line's infinite point [1 : 0]
    when a = 0), -b and -e as coefficient tuples in v (lowest degree
    first, 2 and 3 entries)."""
    xx, xy, yy, x, y, k = c
    if u:
        return ((-(x * u + y * t) * u, -(xy * u + 2 * yy * t)),
                xx * u * u + xy * u * t + yy * t * t, (-k * u * u, -y * u, -yy))
    return (-y * t * t, xy * t), yy * t * t, (-k * t * t, x * t, -xx)


def _pair_product(pair, p: int | None) -> tuple:
    """The conic product of a pair of lines (a LinePair; plane._product,
    then the constant) on their _integral tuples, up to a nonzero scale."""
    l, m = (_integral(line.raw, p) for line in pair.lines)
    return (*_product(l, m), l[2] * m[2])


def _pair_products(qr: Quadrangle) -> tuple:
    """_pair_product of the first two pairs of opposite sides, F and G,
    memoised on qr: they do not depend on the parallel class."""
    if qr._products is None:
        pairs = qr.opposite_side_pairs()[:2]
        object.__setattr__(qr, "_products", tuple(_pair_product(pair, qr.field.p) for pair in pairs))
    return qr._products


def desargues_pencil(qr: Quadrangle, t: Scalar, u: Scalar) -> tuple[tuple, tuple, tuple]:
    """The Desargues involution along the whole parallel class tX - uY + v = 0.

    Returns the raw coefficients (lowest degree first) of the polynomials
    m0, m1, m2 in v, as tuples of exactly 3, 4 and 2 entries (degree at
    most 2, 3 and 1, trailing zeros kept): ints reduced mod p, or _Rats over
    Q.  On each line of the class that avoids qr's vertices
    desargues_involution is the matrix [[m0(v), m1(v)], [m2(v), -m0(v)]] up
    to scale.  Its reflections, the class's bisectors, are the roots of m2.
    With (t, u) normalised as in Line, v is the offset of the canonical
    line.  By Desargues' theorem the conics through qr's vertices cut the
    involution's pairs on each line, so the triple is the cross product
    (_cross) of the exchange rows of two of them, the products F and G of
    the first two pairs of opposite sides (memoised on qr by
    _pair_products), restricted to the class (_restriction), multiplied
    out term by term on raw values; the third pair is
    desargues_involution's check, and no Line is built.
    """
    if t.field is not qr.field or u.field is not qr.field:
        raise FieldMismatch("class direction and quadrangle from different fields")
    if t.is_zero() and u.is_zero():
        raise DegenerateInput(_NO_LINE)
    p = qr.field.p
    ((s0, s1), e, (n0, n1, n2)), ((z0, z1), f, (k0, k1, k2)) = (
        _restriction(c, t.value, u.value) for c in _pair_products(qr))
    triple = ((e * k0 - n0 * f, e * k1 - n1 * f, e * k2 - n2 * f),
              (n0 * z0 - s0 * k0, n0 * z1 + n1 * z0 - s0 * k1 - s1 * k0,
               n1 * z1 + n2 * z0 - s0 * k2 - s1 * k1, n2 * z1 - s1 * k2),
              (s0 * f - e * z0, s1 * f - e * z1))
    return tuple(tuple([c % p if p else QQ._coerce(c) for c in m]) for m in triple)


def desargues_involution(qr: Quadrangle, line: Line) -> Involution:
    """The involution induced on a line by the conics through a quadrangle:
    desargues_pencil of the line's class at the line's offset v.  The third
    pair of opposite sides is conjugate under the same involution, which is
    checked on its restriction to the line (_restriction; NotConjugate
    otherwise).  The involution acts on the chart parameter of the line
    (see _restriction); it is a reflection, fixing the line's infinite
    point, exactly when m2 = 0.  Off the vertices the triple is never
    degenerate: m0^2 + m1*m2 is, up to a nonzero factor, the product of
    the cross determinants of the first two pairs' crossings, which are
    distinct points (the identity oracle._desargues_class_cleared checks on
    its own rows), so a DegenerateInput here is a kernel fault.
    """
    for v in qr.points:
        if line.contains(v):
            raise LineThroughVertex(f"line passes through vertex {v}")
    field, (t, u, v) = line.field, line.raw

    def at(coeffs):
        return sum(c * v ** k for k, c in enumerate(coeffs))

    m = [at(coeffs) for coeffs in desargues_pencil(qr, line.t, line.u)]
    inv = Involution(*map(field.scalar, m))
    s, e, n = _restriction(_pair_product(qr.opposite_side_pairs()[2], field.p), t, u)
    if field._coerce(at(s) * m[0] + e * m[1] + at(n) * m[2]):
        raise NotConjugate(f"the third pair of opposite sides is not conjugate on {line}")
    return inv
