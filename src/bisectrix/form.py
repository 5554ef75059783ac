"""The inner product and quadratic form induced by a quadrilateral.

From the canonical side coefficients a quadrilateral yields a triple
(alpha, beta, gamma); these define the quadratic form
Phi(X, Y) = gamma*X^2 - 2*beta*X*Y + alpha*Y^2 and the symmetric bilinear
form with matrix [[gamma, -beta], [-beta, alpha]].  Two lines are
Q-orthogonal when their (u, t) coefficient vectors pair to zero; this is
equivalent to their infinite points being conjugate under the involution
with matrix [[beta, -alpha], [gamma, -beta]] on the line at infinity.
inner and Involution.conjugate compute on raw values (see plane) and wrap a
Scalar only in what they return; each quantity has one formula, so phi is
inner of a vector with itself and desargues_involution is desargues_pencil
evaluated at the line's offset v.
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
from .plane import _NO_LINE, InfPoint, Line, _cleared, _field_of
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
    """The (alpha, beta, gamma) triple from the raw canonical coefficients,
    wrapped once and memoised on q.

    No rescaling is applied; proportionality of the triples across
    re-pairings of a quadrangle is a theorem, not a normalization.  The
    triple is linear in each side's (t, u), so it is computed on each side's
    cleared (T, U, W) and divided once by the product of the W's.
    """
    if q._quadratic_data is not None:
        return q._quadratic_data
    p = q.field.p
    (ta, ua, wa), (tb, ub, wb), (tc, uc, wc), (td, ud, wd) = (
        _cleared(l.raw[:2], p) for l in q.sides)
    alpha = ta * ub * uc * ud - ua * tb * uc * ud + ua * ub * tc * ud - ua * ub * uc * td
    beta = ta * ub * tc * ud - ua * tb * uc * td
    gamma = ta * tb * tc * ud - ta * tb * uc * td + ta * ub * tc * td - ua * tb * tc * td
    w = q.field.scalar(wa * wb * wc * wd)
    data = QuadraticData(*(q.field.scalar(c) / w for c in (alpha, beta, gamma)))
    object.__setattr__(q, "_quadratic_data", data)
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
    # expressing M(p) proportional to q, for homogeneous pairs p = (x, y)
    # and q of any ring: Scalars, or raw values (_class_row and
    # Involution.conjugate).
    (px, py), (qx, qy) = p, q
    return (px * qy + py * qx, py * qy, -(px * qx))


def _cross(r1, r2) -> tuple:
    return (
        r1[1] * r2[2] - r1[2] * r2[1],
        r1[2] * r2[0] - r1[0] * r2[2],
        r1[0] * r2[1] - r1[1] * r2[0],
    )


def _class_parameters(pairs, t, u, p: int | None):
    """Where the lines tX - uY + v = 0 of the parallel class of raw (t, u)
    meet each side of the given pairs of opposite sides (LinePairs), as the
    chart parameter [a + b*v : det] of Cramer's rule: one raw (a, b, det)
    per side (see plane; unreduced), two per pair.

    The chart of a line reads an affine point as [x : 1], with x its X
    coordinate, or its Y on a vertical line, and the line's own infinite
    point as [1 : 0].  det = u*st - t*su (plane.line_det) is the same for
    every line of the class; a side of the class's direction meets each of
    its lines at [1 : 0].
    """
    def parameter(st, su, sv):
        det = u * st - t * su
        if not (det % p if p else det):
            return (1, 0, 0)
        # The chart reads Y on a vertical line.
        return (-u * sv, su, det) if u else (-t * sv, st, det)

    return [[parameter(*pair.a.raw), parameter(*pair.b.raw)] for pair in pairs]


def _class_row(pair) -> tuple:
    """The exchange row of a pair of chart parameters [a + b*v : det] (see
    _class_parameters) along the class, as raw coefficient tuples in v
    (lowest degree first): the sum x1*y2 + y1*x2 (2 entries), the product
    y1*y2 (1) and -x1*x2 (3).  The row is bilinear in the two points, so
    its coefficient of v^k is the sum of the _exchange_row of the points'
    parts [a : det] (degree 0) and [b : 0] (degree 1) whose degrees add to
    k."""
    (a1, b1, d1), (a2, b2, d2) = pair
    s0, e, n0 = _exchange_row((a1, d1), (a2, d2))
    s1, _, n1 = _exchange_row((a1, d1), (b2, 0))
    t1, _, m1 = _exchange_row((b1, 0), (a2, d2))
    n2 = _exchange_row((b1, 0), (b2, 0))[2]
    return (s0, s1 + t1), e, (n0, n1 + m1, n2)


def desargues_pencil(qr: Quadrangle, t: Scalar, u: Scalar) -> tuple[tuple, tuple, tuple]:
    """The Desargues involution along the whole parallel class tX - uY + v = 0.

    Returns the raw coefficients (lowest degree first) of the polynomials
    m0, m1, m2 in v, as tuples of exactly 3, 4 and 2 entries (degree at
    most 2, 3 and 1, trailing zeros kept): ints reduced mod p, or _Rats over
    Q.  On each line of the class that avoids qr's vertices
    desargues_involution is the matrix [[m0(v), m1(v)], [m2(v), -m0(v)]] up
    to scale.  Its reflections, the class's bisectors, are the roots of m2.
    With (t, u) normalised as in Line, v is the offset of the canonical
    line.  The triple is the cross product (_cross) of the first two pairs'
    exchange rows along the class (_class_row), multiplied out term by term
    on raw values; only those two pairs are crossed (the third is
    desargues_involution's check), and no Line is built.
    """
    if t.field is not qr.field or u.field is not qr.field:
        raise FieldMismatch("class direction and quadrangle from different fields")
    if t.is_zero() and u.is_zero():
        raise DegenerateInput(_NO_LINE)
    p = qr.field.p
    first, second = _class_parameters(qr.opposite_side_pairs()[:2], t.value, u.value, p)
    (s0, s1), e, (n0, n1, n2) = _class_row(first)
    (z0, z1), f, (k0, k1, k2) = _class_row(second)
    triple = ((e * k0 - n0 * f, e * k1 - n1 * f, e * k2 - n2 * f),
              (n0 * z0 - s0 * k0, n0 * z1 + n1 * z0 - s0 * k1 - s1 * k0,
               n1 * z1 + n2 * z0 - s0 * k2 - s1 * k1, n2 * z1 - s1 * k2),
              (s0 * f - e * z0, s1 * f - e * z1))
    return tuple(tuple([c % p if p else QQ._coerce(c) for c in m]) for m in triple)


def desargues_involution(qr: Quadrangle, line: Line) -> Involution:
    """The involution induced on a line by the conics through a quadrangle:
    desargues_pencil of the line's class at the line's offset v.  The third
    pair of opposite sides is conjugate under the same involution, which is
    checked (NotConjugate otherwise).  The involution acts on the chart
    parameters of _class_parameters; it is a reflection, fixing the line's
    infinite point, exactly when m2 = 0.  Off the vertices the triple is
    never degenerate: m0^2 + m1*m2 is, up to sign, the product of the cross
    determinants of the first two pairs' crossings, which are distinct points
    (the identity oracle._desargues_class_cleared checks), so a
    DegenerateInput here is a kernel fault.
    """
    for v in qr.points:
        if line.contains(v):
            raise LineThroughVertex(f"line passes through vertex {v}")
    field = line.field
    t, u, v = line.raw
    inv = Involution(*(field.scalar(sum(c * v ** k for k, c in enumerate(m)))
                       for m in desargues_pencil(qr, line.t, line.u)))
    (third,) = _class_parameters(qr.opposite_side_pairs()[2:], t, u, field.p)
    if not inv.conjugate(*(InfPoint(field.scalar(a + b * v), field.scalar(det))
                           for a, b, det in third)):
        raise NotConjugate(f"the third pair of opposite sides is not conjugate on {line}")
    return inv
