"""The inner product and quadratic form induced by a quadrilateral.

From the canonical side coefficients a quadrilateral yields a triple
(alpha, beta, gamma); these define the quadratic form
Phi(X, Y) = gamma*X^2 - 2*beta*X*Y + alpha*Y^2 and the symmetric bilinear
form with matrix [[gamma, -beta], [-beta, alpha]].  Two lines are
Q-orthogonal when their (u, t) coefficient vectors pair to zero; this is
equivalent to their infinite points being conjugate under the involution
with matrix [[beta, -alpha], [gamma, -beta]] on the line at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateForm,
    DegenerateInput,
    LineThroughVertex,
    NotConjugate,
    UnderdeterminedPairs,
)
from .field import Frozen, Scalar
from .plane import InfPoint, Line, PlanePoint, line_det
from .quad import Quadrangle, Quadrilateral

Vec = tuple[Scalar, Scalar]


@dataclass(frozen=True)
class QuadraticData:
    alpha: Scalar
    beta: Scalar
    gamma: Scalar

    @property
    def field(self):
        return self.alpha.field

    def discriminant(self) -> Scalar:
        return self.beta * self.beta - self.alpha * self.gamma


def quadratic_data(q: Quadrilateral) -> QuadraticData:
    """The (alpha, beta, gamma) triple from the raw canonical coefficients.

    No rescaling is applied; proportionality of the triples across
    re-pairings of a quadrangle is a theorem, not a normalization.
    """
    ta, ua = q.a.t, q.a.u
    tb, ub = q.b.t, q.b.u
    tc, uc = q.a2.t, q.a2.u
    td, ud = q.b2.t, q.b2.u
    alpha = ta * ub * uc * ud - ua * tb * uc * ud + ua * ub * tc * ud - ua * ub * uc * td
    beta = ta * ub * tc * ud - ua * tb * uc * td
    gamma = ta * tb * tc * ud - ta * tb * uc * td + ta * ub * tc * td - ua * tb * tc * td
    return QuadraticData(alpha, beta, gamma)


def phi(d: QuadraticData, vx: Scalar, vy: Scalar) -> Scalar:
    return d.gamma * vx * vx - 2 * d.beta * vx * vy + d.alpha * vy * vy


def inner(d: QuadraticData, v: Vec, w: Vec) -> Scalar:
    v0, v1 = v
    w0, w1 = w
    return d.gamma * v0 * w0 - d.beta * (v0 * w1 + v1 * w0) + d.alpha * v1 * w1


def q_orthogonal(d: QuadraticData, l1: Line, l2: Line) -> bool:
    return inner(d, (l1.u, l1.t), (l2.u, l2.t)).is_zero()


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
        r0, r1, r2 = _exchange_row(p, q)
        return (r0 * self.m0 + r1 * self.m1 + r2 * self.m2).is_zero()

    def fixes(self, p: InfPoint) -> bool:
        return self.conjugate(p, p)

    def is_reflection(self) -> bool:
        """Fixes the point [1 : 0], i.e. the infinite point of a chart: m2 = 0
        (m0 is then nonzero, since the matrix squares to a nonzero scalar)."""
        return self.m2.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Involution):
            return NotImplemented
        cross = _cross((self.m0, self.m1, self.m2), (other.m0, other.m1, other.m2))
        return all(x.is_zero() for x in cross)

    def __hash__(self):
        raise TypeError("involutions compare up to scale and are unhashable")

    def __repr__(self):
        return f"Involution([[{self.m0}, {self.m1}], [{self.m2}, {-self.m0}]])"


def lambda_q(d: QuadraticData) -> Involution:
    """The involution on the line at infinity whose conjugate pairs are the
    infinite points of Q-orthogonal lines."""
    if d.discriminant().is_zero():
        raise DegenerateForm("beta^2 - alpha*gamma = 0")
    return Involution(d.beta, -d.alpha, d.gamma)


def _exchange_row(p: InfPoint, q: InfPoint) -> tuple[Scalar, Scalar, Scalar]:
    # Linear constraint on (m0, m1, m2) with M = [[m0, m1], [m2, -m0]]
    # expressing M(p) proportional to q.
    return (p.x * q.y + p.y * q.x, p.y * q.y, -(p.x * q.x))


def _cross(r1, r2) -> tuple[Scalar, Scalar, Scalar]:
    return (
        r1[1] * r2[2] - r1[2] * r2[1],
        r1[2] * r2[0] - r1[0] * r2[2],
        r1[0] * r2[1] - r1[1] * r2[0],
    )


def involution_from_pairs(
    pair1: tuple[InfPoint, InfPoint], pair2: tuple[InfPoint, InfPoint]
) -> Involution:
    """The unique involution exchanging both point pairs.

    A trace-free matrix that carries p to q automatically carries q back
    to p, so each pair contributes one linear constraint; the solution is
    the cross product of the two constraint rows.
    """
    m = _cross(_exchange_row(*pair1), _exchange_row(*pair2))
    if all(x.is_zero() for x in m):
        raise UnderdeterminedPairs("constraints are linearly dependent")
    try:
        return Involution(*m)
    except DegenerateInput as err:
        raise UnderdeterminedPairs(str(err)) from err


def chart_point(line: Line, p: PlanePoint) -> InfPoint:
    """Projective parameter of a point of line's closure.

    Affine points are parameterized by their X coordinate (Y for vertical
    lines) as [x : 1]; the line's own infinite point is [1 : 0].
    """
    field = line.field
    if isinstance(p, InfPoint):
        if p != line.infinite_point():
            raise DegenerateInput("infinite point does not lie on the line")
        return InfPoint(field.one, field.zero)
    if not line.contains(p):
        raise DegenerateInput("point does not lie on the line")
    param = p.y if line.is_vertical else p.x
    return InfPoint(param, field.one)


def _crossing_parameter(line: Line, other: Line) -> InfPoint:
    """chart_point(line, intersect(line, other)) for a line other than line,
    as the homogeneous pair [numerator : det] of Cramer's rule."""
    det = line_det(line, other)
    if det.is_zero():
        return InfPoint(det.field.one, det.field.zero)
    if line.is_vertical:
        return InfPoint(line.v * other.t - line.t * other.v, det)
    return InfPoint(line.v * other.u - line.u * other.v, det)


def desargues_involution(qr: Quadrangle, line: Line) -> Involution:
    """The involution induced on a line by the conics through a quadrangle.

    Built from where two pairs of opposite sides of the quadrangle meet the
    line; the third pair is conjugate under the same involution, which is
    checked (NotConjugate otherwise).  The involution acts on chart
    parameters (see chart_point).
    """
    for v in qr.points:
        if line.contains(v):
            raise LineThroughVertex(f"line passes through vertex {v}")
    params = [
        tuple(_crossing_parameter(line, member) for member in pair.lines)
        for pair in qr.opposite_side_pairs()
    ]
    inv = involution_from_pairs(params[0], params[1])
    if not inv.conjugate(*params[2]):
        raise NotConjugate(f"the third pair of opposite sides is not conjugate on {line}")
    return inv
