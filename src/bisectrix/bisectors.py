"""Bisector predicates, the bisector locus and Q-pairs.

A line crosses a pair of lines when it is distinct from both and not
parallel to both; its midpoint across the pair is the midpoint of the two
intersection points (the line's own infinite point if exactly one of them
is at infinity).  A line bisects a quadrilateral when its midpoints across
the two opposite-side pairs it crosses agree; that common point is the
midpoint of the bisector and is always affine.  That definition, on the
meets with the four sides, is the oracle's alone (oracle._bisector_mid).
The kernel reads the pencil of the side products F = A*A' and G = B*B'
instead, memoised on the quadrilateral (_side_products; arXiv 2305.11762:
the pencil is asymptotically the bisector field): is_bisector, is_q_pair
and q_partner decide a line by one rule on it (_pencil_mid), and q_partner
and bisector_through read their answers off it.  The bisector locus is the
set of centers of the pencil's conics (_jacobian), where the gradients of
F and G are parallel, which is bisector_through's test at a point.  All of
them run on raw tuples and build their answers with Line.of, Point.of and
Conic.of.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import prod

from .errors import InvariantViolation, NotABisector, NotBisectors
from .field import Scalar
from .form import QuadraticData, q_orthogonal, quadratic_data
from .pencil import Conic, _evaluate
from .plane import (
    Line,
    LinePair,
    PlanePoint,
    Point,
    _affine,
    _cleared,
    _field_of,
    _gradient,
    _integral,
    _mid,
    _product,
    intersect,
    line_from_points,
    midpoint,
)
from .quad import Quadrangle, Quadrilateral


@dataclass(frozen=True)
class Bisector:
    line: Line
    midpoint: Point


@dataclass(frozen=True)
class AllLinesThrough:
    """Marker result: every line through center bisects (parallelogram case)."""

    center: Point


def is_bisector(q: Quadrilateral, l: Line) -> Point | None:
    """The midpoint of l as a bisector of q, or None if l does not bisect.

    Only the two opposite-side pairs are consulted (sides and diagonals
    come out as bisectors of themselves); agreement with the third pair of
    the quadrangle is a theorem, not part of the predicate.  Decided on the
    side-product pencil (_pencil_mid).
    """
    field = _field_of(l, q)
    m = _pencil_mid(q, l.raw)[0]
    return None if m is None else Point.of(field, m)


def bisector_through(q: Quadrilateral, m: Point) -> list[Bisector] | AllLinesThrough:
    """The bisector(s) of q with midpoint m, read off the pencil of F = A*A'
    and G = B*B' like q_partner: a line through m in direction d bisects at
    m exactly when grad F(m) . d = grad G(m) . d = 0 (plane._gradient).  So
    m is on the locus, the centers of the pencil's conics, exactly when the
    two gradients are parallel, and the bisector is normal to the nonzero
    one: J = F_x*G_y - F_y*G_x (_jacobian, bisector_locus's conic) vanishes
    at m.  Empty off the locus; AllLinesThrough(m) when both vanish, at the
    center of a parallelogram's vertex set.  Over Q the side products are
    integral (_side_products) and m is cleared, so Line.of gets ints."""
    field = _field_of(m, q)
    p = field.p
    x, y, w = _cleared(m.raw, p)
    (fx, fy), (gx, gy) = ([d % p if p else d for d in _gradient(c, (x, y, w))]
                          for c in _side_products(q))
    if (fx * gy - fy * gx) % p if p else fx * gy - fy * gx:
        return []
    nx, ny = (fx, fy) if fx or fy else (gx, gy)
    if not (nx or ny):
        return AllLinesThrough(m)
    return [Bisector(Line.of(field, (-nx * w, ny * w, nx * x + ny * y)), m)]


@dataclass(frozen=True)
class LocusConic:
    """The bisector locus: a conic centered at the centroid.

    components is None for a nondegenerate locus; otherwise it is the pair
    (midline of the parallel sides or diagonals, line through their
    midpoints).  The centered representation phi(X - h, Y - k) = constant,
    for the form data of quadratic_data, is kept for rendering.
    """

    conic: Conic
    center: Point
    components: tuple[Line, Line] | None
    data: QuadraticData
    constant: Scalar

    def contains(self, p: PlanePoint) -> bool:
        return self.conic.contains(p)


# For each pair of Quadrilateral.line_pairs, the vertex indices of the
# segment that the quadrilateral cuts on each of its two lines.
_PAIR_SEGMENTS = (((0, 3), (1, 2)), ((0, 1), (2, 3)), ((0, 2), (1, 3)))


def bisector_locus(q: Quadrilateral) -> LocusConic:
    """The locus of midpoints of bisectors: the centers of the conics of
    the pencil of F = A*A' and G = B*B', the conic J = F_x*G_y - F_y*G_x
    (_jacobian; bisector_through tests J at a point).  J equals
    -2*(phi(X - h, Y - k) - constant) for the centroid (h, k), so the
    constant is J(h, k)/2.  J is taken on the memoised _side_products, on
    which over Q it comes out times the product of the sides' W's
    (plane._cleared); the constant divides that out, to be exact in
    quadratic_data's scale."""
    field, c = q.field, q.centroid
    j = _jacobian(*_side_products(q))
    x, y, w = _cleared(c.raw, field.p)
    value = _evaluate((*j[:3], j[3] * w, j[4] * w, j[5] * w * w), (x, y))
    scale = 2 * w * w * prod(_cleared(side.raw, field.p)[-1] for side in q.sides)
    constant = field.scalar(value) / field.scalar(scale)
    conic = Conic.of(field, j)
    components = None
    v = q.vertices
    for (l1, l2), ((i1, j1), (i2, j2)) in zip(q.line_pairs, _PAIR_SEGMENTS):
        if l1.is_parallel(l2):
            mid_line = Line(l1.t, l1.u, (l1.v + l2.v) / 2)
            m1, m2 = midpoint(v[i1], v[j1]), midpoint(v[i2], v[j2])
            components = (mid_line, line_from_points(m1, m2))
            break
    if (components is not None) != constant.is_zero():
        raise InvariantViolation("the locus splits exactly when its constant vanishes")
    if components is not None and Conic.from_lines(*components) != conic:
        raise InvariantViolation("a split locus is the product of its two lines")
    return LocusConic(conic, c, components, quadratic_data(q), constant)


def nine_points(qr: Quadrangle) -> list[PlanePoint]:
    """The midpoints of the six vertex pairs (01, 02, 03, 12, 13, 23)
    followed by the three diagonal points."""
    points: list[PlanePoint] = [midpoint(a, b) for a, b in combinations(qr.points, 2)]
    return points + [intersect(pair.a, pair.b) for pair in qr.opposite_side_pairs()]


def is_q_pair(q: Quadrilateral, pair: LinePair) -> bool:
    """Q-antipodal and Q-orthogonal; the two lines may coincide.  Both
    midpoints come from is_bisector's rule (_pencil_mid)."""
    p = _field_of(pair.a, q).p
    mids = [_pencil_mid(q, l.raw)[0] for l in pair.lines]
    if None in mids:
        raise NotBisectors(f"{pair} does not consist of bisectors")
    return (_mid(*mids, p) == q.centroid.raw
            and q_orthogonal(quadratic_data(q), pair.a, pair.b))


def _side_products(q: Quadrilateral) -> tuple[tuple, tuple]:
    """The side products F = A*A' and G = B*B' (plane._product) on the
    sides' _integral tuples, memoised on q: the pencil that q_partner and
    bisector_through read."""
    if q._pencil is None:
        sides = [_integral(side.raw, q.field.p) for side in (q.a, q.a2, q.b, q.b2)]
        object.__setattr__(q, "_pencil", (_product(*sides[:2]), _product(*sides[2:])))
    return q._pencil


def _jacobian(f, g) -> tuple:
    """J = F_x*G_y - F_y*G_x for the conics of raw coefficients f and g
    (see plane._product), as raw coefficients of X^2, XY, Y^2, X, Y and 1:
    its value at a point is the cross product of the two gradients there
    (plane._gradient), the test of bisector_through."""
    (a, b, c, d, e), (k, l, m, n, o) = f, g
    return (2 * (a * l - b * k), 4 * (a * m - c * k), 2 * (b * m - c * l),
            2 * (a * o - e * k) + d * l - b * n, b * o - e * l + 2 * (d * m - c * n), d * o - e * n)


def _pencil_ratio(f, g, t, u) -> tuple:
    """[alpha : beta] = [Q_G(d) : -Q_F(d)] for d = (u, t) and the raw side
    products f and g (plane._product): alpha*F + beta*G has no d^2 term."""
    return (g[0] * u * u + g[1] * u * t + g[2] * t * t,
            -(f[0] * u * u + f[1] * u * t + f[2] * t * t))


def _pencil_mid(q: Quadrilateral, l) -> tuple:
    """The raw midpoint of the raw line l as a bisector of q (None when l
    does not bisect), with l's _integral tuple and [alpha : beta], which
    q_partner reads on, all off the pencil of F = A*A' and G = B*B'
    (_side_products).  Along l, through its point P = (0, v/u), or (-v/t, 0)
    when u = 0, in direction d = (u, t), C(P + s*d) = Q_C(d)*s^2 +
    L_C(P, d)*s + C(P).  The roots of F are l's crossings with A and A', so
    its midpoint across that pair is P - L_F/(2*Q_F)*d when Q_F != 0, and
    likewise for G.  A pair that l does not cross (l is one of its lines or
    parallel to both) has Q_C = L_C = 0 on l, and a pair that l meets once
    at infinity has Q_C = 0 != L_C.  So l bisects exactly when Q_F*L_G =
    Q_G*L_F, i.e. alpha*L_F + beta*L_G = 0 for [alpha : beta] of
    _pencil_ratio (never [0 : 0], as a side of one pair is adjacent to both
    sides of the other), and the midpoint is read off a C with Q_C != 0.
    Every step holds up to scale, so over Q it runs on l's _integral tuple,
    with P = (x/w, y/w) and w*L_C read off the gradient at (x, y, w), as in
    bisector_through."""
    field = q.field
    line = t, u, v = _integral(l, field.p)
    x, y, w = (0, v, u) if u else (-v, 0, t)
    f, g = _side_products(q)
    alpha, beta = _pencil_ratio(f, g, t, u)
    lf, lg = (gx * u + gy * t for gx, gy in (_gradient(c, (x, y, w)) for c in (f, g)))
    mid = None
    if not field._coerce(alpha * lf + beta * lg):
        qc, lc = (alpha, lg) if field._coerce(alpha) else (-beta, lf)
        mid = _affine(2 * qc * x - lc * u, 2 * qc * y - lc * t, 2 * w * qc, field.p)
    return mid, line, (alpha, beta)


def q_partner(q: Quadrilateral, l: Line) -> Line:
    """The unique line making a Q-pair with the bisector l, read off the
    pencil of F = A*A' and G = B*B' (arXiv 2305.11762: the pencil is
    asymptotically the bisector field).  Along l, through its midpoint m
    in direction d = (u, t), C(m + s*d) = Q_C(d)*s^2 + L_C(m, d)*s + C(m),
    and L_F(m, d) = L_G(m, d) = 0.  So C = alpha*F + beta*G with [alpha :
    beta] = [Q_G(d) : -Q_F(d)] (_pencil_ratio; never [0 : 0], as adjacent
    sides are never parallel) is constant on l: C - C(m) = l * partner.
    The partner, times u^2, is read off C's Y^2, XY and Y coefficients
    (u != 0), or, times t^2, off X^2, XY and X (u = 0), so C(m) is never
    needed.  Every step holds up to scale, so over Q it runs on the
    _integral tuples of l and the sides (_side_products)."""
    field = _field_of(l, q)
    m, (t, u, v), (alpha, beta) = _pencil_mid(q, l.raw)
    if m is None:
        raise NotABisector(f"{l} does not bisect the quadrilateral")
    f, g = _side_products(q)
    if u:
        xy, yy, y = (alpha * f[i] + beta * g[i] for i in (1, 2, 4))
        return Line.of(field, (-u * xy - t * yy, u * yy, -u * y - v * yy))
    xx, xy, x = (alpha * f[i] + beta * g[i] for i in (0, 1, 3))
    return Line.of(field, (t * xx, -t * xy, t * x - v * xx))
