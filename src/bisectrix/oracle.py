"""Definition-level reference computations and theorem verification.

Everything here goes straight to the definitions: bisectors are found by
judging every line of a finite plane against the midpoint condition, never
through the closed-form equations, so this module is the independent side
of every dual-route check.

Over GF(p) the exhaustive checks run on raw residues (ints in [0, p)), one
parallel class tX - uY + v = 0 at a time, where every crossing with a fixed
line is affine in the offset v.  brute_bisectors solves the definition once
per class: the bisecting offsets of a class are none, one or every v, and
only the lines that are sides are judged one by one.  desargues_reflection
clears a class whole by exact identities in v between the kernel's class
polynomials and the oracle's own exchange rows, and by the roots of their
factors, and walks it line by line, by the same per-line judgement as over
Q, only when that fails.  The identities are decided once per quadrangle,
on 7 classes, for every class whose kernel coefficients match their
interpolant in the direction t (see _check_desargues).  The identities and
the walk read one exchange row, _raw_exchange_row, which gives each pair's
row as polynomials in v: the walk evaluates them at each v, and the
identities expand their products on plain coefficient tuples (_times).
bisector_field is decided in the same spirit:
a line through its own midpoint m along which the side-pair products
A*A' and B*B' have zero slope at m bisects, at m, every Q-pair whose
product lies in their span plus a constant, so only the pairs and lines
that fail these O(1) tests are met line by line.  The locus zero set
shared by closed_form_oracle and locus_midpoints is solved column by
column off a table of square roots.  The checks that read the sweep
judge its raw ((t, u, v), midpoint) tuples (_Context.solutions):
vertex_line_bisectors looks the raw lines through each vertex up among
them, parallel_bisectors counts their directions, unique_midpoints groups
them by midpoint, repairing_bisectors and closed_form_oracle compare raw
sets, and pair_redundancy buckets them by direction and midpoint.
repairing_bisectors tests the forms of the re-pairings for proportionality
as affine_invariance does, by the cross product (_raw_cross) of their Gram
triples (_gram).  Values are built, by Line.of, Point.of and InfPoint.of,
only where one goes to a kernel function under judgment
(closed_form_oracle's Point per locus zero, the Lines of bisector_lines)
or into a violation text; brute_bisectors and closed_form_bisectors build
Bisectors for their callers outside verify.
Over Q the same helpers take p = None and run on _Rats, so
bisector_field and desargues_reflection each judge both fields by one rule
and differ only in the lines fed in: every line when exhaustive, the sides
and diagonals or the probe lines in the fixture.  The span tests and the
Gram test hold up to a nonzero scale, so over Q their operands are
integral (plane._integral).
Whether a line bisects is judged by the definition, which lives here
alone: _bisector_mid meets the line with the four sides (plane's raw meet
and midpoint) and compares its midpoints across the pairs it crosses, and
brute_bisectors solves it per class, which a small-p test pins to it line
by line.  The kernel decides bisection on the side-product pencil instead
(is_bisector, is_q_pair and q_partner), so every kernel rule, that one
included, is checked against an independent route; the fixture's
locus_midpoints compares is_bisector with _bisector_mid on the sides and
diagonals.

One verify_all call asks the kernel once per quadrilateral for each of
quadratic_data, bisector_locus, q_partner of a line and is_q_pair of a pair,
and builds the Lines of bisector_lines once, all through _Context.once.
lambda_involution and locus_midpoints judge the null directions and the
locus by the kernel's phi, which is its inner of a vector with itself, and
opposite_orthogonal by q_orthogonal, which reads the same inner.
affine_invariance is one exact test per trial: the Gram matrix of q against
its pullback F^T G' F from the image under a random linear map.

The sampler is a plain 64-bit linear congruential generator
(state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64,
drawing from the top 32 bits; a range wider than 2^32 concatenates the top
halves of as many steps as it needs, high half first, before reducing),
chosen so any implementation can reproduce the same instances from the
same seed.
"""

from __future__ import annotations

import time
from functools import reduce
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .bisectors import (
    AllLinesThrough,
    Bisector,
    bisector_locus,
    bisector_through,
    is_bisector,
    is_q_pair,
    nine_points,
    q_partner,
)
from .errors import (ExhaustedSampling, GeometryError, InfiniteField, InvariantViolation,
                     NotBisectors)
from .field import Field, PrimeField, Scalar
from .form import desargues_pencil, lambda_q, phi, q_orthogonal, quadratic_data
from .pencil import center, degenerations, pencil_of
from .plane import (
    _PARALLEL,
    AffineMap,
    InfPoint,
    Line,
    LinePair,
    Point,
    _gradient,
    _integral,
    _meet,
    _mid,
    _product,
)
from .quad import Quadrangle, Quadrilateral, requadrilate

_MAX_TRIES = 10000  # rejection-sampling attempts of random_quadrilateral


class Lcg64:
    """Deterministic 64-bit LCG with the Knuth MMIX constants."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        return self.state

    def below(self, n: int) -> int:
        """A draw in [0, n): the top 32 bits of one step, reduced mod n; for
        n > 2^32, the top halves of ceil(log2(n) / 32) steps, concatenated
        high half first, so every value in range can occur."""
        x = self.next_u64() >> 32
        for _ in range(((n - 1).bit_length() - 1) // 32):
            x = x << 32 | self.next_u64() >> 32
        return x % n


def _p1(field: Field) -> list[tuple[int, int]]:
    """The p + 1 points of P1(GF(p)) as raw residue pairs, each normalized
    as InfPoint's: (1, t) for every t, then (0, 1)."""
    if not isinstance(field, PrimeField):
        raise InfiniteField("line enumeration needs a finite field")
    return [(1, t) for t in range(field.p)] + [(0, 1)]


def enumerate_lines(field: Field) -> list[Line]:
    """All p^2 + p affine lines of GF(p)^2 in canonical form, one parallel
    class tX - uY + v = 0 (v = 0 .. p-1) per point [u : t] of P1."""
    return [Line.of(field, (t, u, v)) for u, t in _p1(field) for v in range(field.p)]


def _raw_lines_through(field: Field, xy: tuple) -> list[tuple]:
    """The raw (t, u, v) of the p + 1 lines of GF(p)^2 through the raw
    point xy, in _p1 order, each reduced and normalized as Line's."""
    x, y = xy
    p = field.p
    return [(t, u, (u * y - t * x) % p) for u, t in _p1(field)]


def lines_through(field: Field, p: Point) -> list[Line]:
    """All p + 1 lines of GF(p)^2 through a point."""
    return [Line.of(field, l) for l in _raw_lines_through(field, p.raw)]


def _zero_set(conic, p: int) -> set[tuple[int, int]]:
    """The affine points of GF(p)^2 on a conic, as raw residues: column by
    column, c*y^2 + (b*x + e)*y + (a*x + d)*x + f = 0 solved in y.  With
    c != 0 the roots are (r - (b*x + e)) / 2c for the square roots r of the
    discriminant, read off a table y^2 -> [y] built once; with c = 0 the
    column is linear, or the whole column when both of its coefficients
    vanish."""
    a, b, c, d, e, f = conic.raw
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    inverse = pow(2 * c, -1, p) if c else None
    found = set()
    for x in range(p):
        linear, const = (b * x + e) % p, ((a * x + d) * x + f) % p
        if c:
            ys = [(r - linear) * inverse % p
                  for r in roots.get((linear * linear - 4 * c * const) % p, ())]
        elif linear:
            ys = [-const * pow(linear, -1, p) % p]
        else:
            ys = () if const else range(p)
        found.update((x, y) for y in ys)
    return found


def _bisector_mid(l, sides, p: int | None):
    """The definition of a bisector on raw values: the midpoint of the raw
    line l as a bisector of the quadrilateral of raw sides A, A', B and B',
    from its meets with them (plane._meet, plane._mid), or None when l does
    not bisect."""
    a, a2, b, b2 = (_meet(l, side, p) for side in sides)
    mids = [m for m in (_mid(a, a2, p), _mid(b, b2, p)) if m is not None]
    if not mids:
        raise InvariantViolation("a line always crosses at least one opposite-side pair")
    return mids[0] if mids[0] == mids[-1] and mids[0] is not _PARALLEL else None


def _class_crossings(t, u, refs, p: int | None) -> list:
    """Where the lines tX - uY + v = 0 of one parallel class meet each raw
    line (rt, ru, rv) of refs, by Cramer's rule with the class's determinant
    inverted once: (x0, x1, y0, y1) for the crossing (x0 + x1*v, y0 + y1*v),
    or None when the reference line is in the class (it is then the line at
    offset rv, and parallel to every other line of the class)."""
    out = []
    for rt, ru, rv in refs:
        det = u * rt - t * ru
        if not (det % p if p else det):
            out.append(None)
            continue
        inv = pow(det, -1, p) if p else 1 / det
        crossing = (-u * rv * inv, ru * inv, -t * rv * inv, rt * inv)
        out.append(tuple([c % p for c in crossing]) if p else crossing)
    return out


def _class_bisectors(t, u, sides, crossings, p: int):
    """The bisectors of the class tX - uY + v = 0 of GF(p)^2, for the raw
    sides A, A', B and B' and the class's crossings with them
    (_class_crossings): (v, midpoint) in increasing v.

    Off the offsets of the sides in the class, the midpoint of a pair with
    no side in the class is affine in v, so the definition is solved once
    for the class.  With no side in the class, the two midpoints agree at
    no v, one v or every v.  With one side of a pair in the class, that
    pair's midpoint is at infinity and no line bisects.  With both sides of
    a pair in the class, only the other pair is crossed and every line
    bisects.  The lines that are sides are judged by the definition itself,
    _bisector_mid.
    """
    in_class = {side[2] for side, c in zip(sides, crossings) if c is None}
    # Each pair's midpoint doubled, (x0, x1, y0, y1) as for a crossing.
    sums = [None if c1 is None or c2 is None else [a + b for a, b in zip(c1, c2)]
            for c1, c2 in (crossings[:2], crossings[2:])]
    if None not in sums:
        d0, d1, e0, e1 = ((a - b) % p for a, b in zip(*sums))
        if d1 or e1:
            v = -d0 * pow(d1, -1, p) % p if d1 else -e0 * pow(e1, -1, p) % p
            solved = [v] if (d0 + d1 * v) % p == (e0 + e1 * v) % p == 0 else []
        else:
            solved = range(p) if d0 == e0 == 0 else []
    else:
        solved = range(p) if len(in_class) == 2 else []
    x0, x1, y0, y1 = next(s for s in sums if s is not None)
    half = (p + 1) // 2
    for v in sorted({*solved, *in_class}):
        m = (_bisector_mid((t, u, v), sides, p) if v in in_class
             else ((x0 + x1 * v) * half % p, (y0 + y1 * v) * half % p))
        if m is not None:
            yield v, m


def _sweep(q: Quadrilateral) -> tuple[frozenset, list]:
    """Every line of the finite plane judged by the definition
    (_bisector_mid): solved once per parallel class on raw residues
    (see _class_bisectors), as the raw ((t, u, v), midpoint) of each
    bisector; and each class's (t, u, crossings) with A, A', B and B' (see
    _class_crossings), in _p1 order, which desargues_reflection reads."""
    p = q.field.p
    sides = [l.raw for l in (q.a, q.a2, q.b, q.b2)]
    crossings = [(t, u, _class_crossings(t, u, sides, p)) for u, t in _p1(q.field)]
    return frozenset(((t, u, v), m) for t, u, c in crossings
                     for v, m in _class_bisectors(t, u, sides, c, p)), crossings


def _bisectors_of(field: Field, solutions) -> set[Bisector]:
    return {Bisector(Line.of(field, l), Point.of(field, m)) for l, m in solutions}


def _offsets(solutions) -> dict:
    out: dict[tuple, set] = {}
    for (t, u, v), _ in solutions:
        out.setdefault((t, u), set()).add(v)
    return out


def brute_bisectors(q: Quadrilateral) -> set[Bisector]:
    """Every bisector of the finite plane, by the definition: the values of
    q's sweep (_sweep)."""
    return _bisectors_of(q.field, _sweep(q)[0])


def _closed_form_solutions(q: Quadrilateral, zeros) -> set:
    """The closed-form route on raw tuples: bisector_through asked at each
    point of the locus zero set zeros (see _zero_set), its answers as the
    raw ((t, u, v), midpoint) of _sweep."""
    field = q.field
    found = set()
    for xy in zeros:
        result = bisector_through(q, Point.of(field, xy))
        if isinstance(result, AllLinesThrough):
            m = result.center.raw
            found.update((l, m) for l in _raw_lines_through(field, m))
        else:
            found.update((b.line.raw, b.midpoint.raw) for b in result)
    return found


def closed_form_bisectors(q: Quadrilateral) -> set[Bisector]:
    """The closed-form route: solve for the bisector at each point of the
    locus's zero set (see _zero_set)."""
    if not isinstance(q.field, PrimeField):
        raise InfiniteField("locus sweep needs a finite field")
    zeros = _zero_set(bisector_locus(q).conic, q.field.p)
    return _bisectors_of(q.field, _closed_form_solutions(q, zeros))


def random_scalar(field: Field, rng: Lcg64) -> Scalar:
    """Small-height scalar: full residue range over GF(p), numerator in
    [-8, 8] and denominator in [1, 3] over the rationals."""
    if isinstance(field, PrimeField):
        return field.scalar(rng.below(field.p))
    return field.scalar(Fraction(rng.below(17) - 8, rng.below(3) + 1))


def random_line(field: Field, rng: Lcg64) -> Line:
    if isinstance(field, PrimeField):
        p = field.p
        i = rng.below(p * p + p)
        return Line.of(field, (i // p, 1, i % p) if i < p * p else (1, 0, i - p * p))
    if rng.below(8) == 0:
        return Line(field.one, field.zero, random_scalar(field, rng))
    return Line(random_scalar(field, rng), field.one, random_scalar(field, rng))


def random_quadrilateral(field: Field, seed: int) -> Quadrilateral:
    """Rejection-sample four lines until they validate; deterministic per seed."""
    rng = Lcg64(seed)
    for _ in range(_MAX_TRIES):
        try:
            return Quadrilateral(*(random_line(field, rng) for _ in range(4)))
        except GeometryError:
            continue
    raise ExhaustedSampling(f"no valid quadrilateral after {_MAX_TRIES} tries")


def random_invertible_map(field: Field, rng: Lcg64) -> AffineMap:
    while True:
        entries = [random_scalar(field, rng) for _ in range(4)]
        if not (entries[0] * entries[3] - entries[1] * entries[2]).is_zero():
            return AffineMap.linear(*entries)


@dataclass
class TheoremReport:
    tag: str
    field_name: str
    instances: int
    violations: list[str] = dc_field(default_factory=list)
    elapsed: float = 0.0

    def summary(self) -> str:
        return f"{self.tag} {self.field_name} {self.instances} {len(self.violations)}"


# Violation names of the pairs in Quadrilateral.line_pairs.
_PAIR_NAMES = ("A,A'", "B,B'", "diagonals")


def _side_diag_parallel_pairs(q: Quadrilateral) -> list[tuple[Line, Line]]:
    return [(l1, l2) for l1, l2 in q.line_pairs if l1.is_parallel(l2)]


def _canonical_bisectors(q: Quadrilateral) -> list[Line]:
    """Sides and diagonals, deduplicated (they overlap for improper quads)."""
    return list(dict.fromkeys(q.sides + q.diagonal_lines))


def _check_eq1(q, ctx):
    d = ctx.once(quadratic_data, q)
    sides = (q.a, q.b, q.a2, q.b2)
    product = q.field.one
    for l1, l2 in zip(sides, sides[1:] + sides[:1]):
        product = product * (l1.t * l2.u - l2.t * l1.u)
    out = []
    if d.discriminant() != product:
        out.append(f"discriminant {d.discriminant()} != factor product {product}")
    if product.is_zero():
        out.append("discriminant vanished on a valid quadrilateral")
    return 1, out


def _check_opposite_orthogonal(q, ctx):
    d = ctx.once(quadratic_data, q)
    out = []
    for name, (l1, l2) in zip(_PAIR_NAMES, q.line_pairs):
        if not q_orthogonal(d, l1, l2):
            out.append(f"pair {name} is not Q-orthogonal")
    return 3, out


def _check_lambda_involution(q, ctx):
    d = ctx.once(quadratic_data, q)
    inv = lambda_q(d)
    out = []
    for l1, l2 in q.line_pairs:
        if not inv.conjugate(l1.infinite_point(), l2.infinite_point()):
            out.append(f"infinite points of {l1} and {l2} are not conjugate")
    instances = 3
    if ctx.exhaustive:
        directions = [InfPoint.of(q.field, xy) for xy in _p1(q.field)]
        for p in directions:
            fixed = inv.fixes(p)
            null = phi(d, p.x, p.y).is_zero()
            if fixed != null:
                out.append(f"fixed-point/null-direction mismatch at {p}")
        instances += len(directions)
    return instances, out


def _fixture_probe_lines(q) -> list[Line]:
    out = []
    # X=3, X=5, Y=7, Y=X+3 and Y=2X+5 as tX - uY + v = 0
    for raw in ((1, 0, -3), (1, 0, -5), (0, 1, 7), (1, 1, 3), (2, 1, 5)):
        line = Line.of(q.field, raw)
        if all(not line.contains(vertex) for vertex in q.vertices) and line not in out:
            out.append(line)
    return out[:4]


def _chart_parameters(u, crossings) -> list[tuple]:
    """The chart parameters of a class tX - uY + v = 0 at its crossings
    with reference lines (see _class_crossings), as homogeneous
    [x0 + x1*v : y] triples (x0, x1, y).  The chart of a line reads an
    affine point as [x : 1], with x its X coordinate, or its Y on a
    vertical line (u = 0), and the line's own infinite point, where it
    meets a reference line of its own direction, as [1 : 0]."""
    axis = 0 if u else 2
    return [(1, 0, 0) if c is None else (c[axis], c[axis + 1], 1) for c in crossings]


def _quadrangle_sides(qr: Quadrangle) -> list[Line]:
    return [l for pair in qr.opposite_side_pairs() for l in pair.lines]


def _desargues_classes(q: Quadrilateral, crossings):
    """Each parallel class tX - uY + v = 0 of the finite plane, in
    enumerate_lines order, as raw residues (t, u, offsets, params): the
    offsets v whose line passes through a vertex of q, and the chart
    parameters (see _chart_parameters) of the class's crossings with the
    six sides of q's quadrangle, two per pair of opposite sides.  A side
    that is one of q's own lines (four are, when q's vertices are right)
    takes its crossings from q's sweep (crossings, see _sweep); only the
    others, the two diagonals, are crossed here."""
    p = q.field.p
    vertices = [pt.raw for pt in q.vertices]
    swept = [l.raw for l in (q.a, q.a2, q.b, q.b2)]
    sides = [l.raw for l in _quadrangle_sides(q.quadrangle())]
    others = [l for l in sides if l not in swept]
    where = [(swept + others).index(l) for l in sides]
    for t, u, crossed in crossings:
        crossed = crossed + _class_crossings(t, u, others, p)
        yield (t, u, {(u * y - t * x) % p for x, y in vertices},
               _chart_parameters(u, [crossed[i] for i in where]))


def _raw_exchange_row(pair) -> tuple:
    """The oracle's own form of the linear constraint on (m0, m1, m2) saying
    that [[m0, m1], [m2, -m0]] exchanges the two points [x1 : y1] and
    [x2 : y2] of a pair: (x1*y2 + y1*x2, y1*y2, -x1*x2).  Along a class
    each x is a + b*v, for the chart parameters (a, b, y) of
    _chart_parameters, so the row is given as coefficient tuples in v of 2,
    1 and 3 entries."""
    (a1, b1, y1), (a2, b2, y2) = pair
    return ((a1 * y2 + y1 * a2, b1 * y2 + y1 * b2), (y1 * y2,),
            (-a1 * a2, -(a1 * b2 + b1 * a2), -b1 * b2))


def _times(f, g) -> list:
    """The product of two polynomials given by their coefficient tuples
    (lowest degree first), unreduced: the one polynomial product of the
    class identities and of the interpolant of _quadrangle_identities."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for k, b in enumerate(g, i):
            out[k] += a * b
    return out


def _at(coeffs, v):
    """A polynomial in v, given by its coefficients (lowest degree first), at
    v; unreduced."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def _raw_cross(r, s, p: int | None) -> tuple:
    c0 = r[1] * s[2] - r[2] * s[1]
    c1 = r[2] * s[0] - r[0] * s[2]
    c2 = r[0] * s[1] - r[1] * s[0]
    return (c0 % p, c1 % p, c2 % p) if p else (c0, c1, c2)


def _degeneracy(m, p: int | None) -> str | None:
    """Why the reduced raw triple m is no involution, or None when it is one."""
    if not any(m):
        return "constraints are linearly dependent"
    square = m[0] * m[0] + m[1] * m[2]
    if not (square % p if p else square):
        return "matrix does not square to a nonzero scalar"
    return None


def _desargues_line(pencil, params, v, bisects: bool, p: int | None) -> list[str]:
    """The Desargues check on the line at offset v of a class: the kernel's
    class polynomials (pencil, lowest degree first) at v against the
    oracle's exchange rows of the line's three conjugate pairs (params, see
    _chart_parameters) at v, and the reflection m2 = 0 against bisects."""
    m = [_at(coeffs, v) for coeffs in pencil]
    if p:
        m = [x % p for x in m]
    rows = [[_at(c, v) for c in _raw_exchange_row(params[i:i + 2])] for i in (0, 2, 4)]
    problems = []
    reason = _degeneracy(m, p)
    if reason:
        problems.append(f"involution underdetermined ({reason})")
    conjugate = []
    for r0, r1, r2 in rows:
        dot = r0 * m[0] + r1 * m[1] + r2 * m[2]
        conjugate.append(not (dot % p if p else dot))
    if not conjugate[2]:
        problems.append("third pair not conjugate")
    m13 = _raw_cross(rows[0], rows[2], p)
    reason = _degeneracy(m13, p)
    if reason:
        problems.append(f"involution underdetermined ({reason})")
    elif any(_raw_cross(m, m13, p)) or not (conjugate[0] and conjugate[1]):
        problems.append("the three conjugate pairs disagree")
    reflection = m[2] == 0
    if reflection != bisects:
        problems.append(f"reflection={reflection} but bisector={bisects}")
    return problems


def _roots_within(poly, offsets, p: int) -> bool:
    """Whether every root in GF(p) of a polynomial of degree at most 2
    (reduced ints, lowest degree first) lies in offsets, which miss some v.
    A nonzero linear polynomial or square has one root and one with a
    nonzero square discriminant two, so they all lie in offsets exactly
    when that many offsets are roots; no root is inverted."""
    c0, c1, c2 = (*poly, 0, 0, 0)[:3]
    if not (c1 or c2):
        return c0 != 0
    disc = (c1 * c1 - 4 * c0 * c2) % p
    if c2 and disc and pow(disc, (p - 1) // 2, p) != 1:
        return True
    roots = 2 if c2 and disc else 1
    return sum(1 for k in offsets if (c0 + k * (c1 + k * c2)) % p == 0) == roots


def _cross_factors(params, p: int) -> list:
    """The cross determinants [P, Q] = x_P*y_Q - x_Q*y_P of each point P of
    the first pair and Q of the third (params, see _chart_parameters), as
    reduced coefficient lists in v."""
    return [[(x0 * w - z0 * y) % p, (x1 * w - z1 * y) % p]
            for x0, x1, y in params[:2] for z0, z1, w in params[4:]]


def _desargues_identities(pencil, params, p: int) -> list | None:
    """The identity half of _desargues_class_cleared: the kernel's triple
    (pencil) reduced and padded to 3, 4 and 2 coefficients, when it has none
    past them, each exchange row dotted with it is the zero polynomial and
    the square identity holds; else None."""
    sizes = (3, 4, 2)
    m = [[c % p for c in coeffs] for coeffs in pencil]
    if any(any(c[size:]) for c, size in zip(m, sizes)):
        return None
    m = [(c + [0] * size)[:size] for c, size in zip(m, sizes)]
    rows = [_raw_exchange_row(params[i:i + 2]) for i in (0, 2, 4)]
    if any(any(sum(c) % p for c in zip(*map(_times, row, m))) for row in rows):
        return None
    r, _, s = rows
    m13 = [[(a - b) % p for a, b in zip(_times(r[i], s[j]), _times(r[j], s[i]))]
           for i, j in ((1, 2), (2, 0), (0, 1))]
    f, g, h, k = _cross_factors(params, p)
    square = zip(_times(m13[0], m13[0]), _times(m13[1], m13[2]),
                 _times(_times(f, g), _times(h, k)))
    return None if any((a + b - c) % p for a, b, c in square) else m


def _desargues_roots(m, params, offsets, bisecting, p: int) -> bool:
    """The root half of _desargues_class_cleared, for a reduced triple m of
    3, 4 and 2 coefficients that passes the identity half: the roots of
    the cross determinants are vertex offsets, the roots of m2 off the
    offsets are the offsets in bisecting, and m is nonzero at each of
    them."""
    if not all(_roots_within(factor, offsets, p) for factor in _cross_factors(params, p)):
        return False
    m0, m1, m2 = m
    if not any(m2):
        return len(bisecting - offsets) == p - len(offsets) and _roots_within(m0, offsets, p)
    reflections = {-m2[0] * pow(m2[1], -1, p) % p} - offsets if m2[1] else set()
    return reflections == bisecting - offsets and all(
        _at(m0, v) % p or _at(m1, v) % p for v in reflections)


def _desargues_class_cleared(pencil, params, offsets, bisecting, p: int) -> bool:
    """Whether _desargues_line passes every line of a class off its vertex
    offsets, decided by exact identities in v between coefficient tuples
    (expanded by _times; _desargues_identities) and then by the roots of
    their factors (_desargues_roots); a class not cleared is walked line by
    line.

    The chart parameters (params) are affine in v, so the exchange row
    (s, e, -pi) = (x1*y2 + y1*x2, y1*y2, -x1*x2) of each pair
    (_raw_exchange_row) has 2, 1 and 3 coefficients; the kernel's triple m
    (pencil) is decided only within 3, 4 and 2 (degrees 2, 3 and 1), padded
    to them, so that each identity adds products of equal length.  Off the
    offsets, a class is cleared when:
    - each row dotted with m is the zero polynomial: all three pairs are
      conjugate;
    - m13 = r0 x r2 of the first and third pairs is nondegenerate: its
      m13_0^2 + m13_1*m13_2 equals the product of the four cross
      determinants [P, Q] = x_P*y_Q - x_Q*y_P of their points (an identity,
      checked here rather than trusted), and every root of each factor is a
      vertex offset.  Then m, orthogonal to two independent rows, is
      c*m13, so the pairs agree and m0^2 + m1*m2 = c^2 (m13_0^2 + ...);
    - m is nonzero: at a root of m2, m0 or m1 is nonzero; where m2 is the
      zero polynomial, m0 has no root, since m0^2 = c^2 (...) there;
    - the roots of m2 are the offsets in bisecting.
    The first two clauses' identities are the identity half; the rest, the
    roots, is the root half, which is all that a class whose identities
    are decided for its whole quadrangle runs (see _check_desargues).
    """
    m = _desargues_identities(pencil, params, p)
    return m is not None and _desargues_roots(m, params, offsets, bisecting, p)


def _quadrangle_identities(classes, pencils, p: int) -> set:
    """The classes whose identity half (_desargues_identities) is decided
    once for the whole quadrangle, by index into classes: the chart classes
    (u = 1 and no quadrangle side in the class) whose kernel triple equals,
    at their t, the interpolant of degree at most 4 in t through the first
    5 chart classes, provided the first 7 chart classes all match it and
    pass the identity half; else none (see _check_desargues for why this
    is sound).  A matching triple is reduced, as the root half needs it.

    The interpolant is Lagrange's form, multiplied out by _times into one
    reduced coefficient list (lowest degree first) per kernel coefficient.
    """
    chart = [i for i, (_, u, _, params) in enumerate(classes) if u and (1, 0, 0) not in params]
    flat = {i: [c for m in pencils[i] for c in m] for i in chart
            if [len(m) for m in pencils[i]] == [3, 4, 2]}
    if len(chart) < 7 or any(i not in flat for i in chart[:7]):
        return set()
    ts, interpolant = [classes[i][0] for i in chart[:5]], [[0] * 5 for _ in range(9)]
    for ti, i in zip(ts, chart):
        basis = reduce(_times, [(-tj, 1) for tj in ts if tj != ti], [1])
        scale = pow(_at(basis, ti), -1, p)
        for coeffs, y in zip(interpolant, flat[i]):
            coeffs[:] = [(c + y * scale * b) % p for c, b in zip(coeffs, basis)]
    decided = {i for i, coeffs in flat.items()
               if coeffs == [_at(c, classes[i][0]) % p for c in interpolant]}
    sound = all(i in decided and _desargues_identities(pencils[i], classes[i][3], p)
                for i in chart[:7])
    return decided if sound else set()


def _check_desargues(q, ctx):
    """On each line that avoids the vertices (every one when exhaustive,
    else the probe lines), the kernel's class polynomials
    (form.desargues_pencil) against the oracle's own exchange rows of the
    line's three conjugate pairs, and the reflection m2 = 0 against the
    line's bisecting (_desargues_line).

    Exhaustive verify judges each parallel class whole
    (_desargues_class_cleared) against the bisecting offsets of
    brute_bisectors, and walks it line by line only when that cannot clear
    it.  The identity half of that rule is decided once per quadrangle
    where it can be (_quadrangle_identities).  On the chart u = 1, off the
    directions t = st/su of the six quadrangle sides, the oracle's chart
    parameters are the homogeneous [-sv + su*v : st - t*su] over the
    nonzero st - t*su, so its homogeneous exchange rows have degree at most
    2 in t, and differ from the rows it uses by a nonzero factor; the
    square identity involves only those rows and has degree at most 4.
    With M the interpolant, of degree at most 4 in t, of the kernel's nine
    coefficients through the first 5 such classes, each row-times-M
    identity has degree at most 6 in t.  When the first 7 such classes
    match M and pass the identity half, every identity vanishes at 7
    values of t, so it is the zero polynomial, and holds at each class
    whose kernel triple equals M at its t; such a class runs only the root
    half (_desargues_roots).  Every other class (u = 0, a side direction,
    one that differs from M or has a triple of another length, or any
    class of a quadrangle with fewer than 7 such classes) runs the whole
    rule.  Soundness never rests on the kernel's degree, and each class is
    decided, and so each violation printed, as by the whole rule."""
    if not q.proper:
        return 0, []
    qr = q.quadrangle()
    field = q.field
    p = field.p
    count = 0
    if ctx.exhaustive:
        bisecting = ctx.offsets(q)
        # A class every line of which meets a vertex has nothing to judge.
        classes = [c for c in _desargues_classes(q, ctx.once(_sweep, q)[1]) if len(c[2]) < p]
        pencil = {c[:2]: desargues_pencil(qr, *map(field.scalar, c[:2])) for c in classes}
        decided = _quadrangle_identities(classes, list(pencil.values()), p)
        lines = []
        for i, (t, u, offsets, params) in enumerate(classes):
            on_class = bisecting.get((t, u), set())
            decide = _desargues_roots if i in decided else _desargues_class_cleared
            if decide(pencil[t, u], params, offsets, on_class, p):
                count += p - len(offsets)
            else:
                lines += [(t, u, v, params, v in on_class) for v in range(p) if v not in offsets]
    else:
        probes = [l.raw for l in _fixture_probe_lines(q)]
        pencil = {d: desargues_pencil(qr, *map(field.scalar, d)) for d in {l[:2] for l in probes}}
        sides = [l.raw for l in (q.a, q.a2, q.b, q.b2)]
        opposite = [l.raw for l in _quadrangle_sides(qr)]
        lines = [(*l, _chart_parameters(l[1], _class_crossings(*l[:2], opposite, p)),
                  _bisector_mid(l, sides, p) is not None)
                 for l in probes]
    out = []
    for t, u, v, params, bisects in lines:
        count += 1
        problems = _desargues_line(pencil[t, u], params, v, bisects, p)
        if problems:
            line = Line.of(field, (t, u, v))
            out.extend(f"{line}: {problem}" for problem in problems)
    return count, out


def _check_vertex_lines(q, ctx):
    """Each line through a vertex bisects exactly when it is a side or a
    diagonal, on the raw lines of the sweep."""
    field = q.field
    canonical = {l.raw for l in _canonical_bisectors(q)}
    bisecting = {l for l, _ in ctx.solutions(q)}
    vertices = {v.raw for v in q.vertices}
    out = []
    for xy in vertices:
        for l in _raw_lines_through(field, xy):
            bisects = l in bisecting
            if bisects != (l in canonical):
                out.append(f"{Line.of(field, l)} through {Point.of(field, xy)}: "
                           f"bisector={bisects}")
    return len(vertices) * (field.p + 1), out


def _check_parallel_bisectors(q, ctx):
    """Every line of a direction bisects when a pair of sides or the
    diagonals is parallel in it, else at most one, counted on the raw
    directions (t, u) of the sweep."""
    field = q.field
    offsets = ctx.offsets(q)
    parallel_dirs = {l1.raw[:2] for l1, _ in _side_diag_parallel_pairs(q)}
    directions = _p1(field)
    out = []
    for u, t in directions:
        count = len(offsets.get((t, u), ()))
        if (t, u) in parallel_dirs:
            if count != field.p:
                out.append(f"direction {InfPoint.of(field, (u, t))}: "
                           f"only {count} of the class bisect")
        elif count > 1:
            out.append(f"direction {InfPoint.of(field, (u, t))}: "
                       f"{count} distinct parallel bisectors")
    return len(directions), out


def _check_two_three(q, ctx):
    if not q.proper:
        return 0, []
    quads = [c for c in requadrilate(q.quadrangle()) if isinstance(c, Quadrilateral)]
    out = []
    p = q.field.p
    g = _gram(ctx.once(quadratic_data, q), p)
    for other in quads:
        if ctx.solutions(other) != ctx.solutions(q):
            out.append("re-pairing changed the bisector set")
        if any(_raw_cross(g, _gram(quadratic_data(other), p), p)):
            out.append("quadratic data not proportional across re-pairing")
    return len(quads), out


def _check_unique_midpoints(q, ctx):
    """Two bisectors share a midpoint exactly when q has parallelogram
    vertices, and then only at the centroid: the sweep's raw solutions
    grouped by midpoint (each line is one solution)."""
    field = q.field
    lines_at: dict[tuple, int] = {}
    for _, m in ctx.solutions(q):
        lines_at[m] = lines_at.get(m, 0) + 1
    shared = [m for m, count in lines_at.items() if count > 1]
    out = []
    parallelogram = q.has_parallelogram_vertices()
    if bool(shared) != parallelogram:
        out.append(f"shared midpoints {sorted(str(Point.of(field, m)) for m in shared)} vs "
                   f"parallelogram-vertices={parallelogram}")
    out += [f"shared midpoint {Point.of(field, m)} is not the centroid"
            for m in shared if m != q.centroid.raw]
    return len(lines_at), out


def _check_closed_form(q, ctx):
    """The closed-form route's bisectors equal the sweep's, as raw pairs."""
    brute = ctx.solutions(q)
    closed = _closed_form_solutions(q, ctx.locus_zeros(q))
    out = []
    for verb, diff in (("misses", brute - closed), ("invents", closed - brute)):
        if diff:
            out.append(f"closed form {verb} {sorted(str(Line.of(q.field, l)) for l, _ in diff)}")
    return len(brute), out


def _check_locus(q, ctx):
    locus = ctx.once(bisector_locus, q)
    out = []
    if locus.center != q.centroid:
        out.append("locus center is not the centroid")
    gradient_center = center(locus.conic)
    if gradient_center is not None and gradient_center != q.centroid:
        out.append("gradient center disagrees with the centroid")
    data = locus.data
    h, k = q.centroid.x, q.centroid.y
    for dp in q.diagonal_points():
        if isinstance(dp, Point):
            if phi(data, dp.x - h, dp.y - k) != locus.constant:
                out.append(f"locus depends on the diagonal point choice at {dp}")
    instances = 1
    if ctx.exhaustive:
        midpoints = {m for _, m in ctx.solutions(q)}
        zero_set = ctx.locus_zeros(q)
        if midpoints != zero_set:
            out.append(
                f"midpoint set ({len(midpoints)}) != zero set ({len(zero_set)})"
            )
        instances += len(zero_set)
    else:
        sides = [l.raw for l in (q.a, q.a2, q.b, q.b2)]
        for line in _canonical_bisectors(q):
            instances += 1
            m = is_bisector(q, line)
            if m is None:
                out.append(f"canonical line {line} does not bisect")
                continue
            if m.raw != _bisector_mid(line.raw, sides, q.field.p):
                out.append(f"midpoint {m} of {line} is not the definition's")
            if not locus.conic.contains(m):
                out.append(f"midpoint {m} of {line} is off the locus")
            found = bisector_through(q, m)
            if not isinstance(found, AllLinesThrough) and Bisector(line, m) not in found:
                out.append(f"bisector_through({m}) misses {line}")
    return instances, out


def _check_degeneracy(q, ctx):
    locus = ctx.once(bisector_locus, q)
    has_parallel = bool(_side_diag_parallel_pairs(q))
    out = []
    if (locus.components is not None) != has_parallel:
        out.append("degeneracy does not match the parallel-pair criterion")
    if locus.conic.is_degenerate() != has_parallel:
        out.append("determinant degeneracy disagrees with the criterion")
    if locus.components is not None:
        for component in locus.components:
            if not component.contains(q.centroid):
                out.append(f"component {component} misses the centroid")
    return 1, out


def _check_nine_points(q, ctx):
    if not q.proper:
        return 0, []
    locus = ctx.once(bisector_locus, q)
    pts = nine_points(q.quadrangle())
    out = []
    for p in pts:
        if not locus.contains(p):
            out.append(f"nine-point {p} is off the locus")
    return len(pts), out


def _member_degeneration_entries(member, field, exhaustive):
    """All degenerations of a pencil member that exist over the field."""
    report = degenerations(member)
    entries = list(report.entries)
    if report.family is not None:
        if exhaustive:
            offsets = range((field.p + 1) // 2)
        else:
            offsets = (0, 1, 2)
        for r in offsets:
            entries.append(report.family.pair_at_offset(field.scalar(r)))
    return entries


def _pencil_members(q, ctx) -> dict:
    """The pencil members judged, keyed by their raw coefficients (alpha,
    beta); (1, 0) and (0, 1) are the generators A*A' and B*B'."""
    pen = pencil_of(q)
    field = q.field
    coeffs = _p1(field) if ctx.exhaustive else ((1, 0), (0, 1), (1, 1), (1, -1), (2, 3))
    return {(alpha, beta): pen.member(field.scalar(alpha), field.scalar(beta))
            for alpha, beta in coeffs}


def _check_pencil_degenerations(q, ctx):
    members = _pencil_members(q, ctx)
    locus = ctx.once(bisector_locus, q)
    out = []
    # Each generator contains the point at infinity of each of its lines.
    for member, pair in ((members[1, 0], q.line_pairs[0]), (members[0, 1], q.line_pairs[1])):
        out += [f"pencil member {member} misses the infinite point of {line}"
                for line in pair if not member.contains(line.infinite_point())]
    seen_lines = set()
    for member in members.values():
        for entry in _member_degeneration_entries(member, q.field, ctx.exhaustive):
            try:
                if not ctx.once(is_q_pair, q, entry.pair):
                    out.append(f"degeneration {entry.pair} is not a Q-pair")
            except NotBisectors:
                out.append(f"degeneration {entry.pair} contains a non-bisector")
            seen_lines.update(entry.pair.lines)
        if not member.is_degenerate():
            ctr = center(member)
            if ctr is not None and not locus.conic.contains(ctr):
                out.append(f"center {ctr} of a pencil member is off the locus")
    lines = ctx.bisector_lines(q)
    if ctx.exhaustive and seen_lines != set(lines):
        out.append(f"degeneration lines ({len(seen_lines)}) != bisectors ({len(lines)})")
    # Converse: every bisector pairs with its partner into a degeneration.
    p = q.field.p
    f, g = (_integral_product(l1, l2, p) for l1, l2 in q.line_pairs[:2])
    for line in lines:
        partner = ctx.once(q_partner, q, line)
        if not _in_span(_integral_product(line, partner, p), f, g, p):
            out.append(f"pair {{{line}, {partner}}} is not a pencil degeneration")
    return len(members) + len(lines), out


def _q_pairs_of(q, ctx) -> list[LinePair]:
    pairs, seen = [], set()
    for line in ctx.bisector_lines(q):
        pair = LinePair(line, ctx.once(q_partner, q, line))
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def _integral_product(l1: Line, l2: Line, p: int | None) -> tuple:
    """The coefficients of l1*l2 (plane._product) on the _integral tuples
    of the two lines: a nonzero multiple, ints over Q, which is all the
    span test (_in_span) needs."""
    return _product(_integral(l1.raw, p), _integral(l2.raw, p))


def _in_span(c, f, g, p: int | None) -> bool:
    """Whether the coefficients c (see _product) lie in span(f, g), for f
    and g with independent quadratic parts (their first three entries):
    on the first nonzero 2x2 minor det of those parts, Cramer's rule gives
    the only candidates alpha = a/det and beta = b/det, so c is in the span
    exactly when det*c = a*f + b*g entrywise.  Dependent parts, which no
    valid quadrilateral's side products have, leave c outside."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = f[i] * g[j] - f[j] * g[i]
        if det % p if p else det:
            break
    else:
        return False
    a, b = c[i] * g[j] - c[j] * g[i], f[i] * c[j] - f[j] * c[i]
    for fk, gk, ck in zip(f, g, c):
        residue = det * ck - a * fk - b * gk
        if residue % p if p else residue:
            return False
    return True


def _slopes(f, g, m, line) -> list:
    """Values that all vanish exactly when a raw line tX - uY + v = 0 passes
    through m and L_F(m, d) = L_G(m, d) = 0 for its direction d = (u, t):
    l(m), then L_C(m, d) = grad C(m) . d, the coefficient of s in C(m +
    s*d), for the conics C of f and g (see _product and _gradient)."""
    (mx, my), (t, u, v) = m, line
    grads = _gradient(f, m), _gradient(g, m)
    return [t * mx - u * my + v] + [cx * u + cy * t for cx, cy in grads]


def _check_bisector_field(q, ctx):
    """Every line of every Q-pair (of every bisector when exhaustive, else of
    the sides and diagonals) bisects every pair it crosses, always with its
    own midpoint as a bisector of q.

    Decided by a lemma, on raw values.  Let F = A*A' and G = B*B'.  Along a
    line through m with direction d, a conic C is C(m + s*d) = Q_C(d)*s^2 +
    L_C(m, d)*s + C(m), so the line's crossings with a pair of product C
    have midpoint m exactly when L_C(m, d) = 0 (and a line parallel to one
    line of the pair only has L_C(m, d) = 0 only when it is that line).
    L_C is linear in C's non-constant coefficients, so a line through its
    own midpoint m with L_F(m, d) = L_G(m, d) = 0 (_slopes; the rule's
    midpoint passes unless the rule is faulty) bisects, at m, every crossed
    pair whose product lies in span(F, G) + constant (_in_span).  F and G
    never have proportional quadratic parts: those are the products of the
    sides' directions, and a side of one pair and a side of the other are
    adjacent, so never parallel.  A passing line is met, as the definition
    says, only with the pairs outside the span, and a failing line with
    every pair, so the violations are those of meeting every line with
    every pair."""
    pairs = _q_pairs_of(q, ctx)
    field = q.field
    p = field.p
    sides = [l.raw for l in (q.a, q.a2, q.b, q.b2)]
    f, g = (_integral_product(l1, l2, p) for l1, l2 in q.line_pairs[:2])
    crossed = [(pair, pair.a.raw, pair.b.raw) for pair in pairs]
    outside = [c for c in crossed if not _in_span(_integral_product(*c[0].lines, p), f, g, p)]
    out = []
    seen = set()
    for pair in pairs:
        for line in pair.lines:
            l = line.raw
            if l in seen:
                continue
            seen.add(l)
            m = _bisector_mid(l, sides, p)
            if m is None:
                out.append(f"{line} is not a bisector")
                continue
            slopes = _slopes(f, g, m, l)
            for other, a, b in crossed if any(x % p if p else x for x in slopes) else outside:
                got = _mid(_meet(l, a, p), _meet(l, b, p), p)
                if got is not None and got != m:
                    shown = line.infinite_point() if got is _PARALLEL else Point.of(field, got)
                    out.append(
                        f"{line} crosses {other} at midpoint {shown}, expected {Point.of(field, m)}"
                    )
    return len(seen), out


def _check_partner_involution(q, ctx):
    lines = ctx.bisector_lines(q)
    out = []
    for line in lines:
        partner = ctx.once(q_partner, q, line)
        try:
            if not ctx.once(is_q_pair, q, LinePair(line, partner)):
                out.append(f"{{{line}, {partner}}} is not a Q-pair")
        except NotBisectors:
            out.append(f"partner {partner} of {line} is not a bisector")
        if ctx.once(q_partner, q, partner) != line:
            out.append(f"partner involution fails at {line}")
    return len(lines), out


def _check_pair_redundancy(q, ctx):
    """Every pair of bisectors, taken once: Q-orthogonal exactly when
    Q-antipodal, up to the stated exceptions.  Only pairs in the direction
    bucket Q-orthogonal to a bisector, or in the midpoint bucket of its
    antipode 2c - m, can be either, so the others are counted, not visited,
    and so are the buckets whose pairs are all exceptions.  Judged on the
    sweep's raw solutions, sorted as Line.sort_key sorts."""
    field = q.field
    p = field.p
    bis = sorted(ctx.solutions(q))
    d = ctx.once(quadratic_data, q)
    alpha, beta, gamma = d.alpha.value, d.beta.value, d.gamma.value
    cx, cy = q.centroid.raw
    parallel_dirs = {l1.raw[:2] for l1, _ in _side_diag_parallel_pairs(q)}
    lines = [l for l, _ in bis]
    mids = [m for _, m in bis]

    def shown(i, j):
        return f"{{{Line.of(field, lines[i])}, {Line.of(field, lines[j])}}}"

    by_direction: dict[tuple[int, int], list[int]] = {}
    by_midpoint: dict[tuple[int, int], list[int]] = {}
    for j, ((t, u, _), m) in enumerate(zip(lines, mids)):
        by_direction.setdefault((t, u), []).append(j)
        by_midpoint.setdefault(m, []).append(j)
    out = []
    for i, ((t, u, _), (mx, my)) in enumerate(zip(lines, mids)):
        # form.inner of (u, t) with (u', t') is r u' + s t', so the
        # Q-orthogonal direction is [u' : t'] = [s : -r], keyed as (t', u').
        r, s = (gamma * u - beta * t) % p, (alpha * t - beta * u) % p
        antipode = ((2 * cx - mx) % p, (2 * cy - my) % p)
        if r == s == 0:
            candidates = range(i, len(bis))
        else:
            orthogonal = ((-r * pow(s, -1, p)) % p, 1) if s else (1, 0)
            found = []
            # A bucket whose pairs are all stated exceptions raises nothing:
            # the antipode's when it is the bisector's own midpoint (the
            # pairs are antipodal and share it), the orthogonal direction's
            # when both directions are parallel ones (orthogonal and
            # both-parallel).
            if antipode != (mx, my):
                found += by_midpoint.get(antipode, [])
            if (t, u) not in parallel_dirs or orthogonal not in parallel_dirs:
                found += by_direction.get(orthogonal, [])
            candidates = sorted({j for j in found if j >= i})
        for j in candidates:
            tj, uj, _ = lines[j]
            orth = (r * uj + s * tj) % p == 0
            anti = mids[j] == antipode
            both_parallel = (t, u) in parallel_dirs and (tj, uj) in parallel_dirs
            if orth and not both_parallel and not anti:
                out.append(f"orthogonal pair {shown(i, j)} is not antipodal")
            if anti and mids[i] != mids[j] and not orth:
                out.append(f"antipodal pair {shown(i, j)} is not orthogonal")
    return len(bis) * (len(bis) + 1) // 2, out


def _gram(d, p: int | None) -> tuple:
    """The entries 00, 01 and 11 of the Gram matrix [[gamma, -beta], [-beta,
    alpha]] of the form d, raw, integral over Q (plane._integral)."""
    return _integral((d.gamma.value, -d.beta.value, d.alpha.value), p)


def _pulled_back_gram(g, f: AffineMap, p: int | None) -> tuple:
    """The entries 00, 01 and 11 of F^T G F, for G the Gram matrix of the
    entries g (see _gram) and F the linear part of f, integral over Q: the
    form G(Fv, Fw) evaluated on the basis vectors (columns of F), up to a
    nonzero scale."""
    (g0, g1, g2), (a, b, c, d) = g, _integral((f.m00.value, f.m10.value,
                                               f.m01.value, f.m11.value), p)

    def form(v, w):
        return g0 * v[0] * w[0] + g1 * (v[0] * w[1] + v[1] * w[0]) + g2 * v[1] * w[1]

    return form((a, b), (a, b)), form((a, b), (c, d)), form((c, d), (c, d))


def _check_affine_invariance(q, ctx):
    """The form of q is the pullback of the form of f(q) up to a nonzero
    scale: the Gram matrix G of q and F^T G' F are both nonzero and
    proportional (their three 2x2 cross products vanish).  Neither test
    changes under a nonzero scale, so both run on raw values, integral over
    Q."""
    rng = Lcg64(ctx.seed ^ 0x5EED)
    out = []
    trials = 5 if ctx.exhaustive else 10
    p = q.field.p
    g = _gram(ctx.once(quadratic_data, q), p)
    for trial in range(trials):
        f = random_invertible_map(q.field, rng)
        h = _pulled_back_gram(_gram(quadratic_data(q.transform(f)), p), f, p)
        if not any(x % p if p else x for x in g) or not any(x % p if p else x for x in h):
            out.append(f"trial {trial}: a Gram matrix vanishes")
        elif any(_raw_cross(g, h, p)):
            out.append(f"trial {trial}: the Gram matrix is not proportional to its pullback")
    return trials, out


_CHECKS = (
    ("eq1_discriminant", False, _check_eq1),
    ("opposite_orthogonal", False, _check_opposite_orthogonal),
    ("lambda_involution", False, _check_lambda_involution),
    ("desargues_reflection", False, _check_desargues),
    ("vertex_line_bisectors", True, _check_vertex_lines),
    ("parallel_bisectors", True, _check_parallel_bisectors),
    ("repairing_bisectors", True, _check_two_three),
    ("unique_midpoints", True, _check_unique_midpoints),
    ("closed_form_oracle", True, _check_closed_form),
    ("locus_midpoints", False, _check_locus),
    ("locus_degeneracy", False, _check_degeneracy),
    ("nine_points", False, _check_nine_points),
    ("pencil_degenerations", False, _check_pencil_degenerations),
    ("bisector_field", False, _check_bisector_field),
    ("partner_involution", False, _check_partner_involution),
    ("pair_redundancy", True, _check_pair_redundancy),
    ("affine_invariance", False, _check_affine_invariance),
)


def _bisector_lines(q: Quadrilateral, solutions) -> list[Line]:
    """The Lines of the raw solutions of q's sweep, or of q's sides and
    diagonals when solutions is None, in Line.sort_key order."""
    if solutions is None:
        return sorted(_canonical_bisectors(q), key=Line.sort_key)
    return [Line.of(q.field, l) for l in sorted(l for l, _ in solutions)]


class _Context:
    _MISSING = object()  # once's mark of a key with no answer yet

    def __init__(self, exhaustive: bool, seed: int):
        self.exhaustive = exhaustive
        self.seed = seed
        # Keys hold no reference back to the context: the bisector sets it keeps
        # are freed when verify_all returns, not by the cycle collector.
        self._answers: dict = {}

    def once(self, fn, *args):
        """fn(*args), computed once per verify_all call.  Checks pass the
        function by its module-level name, so a patched name is the one
        called; a call that raises keeps nothing and raises again next time."""
        key = (fn, *args)
        value = self._answers.get(key, self._MISSING)
        if value is self._MISSING:
            value = self._answers[key] = fn(*args)
        return value

    def solutions(self, q: Quadrilateral) -> frozenset:
        """The raw bisectors of q's one sweep of the plane (see _sweep)."""
        return self.once(_sweep, q)[0]

    def offsets(self, q: Quadrilateral) -> dict:
        """The bisecting offsets v of each parallel class (t, u) of q's
        sweep, as a set per class."""
        return self.once(_offsets, self.solutions(q))

    def locus_zeros(self, q: Quadrilateral) -> set[tuple[int, int]]:
        """The zero set of q's locus conic over GF(p), as raw residues."""
        return self.once(_zero_set, self.once(bisector_locus, q).conic, q.field.p)

    def bisector_lines(self, q: Quadrilateral) -> list[Line]:
        """Lines a check iterates (_bisector_lines): every bisector when
        exhaustive, else the sides and diagonals."""
        return self.once(_bisector_lines, q, self.solutions(q) if self.exhaustive else None)


def verify_all(q: Quadrilateral, profile: str = "fixture", seed: int = 0) -> list[TheoremReport]:
    """Run the registered theorem checks against one quadrilateral.

    profile "fixture" runs the non-enumerative checks over any field;
    "exhaustive" additionally judges every line, point and pencil member
    and requires a finite field.
    """
    if profile not in ("fixture", "exhaustive"):
        raise ValueError(f"unknown profile {profile!r}")
    exhaustive = profile == "exhaustive"
    if exhaustive and not isinstance(q.field, PrimeField):
        raise InfiniteField("exhaustive verification needs a finite field")
    ctx = _Context(exhaustive, seed)
    reports = []
    for tag, needs_exhaustive, fn in _CHECKS:
        if needs_exhaustive and not exhaustive:
            continue
        start = time.perf_counter()
        try:
            instances, violations = fn(q, ctx)
        except GeometryError as err:
            # A crashing check is a failed check, not an aborted run.
            instances, violations = 0, [f"check aborted: {type(err).__name__}: {err}"]
        reports.append(
            TheoremReport(
                tag=tag,
                field_name=q.field.name,
                instances=instances,
                violations=violations,
                elapsed=time.perf_counter() - start,
            )
        )
    return reports
