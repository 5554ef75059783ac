import hashlib
from collections import Counter

import pytest

from bisectrix import (
    GF, AllLinesThrough, Bisector, Conic, InfPoint, Involution, Line, LinePair, Point, QQ,
    Quadrilateral, is_bisector, q_orthogonal, quadratic_data, random_quadrilateral,
    standard_form, verify_all,
)
from bisectrix.errors import (
    AdjacentParallel, Concurrent4Lines, DegenerateInput, DuplicateLine, ExhaustedSampling,
    IdenticalLines, InvariantViolation, NotABisector, NotBisectors,
)
from bisectrix.bisectors import _bisector_mid, _pencil_ratio
from bisectrix.form import QuadraticData
from bisectrix import oracle
from bisectrix.oracle import _in_span
from bisectrix.pencil import Degeneration, DegenerationReport, ParallelFamily, _midline
from bisectrix.plane import _PARALLEL, _SAME, _gradient, _meet, _product


def make_quad(field, *literals):
    return Quadrilateral(*(Line.parse(field, text) for text in literals))


def verify_digest() -> tuple[str, int]:
    """The same-outputs digest of verify_all: SHA-256 over repr((tag,
    instances, violations)) of every report, in order, of exhaustive verify
    on GF(3), GF(7) and GF(11) seeds 0-59 (seeds whose sampling is exhausted
    are skipped) and GF(101) seeds 1-3, then fixture verify on Q seeds 0-39,
    each quadrilateral drawn and verified with its own seed.  Returns the
    hex digest and the number of reports hashed."""
    runs = [(GF(p), seed, "exhaustive") for p in (3, 7, 11) for seed in range(60)]
    runs += [(GF(101), seed, "exhaustive") for seed in (1, 2, 3)]
    runs += [(QQ, seed, "fixture") for seed in range(40)]
    digest, count = hashlib.sha256(), 0
    for field, seed, profile in runs:
        try:
            q = random_quadrilateral(field, seed)
        except ExhaustedSampling:
            continue
        for report in verify_all(q, profile, seed):
            digest.update(repr((report.tag, report.instances, report.violations)).encode())
            count += 1
    return digest.hexdigest(), count


def standard_by_transform(q, f):
    """The transform route to standard form, the reference for standard_form.

    f must carry one of q's line pairs (sides or diagonals) onto the axes
    Y = 0 and X = 0.  Returns the quadrilaterals (Y=0, f(B), X=0, f(B')) for
    each opposite-side pair {B, B'} of q not carried there: one, or both
    side pairs of a parallelogram, whose diagonals go to the axes.
    """
    field = q.field
    axes = (Line(field.zero, field.one, field.zero), Line(field.one, field.zero, field.zero))
    images = [(f.apply(l1), f.apply(l2)) for l1, l2 in q.line_pairs]
    assert set(axes) in [set(pair) for pair in images]
    out = [Quadrilateral(axes[0], b, axes[1], b2)
           for b, b2 in images[:2] if set((b, b2)) != set(axes)]
    assert len(out) == (2 if q.is_parallelogram() else 1)
    return out


# The plane arithmetic on Scalar objects, the tests' reference for the raw
# meet and midpoint rules (plane._meet, plane._mid) that intersect, midpoint
# and Quadrilateral run.


def intersect_by_scalars(l1, l2):
    """Cramer's rule on the determinant of line_det, here on Scalars: the
    meet of two lines, at infinity when they are parallel."""
    if l1 == l2:
        raise IdenticalLines("lines coincide")
    det = l1.u * l2.t - l1.t * l2.u
    if det.is_zero():
        return l1.infinite_point()
    return Point((l1.v * l2.u - l1.u * l2.v) / det, (l1.v * l2.t - l1.t * l2.v) / det)


def midpoint_by_scalars(p, q):
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def map_point(f, p):
    """The image Mp + b of a point under an affine map f (AffineMap.apply
    takes lines only)."""
    return Point(f.m00 * p.x + f.m01 * p.y + f.b0, f.m10 * p.x + f.m11 * p.y + f.b1)


def line_from_points_by_scalars(p, q):
    if p == q:
        raise DegenerateInput("two coincident points do not span a line")
    dx, dy = q.x - p.x, q.y - p.y
    return Line(dy, dx, dx * p.y - dy * p.x)


def conic_contains_by_scalars(conic, pt):
    """Conic.contains on Scalars, the reference for its homogeneous
    evaluation on ints: the conic's value at a Point, or its leading form
    at the [x : y : 0] of an InfPoint, is zero."""
    a, b, c, d, e, f = conic.coeffs
    x, y = pt.x, pt.y
    value = a * x * x + b * x * y + c * y * y
    if isinstance(pt, Point):
        value = value + d * x + e * y + f
    return value.is_zero()


# The rational formulas of plane's raw helpers over Q before they ran on
# cleared integers, one _Rat operation at a time: the tests' reference for
# the Q branches of plane._meet, plane._mid, line_from_points and
# AffineMap.apply.  They take and return raw tuples of _Rats.


def meet_by_rats(l, m):
    t, u, v = l
    mt, mu, mv = m
    det = u * mt - t * mu
    if not det:
        return _SAME if l == m else _PARALLEL
    inv = 1 / det
    return (v * mu - u * mv) * inv, (v * mt - t * mv) * inv


def mid_by_rats(c1, c2):
    return (c1[0] + c2[0]) / 2, (c1[1] + c2[1]) / 2


def line_from_points_by_rats(p, q):
    (x, y), (qx, qy) = p, q
    dx, dy = qx - x, qy - y
    return Line.of(QQ, (dy, dx, dx * y - dy * x)).raw


def apply_by_rats(f, line):
    m00, m01, m10, m11, b0, b1 = (getattr(f, name).value for name in f.__slots__)
    t, u, v = line
    t2, u2 = t * m11 + u * m10, t * m01 + u * m00
    return Line.of(QQ, (t2, u2, (m00 * m11 - m01 * m10) * v - t2 * b0 + u2 * b1)).raw


# The routes of quadratic_data, q_partner, bisector_through and the Gram
# matrices of affine_invariance before they ran on plane._integral tuples:
# over Q, _Rat arithmetic on the canonical raw values, one gcd per
# operation.  The tests' reference for those routes on both fields.


def quadratic_data_by_rats(q):
    (ta, ua, _), (tb, ub, _), (tc, uc, _), (td, ud, _) = (l.raw for l in q.sides)
    alpha = ta * ub * uc * ud - ua * tb * uc * ud + ua * ub * tc * ud - ua * ub * uc * td
    beta = ta * ub * tc * ud - ua * tb * uc * td
    gamma = ta * tb * tc * ud - ta * tb * uc * td + ta * ub * tc * td - ua * tb * tc * td
    return QuadraticData(*map(q.field.scalar, (alpha, beta, gamma)))


def q_partner_by_rats(q, l):
    p = q.field.p
    t, u, v = raw = l.raw
    sides = [side.raw for side in (q.a, q.a2, q.b, q.b2)]
    if _bisector_mid([_meet(raw, s, p) for s in sides], p) is None:
        raise NotABisector(f"{l} does not bisect the quadrilateral")
    f, g = _product(*sides[:2]), _product(*sides[2:])
    alpha, beta = _pencil_ratio(f, g, t, u)
    xx, xy, yy, x, y = (alpha * a + beta * b for a, b in zip(f, g))
    return Line.of(q.field, (-xy - t * yy, yy, -y - v * yy) if u else (xx, -xy, x - v * xx))


def bisector_through_by_rats(q, m):
    p = q.field.p
    mx, my = xy = m.raw
    sides = [side.raw for side in (q.a, q.a2, q.b, q.b2)]
    (fx, fy), (gx, gy) = ([c % p if p else c for c in _gradient(_product(*pair), xy)]
                          for pair in (sides[:2], sides[2:]))
    if (fx * gy - fy * gx) % p if p else fx * gy - fy * gx:
        return []
    nx, ny = (fx, fy) if fx or fy else (gx, gy)
    if not (nx or ny):
        return AllLinesThrough(m)
    return [Bisector(Line.of(q.field, (-nx, ny, nx * mx + ny * my)), m)]


def pulled_back_gram_by_scalars(d, f):
    """The entries 00, 01 and 11 of F^T G F as Scalars, for G the Gram
    matrix of the form d and F the linear part of f."""

    def form(v, w):
        return d.gamma * v[0] * w[0] - d.beta * (v[0] * w[1] + v[1] * w[0]) + d.alpha * v[1] * w[1]

    c0, c1 = (f.m00, f.m10), (f.m01, f.m11)
    return form(c0, c0), form(c0, c1), form(c1, c1)


def quadrilateral_by_scalars(a, b, a2, b2):
    """The derived data of Quadrilateral(a, b, a2, b2) by the validation
    rules on Scalars, or the error the rules raise: duplicate sides,
    parallel adjacent sides, four concurrent sides."""
    sides = (a, b, a2, b2)
    for i in range(4):
        for j in range(i + 1, 4):
            if sides[i] == sides[j]:
                raise DuplicateLine("sides must be four distinct lines")
    for l1, l2 in ((a, b), (b, a2), (a2, b2), (b2, a)):
        if l1.is_parallel(l2):
            raise AdjacentParallel(f"adjacent sides {l1} and {l2} are parallel")
    v0 = intersect_by_scalars(a, b)
    if a2.contains(v0) and b2.contains(v0):
        raise Concurrent4Lines("all four sides pass through one point")
    v = (v0, intersect_by_scalars(b, a2), intersect_by_scalars(a2, b2), intersect_by_scalars(b2, a))
    centroid = Point(sum((p.x for p in v[1:]), v0.x) / 4, sum((p.y for p in v[1:]), v0.y) / 4)
    double = None
    for i in range(4):
        if v[i] == v[(i + 1) % 4]:
            double = v[i]
    diagonals = (line_from_points_by_scalars(v[0], v[2]), line_from_points_by_scalars(v[1], v[3]))
    return {
        "vertices": v, "centroid": centroid, "proper": double is None, "double_vertex": double,
        "diagonal_lines": diagonals, "line_pairs": ((a, a2), (b, b2), diagonals),
    }


# The bisector definition on Scalar objects, the tests' reference for the
# kernel's raw rule (bisectors._bisector_mid).


def mid_cross(l, pair):
    """The midpoint of the two points where l meets the pair (l's own
    infinite point if one of them is at infinity), or None when l does not
    cross the pair: when l is one of its lines or parallel to both."""
    if l in pair.lines or (l.is_parallel(pair.a) and l.is_parallel(pair.b)):
        return None
    p1, p2 = intersect_by_scalars(l, pair.a), intersect_by_scalars(l, pair.b)
    if isinstance(p1, InfPoint) or isinstance(p2, InfPoint):
        return l.infinite_point()
    return midpoint_by_scalars(p1, p2)


def bisector_by_definition(q, l):
    """The midpoint of l as a bisector of q, or None: l's midpoints across
    the opposite-side pairs it crosses agree and are affine."""
    mids = [mid_cross(l, LinePair(q.a, q.a2)), mid_cross(l, LinePair(q.b, q.b2))]
    mids = [m for m in mids if m is not None]
    assert mids, f"{l} crosses no opposite-side pair"
    if len(mids) == 2 and mids[0] != mids[1]:
        return None
    return None if isinstance(mids[0], InfPoint) else mids[0]


# The bisector through a point and the Q-partner by standard-form
# reduction, and the Q-pair test on the Point midpoints of is_bisector: the
# tests' reference for bisectors.bisector_through, q_partner and is_q_pair.


def bisector_through_by_standard_form(q, m):
    """The bisector(s) of q with midpoint m, found where standard_form's map
    f carries A to Y = 0 and A' to X = 0: the image (x, y) of m lies on the
    locus when y(y - 2k) = mu*x(x - 2h) for the image (h, k) of the
    centroid, and its bisector there is yX + xY = 2xy, or mu*hX + kY = 0 at
    the origin; AllLinesThrough(m) when the origin is the centroid's image.
    Lines come back through f's pullback."""
    f, mu = standard_form(q)

    def pullback(line):
        t, u = line.t, line.u
        return Line(t * f.m00 - u * f.m10, u * f.m11 - t * f.m01, t * f.b0 - u * f.b1 + line.v)

    center = map_point(f, q.centroid)
    h, k = center.x, center.y
    image = map_point(f, m)
    x, y = image.x, image.y
    if not (x.is_zero() and y.is_zero()):
        if not (y * (y - 2 * k) - mu * x * (x - 2 * h)).is_zero():
            return []
        return [Bisector(pullback(Line(y, -x, -2 * x * y)), m)]
    if not (h.is_zero() and k.is_zero()):
        return [Bisector(pullback(Line(mu * h, -k, h.field.zero)), m)]
    return AllLinesThrough(m)


def q_partner_by_standard_form(q, l):
    """The bisector through the antipode 2c - m of l's midpoint m
    (bisector_through_by_standard_form), or, for a midpoint at the centroid
    c, the line through c Q-orthogonal to l (possibly l itself)."""
    m = bisector_by_definition(q, l)
    if m is None:
        raise NotABisector(f"{l} does not bisect the quadrilateral")
    c = q.centroid
    antipode = Point(2 * c.x - m.x, 2 * c.y - m.y)
    if antipode != m:
        found = bisector_through_by_standard_form(q, antipode)
        assert isinstance(found, list) and len(found) == 1, f"{antipode} lies on one bisector"
        return found[0].line
    d = quadratic_data(q)
    r = d.gamma * l.u - d.beta * l.t
    s = -d.beta * l.u + d.alpha * l.t
    return Line(r, -s, -s * c.y - r * c.x)


def q_pair_by_scalars(q, pair):
    """Q-antipodal (the midpoints' midpoint is the centroid) and
    Q-orthogonal; NotBisectors when a line of the pair does not bisect."""
    m1, m2 = (is_bisector(q, l) for l in pair.lines)
    if m1 is None or m2 is None:
        raise NotBisectors(f"{pair} does not consist of bisectors")
    return midpoint_by_scalars(m1, m2) == q.centroid and q_orthogonal(
        quadratic_data(q), pair.a, pair.b)


# The object routes of five exhaustive checks as they were before they ran
# on the sweep's raw tuples: Line, Point, InfPoint and Bisector values built
# for every line and bisector, the tests' reference for oracle's
# _check_vertex_lines, _check_parallel_bisectors, _check_unique_midpoints,
# _check_closed_form and _check_pair_redundancy.  Each takes (q, ctx) and
# returns (instances, violations); kernel names are read through the oracle
# module, so an injected defect reaches them as it reaches the checks.


def _brute(q, ctx):
    """The Bisector values of q's one sweep (see oracle._sweep)."""
    return oracle._bisectors_of(q.field, ctx.solutions(q))


def vertex_line_bisectors_by_objects(q, ctx):
    canonical = set(oracle._canonical_bisectors(q))
    bisecting = {b.line for b in _brute(q, ctx)}
    out = []
    count = 0
    for v in set(q.vertices):
        for line in oracle.lines_through(q.field, v):
            count += 1
            bisects = line in bisecting
            if bisects != (line in canonical):
                out.append(f"{line} through {v}: bisector={bisects}")
    return count, out


def parallel_bisectors_by_objects(q, ctx):
    per_direction = Counter(b.line.infinite_point() for b in _brute(q, ctx))
    parallel_dirs = {l1.infinite_point() for l1, l2 in q.line_pairs if l1.is_parallel(l2)}
    directions = [InfPoint.of(q.field, ut) for ut in oracle._p1(q.field)]
    out = []
    for direction in directions:
        count = per_direction[direction]
        if direction in parallel_dirs:
            if count != q.field.p:
                out.append(f"direction {direction}: only {count} of the class bisect")
        elif count > 1:
            out.append(f"direction {direction}: {count} distinct parallel bisectors")
    return len(directions), out


def unique_midpoints_by_objects(q, ctx):
    by_midpoint = {}
    for b in _brute(q, ctx):
        by_midpoint.setdefault(b.midpoint, set()).add(b.line)
    shared = {m: ls for m, ls in by_midpoint.items() if len(ls) > 1}
    out = []
    if bool(shared) != q.has_parallelogram_vertices():
        out.append(
            f"shared midpoints {sorted(str(m) for m in shared)} vs "
            f"parallelogram-vertices={q.has_parallelogram_vertices()}"
        )
    for m in shared:
        if m != q.centroid:
            out.append(f"shared midpoint {m} is not the centroid")
    return len(by_midpoint), out


def closed_form_oracle_by_objects(q, ctx):
    field = q.field
    closed = set()
    for xy in ctx.locus_zeros(q):
        result = oracle.bisector_through(q, Point.of(field, xy))
        if isinstance(result, AllLinesThrough):
            for line in oracle.lines_through(field, result.center):
                closed.add(Bisector(line, result.center))
        else:
            closed.update(result)
    brute = _brute(q, ctx)
    out = []
    if brute != closed:
        missing = brute - closed
        extra = closed - brute
        if missing:
            out.append(f"closed form misses {sorted(str(b.line) for b in missing)}")
        if extra:
            out.append(f"closed form invents {sorted(str(b.line) for b in extra)}")
    return len(brute), out


def pair_redundancy_by_objects(q, ctx):
    p = q.field.p
    bis = sorted(_brute(q, ctx), key=lambda b: b.line.sort_key())
    d = ctx.once(oracle.quadratic_data, q)
    alpha, beta, gamma = d.alpha.value, d.beta.value, d.gamma.value
    cx, cy = q.centroid.raw
    parallel_dirs = {l1.raw[:2] for l1, l2 in q.line_pairs if l1.is_parallel(l2)}
    lines = [b.line.raw for b in bis]
    mids = [b.midpoint.raw for b in bis]
    by_direction = {}
    by_midpoint = {}
    for j, ((t, u, _), m) in enumerate(zip(lines, mids)):
        by_direction.setdefault((t, u), []).append(j)
        by_midpoint.setdefault(m, []).append(j)
    out = []
    for i, ((t, u, _), (mx, my)) in enumerate(zip(lines, mids)):
        r, s = (gamma * u - beta * t) % p, (alpha * t - beta * u) % p
        antipode = ((2 * cx - mx) % p, (2 * cy - my) % p)
        if r == s == 0:
            candidates = range(i, len(bis))
        else:
            orthogonal = ((-r * pow(s, -1, p)) % p, 1) if s else (1, 0)
            found = by_direction.get(orthogonal, []) + by_midpoint.get(antipode, [])
            candidates = sorted({j for j in found if j >= i})
        for j in candidates:
            tj, uj, _ = lines[j]
            orth = (r * uj + s * tj) % p == 0
            anti = mids[j] == antipode
            both_parallel = (t, u) in parallel_dirs and (tj, uj) in parallel_dirs
            b1, b2 = bis[i], bis[j]
            if orth and not both_parallel and not anti:
                out.append(f"orthogonal pair {{{b1.line}, {b2.line}}} is not antipodal")
            if anti and mids[i] != mids[j] and not orth:
                out.append(f"antipodal pair {{{b1.line}, {b2.line}}} is not orthogonal")
    return len(bis) * (len(bis) + 1) // 2, out


def in_pencil(q, pair):
    """Whether the product of the line pair lies in span(A*A', B*B') plus a
    constant: the oracle's span test on q's side products."""
    f, g, c = (_product(l1.raw, l2.raw)
               for l1, l2 in ((q.a, q.a2), (q.b, q.b2), pair.lines))
    return _in_span(c, f, g, q.field.p)


# The involution of two point pairs on Scalar objects, the tests' reference
# for desargues_involution and desargues_pencil, and desargues_pencil on Scalars.


def involution_from_pairs(pair1, pair2):
    """The unique involution exchanging both pairs of InfPoints: a
    trace-free matrix [[m0, m1], [m2, -m0]] that carries p to q carries q
    back to p, so each pair gives one linear constraint on (m0, m1, m2), and
    the solution is the cross product of the two rows.  Dependent
    constraints leave no involution (DegenerateInput)."""
    (a0, a1, a2), (b0, b1, b2) = (
        (p.x * q.y + p.y * q.x, p.y * q.y, -(p.x * q.x)) for p, q in (pair1, pair2)
    )
    return Involution(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def desargues_pencil_by_scalars(qr, t, u):
    """desargues_pencil on Scalars, its polynomials in v as lists of Scalars
    multiplied term by term.  Each side of qr meets the class tX - uY + v = 0
    at the chart parameter [a + b*v : det] of Cramer's rule, det = u*st -
    t*su, with (a, b) = (-u*sv, su), or (-t*sv, st) on a vertical class (u =
    0), and at [1 : 0] when it is in the class's direction; the exchange
    rows (x1*y2 + y1*x2, y1*y2, -x1*x2) of the first two pairs of opposite
    sides are crossed.  Returned as desargues_pencil returns it: the raw
    values of 3, 4 and 2 coefficients."""
    field = qr.field

    def times(f, g):
        out = [field.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return out

    def minus(f, g):
        return [a - b for a, b in zip(f, g)]

    def parameter(side):
        det = u * side.t - t * side.u
        if det.is_zero():
            return [field.one, field.zero], [field.zero]
        if u.is_zero():
            return [-t * side.v, side.t], [det]
        return [-u * side.v, side.u], [det]

    rows = []
    for pair in qr.opposite_side_pairs()[:2]:
        (x1, y1), (x2, y2) = map(parameter, pair.lines)
        sums = [a + b for a, b in zip(times(x1, y2), times(y1, x2))]
        rows.append((sums, times(y1, y2), [-c for c in times(x1, x2)]))
    (s, e, n), (z, f, k) = rows
    triple = (minus(times(e, k), times(n, f)), minus(times(n, z), times(s, k)),
              minus(times(s, f), times(e, z)))
    return tuple(tuple(c.value for c in m) for m in triple)


def outcome(fn, *args, key=lambda result: result):
    """key of what fn(*args) returns, or the type and text of what it raises."""
    try:
        return "returns", key(fn(*args))
    except Exception as err:
        return "raises", type(err), str(err)


def typed(x):
    """A Scalar with its class and the class of its raw value, which equality
    alone does not tell apart (a _Rat equals a Fraction, an int, ...)."""
    return x if x is None else (x, type(x), type(x.value))


def kernel_quads():
    """Quadrilaterals of every family: seeds 1-3 and SPECIAL_SIDES over
    GF(7), GF(11) and GF(101), and seeds 0-39 over Q."""
    for p in (7, 11, 101):
        yield from (random_quadrilateral(GF(p), seed) for seed in (1, 2, 3))
        yield from (make_quad(GF(p), *sides) for sides in SPECIAL_SIDES)
    yield from (random_quadrilateral(QQ, seed) for seed in range(40))


# The kernel rules that exhaustive verify asks once per P1 direction or
# pencil member, on Scalar objects as they were before they ran on raw
# values: the tests' reference for phi, Involution.conjugate,
# Conic.is_degenerate, degenerations and ParallelFamily.pair_at_offset.


def phi_by_scalars(d, vx, vy):
    return d.gamma * vx * vx - 2 * d.beta * vx * vy + d.alpha * vy * vy


def conjugate_by_scalars(inv, p, q):
    """The exchange row of [p.x : p.y] and [q.x : q.y] dotted with the
    involution's triple is zero."""
    r0, r1, r2 = p.x * q.y + p.y * q.x, p.y * q.y, -(p.x * q.x)
    return (r0 * inv.m0 + r1 * inv.m1 + r2 * inv.m2).is_zero()


def is_degenerate_by_scalars(c):
    """det3, the determinant of the symmetric matrix of the homogenized
    conic, is zero."""
    a, b, cc, d, e, f = c.coeffs
    return ((4 * a * cc * f - a * e * e - b * b * f + b * d * e - cc * d * d) / 4).is_zero()


def degenerations_by_scalars(c):
    """degenerations on Scalars: for a nonsquare leading discriminant its
    witness; for a nonzero square one, c minus its value at its center o
    (Cramer's rule on the gradient system) as the two lines through o along
    the null directions of the quadratic part; for a zero one, the parallel
    family of pencil._midline, if any."""
    field = c.field
    A, B, C, D, E, F = c.coeffs
    disc = B * B - 4 * A * C
    if disc.is_zero():
        midline = _midline(c)
        return DegenerationReport(
            entries=(), family=None if midline is None else ParallelFamily(c, midline))
    root = disc.sqrt()
    if root is None:
        return DegenerationReport(entries=(), absent_witness=disc)
    det = 4 * A * C - B * B
    o = Point((B * E - 2 * C * D) / det, (B * D - 2 * A * E) / det)
    directions = (((field.one, A), (-C, B)) if A.is_zero()
                  else ((root - B, 2 * A), (-root - B, 2 * A)))
    pair = LinePair(*(Line(dy, dx, dx * o.y - dy * o.x) for dx, dy in directions))
    x, y = o.x, o.y
    value = A * x * x + B * x * y + C * y * y + D * x + E * y + F
    return DegenerationReport(entries=(Degeneration(-value, pair),))


def pair_at_offset_by_scalars(family, r):
    """The pair midline + r, midline - r and the constant lam with conic +
    lam their product, checked by shifting the conic."""
    m = family.midline
    pair = LinePair(Line(m.t, m.u, m.v + r), Line(m.t, m.u, m.v - r))
    product = Conic.from_lines(pair.a, pair.b)
    lam = product.f - family.conic.f
    if family.conic.shift(lam) != product:
        raise InvariantViolation(f"{family.conic} shifted by {lam} is not {product}")
    return Degeneration(lam, pair)


def chart_point(line, p):
    """The projective parameter of a point of line's closure: [x : 1] for an
    affine point, x its X coordinate (Y on a vertical line), and [1 : 0]
    for the line's own infinite point."""
    field = line.field
    if isinstance(p, InfPoint):
        if p != line.infinite_point():
            raise DegenerateInput("infinite point does not lie on the line")
        return InfPoint(field.one, field.zero)
    if not line.contains(p):
        raise DegenerateInput("point does not lie on the line")
    return InfPoint(p.y if line.is_vertical else p.x, field.one)


def slope_product(std):
    """mu by its definition: the product of the slopes of B and B' of a
    quadrilateral with A: Y=0 and A': X=0 (B and B' are not parallel to A',
    so each is Y = tX + v)."""
    return std.b.t * std.b2.t


E1_SIDES = ("Y=0", "Y=X+1", "X=0", "Y=2X-1")
E2_SIDES = ("Y=0", "X=0", "Y=1", "X=1")

# Parallelogram, improper (A, B, A' through the origin), parallel pair
# (A parallel to A') and parallelogram vertices (the unit square, crossed).
SPECIAL_SIDES = (
    E2_SIDES,
    ("Y=0", "Y=X", "X=0", "Y=2X+1"),
    ("Y=0", "X=0", "Y=1", "Y=X+2"),
    ("X=0", "Y=X", "X=1", "Y=-X+1"),
)


@pytest.fixture
def e1():
    """Worked example: A: Y=0, B: Y=X+1, A': X=0, B': Y=2X-1 over Q."""
    return make_quad(QQ, *E1_SIDES)


@pytest.fixture
def e2():
    """Unit-square parallelogram over Q."""
    return make_quad(QQ, *E2_SIDES)


@pytest.fixture
def e1_mod7():
    return make_quad(GF(7), *E1_SIDES)


@pytest.fixture
def e2_mod5():
    return make_quad(GF(5), *E2_SIDES)


@pytest.fixture
def improper():
    """Three sides through the origin: A, B and A' concurrent."""
    return make_quad(QQ, "Y=0", "Y=X", "X=0", "Y=2X+1")
