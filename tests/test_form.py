from fractions import Fraction

import pytest

from bisectrix import (
    GF,
    InfPoint,
    Involution,
    Line,
    Point,
    QQ,
    QuadraticData,
    desargues_involution,
    desargues_pencil,
    inner,
    intersect,
    is_bisector,
    lambda_q,
    phi,
    q_orthogonal,
    quadratic_data,
    requadrilate,
)
from bisectrix.errors import (
    DegenerateForm,
    DegenerateInput,
    FieldMismatch,
    LineThroughVertex,
    NotConjugate,
)
from bisectrix.field import _Rat
from bisectrix.oracle import _fixture_probe_lines, _p1, enumerate_lines, random_quadrilateral
from bisectrix.quad import Quadrilateral
from conftest import (
    E1_SIDES, E2_SIDES, SPECIAL_SIDES, chart_point, desargues_pencil_by_scalars,
    involution_from_pairs, make_quad, standard_by_transform,
)


def ip(x, y, field=QQ):
    return InfPoint(field.scalar(Fraction(x)), field.scalar(Fraction(y)))


def test_quadratic_data_e1(e1):
    d = quadratic_data(e1)
    assert (d.alpha, d.beta, d.gamma) == (QQ.one, QQ.zero, QQ.scalar(-2))


def test_quadratic_data_e2(e2):
    d = quadratic_data(e2)
    assert (d.alpha, d.beta, d.gamma) == (QQ.zero, QQ.scalar(-1), QQ.zero)
    assert phi(d, QQ.one, QQ.one) == QQ.scalar(2)


def test_standard_form_data_shape():
    for seed in range(20):
        q = random_quadrilateral(GF(7), seed)
        from bisectrix import standard_form

        f, mu = standard_form(q)
        for std in standard_by_transform(q, f):
            d = quadratic_data(std)
            assert d.alpha == std.field.one
            assert d.beta == std.field.zero
            assert d.gamma == -mu


def test_phi_examples(e1):
    d = quadratic_data(e1)
    assert phi(d, QQ.one, QQ.one) == QQ.scalar(-1)
    assert phi(d, QQ.zero, QQ.zero) == QQ.zero


def test_inner_examples(e1, e2):
    d1 = quadratic_data(e1)
    assert inner(d1, (QQ.one, QQ.zero), (QQ.zero, QQ.one)) == QQ.zero
    v = (QQ.scalar(3), QQ.scalar(-2))
    assert inner(d1, v, v) == phi(d1, *v)
    d2 = quadratic_data(e2)
    assert inner(d2, (QQ.one, QQ.zero), (QQ.one, QQ.zero)) == QQ.zero


def test_q_orthogonal_examples(e1):
    d = quadratic_data(e1)
    assert q_orthogonal(d, e1.a, e1.a2)
    assert q_orthogonal(d, e1.b, e1.b2)
    assert not q_orthogonal(d, e1.b, e1.b)


def test_form_refuses_vectors_and_lines_of_another_field():
    """inner, phi and q_orthogonal raise FieldMismatch when a Scalar or a
    line is not of the form's field, rather than computing a value of it."""
    seven = GF(7)
    d = quadratic_data(random_quadrilateral(seven, 1))
    calls = [
        lambda: inner(d, (QQ.one, QQ.zero), (QQ.zero, QQ.one)),
        lambda: inner(d, (seven.one, seven.zero), (seven.zero, QQ.one)),
        lambda: phi(d, seven.one, QQ.one),
        lambda: q_orthogonal(d, Line.parse(QQ, "Y=X"), Line.parse(QQ, "Y=-X")),
        lambda: q_orthogonal(d, Line.parse(seven, "Y=X"), Line.parse(QQ, "Y=-X")),
    ]
    for call in calls:
        with pytest.raises(FieldMismatch, match="GF\\(7\\) vs Q"):
            call()


def test_quadratic_data_refuses_mixed_fields():
    """A QuadraticData whose alpha, beta and gamma are not of one field
    raises FieldMismatch, rather than evaluating phi on the residue of one
    field and the fraction of another."""
    seven, half = GF(7), QQ.scalar(Fraction(1, 2))
    for triple in ((seven.one, half, seven.one), (seven.one, seven.one, half),
                   (half, seven.one, seven.one)):
        with pytest.raises(FieldMismatch):
            QuadraticData(*triple)
    assert phi(QuadraticData(seven.one, seven.zero, seven.one), seven.one, seven.one) == seven.scalar(2)


def test_discriminant_identity_random():
    """beta^2 - alpha*gamma equals the product of the four adjacent-side
    cross terms, exactly."""
    for field, count in ((QQ, 40), (GF(7), 60), (GF(101), 60)):
        for seed in range(count):
            q = random_quadrilateral(field, seed)
            d = quadratic_data(q)
            sides = (q.a, q.b, q.a2, q.b2)
            product = field.one
            for l1, l2 in zip(sides, sides[1:] + sides[:1]):
                product = product * (l1.t * l2.u - l2.t * l1.u)
            assert d.discriminant() == product
            assert not product.is_zero()


def test_opposite_sides_orthogonal_random():
    for field in (QQ, GF(7)):
        for seed in range(40):
            q = random_quadrilateral(field, seed)
            d = quadratic_data(q)
            assert q_orthogonal(d, q.a, q.a2)
            assert q_orthogonal(d, q.b, q.b2)
            assert q_orthogonal(d, *q.diagonal_lines)


def test_lambda_q_e1(e1):
    d = quadratic_data(e1)
    inv = lambda_q(d)
    assert inv == Involution(QQ.zero, -QQ.one, QQ.scalar(-2))
    assert inv.conjugate(ip(1, 0), ip(0, 1))
    assert inv.conjugate(ip(1, 1), ip(1, 2))
    assert inv == Involution(QQ.zero, QQ.scalar(3), QQ.scalar(6))
    with pytest.raises(DegenerateInput):
        Involution(QQ.one, QQ.one, -QQ.one)


def test_lambda_q_fixed_points_are_null_directions(e2):
    d = quadratic_data(e2)
    inv = lambda_q(d)
    # Phi = 2XY has null directions [1:0] and [0:1].
    assert inv.fixes(ip(1, 0))
    assert inv.fixes(ip(0, 1))
    assert not inv.fixes(ip(1, 1))
    degenerate = quadratic_data(e2).__class__(QQ.one, QQ.one, QQ.one)
    with pytest.raises(DegenerateForm):
        lambda_q(degenerate)


def test_lambda_q_squares_to_discriminant():
    field = GF(11)
    directions = [InfPoint.of(field, xy) for xy in _p1(field)]
    for seed in range(20):
        q = random_quadrilateral(field, seed)
        d = quadratic_data(q)
        inv = lambda_q(d)
        assert inv.m0 * inv.m0 + inv.m1 * inv.m2 == d.discriminant()
        for p in directions:
            for r in directions:
                conjugate = inner(d, (p.x, p.y), (r.x, r.y)).is_zero()
                assert inv.conjugate(p, r) == conjugate


def test_involution_from_pairs_solution():
    pair1 = (ip(1, 0), ip(0, 1))
    pair2 = (ip(1, 1), ip(1, -1))
    inv = involution_from_pairs(pair1, pair2)
    # The solve gives [x:y] |-> [y:-x], not the coordinate swap.
    assert inv == Involution(QQ.zero, QQ.one, -QQ.one)
    assert inv.conjugate(ip(1, 1), ip(1, -1))
    assert inv.conjugate(ip(1, -1), ip(1, 1))


def test_involution_from_pairs_underdetermined():
    pair = (ip(1, 0), ip(0, 1))
    with pytest.raises(DegenerateInput):
        involution_from_pairs(pair, pair)


def test_lambda_reconstructed_from_side_pairs(e1):
    d = quadratic_data(e1)
    inv = involution_from_pairs(
        (e1.a.infinite_point(), e1.a2.infinite_point()),
        (e1.b.infinite_point(), e1.b2.infinite_point()),
    )
    assert inv == lambda_q(d)


def test_desargues_involution_e1(e1):
    qr = e1.quadrangle()
    line = Line.parse(QQ, "X=3")
    inv = desargues_involution(qr, line)
    # All three opposite-side pairs are conjugate under the one involution.
    for pair in qr.opposite_side_pairs():
        s1 = chart_point(line, intersect(line, pair.a))
        s2 = chart_point(line, intersect(line, pair.b))
        assert inv.conjugate(s1, s2)
    assert not inv.m2.is_zero()
    with pytest.raises(LineThroughVertex):
        desargues_involution(qr, Line.parse(QQ, "X=0"))


def test_desargues_involution_raises_when_third_pair_not_conjugate(e1, monkeypatch):
    """The third-pair check is a raise, so it also holds under python -O.
    With every restriction's constant off by one, the third pair's row
    misses the involution of the first two."""
    from bisectrix import form
    from test_defects import _restriction_constant_plus_one

    qr = e1.quadrangle()
    line = Line.parse(QQ, "X=3")
    monkeypatch.setattr(form, "_restriction", _restriction_constant_plus_one(form._restriction))
    with pytest.raises(NotConjugate, match="third pair"):
        desargues_involution(qr, line)


def test_desargues_reflection_iff_bisector_gf7(e1_mod7):
    q = e1_mod7
    qr = q.quadrangle()
    non_bisector_seen = False
    for line in enumerate_lines(q.field):
        if any(line.contains(v) for v in qr.points):
            continue
        inv = desargues_involution(qr, line)
        bisects = is_bisector(q, line) is not None
        assert inv.m2.is_zero() == bisects
        assert inv.m2.is_zero() == inv.fixes(InfPoint(q.field.one, q.field.zero))
        if not bisects:
            non_bisector_seen = True
    assert non_bisector_seen


def _at(coeffs, v):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def test_desargues_pencil_at_v_is_the_involution_of_each_line():
    """The class form evaluated at v, and desargues_involution, equal
    involution_from_pairs on the chart parameters of the line's crossings:
    on every line of GF(7), GF(11) and GF(13) that avoids the vertices, and
    over Q on the fixture probe lines of seeds 0-39, E1 and E2.  The class
    form is raw: it is evaluated on raw values, then wrapped, and its
    entries are reduced ints over GF(p) and _Rats over Q."""
    cases = []
    for p in (7, 11, 13):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in range(4)]
        quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        cases += [(q, enumerate_lines(field)) for q in quads]
    quads = [random_quadrilateral(QQ, seed) for seed in range(40)]
    quads += [make_quad(QQ, *sides) for sides in (E1_SIDES, E2_SIDES)]
    cases += [(q, _fixture_probe_lines(q)) for q in quads]
    q_lines = 0
    for q, lines in cases:
        if not q.proper:
            continue
        qr = q.quadrangle()
        pencils = {}
        for line in lines:
            if any(line.contains(v) for v in qr.points):
                continue
            pairs = [
                tuple(chart_point(line, intersect(line, m)) for m in pair.lines)
                for pair in qr.opposite_side_pairs()
            ]
            expected = involution_from_pairs(pairs[0], pairs[1])
            if (line.t, line.u) not in pencils:
                pencil = pencils[line.t, line.u] = desargues_pencil(qr, line.t, line.u)
                p = q.field.p
                assert all(0 <= c < p if p else type(c) is _Rat for m in pencil for c in m)
            m = [line.field.scalar(_at(c, line.raw[2])) for c in pencils[line.t, line.u]]
            assert Involution(*m) == expected, (q, line)
            assert desargues_involution(qr, line) == expected, (q, line)
            q_lines += q.field is QQ
    assert q_lines > 100


def test_desargues_pencil_degree_and_parallel_directions():
    """The coefficient tuples have 3, 4 and 2 entries in every direction,
    trailing zeros kept, and m2 vanishes identically exactly in the
    direction of a parallel pair of sides or diagonals, whose whole class
    bisects.  A (0, 0) direction, or one of another field, is refused."""
    for p in (11, 13):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in range(12)]
        quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        for q in (q for q in quads if q.proper):
            qr = q.quadrangle()
            parallel = {l1.infinite_point() for l1, l2 in q.line_pairs if l1.is_parallel(l2)}
            for u, t in (map(field.scalar, ut) for ut in _p1(field)):
                pencil = desargues_pencil(qr, t, u)
                assert [len(coeffs) for coeffs in pencil] == [3, 4, 2], (p, q, t, u)
                m2_zero = not any(pencil[2])
                assert m2_zero == (InfPoint(u, t) in parallel), (p, q, t, u)
        with pytest.raises(DegenerateInput):
            desargues_pencil(qr, field.zero, field.zero)
        with pytest.raises(FieldMismatch):
            desargues_pencil(qr, QQ.one, QQ.zero)


def _reduced(xs, p):
    return [x % p if p else x for x in xs]


def _proportional(r, s, p):
    """Whether two raw triples are nonzero multiples of each other."""
    cross = (r[1] * s[2] - r[2] * s[1], r[2] * s[0] - r[0] * s[2], r[0] * s[1] - r[1] * s[0])
    return any(_reduced(r, p)) and any(_reduced(s, p)) and not any(_reduced(cross, p))


def test_desargues_pencil_is_proportional_to_the_chart_parameter_route():
    """desargues_pencil, read off the side-product pencil, against
    desargues_pencil_by_scalars, the route through each side's chart
    parameter [a + b*v : det] and the pairs' exchange rows.  At every line
    of GF(7) and GF(11) off the vertices, and over Q on the fixture probe
    lines of seeds 0-39, E1 and E2, the two triples at v are nonzero
    multiples of each other.  Off the directions of the quadrangle's sides
    the two triples of a class differ by one constant factor, coefficient
    by coefficient (over GF(7), GF(11) and GF(101) in every such
    direction, and over Q in X = 0, five slopes and the directions of the
    probe lines).  In a side direction the factor is a polynomial in v
    whose roots are offsets of sides (every v of GF(p) judged)."""
    cases = []
    for p in (7, 11, 101):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in range(6)]
        quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        lines = enumerate_lines(field) if p < 101 else []
        cases += [(q, list(_p1(field)), lines) for q in quads if q.proper]
    quads = [random_quadrilateral(QQ, seed) for seed in range(40)]
    quads += [make_quad(QQ, *sides) for sides in (E1_SIDES, E2_SIDES)]
    slopes = [(1, Fraction(t)) for t in ("0", "1", "-1/2", "3/5", "7/3")]
    for q in (q for q in quads if q.proper):
        probes = _fixture_probe_lines(q)
        sides = [l for pair in q.quadrangle().opposite_side_pairs() for l in pair.lines]
        cases.append((q, [(0, 1)] + slopes + [l.raw[1::-1] for l in probes + sides], probes))
    constant = lines_seen = side_classes = 0
    for q, directions, lines in cases:
        qr, field, p = q.quadrangle(), q.field, q.field.p
        sides = [l.raw for pair in qr.opposite_side_pairs() for l in pair.lines]
        pencils = {}
        for u, t in directions:
            d = (field.scalar(t).value, field.scalar(u).value)
            got = desargues_pencil(qr, *map(field.scalar, (t, u)))
            want = desargues_pencil_by_scalars(qr, *map(field.scalar, (t, u)))
            pencils[d] = got, want
            flat_got = [c for m in got for c in m]
            flat_want = [c for m in want for c in m]
            offsets = {l[2] for l in sides if l[:2] == d}
            if not offsets:
                # One constant factor k != 0: k*want - got is zero coefficient by coefficient.
                i = next(i for i, c in enumerate(_reduced(flat_want, p)) if c)
                k = flat_got[i] * (pow(flat_want[i], -1, p) if p else 1 / flat_want[i])
                assert any(_reduced([k], p))
                assert not any(_reduced([k * w - g for g, w in zip(flat_got, flat_want)], p))
                constant += 1
            elif p:
                for v in range(p):
                    r, s = ([_at(c, v) for c in m] for m in (got, want))
                    assert _proportional(r, s, p) or not any(_reduced(s, p)) or (
                        not any(_reduced(r, p)) and v in offsets), (q, d, v)
                side_classes += 1
        for line in lines:
            if any(line.contains(v) for v in qr.points):
                continue
            got, want = pencils[line.raw[:2]]
            v = line.raw[2]
            assert _proportional(*([_at(c, v) for c in m] for m in (got, want)), p), (q, line)
            lines_seen += 1
    assert constant > 1000 and side_classes > 50 and lines_seen > 800


def test_repairings_share_orthogonality(e1):
    """The three quadrilaterals of a quadrangle have proportional quadratic
    data, hence identical orthogonality."""
    d_ref = quadratic_data(e1)
    ref = (d_ref.alpha, d_ref.beta, d_ref.gamma)
    for other in requadrilate(e1.quadrangle()):
        assert isinstance(other, Quadrilateral)
        d = quadratic_data(other)
        got = (d.alpha, d.beta, d.gamma)
        for i in range(3):
            for j in range(i + 1, 3):
                assert ref[i] * got[j] == ref[j] * got[i]


def test_affine_image_scaling(e1):
    from bisectrix import AffineMap

    f = AffineMap.linear(QQ.scalar(2), QQ.one, QQ.zero, QQ.one)
    fq = e1.transform(f)
    d_q = quadratic_data(e1)
    d_fq = quadratic_data(fq)

    def image(v):
        return (f.m00 * v[0] + f.m01 * v[1], f.m10 * v[0] + f.m11 * v[1])

    probe = ((QQ.one, QQ.zero), (QQ.one, QQ.zero))
    lam = inner(d_q, *probe) / inner(d_fq, image(probe[0]), image(probe[1]))
    for a in range(-2, 3):
        for b in range(-2, 3):
            v = (QQ.scalar(a), QQ.scalar(b))
            w = (QQ.scalar(b), QQ.scalar(a + 1))
            assert inner(d_q, v, w) == lam * inner(d_fq, image(v), image(w))


def test_conjugate_and_phi_build_no_scalars_but_phis_result(monkeypatch):
    """On GF(31), Involution.conjugate and fixes construct no Scalar and phi
    constructs one, its result: no field._make call and no Scalar operator
    runs in the first two, one field._make call in phi."""
    field = GF(31)
    q = random_quadrilateral(field, 1)
    d = quadratic_data(q)
    inv = lambda_q(d)
    points = [InfPoint.of(field, xy) for xy in _p1(field)]
    coords = [(pt.x, pt.y) for pt in points]
    built = []
    scalar = type(field.one)
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__neg__"):
        op = getattr(scalar, name)
        monkeypatch.setattr(scalar, name, lambda *args, _op=op: built.append(1) or _op(*args))
    make = field._make
    monkeypatch.setattr(field, "_make", lambda value: built.append(1) or make(value))
    for pt in points:
        assert inv.conjugate(pt, points[0]) in (True, False) and inv.fixes(pt) in (True, False)
    assert built == []
    for x, y in coords:
        phi(d, x, y)
        assert len(built) == 1
        built.clear()
