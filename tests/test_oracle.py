import pytest

from bisectrix import (
    GF,
    Bisector,
    Line,
    LinePair,
    Point,
    QQ,
    bisector_locus,
    brute_bisectors,
    closed_form_bisectors,
    desargues_involution,
    enumerate_lines,
    inner,
    intersect,
    is_bisector,
    lines_through,
    midpoint,
    q_partner,
    quadratic_data,
    random_quadrilateral,
    verify_all,
)
from bisectrix.errors import GeometryError, InfiniteField, NotConjugate
from bisectrix.field import _Rat
from bisectrix.oracle import Lcg64, _desargues_classes, _sweep
from conftest import (
    E1_SIDES, SPECIAL_SIDES, bisector_by_definition, chart_point, closed_form_oracle_by_objects,
    involution_from_pairs, make_quad, mid_cross, pair_redundancy_by_objects,
    parallel_bisectors_by_objects, unique_midpoints_by_objects, verify_digest,
    vertex_line_bisectors_by_objects,
)
from test_defects import (
    DEFECTS, _inject, _m2_constant_plus_one, _restriction_constant_plus_one, alpha_plus_one,
    partner_shifted,
)


def test_enumerate_lines_counts():
    assert len(enumerate_lines(GF(3))) == 12
    assert len(enumerate_lines(GF(5))) == 30
    assert len(enumerate_lines(GF(7))) == 56
    for field in (GF(3), GF(5)):
        lines = enumerate_lines(field)
        assert len(set(lines)) == len(lines)
    with pytest.raises(InfiniteField):
        enumerate_lines(QQ)


def test_lines_through_a_point():
    g5 = GF(5)
    p = Point(g5.scalar(2), g5.scalar(3))
    through = lines_through(g5, p)
    assert len(through) == 6
    assert all(l.contains(p) for l in through)


def test_brute_bisectors_contains_sides_and_diagonals():
    q = make_quad(GF(7), *E1_SIDES)
    lines = {b.line for b in brute_bisectors(q)}
    for side in q.sides:
        assert side in lines
    for diagonal in q.diagonal_lines:
        assert diagonal in lines
    with pytest.raises(InfiniteField):
        brute_bisectors(make_quad(QQ, *E1_SIDES))


def test_parallelogram_bisectors_contain_center_star():
    g5 = GF(5)
    q = make_quad(g5, "Y=0", "X=0", "Y=1", "X=1")
    lines = {b.line for b in brute_bisectors(q)}
    star = lines_through(g5, q.centroid)
    assert len(star) == 6
    assert set(star) <= lines


def test_oracle_equivalence():
    """Brute-force bisectors equal the closed-form set (the core dual-route
    check), over GF(5) and GF(7)."""
    for field, count in ((GF(5), 20), (GF(7), 20)):
        for seed in range(count):
            q = random_quadrilateral(field, seed)
            assert brute_bisectors(q) == closed_form_bisectors(q)


def test_brute_bisectors_equal_definition_per_line():
    """is_bisector answers every line as the Scalar definition does, and the
    per-class solve of brute_bisectors finds exactly the lines it accepts,
    with the same midpoints."""
    for p in (3, 5, 7, 11, 13):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in range(60)]
        quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        lines = enumerate_lines(field)
        for q in quads:
            expected = set()
            for line in lines:
                m = bisector_by_definition(q, line)
                assert is_bisector(q, line) == m, (p, q, line)
                if m is not None:
                    expected.add(Bisector(line, m))
            assert brute_bisectors(q) == expected, (p, q)


def test_desargues_class_parameters_equal_chart_points():
    """Each class's chart-parameter polynomials, evaluated at every offset
    off the vertices, equal up to scale the chart parameters of the kernel's
    intersection points, and the offsets left are exactly the lines that
    avoid the vertices, in enumerate_lines order."""
    for p in (7, 11):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in range(12)]
        quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        for q in (q for q in quads if q.proper):
            qr = q.quadrangle()
            avoiding = [
                l for l in enumerate_lines(field) if not any(l.contains(v) for v in qr.points)
            ]
            lines = []
            for t, u, offsets, params in _desargues_classes(q, _sweep(q)[1]):
                assert len(params) == 6
                for v in (v for v in range(p) if v not in offsets):
                    line = Line(*(field.scalar(c) for c in (t, u, v)))
                    lines.append(line)
                    expected = [
                        chart_point(line, intersect(line, m))
                        for pair in qr.opposite_side_pairs() for m in pair.lines
                    ]
                    for (x0, x1, y), point in zip(params, expected):
                        x = (x0 + x1 * v) % p
                        assert (x, y) != (0, 0)
                        assert (point.x.value * y - point.y.value * x) % p == 0, (line, point)
            assert lines == avoiding


def _walked(patch, q, ctx):
    """_check_desargues with every class walked line by line: no class
    cleared, whether by the whole class rule or by the root half that the
    quadrangle route runs alone."""
    from bisectrix import oracle

    with patch.context() as walk:
        walk.setattr(oracle, "_desargues_class_cleared", lambda *args: False)
        walk.setattr(oracle, "_desargues_roots", lambda *args: False)
        return oracle._check_desargues(q, ctx)


def _walk_test_quads():
    """Proper quadrilaterals at p = 3, 5, 7, 11 and 13, where degrees reach
    p and most quadrangles have fewer than 7 chart classes, and a few at
    p = 31 and 101, where the quadrangle route engages."""
    for p, seeds in ((3, 12), (5, 12), (7, 12), (11, 12), (13, 12), (31, 3), (101, 3)):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in range(seeds)]
        if p < 31:
            quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        yield from (q for q in quads if q.proper)


def test_exhaustive_desargues_decides_classes_as_the_walk_does(monkeypatch):
    """Exhaustive desargues_reflection, which clears whole parallel classes
    by identities in v, and decides those identities once per quadrangle
    where it can, reports exactly what it reports when every class is
    walked line by line: on sound kernels (where every identity is one of
    polynomials and no class is walked) and with two Desargues defects."""
    from bisectrix import form, oracle

    defects = (None, ("desargues_pencil", _m2_constant_plus_one),
               ("_restriction", _restriction_constant_plus_one))
    cleared, roots = oracle._desargues_class_cleared, oracle._desargues_roots
    decisions = []

    def counted(decide):
        def decision(*args):
            decisions.append(decide(*args))
            return decisions[-1]
        return decision

    for defect in defects:
        with monkeypatch.context() as patch:
            if defect:
                _inject(patch, form, *defect)
            patch.setattr(oracle, "_desargues_class_cleared", counted(cleared))
            patch.setattr(oracle, "_desargues_roots", counted(roots))
            violations = 0
            for q in _walk_test_quads():
                ctx = oracle._Context(True, 0)
                decided = oracle._check_desargues(q, ctx)
                assert decided == _walked(patch, q, ctx), (defect, q)
                violations += len(decided[1])
            assert (violations > 0) == (defect is not None)
        # Sound kernels clear every class; a defect sends some to the walk.
        assert decisions and all(decisions) == (defect is None), defect
        del decisions[:]


def _chart_classes(q):
    """The t of q's chart classes, in order: the classes tX - Y + v = 0
    with no side of q's quadrangle among their lines."""
    sides = {l.raw[:2] for pair in q.quadrangle().opposite_side_pairs() for l in pair.lines}
    return [t for t in range(q.field.p) if (t, 1) not in sides]


def test_quadrangle_route_runs_the_identity_half_on_seven_classes(monkeypatch):
    """Over GF(101) the identities of the class rule run, for a sound
    kernel, only on the class u = 0, the side directions and the first 7
    chart classes; the whole class rule runs on the first two kinds alone,
    and every other class runs only the root half."""
    from bisectrix import oracle

    identities, cleared = oracle._desargues_identities, oracle._desargues_class_cleared
    calls = {"identities": [], "cleared": []}

    def recorded(name, fn):
        def call(pencil, params, *args):
            calls[name].append(tuple(params))
            return fn(pencil, params, *args)
        return call

    monkeypatch.setattr(oracle, "_desargues_identities", recorded("identities", identities))
    monkeypatch.setattr(oracle, "_desargues_class_cleared", recorded("cleared", cleared))
    quads = [q for q in (random_quadrilateral(GF(101), seed) for seed in range(1, 6)) if q.proper]
    assert len(quads) >= 3
    for q in quads[:3]:
        ctx = oracle._Context(True, 0)
        classes = {tuple(params): (t, u)
                   for t, u, _, params in oracle._desargues_classes(q, _sweep(q)[1])}
        assert len(classes) == 102
        chart = _chart_classes(q)
        whole = {(t, u) for t, u in classes.values() if not u or t not in chart}
        for found in calls.values():
            del found[:]
        instances, violations = oracle._check_desargues(q, ctx)
        assert instances > 0 and violations == []
        ran = {name: sorted(classes[params] for params in found) for name, found in calls.items()}
        assert ran["cleared"] == sorted(whole), q
        assert ran["identities"] == sorted(whole | {(t, 1) for t in chart[:7]}), q
        assert 1 <= len(whole) <= 7 and len(chart) > 90


def test_quadrangle_route_gives_the_walk_result_with_a_one_class_fault(monkeypatch):
    """Over GF(101), with the constant term of the kernel's m1 or m2 off by
    one at a single chart class, exhaustive desargues_reflection reports
    what the walk of every class reports, and the fault.  Planted off the 7
    identity classes, the route still decides the identities of the other
    chart classes once and sends that class to the whole rule (an m1 fault
    passes the root half and fails only the identities).  Planted at one of
    the 5 interpolation samples, or at one of the 2 identity classes past
    them, no class matches the interpolant or an identity class does not,
    and every class runs the whole rule."""
    from bisectrix import oracle

    p = 101
    q = next(q for q in (random_quadrilateral(GF(p), seed) for seed in range(1, 6)) if q.proper)
    chart = _chart_classes(q)
    pencil = oracle.desargues_pencil
    for k, entry in ((40, 1), (40, 2), (2, 2), (6, 1), (6, 2)):
        def faulty(qr, t, u, fault=chart[k], entry=entry):
            triple = pencil(qr, t, u)
            if (t.value, u.value) != (fault, 1):
                return triple
            m = triple[entry]
            return (*triple[:entry], ((m[0] + 1) % p, *m[1:]), *triple[entry + 1:])

        with monkeypatch.context() as patch:
            patch.setattr(oracle, "desargues_pencil", faulty)
            ctx = oracle._Context(True, 0)
            decided = oracle._check_desargues(q, ctx)
            assert decided == _walked(patch, q, ctx), (k, entry)
            assert decided[1], (k, entry)
            classes = list(oracle._desargues_classes(q, _sweep(q)[1]))
            pencils = [faulty(q.quadrangle(), GF(p).scalar(t), GF(p).scalar(u))
                       for t, u, _, _ in classes]
            once = {classes[i][0] for i in oracle._quadrangle_identities(classes, pencils, p)}
            assert once == (set(chart) - {chart[k]} if k == 40 else set()), (k, entry)


def test_class_decision_root_rules_equal_evaluation():
    """The root rule of the class decision against evaluation at every v of
    GF(p): a polynomial of degree at most 2 has its roots among the
    offsets."""
    from bisectrix import oracle

    rng = Lcg64(7)
    for p in (3, 5, 7, 11):
        for _ in range(400):
            offsets = {rng.below(p) for _ in range(rng.below(p))}
            poly = [rng.below(p) if rng.below(3) else 0 for _ in range(1 + rng.below(8))]
            if rng.below(4) == 0:  # a multiple of the product of v - k off the offsets
                for k in (k for k in range(p) if k not in offsets):
                    poly = [(a - k * b) % p for a, b in zip([0, *poly], [*poly, 0])]
            values = [sum(c * v ** i for i, c in enumerate(poly)) % p for v in range(p)]
            off = [x for v, x in enumerate(values) if v not in offsets]
            if len(poly) <= 3 and len(offsets) < p:
                assert oracle._roots_within(poly, offsets, p) == all(off), (p, poly, offsets)


def _poly_times(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _poly_minus(f, g, p):
    size = max(len(f), len(g))
    f, g = f + [0] * (size - len(f)), g + [0] * (size - len(g))
    return [(a - b) % p for a, b in zip(f, g)]


def test_class_decision_clears_only_classes_the_walk_passes():
    """On crafted classes, whenever _desargues_class_cleared clears one,
    _desargues_line finds no problem on any of its lines.  A class of a
    real quadrangle with a conjugate pencil never fails the later clauses
    (cross-determinant roots, m nonzero, reflections against bisecting
    offsets), so these classes are built to reach them: random chart
    parameters with the second pair a copy of the first, random vertex
    offsets, the pencil a random multiple c(v) * (r0 x r2) of the oracle's
    own rows, and bisecting offsets that are the reflections or random."""
    from bisectrix import oracle

    rng = Lcg64(11)
    cleared = 0
    for p in (3, 5, 7, 11):
        for _ in range(600):
            points = [(1, 0, 0) if rng.below(4) == 0 else (rng.below(p), rng.below(p), 1)
                      for _ in range(4)]
            params = points[:2] * 2 + points[2:]
            rows = []
            for (x0, x1, y), (z0, z1, w) in (points[:2], points[2:]):
                rows.append(([x0 * w + y * z0, x1 * w + y * z1], [y * w],
                             [-x0 * z0, -(x0 * z1 + x1 * z0), -x1 * z1]))
            r, s = rows
            m13 = [_poly_minus(_poly_times(r[i], s[j], p), _poly_times(r[j], s[i], p), p)
                   for i, j in ((1, 2), (2, 0), (0, 1))]
            c = [rng.below(p) for _ in range(1 + rng.below(2))]
            pencil = [_poly_times(c, m, p) for m in m13]
            offsets = {rng.below(p) for _ in range(rng.below(p))}
            off = [v for v in range(p) if v not in offsets]
            if not off:
                continue
            m2_at = [sum(a * v ** i for i, a in enumerate(pencil[2])) % p for v in off]
            if rng.below(2):
                bisecting = {v for v, x in zip(off, m2_at) if x == 0}
            else:
                bisecting = {v for v in range(p) if rng.below(2)}
            if oracle._desargues_class_cleared(pencil, params, offsets, bisecting, p):
                cleared += 1
                for v in off:
                    assert not oracle._desargues_line(pencil, params, v, v in bisecting, p), (
                        p, pencil, params, offsets, bisecting, v)
    assert cleared > 100


def test_random_quadrilateral_deterministic():
    a = random_quadrilateral(GF(7), 1)
    b = random_quadrilateral(GF(7), 1)
    assert a == b
    c = random_quadrilateral(GF(7), 2)
    assert a != c
    q = random_quadrilateral(QQ, 2)
    assert q.proper or q.double_vertex is not None


def test_lcg_sequence_stable():
    """The draws of a seed are pinned: a range of at most 2^32 values takes
    one step of the generator, so every sampled instance keeps its draws."""
    ranges = (7, 101 * 102, 2**32, 7, 2**32, 101 * 102)
    pinned = {
        0: [4, 8653, 2599843874, 5, 1647660250, 8632],
        1: [2, 1057, 2784682393, 5, 3416422068, 2458],
        12345: [6, 7886, 3803726085, 5, 1398574760, 3372],
    }
    for seed, draws in pinned.items():
        rng = Lcg64(seed)
        assert [rng.below(n) for n in ranges] == draws, seed


def test_random_quadrilateral_draws_wide_slopes():
    """Over GF(2^61 - 1) there are about 2^122 lines; sampling reaches
    slopes beyond 2^32, not only a prefix of horizontal lines."""
    field = GF(2**61 - 1)
    for seed in range(5):
        q = random_quadrilateral(field, seed)
        assert any(not l.is_vertical and l.t.value >= 2**32 for l in q.sides), seed


def test_verify_all_fixture_profiles(e1, e2, improper):
    for q in (e1, e2, improper):
        reports = verify_all(q, "fixture")
        assert reports
        for r in reports:
            assert not r.violations, (r.tag, r.violations)


def test_verify_all_exhaustive_gf7():
    for seed in range(5):
        q = random_quadrilateral(GF(7), seed)
        reports = verify_all(q, "exhaustive")
        tags = {r.tag for r in reports}
        assert "closed_form_oracle" in tags
        assert "pencil_degenerations" in tags
        for r in reports:
            assert not r.violations, (r.tag, r.violations)


def test_verify_all_outputs_keep_their_digest():
    """The (tag, instances, violations) of every report on the digest's
    instances (see verify_digest) are unchanged.  A change that moves this
    digest changes what verify reports, and must say why."""
    assert verify_digest() == (
        "b87c0cf58cdb2162aabc0985d6b8040b99277ea8fb73d58142ade45a24ce7801", 3551)


def test_verify_all_rejects_bad_input(e1):
    with pytest.raises(InfiniteField):
        verify_all(e1, "exhaustive")
    with pytest.raises(ValueError):
        verify_all(e1, "nonsense")


def test_verify_all_flags_corrupted_data():
    """Corrupting the memoised side products (the XY coefficient of B*B'
    off by one), which bisector_locus and bisector_through read, surfaces a
    named violation in the oracle-equivalence check, which compares them
    with the sweep of the definition."""
    from bisectrix.bisectors import _side_products

    q = random_quadrilateral(GF(7), 3)
    f, g = _side_products(q)
    # The memo is a frozen slot: inject the corruption past the guard.
    object.__setattr__(q, "_pencil", (f, (g[0], g[1] + 1, *g[2:])))
    reports = verify_all(q, "exhaustive")
    failing = {r.tag for r in reports if r.violations}
    assert "closed_form_oracle" in failing


def test_exhaustive_desargues_compares_every_swept_line(monkeypatch):
    """With m2 made a nonzero constant, so that no line is a reflection,
    every bisector off the vertices is a violation, in the classes walked
    because the per-class route cannot clear them, and the triple fails the
    walked lines' conjugate pairs elsewhere."""
    from bisectrix import oracle

    pencil = oracle.desargues_pencil
    monkeypatch.setattr(
        oracle, "desargues_pencil", lambda qr, t, u: (*pencil(qr, t, u)[:2], (1,))
    )
    for seed in (1, 2, 4):
        q = random_quadrilateral(GF(7), seed)
        assert q.proper
        swept = {
            str(b.line) for b in brute_bisectors(q)
            if not any(b.line.contains(v) for v in q.vertices)
        }
        report = {r.tag: r for r in verify_all(q, "exhaustive")}["desargues_reflection"]
        reflections = [v for v in report.violations if "reflection=" in v]
        assert all(v.endswith(": reflection=False but bisector=True") for v in reflections)
        assert sorted(v.partition(":")[0] for v in reflections) == sorted(swept)
        assert len(swept) > 0
        # Off the bisectors the corrupted triple fails the conjugate pairs.
        problems = {v.partition(": ")[2] for v in report.violations}
        assert {"third pair not conjugate", "the three conjugate pairs disagree"} <= problems


def test_exhaustive_desargues_builds_one_pencil_per_class(monkeypatch):
    """Over GF(11) the exhaustive desargues_reflection check asks the kernel
    for one desargues_pencil per parallel class and builds no Involution."""
    from bisectrix import Involution, oracle

    field = GF(11)
    quads = [q for q in (random_quadrilateral(field, seed) for seed in range(6)) if q.proper]
    calls = []
    pencil = oracle.desargues_pencil
    monkeypatch.setattr(
        oracle, "desargues_pencil", lambda *args: calls.append(args) or pencil(*args)
    )

    def refuse(*args, **kwargs):
        raise AssertionError("built an Involution")

    monkeypatch.setattr(Involution, "__init__", refuse)
    for q in quads:
        del calls[:]
        instances, violations = oracle._check_desargues(q, oracle._Context(True, 0))
        assert violations == []
        assert instances > 0
        assert len(calls) == field.p + 1
    assert len(quads) >= 3


def test_fixture_verify_builds_no_kernel_involution(monkeypatch, capsys):
    """Over Q, desargues_reflection reads the kernel only through
    desargues_pencil: with desargues_involution, the kernel's one other
    route to an Involution of a line, made to raise, verify prints the same
    lines and exits 0."""
    from bisectrix import form
    from bisectrix.cli import main

    argv = ["--field", "Q", "--cmd", "verify", "--instances", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    assert "desargues_reflection Q 0 " not in expected

    def refuse(*args, **kwargs):
        raise AssertionError("called a kernel Involution route")

    _inject(monkeypatch, form, "desargues_involution", lambda original: refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_report_summary_format():
    q = random_quadrilateral(GF(7), 1)
    report = verify_all(q, "fixture")[0]
    parts = report.summary().split()
    assert parts[0] == report.tag
    assert parts[-1] == "0"


def _pair_redundancy_by_definition(q, bisectors):
    """Every unordered pair of bisectors, in sort_key order, through the
    kernel's Scalar inner product and midpoint."""
    from bisectrix import oracle

    bis = sorted(bisectors, key=lambda b: b.line.sort_key())
    d = oracle.quadratic_data(q)
    parallel = {l1.infinite_point() for l1, l2 in q.line_pairs if l1.is_parallel(l2)}
    out = []
    for i, b1 in enumerate(bis):
        for b2 in bis[i:]:
            orth = inner(d, (b1.line.u, b1.line.t), (b2.line.u, b2.line.t)).is_zero()
            anti = midpoint(b1.midpoint, b2.midpoint) == q.centroid
            both = b1.line.infinite_point() in parallel and b2.line.infinite_point() in parallel
            if orth and not both and not anti:
                out.append(f"orthogonal pair {{{b1.line}, {b2.line}}} is not antipodal")
            if anti and b1.midpoint != b2.midpoint and not orth:
                out.append(f"antipodal pair {{{b1.line}, {b2.line}}} is not orthogonal")
    return len(bis) * (len(bis) + 1) // 2, out


def bisector_field_by_definition(q, pairs):
    """Every line of every pair, taken once, bisects every pair it crosses,
    always with its own midpoint as a bisector of q: the Scalar definition,
    as (lines checked, violations)."""
    seen = set()
    out = []
    for pair in pairs:
        for line in pair.lines:
            if line in seen:
                continue
            seen.add(line)
            m = bisector_by_definition(q, line)
            if m is None:
                out.append(f"{line} is not a bisector")
                continue
            for other in pairs:
                got = mid_cross(line, other)
                if got is not None and got != m:
                    out.append(f"{line} crosses {other} at midpoint {got}, expected {m}")
    return len(seen), out


def _desargues_by_definition(q):
    """desargues_reflection on the fixture's probe lines through the
    kernel's Involution: desargues_involution of the line against the
    reference involution of the first and third pairs' chart points, and
    its reflection m2 = 0 against the Scalar definition of a bisector."""
    from bisectrix import oracle

    if not q.proper:
        return 0, []
    qr = q.quadrangle()
    lines = oracle._fixture_probe_lines(q)
    out = []
    for line in lines:
        pairs = [
            tuple(chart_point(line, intersect(line, member)) for member in pair.lines)
            for pair in qr.opposite_side_pairs()
        ]
        try:
            inv = desargues_involution(qr, line)
            inv13 = involution_from_pairs(pairs[0], pairs[2])
        except NotConjugate:
            out.append(f"{line}: third pair not conjugate")
            continue
        except GeometryError as err:
            out.append(f"{line}: involution underdetermined ({err})")
            continue
        if inv != inv13:
            out.append(f"{line}: the three conjugate pairs disagree")
        bisects = bisector_by_definition(q, line) is not None
        if inv.m2.is_zero() != bisects:
            out.append(f"{line}: reflection={inv.m2.is_zero()} but bisector={bisects}")
    return len(lines), out


def test_raw_routes_equal_the_scalar_definitions(monkeypatch):
    """At p = 7, 11 and 13 the raw-residue routes of exhaustive verify equal
    the Scalar definitions, on sound kernels and on a wrong Q-partner and
    quadratic form: bisector_field against bisector_field_by_definition,
    the shared locus zero set against Conic.contains on every point, and the
    bucketed pair_redundancy against a loop over every pair."""
    from bisectrix import oracle

    sound = (oracle.q_partner, oracle.quadratic_data)
    wrong = (partner_shifted(oracle.q_partner), alpha_plus_one(oracle.quadratic_data))
    violations = 0
    for p in (7, 11, 13):
        field = GF(p)
        quads = [random_quadrilateral(field, seed) for seed in (1, 2)]
        # Improper, parallel pair and parallelogram vertices.
        quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES[1:]]
        points = [Point(field.scalar(x), field.scalar(y)) for x in range(p) for y in range(p)]
        for q in quads:
            conic = bisector_locus(q).conic
            for c in (conic, conic.shift(field.one)):
                expected = {(pt.x.value, pt.y.value) for pt in points if c.contains(pt)}
                assert oracle._zero_set(c, p) == expected
            assert oracle._Context(True, 0).locus_zeros(q) == oracle._zero_set(conic, p)
            for q_partner, quadratic_data in (sound, wrong):
                monkeypatch.setattr(oracle, "q_partner", q_partner)
                monkeypatch.setattr(oracle, "quadratic_data", quadratic_data)
                ctx = oracle._Context(True, 0)
                field_check = oracle._check_bisector_field(q, ctx)
                assert field_check == bisector_field_by_definition(q, oracle._q_pairs_of(q, ctx))
                redundancy = oracle._check_pair_redundancy(q, ctx)
                assert redundancy == _pair_redundancy_by_definition(q, brute_bisectors(q))
                violations += len(field_check[1]) + len(redundancy[1])
    assert violations > 0


def test_raw_exhaustive_checks_equal_their_object_routes(monkeypatch):
    """vertex_line_bisectors, parallel_bisectors, unique_midpoints,
    closed_form_oracle and pair_redundancy, which judge the sweep's raw
    tuples, give the (instances, violations) of the object routes they
    replaced (conftest's *_by_objects) at p = 7, 11 and 31, on seeded,
    parallelogram, improper, parallel-pair and parallelogram-vertex
    quadrilaterals: on sound kernels and under three defects
    (mid_swapped, bisector_rule_both_pairs, alpha_plus_one), so that every
    check's violation texts are compared.  The object routes of
    vertex_line_bisectors and unique_midpoints walked sets of values, so
    their violations are compared as multisets; the others in order."""
    from bisectrix import oracle

    checks = {
        "vertex_line_bisectors": (oracle._check_vertex_lines, vertex_line_bisectors_by_objects),
        "parallel_bisectors": (oracle._check_parallel_bisectors, parallel_bisectors_by_objects),
        "unique_midpoints": (oracle._check_unique_midpoints, unique_midpoints_by_objects),
        "closed_form_oracle": (oracle._check_closed_form, closed_form_oracle_by_objects),
        "pair_redundancy": (oracle._check_pair_redundancy, pair_redundancy_by_objects),
    }
    unordered = {"vertex_line_bisectors", "unique_midpoints"}

    def outcome(check, q, ctx):
        try:
            return check(q, ctx)
        except GeometryError as err:
            return "aborted", f"{type(err).__name__}: {err}"

    fired = set()
    for defect in (None, "mid_swapped", "bisector_rule_both_pairs", "alpha_plus_one"):
        with monkeypatch.context() as patch:
            if defect:
                _inject(patch, *DEFECTS[defect][:3])
            for p in (7, 11, 31):
                field = GF(p)
                quads = [random_quadrilateral(field, seed) for seed in (1, 2, 3)]
                quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
                for q in quads:
                    ctx = oracle._Context(True, 0)
                    for tag, (raw, objects) in checks.items():
                        got, want = outcome(raw, q, ctx), outcome(objects, q, ctx)
                        if tag in unordered:
                            got, want = (got[0], sorted(got[1])), (want[0], sorted(want[1]))
                        assert got == want, (defect, tag, p, q)
                        if got[1] and defect:
                            fired.add(tag)
                        elif not defect:
                            assert got[1] == [], (tag, p, q)
    assert fired == set(checks)


def test_raw_checks_build_no_values_on_a_passing_quadrilateral(monkeypatch):
    """vertex_line_bisectors, parallel_bisectors, unique_midpoints and
    pair_redundancy judge the sweep's raw tuples: on passing GF(31)
    quadrilaterals of every family they make no Line.of, Point.of or
    InfPoint.of call of their own (the kernel functions they ask may).
    bisector_lines, which hands Lines to the kernel, shows that the count
    sees the oracle's calls."""
    import sys

    from bisectrix import InfPoint, oracle

    field = GF(31)
    quads = [random_quadrilateral(field, 1)]
    quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
    calls = []
    for cls in (Line, Point, InfPoint):
        def counted(field, raw, of=cls.of, name=cls.__name__):
            if sys._getframe(1).f_globals["__name__"] == oracle.__name__:
                calls.append(name)
            return of(field, raw)

        monkeypatch.setattr(cls, "of", staticmethod(counted))
    for q in quads:
        ctx = oracle._Context(True, 0)
        ctx.solutions(q)
        for check in (oracle._check_vertex_lines, oracle._check_parallel_bisectors,
                      oracle._check_unique_midpoints, oracle._check_pair_redundancy):
            assert check(q, ctx)[1] == [], (check.__name__, q)
        assert calls == [], q
    ctx.bisector_lines(q)
    assert calls and set(calls) == {"Line"}


def test_raw_routes_over_q_equal_the_scalar_definitions(e1, monkeypatch):
    """Over Q the raw routes of bisector_field and desargues_reflection (on
    Fractions, p = None) equal the Scalar definitions on e1 and the special
    quadrilaterals (among them e2 and the improper fixture), on sound
    kernels and on a wrong Q-partner and quadratic form."""
    from bisectrix import oracle

    sound = (oracle.q_partner, oracle.quadratic_data)
    wrong = (partner_shifted(oracle.q_partner), alpha_plus_one(oracle.quadratic_data))
    quads = [e1] + [make_quad(QQ, *sides) for sides in SPECIAL_SIDES]
    violations = probed = 0
    for q in quads:
        for q_partner, quadratic_data in (sound, wrong):
            monkeypatch.setattr(oracle, "q_partner", q_partner)
            monkeypatch.setattr(oracle, "quadratic_data", quadratic_data)
            ctx = oracle._Context(False, 0)
            field_check = oracle._check_bisector_field(q, ctx)
            assert field_check == bisector_field_by_definition(q, oracle._q_pairs_of(q, ctx))
            desargues = oracle._check_desargues(q, ctx)
            assert desargues == _desargues_by_definition(q)
            violations += len(field_check[1])
            probed += desargues[0]
    assert violations > 0 and probed > 0


def _midpoint_shifted(bisector_mid):
    """The bisector definition answering every midpoint one step off in X."""

    def defect(l, sides, p):
        m = bisector_mid(l, sides, p)
        return m if m is None else ((m[0] + 1) % p if p else m[0] + 1, m[1])

    return defect


def test_bisector_field_decision_agrees_with_the_walk(monkeypatch):
    """bisector_field, which meets a line with a pair only when the pair's
    product leaves span(A*A', B*B') or the line fails its slopes (L_F and
    L_G vanish at its midpoint, which lies on it), reports exactly what it
    reports when every line is met with every pair: at p = 3, 5, 7 and 11,
    on sound kernels (where no pair and no line is walked), with a shifted
    Q-partner (whose pairs leave the span) and the both-pairs bisector
    definition of test_defects (which rejects the kernel's partners that
    are sides before any decision), and with a shifted midpoint in the
    oracle's definition (which only the slopes see)."""
    from bisectrix import oracle

    in_span, slopes_of = oracle._in_span, oracle._slopes
    injections = {
        "sound": lambda patch: None,
        "q_partner_shifted": lambda patch: _inject(patch, *DEFECTS["q_partner_shifted"][:3]),
        "bisector_rule_both_pairs":
            lambda patch: _inject(patch, *DEFECTS["bisector_rule_both_pairs"][:3]),
        "oracle_midpoint_shifted": lambda patch: patch.setattr(
            oracle, "_bisector_mid", _midpoint_shifted(oracle._bisector_mid)),
    }
    for name, inject in injections.items():
        outside, slopes = [], []  # each decision: a pair left the span, a line failed
        violations = 0
        with monkeypatch.context() as patch:
            inject(patch)
            patch.setattr(oracle, "_in_span",
                          lambda *args: outside.append(not in_span(*args)) or not outside[-1])
            for p in (3, 5, 7, 11):
                patch.setattr(oracle, "_slopes", lambda *args: slopes.append(
                    any(x % p for x in slopes_of(*args))) or slopes_of(*args))
                field = GF(p)
                quads = [random_quadrilateral(field, seed) for seed in range(12)]
                quads += [make_quad(field, *sides) for sides in SPECIAL_SIDES]
                for q in quads:
                    ctx = oracle._Context(True, 0)
                    try:
                        oracle._q_pairs_of(q, ctx)
                    except GeometryError:  # the check aborts before any decision
                        continue
                    decided = oracle._check_bisector_field(q, ctx)
                    with monkeypatch.context() as forced:
                        forced.setattr(oracle, "_in_span", lambda *args: False)
                        forced.setattr(oracle, "_slopes", lambda *args: [1])
                        assert oracle._check_bisector_field(q, ctx) == decided, (name, p, q)
                    violations += len(decided[1])
        # Each injection reaches the decision; only the shifted partner sends
        # pairs to the walk, and only the shifted midpoint sends lines.  Only
        # the both-pairs definition reports a line before the decision.
        assert outside and slopes, name
        assert any(outside) == (name == "q_partner_shifted"), name
        assert any(slopes) == (name == "oracle_midpoint_shifted"), name
        early = name == "bisector_rule_both_pairs"
        assert (violations > 0) == (any(outside) or any(slopes) or early), name


def test_span_and_slopes_equal_their_definitions():
    """_in_span against a search over every (alpha, beta) of GF(p), on
    random coefficient vectors and on multiples of the side products shifted
    or not, and _slopes against the coefficient of s in C(m + s*d) and the
    line evaluated at m, at p = 3, 5 and 7; over Q, _in_span against a
    rational solve."""
    from bisectrix import oracle

    rng = Lcg64(23)
    inside = 0
    for p in (3, 5, 7):
        for _ in range(200):
            lines = [(rng.below(p), rng.below(p), rng.below(p)) for _ in range(4)]
            f, g = oracle._product(*lines[:2]), oracle._product(*lines[2:])
            if not any(x % p for x in oracle._raw_cross(f, g, p)):
                continue  # the lemma's F and G have independent quadratic parts
            alpha, beta = rng.below(p), rng.below(p)
            c = [alpha * x + beta * y for x, y in zip(f, g)]
            if rng.below(2):
                c[rng.below(5)] += 1 + rng.below(p - 1)
            if rng.below(3) == 0:
                c = [rng.below(p) for _ in range(5)]
            spanned = any(all((a * x + b * y - z) % p == 0 for x, y, z in zip(f, g, c))
                          for a in range(p) for b in range(p))
            assert oracle._in_span(c, f, g, p) == spanned, (p, f, g, c)
            inside += spanned
            m, line = (rng.below(p), rng.below(p)), (rng.below(p), 1, rng.below(p))
            d = (line[1], line[0])
            expected = [(line[0] * m[0] - line[1] * m[1] + line[2]) % p]
            for xx, xy, yy, x, y in (f, g):
                def conic(s):
                    px, py = m[0] + s * d[0], m[1] + s * d[1]
                    return xx * px * px + xy * px * py + yy * py * py + x * px + y * py
                # C(m + s*d) = a*s^2 + b*s + c: b = (C(1) - C(-1)) / 2.
                expected.append((conic(1) - conic(-1)) * (p + 1) // 2 % p)
            assert [x % p for x in oracle._slopes(f, g, m, line)] == expected
    assert inside > 100
    # Over Q (p = None): the integral side products of random Q lines, and c
    # a small integer combination of them, shifted or not, against a solve
    # of the 5 x 2 system by Gaussian elimination on Fractions.
    inside = outside = 0
    for _ in range(300):
        lines = [oracle.random_line(QQ, rng) for _ in range(4)]
        f, g = (oracle._integral_product(*pair, None) for pair in (lines[:2], lines[2:]))
        if not any(oracle._raw_cross(f, g, None)):
            continue
        alpha, beta = rng.below(7) - 3, rng.below(7) - 3
        c = [alpha * x + beta * y for x, y in zip(f, g)]
        if rng.below(2):
            c[rng.below(5)] += rng.below(5) + 1
        spanned = _solvable(f, g, c)
        assert oracle._in_span(c, f, g, None) == spanned, (f, g, c)
        inside += spanned
        outside += not spanned
    assert inside > 50 and outside > 50


def _solvable(f, g, c) -> bool:
    """Whether alpha*f + beta*g = c has a rational solution: the augmented
    rows (f_k, g_k, c_k) reduced by Gaussian elimination on Fractions leave
    no row (0, 0, nonzero)."""
    from fractions import Fraction

    rows = [[Fraction(x) for x in row] for row in zip(f, g, c)]
    for col in (0, 1):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [[x - r[col] / pivot[col] * y for x, y in zip(r, pivot)] for r in rows]
    return not any(r[2] for r in rows)


def test_zero_set_equals_the_trial_of_every_point():
    """_zero_set, which solves each column x of GF(p)^2 as a quadratic in y
    off a table of square roots, equals Conic.contains tried on all p^2
    points: on the loci of GF(3), GF(5), GF(7) and GF(11) seeds 0-59 and of
    the special quadrilaterals (degenerate loci of parallel pairs among
    them), and on conics crafted for each branch: c = 0 with linear
    columns and a whole column (XY = 0), and a zero, a square and a
    non-square discriminant (Y^2 = X)."""
    from bisectrix import oracle
    from bisectrix.errors import ExhaustedSampling
    from bisectrix.pencil import Conic

    degenerate = 0
    for p in (3, 5, 7, 11):
        field = GF(p)
        quads = [make_quad(field, *sides) for sides in SPECIAL_SIDES]
        for seed in range(60):
            try:
                quads.append(random_quadrilateral(field, seed))
            except ExhaustedSampling:
                continue
        conics = [bisector_locus(q).conic for q in quads]
        degenerate += sum(c.is_degenerate() for c in conics)
        crafted = [Conic(*(field.scalar(x) for x in coeffs))
                   for coeffs in ((0, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0))]
        for conic in conics + crafted:
            expected = {(x, y) for x in range(p) for y in range(p)
                        if conic.contains(Point(field.scalar(x), field.scalar(y)))}
            assert oracle._zero_set(conic, p) == expected, (p, conic)
        xy, parabola = (oracle._zero_set(c, p) for c in crafted)
        assert xy == {(0, y) for y in range(p)} | {(x, 0) for x in range(p)}
        assert parabola == {(y * y % p, y) for y in range(p)}
    assert degenerate > 0


def test_kernel_answers_are_computed_once_per_quadrilateral(monkeypatch):
    """One verify_all asks the kernel for bisector_locus once, q_partner once
    per distinct line, is_q_pair once per distinct pair (pencil_degenerations
    and partner_involution judge the same pairs), and quadratic_data once
    for q, once per affine_invariance trial and, when exhaustive, once per
    re-paired quadrilateral.  bisector_through is reached by
    closed_form_oracle, once per locus zero, and by the fixture's
    locus_midpoints, once per side and diagonal at its midpoint: never by
    q_partner."""
    from bisectrix import Quadrilateral, bisectors, oracle, requadrilate

    for field, profile, trials in ((QQ, "fixture", 10), (GF(7), "exhaustive", 5)):
        q = random_quadrilateral(field, 1)
        calls = {"bisector_through": []}
        for module, name in ((oracle, "q_partner"), (oracle, "quadratic_data"),
                             (oracle, "bisector_locus"), (oracle, "bisector_through"),
                             (bisectors, "bisector_through"), (oracle, "is_q_pair")):
            def counted(*args, _name=name, _real=getattr(module, name)):
                calls.setdefault(_name, []).append(args[1:])
                return _real(*args)

            monkeypatch.setattr(module, name, counted)
        reports = verify_all(q, profile, seed=1)
        monkeypatch.undo()
        assert not any(r.violations for r in reports)
        assert len(calls["bisector_locus"]) == 1
        if profile == "exhaustive":
            lines = {b.line for b in brute_bisectors(q)}
            repaired = [c for c in requadrilate(q.quadrangle()) if isinstance(c, Quadrilateral)]
            asked = oracle._zero_set(bisector_locus(q).conic, field.p)
        else:
            lines, repaired = set(q.sides + q.diagonal_lines), []
            asked = [is_bisector(q, line).raw for line in dict.fromkeys(q.sides + q.diagonal_lines)]
        partnered = [line for (line,) in calls["q_partner"]]
        assert len(partnered) == len(set(partnered)) and set(partnered) == lines
        judged = [pair for (pair,) in calls["is_q_pair"]]
        assert len(judged) == len(set(judged))
        assert {LinePair(l, q_partner(q, l)) for l in lines} <= set(judged)
        assert len(calls["quadratic_data"]) == 1 + trials + len(repaired)
        assert q.proper and (profile == "fixture" or repaired)
        through = [m.raw for (m,) in calls["bisector_through"]]
        assert sorted(through) == sorted(asked)


def test_q_raw_values_stay_rats():
    """After a fixture verify_all over Q (seeds 0-39), every raw entry of
    the sides, vertices, centroid, diagonals and diagonal points, of the
    quadratic data, of the locus, and of each side's and diagonal's
    midpoint and partner is a _Rat.  A plain Fraction there gives the same
    answers, by Fraction's slower operators, so only this pins the fast
    path."""
    for seed in range(40):
        q = random_quadrilateral(QQ, seed)
        assert not any(r.violations for r in verify_all(q, "fixture", seed=seed))
        d, locus = quadratic_data(q), bisector_locus(q)
        canonical = list(dict.fromkeys(q.sides + q.diagonal_lines))
        values = [*canonical, *q.vertices, q.centroid, *q.diagonal_points(), locus.conic,
                  *(locus.components or ()), *(is_bisector(q, l) for l in canonical),
                  *(q_partner(q, l) for l in canonical)]
        entries = [c for value in values for c in value.raw]
        entries += [s.value for s in (d.alpha, d.beta, d.gamma, locus.constant)]
        assert [c for c in entries if type(c) is not _Rat] == [], seed


def _printed_in_three_processes(script):
    """What script prints in each of three fresh interpreters, with the
    package and the tests importable."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bisectrix

    paths = (Path(bisectrix.__file__).resolve().parents[1], Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    procs = [
        subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE, text=True)
        for _ in range(3)
    ]
    printed = [proc.communicate(timeout=120)[0] for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    return printed


def test_bisector_lines_come_in_the_same_order_in_every_process():
    """The lines a check walks come in the same order in every process:
    bisector_lines sorts them, and a line hashes by its raw tuple alone."""
    printed = _printed_in_three_processes(
        "from bisectrix import GF; from bisectrix.oracle import _Context, random_quadrilateral; "
        "print([str(l) for l in _Context(True, 0).bisector_lines(random_quadrilateral(GF(7), 1))])"
    )
    assert printed[0].startswith("[") and printed.count(printed[0]) == 3


def test_violations_come_in_the_same_order_in_every_process():
    """Under the both-pairs bisector definition, vertex_line_bisectors and
    unique_midpoints walk sets of points, whose order follows the hash of
    their raw tuples: verify over GF(7), seeds 1-5, prints the same
    violations in the same order in every process."""
    printed = _printed_in_three_processes(
        "import pytest\n"
        "from bisectrix import oracle\n"
        "from bisectrix.cli import main\n"
        "from test_defects import _both_pairs_crossed, _inject\n"
        "_inject(pytest.MonkeyPatch(), oracle, '_bisector_mid', _both_pairs_crossed)\n"
        "main(['--field', 'GFp:7', '--cmd', 'verify', '--seed', '1', '--instances', '5'])\n"
    )
    violations = [[l for l in out.splitlines() if l.startswith("violation ")] for out in printed]
    assert any("vertex_line_bisectors" in l for l in violations[0])
    assert violations.count(violations[0]) == 3


def test_verify_all_frees_its_memo_when_it_returns():
    """The context of one verify_all call holds its bisector sets and kernel
    answers; no reference cycle may keep it alive until the next cyclic
    collection."""
    import gc

    from bisectrix import oracle

    gc.collect()
    gc.disable()
    try:
        verify_all(random_quadrilateral(GF(7), 1), "exhaustive", seed=1)
        alive = [o for o in gc.get_objects() if isinstance(o, oracle._Context)]
    finally:
        gc.enable()
    assert alive == []


def test_oracle_owns_the_bisector_definition():
    """Each raw rule has one home: plane.py alone defines the meet and
    midpoint rule, the side products and their gradients, oracle.py alone
    the bisector definition (_bisector_mid), and bisectors.py alone the
    kernel's bisector rule on the side-product pencil (_pencil_mid).  No
    other module of the package defines any of them; bisectors, quad,
    pencil and oracle hold the home module's objects, and the defect matrix
    takes _mid from plane.  bisectors neither meets lines nor holds the
    definition or a standard form: its rules read the pencil.  The oracle
    reaches the kernel's rule only through the functions it judges."""
    import ast
    from pathlib import Path

    from bisectrix import bisectors, oracle, pencil, plane, quad

    homes = dict.fromkeys(("_PARALLEL", "_SAME", "_meet", "_mid", "_product", "_gradient"),
                          plane)
    homes["_bisector_mid"] = oracle
    homes["_pencil_mid"] = bisectors

    def tree(path):
        return ast.parse(Path(path).read_text(encoding="utf-8"))

    for path in Path(plane.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(tree(path)))
        defined = {node.name for node in nodes
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in nodes if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        owned = {name for name, home in homes.items() if Path(home.__file__) == path}
        assert defined & homes.keys() == owned, path.name
    for module in (bisectors, quad, pencil, oracle):
        used = [name for name in homes if name in vars(module)]
        assert used, module.__name__
        for name in used:
            assert getattr(module, name) is getattr(homes[name], name), (module.__name__, name)
    assert not {"standard_form", "AffineMap", "_meet", "_PARALLEL", "_SAME",
                "_bisector_mid"} & vars(bisectors).keys()
    assert "_pencil_mid" not in vars(oracle)
    defects = tree(Path(__file__).with_name("test_defects.py"))
    imports = {(node.module, alias.name) for node in ast.walk(defects)
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert ("bisectrix.plane", "_mid") in imports
    assert all(module == homes[name].__name__ for module, name in imports if name in homes)
