"""Named kernel defects and the verify tags that catch them.

Each defect wraps one closed form of the kernel so that it answers wrongly
(one row, bisector_rule_both_pairs, wraps the oracle's own bisector
definition instead), and is patched into every bisectrix module that holds
the name: the oracle and the CLI bind names at import, so patching the
defining module alone is not enough.  Each defect has two columns: exhaustive verify over GF(7) and
fixture verify over Q.  In each, verify must report the defect under the
column's tag on every seed (SEEDS, unless _SEEDS names others for that row
and column), the set of tags that fire is pinned, and every violation line
must end in a reproduce command that prints it again.  A defect that only
an exhaustive-only tag can see has the GF(7) column alone, and one in a
branch that only Q takes has the Q column alone.
"""

import shlex
import sys
from dataclasses import replace

import pytest

from bisectrix import (
    AffineMap, Bisector, Conic, InfPoint, Line, LinePair, Point, QuadraticData, Quadrilateral,
    bisectors, form, oracle, pencil, plane,
)
from bisectrix.plane import _meet, _mid
from bisectrix.cli import main

SEEDS = (1, 2, 3)


def _shifted(line):
    return Line(line.t, line.u, line.v + line.field.one)


def partner_shifted(q_partner):
    return lambda q, line: _shifted(q_partner(q, line))


def alpha_plus_one(quadratic_data):
    def defect(q):
        d = quadratic_data(q)
        return QuadraticData(d.alpha + d.field.one, d.beta, d.gamma)

    return defect


def _locus_constant_off(bisector_locus):
    """The locus conic with its constant term off by one."""

    def defect(q):
        locus = bisector_locus(q)
        return replace(locus, conic=locus.conic.shift(q.field.one))

    return defect


def _inner_off(inner):
    """The inner product off by one on distinct vectors."""

    def defect(d, v, w):
        value = inner(d, v, w)
        return value if tuple(v) == tuple(w) else value + d.field.one

    return defect


def _bisector_shifted(bisector_through):
    def defect(q, m):
        found = bisector_through(q, m)
        if isinstance(found, list):
            return [Bisector(_shifted(b.line), b.midpoint) for b in found]
        return found

    return defect


def _gradient_swapped(gradient):
    """The gradient of a conic at a point with its two components swapped."""
    def defect(c, m):
        gx, gy = gradient(c, m)
        return gy, gx
    return defect


def _m2_constant_plus_one(desargues_pencil):
    """The class polynomial m2 with its constant term off by one."""

    def defect(qr, t, u):
        m0, m1, m2 = desargues_pencil(qr, t, u)
        return m0, m1, (m2[0] + 1, *m2[1:])

    return defect


def _exchange_row_first_negated(exchange_row):
    """The exchange constraint with its first entry's sign flipped."""

    def defect(p, q):
        r0, r1, r2 = exchange_row(p, q)
        return -r0, r1, r2

    return defect


def _degenerations_pair_shifted(degenerations):
    """Each isolated degeneration with the first line of its pair shifted."""

    def defect(c):
        report = degenerations(c)
        entries = tuple(replace(e, pair=LinePair(_shifted(e.pair.a), e.pair.b))
                        for e in report.entries)
        return replace(report, entries=entries)

    return defect


def _apply_line_sheared(apply):
    """Every image line tX - uY + v = 0 carried to (t + u)X - uY + v = 0."""

    def defect(f, obj):
        image = apply(f, obj)
        if isinstance(image, Line):
            return Line(image.t + image.u, image.u, image.v)
        return image

    return defect


def _both_pairs_crossed(bisector_mid):
    """The oracle's bisector definition demanding that a line cross both
    opposite-side pairs."""

    def defect(l, sides, p):
        a, a2, b, b2 = (_meet(l, side, p) for side in sides)
        if _mid(a, a2, p) is None or _mid(b, b2, p) is None:
            return None
        return bisector_mid(l, sides, p)

    return defect


def _pencil_mid_reflected(pencil_mid):
    """The kernel's bisector midpoint stepped the wrong way along the line,
    P + L_C/(2*Q_C)*d: the true one reflected through the line's point P,
    (0, v) on a raw line with u = 1, else (-v, 0)."""

    def defect(q, l):
        m = pencil_mid(q, l)
        if m is None:
            return m
        t, u, v = l
        x, y = (-m[0], 2 * v - m[1]) if u else (-2 * v - m[0], -m[1])
        p = q.field.p
        return (x % p, y % p) if p else (x, y)

    return defect


def _meet_x_negated(meet):
    """The meet of two lines with its x coordinate negated (a sign slip in
    Cramer's rule); parallel and equal lines still answer as such."""

    def defect(l, m, p):
        c = meet(l, m, p)
        return c if isinstance(c, str) else (-c[0] % p if p else -c[0], c[1])

    return defect


def _mid_swapped(mid):
    """The midpoint of two affine points with its coordinates swapped."""

    def defect(c1, c2, p):
        c = mid(c1, c2, p)
        return c[::-1] if isinstance(c, tuple) else c

    return defect


def _affine_swapped(affine):
    """The affine point of homogeneous ints with its coordinates swapped:
    every meet and the centroid, over both fields, go through it."""

    def defect(x, y, w, p):
        return affine(x, y, w, p)[::-1]

    return defect


def _product_xy_plus_one(product):
    """The conic l*m of two raw lines with its XY coefficient off by one."""

    def defect(l, m):
        c = product(l, m)
        return (c[0], c[1] + 1, *c[2:])

    return defect


def _integral_last_negated(integral):
    """Over Q, the integral multiple of a raw tuple with its last entry
    negated (over GF(p) the helper returns the tuple itself)."""

    def defect(raw, p):
        c = integral(raw, p)
        return c if p else [*c[:-1], -c[-1]]

    return defect


def _poly_sum_constant_plus_one(class_row):
    """The sum entry of a class exchange row, a polynomial in the offset v,
    with its constant term off by one."""

    def defect(pair):
        (s0, s1), e, n = class_row(pair)
        return (s0 + 1, s1), e, n

    return defect


def _ratio_swapped(pencil_ratio):
    """The pencil member [alpha : beta] of q_partner read as [beta : alpha]."""

    def defect(f, g, t, u):
        alpha, beta = pencil_ratio(f, g, t, u)
        return beta, alpha

    return defect


def _infinite_at_w_one(contains):
    """Conic.contains judging a point at infinity [x : y] at (x, y, 1), the
    affine point (x, y), instead of at (x, y, 0)."""

    def defect(conic, pt):
        if isinstance(pt, InfPoint):
            pt = Point.of(pt.field, pt.raw)
        return contains(conic, pt)

    return defect


def _det3_cdd_negated(numerator):
    """The numerator 4*det3 of a conic (shared by det3 and is_degenerate)
    with the sign of its c*d^2 term flipped."""

    def defect(raw):
        _, _, c, d, _, _ = raw
        return numerator(raw) + 2 * c * d * d

    return defect


def _negated(predicate):
    return lambda *args: not predicate(*args)


# defect: (defining module or class, name, wrapper,
#          {field: (its tag, every tag that fires on SEEDS)})
DEFECTS = {
    "q_partner_shifted": (
        bisectors, "q_partner", partner_shifted, {
            "GFp:7": ("bisector_field",
                      {"bisector_field", "partner_involution", "pencil_degenerations"}),
            "Q": ("bisector_field",
                  {"bisector_field", "partner_involution", "pencil_degenerations"}),
        },
    ),
    "pencil_ratio_swapped": (
        bisectors, "_pencil_ratio", _ratio_swapped, {
            "GFp:7": ("partner_involution",
                      {"bisector_field", "partner_involution", "pencil_degenerations"}),
            "Q": ("partner_involution",
                  {"bisector_field", "locus_midpoints", "partner_involution",
                   "pencil_degenerations"}),
        },
    ),
    "alpha_plus_one": (
        form, "quadratic_data", alpha_plus_one, {
            "GFp:7": ("pair_redundancy",
                      {"affine_invariance", "closed_form_oracle",
                       "eq1_discriminant", "lambda_involution", "locus_degeneracy",
                       "locus_midpoints", "nine_points", "opposite_orthogonal",
                       "pair_redundancy", "partner_involution", "pencil_degenerations",
                       "repairing_bisectors"}),
            "Q": ("eq1_discriminant",
                  {"affine_invariance", "eq1_discriminant", "lambda_involution",
                   "locus_midpoints", "nine_points", "opposite_orthogonal",
                   "partner_involution", "pencil_degenerations"}),
        },
    ),
    "locus_constant_off": (
        bisectors, "bisector_locus", _locus_constant_off, {
            "GFp:7": ("locus_midpoints",
                      {"closed_form_oracle", "locus_degeneracy", "locus_midpoints",
                       "nine_points", "pencil_degenerations"}),
            "Q": ("locus_midpoints", {"locus_midpoints", "nine_points", "pencil_degenerations"}),
        },
    ),
    "bisector_through_shifted": (
        bisectors, "bisector_through", _bisector_shifted, {
            "GFp:7": ("closed_form_oracle", {"closed_form_oracle"}),
            "Q": ("locus_midpoints", {"locus_midpoints"}),
        },
    ),
    "gradient_swapped": (
        plane, "_gradient", _gradient_swapped, {
            "GFp:7": ("closed_form_oracle",
                      {"bisector_field", "closed_form_oracle", "partner_involution",
                       "pencil_degenerations"}),
            "Q": ("locus_midpoints",
                  {"bisector_field", "locus_midpoints", "partner_involution",
                   "pencil_degenerations"}),
        },
    ),
    "inner_off_by_one": (
        form, "inner", _inner_off, {
            "GFp:7": ("opposite_orthogonal",
                      {"opposite_orthogonal", "partner_involution", "pencil_degenerations"}),
            "Q": ("opposite_orthogonal",
                  {"opposite_orthogonal", "partner_involution", "pencil_degenerations"}),
        },
    ),
    "desargues_m2_constant_plus_one": (
        form, "desargues_pencil", _m2_constant_plus_one, {
            "GFp:7": ("desargues_reflection", {"desargues_reflection"}),
            "Q": ("desargues_reflection", {"desargues_reflection"}),
        },
    ),
    "exchange_row_first_negated": (
        form, "_exchange_row", _exchange_row_first_negated, {
            "GFp:7": ("lambda_involution", {"desargues_reflection", "lambda_involution"}),
            "Q": ("desargues_reflection", {"desargues_reflection", "lambda_involution"}),
        },
    ),
    "degenerations_pair_shifted": (
        pencil, "degenerations", _degenerations_pair_shifted, {
            "GFp:7": ("pencil_degenerations", {"pencil_degenerations"}),
            "Q": ("pencil_degenerations", {"pencil_degenerations"}),
        },
    ),
    "apply_line_sheared": (
        AffineMap, "apply", _apply_line_sheared, {
            "GFp:7": ("affine_invariance", {"affine_invariance"}),
            "Q": ("affine_invariance", {"affine_invariance"}),
        },
    ),
    "bisector_rule_both_pairs": (
        oracle, "_bisector_mid", _both_pairs_crossed, {
            "GFp:7": ("vertex_line_bisectors",
                      {"bisector_field", "closed_form_oracle", "locus_midpoints",
                       "parallel_bisectors", "pencil_degenerations", "repairing_bisectors",
                       "vertex_line_bisectors"}),
            "Q": ("locus_midpoints", {"bisector_field", "locus_midpoints"}),
        },
    ),
    "pencil_mid_reflected": (
        bisectors, "_pencil_mid", _pencil_mid_reflected, {
            "GFp:7": ("partner_involution", {"partner_involution", "pencil_degenerations"}),
            "Q": ("locus_midpoints",
                  {"locus_midpoints", "partner_involution", "pencil_degenerations"}),
        },
    ),
    "meet_x_negated": (
        plane, "_meet", _meet_x_negated, {
            "GFp:7": ("locus_midpoints",
                      {"closed_form_oracle", "desargues_reflection", "lambda_involution",
                       "locus_degeneracy", "locus_midpoints", "nine_points",
                       "opposite_orthogonal", "pair_redundancy", "partner_involution",
                       "pencil_degenerations", "repairing_bisectors", "unique_midpoints",
                       "vertex_line_bisectors"}),
            "Q": ("locus_midpoints",
                  {"bisector_field", "lambda_involution", "locus_midpoints", "nine_points",
                   "opposite_orthogonal", "partner_involution", "pencil_degenerations"}),
        },
    ),
    "mid_swapped": (
        plane, "_mid", _mid_swapped, {
            "GFp:7": ("closed_form_oracle",
                      {"closed_form_oracle", "locus_degeneracy", "locus_midpoints",
                       "nine_points", "pair_redundancy", "partner_involution",
                       "pencil_degenerations", "repairing_bisectors", "unique_midpoints"}),
            "Q": ("nine_points",
                  {"locus_midpoints", "nine_points", "partner_involution",
                   "pencil_degenerations"}),
        },
    ),
    "affine_swapped": (
        plane, "_affine", _affine_swapped, {
            "GFp:7": ("locus_midpoints",
                      {"affine_invariance", "closed_form_oracle", "desargues_reflection",
                       "lambda_involution", "locus_degeneracy", "locus_midpoints", "nine_points",
                       "opposite_orthogonal", "pair_redundancy", "parallel_bisectors",
                       "pencil_degenerations", "repairing_bisectors", "vertex_line_bisectors"}),
            "Q": ("locus_midpoints",
                  {"affine_invariance", "bisector_field", "lambda_involution", "locus_degeneracy",
                   "locus_midpoints", "nine_points", "opposite_orthogonal", "partner_involution",
                   "pencil_degenerations"}),
        },
    ),
    "product_xy_plus_one": (
        plane, "_product", _product_xy_plus_one, {
            "GFp:7": ("bisector_field",
                      {"bisector_field", "closed_form_oracle", "locus_degeneracy",
                       "locus_midpoints", "nine_points", "partner_involution",
                       "pencil_degenerations"}),
            "Q": ("bisector_field",
                  {"bisector_field", "locus_midpoints", "partner_involution",
                   "pencil_degenerations"}),
        },
    ),
    "integral_last_negated": (
        plane, "_integral", _integral_last_negated, {
            "Q": ("affine_invariance",
                  {"affine_invariance", "bisector_field", "locus_midpoints", "nine_points",
                   "partner_involution", "pencil_degenerations"}),
        },
    ),
    "poly_sum_constant_plus_one": (
        form, "_class_row", _poly_sum_constant_plus_one, {
            "GFp:7": ("desargues_reflection", {"desargues_reflection"}),
            "Q": ("desargues_reflection", {"desargues_reflection"}),
        },
    ),
    "contains_infinite_w_one": (
        Conic, "contains", _infinite_at_w_one, {
            "GFp:7": ("pencil_degenerations", {"nine_points", "pencil_degenerations"}),
            "Q": ("pencil_degenerations", {"pencil_degenerations"}),
        },
    ),
    "det3_cdd_negated": (
        pencil, "_det3_numerator", _det3_cdd_negated, {
            "GFp:7": ("locus_degeneracy", {"locus_degeneracy"}),
            "Q": ("locus_degeneracy", {"locus_degeneracy"}),
        },
    ),
    "parallelogram_vertices_negated": (
        Quadrilateral, "has_parallelogram_vertices", _negated, {
            "GFp:7": ("unique_midpoints", {"unique_midpoints"}),
        },
    ),
}

# Seed 3 over GF(7) draws an improper quadrilateral, on which
# desargues_reflection does not run.
# The flipped c*d^2 term of det3 changes a verdict only where it moves the
# numerator onto or off 0 mod 7: locus_degeneracy sees it on GF(7) seeds 1,
# 3 and 5-8 of 1-10, not on 2 and 4.  Over Q it changes one only where the
# locus splits: on seeds 58, 62, 71, 100, 121 and 164 of 0-199.
_SEEDS = {
    "desargues_m2_constant_plus_one": {"GFp:7": (1, 2), "Q": (1, 2)},
    "poly_sum_constant_plus_one": {"GFp:7": (1, 2), "Q": (1, 2)},
    "det3_cdd_negated": {"GFp:7": (5, 6, 7, 8), "Q": (58,)},
}


def _inject(monkeypatch, home, name, wrap):
    original = getattr(home, name)
    defect = wrap(original)
    if isinstance(home, type):
        # A method: every caller reaches it through the class.
        monkeypatch.setattr(home, name, defect)
        return
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "bisectrix"]
    for module in modules:
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, defect)


def _run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out.splitlines()


def _check_column(capsys, field, tag, fired, seeds):
    code, out = _run(capsys, ["--field", field, "--cmd", "verify", "--seed", str(seeds[0]),
                              "--instances", str(len(seeds))])
    assert code == 1
    by_command: dict[str, list[str]] = {}
    tags = set()
    for line in out:
        if not line.startswith("violation "):
            continue
        head, sep, tail = line.rpartition(" [reproduce: ")
        assert sep and tail.endswith("]"), line
        by_command.setdefault(tail[:-1], []).append(line)
        tags.add(head.split()[1].rstrip(":"))
    assert tags == fired, field
    tagged = {c for c, lines in by_command.items()
              if any(l.startswith(f"violation {tag}: ") for l in lines)}
    assert len(tagged) == len(seeds), field
    for command, lines in by_command.items():
        argv = shlex.split(command)
        assert argv[:3] == ["bisectrix", "--cmd", "verify"]
        code, again = _run(capsys, argv[1:])
        assert code == 1
        assert set(lines) <= set(again), command


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defect_fires_its_tag_and_reproduces(defect, monkeypatch, capsys):
    home, name, wrap, columns = DEFECTS[defect]
    _inject(monkeypatch, home, name, wrap)
    for field, (tag, fired) in columns.items():
        _check_column(capsys, field, tag, fired, _SEEDS.get(defect, {}).get(field, SEEDS))
