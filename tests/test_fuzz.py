"""Hypothesis fuzz of the CLI's exit-code contract.

Quadrilaterals are drawn from their vertices, weighted toward the special
families (improper, parallelogram vertices, parallel diagonals) and toward
invalid input, and every command runs through main() in process.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from bisectrix.cli import main

FIELDS = ("Q", "GFp:3", "GFp:7", "GFp:11")
FAMILIES = ("general",) + ("improper", "parallelogram", "parallel-diagonal", "invalid") * 2

coords = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 1, 2)))
points = st.tuples(coords, coords)
# Directions of seven distinct slopes over Q.
SLOPES = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, -2))


def _through(p, q) -> str:
    """The literal "t u v" of the line tX - uY + v = 0 through p and q."""
    t, u = q[1] - p[1], q[0] - p[0]
    return f"{t} {u} {u * p[1] - t * p[0]}"


def _sides(vertices) -> list[str]:
    """A, B, A', B' with the vertices (A.B, B.A', A'.B', B'.A) in order."""
    v0, v1, v2, v3 = vertices
    return [_through(v3, v0), _through(v0, v1), _through(v1, v2), _through(v2, v3)]


@st.composite
def quads(draw) -> tuple[str, list]:
    """A --quad literal and the four points it was drawn from."""
    family = draw(st.sampled_from(FAMILIES))
    p0, p1, p2, p3 = draw(st.lists(points, min_size=4, max_size=4, unique=True))
    if family == "improper":
        # A, B and A' through one point p0; B' anywhere.
        slopes = draw(st.permutations(SLOPES))[:3]
        sides = [_through(p0, (p0[0] + dx, p0[1] + dy)) for dx, dy in slopes]
        sides.append(_through(p1, p2))
    elif family == "parallelogram":
        # p3 completes a parallelogram with the vertex set, in any order.
        a, b, c = draw(st.permutations((p0, p1, p2)))
        sides = _sides((p0, p1, p2, (a[0] + c[0] - b[0], a[1] + c[1] - b[1])))
    elif family == "parallel-diagonal":
        k = draw(coords.filter(bool))
        p3 = (p1[0] + k * (p2[0] - p0[0]), p1[1] + k * (p2[1] - p0[1]))
        sides = _sides((p0, p1, p2, p3))
    else:
        sides = _sides((p0, p1, p2, p3))
        if family == "invalid":
            broken = draw(st.sampled_from(("duplicate", "literal", "count")))
            if broken == "duplicate":
                sides[2] = sides[0]
            elif broken == "literal":
                sides[draw(st.integers(0, 3))] = draw(st.sampled_from(("1 2", "Y=", "a b c")))
            else:
                sides.pop()
    return "; ".join(sides), [p0, p1, p2, p3]


@st.composite
def invocations(draw) -> list[str]:
    quad, drawn = draw(quads())
    cmd = draw(st.sampled_from(("analyze", "bisector", "bisector", "partner", "pencil", "verify")))
    field = draw(st.sampled_from(("GFp:7", "Q") if cmd == "verify" else FIELDS))
    argv = ["--field", field, "--quad", quad, "--cmd", cmd]
    argv += ["--format", draw(st.sampled_from(("text", "record")))]
    if cmd == "bisector":
        # The midpoint of two vertices lies on the locus of bisector midpoints.
        p, q = draw(st.permutations(drawn))[:2]
        x, y = draw(st.one_of(st.just(((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)), points))
        argv += ["--point", f"{x},{y}"]
    elif cmd == "partner":
        sides = quad.split(";")
        line = draw(st.sampled_from(sides + [_through(draw(points), draw(points))]))
        argv += ["--line", line.strip()]
    elif cmd == "pencil":
        argv += ["--alpha", str(draw(coords)), "--beta", str(draw(coords))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


def _flag(argv, name):
    return argv[argv.index(name) + 1]


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(invocations())
def test_main_keeps_its_exit_code_contract(argv):
    code, out, err = _run(argv)
    # verify on a quadrilateral that parses is valid input and must pass.
    assert code in (0, 2, 3), (argv, out)
    if code:
        assert not out and len(err) == 1 and err[0].startswith("error: "), (argv, err)
        return
    assert not err
    if _flag(argv, "--cmd") == "bisector" and _flag(argv, "--format") == "record":
        bisectors = [line for line in out if line.startswith("bisector\t")]
        for text in {line.split("\t")[1] for line in out if line.startswith("midpoint\t")}:
            again = argv[:]
            again[again.index("--point") + 1] = text
            code2, out2, _ = _run(again)
            assert code2 == 0
            assert [line for line in out2 if line.startswith("bisector\t")] == bisectors
