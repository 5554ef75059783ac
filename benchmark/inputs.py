"""Seeded request generation for the bisectrix benchmark.

Every input is built here with the benchmark's own exact arithmetic
(Fraction over Q, residues over GF(p)), never with the package under test,
so the same seed gives the same command lines on every commit.  The program
only ever sees line literals, points, coefficients, --seed/--instances and
flags, exactly as a user would type them.

Requests follow a fixed cyclic schedule of (command, field, family); the
seed only chooses the coefficients.  That keeps each run's family mix the
same across seeds, which is what keeps the end-to-end figures steady.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

MERSENNE_61 = (1 << 61) - 1

FAMILIES = ("random", "improper", "parallelogram-vertex", "parallel-pair", "invalid")

# Check tags of `--cmd verify`: all 17 over GF(p), the 11 fixture ones over Q.
EXHAUSTIVE_TAGS = (
    "eq1_discriminant", "opposite_orthogonal", "lambda_involution",
    "desargues_reflection", "vertex_line_bisectors", "parallel_bisectors",
    "repairing_bisectors", "unique_midpoints", "closed_form_oracle",
    "locus_midpoints", "locus_degeneracy", "nine_points",
    "pencil_degenerations", "bisector_field", "partner_involution",
    "pair_redundancy", "affine_invariance",
)
FIXTURE_TAGS = tuple(
    t for t in EXHAUSTIVE_TAGS
    if t not in ("vertex_line_bisectors", "parallel_bisectors", "repairing_bisectors",
                 "unique_midpoints", "closed_form_oracle", "pair_redundancy")
)


class Arith:
    """Exact scalars of Q (p is None, Fraction values) or GF(p) (residues).

    Lines are canonical (t, u, v) triples of tX - uY + v = 0 with u = 1 when
    u != 0, else t = 1; points are (x, y) pairs.
    """

    def __init__(self, p: int | None):
        self.p = p

    def norm(self, x):
        return Fraction(x) if self.p is None else x % self.p

    def div(self, a, b):
        if self.p is None:
            return Fraction(a) / b
        return a * pow(b, -1, self.p) % self.p

    def parse(self, text: str):
        text = text.strip()
        if self.p is None:
            return Fraction(text)
        num, _, den = text.partition("/")
        return self.div(int(num), int(den)) if den else int(num) % self.p

    def line(self, t, u, v):
        t, u, v = self.norm(t), self.norm(u), self.norm(v)
        if t == 0 and u == 0:
            raise ValueError("degenerate line")
        if u != 0:
            return (self.div(t, u), self.norm(1), self.div(v, u))
        return (self.norm(1), self.norm(0), self.div(v, t))

    def join(self, p1, p2):
        (x1, y1), (x2, y2) = p1, p2
        t, u = y2 - y1, x2 - x1
        return self.line(t, u, u * y1 - t * x1)

    def meet(self, l1, l2):
        """Affine intersection, or None for parallel lines."""
        (t1, u1, v1), (t2, u2, v2) = l1, l2
        det = self.norm(u1 * t2 - t1 * u2)
        if det == 0:
            return None
        return (self.div(v1 * u2 - u1 * v2, det), self.div(t2 * v1 - t1 * v2, det))

    def on(self, line, pt) -> bool:
        t, u, v = line
        return self.norm(t * pt[0] - u * pt[1] + v) == 0

    def mid(self, p1, p2):
        return (self.div(p1[0] + p2[0], 2), self.div(p1[1] + p2[1], 2))

    def conic_at(self, coeffs, pt):
        a, b, c, d, e, f = coeffs
        x, y = pt
        return self.norm(a * x * x + b * x * y + c * y * y + d * x + e * y + f)

    def literal(self, line) -> str:
        return " ".join(map(str, line))


def parallel(l1, l2) -> bool:
    return l1[:2] == l2[:2]


def broken_rules(A: Arith, sides) -> set[str]:
    """The quadrilateral rules of the CLI contract that four lines violate."""
    a, b, a2, b2 = sides
    rules = set()
    if len(set(sides)) < 4:
        rules.add("DuplicateLine")
    if any(parallel(l1, l2) for l1, l2 in ((a, b), (b, a2), (a2, b2), (b2, a))):
        rules.add("AdjacentParallel")
    elif A.on(a2, A.meet(a, b)) and A.on(b2, A.meet(a, b)):
        rules.add("Concurrent4Lines")
    return rules


def vertices(A: Arith, sides):
    a, b, a2, b2 = sides
    return (A.meet(a, b), A.meet(b, a2), A.meet(a2, b2), A.meet(b2, a))


def sides_of(A: Arith, v):
    """Sides A, B, A', B' of the quadrilateral with vertex order v0..v3."""
    return (A.join(v[3], v[0]), A.join(v[0], v[1]), A.join(v[1], v[2]), A.join(v[2], v[3]))


@dataclass(frozen=True)
class FieldSpec:
    flag: str          # value of --field
    name: str          # field name the CLI prints
    p: int | None
    height: int = 9    # numerator bound over Q
    denominator: int = 4


Q_SMALL = FieldSpec("Q", "Q", None)
Q_BIG = FieldSpec("Q", "Q", None, height=10**6, denominator=10**3)
GF7 = FieldSpec("GFp:7", "GF(7)", 7)
GF101 = FieldSpec("GFp:101", "GF(101)", 101)
GF_M61 = FieldSpec(f"GFp:{MERSENNE_61}", f"GF({MERSENNE_61})", MERSENNE_61)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    cmd: str
    spec: FieldSpec
    family: str
    expect_exit: int = 0
    expect_rule: str | None = None      # error class named on stderr
    sides: tuple | None = None          # canonical lines of --quad, if given
    point: tuple | None = None          # --point of a bisector request
    expect_line: tuple | None = None    # a bisector the answer must contain
    line: tuple | None = None           # --line of a partner request

    @property
    def literals(self) -> list[str] | None:
        if self.sides is None:
            return None
        A = Arith(self.spec.p)
        return [A.literal(s) for s in self.sides]


class Sampler:
    def __init__(self, spec: FieldSpec, rng: random.Random):
        self.spec, self.rng, self.A = spec, rng, Arith(spec.p)

    def scalar(self):
        s = self.spec
        if s.p is not None:
            return self.rng.randrange(s.p)
        return Fraction(self.rng.randint(-s.height, s.height), self.rng.randint(1, s.denominator))

    def nonzero(self):
        while True:
            x = self.scalar()
            if x != 0:
                return x

    def point(self):
        return (self.A.norm(self.scalar()), self.A.norm(self.scalar()))

    def line(self):
        if self.rng.randrange(8) == 0:
            return self.A.line(1, 0, self.scalar())
        return self.A.line(self.scalar(), 1, self.scalar())

    def line_through(self, pt, slope=None):
        """A line through pt: vertical for slope None, else Y = slope X + c."""
        if slope is None:
            return self.A.line(1, 0, -pt[0])
        return self.A.line(slope, 1, pt[1] - slope * pt[0])

    def slope(self):
        return None if self.rng.randrange(8) == 0 else self.scalar()

    def _rotate(self, sides):
        k = self.rng.randrange(4)
        return sides[k:] + sides[:k]

    def candidate(self, family: str, rule: str | None):
        A = self.A
        if family == "random":
            return tuple(self.line() for _ in range(4))
        if family == "improper":
            # A, B, A' through one point: vertices v0 and v1 coincide.
            pt = self.point()
            a, b, a2 = (self.line_through(pt, self.slope()) for _ in range(3))
            return self._rotate((a, b, a2, self.line()))
        if family == "parallelogram-vertex":
            p0, d1, d2 = self.point(), self.point(), self.point()
            pts = [p0, (p0[0] + d1[0], p0[1] + d1[1]),
                   (p0[0] + d1[0] + d2[0], p0[1] + d1[1] + d2[1]),
                   (p0[0] + d2[0], p0[1] + d2[1])]
            order = self.rng.choice(((0, 1, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)))
            if A.norm(d1[0] * d2[1] - d1[1] * d2[0]) == 0:
                return None
            return sides_of(A, [tuple(A.norm(c) for c in pts[i]) for i in order])
        if family == "parallel-pair":
            if self.rng.randrange(2):
                # Trapezoid: one pair of opposite sides parallel.
                a = self.line()
                a2 = (a[0], a[1], A.norm(self.scalar()))
                return self._rotate((a, self.line(), a2, self.line()))
            # Parallel diagonals: v2 - v0 and v3 - v1 share a direction.
            v0, d, v1, k = self.point(), self.point(), self.point(), self.nonzero()
            v2 = (A.norm(v0[0] + d[0]), A.norm(v0[1] + d[1]))
            v3 = (A.norm(v1[0] + k * d[0]), A.norm(v1[1] + k * d[1]))
            if len({v0, v1, v2, v3}) < 4 or d == (0, 0):
                return None
            return sides_of(A, (v0, v1, v2, v3))
        # Invalid quadrilaterals, each breaking exactly one rule.
        if rule == "DuplicateLine":
            a = self.line()
            return (a, self.line(), a, self.line())
        if rule == "AdjacentParallel":
            a = self.line()
            return (a, (a[0], a[1], A.norm(self.scalar())), self.line(), self.line())
        pt = self.point()
        return tuple(self.line_through(pt, self.slope()) for _ in range(4))

    def quad(self, family: str, rule: str | None = None):
        expected = {rule} if rule else set()
        for _ in range(10000):
            try:
                sides = self.candidate(family, rule)
            except (ValueError, ZeroDivisionError):
                continue
            if sides is None or broken_rules(self.A, sides) != expected:
                continue
            if rule is None and not self.has_family(family, sides):
                continue
            return sides
        raise RuntimeError(f"no {family} quadrilateral over {self.spec.name}")

    def has_family(self, family: str, sides) -> bool:
        A = self.A
        v = vertices(A, sides)
        proper = all(v[i] != v[(i + 1) % 4] for i in range(4))
        if family == "improper":
            return not proper
        if family == "parallelogram-vertex":
            return proper and (A.mid(v[0], v[2]) == A.mid(v[1], v[3])
                               or A.mid(v[0], v[1]) == A.mid(v[2], v[3])
                               or A.mid(v[0], v[3]) == A.mid(v[1], v[2]))
        if family == "parallel-pair":
            a, b, a2, b2 = sides
            if v[0] == v[2] or v[1] == v[3]:
                return parallel(a, a2) or parallel(b, b2)
            return (parallel(a, a2) or parallel(b, b2)
                    or parallel(A.join(v[0], v[2]), A.join(v[1], v[3])))
        return True


def _base_argv(spec: FieldSpec, cmd: str) -> list[str]:
    return ["--field", spec.flag, "--cmd", cmd, "--format", "record"]


# Families of the verify workloads: seeded instances half of the time, the
# special families that random GF(p) sampling almost never hits otherwise.
# At p = 101 a quadrilateral takes seconds, so its cycle is the shortest
# one that holds every family.
VERIFY_CYCLE = ("random", "parallel-pair", "improper", "random",
                "parallelogram-vertex", "random")
P101_CYCLE = ("random", "parallel-pair", "improper", "parallelogram-vertex")


def verify_requests(spec: FieldSpec, seed: int, cycle=VERIFY_CYCLE):
    """Endless `--cmd verify` requests, one quadrilateral each."""
    rng = random.Random(f"verify:{spec.flag}:{seed}")
    sampler = Sampler(spec, rng)
    for i in count():
        family = cycle[i % len(cycle)]
        instance_seed = rng.randrange(1 << 31)
        argv = _base_argv(spec, "verify") + [f"--seed={instance_seed}"]
        if family == "random":
            yield Request(tuple(argv + ["--instances", "1"]), "verify", spec, family)
            continue
        sides = sampler.quad(family)
        A = sampler.A
        argv.append("--quad=" + "; ".join(A.literal(s) for s in sides))
        yield Request(tuple(argv), "verify", spec, family, sides=sides)


QUERY_COMMANDS = ("analyze", "bisector", "partner", "pencil")
QUERY_FIELDS = (Q_SMALL, Q_BIG, GF101, GF_M61)
QUERY_FAMILIES = ("random", "random", "improper", "parallelogram-vertex", "parallel-pair")
INVALID_RULES = ("AdjacentParallel", "DuplicateLine", "Concurrent4Lines")
# Out of every 20 requests, two break a quadrilateral rule (exit 2) and one
# asks for the partner of a non-bisector (exit 3).
EXIT2_SLOTS, EXIT3_SLOTS, QUERY_PERIOD = (7, 17), (13,), 20


def query_requests(seed: int):
    """Endless analyze/bisector/partner/pencil requests, each on a fresh quad."""
    rng = random.Random(f"query:{seed}")
    samplers = {spec: Sampler(spec, rng) for spec in QUERY_FIELDS}
    valid = exit2 = exit3 = 0
    for i in count():
        slot = i % QUERY_PERIOD
        if slot in EXIT3_SLOTS:
            spec = QUERY_FIELDS[exit3 % 4]
            exit3 += 1
            yield _nonbisector_partner(samplers[spec], spec)
            continue
        if slot in EXIT2_SLOTS:
            cmd, spec = QUERY_COMMANDS[exit2 % 4], QUERY_FIELDS[(exit2 // 4) % 4]
            rule = INVALID_RULES[exit2 % 3]
            exit2 += 1
            s = samplers[spec]
            sides = s.quad("invalid", rule)
            yield _query(s, spec, cmd, "invalid", sides, expect_exit=2, expect_rule=rule)
            continue
        cmd = QUERY_COMMANDS[valid % 4]
        spec = QUERY_FIELDS[(valid // 4) % 4]
        family = QUERY_FAMILIES[valid % len(QUERY_FAMILIES)]
        valid += 1
        s = samplers[spec]
        yield _query(s, spec, cmd, family, s.quad(family))


def _query(s: Sampler, spec, cmd, family, sides, expect_exit=0, expect_rule=None):
    A = s.A
    argv = _base_argv(spec, cmd) + ["--quad=" + "; ".join(A.literal(l) for l in sides)]
    extra = {}
    if cmd == "bisector":
        point, expect_line = _bisector_point(s, sides, expect_exit == 0)
        argv.append(f"--point={point[0]},{point[1]}")
        extra = {"point": point, "expect_line": expect_line}
    elif cmd == "partner":
        line = sides[s.rng.randrange(4)]
        argv.append("--line=" + A.literal(line))
        extra = {"line": line}
    elif cmd == "pencil":
        alpha, beta = s.scalar(), s.nonzero()
        argv += [f"--alpha={A.norm(alpha)}", f"--beta={A.norm(beta)}"]
    return Request(tuple(argv), cmd, spec, family, expect_exit, expect_rule, sides, **extra)


def _bisector_point(s: Sampler, sides, valid: bool):
    """A side midpoint (its side must be in the answer), the centroid, or a
    random point (usually no bisector)."""
    A = s.A
    choice = s.rng.randrange(5)
    if not valid or choice == 4:
        return s.point(), None
    v = vertices(A, sides)
    if choice == 3:
        c = A.mid(A.mid(v[0], v[1]), A.mid(v[2], v[3]))
        return c, None
    # Side A has midpoint mid(v3, v0), B mid(v0, v1), A' mid(v1, v2), B' mid(v2, v3).
    k = s.rng.randrange(4)
    return A.mid(v[k - 1], v[k]), sides[k]


def _nonbisector_partner(s: Sampler, spec) -> Request:
    """Partner of a line through vertex A.B that is neither a side nor the
    diagonal there: it meets A' and B' in different points, so its two
    midpoints differ and it does not bisect (exit 3, NotABisector)."""
    A = s.A
    while True:
        sides = s.quad("random")
        v = vertices(A, sides)
        line = s.line_through(v[0], s.slope())
        if line not in sides and not A.on(line, v[2]):
            break
    argv = _base_argv(spec, "partner") + [
        "--quad=" + "; ".join(A.literal(l) for l in sides), "--line=" + A.literal(line)]
    return Request(tuple(argv), "partner", spec, "invalid", 3, "NotABisector",
                   sides, line=line)


# Workload -> (request stream of a seed, requests per schedule period).
WORKLOADS = {
    "verify-p101": (lambda seed: verify_requests(GF101, seed, P101_CYCLE), len(P101_CYCLE)),
    "verify-p7": (lambda seed: verify_requests(GF7, seed), len(VERIFY_CYCLE)),
    "verify-q": (lambda seed: verify_requests(Q_SMALL, seed), len(VERIFY_CYCLE)),
    "query": (query_requests, QUERY_PERIOD),
}


def requests(workload: str, seed: int, n: int | None = None):
    stream = WORKLOADS[workload][0](seed)
    return stream if n is None else list(islice(stream, n))
