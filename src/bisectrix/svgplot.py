"""SVG rendering of quadrilaterals, bisector pairs and locus curves.

This is the one inexact boundary of the package: every value is computed
exactly and converted to a float only when written into the document.
Plotting is defined over the rationals; finite fields have no meaningful
embedding and are rejected by the CLI.

The document is organized in fixed groups (sides, locus, pairs, members,
midpoints) and declares its own element counts in a metadata element so
consumers can structurally validate the output.
"""

from __future__ import annotations

from fractions import Fraction

from .bisectors import (
    AllLinesThrough,
    bisector_locus,
    bisector_through,
    is_bisector,
    nine_points,
    q_partner,
)
from .errors import GeometryError
from .field import QQ, Scalar
from .pencil import Conic, center, pencil_of
from .plane import Line, Point
from .quad import Quadrilateral

PLOT_KINDS = ("locus", "pencil-sample", "bisector-field-sample")
_SAMPLES = 160  # polyline steps across the box for each conic branch


def _f(s: Scalar) -> float:
    return float(s.value)


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def rational_conic_points(conic: Conic, base: Point, slopes) -> list[Point]:
    """Exact points of a conic, by the chord construction from a base point.

    The line through base with slope s meets the conic in one further
    point, recovered from the root sum of the restricted quadratic, so
    every returned point is exact.
    """
    out = []
    x0, y0 = base.x, base.y
    for s in slopes:
        s = base.field.scalar(s)
        # Substitute Y = y0 + s(X - x0) and use that x0 is one root.
        a2 = conic.a + conic.b * s + conic.c * s * s
        if a2.is_zero():
            continue
        b2 = (
            conic.b * (y0 - s * x0)
            + 2 * conic.c * s * (y0 - s * x0)
            + conic.d
            + conic.e * s
        )
        x1 = -b2 / a2 - x0
        y1 = y0 + s * (x1 - x0)
        candidate = Point(x1, y1)
        if candidate != base and conic.contains(candidate):
            out.append(candidate)
    return out


class _Canvas:
    """Collects elements per group and tracks the bounding box."""

    def __init__(self):
        self.groups: dict[str, list[str]] = {
            "sides": [],
            "locus": [],
            "pairs": [],
            "members": [],
            "midpoints": [],
        }
        self.xs: list[float] = []
        self.ys: list[float] = []

    def note(self, x: float, y: float):
        self.xs.append(x)
        self.ys.append(y)

    def box(self) -> tuple[float, float, float, float]:
        xmin, xmax = min(self.xs), max(self.xs)
        ymin, ymax = min(self.ys), max(self.ys)
        pad_x = (xmax - xmin) * 0.1 or 1.0
        pad_y = (ymax - ymin) * 0.1 or 1.0
        return xmin - pad_x, ymin - pad_y, xmax + pad_x, ymax + pad_y

    def segment(self, group: str, x1, y1, x2, y2, stroke: str, width: float):
        self.groups[group].append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
            f' stroke="{stroke}" stroke-width="{_fmt(width)}" />'
        )

    def polyline(self, group: str, points, stroke: str, width: float):
        text = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.groups[group].append(
            f'<polyline points="{text}" fill="none" stroke="{stroke}"'
            f' stroke-width="{_fmt(width)}" />'
        )

    def circle(self, group: str, x, y, r: float, fill: str):
        self.groups[group].append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(r)}" fill="{fill}" />'
        )


def _clip_line(line: Line, box) -> tuple[float, float, float, float] | None:
    """Clip an infinite line to the box; returns segment endpoints or None."""
    xmin, ymin, xmax, ymax = box
    if line.is_vertical:
        px, py = -_f(line.v), 0.0
        dx, dy = 0.0, 1.0
    else:
        px, py = 0.0, _f(line.v)
        dx, dy = 1.0, _f(line.t)
    tmin, tmax = -1e18, 1e18
    for p, d, lo, hi in ((px, dx, xmin, xmax), (py, dy, ymin, ymax)):
        if d == 0.0:
            if p < lo or p > hi:
                return None
            continue
        t1, t2 = (lo - p) / d, (hi - p) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin, tmax = max(tmin, t1), min(tmax, t2)
    if tmin >= tmax:
        return None
    return (px + tmin * dx, py + tmin * dy, px + tmax * dx, py + tmax * dy)


def _conic_branches(conic: Conic, box) -> list[list[tuple[float, float]]]:
    """Polyline approximations of a conic inside the box (float only)."""
    xmin, ymin, xmax, ymax = box
    a, b, c = _f(conic.a), _f(conic.b), _f(conic.c)
    d, e, f = _f(conic.d), _f(conic.e), _f(conic.f)
    step = (xmax - xmin) / _SAMPLES
    uppers: list[tuple[float, float] | None] = []
    lowers: list[tuple[float, float] | None] = []
    for i in range(_SAMPLES + 1):
        x = xmin + i * step
        if abs(c) > 1e-12:
            qb = b * x + e
            qc = a * x * x + d * x + f
            disc = qb * qb - 4 * c * qc
            if disc < 0:
                uppers.append(None)
                lowers.append(None)
                continue
            root = disc ** 0.5
            y1 = (-qb + root) / (2 * c)
            y2 = (-qb - root) / (2 * c)
            uppers.append((x, max(y1, y2)))
            lowers.append((x, min(y1, y2)))
        else:
            denom = b * x + e
            if abs(denom) < 1e-9:
                uppers.append(None)
                lowers.append(None)
                continue
            y = -(a * x * x + d * x + f) / denom
            uppers.append((x, y))
            lowers.append(None)
    branches = []
    run_u: list[tuple[float, float]] = []
    run_l: list[tuple[float, float]] = []
    for up, lo in zip(uppers + [None], lowers + [None]):
        if up is None:
            if run_u:
                branches.append(run_u + run_l[::-1] if run_l else run_u)
                run_u, run_l = [], []
            continue
        run_u.append(up)
        if lo is not None:
            run_l.append(lo)
    visible = []
    for branch in branches:
        kept = [(x, y) for x, y in branch if ymin - 1 <= y <= ymax + 1]
        if len(kept) >= 2:
            visible.append(kept)
    return visible


def _sample_q_pairs(q: Quadrilateral, locus, count: int):
    """Exact (bisector line, midpoint) pairs for drawing, sides first."""
    lines = []
    seen = set()

    def add(line):
        if line not in seen:
            m = is_bisector(q, line)
            if m is not None:
                seen.add(line)
                lines.append((line, m))

    def add_with_partner(line):
        add(line)
        try:
            add(q_partner(q, line))
        except GeometryError:
            pass

    for line in q.sides + q.diagonal_lines:
        add_with_partner(line)
    base = None
    if locus.components is None:
        for p in nine_points(q.quadrangle()) if q.proper else []:
            if isinstance(p, Point):
                base = p
                break
        if base is not None:
            slopes = [Fraction(k, 3) for k in range(-count, count + 1)]
            for m in rational_conic_points(locus.conic, base, slopes):
                found = bisector_through(q, m)
                if isinstance(found, list):
                    for b in found:
                        add_with_partner(b.line)
    else:
        midline = locus.components[0]
        anchor = Point(-midline.v, QQ.zero) if midline.is_vertical else Point(QQ.zero, midline.v)
        direction = midline.infinite_point()
        for k in range(-count, count + 1):
            t = QQ.scalar(Fraction(k, 2))
            m = Point(anchor.x + t * direction.x, anchor.y + t * direction.y)
            found = bisector_through(q, m)
            if isinstance(found, list):
                for b in found:
                    add_with_partner(b.line)
            elif isinstance(found, AllLinesThrough):
                for s in range(-2, 3):
                    star = Line(
                        QQ.scalar(s), QQ.one,
                        found.center.y - QQ.scalar(s) * found.center.x,
                    )
                    add(star)
                add(Line(QQ.one, QQ.zero, -found.center.x))
    return lines


def render_svg(q: Quadrilateral, what: str) -> str:
    """Render the requested figure; returns the SVG document text."""
    if q.field != QQ:
        raise GeometryError("plotting is defined over the rationals only")
    if what not in PLOT_KINDS:
        raise GeometryError(f"unknown plot kind {what!r}")
    locus = bisector_locus(q)
    canvas = _Canvas()
    marker_points: list[Point] = []
    if q.proper:
        for p in nine_points(q.quadrangle()):
            if isinstance(p, Point):
                marker_points.append(p)
    else:
        marker_points.extend(
            m for line in q.sides if (m := is_bisector(q, line)) is not None
        )
    marker_points.append(q.centroid)
    for v in q.vertices:
        canvas.note(_f(v.x), -_f(v.y))
    for p in marker_points:
        canvas.note(_f(p.x), -_f(p.y))

    pair_lines = []
    members = []
    if what == "bisector-field-sample":
        pair_lines = _sample_q_pairs(q, locus, 4)
        for _, m in pair_lines:
            canvas.note(_f(m.x), -_f(m.y))
            marker_points.append(m)
    if what == "pencil-sample":
        pen = pencil_of(q)
        for t in range(-3, 4):
            members.append(pen.member(QQ.one, QQ.scalar(t)))
        members.append(pen.member(QQ.zero, QQ.one))
        for member in members:
            ctr = center(member)
            if ctr is not None and not member.is_degenerate():
                marker_points.append(ctr)
                canvas.note(_f(ctr.x), -_f(ctr.y))

    box = canvas.box()
    size = max(box[2] - box[0], box[3] - box[1])
    width = size / 240

    for side in q.sides:
        seg = _clip_line(_flip(side), box)
        if seg is not None:
            canvas.segment("sides", *seg, stroke="#000000", width=width)

    if locus.components is not None:
        for component in locus.components:
            seg = _clip_line(_flip(component), box)
            if seg is not None:
                canvas.segment("locus", *seg, stroke="#3366cc", width=width)
    else:
        for branch in _conic_branches(_flip_conic(locus.conic), box):
            canvas.polyline("locus", branch, stroke="#3366cc", width=width)

    for line, _m in pair_lines:
        seg = _clip_line(_flip(line), box)
        if seg is not None:
            canvas.segment("pairs", *seg, stroke="#999999", width=width * 0.8)

    for member in members:
        if member.is_degenerate():
            continue
        for branch in _conic_branches(_flip_conic(member), box):
            canvas.polyline("members", branch, stroke="#cc6633", width=width * 0.8)

    seen_markers = set()
    for p in marker_points:
        key = (p.x, p.y)
        if key in seen_markers:
            continue
        seen_markers.add(key)
        canvas.circle("midpoints", _f(p.x), -_f(p.y), size / 90, "#222222")

    counts = {name: len(items) for name, items in canvas.groups.items()}
    body = []
    for name, items in canvas.groups.items():
        body.append(f'<g id="{name}">')
        body.extend(items)
        body.append("</g>")
    xmin, ymin, xmax, ymax = box
    header = (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(xmin)} {_fmt(ymin)} {_fmt(xmax - xmin)} {_fmt(ymax - ymin)}">'
    )
    metadata = (
        "<metadata id=\"counts\">"
        + " ".join(f"{name}={count}" for name, count in counts.items())
        + "</metadata>"
    )
    return "\n".join([header, metadata] + body + ["</svg>"]) + "\n"


def _flip(line: Line) -> Line:
    """Mirror a line across the X axis (SVG's y axis grows downward)."""
    return Line(line.t, -line.u, line.v)


def _flip_conic(conic: Conic) -> Conic:
    a, b, c, d, e, f = conic.coeffs
    return Conic(a, -b, c, d, -e, f)
