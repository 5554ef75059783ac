import hashlib
from fractions import Fraction

import pytest

from bisectrix import QQ, Point, bisector_locus
from bisectrix.errors import GeometryError
from bisectrix.svgplot import PLOT_KINDS, rational_conic_points, render_svg


def test_rational_conic_points_are_exact(e1):
    locus = bisector_locus(e1)
    base = Point(QQ.zero, QQ.zero)  # the diagonal point A.A' is on the locus
    assert locus.conic.contains(base)
    slopes = [Fraction(k, 3) for k in range(-5, 6)]
    points = rational_conic_points(locus.conic, base, slopes)
    assert len(points) >= 5
    for p in points:
        assert locus.conic.contains(p)
        assert p != base


def test_render_svg_rejects_unknown_kind(e1):
    with pytest.raises(GeometryError):
        render_svg(e1, "nonsense")


def test_render_svg_improper(improper):
    document = render_svg(improper, "locus")
    assert document.startswith("<svg")
    assert "midpoints" in document


def test_render_svg_pencil_sample(e1):
    document = render_svg(e1, "pencil-sample")
    assert 'id="members"' in document
    assert "polyline" in document


# SHA-256 of every figure, recorded from the renderer before any change to
# it, so that refactoring svgplot is checked byte for byte.
SVG_DIGESTS = {
    ("e1", "locus"): "421445f9026357a2a100c625a53b70394dc9b7e3dbe3bd2e12c489777a5cf83a",
    ("e1", "pencil-sample"): "b843d10dcfd354015914d64474b300894fc9d1f94288c21ccf01b0f0511c17eb",
    ("e1", "bisector-field-sample"):
        "3c559197752068b6c06ed9d47b8b3154682f688b80e5223e9bc0cd84d917412f",
    ("e2", "locus"): "d7a4da2c1ae472f8d0ff72bcac96d73465485692209f3c35cb14249d2581d938",
    ("e2", "pencil-sample"): "4f60ec89992ac8b0fea44c2ea036b9c6ce593c6fe9043ff96d21dbc64408c20c",
    ("e2", "bisector-field-sample"):
        "a341698c4fa9f3d9093007328a93d9a1ef2cd2f87e056ef6be158e7f717925bf",
    ("improper", "locus"): "d0392dfa6632d3b51dd2e9dbf6e1bcbe364572019b1f5e6517590a9de85d2e47",
    ("improper", "pencil-sample"):
        "bb69db7ac4652eb4faf28be292182596f33637b232a52fbf024729037b69615f",
    ("improper", "bisector-field-sample"):
        "fe1acd96fb74c38b2d5d51af94e0b49cb98276fd56666bd382f078cb2a7f3f93",
}


def test_render_svg_digests(e1, e2, improper):
    quads = {"e1": e1, "e2": e2, "improper": improper}
    digests = {
        (name, kind): hashlib.sha256(render_svg(q, kind).encode()).hexdigest()
        for name, q in quads.items()
        for kind in PLOT_KINDS
    }
    assert digests == SVG_DIGESTS
