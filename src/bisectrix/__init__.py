"""Exact-arithmetic bisector geometry of quadrilaterals over Q and GF(p)."""

from .bisectors import (
    AllLinesThrough,
    Bisector,
    LocusConic,
    bisector_locus,
    bisector_through,
    is_bisector,
    is_q_pair,
    nine_points,
    q_partner,
)
from .field import GF, PrimeField, QQ, Rationals, Scalar
from .form import (
    Involution,
    QuadraticData,
    desargues_involution,
    desargues_pencil,
    inner,
    lambda_q,
    phi,
    q_orthogonal,
    quadratic_data,
)
from .oracle import (
    Lcg64,
    TheoremReport,
    brute_bisectors,
    closed_form_bisectors,
    enumerate_lines,
    lines_through,
    random_quadrilateral,
    verify_all,
)
from .pencil import (
    Conic,
    ConicClass,
    Degeneration,
    DegenerationReport,
    ParallelFamily,
    Pencil,
    center,
    classify,
    degenerations,
    pencil_of,
)
from .plane import (
    AffineMap,
    InfPoint,
    Line,
    LinePair,
    PlanePoint,
    Point,
    intersect,
    line_from_points,
    midpoint,
)
from .quad import Quadrangle, Quadrilateral, requadrilate, standard_form

__all__ = [name for name in dir() if not name.startswith("_")]
