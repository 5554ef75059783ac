"""Exception types raised by the geometry kernel.

Every error carries a short, stable class name so CLI output and tests
can match on it.
"""


class GeometryError(Exception):
    """Base class for all kernel errors."""


class FieldMismatch(GeometryError):
    """Operands belong to different fields."""


class DivisionByZero(GeometryError):
    """Multiplicative inverse of zero requested."""


class DegenerateInput(GeometryError):
    """Construction received coincident or otherwise unusable input."""


class IdenticalLines(GeometryError):
    """Intersection of a line with itself requested."""


class SingularMap(GeometryError):
    """Affine map with zero determinant."""


class DuplicateLine(GeometryError):
    """Quadrilateral sides are not four distinct lines."""


class AdjacentParallel(GeometryError):
    """Two adjacent sides of a quadrilateral are parallel."""


class Concurrent4Lines(GeometryError):
    """All four sides pass through a single point."""


class DegenerateForm(GeometryError):
    """Quadratic form with vanishing discriminant where nonzero is required."""


class NotConjugate(GeometryError):
    """Points that a theorem makes conjugate under an involution are not."""


class InvariantViolation(GeometryError):
    """A result breaks an identity the kernel guarantees (a kernel bug)."""


class LineThroughVertex(GeometryError):
    """Line passes through a vertex where that is not allowed."""


class NotABisector(GeometryError):
    """Line does not bisect the quadrilateral."""


class NotBisectors(GeometryError):
    """A pair operation received lines that do not both bisect."""


class InfiniteField(GeometryError):
    """Exhaustive enumeration requested over an infinite field."""


class ExhaustedSampling(GeometryError):
    """Rejection sampling failed to find a valid object."""
