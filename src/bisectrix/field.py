"""Exact field arithmetic over the rationals and over GF(p), p an odd prime.

Scalars are immutable and tagged with their field; mixing fields raises
FieldMismatch.  Rationals are backed by fractions.Fraction (always reduced,
positive denominator), GF(p) values by canonical residues in [0, p).
Square roots are computed inside the field and absence is a value, not an
error.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DivisionByZero, FieldMismatch

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Common interface of Rationals and PrimeField."""

    name: str

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, string or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"cannot coerce {value.field.name} into {self.name}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        return Scalar(self, self._coerce(value))

    @property
    def zero(self) -> "Scalar":
        return self.scalar(0)

    @property
    def one(self) -> "Scalar":
        return self.scalar(1)

    def parse(self, text: str) -> "Scalar":
        return Scalar(self, self._coerce_text(text.strip()))

    # raw-representation hooks implemented by subclasses
    def _coerce(self, value):
        raise NotImplementedError

    def _coerce_text(self, text: str):
        raise NotImplementedError

    def _add(self, a, b):
        raise NotImplementedError

    def _sub(self, a, b):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    def _neg(self, a):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _sqrt(self, a):
        raise NotImplementedError


class Rationals(Field):
    """The field of rational numbers with arbitrary-precision arithmetic."""

    name = "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"

    def _coerce(self, value):
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot make a rational out of {value!r}")

    def _coerce_text(self, text):
        return Fraction(text)

    def _add(self, a, b):
        return a + b

    def _sub(self, a, b):
        return a - b

    def _mul(self, a, b):
        return a * b

    def _neg(self, a):
        return -a

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return 1 / a

    def _sqrt(self, a):
        # Reduced fraction is a square iff numerator and denominator both are.
        if a < 0:
            return None
        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn != a.numerator or rd * rd != a.denominator:
            return None
        return Fraction(rn, rd)


class PrimeField(Field):
    """GF(p) for an odd prime p, elements stored as residues in [0, p)."""

    def __init__(self, p: int):
        if p < 3 or p % 2 == 0 or not _is_prime(p):
            raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
        self.p = p
        self.name = f"GF({p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"

    def _coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise DivisionByZero(f"denominator divisible by {self.p}")
            return value.numerator * pow(value.denominator, -1, self.p) % self.p
        raise TypeError(f"cannot make a GF({self.p}) element out of {value!r}")

    def _coerce_text(self, text):
        if "/" in text:
            num, den = text.split("/", 1)
            return self._mul(self._coerce(int(num)), self._inv(self._coerce(int(den))))
        return self._coerce(int(text))

    def _add(self, a, b):
        return (a + b) % self.p

    def _sub(self, a, b):
        return (a - b) % self.p

    def _mul(self, a, b):
        return a * b % self.p

    def _neg(self, a):
        return -a % self.p

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def _sqrt(self, a):
        if a == 0:
            return 0
        p = self.p
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
        else:
            r = self._tonelli_shanks(a)
        # Canonical root: the residue that is even as an integer.  Exactly
        # one of r, p - r is even because p is odd and r != 0.
        return r if r % 2 == 0 else p - r

    def _tonelli_shanks(self, a):
        p = self.p
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t * t % p, 1
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
        return r


QQ = Rationals()

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    """Return the (cached) prime field GF(p)."""
    field = _prime_fields.get(p)
    if field is None:
        field = _prime_fields[p] = PrimeField(p)
    return field


class Scalar:
    """An immutable field element; arithmetic never leaves the field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _rhs(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field.name} vs {other.field.name}")
            return other.value
        if isinstance(other, int):
            return self.field._coerce(other)
        return NotImplemented

    def __add__(self, other):
        b = self._rhs(other)
        if b is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.value, b))

    __radd__ = __add__

    def __sub__(self, other):
        b = self._rhs(other)
        if b is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._sub(self.value, b))

    def __rsub__(self, other):
        b = self._rhs(other)
        if b is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._sub(b, self.value))

    def __mul__(self, other):
        b = self._rhs(other)
        if b is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.value, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        b = self._rhs(other)
        if b is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.value, self.field._inv(b)))

    def __rtruediv__(self, other):
        b = self._rhs(other)
        if b is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field._mul(b, self.field._inv(self.value)))

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.value))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n == 0:
            return self.field.one
        half = self ** (n // 2)
        return half * half * self if n & 1 else half * half

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field._inv(self.value))

    def sqrt(self):
        """The canonical square root in the field, or None if there is none."""
        root = self.field._sqrt(self.value)
        return None if root is None else Scalar(self.field, root)

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return other.field == self.field and other.value == self.value
        if isinstance(other, int):
            return self.value == self.field._coerce(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def sort_key(self):
        """Total order on representations, used only for canonical storage."""
        return self.value

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"<{self} in {self.field.name}>"
