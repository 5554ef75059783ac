"""Exact field arithmetic over the rationals and over GF(p), p an odd prime.

Fields are interned (Rationals() is QQ, PrimeField(p) is GF(p)), so field
equality is identity.  Scalars are immutable and tagged with their field;
mixing fields raises FieldMismatch.  Rationals are backed by
fractions.Fraction (always reduced, positive denominator), GF(p) values by
canonical residues in [0, p).
Square roots are computed inside the field and absence is a value, not an
error.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import DivisionByZero, FieldMismatch

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The witnesses above decide primality of every n below this bound.
_MR_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < _MR_BOUND."""
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
    """Common interface of Rationals and PrimeField.

    Constructing a field returns the one object with those parameters.
    """

    _interned: dict[tuple, "Field"] = {}
    name: str
    zero: "Scalar"
    one: "Scalar"

    def __new__(cls, *params):
        key = (cls, *params)
        field = Field._interned.get(key)
        if field is None:
            field = object.__new__(cls)
            field._params = params
            field._setup(*params)
            field.zero = Scalar(field, field._coerce(0))
            field.one = Scalar(field, field._coerce(1))
            field = Field._interned.setdefault(key, field)
        return field

    def _setup(self):
        """Validate the parameters and set the field's attributes."""

    def __reduce__(self):
        # Copies and unpickled fields resolve to the interned object.
        return type(self), self._params

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, string or Scalar into this field."""
        if isinstance(value, Scalar):
            if value.field is not self:
                raise FieldMismatch(f"cannot coerce {value.field.name} into {self.name}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        return Scalar(self, self._coerce(value))

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

    def _div(self, a, b):
        raise NotImplementedError

    def _sqrt(self, a):
        raise NotImplementedError


class Rationals(Field):
    """The field of rational numbers with arbitrary-precision arithmetic."""

    name = "Q"

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

    def _div(self, a, b):
        if b == 0:
            raise DivisionByZero("inverse of 0")
        return a / b

    def _sqrt(self, a):
        # Reduced fraction is a square iff numerator and denominator both are.
        if a < 0:
            return None
        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn != a.numerator or rd * rd != a.denominator:
            return None
        return Fraction(rn, rd)


class PrimeField(Field):
    """GF(p) for an odd prime p < _MR_BOUND, elements stored as residues in [0, p)."""

    p: int

    def _setup(self, p: int):
        if p >= _MR_BOUND:
            raise ValueError(f"modulus must be below {_MR_BOUND} (primality bound), got {p}")
        if p < 3 or p % 2 == 0 or not _is_prime(p):
            raise ValueError(f"modulus must be an odd prime >= 3, got {p}")
        self.p = p
        self.name = f"GF({p})"

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

    def _div(self, a, b):
        return a * self._inv(b) % self.p

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


GF = PrimeField


class Frozen:
    """Base of every kernel value: once its constructor has written the slots
    (with object.__setattr__), no attribute can be assigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


def _binary(hook: str, reflected: bool = False):
    """A Scalar operator applying the field hook to (self, other), or to
    (other, self) when reflected; ints are coerced into the field."""

    def operator(self, other):
        field = self.field
        if isinstance(other, Scalar):
            if other.field is not field:
                raise FieldMismatch(f"{field.name} vs {other.field.name}")
            b = other.value
        elif isinstance(other, int):
            b = field._coerce(other)
        else:
            return NotImplemented
        a = self.value
        if reflected:
            a, b = b, a
        result = _new_object(Scalar)
        _set_field(result, field)
        _set_value(result, getattr(field, hook)(a, b))
        return result

    return operator


class Scalar(Frozen):
    """An immutable field element; arithmetic never leaves the field."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        _set_field(self, field)
        _set_value(self, value)

    __add__ = __radd__ = _binary("_add")
    __sub__ = _binary("_sub")
    __rsub__ = _binary("_sub", reflected=True)
    __mul__ = __rmul__ = _binary("_mul")
    __truediv__ = _binary("_div")
    __rtruediv__ = _binary("_div", reflected=True)

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
            return other.field is self.field and other.value == self.value
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


_new_object = object.__new__
_set_field = Scalar.field.__set__
_set_value = Scalar.value.__set__
QQ = Rationals()
