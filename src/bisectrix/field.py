"""Exact field arithmetic over the rationals and over GF(p), p an odd prime.

Fields are interned (Rationals() is QQ, PrimeField(p) is GF(p)), so field
equality is identity, and each field has its own Scalar subclass, so field
identity is class identity.  Scalars are immutable; mixing fields raises
FieldMismatch.  Rationals are backed by _Rat, a lean fractions.Fraction
subclass (always reduced, positive denominator) whose + - * /, == and hash
skip Fraction's operator dispatch and return Fraction's results; GF(p)
values by canonical residues in [0, p).
Square roots are computed inside the field and absence is a value, not an
error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from operator import attrgetter

from .errors import DivisionByZero, FieldMismatch

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The witnesses above decide primality of every n below this bound.
_MR_BOUND = 3317044064679887385961981
# Fraction(str) builds 10**exponent in full for a literal of this grammar;
# Rationals matches only texts with an e against it, so fractions skip it.
_DIGITS = r"\d+(?:_\d+)*"
_DECIMAL = re.compile(rf"[-+]?(?=\.?\d)(?:{_DIGITS})?(?:\.(?:{_DIGITS})?)?e([-+]?{_DIGITS})", re.I)
_MAX_EXPONENT = 100_000


def _rat(n: int, d: int) -> _Rat:
    """The _Rat n/d, for d > 0, reduced by one gcd; its slots are set
    directly, without Fraction's constructor."""
    g = gcd(n, d)
    r = object.__new__(_Rat)
    r._numerator = n // g
    r._denominator = d // g
    return r


def _quotient(n: int, d: int) -> _Rat:
    """The _Rat n/d for any d; a zero d raises as Fraction's division does."""
    if not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    return _rat(-n, -d) if d < 0 else _rat(n, d)


def _operator(fallback, rule):
    """A _Rat operator a op b: rule(na, da, nb, db) on the numerators and
    denominators when b is a _Rat (tested first), a Fraction or an int, and
    Fraction's own operator fallback(a, b) for any other type."""
    def op(a, b):
        if type(b) is _Rat:
            return rule(a._numerator, a._denominator, b._numerator, b._denominator)
        if isinstance(b, (int, Fraction)):
            return rule(a._numerator, a._denominator, b.numerator, b.denominator)
        return fallback(a, b)
    return op


class _Rat(Fraction):
    """The raw value of Q: a Fraction whose + - * / (in either operand order)
    and unary - build their result with one gcd (_rat), skipping Fraction's
    operator dispatch and constructor, and whose == with a _Rat or an int and
    hash of an integral value (its numerator's) skip its ABC checks and pow.
    Every value, string, hash, order and pickle is the one Fraction gives."""

    __slots__ = ()
    __add__ = __radd__ = _operator(
        Fraction.__add__, lambda na, da, nb, db: _rat(na * db + nb * da, da * db))
    __sub__ = _operator(
        Fraction.__sub__, lambda na, da, nb, db: _rat(na * db - nb * da, da * db))
    __rsub__ = _operator(
        Fraction.__rsub__, lambda na, da, nb, db: _rat(nb * da - na * db, da * db))
    __mul__ = __rmul__ = _operator(
        Fraction.__mul__, lambda na, da, nb, db: _rat(na * nb, da * db))
    __truediv__ = _operator(
        Fraction.__truediv__, lambda na, da, nb, db: _quotient(na * db, da * nb))
    __rtruediv__ = _operator(
        Fraction.__rtruediv__, lambda na, da, nb, db: _quotient(nb * da, db * na))

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __eq__(a, b):
        if type(b) is _Rat:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if type(b) is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __hash__(a):
        return hash(a._numerator) if a._denominator == 1 else Fraction.__hash__(a)


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

    Constructing a field returns the one object with those parameters, and
    its elements are built only through it: scalar, parse, zero and one.
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
            field._make = _scalar_class(field, field.p)
            field.zero = field._make(field._coerce(0))
            field.one = field._make(field._coerce(1))
            field = Field._interned.setdefault(key, field)
        return field

    def _setup(self):
        """Validate the parameters and set the field's attributes."""

    def __reduce__(self):
        # Copies and unpickled fields resolve to the interned object.
        return type(self), self._params

    def scalar(self, value) -> "Scalar":
        """Coerce an int or a Fraction into this field; text goes through parse."""
        return self._make(self._coerce(value))

    def parse(self, text: str) -> "Scalar":
        return self._make(self._coerce_text(text.strip()))

    # raw-representation hooks implemented by subclasses
    def _coerce(self, value):
        raise NotImplementedError

    def _coerce_text(self, text: str):
        raise NotImplementedError

    def _inv(self, a):
        raise NotImplementedError

    def _sqrt(self, a):
        raise NotImplementedError


class Rationals(Field):
    """The field of rational numbers with arbitrary-precision arithmetic."""

    name = "Q"
    p = None  # raw values are _Rats, never reduced

    def __repr__(self):
        return "Rationals()"

    def _coerce(self, value):
        if type(value) is _Rat:
            return value
        if isinstance(value, (int, Fraction)):
            return _rat(value.numerator, value.denominator)
        raise TypeError(f"cannot make a rational out of {value!r}")

    def _coerce_text(self, text):
        # An integer or n/d of digits skips Fraction's regex parser: int()
        # accepts only texts of its grammar, with the same value, and a text
        # int() refuses (such as '²') falls through to the parser's error.
        num, slash, den = text.partition("/")
        try:
            if num[-1:].isdigit() and (not slash or den.isdigit()):
                try:
                    return _quotient(int(num), int(den) if slash else 1)
                except ValueError:
                    pass
            decimal = ("e" in text or "E" in text) and _DECIMAL.fullmatch(text)
            if decimal and abs(int(decimal[1])) > _MAX_EXPONENT:
                raise ValueError(f"exponent of {text!r} is past ±{_MAX_EXPONENT:,}")
            return _Rat(text)
        except ZeroDivisionError:
            raise DivisionByZero(f"zero denominator in {text!r}") from None

    def _inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return _quotient(a.denominator, a.numerator)

    def _sqrt(self, a):
        # Reduced fraction is a square iff numerator and denominator both are.
        if a < 0:
            return None
        rn, rd = isqrt(a.numerator), isqrt(a.denominator)
        if rn * rn != a.numerator or rd * rd != a.denominator:
            return None
        return _rat(rn, rd)


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
        # The rationals' grammar, reduced mod p; plain integers skip the
        # Fraction parser, which costs about thirty times as much.
        try:
            return int(text) % self.p
        except ValueError:
            return self._coerce(QQ._coerce_text(text))

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


GF = PrimeField


def _thaw(cls, values):
    """Rebuild a Frozen value from its slot values, which are not checked."""
    obj = object.__new__(cls)
    obj._write(*values)
    return obj


class Frozen:
    """Base of every kernel value: once its constructor has written the slots
    (through _write, with the slots' own descriptors), no attribute can be
    assigned or deleted; copy and pickle rebuild it through _thaw instead of
    setattr.

    Two values are equal when they have the same type and equal identity
    slots, which are the class's own __slots__ unless it names a subset with
    the class keyword identity=(...); the hash is that of the same slots but
    a field, whose hash (its address) would vary set order between processes.
    """

    __slots__ = ()

    def __init_subclass__(cls, identity=None, **kwargs):
        super().__init_subclass__(**kwargs)
        slots = cls.__dict__.get("__slots__")
        if slots:
            cls._identity = attrgetter(*(identity or slots))
            cls._hashed = attrgetter(*(name for name in identity or slots if name != "field"))
            cls._setters = tuple(cls.__dict__[name].__set__ for name in slots)

    def _write(self, *values):
        """Set the slots, in __slots__ order; constructors call it last."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        key = self._identity
        return type(other) is type(self) and key(other) == key(self)

    def __hash__(self):
        return hash(self._hashed(self))

    @property
    def field(self) -> Field:
        """The field of the first slot's value."""
        return getattr(self, self.__slots__[0]).field

    def __reduce__(self):
        return _thaw, (type(self), tuple(getattr(self, name) for name in self.__slots__))


class Scalar(Frozen):
    """An immutable field element; arithmetic never leaves the field.

    Every field's elements belong to that field's own subclass (built by
    _scalar_class), whose class attribute `field` is the field.
    """

    __slots__ = ("value",)
    field: Field

    def _slow(self, other, op):
        """op(self, other) when other may not be of self's class: an int is
        coerced into the field, a Scalar of another field raises
        FieldMismatch, and anything else is NotImplemented."""
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatch(f"{self.field.name} vs {other.field.name}")
        elif isinstance(other, int):
            other = self.field._make(self.field._coerce(other))
        else:
            return NotImplemented
        return op(self, other)

    def __rsub__(self, other):
        return self._slow(other, lambda a, b: b - a)

    def __rtruediv__(self, other):
        return self._slow(other, lambda a, b: b / a)

    def sqrt(self):
        """The canonical square root in the field, or None if there is none."""
        root = self.field._sqrt(self.value)
        return None if root is None else self.field._make(root)

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return type(other) is type(self) and other.value == self.value
        return NotImplemented

    def __reduce__(self):
        # Each field's Scalar class is built at run time; the field pickles.
        return self.field.scalar, (self.value,)

    def __hash__(self):
        # Defining __eq__ drops the inherited hash, so it is restated here:
        # Frozen's (the value alone), read without its attrgetter call.
        return hash(self.value)

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"<{self} in {self.field.name}>"


def _wrapped(i: int) -> property:
    """Entry i of a value's raw tuple as a Scalar of the value's field."""
    return property(lambda self: self.field._make(self.raw[i]))


def _scalar_class(field: Field, p: int | None):
    """Build the field's own Scalar subclass and return its constructor from
    a raw value.  Results are reduced mod p over GF(p) and not at all over Q
    (p None); `type(other) is cls` is the whole field check of the fast path.
    """
    new, set_value, inv = object.__new__, Scalar.value.__set__, field._inv

    def make(value):
        x = new(cls)
        set_value(x, value)
        return x

    def __add__(self, other):
        if type(other) is not cls:
            return self._slow(other, __add__)
        v = self.value + other.value
        return make(v % p if p else v)

    def __sub__(self, other):
        if type(other) is not cls:
            return self._slow(other, __sub__)
        v = self.value - other.value
        return make(v % p if p else v)

    def __mul__(self, other):
        if type(other) is not cls:
            return self._slow(other, __mul__)
        v = self.value * other.value
        return make(v % p if p else v)

    def __truediv__(self, other):
        if type(other) is not cls:
            return self._slow(other, __truediv__)
        if p:
            return make(self.value * inv(other.value) % p)
        if not other.value:
            raise DivisionByZero("inverse of 0")
        return make(self.value / other.value)  # one _Rat division

    def __neg__(self):
        return make(-self.value % p if p else -self.value)

    def inverse(self) -> Scalar:
        return make(inv(self.value))

    cls = type("Scalar", (Scalar,), {
        "__slots__": (), "__module__": __name__, "field": field,
        "__add__": __add__, "__radd__": __add__, "__sub__": __sub__,
        "__mul__": __mul__, "__rmul__": __mul__, "__truediv__": __truediv__,
        "__neg__": __neg__, "inverse": inverse,
    })
    return make


QQ = Rationals()
