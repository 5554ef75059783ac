import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bisectrix import GF, QQ, PrimeField, Rationals
from bisectrix.errors import DivisionByZero, FieldMismatch
from bisectrix.field import Scalar, _Rat
from bisectrix.oracle import Lcg64


def test_rational_arithmetic():
    a = QQ.scalar(Fraction(1, 2))
    b = QQ.scalar(Fraction(1, 3))
    assert a + b == QQ.scalar(Fraction(5, 6))
    assert a - b == QQ.scalar(Fraction(1, 6))
    assert a * b == QQ.scalar(Fraction(1, 6))
    assert -QQ.zero == QQ.zero


def test_gf_arithmetic():
    g7 = GF(7)
    assert g7.scalar(3) * g7.scalar(5) == g7.one
    assert g7.scalar(3) + g7.scalar(5) == g7.scalar(1)
    assert -g7.zero == g7.zero


def test_zero_denominator_text_is_division_by_zero():
    for field, text in ((QQ, "1/0"), (QQ, "-3/0"), (GF(7), "1/7")):
        with pytest.raises(DivisionByZero):
            field.parse(text)


def test_prime_field_parses_the_rational_grammar():
    """GF(p) accepts every literal QQ accepts and reduces its value mod p;
    a denominator divisible by p is DivisionByZero, as in the other fields'
    division."""
    texts = ["0", "3", "-7", "+5", "12", "1_000", "1.5", "-0.25", "1e3", "2E-2",
             "-12/7", "5/6", " 3/4 ", "-1/2", "100/25"]
    for p in (3, 7, 11, 101):
        field = GF(p)
        for text in texts:
            value = QQ.parse(text).value
            if value.denominator % p == 0:
                with pytest.raises(DivisionByZero):
                    field.parse(text)
            else:
                assert field.parse(text) == field.scalar(value), (p, text)
        for text in ("x", "1/-2", "1//2", "0x10", ""):
            with pytest.raises(ValueError):
                QQ.parse(text)
            with pytest.raises(ValueError):
                field.parse(text)
    assert GF(7).parse("14/7") == GF(7).scalar(2)
    with pytest.raises(DivisionByZero):
        GF(7).parse("1/0")


def test_int_coercion_in_expressions():
    g7 = GF(7)
    x = g7.scalar(3)
    assert 2 * x == g7.scalar(6)
    assert x - 10 == g7.scalar(0)
    assert 10 - x == g7.scalar(0)
    assert 4 + x == g7.scalar(0)
    assert 1 / x == g7.scalar(5)


def test_inverse():
    assert QQ.scalar(Fraction(2, 3)).inverse() == QQ.scalar(Fraction(3, 2))
    assert GF(7).scalar(3).inverse() == GF(7).scalar(5)
    assert QQ.one.inverse() == QQ.one
    with pytest.raises(DivisionByZero):
        QQ.zero.inverse()
    with pytest.raises(DivisionByZero):
        GF(7).scalar(0).inverse()
    with pytest.raises(DivisionByZero):
        QQ.one / QQ.zero


def test_scalar_takes_ints_and_fractions_only():
    """Text goes through parse, and a Scalar is already in its field."""
    for field in (QQ, GF(7)):
        for value in ("1", field.one):
            with pytest.raises(TypeError):
                field.scalar(value)


def test_exponents_past_the_bound_are_refused():
    """A decimal exponent up to 100,000 keeps Fraction's value; past it,
    parse raises ValueError before 10**exponent is built, while malformed
    literals keep Fraction's message."""
    assert QQ.parse("1e100000") == QQ.scalar(10 ** 100000)
    assert GF(7).parse("-2.5E-100_000") == GF(7).scalar(Fraction(-25, 10 ** 100001))
    for text in ("1e100001", "-.5E-100_001", "1.e999999999", "7e+999999999"):
        for field in (QQ, GF(7)):
            with pytest.raises(ValueError, match="exponent of .* is past ±100,000"):
                field.parse(text)
    for text in ("e999999999", "1/2e999999999", "1e 999999999", "1e999999999x"):
        with pytest.raises(ValueError, match=f"Invalid literal for Fraction: '{text}'"):
            QQ.parse(text)


def test_field_mismatch():
    for x, y in ((GF(5).one, GF(7).one), (GF(7).one, QQ.one)):
        for name in ("add", "sub", "mul", "truediv"):
            for method in (f"__{name}__", f"__r{name}__"):
                for left, right in ((x, y), (y, x)):
                    with pytest.raises(FieldMismatch):
                        getattr(left, method)(right)
    with pytest.raises(TypeError):
        GF(7).one + 0.5
    with pytest.raises(TypeError):
        0.5 * QQ.one


def test_fields_are_interned():
    assert PrimeField(7) is GF(7)
    assert Rationals() is QQ
    assert PrimeField(7).scalar(3) + GF(7).scalar(5) == GF(7).one
    assert Rationals().scalar(2) * QQ.scalar(Fraction(1, 2)) == QQ.one
    assert GF(7).one is GF(7).one
    for field in (GF(7), QQ):
        assert copy.deepcopy(field) is field
        assert pickle.loads(pickle.dumps(field)) is field


def test_scalar_never_equals_int():
    x = GF(7).scalar(3)
    assert x != 10 and x != 3
    assert len({x, 3}) == 2
    assert x + 7 == x


def test_each_field_has_its_own_scalar_class():
    g5, g7, g11 = GF(5), GF(7), GF(11)
    assert type(g7.one) is type(g7.scalar(5))
    assert type(g7.one) is not type(g11.one)
    assert g5.scalar(3) != g7.scalar(3)
    assert QQ.one != g7.one
    for a in range(7):
        x = g7.scalar(a)
        assert isinstance(x, Scalar)
        assert x.field is g7
        with pytest.raises(AttributeError):
            x.field = g11
    assert Scalar.__slots__ == ("value",)


def test_primality_bound():
    # A strong pseudoprime to the bases 2..37: witness 41 exposes it.
    with pytest.raises(ValueError, match="odd prime"):
        GF(318665857834031151167461)
    # One to the bases 2..41 (the bound itself), and a prime above the bound.
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            GF(n)
    assert GF(2**61 - 1).p == 2**61 - 1


def brute_sqrt_mod(field, a):
    roots = [r for r in range(field.p) if r * r % field.p == a % field.p]
    return roots


def test_sqrt_rational():
    assert QQ.scalar(Fraction(9, 4)).sqrt() == QQ.scalar(Fraction(3, 2))
    assert QQ.scalar(2).sqrt() is None
    assert QQ.scalar(-4).sqrt() is None
    assert QQ.zero.sqrt() == QQ.zero


def test_sqrt_gf7_matches_brute_force():
    g7 = GF(7)
    for a in range(7):
        roots = brute_sqrt_mod(g7, a)
        got = g7.scalar(a).sqrt()
        if roots:
            assert got is not None
            assert got.value in roots
            if a != 0:
                # Canonical choice: the even residue.
                assert got.value % 2 == 0
        else:
            assert got is None
    assert g7.scalar(2).sqrt() == g7.scalar(4)
    assert g7.scalar(3).sqrt() is None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 101, 97])
def test_sqrt_exhaustive_small_primes(p):
    field = GF(p)
    for a in range(p):
        root = field.scalar(a).sqrt()
        if root is not None:
            assert root * root == field.scalar(a)
        else:
            # Euler criterion for non-residues.
            assert pow(a, (p - 1) // 2, p) == p - 1


def test_tonelli_shanks_branch():
    # p = 13 and 17 are 1 mod 4, exercising the general algorithm.
    for p in (13, 17, 29):
        field = GF(p)
        for a in range(p):
            root = field.scalar(a).sqrt()
            assert (root is None) == (a not in {r * r % p for r in range(p)})
            if root is not None:
                assert root * root == field.scalar(a)


def test_field_axioms_random_triples():
    rng = Lcg64(42)
    for field in (QQ, GF(7), GF(101)):
        for _ in range(50):
            if field is QQ:
                a, b, c = (
                    field.scalar(Fraction(rng.below(17) - 8, rng.below(4) + 1))
                    for _ in range(3)
                )
            else:
                a, b, c = (field.scalar(rng.below(field.p)) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert a.inverse().inverse() == a
                assert a * a.inverse() == field.one


def test_characteristic_not_two():
    for field in (QQ, GF(3), GF(7), GF(101)):
        assert field.one + field.one != field.zero
    with pytest.raises(ValueError):
        GF(2)
    with pytest.raises(ValueError):
        GF(9)
    with pytest.raises(ValueError):
        GF(1)


def test_render_parse_round_trip():
    values = ["5/6", "-1/2", "3", "0", "-7"]
    for text in values:
        s = QQ.parse(text)
        assert QQ.parse(str(s)) == s
    g7 = GF(7)
    for a in range(7):
        s = g7.scalar(a)
        assert g7.parse(str(s)) == s
    assert str(QQ.scalar(Fraction(5, 6))) == "5/6"
    assert str(QQ.scalar(3)) == "3"
    assert str(g7.scalar(12)) == "5"


def test_scalar_hash_and_immutability():
    a = QQ.scalar(Fraction(1, 2))
    b = QQ.scalar(Fraction(2, 4))
    assert a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        a.value = Fraction(1)


# Zero, signs and multi-digit values, as ints, plain Fractions and _Rats.
_INTS = st.one_of(st.sampled_from((0, 1, -1, 2)), st.integers(-10 ** 30, 10 ** 30))
_FRACTIONS = st.builds(Fraction, _INTS, st.integers(1, 10 ** 20))
_RATS = _FRACTIONS.map(QQ._coerce)
_OPERATIONS = (operator.add, operator.sub, operator.mul, operator.truediv)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_RATS, st.one_of(_INTS, _FRACTIONS, _RATS))
def test_rat_arithmetic_is_fractions(a, b):
    """+ - * / with an int, Fraction or _Rat partner, on either side, and
    unary -, give Fraction's value as a _Rat; division by zero raises
    ZeroDivisionError as Fraction's does."""
    plain = Fraction(a)
    assert type(a) is _Rat and type(plain) is Fraction
    for op in _OPERATIONS:
        for left, right, want in ((a, b, lambda: op(plain, b)), (b, a, lambda: op(b, plain))):
            if op is operator.truediv and right == 0:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            got = op(left, right)
            assert got == want() and type(got) is _Rat, (op, left, right)
            assert got.denominator > 0 and str(got) == str(want())
    assert -a == -plain and type(-a) is _Rat
    # Other types keep Fraction's own operators.
    assert a + 0.5 == plain + 0.5 and type(a * 0.5) is float and 2j - a == 2j - plain


# Hash edges: -1 (whose hash is -2) and values around the hash modulus
# 2**61 - 1, as numerators and as denominators.
_EDGES = st.sampled_from((-1, 2 ** 61 - 2, 2 ** 61 - 1, 2 ** 61, -(2 ** 61 - 1), 3 * 2 ** 61 + 4))
_READ = st.builds(Fraction, st.one_of(_INTS, _EDGES),
                  st.one_of(st.just(1), _EDGES.filter(lambda d: d > 0), st.integers(1, 10 ** 20)))
_PARTNERS = st.one_of(_INTS, _EDGES, _FRACTIONS, _RATS, st.floats(), st.complex_numbers())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_READ.map(QQ._coerce), _PARTNERS)
@example(QQ._coerce(-1), -2.0)
@example(QQ._coerce(2 ** 61 - 1), 0)
@example(QQ._coerce(Fraction(-1, 2 ** 61 - 1)), Fraction(-1, 2 ** 61 - 1))
def test_rat_is_a_fraction_to_every_reader(a, other):
    """str, hash, ==, <, bool, pickling and copying give Fraction's results,
    so a _Rat reads exactly as the Fraction of its value; copies stay _Rats.
    == (both ways round) and hash are checked against int, Fraction, _Rat,
    float and complex partners, drawn and of a's own value."""
    plain = Fraction(a)
    assert str(a) == str(plain) and repr(a) == f"_Rat({a.numerator}, {a.denominator})"
    assert hash(a) == hash(plain) and a == plain and plain == a and {a} == {plain}
    twins = [other, plain, QQ._coerce(plain), float(a), complex(float(a)), complex(float(a), 1)]
    for b in twins + [int(a)] * (a.denominator == 1):
        assert (a == b, b == a, a != b) == (plain == b, b == plain, plain != b), b
        assert a != b or hash(a) == hash(b), b
    if not isinstance(other, complex):
        assert (a < other) == (plain < other) and (other < a) == (other < plain)
    assert bool(a) == bool(plain)
    assert (a.numerator, a.denominator) == (plain.numerator, plain.denominator)
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and type(twin) is _Rat


def test_rat_division_by_zero_and_its_slots():
    """Every division by a zero raises; a zero denominator in text is still
    DivisionByZero; Q's raw values are _Rats; and Fraction still keeps its
    value in the two slots _Rat writes, so a Python whose fractions module
    renames them fails here rather than in arithmetic."""
    a, zero = QQ._coerce(Fraction(3, 7)), QQ._coerce(0)
    for left, right in ((a, 0), (a, zero), (a, Fraction(0)), (1, zero), (Fraction(1), zero)):
        with pytest.raises(ZeroDivisionError):
            left / right
    with pytest.raises(DivisionByZero):
        QQ.parse("1/0")
    assert Fraction.__slots__ == ("_numerator", "_denominator") and _Rat.__slots__ == ()
    for value in (QQ.parse("-3/9").value, QQ.scalar(5).value, QQ.one.value, QQ.zero.value,
                  QQ.scalar(Fraction(4, 9)).sqrt().value, QQ.scalar(Fraction(-2, 3)).inverse().value):
        assert type(value) is _Rat
    assert QQ._coerce(a) is a
