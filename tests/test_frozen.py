"""Every kernel value is frozen through one base class, Frozen."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import bisectrix
from bisectrix import (
    GF,
    AffineMap,
    Conic,
    InfPoint,
    Involution,
    Line,
    LinePair,
    Point,
    QQ,
    Quadrangle,
    Quadrilateral,
    bisector_locus,
    lambda_q,
    quadratic_data,
    standard_form,
)
from bisectrix.field import Frozen, _thaw


def _values(q):
    """One instance of each of the ten value types."""
    a, b = Line.parse(QQ, "Y=X+1"), Line.parse(QQ, "X=2")
    return [
        QQ.scalar(3),
        Point(QQ.one, QQ.zero),
        InfPoint(QQ.one, QQ.scalar(2)),
        a,
        LinePair(a, b),
        AffineMap.identity(QQ),
        lambda_q(quadratic_data(q)),
        bisector_locus(q).conic,
        q.quadrangle(),
        q,
    ]


def _slots(obj):
    return [name for cls in type(obj).__mro__ for name in getattr(cls, "__slots__", ())]


def test_values_reject_assignment_and_deletion(e1):
    values = _values(e1)
    assert len({type(v) for v in values}) == 10
    for value in values:
        assert isinstance(value, Frozen)
        slots = _slots(value)
        assert slots, type(value)
        for name in slots + ["extra"]:
            before = getattr(value, name, None)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name, None) is before
    with pytest.raises(AttributeError):
        e1.a = Line.parse(QQ, "Y=5")


def test_values_copy_and_pickle(e1):
    """copy, deepcopy and a pickle round trip rebuild an equal value of the
    same type, although the slots refuse setattr."""
    standard_form(e1)  # the memo slot is copied too
    for value in _values(e1) + [GF(7).scalar(3)]:
        for clone in (
            copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
        ):
            assert type(clone) is type(value)
            assert clone == value


def test_standard_form_memo_keeps_equality_and_hash(e1, e2, improper):
    for q in (e1, e2, improper):
        before = hash(q)
        result = standard_form(q)
        assert standard_form(q) is result
        assert q == Quadrilateral(*q.sides)
        assert hash(q) == before == hash(Quadrilateral(*q.sides))


def test_rebuilt_values_compare_and_hash_equal(e1):
    """A value rebuilt from the same constructor inputs is equal and hashes
    equal; an involution compares up to scale and refuses to hash."""
    rebuilt = Quadrilateral(*(Line.parse(QQ, str(side)) for side in e1.sides))
    for first, second in zip(_values(e1), _values(rebuilt)):
        assert first is not second
        assert first == second and not first != second
        if isinstance(first, Involution):
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second)


# The identity slots of the eight types whose equality is slot equality.
_IDENTITY = {
    Point: ("x", "y"),
    InfPoint: ("x", "y"),
    Line: ("t", "u", "v"),
    LinePair: ("a", "b"),
    AffineMap: ("m00", "m01", "m10", "m11", "b0", "b1"),
    Conic: ("a", "b", "c", "d", "e", "f"),
    Quadrangle: ("points",),
    Quadrilateral: ("a", "b", "a2", "b2"),
}


def test_identity_slots_decide_equality(e1):
    """Changing one identity slot makes a value unequal; changing any other
    slot (derived data, the standard_form memo) keeps it equal, hash too."""
    standard_form(e1)
    values = [v for v in _values(e1) if type(v) in _IDENTITY]
    assert {type(v) for v in values} == set(_IDENTITY)
    for value in values:
        state = [getattr(value, name) for name in value.__slots__]
        for i, name in enumerate(value.__slots__):
            changed = _thaw(type(value), state[:i] + [object()] + state[i + 1:])
            if name in _IDENTITY[type(value)]:
                assert changed != value, (type(value), name)
            else:
                assert changed == value and hash(changed) == hash(value), name
    one, two = QQ.one, QQ.scalar(2)
    assert Point(one, two) != InfPoint(one, two)
    assert InfPoint(one, two) != Point(one, two)


def _defined_in_classes(names):
    """Map each class of the package that defines one of names to those it defines."""
    found = {}
    for path in sorted(Path(bisectrix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in names:
                        found.setdefault(node.name, set()).add(item.name)
    return found


def test_only_frozen_defines_setattr_or_delattr():
    """No class of the package but Frozen overrides attribute writes, and
    equality, hashing and the field accessor are Frozen's except where a
    type's identity is not slot equality or its first slot holds no field."""
    assert _defined_in_classes({"__setattr__", "__delattr__"}) == {
        "Frozen": {"__setattr__", "__delattr__"}
    }
    assert _defined_in_classes({"__eq__", "__hash__"}) == {
        "Frozen": {"__eq__", "__hash__"},
        "Scalar": {"__eq__", "__hash__"},
        "Involution": {"__eq__", "__hash__"},
    }
    assert _defined_in_classes({"field"}) == {
        "Frozen": {"field"}, "Quadrangle": {"field"}, "QuadraticData": {"field"}
    }
