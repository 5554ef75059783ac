"""Every kernel value is frozen through one base class, Frozen."""

import ast
import copy
import os
import pickle
import subprocess
import sys
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


def _raw_values(field):
    """A Point, InfPoint, Line and Conic of field whose raw tuples hold the
    same small numbers in every field."""
    line = Line.parse(field, "Y=2X+3")
    conic = Conic(*(field.scalar(c) for c in (1, 2, 3, 4, 5, 6)))
    return [Point(field.one, field.scalar(3)), line.infinite_point(), line, conic]


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
    same type, with an equal hash, although the slots refuse setattr."""
    quadratic_data(e1), hash(e1)  # the memo slots are copied too
    for value in _values(e1) + [GF(7).scalar(3)] + _raw_values(GF(7)):
        for clone in (
            copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))
        ):
            assert type(clone) is type(value)
            assert clone == value
            if not isinstance(value, Involution):
                assert hash(clone) == hash(value)


def test_raw_values_tell_fields_apart():
    """Points, lines and conics hold their field and a raw tuple, and two
    fields can share a raw tuple: equality still tells them apart."""
    by_field = {field: _raw_values(field) for field in (QQ, GF(7), GF(11))}
    for i in range(4):
        values = [by_field[field][i] for field in by_field]
        assert len({value.raw for value in values}) == 1
        for a in values:
            for b in values:
                assert (a == b) == (a.field is b.field) and (a != b) == (a.field is not b.field)
        assert len(set(values)) == 3


def test_set_order_does_not_depend_on_the_hash_seed():
    """A point or a line hashes by its raw tuple, never by its field's
    address or a string: sets of them iterate in the same order under
    PYTHONHASHSEED=0 and 1."""
    script = (
        "from bisectrix import GF, QQ, Line, Point\n"
        "from bisectrix.oracle import enumerate_lines\n"
        "lines = set(enumerate_lines(GF(5))) | {Line.parse(QQ, 'Y=1/2X-3'), Line.parse(QQ, 'X=7')}\n"
        "points = {Point(f.scalar(x), f.scalar(y)) for f in (QQ, GF(5)) "
        "for x in range(-3, 4) for y in range(3)}\n"
        "print([str(l) for l in lines])\n"
        "print([str(p) for p in points])\n"
    )
    src = Path(bisectrix.__file__).resolve().parents[1]
    printed = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            timeout=120, env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("0", "1")
    ]
    assert printed[0].count("\n") == 2 and printed[0] == printed[1]


def test_quadratic_data_memo_keeps_equality_and_hash(e1, e2, improper):
    for q in (e1, e2, improper):
        before = hash(q)
        result = quadratic_data(q)
        assert quadratic_data(q) is result
        assert result == quadratic_data(Quadrilateral(*q.sides))
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
# Points, lines and conics hold their field and a raw tuple.
_IDENTITY = {
    Point: ("field", "raw"),
    InfPoint: ("field", "raw"),
    Line: ("field", "raw"),
    LinePair: ("a", "b"),
    AffineMap: ("m00", "m01", "m10", "m11", "b0", "b1"),
    Conic: ("field", "raw"),
    Quadrangle: ("points",),
    Quadrilateral: ("a", "b", "a2", "b2"),
}


def test_identity_slots_decide_equality(e1):
    """Changing one identity slot makes a value unequal; changing any other
    slot (derived data, the quadratic_data memo) keeps it equal, hash too.
    Quadrilateral's hash memo (_hash) is the one slot that hash returns, so
    it is cleared rather than replaced: the hash is then recomputed, and is
    the same."""
    values = [v for v in _values(e1) if type(v) in _IDENTITY]
    assert {type(v) for v in values} == set(_IDENTITY)
    hash(e1)  # writes the memo that the cleared copy recomputes
    for value in values:
        state = [getattr(value, name) for name in value.__slots__]
        for i, name in enumerate(value.__slots__):
            other = None if name == "_hash" else object()
            changed = _thaw(type(value), state[:i] + [other] + state[i + 1:])
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
    type's identity is not slot equality or its first slot holds no field,
    in _Rat, whose fast paths return Fraction's results, and in
    Quadrilateral, whose hash is Frozen's memoised in a slot."""
    assert _defined_in_classes({"__setattr__", "__delattr__"}) == {
        "Frozen": {"__setattr__", "__delattr__"}
    }
    assert _defined_in_classes({"__eq__", "__hash__"}) == {
        "Frozen": {"__eq__", "__hash__"},
        "Scalar": {"__eq__", "__hash__"},
        "Involution": {"__eq__"},
        "_Rat": {"__eq__", "__hash__"},
        "Quadrilateral": {"__hash__"},
    }
    assert _defined_in_classes({"field"}) == {
        "Frozen": {"field"}, "Quadrangle": {"field"}, "QuadraticData": {"field"}
    }
