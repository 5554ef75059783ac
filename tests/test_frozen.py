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
    InfPoint,
    Line,
    LinePair,
    Point,
    QQ,
    Quadrilateral,
    bisector_locus,
    lambda_q,
    quadratic_data,
    standard_form,
)
from bisectrix.field import Frozen


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


def test_only_frozen_defines_setattr_or_delattr():
    """No class of the package but Frozen overrides attribute writes."""
    found = {}
    for path in sorted(Path(bisectrix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and item.name in (
                        "__setattr__", "__delattr__"
                    ):
                        found.setdefault(node.name, set()).add(item.name)
    assert found == {"Frozen": {"__setattr__", "__delattr__"}}
