"""The value classes' contract and the start-up imports.

The eight value classes (five family objects, FamilyBound, SeriesRing and
TruncatedSeries) keep the behaviour of the frozen dataclasses they replace:
the same reprs, which reach stderr inside error messages; equality only
within one class; the hash of the field tuple, so set and dict order is
unchanged; and no assignment or deletion of a field.
"""

from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from stanlab import enumeration
from stanlab.enumeration import FamilyBound, iter_raw
from stanlab.errors import CapExceeded, VariableMismatch
from stanlab.objects import (
    CoinFountain,
    DyckPath,
    MotzkinPath,
    ParallelogramPolyomino,
    StanleyPolyomino,
)
from stanlab.series import SeriesRing, TruncatedSeries, lift

SRC = Path(__file__).resolve().parents[1] / "src"

RING = SeriesRing(("x", "y", "w"), "x", 4, laurent=("y",), caps={"w": 2})
RING_REPR = ("SeriesRing(names=('x', 'y', 'w'), grade='x', order=4, "
             "laurent=frozenset({'y'}), caps=(('w', 2),))")
SMALL = SeriesRing(("x",), "x", 2)
SMALL_REPR = ("SeriesRing(names=('x',), grade='x', order=2, "
              "laurent=frozenset(), caps=())")

# (value, its field tuple, its repr as the dataclasses printed it)
VALUES = [
    (StanleyPolyomino(((0, 2), (1, 3))), (((0, 2), (1, 3)),),
     "StanleyPolyomino(rows=((0, 2), (1, 3)))"),
    (DyckPath("UD"), ("UD",), "DyckPath(word='UD')"),
    (MotzkinPath("UFD"), ("UFD",), "MotzkinPath(word='UFD')"),
    (CoinFountain((2, 1)), ((2, 1),), "CoinFountain(diagonals=(2, 1))"),
    (ParallelogramPolyomino(((0, 1),)), (((0, 1),),),
     "ParallelogramPolyomino(columns=((0, 1),))"),
    (FamilyBound("stanley", "columns", 3), ("stanley", "columns", 3),
     "FamilyBound(family='stanley', measure='columns', value=3)"),
    (RING, (("x", "y", "w"), "x", 4, frozenset({"y"}), (("w", 2),)),
     RING_REPR),
    (SMALL.var("x"), (SMALL, {4294967297: 1}),
     f"TruncatedSeries(ring={SMALL_REPR}, packed={{4294967297: 1}})"),
]
IDS = [type(x).__name__ for x, _, _ in VALUES]


def test_cli_import_loads_no_dataclasses_inspect_or_fractions():
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    code = ("import json, sys, stanlab.cli; print(json.dumps([m for m in "
            "('dataclasses', 'inspect', 'fractions') if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          check=True, env={**os.environ, "PYTHONPATH": path})
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("x, fields, text", VALUES, ids=IDS)
class TestValueContract:
    def test_repr_is_the_dataclass_repr(self, x, fields, text):
        assert repr(x) == text

    def test_equal_to_a_rebuilt_value_and_never_to_its_field_tuple(
            self, x, fields, text):
        assert x == type(x)(*fields)
        assert not x != type(x)(*fields)
        assert x != fields and fields != x
        assert x != (type(x).__name__, *fields)

    def test_hash_is_the_field_tuple_hash(self, x, fields, text):
        if isinstance(x, TruncatedSeries):
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(fields)

    def test_fields_cannot_be_assigned_or_deleted(self, x, fields, text):
        for name, value in zip(type(x).__match_args__, fields):
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) == value
        with pytest.raises(AttributeError):
            x.extra = 1

    def test_copy_and_pickle_rebuild_an_equal_value(self, x, fields, text):
        assert copy.copy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x


def test_equality_is_type_strict():
    assert DyckPath("UD") != MotzkinPath("UD")
    assert MotzkinPath("UD") != DyckPath("UD")
    assert len({DyckPath("UD"), MotzkinPath("UD")}) == 2
    assert StanleyPolyomino(((0, 2),)) != ParallelogramPolyomino(((0, 2),))


def test_ring_positional_and_keyword_forms_agree():
    forms = [
        SeriesRing(("x", "y", "w"), "x", 4, ("y",), {"w": 2}),
        SeriesRing(("x", "y", "w"), "x", 4, frozenset({"y"}), (("w", 2),)),
        SeriesRing(names=["x", "y", "w"], grade="x", order=4,
                   laurent=["y"], caps={"w": 2}),
    ]
    assert all(r == RING and vars(r) == vars(RING) for r in forms)
    assert SeriesRing(("x",), "x", 2) == SMALL
    assert SeriesRing(("x",), grade="x", order=2).laurent == frozenset()


@pytest.mark.parametrize("order", [0, 1, 4, 9])
def test_ring_at_order_equals_the_ring_built_at_that_order(order):
    fresh = SeriesRing(("x", "y", "w"), "x", order, laurent=("y",),
                       caps={"w": 2})
    assert RING.at_order(order) == fresh
    assert vars(RING.at_order(order)) == vars(fresh)  # the packing too
    assert SMALL.at_order(order) == SeriesRing(("x",), "x", order)


def test_lift_names_both_rings_when_refused():
    with pytest.raises(VariableMismatch) as info:
        lift(RING.one(), SMALL)
    assert str(info.value) == (f"cannot lift a series of {RING_REPR} "
                               f"into {SMALL_REPR}")
    assert lift(SMALL.var("x"), SMALL.at_order(5)).ring == SMALL.at_order(5)
    with pytest.raises(VariableMismatch):
        lift(SMALL.var("x"), SMALL.at_order(1))


def test_cap_message_names_the_bound(monkeypatch):
    monkeypatch.setattr(enumeration, "DEFAULT_CAP", 1)
    with pytest.raises(CapExceeded) as info:
        list(iter_raw(FamilyBound("stanley", "columns", 3)))
    assert str(info.value) == ("FamilyBound(family='stanley', "
                               "measure='columns', value=3) exceeded cap of "
                               "1 objects")
