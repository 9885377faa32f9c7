"""The result records behave as the frozen dataclasses they replace."""

import copy
import pickle

import pytest

from kmoments import DualCodeword, MomentSequence, WeightDistribution

FIELDS = [
    (DualCodeword, {"code": 3, "a": 1, "bits": (0, 1, 1, 0)}),
    (WeightDistribution, {"code": 4, "length": 2, "counts": (1, 0, 1)}),
    (MomentSequence, {"h_max": 2, "mk": (3, 1, 11)}),
]


@pytest.mark.parametrize("cls, fields", FIELDS, ids=[c.__name__ for c, _ in FIELDS])
def test_record_fields_equality_and_read_only(cls, fields):
    rec = cls(**fields)
    assert tuple(cls.__slots__) == tuple(fields)
    assert {name: getattr(rec, name) for name in fields} == fields
    assert cls(*fields.values()) == rec == copy.copy(rec)
    first = next(iter(fields))
    assert rec != cls(**{**fields, first: -1})
    assert repr(rec) == f"{cls.__name__}(" + ", ".join(
        f"{k}={v!r}" for k, v in fields.items()
    ) + ")"
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(TypeError):
        cls(**{**fields, "extra": 0})
    with pytest.raises(TypeError):
        cls(*fields.values(), **{first: 0})
    with pytest.raises(TypeError):
        cls(*list(fields.values())[:-1])
    assert hash(rec) == hash(cls(**fields))
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_record_getitem_reads_the_data_field():
    assert WeightDistribution(4, 2, (1, 0, 1))[2] == 1
    assert MomentSequence(2, (3, 1, 11))[2] == 11
