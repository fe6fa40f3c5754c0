"""The contract of the library's record types (``Permutation``,
``CycleForm``, ``PermPair``, ``Hypermap``, ``RootedMap``,
``LabeledDyckPath``, and the oracle's ``DistributionTable``,
``CheckResult`` and ``VerifyReport``), as the dataclasses they replace
kept it, for each module's tests to run on its own records."""

from __future__ import annotations

import copy
import pickle

import pytest


def check_record(rec, text: str, frozen: bool = True) -> None:
    """``rec`` prints as ``text``, builds again from its fields by
    keyword, equals and hashes like that twin, survives pickle and
    ``copy.deepcopy``, and rejects assigning and deleting a field; a
    record that is not ``frozen`` takes new field values instead, and has
    no hash."""
    cls = type(rec)
    fields = {name: getattr(rec, name) for name in cls.__match_args__}
    assert repr(rec) == text
    twin = cls(**fields)
    assert twin == rec and not twin != rec and twin is not rec
    for again in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(again) is cls and again == rec and repr(again) == text
    name = cls.__match_args__[0]
    if frozen:
        assert hash(twin) == hash(rec)
        with pytest.raises(AttributeError):
            setattr(rec, name, fields[name])
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.no_such_field = 1
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(twin, name, None)
        assert getattr(twin, name) is None and twin != rec
    assert getattr(rec, name) is fields[name]


def check_distinct_classes(*recs) -> None:
    """Records of different classes with equal fields are unequal."""
    for a in recs:
        for b in recs:
            assert (a == b) == (a is b) and (a != b) == (a is not b)
