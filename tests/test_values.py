"""Every public value class behaves as a frozen dataclass does.

A value equals only a value of its own class with equal fields (never a
tuple), hashes as its fields do, refuses assignment and deletion, takes
its fields by position or by name (a missing, unknown or surplus argument
is a TypeError), and runs ``__post_init__`` on every construction,
``replace`` included.
"""

from __future__ import annotations

import pytest

import abrenergy
from abrenergy import (
    BatteryConfig,
    ChannelTrace,
    Combination,
    FitResult,
    MeasurementRecord,
    ModelParams,
    QualityMap,
    RelativePoint,
    adaptive_mode,
    compare,
    run_session,
    select,
)
from abrenergy._frozen import _refuse_assignment, frozen
from frozen_helpers import replace


def samples(ladder) -> dict[str, object]:
    """One value of each public value class, by class name."""
    trace = ChannelTrace(6.0, (1e6, 4e6, 22e6))
    params = ModelParams(1.154, 0.677)
    battery = BatteryConfig(10.0, 300.0)
    quality = QualityMap(vmaf={rep.name: 10.0 * i for i, rep in enumerate(ladder)})
    report = run_session(ladder, trace, adaptive_mode(), params, battery=battery, quality=quality)
    table = compare(report, [report])
    combination = Combination("phone", "WIFI", "HEVC")
    values = [
        ladder, ladder[0], adaptive_mode(), adaptive_mode().adaptive, select(ladder, 3e6, 2.0),
        params, trace, battery, quality, report, report.context, report.segments,
        report.per_segment[0], table, table.rows[0], combination,
        MeasurementRecord("phone", "WIFI", "HEVC", "240p", 65e4, 2e6, 200.0),
        RelativePoint(2.5, 1.1, combination), FitResult(params, 0.9, 0.8, 0.7, 12, 1),
    ]  # fmt: skip
    return {type(value).__name__: value for value in values}


PUBLIC_VALUE_CLASSES = sorted(
    name for name in abrenergy._MODULE_OF
    if getattr(getattr(abrenergy, name), "__setattr__", None) is _refuse_assignment
)  # fmt: skip


def test_every_public_value_class_has_a_sample(ladder):
    assert sorted(samples(ladder)) == PUBLIC_VALUE_CLASSES


@pytest.mark.parametrize("name", PUBLIC_VALUE_CLASSES)
def test_value_class_behaves_as_a_frozen_dataclass(ladder, monkeypatch, name):
    value = samples(ladder)[name]
    cls = type(value)
    fields = tuple(getattr(value, field) for field in cls._fields)
    assert value != fields and fields != value
    rebuilt = cls(*fields)
    assert rebuilt == value and not rebuilt != value
    assert cls(**dict(zip(cls._fields, fields))) == value
    assert repr(rebuilt) == repr(value)
    try:
        hash(fields)
    except TypeError:  # a list or a dict among the fields
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(rebuilt)

    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert tuple(getattr(value, field) for field in cls._fields) == fields

    with pytest.raises(TypeError):
        cls(*fields, None)
    with pytest.raises(TypeError):
        cls(*fields, no_such_field=None)
    with pytest.raises(TypeError):
        cls(*fields, **{cls._fields[0]: fields[0]})
    if any(field not in vars(cls) for field in cls._fields):  # a field without a default
        with pytest.raises(TypeError):
            cls()

    checked = []
    post_init = vars(cls).get("__post_init__")

    def check(self) -> None:
        checked.append(self)
        if post_init is not None:
            post_init(self)

    monkeypatch.setattr(cls, "__post_init__", check, raising=False)
    copy = replace(value)
    assert checked == [copy] and copy == value and copy is not value


def test_values_of_two_classes_with_equal_fields_differ():
    @frozen
    class Pair:
        left: int
        right: int = 2

    @frozen
    class Other:
        left: int
        right: int = 2

    assert Pair(1) == Pair(left=1, right=2) and Pair(1) != Other(1)
    assert Pair(1).__eq__(Other(1)) is NotImplemented
    assert replace(Pair(1), right=3) == Pair(1, 3)
    with pytest.raises(TypeError, match="missing required argument 'left'"):
        Pair()
    with pytest.raises(TypeError, match="multiple values for argument 'left'"):
        Pair(1, left=1)
    with pytest.raises(TypeError, match="unexpected keyword argument 'middle'"):
        Pair(1, middle=3)
    with pytest.raises(TypeError, match="takes 2 arguments, got 3 by position"):
        Pair(1, 2, 3)


def test_replace_checks_the_new_value():
    assert replace(ModelParams(1.0, 0.5), c=0.0) == ModelParams(1.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="^a must be non-negative, got -1.0$"):
        replace(ModelParams(1.0, 0.5), a=-1.0)
