"""The records of ledger, curves, metrics and synth, and the settings classes,
are NamedTuples: immutable, compared and hashed by field, and the settings and
SynthSpec check every value on every construction path."""
from __future__ import annotations

from fractions import Fraction

import pytest

from citemetrics.curves import AccrualCurve, AnomalyFinding
from citemetrics.errors import ConfigError
from citemetrics.ledger import AliasMap, CellCount, CitationProfile, PublicationCounts
from citemetrics.metrics import IndicatorReport
from citemetrics.settings import AnomalyThresholds, ClassificationThresholds, WindowPolicy
from citemetrics.synth import RiseDecay, SpecValueError, Spike, SynthSpec, fixture_spec

# Each record class, built from fresh arguments on every call.
RECORDS = {
    "CitationProfile": lambda: CitationProfile("J", {(2000, 2001): CellCount(3, 1)}),
    "AliasMap": lambda: AliasMap({"old": "New"}),
    "PublicationCounts": lambda: PublicationCounts({("j", 2000): 5}, {"j": "J"}),
    "AccrualCurve": lambda: AccrualCurve("J", 2000, "raw", (1, 2, 3)),
    "AnomalyFinding": lambda: AnomalyFinding("J", 2000, 1, Fraction(-5, 2), "AccrualDeviation"),
    "IndicatorReport": lambda: IndicatorReport(
        "J", 2004, Fraction(3, 2), None, Fraction(7, 2), ">10", Fraction(1, 3),
        Fraction(3, 2), Fraction(9, 4), frozenset({"HalfLifeUnreliable"})),
    "WindowPolicy": lambda: WindowPolicy((2, 1), 10, Fraction(1, 4)),
    "AnomalyThresholds": lambda: AnomalyThresholds(Fraction(1, 3), 10),
    "ClassificationThresholds": lambda: ClassificationThresholds(Fraction(1, 2), Fraction(1, 5)),
    "RiseDecay": lambda: RiseDecay(1, Fraction(1), Fraction(18, 25), 21),
    "Spike": lambda: Spike(1993, 0, 38),
    "SynthSpec": lambda: fixture_spec("hare"),
}
records = pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())


@records
def test_record_is_immutable(make):
    record = make()
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert record == make()


@records
def test_record_compares_and_hashes_by_field(make):
    first, second = make(), make()
    assert first is not second and first == second
    assert first == tuple(second)
    try:
        hash(tuple(first))
    except TypeError:  # a dict-valued field
        return
    assert hash(first) == hash(second)


@records
def test_record_repr_names_class_and_fields(make):
    record = make()
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, record))
    assert repr(record) == f"{type(record).__name__}({fields})"


def test_default_mappings_are_empty_and_read_only():
    for mapping in (CitationProfile("J").cells, AliasMap().entries,
                    PublicationCounts().entries, PublicationCounts().journals):
        assert mapping == {}
        with pytest.raises(TypeError):
            mapping["k"] = 1
    assert CitationProfile("J").total_citations() == 0
    assert AliasMap().resolve(" J ") == "J"
    assert PublicationCounts().get("J", 2000) is None


# (class, changed fields, the error message) for each invalid setting.
INVALID = [
    (WindowPolicy, {"window_ages": ()}, "window_ages must be non-empty"),
    (WindowPolicy, {"window_ages": (-1, 2)}, "window ages must be >= 0"),
    (WindowPolicy, {"horizon": 1}, "horizon must cover every window age"),
    (WindowPolicy, {"window_ages": (30,)}, "horizon must cover every window age"),
    (WindowPolicy, {"target_quantile": 0}, r"target_quantile must be in \(0, 1\]"),
    (WindowPolicy, {"target_quantile": Fraction(3, 2)}, r"target_quantile must be in \(0, 1\]"),
    (WindowPolicy, {"target_quantile": Fraction(1, 2**1030)}, "target_quantile must be at least"),
    (AnomalyThresholds, {"self_rate": 0}, r"self-rate threshold must be in \(0, 1\]"),
    (AnomalyThresholds, {"self_rate": 1.5}, r"self-rate threshold must be in \(0, 1\]"),
    (AnomalyThresholds, {"deviation_pp": 0}, "deviation threshold must be positive"),
    (AnomalyThresholds, {"deviation_pp": -1}, "deviation threshold must be positive"),
    (ClassificationThresholds, {"hare": Fraction(3, 20)}, "hare threshold must exceed tortoise"),
    (ClassificationThresholds, {"tortoise": 0.5}, "hare threshold must exceed tortoise"),
    (ClassificationThresholds, {"tortoise": -0.1}, r"must lie in \[0, 1\]"),
    (ClassificationThresholds, {"hare": 2}, r"must lie in \[0, 1\]"),
    (WindowPolicy, {"window_ages": (1.5,)}, "window ages and horizon must be integers"),
    (WindowPolicy, {"horizon": 20.5}, "window ages and horizon must be integers"),
]


@pytest.mark.parametrize("cls, changes, message", INVALID)
def test_settings_reject_invalid_values_on_every_path(cls, changes, message):
    values = {**cls()._asdict(), **changes}
    for build in (lambda: cls(**changes), lambda: cls(*values.values()),
                  lambda: cls()._replace(**changes), lambda: cls._make(values.values())):
        with pytest.raises(ConfigError, match=message):
            build()


def test_synth_spec_rejects_invalid_values_on_every_path():
    hare = fixture_spec("hare")
    values = {**hare._asdict(), "items_per_year": 0}
    for build in (lambda: SynthSpec(**values), lambda: hare._replace(items_per_year=0),
                  lambda: SynthSpec._make(values.values())):
        with pytest.raises(SpecValueError, match="items_per_year must be >= 1") as err:
            build()
        assert err.value.key == "items_per_year"


def test_settings_convert_values_on_every_path():
    """Window ages are held sorted and distinct, and ratios as Fractions,
    however the settings were built."""
    policy = WindowPolicy()
    for built in (WindowPolicy((3, 1, 3), 20, 0.25), policy._replace(window_ages=(3, 1, 3),
                  target_quantile=0.25), WindowPolicy._make([[3, 1, 3], 20, 0.25])):
        assert built == ((1, 3), 20, Fraction(1, 4))
        assert type(built.target_quantile) is Fraction
    for built in (AnomalyThresholds(0.25, 10), AnomalyThresholds()._replace(self_rate=0.25,
                  deviation_pp=10), ClassificationThresholds(0.5, 0)):
        assert all(type(value) is Fraction for value in built)
    assert policy == WindowPolicy((1, 2), 20, Fraction(1, 2))
    assert AnomalyThresholds() == (Fraction(1, 2), Fraction(25))
    assert ClassificationThresholds() == (Fraction(1, 4), Fraction(3, 20))
