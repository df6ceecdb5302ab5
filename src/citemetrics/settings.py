"""The settings a run takes from its flags: window policy and thresholds.

Each class is an immutable NamedTuple whose constructor checks every value
and holds the ratios as Fractions, so every comparison stays exact and the
integer kernels get a numerator and denominator to cross-multiply.  Its
defaults are the CLI's defaults.  The module is small and imports little,
so the CLI can build its parser without loading `curves` or `metrics`,
which re-export these classes.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError


class _Checked:
    """Base for a NamedTuple whose _check(*values) checks and converts them.

    Every construction path goes through _check: the constructor, _make,
    and _replace (which calls _make).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        given = super().__new__(cls, *args, **kwargs)  # the fields, their defaults filled in
        return tuple.__new__(cls, cls._check(*given))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _WindowFields(NamedTuple):
    window_ages: tuple[int, ...] = (1, 2)
    horizon: int = 20
    target_quantile: Fraction = Fraction(1, 2)


class WindowPolicy(_Checked, _WindowFields):
    """Which ages count toward the indicator, and how far coverage looks.

    window_ages: item ages whose citations feed the impact factor, held
    sorted and distinct.
    horizon: age through which "lifetime" citations are accumulated.
    target_quantile: the share of lifetime citations the scaled impact
    factor should represent (0.5 = half-life scaling).  It is at least the
    smallest normal float, so a scaling factor (never below it) does not
    print as 0.0.
    """

    __slots__ = ()

    @staticmethod
    def _check(window_ages, horizon, target_quantile):
        ages = tuple(sorted(set(window_ages)))
        if not ages:
            raise ConfigError("window_ages must be non-empty")
        if any(a < 0 for a in ages):
            raise ConfigError("window ages must be >= 0")
        if horizon < max(ages):
            raise ConfigError("horizon must cover every window age")
        q = Fraction(target_quantile)
        if not 0 < q <= 1:
            raise ConfigError("target_quantile must be in (0, 1]")
        if q < sys.float_info.min:
            raise ConfigError(f"target_quantile must be at least {sys.float_info.min!r}")
        return ages, horizon, q


class _AnomalyFields(NamedTuple):
    self_rate: Fraction = Fraction(1, 2)
    deviation_pp: Fraction = Fraction(25)


class AnomalyThresholds(_Checked, _AnomalyFields):
    """Detection thresholds: self-rate as a fraction, deviation in percentage points."""

    __slots__ = ()

    @staticmethod
    def _check(self_rate, deviation_pp):
        self_rate, deviation_pp = Fraction(self_rate), Fraction(deviation_pp)
        if not 0 < self_rate <= 1:
            raise ConfigError("self-rate threshold must be in (0, 1]")
        if deviation_pp <= 0:
            raise ConfigError("deviation threshold must be positive")
        return self_rate, deviation_pp


class _ClassificationFields(NamedTuple):
    hare: Fraction = Fraction(1, 4)
    tortoise: Fraction = Fraction(3, 20)


class ClassificationThresholds(_Checked, _ClassificationFields):
    """Coverage cutoffs separating fast-accruing from slow-accruing journals.

    Coverage lies in [0, 1], so the cutoffs must satisfy 0 <= tortoise < hare <= 1.
    """

    __slots__ = ()

    @staticmethod
    def _check(hare, tortoise):
        hare, tortoise = Fraction(hare), Fraction(tortoise)
        if hare <= tortoise:
            raise ConfigError("hare threshold must exceed tortoise threshold")
        if tortoise < 0 or hare > 1:
            raise ConfigError("hare and tortoise thresholds must lie in [0, 1]")
        return hare, tortoise
