"""The settings a run takes from its flags: window policy and thresholds.

Each class is an immutable NamedTuple whose constructor checks every value
and holds the ratios as Fractions, so every comparison stays exact and the
integer kernels get a numerator and denominator to cross-multiply.  The
`checked` decorator, which `synth.SynthSpec` also uses, sends every way of
building one through its _check.  Its defaults are the CLI's defaults.  The
module is small and imports little, so the CLI can build its parser without
loading `curves` or `metrics`, which re-export these classes.
"""
from __future__ import annotations

import operator
import sys
from fractions import Fraction
from typing import NamedTuple

from .errors import ConfigError


def checked(cls):
    """Send every construction of the NamedTuple class cls through
    cls._check(record), which returns the checked values: the constructor,
    _make, and _replace (which calls _make)."""
    fill = cls.__new__  # the fields, their defaults filled in

    def __new__(cls, *args, **kwargs):
        return tuple.__new__(cls, cls._check(fill(cls, *args, **kwargs)))

    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: cls(*iterable))
    return cls


@checked
class WindowPolicy(NamedTuple):
    """Which ages count toward the indicator, and how far coverage looks.

    window_ages: item ages whose citations feed the impact factor, held
    sorted and distinct.
    horizon: age through which "lifetime" citations are accumulated.
    target_quantile: the share of lifetime citations the scaled impact
    factor should represent (0.5 = half-life scaling).  It is at least the
    smallest normal float, so a scaling factor (never below it) does not
    print as 0.0.
    """

    window_ages: tuple[int, ...] = (1, 2)
    horizon: int = 20
    target_quantile: Fraction = Fraction(1, 2)

    def _check(self):
        try:
            ages = tuple(sorted({operator.index(age) for age in self.window_ages}))
            horizon = operator.index(self.horizon)
        except TypeError:
            raise ConfigError("window ages and horizon must be integers") from None
        if not ages:
            raise ConfigError("window_ages must be non-empty")
        if any(a < 0 for a in ages):
            raise ConfigError("window ages must be >= 0")
        if horizon < max(ages):
            raise ConfigError("horizon must cover every window age")
        q = Fraction(self.target_quantile)
        if not 0 < q <= 1:
            raise ConfigError("target_quantile must be in (0, 1]")
        if q < sys.float_info.min:
            raise ConfigError(f"target_quantile must be at least {sys.float_info.min!r}")
        return ages, horizon, q


@checked
class AnomalyThresholds(NamedTuple):
    """Detection thresholds: self-rate as a fraction, deviation in percentage points."""

    self_rate: Fraction = Fraction(1, 2)
    deviation_pp: Fraction = Fraction(25)

    def _check(self):
        self_rate, deviation_pp = map(Fraction, self)
        if not 0 < self_rate <= 1:
            raise ConfigError("self-rate threshold must be in (0, 1]")
        if deviation_pp <= 0:
            raise ConfigError("deviation threshold must be positive")
        return self_rate, deviation_pp


@checked
class ClassificationThresholds(NamedTuple):
    """Coverage cutoffs separating fast-accruing from slow-accruing journals.

    Coverage lies in [0, 1], so the cutoffs must satisfy 0 <= tortoise < hare <= 1.
    """

    hare: Fraction = Fraction(1, 4)
    tortoise: Fraction = Fraction(3, 20)

    def _check(self):
        hare, tortoise = map(Fraction, self)
        if hare <= tortoise:
            raise ConfigError("hare threshold must exceed tortoise threshold")
        if tortoise < 0 or hare > 1:
            raise ConfigError("hare and tortoise thresholds must lie in [0, 1]")
        return hare, tortoise
