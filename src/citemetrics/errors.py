"""Exception types shared across the package."""
from __future__ import annotations


class CitemetricsError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(CitemetricsError):
    """A malformed input file; carries the 1-based line number."""

    def __init__(self, line: int, reason: str, source: str | None = None):
        self.line = line
        self.reason = reason
        self.source = source
        super().__init__(str(self))

    def __str__(self) -> str:
        where = f"{self.source}:{self.line}" if self.source else f"line {self.line}"
        return f"{where}: {self.reason}"


class ConfigError(CitemetricsError):
    """An invalid policy, threshold, or command-line configuration."""


class MissingDenominatorError(CitemetricsError):
    """Citeable-item counts absent for a (journal, year) the indicator needs."""

    def __init__(self, journal: str, years: tuple[int, ...]):
        self.journal = journal
        self.years = years
        super().__init__(
            f"no citeable-item counts for {journal!r} in year(s) "
            + ", ".join(str(y) for y in years)
        )


class UndefinedRateError(CitemetricsError):
    """Self-reference rate requested over cells with zero total citations."""


class DegenerateVolumeError(CitemetricsError):
    """A volume too young to reach age 2, or uncited through it, cannot be standardized."""

    def __init__(self, journal: str, pub_year: int,
                 reason: str = "has no citations through age 2"):
        self.journal = journal
        self.pub_year = pub_year
        self.reason = reason
        super().__init__(f"{journal!r} volume {pub_year} {reason}")


class ZeroWindowError(CitemetricsError):
    """No citations at all over the coverage horizon; coverage is undefined."""


class OracleError(CitemetricsError):
    """The synthetic-profile oracle refuses a spec outside its closed form."""
