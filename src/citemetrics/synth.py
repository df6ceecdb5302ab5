"""Deterministic synthetic citation ledgers with closed-form expected metrics.

A SynthSpec describes a journal as an accrual kernel (per-age citation
weights), per-volume size multipliers, optional self-citation fractions and
one-off spikes.  generate_profile expands that into the same CitationProfile
the ledger module would build from a CSV, and expected_metrics computes
coverage / half-life / scaling straight from the kernel weights, bypassing
the analysis pipeline entirely.  Together they give an independent oracle:
the pipeline must reproduce the closed forms, exactly so for integer-valued
specs.

Generation is deterministic on purpose.  Expected values rather than draws
make agreement testable to the digit, and rounding (half away from zero,
per cell) is the only lossy step.
"""
from __future__ import annotations

from fractions import Fraction
from importlib import resources
from typing import Iterable, Mapping, NamedTuple

from .errors import OracleError, ParseError
from .fixtures import FIXTURE_NAMES
from .ledger import (
    _EMPTY, EXTERNAL_SOURCE, YEAR_MAX, YEAR_MIN, CellCount, CitationProfile, PublicationCounts,
    check_utf8, journal_identity,
)
from .metrics import WindowPolicy, half_away_units
from .settings import checked


class RiseDecay(NamedTuple):
    """Weight 1 at peak_age, rise**(peak-age) before it, decay**(age-peak) after.

    rise in (0, 1] makes early ages climb toward the peak; decay in (0, 1]
    tails off after it.  A peak at the last age with rise < 1 gives a
    slowly growing curve, the slow-accrual shape; a peak at age 0 gives the
    spec keywords' shapes, flat (decay 1) and geometric (decay = rate).
    """

    peak_age: int
    rise: Fraction
    decay: Fraction
    length: int

    def weights(self) -> tuple[Fraction, ...]:
        out = []
        for a in range(self.length):
            if a <= self.peak_age:
                out.append(self.rise ** (self.peak_age - a))
            else:
                out.append(self.decay ** (a - self.peak_age))
        return tuple(out)


class Spike(NamedTuple):
    """Extra citations dumped on one (volume, age) cell."""

    pub_year: int
    age: int
    extra: int


class SpecValueError(ValueError):
    """A value the SynthSpec checks refuse.  key is the spec-file key that
    gives it; entry, for a repeatable key, is which of its entries: a
    volume_scale year, a self_fraction (year, age) or an index into spikes."""

    def __init__(self, message: str, key: str, entry=None):
        super().__init__(message)
        self.key = key
        self.entry = entry


@checked
class SynthSpec(NamedTuple):
    """Complete description of one synthetic journal.

    volume_scale entries default to 1 for unlisted years; self_fraction is
    keyed by (pub_year, age) and defaults to 0.  observation_end truncates
    generated citing years.  Every year lies in YEAR_MIN..YEAR_MAX, the years
    the ledger readers take.  A value the checks refuse, however the spec is
    built, raises SpecValueError, which names the spec-file key that gives it.
    """

    journal: str
    first_year: int
    last_year: int
    kernel: RiseDecay
    base_citations: Fraction
    items_per_year: int
    observation_end: int
    volume_scale: Mapping[int, Fraction] = _EMPTY
    self_fraction: Mapping[tuple[int, int], Fraction] = _EMPTY
    spikes: tuple[Spike, ...] = ()

    def _check(self):
        if not self.journal.strip():
            raise SpecValueError("journal name must be non-empty", "journal")
        if "," in self.journal:
            raise SpecValueError("journal name must not contain commas", "journal")
        if journal_identity(self.journal) == EXTERNAL_SOURCE:
            raise SpecValueError(f"journal name {EXTERNAL_SOURCE!r} is reserved", "journal")
        if self.first_year > self.last_year:
            raise SpecValueError("pub_years range is empty", "pub_years")
        if self.base_citations <= 0:
            raise SpecValueError("base_citations must be positive", "base_citations")
        if self.items_per_year < 1:
            raise SpecValueError("items_per_year must be >= 1", "items_per_year")
        if self.observation_end < self.last_year:
            raise SpecValueError("observation_end must cover the last pub year",
                                 "observation_end")
        if self.first_year < YEAR_MIN or self.observation_end > YEAR_MAX:
            raise SpecValueError(
                f"pub_years and observation_end must be in {YEAR_MIN}..{YEAR_MAX}",
                "pub_years" if self.first_year < YEAR_MIN else "observation_end")
        weights = self.kernel.weights()
        if not weights or all(w == 0 for w in weights):
            raise SpecValueError("kernel must have at least one positive weight", "kernel")
        if any(w < 0 for w in weights):
            raise SpecValueError("kernel weights must be non-negative", "kernel")
        spiked = {(spike.pub_year, spike.age) for spike in self.spikes}
        for (year, age), frac in self.self_fraction.items():
            if (not 0 <= frac <= 1 or age < 0 or year not in self.pub_years()
                    or year + age > self.observation_end
                    or age >= len(weights) and (year, age) not in spiked):
                raise SpecValueError(
                    f"self_fraction {year},{age},{frac} needs a year in pub_years, an age "
                    ">= 0, a fraction in [0, 1] and a cell the spec writes: by "
                    "observation_end, and in the kernel or on a spike",
                    "self_fraction", (year, age))
        for year, scale in self.volume_scale.items():
            if scale <= 0 or year not in self.pub_years():
                raise SpecValueError(f"volume_scale {year},{scale} needs a year in pub_years "
                                     "and a scale > 0", "volume_scale", year)
        for index, spike in enumerate(self.spikes):
            if spike.extra < 0 or spike.age < 0 or spike.pub_year not in self.pub_years():
                raise SpecValueError(f"spike {spike.pub_year},{spike.age},{spike.extra} needs "
                                     "a year in pub_years, an age >= 0 and a count >= 0",
                                     "spike", index)
        return self

    def pub_years(self) -> range:
        return range(self.first_year, self.last_year + 1)

    def scale(self, year: int) -> Fraction:
        return self.volume_scale.get(year, Fraction(1))


def generate_profile(spec: SynthSpec) -> tuple[CitationProfile, PublicationCounts]:
    """Expand a spec into a citation profile and matching publication counts.

    cell(y, y+a).total = round(base * scale(y) * w(a)) + spike(y, a), with
    w = 0 past the kernel and self = round(total * self_fraction(y, a));
    citing years past observation_end are dropped, zero cells are omitted.
    Identical specs produce identical output, bit for bit.
    """
    weights = spec.kernel.weights()
    ages = max([len(weights), *(s.age + 1 for s in spec.spikes)])
    weights += (Fraction(0),) * (ages - len(weights))
    spike_at = {(s.pub_year, s.age): 0 for s in spec.spikes}
    for s in spec.spikes:
        spike_at[(s.pub_year, s.age)] += s.extra
    cells: dict[tuple[int, int], CellCount] = {}
    for year in spec.pub_years():
        scale = spec.base_citations * spec.scale(year)
        for age, weight in enumerate(weights):
            citing_year = year + age
            if citing_year > spec.observation_end:
                break
            total = half_away_units(scale * weight) + spike_at.get((year, age), 0)
            if total == 0:
                continue
            self_count = half_away_units(
                total * spec.self_fraction.get((year, age), Fraction(0))
            )
            cells[(year, citing_year)] = CellCount(total, self_count)
    profile = CitationProfile(spec.journal, cells)
    identity = journal_identity(spec.journal)
    pubs = PublicationCounts(
        {(identity, year): spec.items_per_year for year in spec.pub_years()},
        {identity: spec.journal},
    )
    return profile, pubs


def _quantile_invert(weights: tuple[Fraction, ...], q: Fraction) -> Fraction:
    """Piecewise-linear cumulative inversion over per-age weights."""
    total = sum(weights)
    target = q * total
    running = Fraction(0)
    for age, w in enumerate(weights):
        if w > 0 and running + w >= target:
            return age + (target - running) / w
        running += w
    raise AssertionError("target above total weight")  # pragma: no cover


def expected_metrics(spec: SynthSpec, policy: WindowPolicy = WindowPolicy()) -> dict:
    """Closed-form {coverage, half_life_exact, scaling_factor} from the kernel.

    half_life_exact is the median age, as in the report; the policy's target
    quantile enters only the scaling factor.

    Never touches the analysis pipeline.  Refuses (OracleError) any spec
    whose expansion would not be a clean tiling of the kernel: spikes,
    non-uniform volume sizes, a newest volume short of observation_end, or
    a pub-year span too short for the horizon or the kernel.  Approximating
    those cases would make the oracle circular.

    When base * scale * w(age) is an integer for every age, the pipeline
    must agree exactly.  Otherwise each generated cell differs from its
    ideal value by at most 1/2, so with A+1 ages in play the pipeline's
    coverage can drift from the closed form by about 0.5*(A+1)/total and
    the half-life by about 0.5*(A+1)*(3/2) divided by the smallest per-age
    citation rate (see rounding_bounds for the exact worst cases).
    """
    if spec.spikes:
        raise OracleError("closed form requires a spike-free spec")
    scales = {spec.scale(year) for year in spec.pub_years()}
    if len(scales) != 1:
        raise OracleError("closed form requires uniform volume scales")
    if spec.observation_end != spec.last_year:
        raise OracleError("closed form requires observation_end == last pub year")
    weights = spec.kernel.weights()
    span = spec.last_year - spec.first_year
    if span < max(policy.horizon, len(weights) - 1):
        raise OracleError("pub-year span too short for the horizon or kernel")
    horizon_total = sum(weights[: policy.horizon + 1])
    if horizon_total == 0:
        raise OracleError("kernel has no weight inside the horizon")
    window = sum(
        (weights[a] for a in policy.window_ages if a < len(weights)), Fraction(0)
    )
    coverage = window / horizon_total
    if coverage == 0:
        raise OracleError("kernel has no weight inside the window")
    return {
        "coverage": coverage,
        "half_life_exact": _quantile_invert(weights, Fraction(1, 2)),
        "scaling_factor": policy.target_quantile / coverage,
    }


def rounding_bounds(spec: SynthSpec, policy: WindowPolicy = WindowPolicy()) -> dict:
    """Worst-case |pipeline - closed form| from per-cell half-away rounding.

    Each cell is off by at most 1/2, errors add across ages, and the
    half-life inversion divides the accumulated error by the cumulative
    curve's smallest positive slope.  Both bounds are zero for specs whose
    cell values are integers.  The half-life bound assumes every kernel age
    keeps a positive rounded count (smallest exact rate above 1/2), which
    the bundled kernels satisfy whenever base citations are not tiny.
    """
    weights = spec.kernel.weights()
    scale = spec.base_citations * spec.scale(spec.first_year)
    deltas = [abs(half_away_units(scale * w) - scale * w) for w in weights]
    if all(d == 0 for d in deltas):
        return {"coverage": Fraction(0), "half_life_exact": Fraction(0)}
    exact_horizon = sum(weights[: policy.horizon + 1]) * scale
    window_err = sum(deltas[a] for a in policy.window_ages if a < len(deltas))
    total_err = sum(deltas[: policy.horizon + 1])
    cov = expected_metrics(spec, policy)["coverage"]
    cov_bound = (window_err + cov * total_err) / (exact_horizon - total_err)
    slope_min = min(scale * w for w in weights if w > 0)
    if slope_min <= Fraction(1, 2):
        raise OracleError("half-life bound needs every kernel age above 1/2 a citation")
    hl_bound = Fraction(3, 2) * sum(deltas) / (slope_min - Fraction(1, 2))
    return {"coverage": cov_bound, "half_life_exact": hl_bound}


# ---------------------------------------------------------------------------
# Spec file format: flat "key = value" lines.


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def _parse_kernel(text: str) -> RiseDecay:
    parts = [p.strip() for p in text.split(":")]
    name = parts[0].lower()
    if name == "flat" and len(parts) == 2:
        return RiseDecay(0, Fraction(1), Fraction(1), int(parts[1]))
    if name == "geometric" and len(parts) == 3:
        return RiseDecay(0, Fraction(1), _parse_fraction(parts[1]), int(parts[2]))
    if name == "risedecay" and len(parts) == 5:
        return RiseDecay(
            int(parts[1]), _parse_fraction(parts[2]), _parse_fraction(parts[3]), int(parts[4])
        )
    raise ValueError(f"unrecognized kernel {text!r}")


def _parse_years(text: str) -> tuple[int, int]:
    first, dash, last = text.partition("-")
    return int(first), int(last if dash else first)


# Keys given once per spec, all of them required, each with its value's parser.
_SCALAR_KEYS = {"journal": str, "pub_years": _parse_years, "kernel": _parse_kernel,
                "base_citations": _parse_fraction, "items_per_year": int,
                "observation_end": int}


def parse_synth_spec(lines: Iterable[str], source: str | None = None) -> SynthSpec:
    """Parse the flat key = value spec format from lines, numbered from 1.

    Repeatable keys: volume_scale = year,scale; self_fraction = year,age,frac;
    spike = year,age,count.  Every other key must be one of _SCALAR_KEYS,
    given once.  Fractions accept both "0.12" and "38/44" (both are exact).
    Lines starting with "#" and blank lines are ignored.  As in the CSV inputs,
    a byte order mark may open the first line and a non-UTF-8 byte is an error.
    A value that does not parse, or that SynthSpec refuses, is an error at the
    line that gives it; a missing key is an error at line 0.
    """
    fields: dict[str, object] = {}
    where: dict[tuple[str, object], int] = {}  # (key, entry) -> the line that gives it
    volume_scale: dict[int, Fraction] = {}
    self_fraction: dict[tuple[int, int], Fraction] = {}
    spikes: list[Spike] = []
    for number, raw in enumerate(lines, start=1):
        check_utf8(number, raw, source)
        if number == 1:
            raw = raw.removeprefix("\ufeff")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(number, "expected 'key = value'", source)
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        try:
            if key == "volume_scale":
                year, scale = value.split(",")
                if int(year) in volume_scale:
                    raise ParseError(number, f"duplicate volume_scale year {int(year)}", source)
                volume_scale[int(year)] = _parse_fraction(scale)
                where[key, int(year)] = number
            elif key == "self_fraction":
                year, age, frac = value.split(",")
                if (int(year), int(age)) in self_fraction:
                    raise ParseError(number, f"duplicate self_fraction year and age "
                                     f"{int(year)},{int(age)}", source)
                self_fraction[(int(year), int(age))] = _parse_fraction(frac)
                where[key, (int(year), int(age))] = number
            elif key == "spike":
                year, age, extra = value.split(",")
                where[key, len(spikes)] = number
                spikes.append(Spike(int(year), int(age), int(extra)))
            elif key not in _SCALAR_KEYS:
                raise ParseError(number, f"unknown key {key!r}", source)
            elif key in fields:
                raise ParseError(number, f"duplicate key {key!r}", source)
            else:
                fields[key] = _SCALAR_KEYS[key](value)
                where[key, None] = number
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(number, f"bad value for {key!r}: {exc}", source)
    for name in _SCALAR_KEYS:
        if name not in fields:
            raise ParseError(0, f"missing required key {name!r}", source)
    first_year, last_year = fields.pop("pub_years")
    try:
        return SynthSpec(first_year=first_year, last_year=last_year, **fields,
                         volume_scale=volume_scale, self_fraction=self_fraction,
                         spikes=tuple(spikes))
    except SpecValueError as exc:
        raise ParseError(where[exc.key, exc.entry], str(exc), source) from None


def fixture_spec(name: str) -> SynthSpec:
    """Bundled spec "hare" or "tortoise"."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; bundled: {FIXTURE_NAMES}")
    path = resources.files("citemetrics.fixtures").joinpath(f"{name}.synth")
    with path.open(encoding="utf-8") as handle:
        return parse_synth_spec(handle, source=f"{name}.synth")
