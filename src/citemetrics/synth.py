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

from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Iterable, Mapping

from .errors import OracleError, ParseError
from .fixtures import FIXTURE_NAMES
from .ledger import (
    EXTERNAL_SOURCE, CellCount, CitationProfile, PublicationCounts, check_utf8, journal_identity,
)
from .metrics import WindowPolicy, half_away_units


@dataclass(frozen=True)
class Flat:
    """Constant weight 1 for ages 0..length-1."""

    length: int

    def weights(self) -> tuple[Fraction, ...]:
        return (Fraction(1),) * self.length


@dataclass(frozen=True)
class Geometric:
    """Weight rate**age, decaying from 1 at age 0."""

    rate: Fraction
    length: int

    def weights(self) -> tuple[Fraction, ...]:
        return tuple(self.rate**a for a in range(self.length))


@dataclass(frozen=True)
class RiseDecay:
    """Weight 1 at peak_age, rise**(peak-age) before it, decay**(age-peak) after.

    rise in (0, 1] makes early ages climb toward the peak; decay in (0, 1]
    tails off after it.  A peak at the last age with rise < 1 gives a
    slowly growing curve, the slow-accrual shape.
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


Kernel = Flat | Geometric | RiseDecay


@dataclass(frozen=True)
class Spike:
    """Extra citations dumped on one (volume, age) cell."""

    pub_year: int
    age: int
    extra: int


@dataclass(frozen=True)
class SynthSpec:
    """Complete description of one synthetic journal.

    volume_scale entries default to 1 for unlisted years; self_fraction is
    keyed by (pub_year, age) and defaults to 0.  observation_end truncates
    generated citing years.
    """

    journal: str
    first_year: int
    last_year: int
    kernel: Kernel
    base_citations: Fraction
    items_per_year: int
    observation_end: int
    volume_scale: Mapping[int, Fraction] = field(default_factory=dict)
    self_fraction: Mapping[tuple[int, int], Fraction] = field(default_factory=dict)
    spikes: tuple[Spike, ...] = ()

    def __post_init__(self):
        if not self.journal.strip():
            raise ValueError("journal name must be non-empty")
        if "," in self.journal:
            raise ValueError("journal name must not contain commas")
        if journal_identity(self.journal) == EXTERNAL_SOURCE:
            raise ValueError(f"journal name {EXTERNAL_SOURCE!r} is reserved")
        if self.first_year > self.last_year:
            raise ValueError("pub_years range is empty")
        if self.base_citations <= 0:
            raise ValueError("base_citations must be positive")
        if self.items_per_year < 1:
            raise ValueError("items_per_year must be >= 1")
        if self.observation_end < self.last_year:
            raise ValueError("observation_end must cover the last pub year")
        weights = self.kernel.weights()
        if not weights or all(w == 0 for w in weights):
            raise ValueError("kernel must have at least one positive weight")
        if any(w < 0 for w in weights):
            raise ValueError("kernel weights must be non-negative")
        for key, frac in self.self_fraction.items():
            if not 0 <= frac <= 1:
                raise ValueError(f"self_fraction {key} outside [0, 1]")
        for scale in self.volume_scale.values():
            if scale <= 0:
                raise ValueError("volume_scale entries must be positive")
        for spike in self.spikes:
            if spike.extra < 0 or spike.age < 0 or spike.pub_year not in self.pub_years():
                raise ValueError(f"spike {spike.pub_year},{spike.age},{spike.extra} needs "
                                 "a year in pub_years, an age >= 0 and a count >= 0")

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
    pubs = PublicationCounts(
        {(spec.journal.casefold(), year): spec.items_per_year for year in spec.pub_years()},
        {spec.journal.casefold(): spec.journal},
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
    return Fraction(text.strip())


def _parse_kernel(text: str) -> Kernel:
    parts = [p.strip() for p in text.split(":")]
    name = parts[0].lower()
    if name == "flat" and len(parts) == 2:
        return Flat(int(parts[1]))
    if name == "geometric" and len(parts) == 3:
        return Geometric(_parse_fraction(parts[1]), int(parts[2]))
    if name == "risedecay" and len(parts) == 5:
        return RiseDecay(
            int(parts[1]), _parse_fraction(parts[2]), _parse_fraction(parts[3]), int(parts[4])
        )
    raise ValueError(f"unrecognized kernel {text!r}")


# Keys given once per spec, all of them required.
_SCALAR_KEYS = ("journal", "pub_years", "kernel", "base_citations",
                "items_per_year", "observation_end")


def parse_synth_spec(lines: Iterable[str], source: str | None = None) -> SynthSpec:
    """Parse the flat key = value spec format from lines, numbered from 1.

    Repeatable keys: volume_scale = year,scale; self_fraction = year,age,frac;
    spike = year,age,count.  Every other key must be one of _SCALAR_KEYS,
    given once.  Fractions accept both "0.12" and "38/44" (both are exact).
    Lines starting with "#" and blank lines are ignored.  As in the CSV inputs,
    a byte order mark may open the first line and a non-UTF-8 byte is an error.
    """
    fields: dict[str, str] = {}
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
                volume_scale[int(year)] = _parse_fraction(scale)
            elif key == "self_fraction":
                year, age, frac = value.split(",")
                self_fraction[(int(year), int(age))] = _parse_fraction(frac)
            elif key == "spike":
                year, age, extra = value.split(",")
                spikes.append(Spike(int(year), int(age), int(extra)))
            elif key not in _SCALAR_KEYS:
                raise ParseError(number, f"unknown key {key!r}", source)
            elif key in fields:
                raise ParseError(number, f"duplicate key {key!r}", source)
            else:
                fields[key] = value
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(number, f"bad value for {key!r}: {exc}", source)
    for name in _SCALAR_KEYS:
        if name not in fields:
            raise ParseError(0, f"missing required key {name!r}", source)
    try:
        first, _, last = fields["pub_years"].partition("-")
        spec = SynthSpec(
            journal=fields["journal"],
            first_year=int(first),
            last_year=int(last or first),
            kernel=_parse_kernel(fields["kernel"]),
            base_citations=_parse_fraction(fields["base_citations"]),
            items_per_year=int(fields["items_per_year"]),
            observation_end=int(fields["observation_end"]),
            volume_scale=volume_scale,
            self_fraction=self_fraction,
            spikes=tuple(spikes),
        )
    except (ValueError, TypeError) as exc:
        raise ParseError(0, str(exc), source)
    return spec


def fixture_spec(name: str) -> SynthSpec:
    """Bundled spec "hare" or "tortoise"."""
    if name not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; bundled: {FIXTURE_NAMES}")
    path = resources.files("citemetrics.fixtures").joinpath(f"{name}.synth")
    with path.open(encoding="utf-8") as handle:
        return parse_synth_spec(handle, source=f"{name}.synth")
