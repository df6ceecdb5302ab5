"""Journal citation indicators from journal-to-journal citation ledgers.

Ingests citation ledgers (who cited whom, when, how often), aggregates them
into per-journal citation profiles, and computes classical indicators
(impact factor, immediacy index, cited half-life) alongside a
window-coverage analysis that measures how unevenly the standard two-year
citation window samples different journals, with a scaling correction that
puts fast- and slow-accruing journals on a comparable footing.
"""
from .curves import (
    AccrualCurve,
    AnomalyFinding,
    AnomalyThresholds,
    ClassificationThresholds,
    accrual_curve,
    classify_journal,
    cumulative,
    detect_anomalous_volumes,
    mean_accrual_curve,
    standardize_to_age2,
)
from .errors import (
    CitemetricsError,
    ConfigError,
    DegenerateVolumeError,
    MissingDenominatorError,
    OracleError,
    ParseError,
    UndefinedRateError,
    ZeroWindowError,
)
from .ledger import (
    AliasMap,
    CellCount,
    CitationProfile,
    CitationRecord,
    PublicationCounts,
    build_profiles,
    parse_alias_csv,
    parse_citation_csv,
    parse_publication_csv,
    profiles_to_citation_csv,
    read_citation_profiles,
    self_reference_rate,
    strip_self_references,
)
from .metrics import (
    IndicatorReport,
    WindowPolicy,
    adjusted_impact,
    build_indicator_report,
    cited_half_life,
    immediacy_index,
    impact_factor,
    jcr_truncate,
    normalize_within_field,
    reliability_flags,
    round_half_away,
    scaling_factor,
    window_coverage,
)
from .synth import (
    Flat,
    Geometric,
    RiseDecay,
    Spike,
    SynthSpec,
    expected_metrics,
    fixture_spec,
    generate_profile,
    parse_synth_spec,
    synth_spec_to_text,
)

__version__ = "0.1.0"
