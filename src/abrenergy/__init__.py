"""Energy-aware segment-request policies for adaptive-bitrate streaming.

The package turns raw playback power measurements into a consumption
model, applies bandwidth-budgeted request modes on a quality ladder, and
simulates sessions over channel traces to quantify the energy/quality
trade-off of each mode against the energy-saving-off baseline.
"""

from __future__ import annotations

__version__ = "0.1.0"

from ._csvio import ParseError
from .channel import (
    DEFAULT_BANDWIDTH_VALUES,
    DEFAULT_BLOCK_LEN,
    DEFAULT_PERIOD_S,
    ChannelTrace,
    constant,
    load_trace,
    random_blocks,
    serialize_trace,
    staircase,
)
from .ladder import (
    AVC,
    DEFAULT_GAP_RATIO,
    HEVC,
    LADDER_HEADER,
    QualityLadder,
    Representation,
    normalize_codec,
    parse_ladder,
    serialize_ladder,
    validate_ladder,
)
from .measurements import (
    LTE_4G,
    MEASUREMENT_HEADER,
    NR_5G,
    WIFI,
    Combination,
    MeasurementRecord,
    RelativePoint,
    group_records,
    load_records,
    normalize,
    normalize_connection,
    reference_consumption,
    resolution_rank,
)
from .model import (
    PRESETS,
    FitError,
    FitResult,
    ModelParams,
    evaluate,
    fit,
    pearson,
    preset,
    r_squared,
    spearman,
)
from .policy import (
    FIXED_GAMMAS,
    AdaptiveConfig,
    EnergyMode,
    PolicyDecision,
    adaptive_gamma,
    adaptive_mode,
    custom_mode,
    light_mode,
    medium_mode,
    off_mode,
    select,
    strict_mode,
)
from .prng import Lcg64
from .simulator import (
    PERCEPTIBLE_VMAF_DELTA,
    BatteryConfig,
    ComparisonRow,
    ComparisonTable,
    QualityMap,
    SegmentColumns,
    SegmentOutcome,
    SessionContext,
    SessionReport,
    compare,
    load_quality_map,
    run_session,
)
