"""Energy-aware segment-request policies for adaptive-bitrate streaming.

The package turns raw playback power measurements into a consumption
model, applies bandwidth-budgeted request modes on a quality ladder, and
simulates sessions over channel traces to quantify the energy/quality
trade-off of each mode against the energy-saving-off baseline.

Public names load with their module on first access.  Only fitting needs
numpy: ``simulate`` and ``compare`` run on the standard library, and a
program that only normalizes measurements never imports the model or the
simulator.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

#: The public names of each module.
_EXPORTS = {
    "_csvio": "ParseError",
    "channel": """DEFAULT_BANDWIDTH_VALUES DEFAULT_BLOCK_LEN DEFAULT_PERIOD_S ChannelTrace
        constant load_trace random_blocks serialize_trace staircase""",
    "ladder": """AVC HEVC LADDER_HEADER LTE_4G NR_5G WIFI QualityLadder Representation
        normalize_codec normalize_connection parse_ladder""",
    "measurements": """MEASUREMENT_HEADER Combination MeasurementRecord Measurements RelativePoint
        group_measurements load_records normalize normalize_columns read_measurements
        reference_consumption resolution_rank""",
    "fitting": "FitError FitResult fit fit_columns pearson r_squared spearman",
    "model": "PRESETS ModelParams evaluate preset",
    "policy": """FIXED_GAMMAS AdaptiveConfig EnergyMode PolicyDecision adaptive_gamma
        adaptive_mode light_mode medium_mode off_mode select strict_mode""",
    "prng": "Lcg64",
    "reportio": "SegmentOutcome",
    "simulator": """PERCEPTIBLE_VMAF_DELTA BatteryConfig ComparisonRow ComparisonTable QualityMap
        SegmentColumns SessionContext SessionReport compare load_quality_map run_session""",
}
#: Public name -> the module that defines it.
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
