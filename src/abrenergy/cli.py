"""Command-line front end: normalize, fit, simulate, compare.

Every output carries a machine-readable provenance block (tool version,
subcommand, config echo, seed) so a result can be regenerated from the
output alone.  Runs are deterministic: identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from . import __version__

# Each subcommand imports the modules it computes with when it runs, so that
# normalize loads no numpy and fit no simulator.

DEFAULT_SEGMENTS = 360

_FIT_FILE_FIELDS = (("fits", "fits", (list,)),)
_REPORT_FILE_FIELDS = (("provenance", "provenance", (dict,)), ("report", "report", (dict,)))

_BANDWIDTH_RE = re.compile(r"([0-9]*\.?[0-9]+)([kKmMgG]?)")
_SCALES = {"": 1.0, "k": 1e3, "m": 1e6, "g": 1e9}


def parse_bandwidth(token: str) -> float:
    """Bandwidth in bps from '22M', '650k', or a plain number."""
    match = _BANDWIDTH_RE.fullmatch(token.strip())
    if not match:
        raise ValueError(f"invalid bandwidth {token!r}")
    value = float(match.group(1)) * _SCALES[match.group(2).lower()]
    if value <= 0:
        raise ValueError(f"bandwidth must be positive, got {token!r}")
    return value


def _parse_random_options(rest: str) -> tuple[list[float] | None, int, int]:
    from .channel import DEFAULT_BLOCK_LEN

    values: list[str] | None = None
    collecting: list[str] | None = None
    options = {"block": DEFAULT_BLOCK_LEN, "seed": 0}
    for token in rest.split(",") if rest else []:
        token = token.strip()
        if "=" in token:
            key, _, raw = token.partition("=")
            key = key.strip().lower()
            if key == "values":
                values = [raw]
                collecting = values
            elif key in options:
                try:
                    options[key] = int(raw)
                except ValueError:
                    raise ValueError(
                        f"random-channel option {key!r} must be an integer, got {raw!r}"
                    ) from None
                collecting = None
            else:
                raise ValueError(f"unknown random-channel option {key!r}")
        elif collecting is not None:
            collecting.append(token)
        elif token:
            raise ValueError(f"unexpected token {token!r} in random channel spec")
    parsed = [parse_bandwidth(v) for v in values] if values is not None else None
    return parsed, options["block"], options["seed"]


def parse_channel_spec(
    spec: str, n_segments: int | None, segment_duration: float
) -> tuple[ChannelTrace, dict]:
    """Build a trace from the channel mini-grammar.

    Forms: ``constant:<bw>``, ``staircase[:<v1,v2,...>]``,
    ``random[:values=<...>,block=<n>,seed=<n>]``, ``trace:<path>``.
    Bandwidths accept k/M/G suffixes.  Generated kinds default to 360
    periods; a trace file supplies its own length (``--segments`` may
    truncate it).  ``n_segments``, when given, must be at least 1.

    Returns:
        (trace, descriptor) where the descriptor echoes the resolved
        configuration for provenance.
    """
    from .channel import (
        DEFAULT_BANDWIDTH_VALUES,
        ChannelTrace,
        constant,
        load_trace,
        random_blocks,
        staircase,
    )

    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    rest = rest.strip()
    if n_segments is not None and n_segments < 1:
        raise ValueError(f"--segments must be at least 1, got {n_segments}")
    count = n_segments if n_segments is not None else DEFAULT_SEGMENTS
    if kind == "constant":
        if not rest:
            raise ValueError("constant channel needs a bandwidth, e.g. constant:22M")
        bandwidth = parse_bandwidth(rest)
        trace = constant(bandwidth, count, segment_duration)
        return trace, {"kind": "constant", "bandwidth_bps": bandwidth, "periods": count}
    if kind == "staircase":
        values = (
            [parse_bandwidth(v) for v in rest.split(",")]
            if rest
            else list(DEFAULT_BANDWIDTH_VALUES)
        )
        trace = staircase(values, count, segment_duration)
        return trace, {"kind": "staircase", "values_bps": values, "periods": count}
    if kind == "random":
        values, block, seed = _parse_random_options(rest)
        if values is None:
            values = list(DEFAULT_BANDWIDTH_VALUES)
        trace = random_blocks(values, count, seed, block, segment_duration)
        return trace, {
            "kind": "random",
            "values_bps": values,
            "block": block,
            "seed": seed,
            "periods": count,
        }
    if kind == "trace":
        if not rest:
            raise ValueError("trace channel needs a file path, e.g. trace:capture.csv")
        trace = load_trace(Path(rest).read_text(), segment_duration)
        if n_segments is not None:
            if n_segments > len(trace):
                raise ValueError(
                    f"trace {rest!r} has only {len(trace)} periods, {n_segments} requested"
                )
            trace = ChannelTrace(trace.period_duration, trace.bandwidths[:n_segments])
        return trace, {"kind": "trace", "path": rest, "periods": len(trace)}
    raise ValueError(
        f"unknown channel kind {kind!r}; expected constant, staircase, random or trace"
    )


def parse_params_spec(spec: str) -> tuple[ModelParams, dict]:
    """Model parameters from a preset label, ``a=..,b=..[,c=..]``, or
    ``fit:<path>[#<combination>]``."""
    from .model import ModelParams, preset
    from .simulator import PARAMS_FIELDS, read_fields

    spec = spec.strip()
    if spec.lower().startswith("fit:"):
        fit_fields = (("combination", "combination", (str,)), *PARAMS_FIELDS)
        ref = spec[4:]
        path, _, combination = ref.partition("#")
        try:
            document = read_fields(_FIT_FILE_FIELDS, json.loads(Path(path).read_text()), path)
            fits = [read_fields(fit_fields, fit, "fit") for fit in document["fits"]]
            if combination:
                matches = [f for f in fits if f["combination"] == combination]
                if not matches:
                    known = ", ".join(f["combination"] for f in fits)
                    raise ValueError(
                        f"no fit for combination {combination!r} in {path!r};"
                        f" available: {known}"
                    )
                entry = matches[0]
            elif len(fits) == 1:
                entry = fits[0]
            else:
                known = ", ".join(f["combination"] for f in fits)
                raise ValueError(
                    f"{path!r} holds {len(fits)} fits; select one with"
                    f" fit:{path}#<combination> (available: {known})"
                )
            params = ModelParams(entry["a"], entry["b"], entry["c"])
            return params, {"source": "fit", "path": path, "combination": entry["combination"]}
        except KeyError as exc:
            raise ValueError(f"fit file {path!r} is missing key {exc}") from None
    if "=" in spec:
        fields = {}
        for token in spec.split(","):
            key, _, raw = token.partition("=")
            key = key.strip().lower()
            if key not in ("a", "b", "c") or not raw:
                raise ValueError(f"invalid parameter assignment {token!r}")
            fields[key] = float(raw)
        if "a" not in fields or "b" not in fields:
            raise ValueError("explicit parameters need at least a=<value>,b=<value>")
        params = ModelParams(**fields)
        return params, {"source": "explicit", "a": params.a, "b": params.b, "c": params.c}
    params = preset(spec)
    return params, {"source": "preset", "label": spec}


def _provenance(subcommand: str, config: dict) -> dict:
    return {
        "tool": "abrenergy",
        "version": __version__,
        "subcommand": subcommand,
        "config": config,
    }


def _write_text(text: str, path: str | None) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _write_json(payload: dict, path: str | None) -> None:
    _write_text(json.dumps(payload, indent=2) + "\n", path)


def _write_comparison(
    table: ComparisonTable, provenance: dict, skipped: list[str], args: argparse.Namespace
) -> None:
    """The comparison as JSON to ``--output`` and, with ``--csv``, as CSV."""
    payload = {"provenance": provenance, "comparison": table.to_json_dict()}
    if skipped:
        payload["skipped"] = skipped
    _write_json(payload, args.output)
    if args.csv:
        _write_text(table.to_csv(provenance), args.csv)


def _given(**options: float | None) -> dict[str, float]:
    """The options given on the command line; the library defaults the rest."""
    return {name: value for name, value in options.items() if value is not None}


def _cmd_normalize(args: argparse.Namespace) -> int:
    """Write each group's relative points as ``json.dumps(..., indent=2)``
    would, laying the points out from formatted columns.

    ``repr`` writes a float as JSON does, since a point's values are finite.
    """
    from ._layout import json_array
    from .measurements import group_measurements, normalize_columns, read_measurements

    groups = group_measurements(read_measurements(Path(args.input).read_text()))
    combinations, point_rows = [], []
    for combination in sorted(groups, key=lambda c: c.label):
        reference, bw_rel, ec_rel = normalize_columns(groups[combination], combination)
        flagged = [value < 1.0 for value in bw_rel]
        combinations.append(
            {
                "combination": combination.label,
                "reference_current_ma": reference,
                "n_points": len(bw_rel),
                "n_flagged": sum(flagged),
                "points": None,
            }
        )
        columns = (
            list(map(repr, bw_rel)),
            list(map(repr, ec_rel)),
            [("false", "true")[f] for f in flagged],
        )
        # a group's points are the value of "points", three levels deep
        point_rows.append(json_array(("bw_rel", "ec_rel", "flagged"), columns, 3))
    payload = {
        "provenance": _provenance("normalize", {"input": args.input}),
        "combinations": combinations,
    }
    # a label cannot spell the key: JSON escapes the quotes inside a string
    head, *tails = json.dumps(payload, indent=2).split('"points": null')
    text = head + "".join('"points": ' + rows + tail for rows, tail in zip(point_rows, tails))
    _write_text(text + "\n", args.output)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    import numpy as np

    from .measurements import group_measurements, normalize_columns, read_measurements
    from .model import fit_columns

    # every group is normalized, in first-seen order, before any is fitted;
    # only the ratio columns are still referenced while fitting
    groups = {
        combination: normalize_columns(group, combination)[1:]
        for combination, group in group_measurements(
            read_measurements(Path(args.input).read_text())
        ).items()
    }
    fix_c = None if args.free_c else args.fix_c
    fits = []
    notes = []
    for combination in sorted(groups, key=lambda c: c.label):
        result = fit_columns(*groups[combination], fix_c, args.include_flagged)
        fits.append(result.to_json_dict(combination.label))
        notes.extend(f"{combination.label}: {d}" for d in result.diagnostics)
    if len(groups) > 1:
        # pooled in first-seen order, which the fitted bytes depend on
        pooled = [np.concatenate(column) for column in zip(*groups.values())]
        result = fit_columns(*pooled, fix_c, args.include_flagged)
        fits.append(result.to_json_dict("overall"))
        notes.extend(f"overall: {d}" for d in result.diagnostics)
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    payload = {
        "provenance": _provenance(
            "fit",
            {
                "input": args.input,
                "fix_c": fix_c,
                "include_flagged": args.include_flagged,
            },
        ),
        "fits": fits,
    }
    _write_json(payload, args.output)
    return 0


def _battery_from_args(args: argparse.Namespace) -> BatteryConfig | None:
    from .simulator import BatteryConfig

    given = (args.battery_capacity_mah is not None, args.reference_current_ma is not None)
    if not any(given):
        if args.initial_soc is not None:
            raise ValueError("--initial-soc applies only with a battery configured")
        return None
    if not all(given):
        raise ValueError(
            "battery needs both --battery-capacity-mah and --reference-current-ma"
        )
    return BatteryConfig(
        capacity_mah=args.battery_capacity_mah,
        reference_current_ma=args.reference_current_ma,
        **_given(initial_soc=args.initial_soc),
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    from dataclasses import asdict

    from .channel import serialize_trace
    from .ladder import parse_ladder
    from .policy import FIXED_GAMMAS, AdaptiveConfig, EnergyMode, adaptive_mode
    from .simulator import _provenance_comment, compare, load_quality_map, run_session

    mode_name = args.mode.strip().lower()
    if args.gamma is not None and mode_name != "custom":
        raise ValueError("--gamma applies to --mode custom only")
    if args.per_segment and mode_name == "all":
        raise ValueError("--per-segment applies to single-mode runs only")
    if args.csv and mode_name != "all":
        raise ValueError("--csv applies to --mode all only")
    battery = _battery_from_args(args)
    high, low = args.adaptive_high, args.adaptive_low
    runs_adaptive = mode_name == "adaptive" or (mode_name == "all" and battery is not None)
    if not runs_adaptive and (high is not None or low is not None):
        flag = "--adaptive-high" if high is not None else "--adaptive-low"
        raise ValueError(f"{flag} applies only when an adaptive mode runs")
    adaptive = AdaptiveConfig(**_given(high_threshold=high, low_threshold=low))
    ladder = parse_ladder(Path(args.ladder).read_text())
    trace, channel_desc = parse_channel_spec(args.channel, args.segments, args.segment_duration)
    params, params_desc = parse_params_spec(args.params)
    quality = load_quality_map(Path(args.quality).read_text()) if args.quality else None
    if mode_name == "all":
        modes = [EnergyMode(kind) for kind in FIXED_GAMMAS]
        if battery is not None:
            modes.append(adaptive_mode(adaptive))
    else:
        modes = [EnergyMode(args.mode, args.gamma, adaptive if mode_name == "adaptive" else None)]

    config = {
        "ladder": args.ladder,
        "channel": channel_desc,
        "params": params_desc,
        "mode": args.mode,
        "segments": len(trace),
        "segment_duration_s": args.segment_duration,
    }
    if args.gamma is not None:
        config["gamma"] = args.gamma
    if battery is not None:
        config["battery"] = asdict(battery)
    if args.quality:
        config["quality"] = args.quality
    provenance = _provenance("simulate", config)

    if args.dump_trace:
        _write_text(_provenance_comment(provenance) + serialize_trace(trace), args.dump_trace)

    if mode_name == "all":
        reports = [
            run_session(
                ladder,
                trace,
                mode,
                params,
                battery=battery,
                quality=quality,
                include_segments=False,  # the comparison needs only the aggregates
            )
            for mode in modes
        ]
        # each report already carries its quality means
        table = compare(reports[0], reports[1:], channel=args.channel)
        skipped = [] if battery is not None else ["adaptive: battery not configured"]
        _write_comparison(table, provenance, skipped, args)
        if args.output:  # short readable summary when JSON went to a file
            for row in table.rows:
                print(f"{row.mode_label:>18}: {row.energy_pct:7.2f}% energy")
        return 0

    report = run_session(ladder, trace, modes[0], params, battery=battery, quality=quality)
    _write_text(report.to_json(provenance), args.output)
    if args.per_segment:
        _write_text(report.to_csv(provenance), args.per_segment)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .simulator import SessionReport, compare, load_quality_map, read_fields

    def load_report(path: str) -> tuple[SessionReport, str]:
        """A report as ``simulate`` writes it, and the kind of channel it ran over."""
        try:
            document = read_fields(_REPORT_FILE_FIELDS, json.loads(Path(path).read_text()), path)
            kind = document["provenance"]  # walked down to its config.channel.kind
            for key, types in (("config", (dict,)), ("channel", (dict,)), ("kind", (str,))):
                kind = read_fields(((key, key, types),), kind, key)[key]
        except KeyError as exc:
            raise ValueError(f"{path!r} is missing key {exc}") from None
        return SessionReport.from_json_dict(document["report"]), kind

    baseline, channel_kind = load_report(args.baseline)
    others = [load_report(path)[0] for path in args.candidate]
    quality = load_quality_map(Path(args.quality).read_text()) if args.quality else None
    channel_label = channel_kind if args.channel_label is None else args.channel_label
    table = compare(baseline, others, quality=quality, channel=channel_label)
    provenance = _provenance(
        "compare",
        {
            "baseline": args.baseline,
            "candidates": list(args.candidate),
            "quality": args.quality,
            "channel_label": channel_label,
        },
    )
    _write_comparison(table, provenance, [], args)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abrenergy",
        description=(
            "Energy-aware segment-request policies for adaptive-bitrate streaming:"
            " normalize measurements, fit the consumption model, simulate sessions,"
            " and compare modes against the energy-saving-off baseline."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser(
        "normalize", help="convert raw measurements into relative points"
    )
    p_norm.add_argument("--input", required=True, help="measurement CSV")
    p_norm.add_argument("--output", help="output JSON path (default: stdout)")
    p_norm.set_defaults(handler=_cmd_normalize)

    p_fit = sub.add_parser(
        "fit", help="fit the consumption model per combination and pooled"
    )
    p_fit.add_argument("--input", required=True, help="measurement CSV")
    p_fit.add_argument("--output", help="output JSON path (default: stdout)")
    floor = p_fit.add_mutually_exclusive_group()
    floor.add_argument(
        "--fix-c", type=float, default=1.0, help="hold the floor at this value (default 1)"
    )
    floor.add_argument("--free-c", action="store_true", help="fit the floor instead of fixing it")
    p_fit.add_argument(
        "--include-flagged",
        action="store_true",
        help="also fit points whose bandwidth ran below the requested bitrate",
    )
    p_fit.set_defaults(handler=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="simulate sessions over a channel")
    p_sim.add_argument("--ladder", required=True, help="ladder CSV")
    p_sim.add_argument(
        "--channel",
        required=True,
        help=(
            "constant:<bw> | staircase[:<v1,v2,...>] |"
            " random[:values=<...>,block=<n>,seed=<n>] | trace:<path>"
        ),
    )
    p_sim.add_argument(
        "--mode",
        required=True,
        help="off|light|medium|strict|adaptive|custom|all (case-insensitive)",
    )
    p_sim.add_argument(
        "--params",
        required=True,
        help="preset label (e.g. overall, SPC/5G/HEVC), a=..,b=..[,c=..], or fit:<path>[#<combination>]",
    )
    p_sim.add_argument("--segments", type=int, help="number of segments (default 360)")
    p_sim.add_argument(
        "--segment-duration", type=float, default=6.0, help="seconds per segment (default 6)"
    )
    p_sim.add_argument("--gamma", type=float, help="intensity for --mode custom")
    p_sim.add_argument("--battery-capacity-mah", type=float, help="battery capacity")
    p_sim.add_argument(
        "--reference-current-ma",
        type=float,
        help="current drawn at relative consumption 1.0",
    )
    p_sim.add_argument("--initial-soc", type=float, help="starting state of charge (default 100)")
    p_sim.add_argument(
        "--adaptive-high",
        type=float,
        help="adaptive mode: SoC above this uses the light intensity (default 70)",
    )
    p_sim.add_argument(
        "--adaptive-low",
        type=float,
        help="adaptive mode: SoC at or below this uses the strict intensity (default 30)",
    )
    p_sim.add_argument("--quality", help="per-representation quality CSV")
    p_sim.add_argument("--output", help="output JSON path (default: stdout)")
    p_sim.add_argument("--csv", help="comparison CSV path (with --mode all)")
    p_sim.add_argument("--per-segment", help="per-segment CSV path (single-mode runs)")
    p_sim.add_argument("--dump-trace", help="write the generated trace as CSV")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_cmp = sub.add_parser("compare", help="compare saved session reports")
    p_cmp.add_argument("--baseline", required=True, help="baseline report JSON")
    p_cmp.add_argument(
        "--candidate", action="append", required=True, help="mode report JSON (repeatable)"
    )
    p_cmp.add_argument("--quality", help="per-representation quality CSV")
    p_cmp.add_argument("--channel-label", help="channel column value (default: from baseline)")
    p_cmp.add_argument("--output", help="output JSON path (default: stdout)")
    p_cmp.add_argument("--csv", help="comparison CSV path")
    p_cmp.set_defaults(handler=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:  # ParseError and FitError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
