"""The benchmark's workloads: seeded inputs, CLI operations, output checks,
and the in-process replay that the traced pass times.

A workload writes its inputs into a work directory from the seed alone, so
the program sees only generated files.  An operation is one CLI command:
its arguments, the files it writes, a check of those files against the
brute-force oracle, and a replay that calls the package's public functions
one layer at a time, each call inside a span.  Nothing in the package is
instrumented.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from abrenergy import (
    DEFAULT_BANDWIDTH_VALUES,
    DEFAULT_BLOCK_LEN,
    BatteryConfig,
    SessionReport,
    adaptive_mode,
    compare,
    evaluate,
    fit,
    light_mode,
    load_quality_map,
    load_records,
    load_trace,
    medium_mode,
    normalize,
    off_mode,
    parse_ladder,
    preset,
    random_blocks,
    reference_consumption,
    run_session,
    select,
    strict_mode,
)

import oracle

PARAMS = "overall"
PARAMS_ABC = (1.154, 0.677, 1.0)  # the OVERALL preset, restated for the oracle

LADDER = [  # name, width, height, bitrate_bps
    ("240p", 428, 182, 650_000),
    ("480p", 854, 382, 1_250_000),
    ("576p", 1024, 458, 2_000_000),
    ("720p", 1280, 572, 2_500_000),
    ("960p", 1440, 644, 3_500_000),
    ("1080p", 1920, 858, 5_000_000),
    ("1200p", 2560, 1144, 7_500_000),
    ("1440p", 2880, 1286, 10_000_000),
    ("1600p", 3440, 1536, 15_000_000),
    ("2160p", 3840, 1714, 20_000_000),
]
BITRATES = [row[3] for row in LADDER]
MENU = [float(mbps) * 1e6 for mbps in (1, 4, 7, 10, 13, 16, 19, 22)]
BLOCK = 10  # the random channel's documented block length

# Sizes at scale 1, chosen so that one pass takes about two seconds on a
# 2-core x86 container and a run of the contract's length holds ~8 passes.
SWEEP_SEGMENTS = 25_000
# 0.8 mAh per segment at 300 mA: the adaptive mode crosses all three
# gamma bands and no fixed mode empties the battery.
SWEEP_MAH_PER_SEGMENT = 0.8
SWEEP_REFERENCE_MA = 300.0
TRACE_PERIODS = 10_000
RECORDS_PER_GROUP = 600
# Fitted (a, b) must lie within this share of the generating values.  With
# 0.5 % current noise the estimates land within about 2 % (worst of 270
# groups over seeds 1-15), so a miss means a fitting or normalization fault.
FIT_REL_TOL = 0.05
CURRENT_NOISE_SIGMA = 0.005
FLAGGED_SHARE = 0.033


class Spans:
    """Spans and counts of one traced pass, kept in memory.

    A span is (operation, layer, parent layer, start, end).  Replays of
    ``select`` and ``evaluate`` name ``simulator.run_session`` as parent,
    because in the program they run inside it.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, str, str | None, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.op = ""

    @contextmanager
    def span(self, name: str, parent: str | None = None) -> Iterator[None]:
        start = perf_counter()
        try:
            yield
        finally:
            self.records.append((self.op, name, parent, start, perf_counter()))

    def seconds(self, name: str) -> float:
        return math.fsum(end - start for _, span, _, start, end in self.records if span == name)


@dataclass(frozen=True)
class Operation:
    """One CLI command of a workload pass."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[Path], list[str]]
    replay: Callable[[Path, Spans], None]

    @property
    def name(self) -> str:
        return f"{self.argv[0]}>{self.outputs[0]}"


@dataclass(frozen=True)
class Plan:
    """A workload's operations and the work one pass does."""

    operations: tuple[Operation, ...]
    work_metric: str
    work_unit: str
    work: int
    inputs: dict


def _gauss(rng: random.Random) -> float:
    # Box-Muller from random() alone, whose sequence Python keeps stable
    u = 1.0 - rng.random()
    return math.sqrt(-2.0 * math.log(u)) * math.cos(2.0 * math.pi * rng.random())


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _write_ladder(workdir: Path) -> None:
    rows = [f"{n},{w},{h},{n},{b},HEVC" for n, w, h, b in LADDER]
    text = "name,width,height,label,bitrate_bps,codec\n" + "\n".join(rows) + "\n"
    (workdir / "ladder.csv").write_text(text)


def _write_quality(workdir: Path, rng: random.Random) -> dict[str, list[float]]:
    """Scores rising with bitrate; values are exact in their CSV form."""
    scores: dict[str, list[float]] = {"psnr": [], "ssim": [], "vmaf": []}
    psnr, ssim, vmaf = 30.0, 0.90, 40.0
    for _ in LADDER:
        psnr += _uniform(rng, 0.5, 2.5)
        ssim += _uniform(rng, 0.001, 0.009)
        vmaf += _uniform(rng, 1.0, 6.0)
        scores["psnr"].append(round(psnr, 2))
        scores["ssim"].append(round(ssim, 4))
        scores["vmaf"].append(round(vmaf, 2))
    rows = [
        f"{name},{scores['psnr'][i]!r},{scores['ssim'][i]!r},{scores['vmaf'][i]!r}"
        for i, (name, *_) in enumerate(LADDER)
    ]
    (workdir / "quality.csv").write_text("name,psnr,ssim,vmaf\n" + "\n".join(rows) + "\n")
    return scores


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_data_rows(path: Path) -> int:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return len(lines) - 1  # header


def _check_rows(
    rows: list[dict], expected: dict[str, float], quality: dict[str, dict[str, float]]
) -> list[str]:
    """Comparison rows against the oracle's energy shares and quality means."""
    problems = []
    labels = [row["mode"] for row in rows]
    if labels != list(expected):
        return [f"modes {labels} != {list(expected)}"]
    for row in rows:
        mode = row["mode"]
        if not oracle.close(row["energy_pct"], expected[mode]):
            problems.append(f"{mode}: energy_pct {row['energy_pct']!r} != {expected[mode]!r}")
        for metric, value in quality[mode].items():
            if not oracle.close(row["quality"].get(metric), value):
                actual = row["quality"].get(metric)
                problems.append(f"{mode}: mean {metric} {actual!r} != {value!r}")
    return problems


def _energy_and_quality(
    sessions: dict[str, oracle.Session], scores: dict[str, list[float]]
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    base = sessions["off"].mean_ec
    energy = {mode: 100.0 * s.mean_ec / base for mode, s in sessions.items()}
    quality = {
        mode: {metric: s.mean_score(values) for metric, values in scores.items()}
        for mode, s in sessions.items()
    }
    return energy, quality


def _simulate(spans: Spans, ladder, trace, mode, params, **kwargs) -> SessionReport:
    """run_session in a span, then the replay estimates of select and evaluate."""
    with spans.span("simulator.run_session"):
        report = run_session(ladder, trace, mode, params, **kwargs)
    spans.counts["simulator.segments"] += report.n_segments
    outcomes = report.per_segment or ()
    budgets = [(o.bandwidth, o.gamma_used) for o in outcomes]
    rels = [o.bw_rel for o in outcomes]
    with spans.span("policy.select", parent="simulator.run_session"):
        for bandwidth, gamma in budgets:
            select(ladder, bandwidth, gamma)
    with spans.span("model.evaluate", parent="simulator.run_session"):
        for bw_rel in rels:
            evaluate(params, bw_rel)
    return report


def _dumps(spans: Spans, path: Path) -> None:
    """json.dumps as the CLI calls it, on the payload the CLI wrote."""
    payload = _json(path)
    with spans.span("cli.json_dumps"):
        json.dumps(payload, indent=2)


def sweep_battery(workdir: Path, seed: int, scale: float = 1.0) -> Plan:
    """simulate --mode all with quality and a battery over a random channel."""
    n = max(round(SWEEP_SEGMENTS * scale), 500)
    capacity = SWEEP_MAH_PER_SEGMENT * n
    rng = random.Random(seed)
    _write_ladder(workdir)
    scores = _write_quality(workdir, rng)
    channel = f"random:seed={seed}"
    bandwidths = oracle.random_blocks(MENU, n, seed, BLOCK)
    battery = oracle.Battery(capacity, SWEEP_REFERENCE_MA)
    gammas = {**oracle.FIXED_GAMMAS, "adaptive": None}
    sessions = {
        mode: oracle.session(BITRATES, bandwidths, PARAMS_ABC, g, battery)
        for mode, g in gammas.items()
    }
    bands = Counter(sessions["adaptive"].gammas)
    emptied = [mode for mode, s in sessions.items() if s.n < n]
    if emptied or len(bands) != 3:
        raise RuntimeError(f"sweep inputs miss their purpose: bands {bands}, emptied {emptied}")
    energy, quality = _energy_and_quality(sessions, scores)

    def check(workdir: Path) -> list[str]:
        return _check_rows(_json(workdir / "sweep.json")["comparison"]["rows"], energy, quality)

    def replay(workdir: Path, spans: Spans) -> None:
        ladder = parse_ladder((workdir / "ladder.csv").read_text())
        qmap = load_quality_map((workdir / "quality.csv").read_text())
        params = preset(PARAMS)
        config = BatteryConfig(capacity, SWEEP_REFERENCE_MA)
        with spans.span("channel.random_blocks"):
            trace = random_blocks(DEFAULT_BANDWIDTH_VALUES, n, seed, DEFAULT_BLOCK_LEN)
        spans.counts["channel.periods"] += len(trace)
        modes = [off_mode(), light_mode(), medium_mode(), strict_mode(), adaptive_mode()]
        reports = [
            _simulate(spans, ladder, trace, mode, params, battery=config, quality=qmap)
            for mode in modes
        ]
        used = Counter(o.gamma_used for o in reports[-1].per_segment or ())
        for band, gamma in (("light", 1.5), ("medium", 2.0), ("strict", 4.0)):
            spans.counts[f"simulator.adaptive.segments.{band}"] += used[gamma]
        with spans.span("simulator.compare"):
            compare(reports[0], reports[1:], quality=qmap, channel=channel)
        _dumps(spans, workdir / "sweep.json")

    argv = (
        "simulate", "--ladder", "ladder.csv", "--channel", channel,
        "--segments", str(n), "--mode", "all", "--params", PARAMS,
        "--quality", "quality.csv", "--battery-capacity-mah", repr(capacity),
        "--reference-current-ma", repr(SWEEP_REFERENCE_MA), "--output", "sweep.json",
    )  # fmt: skip
    return Plan(
        operations=(Operation(argv, ("sweep.json",), check, replay),),
        work_metric="segments_per_s",
        work_unit="segment/s",
        work=n * len(sessions),
        inputs={
            "segments": n,
            "modes": len(sessions),
            "capacity_mah": capacity,
            "adaptive_bands": {str(g): c for g, c in sorted(bands.items())},
        },
    )


def _write_trace(workdir: Path, rng: random.Random, n: int) -> list[float]:
    """Blocks of 1..20 periods at lognormal bandwidths off the stock menu."""
    bandwidths: list[float] = []
    while len(bandwidths) < n:
        value = min(max(6e6 * math.exp(0.8 * _gauss(rng)), 3e5), 6e7)
        bandwidths.extend([round(value, 2)] * (1 + int(20 * rng.random())))
    bandwidths = bandwidths[:n]
    rows = [f"{i},{bw!r}" for i, bw in enumerate(bandwidths)]
    (workdir / "trace.csv").write_text("period,bandwidth_bps\n" + "\n".join(rows) + "\n")
    return bandwidths


def report_roundtrip(workdir: Path, seed: int, scale: float = 1.0) -> Plan:
    """Two single-mode reports with per-segment CSVs, then compare over them."""
    rng = random.Random(seed)
    n = max(round(TRACE_PERIODS * scale), 300)
    _write_ladder(workdir)
    scores = _write_quality(workdir, rng)
    bandwidths = _write_trace(workdir, rng, n)
    sessions = {
        mode: oracle.session(BITRATES, bandwidths, PARAMS_ABC, oracle.FIXED_GAMMAS[mode])
        for mode in ("off", "strict")
    }
    energy, quality = _energy_and_quality(sessions, scores)

    def simulate_op(mode: str) -> Operation:
        expected = sessions[mode]

        def check(workdir: Path) -> list[str]:
            report = _json(workdir / f"{mode}.json")["report"]
            problems = []
            if report["n_segments"] != n or len(report["per_segment"]) != n:
                problems.append(f"{mode}: {report['n_segments']} segments reported, {n} expected")
            mean = report["mean_ec_rel"]
            if not oracle.close(mean, expected.mean_ec):
                problems.append(f"{mode}: mean_ec_rel {mean!r} != {expected.mean_ec!r}")
            counts = (report["fallback_count"], report["stall_count"])
            if counts != (expected.fallbacks, expected.stalls):
                problems.append(f"{mode}: fallback/stall counts differ from the oracle")
            rows = _csv_data_rows(workdir / f"{mode}.csv")
            if rows != n:
                problems.append(f"{mode}.csv: {rows} rows, {n} expected")
            return problems

        def replay(workdir: Path, spans: Spans) -> None:
            ladder = parse_ladder((workdir / "ladder.csv").read_text())
            text = (workdir / "trace.csv").read_text()
            with spans.span("channel.load_trace"):
                trace = load_trace(text)
            spans.counts["channel.periods"] += len(trace)
            mode_obj = off_mode() if mode == "off" else strict_mode()
            report = _simulate(spans, ladder, trace, mode_obj, preset(PARAMS))
            with spans.span("simulator.SessionReport.to_json_dict"):
                report.to_json_dict()
            _dumps(spans, workdir / f"{mode}.json")

        argv = (
            "simulate", "--ladder", "ladder.csv", "--channel", "trace:trace.csv",
            "--mode", mode, "--params", PARAMS,
            "--output", f"{mode}.json", "--per-segment", f"{mode}.csv",
        )  # fmt: skip
        return Operation(argv, (f"{mode}.json", f"{mode}.csv"), check, replay)

    def check_compare(workdir: Path) -> list[str]:
        problems = _check_rows(_json(workdir / "cmp.json")["comparison"]["rows"], energy, quality)
        rows = _csv_data_rows(workdir / "cmp.csv")
        if rows != len(sessions):
            problems.append(f"cmp.csv: {rows} rows, {len(sessions)} expected")
        return problems

    def replay_compare(workdir: Path, spans: Spans) -> None:
        texts = [(workdir / f"{mode}.json").read_text() for mode in sessions]
        with spans.span("cli.json_loads"):
            payloads = [json.loads(text) for text in texts]
        with spans.span("simulator.SessionReport.from_json_dict"):
            reports = [SessionReport.from_json_dict(p["report"]) for p in payloads]
        qmap = load_quality_map((workdir / "quality.csv").read_text())
        with spans.span("simulator.compare"):
            compare(reports[0], reports[1:], quality=qmap, channel="trace")
        _dumps(spans, workdir / "cmp.json")

    compare_argv = (
        "compare", "--baseline", "off.json", "--candidate", "strict.json",
        "--quality", "quality.csv", "--output", "cmp.json", "--csv", "cmp.csv",
    )  # fmt: skip
    return Plan(
        operations=(
            simulate_op("off"),
            simulate_op("strict"),
            Operation(compare_argv, ("cmp.json", "cmp.csv"), check_compare, replay_compare),
        ),
        work_metric="segments_per_s",
        work_unit="segment/s",
        work=n * len(sessions),
        inputs={"periods": n, "modes": len(sessions)},
    )


DEVICES = ("SPA", "SPB", "SPC")
CONNECTIONS = ("WIFI", "LTE_4G", "NR_5G")
CODECS = {"AVC": 1.0, "HEVC": 0.6}  # bitrate factor per codec
RUNGS = [("240p", 400_000), ("360p", 800_000), ("480p", 1_200_000), ("720p", 2_500_000),
         ("1080p", 5_000_000), ("1440p", 9_000_000), ("2160p", 16_000_000)]  # fmt: skip


@dataclass
class _Group:
    a: float
    b: float
    reference: list[float]
    n: int = 0
    flagged: int = 0


def _write_measurements(workdir: Path, rng: random.Random, per_group: int) -> dict[str, _Group]:
    """Records from a known (a, b) per group with multiplicative current noise.

    A tenth of each group plays the cheapest rung at 25-40x its bitrate, so
    the reference current sits on the curve's floor.  About 3 % of the
    other records run below their bitrate and are flagged.
    """
    groups: dict[str, _Group] = {}
    rows: list[str] = []
    for device in DEVICES:
        for connection in CONNECTIONS:
            for codec, factor in CODECS.items():
                group = _Group(a=_uniform(rng, 0.3, 1.2), b=_uniform(rng, 0.25, 0.7), reference=[])
                groups[f"{device}/{connection}/{codec}"] = group
                current0 = _uniform(rng, 250.0, 450.0)
                for i in range(per_group):
                    rung = 0 if i < per_group // 10 else 1 + int((len(RUNGS) - 1) * rng.random())
                    resolution, base = RUNGS[rung]
                    bitrate = round(base * factor)
                    if rung == 0:
                        bw_rel = _uniform(rng, 25.0, 40.0)
                    elif rng.random() < FLAGGED_SHARE / 0.9:
                        bw_rel = _uniform(rng, 0.5, 0.95)
                    else:
                        bw_rel = _uniform(rng, 1.02, 8.0)
                    bandwidth = round(bitrate * bw_rel, 1)
                    noise = math.exp(CURRENT_NOISE_SIGMA * _gauss(rng))
                    ec = group.a * math.exp(-group.b * bw_rel) + 1.0
                    current = round(current0 * ec * noise, 4)
                    group.n += 1
                    group.flagged += bandwidth / bitrate < 1.0
                    if rung == 0:
                        group.reference.append(current)
                    rows.append(
                        f"{device},{connection},{codec},{resolution},{bitrate},"
                        f"{bandwidth!r},{current!r}"
                    )
    for i in range(len(rows) - 1, 0, -1):  # Fisher-Yates, so groups interleave
        j = int((i + 1) * rng.random())
        rows[i], rows[j] = rows[j], rows[i]
    header = "device,connection,codec,resolution,bitrate_bps,avg_bandwidth_bps,avg_current_ma\n"
    (workdir / "measurements.csv").write_text(header + "\n".join(rows) + "\n")
    return groups


def fit_measurements(workdir: Path, seed: int, scale: float = 1.0) -> Plan:
    """normalize then fit (fixed c) over a generated measurement CSV."""
    rng = random.Random(seed)
    per_group = max(round(RECORDS_PER_GROUP * scale), 300)
    groups = _write_measurements(workdir, rng, per_group)
    labels = sorted(groups)
    total = sum(g.n for g in groups.values())
    total_flagged = sum(g.flagged for g in groups.values())

    def check_normalize(workdir: Path) -> list[str]:
        entries = _json(workdir / "points.json")["combinations"]
        if [e["combination"] for e in entries] != labels:
            return ["normalize: combinations differ from the generated groups"]
        problems = []
        for entry in entries:
            label, group = entry["combination"], groups[entry["combination"]]
            counts = (entry["n_points"], entry["n_flagged"], len(entry["points"]))
            if counts != (group.n, group.flagged, group.n):
                problems.append(f"{label}: point counts differ from the generator")
            reference = sum(group.reference) / len(group.reference)
            actual = entry["reference_current_ma"]
            if not oracle.close(actual, reference):
                problems.append(f"{label}: reference current {actual!r} != {reference!r}")
        return problems

    def check_fit(workdir: Path) -> list[str]:
        entries = _json(workdir / "fits.json")["fits"]
        if [e["combination"] for e in entries] != labels + ["overall"]:
            return ["fit: combinations differ from the generated groups"]
        problems = []
        for entry in entries[:-1]:
            label, group = entry["combination"], groups[entry["combination"]]
            for name, true in (("a", group.a), ("b", group.b)):
                if not oracle.close(entry[name], true, FIT_REL_TOL):
                    problems.append(f"{label}: fitted {name}={entry[name]!r}, generated {true!r}")
            if (entry["n"], entry["excluded"]) != (group.n - group.flagged, group.flagged):
                problems.append(f"{label}: n/excluded differ from the generator")
        if (entries[-1]["n"], entries[-1]["excluded"]) != (total - total_flagged, total_flagged):
            problems.append("overall: n/excluded differ from the generator")
        return problems

    def load(spans: Spans, workdir: Path):
        text = (workdir / "measurements.csv").read_text()
        with spans.span("measurements.load_records"):
            records = load_records(text)
        spans.counts["measurements.records"] += len(records)
        with spans.span("measurements.normalize"):
            points = normalize(records)
        return records, points

    def replay_normalize(workdir: Path, spans: Spans) -> None:
        records, points = load(spans, workdir)
        with spans.span("measurements.reference_consumption"):
            for combination in points:
                reference_consumption(records, combination)
        _dumps(spans, workdir / "points.json")

    def replay_fit(workdir: Path, spans: Spans) -> None:
        _, points = load(spans, workdir)
        batches = [points[c] for c in sorted(points, key=lambda c: c.label)]
        batches.append([p for group in points.values() for p in group])
        for batch in batches:
            with spans.span("model.fit"):
                fit(batch)
            spans.counts["model.fit.calls"] += 1
            spans.counts["model.fit.points"] += len(batch)
        _dumps(spans, workdir / "fits.json")

    normalize_argv = ("normalize", "--input", "measurements.csv", "--output", "points.json")
    fit_argv = ("fit", "--input", "measurements.csv", "--output", "fits.json")
    return Plan(
        operations=(
            Operation(normalize_argv, ("points.json",), check_normalize, replay_normalize),
            Operation(fit_argv, ("fits.json",), check_fit, replay_fit),
        ),
        work_metric="records_per_s",
        work_unit="record/s",
        work=total,
        inputs={"groups": len(groups), "records": total, "flagged": total_flagged},
    )


WORKLOADS: dict[str, Callable[[Path, int, float], Plan]] = {
    "sweep-battery": sweep_battery,
    "report-roundtrip": report_roundtrip,
    "fit-measurements": fit_measurements,
}
