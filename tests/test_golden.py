"""Golden CLI artifacts: a fixed command set must keep writing the same bytes.

The digests were recorded with the per-segment scalar loop that the column
kernel replaced; any change to selection, pricing, battery drain,
aggregation or serialization shows up here as a changed sha256.  Commands
run inside ``tmp_path`` with relative paths, so the provenance blocks (which
echo the paths) are identical on every machine.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

from abrenergy.cli import main
from conftest import STOCK_LADDER_CSV

QUALITY_CSV = """\
name,psnr,ssim,vmaf
240p,31.25,0.9012,44.5
480p,33.5,0.9104,50.25
576p,35.0,0.9187,55.0
720p,36.75,0.9241,59.5
960p,38.0,0.9302,64.75
1080p,39.5,0.9366,70.0
1200p,40.25,0.9411,74.5
1440p,41.5,0.9453,79.25
1600p,42.0,0.9488,83.0
2160p,43.25,0.9521,88.5
"""


def _trace_csv(n: int = 400) -> str:
    """Blocks of 1-7 periods: off-menu values, repeats, and values below the
    lowest rung, so some segments fall back and stall."""
    rows = ["period,bandwidth_bps"]
    period, block = 0, 0
    while period < n:
        value = 400_000.0 + (block * 2_654_435) % 24_000_000 + 0.25 * (block % 4)
        for _ in range(1 + block % 7):
            if period < n:
                rows.append(f"{period},{value!r}")
                period += 1
        block += 1
    return "\n".join(rows) + "\n"


COMMANDS = [
    ("simulate", "--ladder", "ladder.csv", "--channel", "random:seed=3", "--segments", "300",
     "--mode", "all", "--params", "overall", "--quality", "quality.csv",
     "--battery-capacity-mah", "240.0", "--reference-current-ma", "300.0",
     "--output", "all.json", "--csv", "all.csv", "--dump-trace", "random.csv"),
    ("simulate", "--ladder", "ladder.csv", "--channel", "trace:trace.csv", "--mode", "adaptive",
     "--params", "overall", "--quality", "quality.csv",
     "--battery-capacity-mah", "60.0", "--reference-current-ma", "500.0",
     "--output", "adaptive.json", "--per-segment", "adaptive.csv"),
    ("simulate", "--ladder", "ladder.csv", "--channel", "trace:trace.csv", "--mode", "custom",
     "--gamma", "2.5", "--params", "SPC/4G/HEVC",
     "--output", "custom.json", "--per-segment", "custom.csv"),
    ("simulate", "--ladder", "ladder.csv", "--channel", "trace:trace.csv", "--mode", "off",
     "--params", "overall", "--output", "off.json", "--per-segment", "off.csv"),
    ("simulate", "--ladder", "ladder.csv", "--channel", "trace:trace.csv", "--mode", "strict",
     "--params", "overall", "--output", "strict.json", "--per-segment", "strict.csv"),
    ("compare", "--baseline", "off.json", "--candidate", "strict.json",
     "--quality", "quality.csv", "--output", "cmp.json", "--csv", "cmp.csv"),
]  # fmt: skip

#: The CSVs, all.json and cmp.json were recorded with the scalar session
#: loop, before the column kernel; the four report JSONs with schema 2, whose
#: rows hold only each segment's inputs.
GOLDEN_SHA256 = {
    'adaptive.csv': '52159228d2ffc24b4d3337aba6820603559d4756d9ed534d41e2ad332516adad',
    'adaptive.json': 'a2f023b962e372bc8ba18814622e46051af08058898757b7a473ac4492b8e285',
    'all.csv': '7b7df3c4f91a7d6a550fa965033154bdb1551bb6a785f50335d381bc8d621fb6',
    'all.json': '010dbd6121e6f315cceb7f9c7b08c53fa7a26b9bd94e525c2170952b4c522cdd',
    'cmp.csv': 'f5a9143740dca2dbab3b45212260420206d6cbe5290a27ea9741fb51c1885966',
    'cmp.json': '21b73ffd7e8cc92f02364fcbc50b137030960ee3cd38f224e67d36b3d5e876ed',
    'custom.csv': '37fa3e2d2bd0aca283f320e846c6d1d19a7cb78b1b95d3d22b8452ed0b3ec513',
    'custom.json': '4db6dec61826572758f1dcc5ff80d6144ea280bc7b1e5343a1e9d43fa07a85fd',
    'off.csv': 'b62c15aa4b155ce7c1ce0244def2c7d16dd0b227085f7a959b79048a0bffc7db',
    'off.json': 'e71edf3d757e17a1327a48e36f18017102a4b2b4e8ef05853db57cabc0ea1af3',
    'random.csv': 'a9b081792d543d6d5c3d5c2344f1e5711a2cf241b3f98c8cf941607c289edf1e',
    'strict.csv': 'd899389631989fb57a4dfeab29c94d618ae6469039100ae3ae6d1d69c2467952',
    'strict.json': 'f52b25bab23f4ee1c40670680cf2a885cde10ea6b4858c5716d08e19db4170a5',
}


def read_segment_csv(path: Path) -> list[dict[str, str]]:
    """The rows of a per-segment CSV, by header, after its provenance comment."""
    lines = path.read_text().splitlines(keepends=True)
    assert lines[0].startswith("# provenance: ")
    rows = list(csv.reader(lines[1:]))
    assert {len(row) for row in rows} == {13}
    return [dict(zip(rows[0], row)) for row in rows[1:]]


def run_golden_commands(workdir) -> dict[str, str]:
    """Write the inputs into ``workdir``, run every command there, and
    return the sha256 of each file it produced."""
    (workdir / "ladder.csv").write_text(STOCK_LADDER_CSV)
    (workdir / "quality.csv").write_text(QUALITY_CSV)
    (workdir / "trace.csv").write_text(_trace_csv())
    inputs = {path.name for path in workdir.iterdir()}
    for argv in COMMANDS:
        assert main(list(argv)) == 0, argv
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.iterdir())
        if path.name not in inputs
    }


#: Rung names that JSON must escape: quotes, a backslash, non-ASCII letters,
#: a tab and other control characters.
ESCAPED_LADDER_CSV = (
    "name,width,height,label,bitrate_bps,codec\n"
    '"low ""q""",428,182,240p,650000,HEVC\n'
    "back\\slash,854,382,480p,1250000,HEVC\n"
    "r\u00e9sum\u00e9 \u65e5\u672c,1280,572,720p,2500000,HEVC\n"
    '"tab\there",1920,858,1080p,5000000,HEVC\n'
    "bell\x07\x01\x7f,2880,1286,1440p,8000000,HEVC\n"
    "\u00bd-\U0001f3a5,3840,1714,2160p,11000000,HEVC\n"
)

#: Recorded with schema 2, whose per-segment CSV quotes rung names as
#: ``csv.writer`` does.
ESCAPED_SHA256 = {
    'medium.csv': '242a1048d79c0ed370bf34d8691b7aac523c6582ecee6d54e99f9f2ccee7f6f3',
    'medium.json': 'de4cbe3315c02dc96bee215ec576becb58f5eb7cda668948dc41c674fdd66b8e',
}


def test_escaped_rung_names_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "escaped.csv").write_text(ESCAPED_LADDER_CSV)
    (tmp_path / "trace.csv").write_text(_trace_csv())
    assert main(["simulate", "--ladder", "escaped.csv", "--channel", "trace:trace.csv",
                 "--mode", "medium", "--params", "overall",
                 "--battery-capacity-mah", "400.0", "--reference-current-ma", "300.0",
                 "--output", "medium.json", "--per-segment", "medium.csv"]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "medium.json").read_text())["report"]
    names = {row["name"] for row in report["ladder"]}
    assert {row["selected"] for row in read_segment_csv(tmp_path / "medium.csv")} == names
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("medium.json", "medium.csv")}  # fmt: skip
    assert digests == ESCAPED_SHA256


def test_cli_artifacts_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = run_golden_commands(tmp_path)
    capsys.readouterr()
    # the adaptive run covers what it is there for: fallbacks, all three
    # bands, and a battery that empties mid-session
    report = json.loads((tmp_path / "adaptive.json").read_text())["report"]
    assert report["soc_depleted"] and report["n_segments"] < 400
    assert {row["gamma"] for row in read_segment_csv(tmp_path / "adaptive.csv")} == {
        "1.5", "2.0", "4.0"}
    assert report["fallback_count"] > 0
    assert report["per_segment"][-1]["soc_after"] == 0.0
    assert digests == GOLDEN_SHA256


#: Five groups, two flagged points each.  The device names hold a quote, a
#: backslash, non-ASCII text and the text of a ``"points": null`` entry, and
#: the rows interleave the groups.
MEASUREMENTS_CSV = (Path(__file__).parent / "fixtures" / "measurements.csv").read_text(
    encoding="utf-8"
)

MEASUREMENT_COMMANDS = [
    ("normalize", "--input", "measurements.csv", "--output", "points.json"),
    ("fit", "--input", "measurements.csv", "--output", "fits.json"),
    ("fit", "--input", "measurements.csv", "--include-flagged", "--free-c",
     "--output", "fits_free.json"),
]  # fmt: skip

#: Recorded with schema 2; the fits with exact dot products, which changed
#: the last bit of some ``pcc`` values.  The fit digests also pin the last
#: bits of numpy's least-squares solver.
MEASUREMENT_SHA256 = {
    'fits.json': '970c47459bbc6c007e986cb7266a59b21bf71c15552bd71e8e7810174c91fb17',
    'fits_free.json': 'f8ca4d85f67df77ac76c194d838a561003bd63233aecc419343236a8816d59c1',
    'points.json': '56bad8228a9bac02790d53404b232c6926332aff4a14a61cccba1d9420f0f068',
}


def test_normalize_and_fit_are_byte_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "measurements.csv").write_text(MEASUREMENTS_CSV)
    for argv in MEASUREMENT_COMMANDS:
        assert main(list(argv)) == 0, argv
    capsys.readouterr()
    groups = json.loads((tmp_path / "points.json").read_text())["combinations"]
    assert [g["combination"].split("/")[0] for g in groups] == [
        '"points": null', 'Q"uote', "SPA", "back\\slash", "r\u00e9sum\u00e9 \u65e5\u672c"]
    assert {g["n_flagged"] for g in groups} == {2}
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in MEASUREMENT_SHA256}  # fmt: skip
    assert digests == MEASUREMENT_SHA256


def _large_measurements_csv(per_group: int = 5_001) -> str:
    """Two groups on known curves with multiplicative noise and no flagged
    record, so that the pooled fit runs over 10 002 points: more than the
    10 000 at which OpenBLAS splits a dot product across its threads."""
    rng = random.Random(14)
    rungs = (("240p", 400_000), ("720p", 2_500_000), ("1080p", 5_000_000))
    rows = ["device,connection,codec,resolution,bitrate_bps,avg_bandwidth_bps,avg_current_ma"]
    for device, a, b in (("LA", 0.8, 0.4), ("LB", 0.5, 0.6)):
        for i in range(per_group):
            resolution, bitrate = rungs[i % 3]
            bw_rel = 1.0 + 7.0 * rng.random()
            noise = 1.0 + 0.1 * (rng.random() - 0.5)
            current = round(300.0 * (a * math.exp(-b * bw_rel) + 1.0) * noise, 4)
            rows.append(f"{device},WIFI,HEVC,{resolution},{bitrate},"
                        f"{round(bitrate * bw_rel, 1)!r},{current!r}")  # fmt: skip
    return "\n".join(rows) + "\n"


#: The same bytes under any BLAS thread count (CI runs this file under one
#: and two OpenBLAS threads).
LARGE_FIT_SHA256 = "7e52046b176684d68da0ca20adf8a81474db496d98d217e64d2b9ee52873cbea"


def test_a_fit_over_more_than_ten_thousand_points_is_byte_identical(tmp_path, monkeypatch,
                                                                    capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "large.csv").write_text(_large_measurements_csv())
    assert main(["fit", "--input", "large.csv", "--output", "large_fits.json"]) == 0
    capsys.readouterr()
    fits = json.loads((tmp_path / "large_fits.json").read_text())["fits"]
    assert [(f["combination"], f["n"], f["excluded"]) for f in fits] == [
        ("LA/WIFI/HEVC", 5_001, 0), ("LB/WIFI/HEVC", 5_001, 0), ("overall", 10_002, 0)]
    digest = hashlib.sha256((tmp_path / "large_fits.json").read_bytes()).hexdigest()
    assert digest == LARGE_FIT_SHA256
