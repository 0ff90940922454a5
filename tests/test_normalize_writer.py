"""``normalize``'s points file against ``json.dumps`` of its dict form.

The command lays each group's points out from formatted columns; the dict
form below is how it built the document before, and stays here as the
oracle.
"""

from __future__ import annotations

import csv
import io
import json

from hypothesis import given, settings, strategies as st

from abrenergy import __version__, load_records, normalize, reference_consumption
from abrenergy.cli import main


def oracle_text(text: str, path: str) -> str:
    records = load_records(text)
    groups = normalize(records)
    combinations = []
    for combination in sorted(groups, key=lambda c: c.label):
        points = groups[combination]
        combinations.append(
            {
                "combination": combination.label,
                "reference_current_ma": reference_consumption(records, combination),
                "n_points": len(points),
                "n_flagged": sum(1 for p in points if p.flagged),
                "points": [
                    {"bw_rel": p.bw_rel, "ec_rel": p.ec_rel, "flagged": p.flagged}
                    for p in points
                ],
            }
        )
    provenance = {"tool": "abrenergy", "version": __version__, "subcommand": "normalize",
                  "config": {"input": path}}  # fmt: skip
    payload = {"schema": 2, "provenance": provenance, "combinations": combinations}
    return json.dumps(payload, indent=2) + "\n"


#: Characters a device name can hold: no line breaks, since the reader
#: splits the document into lines first, no lone surrogates, which UTF-8
#: cannot write, and no ``/``, which would join two groups' labels.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
labels = st.one_of(
    st.sampled_from(['"points": null', "null", '"', "\\", "résumé 日本"]),
    st.text(st.one_of(st.sampled_from('"\\\t\x00\x1f\x7f :,{}[]é日\U0001f3a5'),
                      st.characters(exclude_categories=("Cs",),
                                    exclude_characters=_LINE_BREAKS + "/")),
            min_size=1, max_size=8),
).filter(lambda s: s.strip() and not s.strip().startswith("#"))  # fmt: skip

ratios = {
    "flagged": st.floats(1e-6, 0.999),
    "unflagged": st.floats(1.0, 1e6),
}
positive = st.floats(1e-3, 1e9)


@st.composite
def measurement_rows(draw) -> list[list[str]]:
    """Groups of one or more points, each group all flagged, none flagged or
    mixed, in an order that interleaves the groups."""
    rows = []
    n_groups = draw(st.integers(1, 4))
    for _ in range(n_groups):
        device = draw(labels)
        connection = draw(st.sampled_from(["wifi", "5G", "LTE", "x\"y"]))
        codec = draw(st.sampled_from(["AVC", "h265", "vp9"]))
        kinds = st.sampled_from(draw(st.sampled_from([["flagged"], ["unflagged"],
                                                      ["flagged", "unflagged"]])))  # fmt: skip
        for _ in range(draw(st.integers(1, 5))):
            bitrate = draw(st.integers(1, 50_000_000))
            bandwidth = bitrate * draw(ratios[draw(kinds)])
            resolution = draw(st.sampled_from(["240p", "480p", "720p", "hd"]))
            rows.append([device, connection, codec, resolution, str(bitrate),
                         repr(bandwidth), repr(draw(positive))])  # fmt: skip
    return draw(st.permutations(rows))


def write_and_normalize(workdir, rows: list[list[str]]) -> tuple[str, str]:
    """The command's points file for these rows, and the oracle's text."""
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["device", "connection", "codec", "resolution", "bitrate_bps",
                     "avg_bandwidth_bps", "avg_current_ma"])  # fmt: skip
    writer.writerows(rows)
    source, output = workdir / "measurements.csv", workdir / "points.json"
    source.write_text(sink.getvalue())
    assert main(["normalize", "--input", str(source), "--output", str(output)]) == 0
    return output.read_text(), oracle_text(sink.getvalue(), str(source))


@settings(max_examples=200, deadline=None)
@given(measurement_rows())
def test_points_file_equals_json_dumps_of_the_dict_form(tmp_path_factory, rows):
    written, expected = write_and_normalize(tmp_path_factory.mktemp("normalize"), rows)
    assert written == expected


def test_one_point_groups_all_flagged_and_none_flagged(tmp_path):
    rows = [
        ['"points": null', "wifi", "AVC", "240p", "400000", "100000", "300"],  # flagged
        ["solo", "wifi", "AVC", "240p", "400000", "900000", "300"],
        ["low", "5G", "HEVC", "240p", "400000", "100000", "300"],
        ["low", "5G", "HEVC", "480p", "800000", "700000", "350"],
    ]
    written, expected = write_and_normalize(tmp_path, rows)
    assert written == expected
    groups = json.loads(written)["combinations"]
    assert [(g["n_points"], g["n_flagged"]) for g in groups] == [(1, 1), (2, 2), (1, 0)]
