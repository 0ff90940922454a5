"""End-to-end command-line behavior: the four subcommands, the channel
mini-grammar, provenance, and byte-level reproducibility."""

from __future__ import annotations

import csv
import json
import math

import pytest

from abrenergy import load_trace
from abrenergy.cli import main, parse_bandwidth, parse_channel_spec
from conftest import STOCK_LADDER_CSV

LADDER_NAMES = [line.split(",")[0] for line in STOCK_LADDER_CSV.splitlines()[1:]]


@pytest.fixture()
def ladder_file(tmp_path):
    path = tmp_path / "ladder.csv"
    path.write_text(STOCK_LADDER_CSV)
    return str(path)


def make_measurements(tmp_path, a=0.9, b=0.45, ec_ref=250.0):
    """On-curve synthetic measurements; the reference rows sit far out on
    the tail so every point is exact."""
    rows = ["device,connection,codec,resolution,bitrate_bps,avg_bandwidth_bps,avg_current_ma"]
    for _ in range(2):
        rows.append(f"labdev,WIFI,HEVC,240p,650000,650000000,{ec_ref!r}")
    for bw_rel in (1.2, 1.8, 2.5, 3.3, 4.1, 5.5):
        current = ec_ref * (a * math.exp(-b * bw_rel) + 1.0)
        rows.append(f"labdev,WIFI,HEVC,576p,2000000,{2_000_000 * bw_rel!r},{current!r}")
    rows.append("labdev,WIFI,HEVC,1080p,5000000,4000000,400.0")  # below-rate, flagged
    path = tmp_path / "measurements.csv"
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestBandwidthGrammar:
    def test_suffixes(self):
        assert parse_bandwidth("22M") == 22e6
        assert parse_bandwidth("650k") == 650_000.0
        assert parse_bandwidth("0.65m") == 650_000.0
        assert parse_bandwidth("1g") == 1e9
        assert parse_bandwidth("650000") == 650_000.0

    def test_rejects_garbage(self):
        for bad in ("", "22Q", "-5M", "1,2"):
            with pytest.raises(ValueError):
                parse_bandwidth(bad)


class TestChannelGrammar:
    def test_constant(self):
        trace, desc = parse_channel_spec("constant:22M", None, 6.0)
        assert len(trace) == 360
        assert trace.bandwidths[0] == 22e6
        assert desc["kind"] == "constant"

    def test_staircase_defaults_to_stock_menu(self):
        trace, desc = parse_channel_spec("staircase", 10, 6.0)
        assert [v / 1e6 for v in trace.bandwidths] == [1, 4, 7, 10, 13, 16, 19, 22, 19, 16]

    def test_staircase_custom_values(self):
        trace, _ = parse_channel_spec("staircase:1M,2M,3M", 5, 6.0)
        assert [v / 1e6 for v in trace.bandwidths] == [1, 2, 3, 2, 1]

    def test_random_defaults_and_seed_only_form(self):
        trace, desc = parse_channel_spec("random:seed=7", None, 6.0)
        assert desc["seed"] == 7 and desc["block"] == 10
        assert len(trace) == 360

    def test_random_full_form(self):
        trace, desc = parse_channel_spec("random:values=1M,4M,7M,block=5,seed=3", 20, 6.0)
        assert desc["values_bps"] == [1e6, 4e6, 7e6]
        assert desc["block"] == 5
        for start in range(0, 20, 5):
            assert len(set(trace.bandwidths[start : start + 5])) == 1

    def test_trace_file_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("period,bandwidth_bps\n0,1000000\n1,2000000\n2,3000000\n")
        trace, desc = parse_channel_spec(f"trace:{path}", None, 6.0)
        assert trace.bandwidths == (1e6, 2e6, 3e6)
        truncated, _ = parse_channel_spec(f"trace:{path}", 2, 6.0)
        assert len(truncated) == 2
        with pytest.raises(ValueError, match="only 3 periods"):
            parse_channel_spec(f"trace:{path}", 5, 6.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown channel kind"):
            parse_channel_spec("fading:22M", None, 6.0)

    @pytest.mark.parametrize("spec, message", [
        ("random:block=abc", "random-channel option 'block' must be an integer, got 'abc'"),
        ("random:seed=x", "random-channel option 'seed' must be an integer, got 'x'"),
        ("random:values=1M,4M,block=2.5",
         "random-channel option 'block' must be an integer, got '2.5'"),
    ])  # fmt: skip
    def test_random_option_that_is_not_an_integer_exits_two(self, ladder_file, capsys, spec,
                                                            message):
        assert main(["simulate", "--ladder", ladder_file, "--channel", spec,
                     "--mode", "off", "--params", "overall", "--segments", "5"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("segments", [0, -1])
    def test_segments_below_one_exit_two(self, tmp_path, ladder_file, capsys, segments):
        path = tmp_path / "t.csv"
        path.write_text("period,bandwidth_bps\n0,1000000\n1,2000000\n2,3000000\n")
        for channel in (f"trace:{path}", "constant:22M"):
            assert main(["simulate", "--ladder", ladder_file, "--channel", channel,
                         "--mode", "off", "--params", "overall",
                         "--segments", str(segments)]) == 2
            assert f"--segments must be at least 1, got {segments}" in capsys.readouterr().err


class TestSimulateAll:
    def test_comparison_csv_high_capacity(self, tmp_path, ladder_file):
        out_csv = tmp_path / "cmp.csv"
        out_json = tmp_path / "cmp.json"
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "constant:22M",
            "--mode", "all", "--params", "overall", "--segments", "360",
            "--output", str(out_json), "--csv", str(out_csv),
        ])
        assert code == 0
        lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[0] == ["channel", "mode", "energy_pct", "psnr", "d_psnr",
                           "ssim", "d_ssim", "vmaf", "d_vmaf"]
        by_mode = {r[1]: r for r in rows[1:]}
        assert float(by_mode["off"][2]) == 100.00
        assert abs(float(by_mode["strict"][2]) - 68.40) <= 0.05
        assert abs(float(by_mode["light"][2]) - 81.42) <= 0.05
        payload = json.loads(out_json.read_text())
        assert payload["skipped"] == ["adaptive: battery not configured"]
        assert "adaptive" not in by_mode

    def test_adaptive_included_when_battery_given(self, tmp_path, ladder_file):
        out = tmp_path / "cmp.json"
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "constant:22M",
            "--mode", "all", "--params", "overall",
            "--battery-capacity-mah", "1000", "--reference-current-ma", "1000",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        labels = [r["mode"] for r in payload["comparison"]["rows"]]
        assert labels == ["off", "light", "medium", "strict", "adaptive"]

    def test_output_is_byte_reproducible(self, tmp_path, ladder_file):
        args = [
            "simulate", "--ladder", ladder_file, "--channel",
            "random:values=1M,7M,22M,block=10,seed=5", "--mode", "all",
            "--params", "overall",
        ]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert b'"seed": 5' in first.read_bytes()

    def test_no_timestamps_in_provenance(self, tmp_path, ladder_file):
        out = tmp_path / "o.json"
        main(["simulate", "--ladder", ladder_file, "--channel", "constant:13M",
              "--mode", "all", "--params", "overall", "--output", str(out)])
        prov = json.loads(out.read_text())["provenance"]
        assert set(prov) == {"tool", "version", "subcommand", "config"}


class TestSimulateSingle:
    def test_report_and_per_segment_csv(self, tmp_path, ladder_file):
        out = tmp_path / "light.json"
        seg = tmp_path / "segments.csv"
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "constant:22M",
            "--mode", "light", "--params", "overall", "--segments", "120",
            "--output", str(out), "--per-segment", str(seg),
        ])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["n_segments"] == 120
        assert report["mode"]["gamma"] == 1.5
        lines = seg.read_text().splitlines()
        assert lines[0].startswith("# provenance: ")
        assert lines[1].startswith("segment,bandwidth_bps,gamma,selected,")
        assert len(lines) == 2 + 120

    def test_custom_gamma(self, tmp_path, ladder_file):
        out = tmp_path / "c.json"
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "constant:22M",
            "--mode", "custom", "--gamma", "2.5", "--params", "overall",
            "--segments", "10", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["mode"] == {"kind": "custom", "gamma": 2.5}
        # 22/2.5 = 8.8 Mbps budget -> the 7.5 Mbps rung
        assert report["per_segment"][0]["selected"] == "1200p"

    def test_gamma_with_named_mode_is_rejected(self, ladder_file, capsys):
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "constant:22M",
            "--mode", "light", "--gamma", "2.5", "--params", "overall",
        ])
        assert code == 2
        assert "--mode custom" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--mode", "custom", "--gamma", "nan"], "gamma"),
        (["--mode", "off", "--battery-capacity-mah", "nan",
          "--reference-current-ma", "300"], "capacity_mah"),
        (["--mode", "off", "--battery-capacity-mah", "3000",
          "--reference-current-ma", "inf"], "reference_current_ma"),
        (["--mode", "off", "--params", "a=1,b=1,c=-5"], "c must be non-negative"),
    ])
    def test_non_finite_or_negative_inputs_exit_two(self, ladder_file, capsys, flags, field):
        argv = ["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                "--params", "overall", "--segments", "5", *flags]
        assert main(argv) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--mode", "all", "--gamma", "3"], "--gamma applies to --mode custom only"),
        (["--mode", "all", "--per-segment", "s.csv"], "--per-segment applies to single-mode"),
        (["--mode", "off", "--csv", "c.csv"], "--csv applies to --mode all only"),
        (["--mode", "off", "--initial-soc", "50"], "--initial-soc applies only with a battery"),
        (["--mode", "strict", "--battery-capacity-mah", "3000", "--reference-current-ma", "300",
          "--adaptive-high", "80"], "--adaptive-high applies only when an adaptive mode runs"),
        (["--mode", "all", "--adaptive-low", "20"],
         "--adaptive-low applies only when an adaptive mode runs"),
    ])
    def test_ignored_options_exit_two(self, tmp_path, ladder_file, capsys, flags, message):
        flags = [str(tmp_path / f) if f.endswith(".csv") else f for f in flags]
        argv = ["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                "--params", "overall", "--segments", "5", "--output",
                str(tmp_path / "out.json"), *flags]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ladder.csv"]  # nothing written

    def test_adaptive_needs_battery(self, ladder_file, capsys):
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "constant:22M",
            "--mode", "adaptive", "--params", "overall",
        ])
        assert code == 2
        assert "battery" in capsys.readouterr().err

    def test_explicit_params_and_dump_trace(self, tmp_path, ladder_file):
        out = tmp_path / "r.json"
        dump = tmp_path / "trace.csv"
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "staircase",
            "--mode", "off", "--params", "a=1.154,b=0.677,c=1",
            "--segments", "30", "--output", str(out), "--dump-trace", str(dump),
        ])
        assert code == 0
        dumped = load_trace(dump.read_text())  # comment header is skipped
        assert len(dumped) == 30
        assert dumped.bandwidths[0] == 1e6

    def test_replaying_a_dumped_trace_matches(self, tmp_path, ladder_file):
        first = tmp_path / "first.json"
        dump = tmp_path / "trace.csv"
        main(["simulate", "--ladder", ladder_file, "--channel", "random:seed=11",
              "--mode", "strict", "--params", "overall", "--output", str(first),
              "--dump-trace", str(dump)])
        second = tmp_path / "second.json"
        main(["simulate", "--ladder", ladder_file, "--channel", f"trace:{dump}",
              "--mode", "strict", "--params", "overall", "--output", str(second)])
        a = json.loads(first.read_text())["report"]
        b = json.loads(second.read_text())["report"]
        assert a["mean_ec_rel"] == b["mean_ec_rel"]
        assert a["context"]["trace_digest"] == b["context"]["trace_digest"]

    def test_initial_soc_below_thresholds_stays_strict(self, tmp_path, ladder_file):
        out = tmp_path / "a.json"
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "constant:22M",
            "--mode", "adaptive", "--params", "overall", "--segments", "20",
            "--battery-capacity-mah", "4000", "--reference-current-ma", "500",
            "--initial-soc", "25", "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert all(s["gamma"] == 4.0 for s in report["per_segment"])


class TestNormalizeAndFit:
    def test_normalize_counts_and_flags(self, tmp_path, capsys):
        meas = make_measurements(tmp_path)
        assert main(["normalize", "--input", meas]) == 0
        payload = json.loads(capsys.readouterr().out)
        (combo,) = payload["combinations"]
        assert combo["combination"] == "labdev/WIFI/HEVC"
        assert combo["n_points"] == 9
        assert combo["n_flagged"] == 1
        assert combo["reference_current_ma"] == pytest.approx(250.0)
        unity = [p for p in combo["points"] if abs(p["ec_rel"] - 1.0) < 1e-9]
        assert len(unity) == 2

    def test_fit_recovers_the_generating_parameters(self, tmp_path):
        meas = make_measurements(tmp_path, a=0.9, b=0.45)
        fits_path = tmp_path / "fits.json"
        assert main(["fit", "--input", meas, "--output", str(fits_path)]) == 0
        payload = json.loads(fits_path.read_text())
        (entry,) = payload["fits"]
        assert entry["combination"] == "labdev/WIFI/HEVC"
        assert entry["a"] == pytest.approx(0.9, abs=1e-6)
        assert entry["b"] == pytest.approx(0.45, abs=1e-6)
        assert entry["c"] == 1.0
        assert entry["r2"] == pytest.approx(1.0, abs=1e-9)
        assert entry["n"] == 8 and entry["excluded"] == 1
        assert list(entry) == ["combination", "a", "b", "c", "r2", "pcc", "srocc",
                               "n", "excluded"]

    def test_fix_c_and_free_c_together_are_a_usage_error(self, tmp_path, capsys):
        meas = make_measurements(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--input", meas, "--fix-c", "1.2", "--free-c"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        out = tmp_path / "fits.json"
        for flags, fix_c in (([], 1.0), (["--fix-c", "1.2"], 1.2), (["--free-c"], None)):
            assert main(["fit", "--input", meas, "--output", str(out), *flags]) == 0
            assert json.loads(out.read_text())["provenance"]["config"]["fix_c"] == fix_c

    def test_fit_results_feed_simulate(self, tmp_path, ladder_file):
        meas = make_measurements(tmp_path)
        fits_path = tmp_path / "fits.json"
        main(["fit", "--input", meas, "--output", str(fits_path)])
        out = tmp_path / "r.json"
        code = main([
            "simulate", "--ladder", ladder_file, "--channel", "constant:22M",
            "--mode", "off", "--params", f"fit:{fits_path}", "--segments", "10",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())["report"]
        assert report["context"]["params"]["a"] == pytest.approx(0.9, abs=1e-6)

    def test_fit_labels_and_measurement_spellings_name_presets(
        self, tmp_path, ladder_file, capsys
    ):
        make_measurements(tmp_path)
        meas = tmp_path / "measurements.csv"
        meas.write_text(meas.read_text().replace("labdev,WIFI,", "SPC,lte,"))
        fits_path = tmp_path / "fits.json"
        assert main(["fit", "--input", str(meas), "--output", str(fits_path)]) == 0
        (entry,) = json.loads(fits_path.read_text())["fits"]
        assert entry["combination"] == "SPC/LTE_4G/HEVC"
        for label in (entry["combination"], "SPC/LTE/HEVC", "spc/4g/h265"):
            out = tmp_path / "r.json"
            assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                         "--mode", "off", "--params", label, "--segments", "5",
                         "--output", str(out)]) == 0  # fmt: skip
            params = json.loads(out.read_text())["report"]["context"]["params"]
            assert (params["a"], params["b"]) == (1.021, 0.356)
        assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                     "--mode", "off", "--params", "SPC/XG/HEVC", "--segments", "5"]) == 2  # fmt: skip
        assert "error: unknown preset 'SPC/XG/HEVC'" in capsys.readouterr().err

    def test_fit_pools_an_overall_entry_across_combinations(self, tmp_path):
        meas = make_measurements(tmp_path)
        extra = (
            "tabdev,WIFI,HEVC,240p,650000,650000000,100.0\n"
            "tabdev,WIFI,HEVC,576p,2000000,3000000,130.0\n"
            "tabdev,WIFI,HEVC,576p,2000000,6000000,110.0\n"
        )
        with open(meas, "a") as fh:
            fh.write(extra)
        fits_path = tmp_path / "fits.json"
        assert main(["fit", "--input", meas, "--output", str(fits_path)]) == 0
        labels = [f["combination"] for f in json.loads(fits_path.read_text())["fits"]]
        assert labels == ["labdev/WIFI/HEVC", "tabdev/WIFI/HEVC", "overall"]

    def test_malformed_input_exits_two_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "device,connection,codec,resolution,bitrate_bps,avg_bandwidth_bps,avg_current_ma\n"
            "labdev,WIFI,HEVC,240p,650000,oops,250\n"
        )
        assert main(["normalize", "--input", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["normalize", "fit"])
    def test_ratio_that_overflows_exits_two(self, tmp_path, capsys, command):
        # every cell is finite, but 1e300 / 1e-300 is not: normalize wrote
        # "bw_rel": Infinity, which is not JSON, and fit failed inside LAPACK
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "device,connection,codec,resolution,bitrate_bps,avg_bandwidth_bps,avg_current_ma\n"
            "SPA,WIFI,AVC,240p,1e-300,1e300,300\n"
            "SPA,WIFI,AVC,480p,1200000,1800000,400\n"
            "SPA,WIFI,AVC,720p,2500000,5625000,380\n"
        )
        output = tmp_path / "out.json"
        assert main([command, "--input", str(bad), "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bw_rel must be positive and finite, got inf" in err
        assert err.count("\n") == 1 and not output.exists()

    @pytest.mark.parametrize("command", ["normalize", "fit"])
    def test_file_without_records_exits_two(self, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        empty.write_text("# nothing measured yet\n"
                         "device,connection,codec,resolution,bitrate_bps,avg_bandwidth_bps,"
                         "avg_current_ma\n")  # fmt: skip
        output = tmp_path / "out.json"
        assert main([command, "--input", str(empty), "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert err == "error: measurement file contains no records\n"
        assert not output.exists()

    @pytest.mark.parametrize("command", ["normalize", "fit"])
    def test_slash_in_a_group_field_exits_two(self, tmp_path, capsys, command):
        # both groups would be labelled A/WIFI/X/HEVC
        rows = [f"{group},{res},{rate},{rate * 2},{current}"
                for group in ("A/WIFI,X,HEVC", "A,WIFI/X,HEVC")
                for res, rate, current in (("240p", 1, 100), ("480p", 2, 150), ("720p", 4, 200))]
        source = tmp_path / "m.csv"
        source.write_text("device,connection,codec,resolution,bitrate_bps,avg_bandwidth_bps,"
                          "avg_current_ma\n" + "\n".join(rows) + "\n")  # fmt: skip
        output = tmp_path / "out.json"
        assert main([command, "--input", str(source), "--output", str(output)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 2: device must not contain '/', got 'A/WIFI'\n"
        assert not output.exists()


def dropped(payload, *path):
    """Remove the key at the end of ``path`` from ``payload``."""
    *parents, key = path
    for parent in parents:
        payload = payload[parent]
    del payload[key]


def rename_selected_rung(payload):
    """Rename the first segment's rung in the ladder and the per-segment record,
    keeping the saved digest."""
    report = payload["report"]
    old = report["per_segment"][0]["selected"]
    for row in report["ladder"] + report["per_segment"]:
        for key in ("name", "selected"):
            if row.get(key) == old:
                row[key] = "renamed"


def edited_row(i, **values):
    """An edit that sets ``values`` in row ``i`` of the per-segment record."""
    return lambda payload: payload["report"]["per_segment"][i].update(values)


class TestCompareCommand:
    def write_quality(self, tmp_path, ladder_names):
        path = tmp_path / "quality.csv"
        lines = ["name,psnr,ssim,vmaf"]
        for i, name in enumerate(ladder_names):
            lines.append(f"{name},{30 + 2 * i},{0.9 + 0.008 * i:.4f},{60 + 3 * i}")
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_compare_saved_reports(self, tmp_path, ladder_file, ladder):
        base, cand = tmp_path / "off.json", tmp_path / "strict.json"
        for mode, path in (("off", base), ("strict", cand)):
            main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                  "--mode", mode, "--params", "overall", "--segments", "60",
                  "--output", str(path)])
        quality = self.write_quality(tmp_path, [rep.name for rep in ladder])
        out_csv = tmp_path / "cmp.csv"
        code = main(["compare", "--baseline", str(base), "--candidate", str(cand),
                     "--quality", quality, "--csv", str(out_csv),
                     "--output", str(tmp_path / "cmp.json")])
        assert code == 0
        lines = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.reader(lines))
        assert rows[1][:2] == ["constant", "off"] and rows[2][:2] == ["constant", "strict"]
        assert abs(float(rows[2][2]) - 68.39) < 0.02
        assert float(rows[2][8]) == pytest.approx(12.0)  # vmaf drop, perceptible

    def test_mismatched_runs_are_rejected(self, tmp_path, ladder_file, capsys):
        base, cand = tmp_path / "a.json", tmp_path / "b.json"
        main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
              "--mode", "off", "--params", "overall", "--output", str(base)])
        main(["simulate", "--ladder", ladder_file, "--channel", "constant:13M",
              "--mode", "strict", "--params", "overall", "--output", str(cand)])
        assert main(["compare", "--baseline", str(base), "--candidate", str(cand)]) == 2
        assert "context" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p["report"]["mode"].update(gamma=4.0), "off mode has gamma 1.0, got 4.0"),
        (lambda p: p["report"]["mode"].pop("gamma"), "missing key 'gamma'"),
        (lambda p: p["report"]["context"].pop("params"), "missing key 'params'"),
        (lambda p: p["report"]["per_segment"][0].update(selected="8K"),
         "per_segment row 0: 'selected' is '8K', but the stored columns give '2160p'"),
        (lambda p: p["report"]["mode"].update(kind=5), "'kind' must be a string, got an integer"),
        (lambda p: p["report"]["ladder"][0].update(width="wide"),
         "'width' must be an integer, got a string"),
        (lambda p: p["report"]["per_segment"][1].update(bandwidth_bps="x"),
         "'bandwidth_bps' must be a number or an integer, got a string"),
        (lambda p: p["report"].update(mean_ec_rel=float("nan")),
         "'mean_ec_rel' must be finite, got nan"),
        (lambda p: p["report"].update(per_segment=p["report"]["per_segment"][:2]),
         "per_segment holds 2 rows, but n_segments is 5"),
        (lambda p: p["report"]["per_segment"][0].update(soc_after=50.0),
         "'soc_after' mixes null and numbers"),
        (lambda p: p.update(provenance=[]), "'provenance' must be an object, got an array"),
        (lambda p: p["provenance"].update(config="x"), "'config' must be an object, got a string"),
        (lambda p: p["report"].update(mean_ec_rel=0.5),
         "'mean_ec_rel' is 0.5, but the per-segment record gives 1.548"),
        (lambda p: p["report"].update(mean_bitrate_bps=1.0),
         "'mean_bitrate_bps' is 1.0, but the per-segment record gives 20000000.0"),
        (lambda p: p["report"].update(stall_count=1),
         "'stall_count' is 1, but the per-segment record gives 0"),
        (lambda p: p["report"].update(fallback_count=5),
         "'fallback_count' is 5, but the per-segment record gives 0"),
        (lambda p: p["report"].update(final_soc=50.0),
         "'final_soc' is 50.0, but the per-segment record gives None"),
        (lambda p: p["report"].update(soc_depleted=True),
         "'soc_depleted' is True, but the per-segment record gives False"),
        (lambda p: p["report"].update(n_segments=0, per_segment=[]),
         "per_segment must hold at least one row"),
        (lambda p: p["report"]["ladder"][0].update(name="\ud800"),
         "representation name '\\ud800' cannot be written as UTF-8"),
        # compare reads only the document simulate writes
        (lambda p: [p.update(p.pop("report")), p.pop("provenance")], "missing key 'provenance'"),
        (lambda p: dropped(p, "provenance"), "missing key 'provenance'"),
        (lambda p: dropped(p, "provenance", "config"), "missing key 'config'"),
        (lambda p: dropped(p, "provenance", "config", "channel"), "missing key 'channel'"),
        (lambda p: dropped(p, "provenance", "config", "channel", "kind"), "missing key 'kind'"),
        (lambda p: p["provenance"]["config"]["channel"].update(kind=None),
         "'kind' must be a string, got null"),
        (lambda p: dropped(p, "report"), "missing key 'report'"),
        (lambda p: dropped(p, "report", "per_segment"), "missing key 'per_segment'"),
        (lambda p: p["report"].update(per_segment={}),
         "'per_segment' must be an array, got an object"),
        (rename_selected_rung, "'ladder_digest' is"),
        # the derived per-segment keys must be what the stored columns give
        (lambda p: p["report"]["per_segment"][1].update(index=-7),
         "per_segment row 1: 'index' is -7, but the stored columns give 1"),
        (lambda p: p["report"]["per_segment"][0].update(index=True),
         "'index' must be an integer, got true or false"),
        (lambda p: dropped(p, "report", "per_segment", 3, "index"), "missing key 'index'"),
        (lambda p: p["report"]["per_segment"][2].update(fallback="banana"),
         "'fallback' must be true or false, got a string"),
        (lambda p: p["report"]["per_segment"][3].update(fallback=True),
         "per_segment row 3: 'fallback' is True, but the stored columns give False"),
        (lambda p: dropped(p, "report", "per_segment", 0, "fallback"), "missing key 'fallback'"),
        (lambda p: p["report"]["per_segment"][0].update(stalled=None),
         "'stalled' must be true or false, got null"),
        (lambda p: p["report"]["per_segment"][4].update(stalled=True),
         "per_segment row 4: 'stalled' is True, but the stored columns give False"),
        (lambda p: dropped(p, "report", "per_segment", 2, "stalled"), "missing key 'stalled'"),
        # compare would write a column for any key here
        (lambda p: p["report"].update(mean_quality={"foo": 1.0}),
         "'mean_quality' must be null or hold scores among psnr, ssim and vmaf, got keys ['foo']"),
        (lambda p: p["report"].update(mean_quality={}),
         "'mean_quality' must be null or hold scores among psnr, ssim and vmaf, got keys []"),
    ])
    def test_incoherent_saved_report_exits_two(self, tmp_path, ladder_file, capsys, edit,
                                               message):
        base, cand = tmp_path / "off.json", tmp_path / "strict.json"
        for mode, path in (("off", base), ("strict", cand)):
            main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                  "--mode", mode, "--params", "overall", "--segments", "5",
                  "--output", str(path)])
        payload = json.loads(base.read_text())
        edit(payload)
        base.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["compare", "--baseline", str(base), "--candidate", str(cand)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err


    @pytest.mark.parametrize("edit, message", [
        (lambda p: dropped(p, "report", "mode", "adaptive"), "missing key 'adaptive'"),
        (lambda p: p["report"]["mode"].update(adaptive={}), "missing key 'high_threshold'"),
        (lambda p: dropped(p, "report", "mode", "adaptive", "low_threshold"),
         "missing key 'low_threshold'"),
        # EnergyMode reads "Adaptive" as the adaptive kind, which defaults its thresholds
        (lambda p: [p["report"]["mode"].update(kind="Adaptive"),
                    dropped(p, "report", "mode", "adaptive")], "missing key 'adaptive'"),
    ])  # fmt: skip
    def test_adaptive_thresholds_are_required(self, tmp_path, ladder_file, capsys, edit,
                                              message):
        base, cand = tmp_path / "off.json", tmp_path / "adaptive.json"
        for mode, path in (("off", base), ("adaptive", cand)):
            main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                  "--mode", mode, "--params", "overall", "--segments", "5",
                  "--battery-capacity-mah", "1000", "--reference-current-ma", "500",
                  "--output", str(path)])
        payload = json.loads(cand.read_text())
        edit(payload)
        cand.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["compare", "--baseline", str(base), "--candidate", str(cand)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("mode, edit, message", [
        # each derived value of a strict report, and the mode it was run under
        ("strict", edited_row(0, threshold_bps=5e6),
         "per_segment row 0: 'threshold_bps' is 5000000.0, but the stored columns give 5500000.0"),
        ("strict", edited_row(0, candidates=5),
         "per_segment row 0: 'candidates' is 5, but the stored columns give 6"),
        ("strict", edited_row(0, bw_rel=4.0),
         "per_segment row 0: 'bw_rel' is 4.0, but the stored columns give 4.4"),
        ("strict", edited_row(0, download_time_s=1.0),
         "per_segment row 0: 'download_time_s' is 1.0, but the stored columns give 1.36363"),
        ("strict", edited_row(0, gamma=2.0),
         "per_segment row 0: 'gamma' is 2.0, but the stored columns give 4.0"),
        ("strict", lambda p: p["report"].update(mode={"kind": "off", "gamma": 1.0}),
         "per_segment row 0: 'gamma' is 4.0, but the stored columns give 1.0"),
        ("strict", edited_row(2, bandwidth_bps=0), "'bandwidth_bps' must be positive"),
        # the adaptive mode's first gamma is read; each later one follows the charge
        ("adaptive", edited_row(0, gamma=3.0),
         "per_segment row 0: 'gamma' is 3.0, but the adaptive mode gives 1.5 or 2.0 or 4.0"),
        ("adaptive", edited_row(0, soc_after=50.0),
         "per_segment row 1: 'gamma' is 1.5, but the stored columns give 2.0"),
        ("adaptive", lambda p: [row.update(soc_after=None) for row in p["report"]["per_segment"]],
         "adaptive mode requires a battery"),
    ])  # fmt: skip
    def test_saved_record_is_priced_again_from_its_inputs(self, tmp_path, ladder_file, capsys,
                                                          mode, edit, message):
        base, cand = tmp_path / "off.json", tmp_path / f"{mode}.json"
        battery = ["--battery-capacity-mah", "1000", "--reference-current-ma", "500"]
        for name, path in (("off", base), (mode, cand)):
            assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                         "--mode", name, "--params", "overall", "--segments", "5",
                         "--output", str(path), *(battery if name == "adaptive" else [])]) == 0
        argv = ["compare", "--baseline", str(base), "--candidate", str(cand)]
        assert main(argv) == 0
        payload = json.loads(cand.read_text())
        edit(payload)
        cand.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_colliding_ladder_digests_are_told_apart(self, tmp_path, capsys):
        # the digest joins raw fields with "," and ";", so these two ladders share it
        header = "name,width,height,label,bitrate_bps,codec\n"
        two, one = tmp_path / "two.csv", tmp_path / "one.csv"
        two.write_text(header + "a,1,1,l,100,HEVC\nb,16,9,hi,5000000,HEVC\n")
        one.write_text(header + '"a,1,1,l,100,HEVC;b",16,9,hi,5000000,HEVC\n')
        base, cand = tmp_path / "off.json", tmp_path / "strict.json"
        for ladder, mode, path in ((two, "off", base), (one, "strict", cand)):
            assert main(["simulate", "--ladder", str(ladder), "--channel", "constant:22M",
                         "--mode", mode, "--params", "overall", "--segments", "5",
                         "--output", str(path)]) == 0
        digests = {json.loads(p.read_text())["report"]["context"]["ladder_digest"]
                   for p in (base, cand)}
        assert len(digests) == 1
        capsys.readouterr()
        assert main(["compare", "--baseline", str(base), "--candidate", str(cand)]) == 2
        assert "mismatched session contexts" in capsys.readouterr().err

    def vmaf_only(self, tmp_path, name, vmaf):
        path = tmp_path / name
        path.write_text("name,psnr,ssim,vmaf\n"
                        + "".join(f"{rep},,,{v}\n" for rep, v in zip(LADDER_NAMES, vmaf)))
        return str(path)

    def test_given_quality_replaces_saved_means(self, tmp_path, ladder_file):
        # at 22M, off plays 2160p and strict 1080p, every segment
        q1 = self.vmaf_only(tmp_path, "q1.csv", [40 + 3 * i for i in range(10)])
        q2 = self.vmaf_only(tmp_path, "q2.csv", [30 + 4 * i for i in range(10)])
        base, cand = tmp_path / "off.json", tmp_path / "strict.json"
        for mode, path in (("off", base), ("strict", cand)):
            assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                         "--mode", mode, "--params", "overall", "--segments", "6",
                         "--quality", q1, "--output", str(path)]) == 0
        out = tmp_path / "cmp.json"
        means = {}
        for quality in (None, q2):
            flags = [] if quality is None else ["--quality", quality]
            assert main(["compare", "--baseline", str(base), "--candidate", str(cand),
                         "--output", str(out), *flags]) == 0
            rows = json.loads(out.read_text())["comparison"]["rows"]
            means[quality] = [row["quality"]["vmaf"] for row in rows]
        assert means == {None: [67.0, 55.0], q2: [66.0, 50.0]}

    def test_quality_needs_a_per_segment_record(self, tmp_path, ladder_file, capsys):
        base, cand = tmp_path / "off.json", tmp_path / "strict.json"
        for mode, path in (("off", base), ("strict", cand)):
            main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                  "--mode", mode, "--params", "overall", "--segments", "5",
                  "--output", str(path)])
        payload = json.loads(cand.read_text())
        payload["report"]["per_segment"] = None
        cand.write_text(json.dumps(payload))
        quality = self.vmaf_only(tmp_path, "q.csv", range(10))
        capsys.readouterr()
        assert main(["compare", "--baseline", str(base), "--candidate", str(cand),
                     "--quality", quality]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "strict report has no per-segment record" in err

    @pytest.mark.parametrize("quality_csv", [
        "name,psnr,ssim,vmaf\n",
        "name,psnr,ssim,vmaf\n" + "".join(f"{name},,,\n" for name in LADDER_NAMES),
    ], ids=["header-only", "empty-cells"])  # fmt: skip
    def test_quality_file_without_scores_exits_two(self, tmp_path, ladder_file, capsys,
                                                   quality_csv):  # fmt: skip
        quality = tmp_path / "q.csv"
        quality.write_text(quality_csv)
        base, cand = tmp_path / "off.json", tmp_path / "strict.json"
        for mode, path in (("off", base), ("strict", cand)):
            assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                         "--mode", mode, "--params", "overall", "--segments", "5",
                         "--per-segment", str(tmp_path / f"{mode}.csv"),
                         "--output", str(path)]) == 0  # fmt: skip
        commands = {
            "simulate": ["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                         "--mode", "all", "--params", "overall", "--segments", "5"],
            "compare": ["compare", "--baseline", str(base), "--candidate", str(cand)],
        }  # fmt: skip
        for argv in commands.values():
            capsys.readouterr()
            output = tmp_path / "out.json"
            assert main([*argv, "--quality", str(quality), "--output", str(output)]) == 2
            assert capsys.readouterr().err == "error: quality file contains no scores\n"
            assert not output.exists()


class TestErrorPaths:
    def test_report_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text("[]")
        assert main(["compare", "--baseline", str(path), "--candidate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be an object, got an array" in err

    def test_missing_file_exits_two(self, capsys):
        assert main(["simulate", "--ladder", "/nonexistent.csv", "--channel",
                     "constant:22M", "--mode", "off", "--params", "overall"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_mode_exits_two(self, ladder_file, capsys):
        assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                     "--mode", "turbo", "--params", "overall"]) == 2
        assert "unknown mode" in capsys.readouterr().err

    def test_unknown_preset_exits_two(self, ladder_file, capsys):
        assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                     "--mode", "off", "--params", "SPZ/WIFI/AVC"]) == 2
        assert "unknown preset" in capsys.readouterr().err

    def test_half_a_battery_is_rejected(self, ladder_file, capsys):
        assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                     "--mode", "off", "--params", "overall",
                     "--battery-capacity-mah", "1000"]) == 2
        assert "reference-current" in capsys.readouterr().err

    @pytest.mark.parametrize("fits, message", [
        ({"fits": [{"combination": "x", "a": 0.9, "c": 1.0}]}, "missing key 'b'"),
        ({"combinations": []}, "missing key 'fits'"),
        ({"fits": [{"combination": "x", "a": "0.9", "b": 0.5, "c": 1.0}]},
         "'a' must be a number or an integer, got a string"),
        ({"fits": [{"combination": "x", "a": 0.9, "b": 0.5, "c": None}]},
         "'c' must be a number or an integer, got null"),
    ])
    def test_malformed_fit_file_exits_two(self, tmp_path, ladder_file, capsys, fits, message):
        path = tmp_path / "fits.json"
        path.write_text(json.dumps(fits))
        assert main(["simulate", "--ladder", ladder_file, "--channel", "constant:22M",
                     "--mode", "off", "--params", f"fit:{path}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_usage_errors_raise_system_exit(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--channel", "constant:22M"])  # missing required flags
        with pytest.raises(SystemExit):
            main(["unknown-command"])
