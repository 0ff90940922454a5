"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench

Checks that every declared metric is printed with its unit, that a
corrupted expected value or a changed artifact digest turns into failed
operations, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run

TINY = 0.01
WORKLOAD_NAMES = ("sweep-battery", "report-roundtrip", "fit-measurements")


def _run(capsys, out: Path, workload: str, trace: int) -> list[str]:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, scale=TINY, out=out) == 0
    return capsys.readouterr().out.strip().splitlines()


def test_benchmark_json_declares_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == run.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == [row[:3] for row in run.PER_LAYER]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(capsys, tmp_path, workload, trace):
    lines = _run(capsys, tmp_path, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = [row[:2] for row in (run.PER_LAYER if trace else run.END_TO_END)]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(declared)
    printed = {line.split()[0]: line.split()[2] for line in lines[1:-1]}
    work = ("segments_per_s", "segment/s")
    if workload == "fit-measurements":
        work = ("records_per_s", "record/s")
    expected = [*(row[:2] for row in run.END_TO_END), work, ("error_rate", "failed/attempted")]
    for name, unit in [*expected, *declared]:
        assert printed[name] == unit, name
    if workload == "sweep-battery" and trace:
        for band in ("light", "medium", "strict"):
            assert result["metrics"][f"simulator.adaptive.segments.{band}"]["value"] > 0


def test_corrupted_expected_value_makes_error_rate_nonzero(capsys, tmp_path, monkeypatch):
    honest = oracle.session

    def corrupted(*args, **kwargs):
        expected = honest(*args, **kwargs)
        expected.ec[0] *= 1.5
        return expected

    monkeypatch.setattr(oracle, "session", corrupted)
    lines = _run(capsys, tmp_path, "report-roundtrip", 0)
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] > 0
    rate = next(line for line in lines if line.startswith("error_rate")).split()[1]
    assert float(rate) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = ["--workload", "sweep-battery", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_artifact_digests_must_repeat_across_runs_with_one_seed(capsys, tmp_path):
    first = json.loads(_run(capsys, tmp_path, "fit-measurements", 0)[-1])
    assert first["correct"]
    (stored,) = (tmp_path / "digests").iterdir()
    digests = json.loads(stored.read_text())
    assert json.loads(_run(capsys, tmp_path, "fit-measurements", 0)[-1])["correct"]
    stored.write_text(json.dumps({name: "0" * 64 for name in digests}))
    tampered = json.loads(_run(capsys, tmp_path, "fit-measurements", 0)[-1])
    assert not tampered["correct"] and tampered["failed"] == len(digests)
