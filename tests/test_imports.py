"""Each subcommand imports only the modules it computes with.

``normalize`` needs neither numpy nor the model, ``fit`` needs no
simulator, ``simulate`` and ``compare`` no measurement code, only ``fit``
needs numpy, and only a command that writes or reads a saved report needs
its I/O; the package loads its public names on first access, so the
modules a command never touches stay unloaded.  No command but ``fit``
loads ``dataclasses`` or the ``inspect`` module it pulls in.  Each command
runs in a fresh interpreter, which then reports the modules it loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import STOCK_LADDER_CSV

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
MEASUREMENTS = TESTS / "fixtures" / "measurements.csv"

RUN = (
    "import json, sys\n"
    "from abrenergy.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)


def loaded_modules(workdir: Path, *argv: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=workdir,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)  # fmt: skip
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("command, absent", [
    ("normalize", {"numpy", "abrenergy.channel", "abrenergy.model", "abrenergy.policy",
                   "abrenergy.simulator"}),
    ("fit", {"abrenergy.channel", "abrenergy.policy", "abrenergy.simulator"}),
])  # fmt: skip
def test_command_leaves_unused_modules_unloaded(tmp_path, command, absent):
    loaded = loaded_modules(tmp_path, command, "--input", str(MEASUREMENTS), "--output", "o.json")
    assert (tmp_path / "o.json").is_file()
    assert "abrenergy.measurements" in loaded
    assert loaded & absent == set()


def test_only_fit_loads_numpy(tmp_path):
    (tmp_path / "ladder.csv").write_text(STOCK_LADDER_CSV)
    loaded = {
        mode: loaded_modules(tmp_path, "simulate", "--ladder", "ladder.csv", "--channel",
                             "constant:22M", "--segments", "5", "--mode", mode, "--params",
                             "overall", "--per-segment", f"{mode}.csv", "--output", f"{mode}.json")
        for mode in ("off", "strict")
    }  # fmt: skip
    loaded["compare"] = loaded_modules(tmp_path, "compare", "--baseline", "off.json",
                                       "--candidate", "strict.json", "--output", "c.json")
    loaded["fit"] = loaded_modules(tmp_path, "fit", "--input", str(MEASUREMENTS), "--output",
                                   "f.json")  # fmt: skip
    assert [command for command, modules in loaded.items() if "numpy" in modules] == ["fit"]
    for command in ("off", "strict", "compare"):
        # the guard above must see the modules a command does load
        assert {"abrenergy.channel", "abrenergy.model", "abrenergy.simulator"} <= loaded[command]
        # the preset labels share the measurement vocabulary, but not its module
        assert loaded[command] & {"abrenergy.fitting", "abrenergy.measurements"} == set()


def test_only_fit_loads_dataclasses_and_only_saved_reports_load_their_io(tmp_path):
    (tmp_path / "ladder.csv").write_text(STOCK_LADDER_CSV)
    simulate = ("simulate", "--ladder", "ladder.csv", "--channel", "constant:22M", "--segments",
                "5", "--params", "overall", "--battery-capacity-mah", "1000",
                "--reference-current-ma", "300")  # fmt: skip
    loaded = {
        "off": loaded_modules(tmp_path, *simulate, "--mode", "off", "--output", "off.json"),
        "all": loaded_modules(tmp_path, *simulate, "--mode", "all", "--output", "all.json"),
        "compare": loaded_modules(tmp_path, "compare", "--baseline", "off.json", "--candidate",
                                  "off.json", "--output", "c.json"),
        "normalize": loaded_modules(tmp_path, "normalize", "--input", str(MEASUREMENTS),
                                    "--output", "n.json"),
    }  # fmt: skip
    for command, modules in loaded.items():
        assert modules & {"dataclasses", "inspect"} == set(), command
    # the guard below must see the module where a command does load it
    assert "abrenergy.reportio" in loaded["off"] and "abrenergy.reportio" in loaded["compare"]
    assert "abrenergy.reportio" not in loaded["all"]
    assert "abrenergy.simulator" in loaded["all"]
