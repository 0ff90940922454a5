"""Each subcommand imports only the modules it computes with.

``normalize`` needs neither numpy nor the model, ``fit`` needs no
simulator, ``simulate`` and ``compare`` no measurement code, only ``fit``
needs numpy, and only a command that writes or reads a saved report needs
its I/O; the package loads its public names on first access, so the
modules a command never touches stay unloaded.  No command but ``fit``
loads ``dataclasses`` or the ``inspect`` module it pulls in.  Each command
runs in a fresh interpreter, which then reports the modules it loaded, its
environment before and after the command, and its number of threads.

``fit`` also sets ``OPENBLAS_NUM_THREADS=1`` before it imports numpy, unless
a thread count was given, so that OpenBLAS starts no thread pool.
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

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

RUN = (
    "import json, os, sys\n"
    "from abrenergy.cli import main\n"
    "before = dict(os.environ)\n"
    "code = main(sys.argv[1:])\n"
    "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
    "print(json.dumps({'modules': sorted(sys.modules), 'before': before,\n"
    "                  'after': dict(os.environ), 'tasks': tasks}))\n"
    "sys.exit(code)\n"
)


def run_command(workdir: Path, *argv: str, **variables: str) -> dict:
    """Run the CLI in a fresh interpreter whose environment sets no BLAS
    thread count beyond ``variables``, and return what it reports."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", RUN, *argv], cwd=workdir,
                          env={**env, "PYTHONPATH": str(SRC), **variables},
                          capture_output=True, text=True, check=True)  # fmt: skip
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_modules(workdir: Path, *argv: str) -> set[str]:
    return set(run_command(workdir, *argv)["modules"])


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


def test_only_fit_sets_a_blas_thread_count(tmp_path):
    (tmp_path / "ladder.csv").write_text(STOCK_LADDER_CSV)
    simulate = ("simulate", "--ladder", "ladder.csv", "--channel", "constant:22M", "--segments",
                "5", "--params", "overall")  # fmt: skip
    runs = {
        "normalize": run_command(tmp_path, "normalize", "--input", str(MEASUREMENTS),
                                 "--output", "n.json"),
        "off": run_command(tmp_path, *simulate, "--mode", "off", "--output", "off.json"),
        "all": run_command(tmp_path, *simulate, "--mode", "all", "--output", "all.json"),
        "compare": run_command(tmp_path, "compare", "--baseline", "off.json", "--candidate",
                               "off.json", "--output", "c.json"),
        "fit": run_command(tmp_path, "fit", "--input", str(MEASUREMENTS), "--output", "f.json"),
    }  # fmt: skip
    for command, run in runs.items():
        assert run["before"].keys().isdisjoint(BLAS_THREAD_VARIABLES), command
        if command != "fit":
            assert run["after"] == run["before"], command
    assert runs["fit"]["after"] == {**runs["fit"]["before"], "OPENBLAS_NUM_THREADS": "1"}


def test_fit_keeps_a_thread_count_the_user_chose_and_writes_the_same_bytes(tmp_path):
    given = {
        "default": {},
        "openblas": {"OPENBLAS_NUM_THREADS": "2"},
        "omp": {"OMP_NUM_THREADS": "2"},
    }
    runs = {
        name: run_command(tmp_path, "fit", "--input", str(MEASUREMENTS), "--output",
                          f"{name}.json", **variables)
        for name, variables in given.items()
    }  # fmt: skip
    assert runs["default"]["after"]["OPENBLAS_NUM_THREADS"] == "1"
    assert runs["openblas"]["after"]["OPENBLAS_NUM_THREADS"] == "2"
    assert "OPENBLAS_NUM_THREADS" not in runs["omp"]["after"]
    for run in runs.values():
        assert {k: run["after"][k] for k in run["before"]} == run["before"]
    fits = {(tmp_path / f"{name}.json").read_bytes() for name in given}
    assert len(fits) == 1


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc")
def test_fit_runs_on_one_thread(tmp_path):
    one = run_command(tmp_path, "fit", "--input", str(MEASUREMENTS), "--output", "one.json")
    assert one["tasks"] == 1
    if len(os.sched_getaffinity(0)) >= 2:
        # the count above must see OpenBLAS's pool where one is started
        two = run_command(tmp_path, "fit", "--input", str(MEASUREMENTS), "--output", "two.json",
                          OPENBLAS_NUM_THREADS="2")  # fmt: skip
        assert two["tasks"] == 2
