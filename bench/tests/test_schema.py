"""BENCHMARK.json against the benchmark contract, and the runner
against BENCHMARK.json.

Run with ``python -m pytest bench/tests`` (not part of the tier-1
``testpaths``). The quick runs take well under a minute in total.
"""

import functools
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))


def test_top_level_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC_PATH.stat().st_size <= 64 * 1024
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(part) <= 200 and not part.startswith("/")
               and ".." not in part for part in SPEC["command"])
    assert 1 <= len(SPEC["paths"]) <= 16
    assert all(PATH.match(path) for path in SPEC["paths"])
    # every run fits the driver's budget: 4 + 22 x workloads runs
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * 30 <= 3420 + 1e-9


def test_workloads():
    from bench.workloads import WORKLOADS

    assert 2 <= len(SPEC["workloads"]) <= 8
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert NAME.match(entry["name"])
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        assert entry["why"] == WORKLOADS[entry["name"]].WHY
    assert [e["name"] for e in SPEC["workloads"]] == list(WORKLOADS)


def test_metrics():
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
        assert UNIT.match(entry["unit"]), entry["unit"]
        assert entry["better"] in ("higher", "lower")
    names += [entry["name"] for entry in SPEC["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    setup = [e for e in SPEC["end_to_end"] if e["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(e["bound"]
                                    for e in SPEC["end_to_end"])


def test_readme_quotes_the_bounds_of_benchmark_json():
    """The end-to-end table of bench/README.md carries the bounds;
    they are BENCHMARK.json's, not a second opinion."""
    text = (ROOT / "bench" / "README.md").read_text()
    quoted = {match.group(1): float(match.group(2)) / 100
              for match in re.finditer(
                  r"^\| `(\w+)` \|.*\| (\d+(?:\.\d+)?) % \|$", text,
                  re.MULTILINE)}
    assert quoted == {entry["name"]: entry["bound"]
                      for entry in SPEC["end_to_end"]}


@functools.lru_cache(maxsize=None)
def _quick(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload",
                         [entry["name"] for entry in SPEC["workloads"]])
def test_quick_run_emits_exactly_the_schema(workload):
    """Every op passes its oracle check and the two modes print
    exactly the metric names and units BENCHMARK.json declares."""
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        line = _quick(workload, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        declared = {e["name"]: e["unit"] for e in SPEC[section]}
        assert {name: body["unit"]
                for name, body in line["metrics"].items()} == declared
        if section == "end_to_end":
            assert all(body["value"] > 0
                       for body in line["metrics"].values())


#: counters that read 0 on a healthy run
ZERO_WHEN_HEALTHY = {"engine.worker.respawns", "engine.worker.task_retries"}


def test_no_dead_per_layer_names():
    """Every per-layer metric is reported non-zero by some workload's
    traced quick run: the catalogue holds no name nothing drives."""
    seen = set()
    for entry in SPEC["workloads"]:
        line = _quick(entry["name"], 1)
        seen |= {name for name, body in line["metrics"].items()
                 if body["value"] != 0}
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    assert declared - seen == ZERO_WHEN_HEALTHY
