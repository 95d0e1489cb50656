"""The benchmark's metric catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single source of the
command, the workload names, every metric name with its unit and
direction, and the regression bounds; the runner and ``compare.py``
read it through here, and ``tests/test_schema.py`` holds the README's
bound column to it.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

RUN_SECONDS = SPEC["run_seconds"]
WORKLOAD_NAMES = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER_NAMES = [entry["name"] for entry in SPEC["per_layer"]]
PER_LAYER_UNITS = {entry["name"]: entry["unit"]
                   for entry in SPEC["per_layer"]}
