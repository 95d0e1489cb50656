"""Compare two benchmark result documents, row by row.

    python3 bench/compare.py A.json B.json

``A`` is the base (the parent commit), ``B`` the change; both are
documents built by ``bench/run.py --out <file> --append``, one run per
seed. One row per workload × end-to-end metric: both medians over the
runs, the ratio *with its base* (``B/A``), the bound fixed in
``BENCHMARK.json``, the wider of the two run-to-run spreads
(interquartile range over the median) and a verdict:

- ``ok``          B's median is no worse than A's by more than the bound;
- ``worse``       it is;
- ``unresolved``  the spread is wider than the bound, so neither can be
                  claimed.

A side with a single run has no spread to judge, so its rows can only
read ``ok`` or ``worse``. Exit code 1 when any row is ``worse`` or B
failed a larger share of its ops than A.
"""

from __future__ import annotations

import json
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# bench.harness imports the program, as run.py does
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from bench import schema  # noqa: E402
from bench.harness import quartiles  # noqa: E402


def _values(document: dict, workload: str, metric: str) -> list:
    """One observation of the metric per run of the workload."""
    return [run[workload]["metrics"][metric]["value"]
            for run in document["runs"] if workload in run]


def _failed_share(document: dict) -> float:
    attempted = failed = 0
    for run in document["runs"]:
        for result in run.values():
            attempted += result["attempted"]
            failed += result["failed"]
    return failed / attempted if attempted else 0.0


def compare(base: dict, change: dict) -> list:
    rows = []
    for workload in schema.WORKLOAD_NAMES:
        for name, spec in schema.END_TO_END.items():
            a = _values(base, workload, name)
            b = _values(change, workload, name)
            if not a or not b:
                continue
            (a_q1, a_med, a_q3), (b_q1, b_med, b_q3) = \
                quartiles(a), quartiles(b)
            spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
            ratio = b_med / a_med
            if spec["better"] == "lower":
                worse = ratio > 1.0 + spec["bound"]
            else:
                worse = ratio < 1.0 - spec["bound"]
            if spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "worse" if worse else "ok"
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "a": a_med, "b": b_med,
                         "ratio": ratio, "bound": spec["bound"],
                         "spread": spread, "n": (len(a), len(b)),
                         "verdict": verdict})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    base, change = documents
    if base["trace"] or change["trace"]:
        print("compare.py judges end-to-end (untraced) documents only")
        return 2
    rows = compare(base, change)
    print(f"{'workload':<16} {'metric':<12} {'A median':>12} "
          f"{'B median':>12} {'B/A':>8} {'bound':>6} {'spread':>7}  "
          f"verdict")
    for row in rows:
        print(f"{row['workload']:<16} {row['metric']:<12} "
              f"{row['a']:>12.6g} {row['b']:>12.6g} "
              f"{row['ratio']:>7.3f}x {row['bound']:>6.2f} "
              f"{row['spread']:>7.3f}  {row['verdict']}"
              f"  [{row['unit']}, n={row['n'][0]}/{row['n'][1]}]")
    failed_a, failed_b = _failed_share(base), _failed_share(change)
    print(f"failed ops / attempted: A {failed_a:.4f}  B {failed_b:.4f}")
    counts = {verdict: sum(row["verdict"] == verdict for row in rows)
              for verdict in ("ok", "worse", "unresolved")}
    print(f"rows: {counts['ok']} ok, {counts['worse']} worse, "
          f"{counts['unresolved']} unresolved")
    return 1 if counts["worse"] or failed_b > failed_a else 0


if __name__ == "__main__":
    sys.exit(main())
