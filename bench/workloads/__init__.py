"""The five benchmark workloads, by name.

Each workload is a module with ``NAME``, ``WHY``, ``params(quick)``,
``generate(seed, params)``, ``start(inputs, params, workdir, trace,
backend)`` returning a :class:`bench.harness.Session`, and
``expected(inputs, params)`` returning the oracle's reference (or a
checking callable) per op.
"""

from bench.workloads import (
    ingest_spill,
    lr_sgd,
    pagerank_zipf,
    raster_scan,
    shuffle_process,
)

WORKLOADS = {module.NAME: module for module in (
    raster_scan, pagerank_zipf, shuffle_process, lr_sgd, ingest_spill)}
