"""``measure().report`` is a fixed function of exact counters.

The bench's ``cost.modeled_overhead_s`` and the ``benchmarks/``
harness read it, so each modeled term must stay the counters it names
over the stated constant: 117 MB/s of network, 5 ms per task launch,
150 MB/s of disk.
"""

import numpy as np

from repro.engine import ClusterContext, StorageLevel


def test_report_is_exact_counters_over_fixed_constants():
    with ClusterContext(num_executors=2,
                        cache_budget_bytes=4096) as ctx:
        weights = ctx.broadcast(np.arange(64.0))
        with ctx.measure() as measurement:
            ctx.broadcast(np.zeros(1000))
            pairs = (ctx.parallelize(range(400), 4)
                     .map(lambda i: (i % 5, bytes(64) + bytes([i % 256])))
                     .persist(StorageLevel.MEMORY_AND_DISK))
            pairs.count()       # fills the cache past its budget: spills
            summed = (pairs.map(lambda kv: (kv[0], len(kv[1])
                                            + weights.value[kv[0]]))
                      .reduce_by_key(lambda a, b: a + b))
            assert len(summed.collect()) == 5
        delta, report = measurement.delta, measurement.report

    assert delta.shuffle_bytes > 0
    assert delta.broadcast_bytes > 0
    assert delta.disk_write_bytes > 0 and delta.disk_read_bytes > 0
    assert report.wall_clock_s == measurement.wall_s
    assert report.network_s == (
        delta.shuffle_bytes + delta.result_bytes + delta.broadcast_bytes
    ) / 117e6
    assert report.scheduling_s == delta.tasks_launched * 0.005
    assert report.disk_s == (
        delta.disk_read_bytes + delta.disk_write_bytes
        + delta.store_read_bytes + delta.store_write_bytes) / 150e6
    assert report.modeled_s == (report.wall_clock_s + report.network_s
                                + report.scheduling_s + report.disk_s)
