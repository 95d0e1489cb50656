"""Modeled cluster time from measured engine metrics.

The reproduction runs in one process, so raw wall-clock misses the two
costs that dominate the paper's cluster experiments: network transfer
during shuffles and task scheduling overhead (plus disk I/O: the spill
tier, the ChunkStore and the SciDB-style baseline). :func:`report` converts the engine's exact byte
and task counts into a modeled time:

    modeled = wall_clock
            + shuffle_bytes / network_bandwidth
            + tasks * task_overhead
            + (spill and store disk bytes) / disk_bandwidth

The constants approximate the paper's testbed: 1 GbE (~117 MB/s
effective), 7200 RPM HDDs (~150 MB/s sequential), and Spark's
well-known ~5-10 ms per-task launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.metrics import MetricsSnapshot

NETWORK_BANDWIDTH_BYTES_S = 117e6
DISK_BANDWIDTH_BYTES_S = 150e6
TASK_OVERHEAD_S = 0.005


@dataclass(frozen=True)
class CostReport:
    """Breakdown of a modeled execution time, in seconds."""

    wall_clock_s: float
    network_s: float
    scheduling_s: float
    disk_s: float

    @property
    def modeled_s(self) -> float:
        return (
            self.wall_clock_s + self.network_s
            + self.scheduling_s + self.disk_s
        )

    def as_dict(self) -> dict:
        return {
            "wall_clock_s": self.wall_clock_s,
            "network_s": self.network_s,
            "scheduling_s": self.scheduling_s,
            "disk_s": self.disk_s,
            "modeled_s": self.modeled_s,
        }


def report(wall_clock_s: float, delta: MetricsSnapshot) -> CostReport:
    """The :class:`CostReport` of a metrics delta plus its wall time."""
    # both shuffled data and task results returned to the driver
    # cross the network on a real cluster
    network_s = (
        (delta.shuffle_bytes + delta.result_bytes + delta.broadcast_bytes)
        / NETWORK_BANDWIDTH_BYTES_S
    )
    scheduling_s = delta.tasks_launched * TASK_OVERHEAD_S
    # the spill tier and the ChunkStore share the one disk
    disk_s = (
        (delta.disk_read_bytes + delta.disk_write_bytes
         + delta.store_read_bytes + delta.store_write_bytes)
        / DISK_BANDWIDTH_BYTES_S
    )
    return CostReport(
        wall_clock_s=wall_clock_s,
        network_s=network_s,
        scheduling_s=scheduling_s,
        disk_s=disk_s,
    )
