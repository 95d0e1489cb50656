"""Modeled cluster time from measured engine metrics.

The reproduction runs in one process, so raw wall-clock misses the two
costs that dominate the paper's cluster experiments: network transfer
during shuffles and task scheduling overhead (plus disk I/O for the
SciDB-style baseline). The cost model converts the engine's exact byte
and task counts into a modeled time:

    modeled = wall_clock
            + shuffle_bytes / network_bandwidth
            + tasks * task_overhead
            + (disk_read + disk_write) / disk_bandwidth

Defaults approximate the paper's testbed: 1 GbE (~117 MB/s effective),
7200 RPM HDDs (~150 MB/s sequential), and Spark's well-known ~5-10 ms
per-task launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.metrics import MetricsSnapshot


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


class ClusterCostModel:
    """Turns a metrics delta plus wall time into a :class:`CostReport`."""

    def __init__(self, network_bandwidth_bytes_s: float = 117e6,
                 disk_bandwidth_bytes_s: float = 150e6,
                 task_overhead_s: float = 0.005):
        self.network_bandwidth_bytes_s = network_bandwidth_bytes_s
        self.disk_bandwidth_bytes_s = disk_bandwidth_bytes_s
        self.task_overhead_s = task_overhead_s

    def shuffle_seconds(self, nbytes: int, num_tasks: int = 0) -> float:
        """Modeled time to move ``nbytes`` through a shuffle.

        The bytes cross the network once; ``num_tasks`` adds the
        per-task launch overhead of the reduce side. Zero bytes with
        zero tasks cost zero.
        """
        transfer = max(int(nbytes), 0) / self.network_bandwidth_bytes_s
        return transfer + max(int(num_tasks), 0) * self.task_overhead_s

    def serial_job_seconds(self, stage_seconds: dict) -> float:
        """Modeled job time when stages run one at a time behind
        barriers (serial contexts): the sum over stages.

        ``stage_seconds`` maps a stage key to its modeled seconds; the
        keys only need to match the ``deps`` mapping handed to
        :meth:`pipelined_job_seconds`.
        """
        return float(sum(stage_seconds.values()))

    def pipelined_job_seconds(self, stage_seconds: dict,
                              deps: dict) -> float:
        """Modeled job time with stages overlapped (parallel contexts):
        the critical path through the stage DAG — the heaviest
        dependency chain — instead of the barrier sum-of-stages.

        ``stage_seconds`` maps a stage key to its modeled seconds and
        ``deps`` maps a stage key to the keys it depends on (absent
        keys depend on nothing). A stage can start the moment its last
        dependency finishes and independent stages overlap perfectly,
        so each stage's modeled finish time is its own cost plus the
        latest dependency finish; the job takes as long as the latest
        stage. Equals :meth:`serial_job_seconds` for a pure chain,
        and the max over stages for fully independent ones.
        """
        memo = {}

        def finish_time(key):
            if key in memo:
                return memo[key]
            memo[key] = 0.0  # cycle guard: a revisit contributes nothing
            upstream = max(
                (finish_time(dep) for dep in deps.get(key, ())),
                default=0.0)
            memo[key] = float(stage_seconds.get(key, 0.0)) + upstream
            return memo[key]

        return max((finish_time(key) for key in stage_seconds),
                   default=0.0)

    def report(self, wall_clock_s: float,
               delta: MetricsSnapshot) -> CostReport:
        # both shuffled data and task results returned to the driver
        # cross the network on a real cluster
        network_s = (
            (delta.shuffle_bytes + delta.result_bytes
             + delta.broadcast_bytes)
            / self.network_bandwidth_bytes_s
        )
        scheduling_s = delta.tasks_launched * self.task_overhead_s
        disk_s = (
            (delta.disk_read_bytes + delta.disk_write_bytes)
            / self.disk_bandwidth_bytes_s
        )
        return CostReport(
            wall_clock_s=wall_clock_s,
            network_s=network_s,
            scheduling_s=scheduling_s,
            disk_s=disk_s,
        )
