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

import numpy as np

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
                 task_overhead_s: float = 0.005,
                 recompute_bandwidth_bytes_s: float = 1e9,
                 dense_flops_s: float = 2e10,
                 coo_pairs_s: float = 8e6,
                 csr_pairs_s: float = 8e7,
                 scatter_ops_s: float = 2e9):
        self.network_bandwidth_bytes_s = network_bandwidth_bytes_s
        self.disk_bandwidth_bytes_s = disk_bandwidth_bytes_s
        self.task_overhead_s = task_overhead_s
        # effective in-memory rate of one pass over a block's bytes
        self.recompute_bandwidth_bytes_s = recompute_bandwidth_bytes_s
        # matmul kernel rates: BLAS multiply-adds, partial-product
        # pairs of a per-k COO join loop vs the vectorized CSR
        # expansion, and scattered row-updates of the CSR×dense kernel.
        # The COO/dense ratio sets the sparse density gate, calibrated
        # to SPARSE_KERNEL_THRESHOLD: sqrt(8e6 / 2e10) == 0.02.
        self.dense_flops_s = dense_flops_s
        self.coo_pairs_s = coo_pairs_s
        self.csr_pairs_s = csr_pairs_s
        self.scatter_ops_s = scatter_ops_s

    # ------------------------------------------------------------------
    # logical-plan pricing (the rewrite optimizer)
    # ------------------------------------------------------------------
    # The optimizer (repro.core.optimizer) prices candidate plans before
    # any task runs, so these helpers work from *estimates*: bytes that
    # would flow through a plan node and the density of the chunks
    # carrying them. They intentionally share the rates used everywhere
    # else in the model, so "cheaper here" means cheaper on the same
    # modeled cluster the benchmarks report.

    def scan_seconds(self, nbytes: int, density: float = 1.0) -> float:
        """Modeled time for one chunk-local pass over ``nbytes``.

        ``density`` scales the dense byte count down to the payload a
        sparse chunk actually stores (a 1%-dense SPARSE chunk scans ~1%
        of the cells a DENSE chunk would). Clamped to [0, 1]; zero bytes
        cost zero.
        """
        if nbytes <= 0:
            return 0.0
        density = min(max(float(density), 0.0), 1.0)
        return nbytes * density / self.recompute_bandwidth_bytes_s

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

    def sparse_kernel_threshold(self) -> float:
        """Density below which sparse partial products beat BLAS.

        Equating the pair-join cost ``dₐ·d_b·m·k·n / coo_pairs_s`` with
        the dense cost ``m·k·n / dense_flops_s`` at equal operand
        densities gives ``d = sqrt(coo_pairs_s / dense_flops_s)`` —
        0.02 at the default rates, i.e. ``SPARSE_KERNEL_THRESHOLD``
        falls out of the model instead of being hard-coded.
        """
        return float(np.sqrt(self.coo_pairs_s / self.dense_flops_s))

    def scatter_kernel_threshold(self) -> float:
        """Density below which the one-sided CSR×dense scatter kernel
        beats the dense kernel: ``scatter_ops_s / dense_flops_s``
        (0.1 at the default rates)."""
        return float(self.scatter_ops_s / self.dense_flops_s)

    def matmul_kernel_seconds(self, m: float, k: float, n: float,
                              density_left: float, density_right: float,
                              kind: str) -> float:
        """Modeled compute seconds for one ``(m×k) @ (k×n)`` product.

        ``kind`` is the representation pair: ``"dense"`` (BLAS) or
        ``"csr"`` (vectorized CSR×CSR when both sides qualify,
        CSR×dense scatter when only one does). The sparse kind prices
        the expected partial-product pairs ``nnzₐ·nnz_b / k`` plus one
        pass to build the index structure.
        """
        da = min(max(float(density_left), 0.0), 1.0)
        db = min(max(float(density_right), 0.0), 1.0)
        if kind == "dense":
            return m * k * n / self.dense_flops_s
        nnz_a = da * m * k
        nnz_b = db * k * n
        pairs = nnz_a * nnz_b / max(k, 1.0)
        setup = (nnz_a + nnz_b) / self.scatter_ops_s
        if kind == "csr":
            gate = self.sparse_kernel_threshold()
            if da < gate and db < gate:
                return pairs / self.csr_pairs_s + setup
            # one-sided: scatter the sparse side's rows over the
            # dense side's columns
            sparse_nnz = nnz_a if da <= db else nnz_b
            width = n if da <= db else m
            return sparse_nnz * width / self.scatter_ops_s + setup
        raise ValueError(f"unknown matmul kernel kind {kind!r}")

    def skewed_stage_seconds(self, compute_s: float,
                             imbalance: float) -> float:
        """Wall time of a parallel stage whose per-partition load ratio
        (max/mean) is ``imbalance``: the busiest executor finishes last,
        so perfectly divisible work stretches by exactly that factor."""
        return compute_s * max(float(imbalance), 1.0)

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
