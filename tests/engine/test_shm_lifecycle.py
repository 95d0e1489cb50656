"""Shared-memory segments live as long as what owns them.

A shuffle's map-output segments are released when its map output is
invalidated or its shuffle RDD is garbage-collected, so a long-lived
process-backend context holds a flat segment count; and a driver
killed before its atexit sweep leaves segments the next context
removes.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np

from repro.core import ArrayRDD
from repro.engine import ClusterContext
from repro.engine.shm import leaked_segments

ROOT = Path(__file__).resolve().parents[2]


def test_aggregate_loop_holds_segments_flat_on_process():
    cube = np.random.default_rng(0).random((64, 64, 16))
    with ClusterContext(num_executors=2, backend="process",
                        default_parallelism=4) as ctx:
        arr = ArrayRDD.from_numpy(ctx, cube, (16, 16, 16))
        counts = []
        for _ in range(200):
            arr.aggregate_by((0, 1)).sum()
            counts.append(ctx.shm_registry.segment_count())
        prefix = ctx.shm_registry.prefix
        assert counts == counts[:1] * 200
        assert len(leaked_segments(prefix)) == counts[0]


def _mapped_segments(pid):
    """The engine segments process ``pid`` has mapped, deleted or not."""
    with open(f"/proc/{pid}/maps") as maps:
        return {line.split("/dev/shm/", 1)[1].split()[0]
                for line in maps if "/dev/shm/spgl-" in line}


def _mapped_at_most(pid, limit, timeout=10.0) -> bool:
    """Whether process ``pid`` maps at most ``limit`` engine segments
    within ``timeout`` seconds (a worker unmaps after its reply)."""
    deadline = time.monotonic() + timeout
    while len(_mapped_segments(pid)) > limit:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def test_workers_unmap_unlinked_segments_on_process():
    """A worker closes its mapping of a segment the driver unlinked
    when its next task ends, so over 50 calls it never maps more
    segments than ``/dev/shm`` holds (before, it kept every one it had
    attached: about two per call)."""
    cube = np.random.default_rng(0).random((64, 64, 16))
    with ClusterContext(num_executors=2, backend="process",
                        default_parallelism=4) as ctx:
        arr = ArrayRDD.from_numpy(ctx, cube, (16, 16, 16)).cache()
        arr.count_valid()
        workers = [process.pid
                   for process, _conn in ctx.process_runner.pool._workers]
        for _ in range(50):
            # the last result stays alive, the one before is dropped
            out = arr.aggregate_by((0, 1))
            out.sum()
            live = leaked_segments(ctx.shm_registry.prefix)
            for pid in workers:
                assert _mapped_at_most(pid, len(live))
        assert out.num_chunks_materialized() > 0


def test_dropped_shuffle_releases_its_segments_on_process():
    with ClusterContext(num_executors=2, backend="process") as ctx:
        registry = ctx.shm_registry
        pairs = (ctx.parallelize([(i % 7, float(i)) for i in range(700)], 4)
                 .reduce_by_key(lambda a, b: a + b))
        expected = sorted(pairs.collect())
        held = registry.segment_count()
        assert held > 0
        assert pairs.invalidate_shuffle() == 1
        assert registry.segment_count() == 0
        assert leaked_segments(registry.prefix) == []
        # the map output is rebuilt on demand, under fresh segments
        assert sorted(pairs.collect()) == expected
        assert registry.segment_count() == held
        del pairs
        assert registry.segment_count() == 0
        assert leaked_segments(registry.prefix) == []


_DRIVER = textwrap.dedent("""
    import time
    from repro.engine import ClusterContext

    ctx = ClusterContext(num_executors=1, backend="process")
    pairs = (ctx.parallelize([(i % 7, float(i)) for i in range(700)], 2)
             .reduce_by_key(lambda a, b: a + b))
    pairs.collect()
    print(ctx.shm_registry.prefix, flush=True)
    ctx.parallelize(range(2), 2).map(lambda x: time.sleep(60)).collect()
""")


def test_killed_driver_segments_swept_by_next_context_process():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    driver = subprocess.Popen([sys.executable, "-c", _DRIVER], env=env,
                              stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        prefix = driver.stdout.readline().strip()
        assert prefix and leaked_segments(prefix)
    finally:
        # the driver and its workers, mid-job: no atexit sweep runs
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait(timeout=30)
        driver.stdout.close()
    assert leaked_segments(prefix)
    with ClusterContext(num_executors=1):
        assert leaked_segments(prefix) == []
