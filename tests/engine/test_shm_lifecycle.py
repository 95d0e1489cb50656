"""Shared-memory segments live as long as what owns them.

A segment holds what its writer laid out, however many pieces; a
shuffle's map-output segments are released when its map output is
invalidated or its shuffle RDD is garbage-collected, so a long-lived
process-backend context holds a flat segment count; a worker unmaps
released segments before it replies; and a driver killed before its
atexit sweep leaves segments the next context removes.
"""

import gc
import operator
import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import ArrayRDD
from repro.engine import ClusterContext, shm
from repro.engine.shm import (
    SegmentBuilder,
    SharedSegmentRegistry,
    leaked_segments,
    load_ref,
    write_segment,
)

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


def _mapped_segments(pid, prefix="spgl-"):
    """The segments under ``prefix`` (by default every engine segment)
    process ``pid`` has mapped, deleted or not."""
    with open(f"/proc/{pid}/maps") as maps:
        return {line.split("/dev/shm/", 1)[1].split()[0]
                for line in maps if f"/dev/shm/{prefix}" in line}


def test_workers_unmap_unlinked_segments_on_process():
    """A worker closes its mapping of a segment the driver unlinked
    before it replies to its next task, so over 50 calls a worker that
    served the call maps no more segments than ``/dev/shm`` holds
    (before, it kept every one it had attached: about two per call)."""
    cube = np.random.default_rng(0).random((64, 64, 16))
    with ClusterContext(num_executors=2, backend="process",
                        default_parallelism=4) as ctx:
        arr = ArrayRDD.from_numpy(ctx, cube, (16, 16, 16)).cache()
        arr.count_valid()
        served = set()
        absorb = ctx.process_runner._absorb

        def recording(task, reply, parent_span):
            served.add(reply["pid"])
            absorb(task, reply, parent_span)

        ctx.process_runner._absorb = recording
        for _ in range(50):
            # the last result stays alive, the one before is dropped
            # (and collected) before this call's tasks are sent
            out = arr.aggregate_by((0, 1))
            gc.collect()
            served.clear()
            out.sum()
            prefix = ctx.shm_registry.prefix
            live = leaked_segments(prefix)
            assert served
            for pid in served:
                assert len(_mapped_segments(pid)) <= len(live)
        assert out.num_chunks_materialized() > 0


def test_new_context_workers_map_no_earlier_segment_on_process():
    """A fork closes the mappings it inherited, so the driver's own
    reads of an earlier context's segments (``lookup`` computes its
    partition on the driver) are not mapped by a later context's
    workers."""
    with ClusterContext(num_executors=2, backend="process") as first:
        pairs = first.parallelize([(k % 8, float(k)) for k in range(4000)],
                                  4)
        # kept alive: the driver closes its mappings of released segments
        summed = pairs.reduce_by_key(operator.add)
        assert summed.lookup(3)
        earlier = first.shm_registry.prefix
    assert _mapped_segments(os.getpid(), earlier)
    with ClusterContext(num_executors=2, backend="process") as second:
        assert second.parallelize(range(100), 4).map(abs).sum() == 4950
        workers = [process.pid
                   for process, _conn in second.process_runner.pool._workers]
        for pid in workers:
            assert _mapped_segments(pid, earlier) == set()


def test_driver_closes_its_mappings_of_released_segments_on_process():
    """``lookup`` computes its partition on the driver, which maps the
    workers' segments; dropping the RDD releases them, and the driver's
    mappings go with them."""
    with ClusterContext(num_executors=2, backend="process") as ctx:
        prefix = ctx.shm_registry.prefix
        for _ in range(30):
            pairs = ctx.parallelize([(k % 8, float(k)) for k in range(4000)],
                                    4)
            assert pairs.reduce_by_key(operator.add).lookup(3) == [
                float(sum(range(3, 4000, 8)))]
            del pairs
            gc.collect()
        mapped = [name for name in shm._ATTACHED if name.startswith(prefix)]
        assert [name for name in mapped
                if not os.path.exists(f"/dev/shm/{name}")] == []
        assert _mapped_segments(os.getpid(), prefix) == set()


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


def _round_trip(*objects) -> list:
    """``objects`` written to one segment and loaded back, read-only
    and as writable copies."""
    registry = SharedSegmentRegistry()
    try:
        builder = SegmentBuilder()
        for obj in objects:
            builder.add(obj)
            builder.add(obj, writable=True)
        name, nbytes, refs = write_segment(registry.prefix, builder)
        registry.adopt(name, nbytes)
        assert os.path.getsize(f"/dev/shm/{name}") == max(nbytes, 1)
        return [load_ref(ref) for ref in refs]
    finally:
        registry.shutdown()
        shm.release_unlinked()
        assert leaked_segments(registry.prefix) == []


def test_process_segment_holds_more_pieces_than_iov_max():
    arrays = [np.arange(i % 7, dtype=np.int64) + i
              for i in range(os.sysconf("SC_IOV_MAX") + 5)]
    for loaded in _round_trip(arrays):
        assert pickle.dumps(loaded) == pickle.dumps(arrays)


def test_process_segment_holds_zero_length_buffers():
    objects = ([np.empty(0), bytearray(), np.arange(3.0),
                np.empty((0, 4))], np.empty(0), bytearray())
    loaded = _round_trip(*objects)
    for i, obj in enumerate(objects):
        for copy in loaded[2 * i:2 * i + 2]:
            assert pickle.dumps(copy) == pickle.dumps(obj)


def test_process_segment_write_resumes_after_short_writes(monkeypatch):
    pwritev = os.pwritev

    def short(fd, buffers, offset):
        """Write at most 100 bytes a call."""
        budget, head = 100, []
        for buf in buffers:
            head.append(memoryview(buf)[:budget])
            budget -= head[-1].nbytes
            if not budget:
                break
        return pwritev(fd, head, offset)

    monkeypatch.setattr(os, "pwritev", short)
    arrays = [np.arange(n, dtype=np.float64) for n in (0, 1, 13, 300)]
    loaded = _round_trip(arrays, "head only")
    assert [pickle.dumps(obj) for obj in loaded] == \
        [pickle.dumps(arrays)] * 2 + [pickle.dumps("head only")] * 2


@pytest.mark.parametrize("writable", [False, True])
def test_process_refs_load_writable_only_when_asked(writable):
    registry = SharedSegmentRegistry()
    try:
        builder = SegmentBuilder()
        builder.add(np.arange(600.0), writable=writable)
        name, nbytes, (ref,) = write_segment(registry.prefix, builder)
        registry.adopt(name, nbytes)
        assert load_ref(ref).flags.writeable is writable
    finally:
        registry.shutdown()
