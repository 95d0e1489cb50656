"""Shared-memory data plane for the process execution backend.

Worker processes exchange shuffle blocks and cached partitions through
``multiprocessing.shared_memory`` segments instead of pickling payloads
through the task-result pipe. The encoding is pickle protocol 5 with
out-of-band buffers: an object's pickle *head* (structure, scalars) and
its flat payload buffers (numpy arrays — the columnar RecordBatch key
and value columns, chunk payloads) are laid out side by side in one
segment, and the consumer rebuilds a packed batch over read-only
``memoryview`` slices of the mapping — its buffers are never copied or
re-serialized (the zero-copy exchange Sparkle builds its large-memory
story on); a ``(key, value)`` list is read back as private copies.

Three handle types travel between processes:

- :class:`ShmRef` — locator of one pickled object inside a segment
  (head span + buffer spans). A shuffle map task writes every non-empty
  bucket into its one segment and ships refs; the reduce side resolves
  them lazily via :func:`load_ref` — packed ``RecordBatch`` buckets
  zero-copy and read-only, ``(key, value)`` lists as writable copies.
- :class:`SpillFileHandle` — a cached block living in the spill tier;
  the worker decodes the spill file itself so the disk-read metering
  matches the serial path byte for byte.
- :class:`InlineBlockHandle` — small or shm-refusing blocks, shipped by
  value inside the task payload.

Lifecycle is owned by a driver-side :class:`SharedSegmentRegistry`:
worker-created segments are *adopted* into it from task replies (and
released with the shuffle that owns them), block exports are created by
it, and ``shutdown()`` unlinks all of it plus any same-prefix stragglers
of workers that died mid-task. An atexit hook covers contexts never
shut down; a new registry sweeps the segments of dead drivers.

POSIX notes baked in below: ``resource_tracker`` would register a
segment on *attach* as well as on create, and its per-name cache is a
set — concurrent attach/unregister pairs from different processes can
interleave into a double-unregister that makes the tracker print
KeyError tracebacks. Our names are therefore filtered out of tracker
traffic entirely (the registry is the sole owner). And a mapping with
exported buffer views cannot ``close()`` — the atexit path closes its
fd and leaves the mapping to the views.
"""

from __future__ import annotations

import _posixshmem
import atexit
import itertools
import os
import pickle
import threading
import weakref

from multiprocessing import shared_memory

try:  # not available on some platforms (no-op there)
    from multiprocessing import resource_tracker
except ImportError:  # pragma: no cover
    resource_tracker = None

#: buffer alignment inside a segment; 64 covers every numpy dtype and
#: keeps vector loads on cache-line boundaries
_ALIGN = 64

#: blocks smaller than this ship inline with the task payload — a
#: segment per tiny block costs more than pickling it
SHM_BLOCK_MIN_BYTES = 4096


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


#: the filler of alignment gaps; the most buffers one ``pwritev`` takes
_ZEROS = memoryview(bytes(_ALIGN))
_IOV_MAX = os.sysconf("SC_IOV_MAX")


#: every segment name we create starts with this mark (registry
#: prefixes are ``spgl-<pid>-<seq>-``); the tracker filter keys on it
_NAME_MARK = "spgl-"


def _is_engine_segment(name) -> bool:
    return isinstance(name, str) and name.lstrip("/").startswith(_NAME_MARK)


def _install_tracker_filter() -> None:
    """Keep our segment names out of ``resource_tracker`` traffic.

    The tracker registers shared memory on create *and* on attach, and
    its cache is a per-name *set*: when two processes each send a
    balanced register/unregister pair for the same name, the pipe can
    deliver them as R,R,U,U — the second unregister then KeyErrors in
    the tracker process. Unregistering after the fact cannot fix that
    ordering, so segments under our mark are simply never reported; the
    driver registry is their sole owner and unlinks them itself.

    Installed at import in every process that touches this module
    (driver and forked workers alike).
    """
    if resource_tracker is None or \
            getattr(resource_tracker, "_spgl_filtered", False):
        return
    base_register = resource_tracker.register
    base_unregister = resource_tracker.unregister

    def register(name, rtype):
        if rtype == "shared_memory" and _is_engine_segment(name):
            return
        base_register(name, rtype)

    def unregister(name, rtype):
        if rtype == "shared_memory" and _is_engine_segment(name):
            return
        base_unregister(name, rtype)

    resource_tracker.register = register
    resource_tracker.unregister = unregister
    resource_tracker._spgl_filtered = True


_install_tracker_filter()


# ----------------------------------------------------------------------
# handles
# ----------------------------------------------------------------------

class ShmRef:
    """Locator of one pickled object inside a shared-memory segment."""

    __slots__ = ("segment", "head", "buffers", "nbytes", "writable")

    def __init__(self, segment: str, head, buffers, nbytes: int,
                 writable: bool = False):
        self.segment = segment      # segment name
        self.head = head            # (offset, length) of the pickle head
        self.buffers = buffers      # ((offset, length), ...) per buffer
        self.nbytes = nbytes        # payload bytes of this object
        self.writable = writable    # load buffers as private copies

    def __repr__(self) -> str:
        return (f"<ShmRef seg={self.segment} nbytes={self.nbytes} "
                f"buffers={len(self.buffers)}>")


class SpillFileHandle:
    """A cached block served from the driver's spill tier."""

    __slots__ = ("path", "nbytes")

    def __init__(self, path: str, nbytes: int):
        self.path = path
        self.nbytes = nbytes


class InlineBlockHandle:
    """A cached block shipped by value inside the task payload."""

    __slots__ = ("records",)

    def __init__(self, records):
        self.records = records


# ----------------------------------------------------------------------
# encoding: objects -> one segment
# ----------------------------------------------------------------------

class SegmentBuilder:
    """Accumulates objects, then lays them out in one segment."""

    def __init__(self):
        self._pieces = []    # the layout, gaps included, back to back
        self._entries = []   # (head_span, buffer_spans, payload, writable)
        self._size = 0

    def _append(self, piece) -> tuple:
        piece = memoryview(piece)
        offset = self._size
        end = offset + piece.nbytes
        self._size = _align(end)
        self._pieces += (piece, _ZEROS[:self._size - end])
        return offset, piece.nbytes

    def add(self, obj, writable: bool = False) -> int:
        """Stage ``obj`` (a protocol-5 pickle head and its out-of-band
        buffers); returns its entry index. A ``writable`` entry loads as
        a private copy instead of read-only views."""
        raws = []
        head_span = self._append(pickle.dumps(obj, protocol=5,
                                              buffer_callback=raws.append))
        buffer_spans = tuple(self._append(raw.raw()) for raw in raws)
        payload = head_span[1] + sum(span[1] for span in buffer_spans)
        self._entries.append((head_span, buffer_spans, payload, writable))
        return len(self._entries) - 1

    @property
    def nbytes(self) -> int:
        return self._size

    def write(self, fd: int) -> None:
        """Write the layout at offset 0 of ``fd`` with ``os.pwritev``: at
        most ``SC_IOV_MAX`` buffers a call, resuming after short writes."""
        views = [piece for piece in self._pieces if piece.nbytes]
        offset = start = 0
        while start < len(views):
            written = os.pwritev(fd, views[start:start + _IOV_MAX], offset)
            offset += written
            while start < len(views) and written >= views[start].nbytes:
                written -= views[start].nbytes
                start += 1
            if written:
                views[start] = views[start][written:]

    def refs(self, segment_name: str) -> list:
        return [ShmRef(segment_name, *entry) for entry in self._entries]


#: distinguishes segments created by the same forked process image
_CREATE_SEQ = itertools.count(1)


def write_segment(prefix: str, builder: SegmentBuilder, metrics=None):
    """Create a segment under ``prefix`` holding ``builder``'s layout.

    Returns ``(name, total_bytes, refs)``. The writer never maps the
    segment: it sizes the new file and writes the layout into it
    (:meth:`SegmentBuilder.write`), so a full ``/dev/shm`` raises
    ``OSError`` (ENOSPC), after which the segment is unlinked and the
    caller ships inline, where a store through a mapping would kill the
    process with SIGBUS. Readers attach by name, and the driver registry
    owns the unlink (the resource tracker never hears about these
    names, see :func:`_install_tracker_filter`).
    """
    pid = os.getpid()
    while True:
        name = f"{prefix}{pid:x}-{next(_CREATE_SEQ):x}"
        try:
            fd = _posixshmem.shm_open(
                "/" + name, os.O_CREAT | os.O_EXCL | os.O_RDWR, mode=0o600)
            break
        except FileExistsError:  # pragma: no cover - seq makes it rare
            continue
    try:
        os.ftruncate(fd, max(builder.nbytes, 1))
        builder.write(fd)
    except BaseException:
        _posixshmem.shm_unlink("/" + name)
        raise
    finally:
        os.close(fd)
    if metrics is not None:
        metrics.add(shm_segments_created=1)
    return name, builder.nbytes, builder.refs(name)


# ----------------------------------------------------------------------
# decoding: per-process attachment cache
# ----------------------------------------------------------------------

#: name -> SharedMemory; a mapping stays open while views into it may live:
#: a fork closes those it inherited, a worker those of unlinked segments
#: after each task, the driver those it releases (:func:`_after_fork`,
#: :func:`release_unlinked`, :meth:`SharedSegmentRegistry.release`)
_ATTACHED = {}
_ATTACH_LOCK = threading.Lock()


def _attach(name: str, metrics=None):
    with _ATTACH_LOCK:
        segment = _ATTACHED.get(name)
        if segment is None:
            segment = shared_memory.SharedMemory(name=name)
            _ATTACHED[name] = segment
            if metrics is not None:
                metrics.add(shm_bytes_mapped=segment.size)
        return segment


def _read_copies(ref: ShmRef) -> list:
    """``ref``'s head and buffers as private ``bytearray``s, read with
    ``os.preadv`` from the segment's file, which is never mapped."""
    fd = _posixshmem.shm_open("/" + ref.segment, os.O_RDONLY, mode=0o600)
    try:
        copies = []
        for offset, length in (ref.head, *ref.buffers):
            copies.append(bytearray(length))
            if os.preadv(fd, [copies[-1]], offset) != length:
                raise EOFError(f"segment {ref.segment} is short")
        return copies
    finally:
        os.close(fd)


def load_ref(ref: ShmRef, metrics=None):
    """Rebuild the object ``ref`` points at.

    A packed ref loads zero-copy: its pickle head is copied and its
    payload buffers are read-only memoryview slices of the cached
    mapping, so numpy columns alias the shared segment directly. A
    ``writable`` ref (a tuple list, whose head holds most of its data)
    is read into private copies, as unpickling gives, and maps nothing.
    """
    if ref.writable:
        head, *views = _read_copies(ref)
        return pickle.loads(head, buffers=views)
    buf = _attach(ref.segment, metrics).buf
    head_off, head_len = ref.head
    views = [buf[off:off + length].toreadonly() for off, length in ref.buffers]
    return pickle.loads(buf[head_off:head_off + head_len], buffers=views)


def resolve_segment(segment, metrics=None):
    """Pass-through for inline buckets; loads :class:`ShmRef` ones."""
    if isinstance(segment, ShmRef):
        return load_ref(segment, metrics)
    return segment


def _close(segment) -> None:
    """Close one cached mapping. One that decoded views still use cannot
    close (BufferError): its fd is closed and the mapping left to the
    views, unmapped when the last of them dies, so
    ``SharedMemory.__del__``, which ignores only OSError, has nothing to
    retry."""
    try:
        segment.close()
    except BufferError:
        if segment._fd >= 0:
            os.close(segment._fd)
            segment._fd = -1
        segment._mmap = None


def _release_attachments() -> None:
    """Close every cached mapping."""
    with _ATTACH_LOCK:
        for segment in list(_ATTACHED.values()):
            _close(segment)
        _ATTACHED.clear()


def _after_fork() -> None:
    """A fork closes the mappings it inherited (its parent's reads), under
    a fresh lock: another parent thread may have held the old one."""
    global _ATTACH_LOCK
    _ATTACH_LOCK = threading.Lock()
    _release_attachments()


os.register_at_fork(after_in_child=_after_fork)


def release_unlinked() -> None:
    """Close the cached mappings of segments whose ``/dev/shm`` entry is
    gone: the driver unlinked them with the shuffle that owned them.

    A worker calls this when a task ends and the driver has released
    segments since, before it replies, so a segment's pages go with its
    last reader instead of staying mapped for the worker's life."""
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return
    with _ATTACH_LOCK:
        for name in [name for name in list(_ATTACHED)
                     if not os.path.exists(f"/dev/shm/{name}")]:
            _close(_ATTACHED.pop(name))


def _unlink_segment(name: str) -> None:
    """Unlink ``name`` whether or not this process has it mapped."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        pass


def leaked_segments(prefix: str) -> list:
    """Names under ``/dev/shm`` starting with ``prefix`` (tests)."""
    base = "/dev/shm"
    if not os.path.isdir(base):  # pragma: no cover - non-Linux
        return []
    return sorted(name for name in os.listdir(base)
                  if name.startswith(prefix))


def _start_time(pid: int) -> str:
    """``pid``'s start time in clock ticks since boot ("" if gone)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[19]
    except (OSError, IndexError):
        return ""


def _sweep_dead_drivers() -> None:
    """Unlink the segments of drivers a SIGKILL left no atexit sweep.
    Names carry the driver's pid and start time (``spgl-<pid>.<start>-``)
    so a reused pid is not mistaken for it; others are left alone."""
    for name in leaked_segments(_NAME_MARK):
        driver = name[len(_NAME_MARK):].split("-", 1)[0]
        pid, _dot, start = driver.partition(".")
        try:
            if start and _start_time(int(pid, 16)) != start:
                os.unlink(os.path.join("/dev/shm", name))
        except (ValueError, OSError):  # a foreign name, or a racing sweep
            pass


# ----------------------------------------------------------------------
# driver-side segment registry
# ----------------------------------------------------------------------

_REGISTRY_SEQ = itertools.count(1)
_LIVE_REGISTRIES = weakref.WeakSet()


class SharedSegmentRegistry:
    """Owns the lifecycle of every segment a context's jobs create.

    Worker-created shuffle segments are *adopted* from task replies;
    cached-block exports are created here directly (memoized per block
    identity, so repeated jobs over the same cached RDD reuse one
    segment). ``shutdown()`` unlinks all of it and sweeps the prefix
    for segments of workers that died before reporting.
    """

    def __init__(self, metrics=None):
        pid = os.getpid()
        self.prefix = (f"{_NAME_MARK}{pid:x}.{_start_time(pid)}-"
                       f"{next(_REGISTRY_SEQ):x}-")
        _sweep_dead_drivers()
        self._metrics = metrics
        self._segments = {}        # name -> nbytes
        self._block_exports = {}   # (rdd_id, index) -> (data, handle)
        #: release() calls so far; task payloads carry it, and a worker
        #: looks for unlinked segments only when it has moved
        self.releases = 0
        self._lock = threading.Lock()
        _LIVE_REGISTRIES.add(self)

    def adopt(self, name: str, nbytes: int) -> None:
        """Take ownership of a worker-created segment."""
        with self._lock:
            self._segments[name] = nbytes

    def export_block(self, key, records, size_hint: int = None):
        """A shippable handle for one cached in-memory block.

        Large blocks go to a shared segment (memoized on the block's
        object identity — a recomputed block re-exports and the stale
        segment is unlinked); small or shm-refusing ones ship inline.
        """
        with self._lock:
            memo = self._block_exports.get(key)
            if memo is not None and memo[0] is records:
                return memo[1]
        if size_hint is not None and size_hint < SHM_BLOCK_MIN_BYTES:
            return InlineBlockHandle(records)
        try:
            builder = SegmentBuilder()
            builder.add(records)
            name, nbytes, refs = write_segment(
                self.prefix, builder, self._metrics)
        except Exception:
            # unpicklable-for-shm or segment creation failure: the task
            # payload's own pickling decides the block's fate
            return InlineBlockHandle(records)
        handle = refs[0]
        stale = None
        with self._lock:
            self._segments[name] = nbytes
            memo = self._block_exports.get(key)
            if memo is not None:
                stale = memo[1]
            self._block_exports[key] = (records, handle)
        if isinstance(stale, ShmRef):
            self.release(stale.segment)
        return handle

    def release(self, *names: str) -> None:
        """Unlink segments (idempotent) and close this process's
        mappings of them; decoded views still in use keep their pages
        (:func:`_close`). The release count moves after the unlinks, so
        a payload that carries it finds them gone."""
        with self._lock:
            for name in names:
                self._segments.pop(name, None)
        for name in names:
            _unlink_segment(name)
            # no _ATTACH_LOCK: a GC finalizer runs this, possibly inside
            # _attach on the same thread; one dict pop is atomic
            segment = _ATTACHED.pop(name, None)
            if segment is not None:
                _close(segment)
        with self._lock:
            self.releases += 1

    def segment_count(self) -> int:
        with self._lock:
            return len(self._segments)

    def resident_bytes(self) -> int:
        with self._lock:
            return sum(self._segments.values())

    def gauges(self) -> dict:
        """Live-segment count and bytes in one lock (gauge sample),
        keyed by catalog name."""
        with self._lock:
            return {
                "shm.segments": len(self._segments),
                "shm.resident_bytes": sum(self._segments.values()),
            }

    def shutdown(self) -> None:
        """Unlink every owned segment and sweep prefix stragglers.

        The registry stays usable: later jobs may create and adopt new
        segments (mirroring the executor pool's lazy restart)."""
        with self._lock:
            names = list(self._segments)
            self._segments.clear()
            self._block_exports.clear()
        # segments created by workers that died before the driver could
        # adopt them share this registry's prefix — sweep them too
        for name in names + leaked_segments(self.prefix):
            _unlink_segment(name)


def _cleanup_at_exit() -> None:  # pragma: no cover - interpreter exit
    for registry in list(_LIVE_REGISTRIES):
        try:
            registry.shutdown()
        except Exception:
            pass
    _release_attachments()


atexit.register(_cleanup_at_exit)
