"""Outside-in layer tracing for the benchmark's traced mode.

The program is not instrumented for this: :class:`LayerTracer` wraps the
public entry point of each layer *from outside*, by swapping the attribute
the caller looks up (a module global or a class method) for a timing
wrapper while the traced block runs, and restoring it afterwards.

Each wrapper call is one span.  Its duration is measured with the calling
thread's CPU clock (``time.thread_time``): the simulated ranks are threads
sharing the interpreter lock, so a wall-clock span on one rank would also
count whatever the other rank ran meanwhile.  A span's *self time* is its
duration minus the durations of the spans directly inside it.  Summed over
layers and threads, self times cover the CPU the block used inside program
layers; the rest of the block's wall time is ``bench.other``.

Hot leaf layers (the exact predicate, the STR-tree probe, raw ``pread`` and
the ``mpisim`` calls) are aggregated into counters instead of being kept as
span records, so a block of thousands of predicate calls stays small in
memory; their time is still subtracted from the enclosing span's self time.
The recorded spans follow the ``repro.obs`` span shape so that
``repro.obs.schema_check`` can validate them.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

CountFn = Callable[[Any, tuple, dict], Sequence[Tuple[str, float]]]


class _Frame:
    __slots__ = ("name", "cpu0", "wall0", "child", "span_id", "parent_id")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.child = 0.0
        self.wall0 = time.perf_counter()
        self.cpu0 = time.thread_time()


class _ThreadState:
    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: List[_Frame] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[dict] = []
        self.seq = 0


class LayerTracer:
    """Span recorder plus the table of wrapped layer entry points."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: trace id and span id of the client operation in progress; spans
        #: opened on a thread with an empty stack parent under it
        self.op_trace = "setup"
        self.op_span: Optional[str] = None

    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    def _open(self, st: _ThreadState, name: str) -> _Frame:
        st.seq += 1
        parent = st.stack[-1].span_id if st.stack else self.op_span
        frame = _Frame(name, f"t{st.tid}:{st.seq}", parent)
        st.stack.append(frame)
        return frame

    def _close(self, st: _ThreadState, frame: _Frame, record: bool) -> float:
        cpu = time.thread_time() - frame.cpu0
        st.stack.pop()
        st.self_s[frame.name] += cpu - frame.child
        st.counts[frame.name + ".calls"] += 1
        if st.stack:
            st.stack[-1].child += cpu
        if record:
            st.spans.append(
                {
                    "trace_id": self.op_trace,
                    "span_id": frame.span_id,
                    "parent_id": frame.parent_id,
                    "name": frame.name,
                    "rank": st.tid,
                    "start": frame.wall0,
                    "end": time.perf_counter(),
                    "attrs": {"cpu_ms": cpu * 1e3, "self_cpu_ms": (cpu - frame.child) * 1e3},
                }
            )
        return cpu

    def add(self, key: str, value: float) -> None:
        """Add *value* to counter ``<innermost open layer>.<key>`` (no-op
        outside a span or while disabled)."""
        if not self.enabled:
            return
        st = self._state()
        if st.stack:
            st.counts[f"{st.stack[-1].name}.{key}"] += value

    def op_span_open(self, trace_id: str) -> Tuple[_ThreadState, _Frame]:
        """Open the client-operation root span on the calling thread."""
        st = self._state()
        self.op_trace = trace_id
        frame = self._open(st, "bench.op")
        self.op_span = frame.span_id
        return st, frame

    def op_span_close(self, handle: Tuple[_ThreadState, _Frame]) -> None:
        st, frame = handle
        self._close(st, frame, record=True)
        self.op_span = None

    # ------------------------------------------------------------------ #
    def wrap(self, fn: Callable, name: str, leaf: bool = False,
             count: Optional[CountFn] = None, lift: Sequence[str] = ()) -> Callable:
        """A timing wrapper around *fn* recording layer *name*.

        *count(result, args, kwargs)* yields ``(key, value)`` pairs added to
        ``<name>.<key>``; keys listed in *lift* are also added to the
        enclosing layer (e.g. the bytes a collective moved inside the
        exchange phase).  A leaf called from inside itself is not counted
        again (its inner time already belongs to the outer call).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = tracer._state()
            if leaf and st.stack and st.stack[-1].name == name:
                return fn(*args, **kwargs)
            frame = tracer._open(st, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(st, frame, record=not leaf)
            if count is not None:
                for key, value in count(result, args, kwargs):
                    st.counts[f"{name}.{key}"] += value
                    if key in lift and st.stack:
                        st.counts[f"{st.stack[-1].name}.{key}"] += value
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Replace ``owner.attr`` by a wrapper (classmethods stay
        classmethods)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new: Any = classmethod(self.wrap(raw.__func__, name, **options))
        else:
            new = self.wrap(raw, name, **options)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        for st in self._states:
            st.self_s.clear()
            st.counts.clear()
            st.spans.clear()

    def self_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for st in self._states:
            for name, value in st.self_s.items():
                out[name] += value
        return out

    def counts(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for st in self._states:
            for name, value in st.counts.items():
                out[name] += value
        return out

    def spans(self) -> List[dict]:
        return [span for st in self._states for span in st.spans]


def install(tracer: LayerTracer) -> None:
    """Wrap every layer entry point the per-layer metrics name."""
    from repro.core import framework, join, parsers, reader
    from repro.geometry import predicates
    from repro.index import STRtree
    from repro.mpisim import Communicator, payload_nbytes
    from repro.pfs.filesystem import FileHandle
    from repro.store import (
        AsyncStoreFrontend,
        DistributedStoreServer,
        IOScheduler,
        QueryPlanner,
        RefineExecutor,
        ShardedStoreAppender,
        ShardedStoreWriter,
        ShardRouter,
        StoreEngine,
    )

    def nbytes_of_first(result, args, kwargs):
        return (("bytes", payload_nbytes(args[1]) if len(args) > 1 else 0),)

    def read_count(result, args, kwargs):
        return (("bytes", sum(len(r) for r in result.records)),)

    def plan_count(result, args, kwargs):
        slots = sum(len(s) for e in result.entries for s in e.by_page.values())
        return (("queries", len(args[1])), ("candidates", slots))

    def assign_count(result, args, kwargs):
        return (("inputs", len(args[1])), ("assigned", sum(len(v) for v in result.values())))

    t = tracer
    t.patch(reader, "read_records", "core.partition.read", count=read_count)
    t.patch(parsers.GeometryParser, "parse_many", "core.parsers.parse",
            count=lambda r, a, k: (("records", len(r)),))
    t.patch(framework, "assign_to_cells", "core.grid_partition.partition", count=assign_count)
    t.patch(framework, "exchange_cells", "core.exchange.exchange_cells")
    t.patch(join, "join_cell", "core.join.refine",
            count=lambda r, a, k: (("result_pairs", len(r)),))
    t.patch(predicates, "intersects", "geometry.predicates.intersects", leaf=True)
    t.patch(STRtree, "query", "index.strtree.query", leaf=True,
            count=lambda r, a, k: (("results", len(r)),), lift=("results",))
    t.patch(FileHandle, "pread", "pfs.pread", leaf=True)
    for method in ("bcast", "scatter", "gather", "allgather", "alltoall", "alltoallv",
                   "reduce", "allreduce", "scan", "exscan", "barrier"):
        t.patch(Communicator, method, "mpisim.collective", leaf=True,
                count=nbytes_of_first, lift=("bytes",))
    t.patch(Communicator, "send", "mpisim.p2p", leaf=True, count=nbytes_of_first, lift=("bytes",))
    t.patch(Communicator, "recv", "mpisim.p2p", leaf=True)
    t.patch(ShardRouter, "plan", "store.router.plan")
    t.patch(QueryPlanner, "plan", "store.engine.plan", count=plan_count)
    t.patch(RefineExecutor, "refine", "store.engine.refine",
            count=lambda r, a, k: (("hits", len(r)),))
    t.patch(StoreEngine, "execute", "store.engine.execute")
    t.patch(IOScheduler, "schedule", "store.scheduler.schedule")
    t.patch(DistributedStoreServer, "range_query_batch", "store.sharded.range_query_batch")
    t.patch(DistributedStoreServer, "open", "store.sharded.open")
    t.patch(AsyncStoreFrontend, "serve", "store.frontend.serve")
    t.patch(ShardedStoreAppender, "append", "store.mutable.append")
    t.patch(ShardedStoreAppender, "compact", "store.mutable.compact")
    t.patch(ShardedStoreWriter, "load", "store.writer.bulk_load")
