"""The benchmark's three workloads, each a closed loop with one client.

The client is the driver on rank 0 of a 2-rank ``mpisim`` world (or, for
``pipeline_join``, the main thread that launches one 2-rank job at a time),
so the process never runs more than two runnable threads.  A workload

* builds its inputs and oracle answers from the seed (not timed),
* sets the program up several times, timing each set-up,
* runs its ops for the requested seconds (whole cycles for ``serve_churn``),
  checking every answer against the oracle and timing one calibration
  sample after every op, and
* in traced mode, runs a fixed block of ops once untraced and twice traced.

Every time here is real (``perf_counter``) seconds or virtual seconds from
the program's own clocks; ``run.py`` turns them into metrics.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import shutil
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import oracle
from calib import Calibrator
from inputs import (
    LayerSpec,
    Poly,
    ZipfWindows,
    ladder_windows,
    layer_text,
    polygon_layer,
)
from layers import LayerTracer, install

from repro import mpisim
from repro.core import GridPartitionConfig, SpatialJoin, VectorIO
from repro.geometry import Envelope, predicates
from repro.geometry.wkt import loads
from repro.pfs import LustreFilesystem
from repro.store import (
    AsyncStoreFrontend,
    DistributedStoreServer,
    ShardedStoreAppender,
    sharded_bulk_load,
)

NPROCS = 2
#: set-ups per run; setup_s is their median
SETUPS = 5
#: calibration samples taken right before the measured span
PRE_CALIB = 10


def settle() -> None:
    """Collect the set-up's garbage and move every surviving object out of
    the collector's reach, so a full collection over set-up state does not
    land in a timed op."""
    gc.collect()
    gc.freeze()


class BenchError(RuntimeError):
    """The benchmark itself (not the program) is in an invalid state."""


class CountingLustre(LustreFilesystem):
    """The Lustre model, counting bytes written through ``create_file`` (the
    store's only write path) and attributing them to the open layer span."""

    def __init__(self, root: str, tracer: Optional[LayerTracer]) -> None:
        super().__init__(root, ost_count=4)
        self.bytes_written = 0
        self.tracer = tracer

    def create_file(self, path, data=None, layout=None) -> None:
        n = len(data or b"")
        self.bytes_written += n
        if self.tracer is not None:
            self.tracer.add("bytes_written", n)
        super().create_file(path, data, layout)

    def stored_bytes(self, prefix: str) -> int:
        total = 0
        for dirpath, _dirs, files in os.walk(self.backing_path(prefix)):
            total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
        return total


@dataclass
class Observed:
    """Raw observations of one run (real and virtual seconds, counts)."""

    setup: List[float] = field(default_factory=list)
    #: wall seconds of each read op (a join job, or one serve call)
    read_wall: List[float] = field(default_factory=list)
    #: wall seconds of the measured span minus calibration and checking
    span_wall: float = 0.0
    #: ops completed (jobs, or query windows)
    ops: int = 0
    virtual_lat: List[float] = field(default_factory=list)
    virtual_span: float = 0.0
    write_wall: List[float] = field(default_factory=list)
    #: process CPU seconds (both rank threads) of each read and write op
    read_cpu: List[float] = field(default_factory=list)
    write_cpu: List[float] = field(default_factory=list)
    bytes_written: int = 0
    user_bytes: int = 0
    space_amp: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


@dataclass
class TraceBlock:
    """Per-layer self seconds and counts of one traced stretch."""

    wall: float
    ops: int
    self_s: Dict[str, float]
    counts: Dict[str, float]
    ledger: Dict[str, float] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)


def envelopes(rects: Sequence[Tuple[float, float, float, float]]) -> List[Tuple[int, Envelope]]:
    return [(i, Envelope(*r)) for i, r in enumerate(rects)]


def to_geometries(polys: Sequence[Poly]):
    return [loads(p.wkt().split("\t", 1)[0]) for p in polys]


def by_query(hits, n: int) -> List[List[int]]:
    out: List[List[int]] = [[] for _ in range(n)]
    for hit in hits:
        out[hit.query_id].append(hit.record_id)
    return [sorted(ids) for ids in out]


# --------------------------------------------------------------------------- #
class Workload:
    """Shared run scaffolding; subclasses define the ops."""

    name = ""
    #: a read op's tail percentile (at least 10 samples must lie beyond it)
    tail_pct = 90
    #: minimum read ops per measured run, so the tail percentile holds
    min_read_ops = 100

    def __init__(self, seed: int, workdir: str, calib: Calibrator,
                 tracer: Optional[LayerTracer] = None) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.obs = Observed()
        self.calib = calib
        self._fs_count = 0
        self.prepare()

    def new_fs(self) -> CountingLustre:
        self._fs_count += 1
        root = os.path.join(self.workdir, f"fs{self._fs_count}")
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        return CountingLustre(root, self.tracer)

    def compute_scale(self) -> float:
        """``compute_scale`` that charges thread CPU in reference-host
        seconds."""
        return self.calib.factor()

    def rescale(self, clocks) -> None:
        scale = self.compute_scale()
        for clock in clocks:
            clock.compute_scale = scale

    @contextmanager
    def op_span(self, label: str, rank: int = 0):
        """In traced mode, the client-operation root span of one op."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled or rank != 0:
            yield
            return
        handle = tracer.op_span_open(label)
        try:
            yield
        finally:
            tracer.op_span_close(handle)

    def snapshot(self, wall: float, ops: int, ledger: Dict[str, float]) -> TraceBlock:
        """The tracer's totals as one block, then a cleared tracer."""
        t = self.tracer
        block = TraceBlock(wall, ops, dict(t.self_seconds()), dict(t.counts()),
                           ledger, t.spans())
        t.reset()
        return block

    def prepare(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def measure(self, seconds: float) -> Observed:  # pragma: no cover
        raise NotImplementedError

    def trace(self) -> Dict[str, TraceBlock]:  # pragma: no cover
        raise NotImplementedError

    def digest_parts(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def digest(self) -> str:
        """SHA-256 over the generated inputs and their oracle answers."""
        h = hashlib.sha256()
        for part in self.digest_parts():
            h.update(part if isinstance(part, bytes) else part.encode("utf-8"))
        return h.hexdigest()


# --------------------------------------------------------------------------- #
class PipelineJoin(Workload):
    """Back-to-back ``SpatialJoin.run`` jobs over two WKT layers."""

    name = "pipeline_join"
    tail_pct = 90
    min_read_ops = 100
    LEFT = LayerSpec(count=160, clusters=16, radius=(14.0, 26.0), vertices=(8, 14))
    RIGHT = LayerSpec(count=64, clusters=16, radius=(8.0, 16.0), vertices=(6, 10))
    CELLS = 16
    TRACE_JOBS = 8

    def prepare(self) -> None:
        self.left = polygon_layer(self.seed * 2 + 1, self.LEFT, "L")
        self.right = polygon_layer(self.seed * 2 + 2, self.RIGHT, "R")
        self.left_wkt = layer_text(self.left)
        self.right_wkt = layer_text(self.right)
        self.expected = oracle.join_pairs(self.left, self.right)
        if not self.expected:
            raise BenchError("generated layers have no intersecting pair")

    def digest_parts(self):
        yield self.left_wkt
        yield self.right_wkt
        yield repr(self.expected)

    def job(self, fs, label: str) -> mpisim.SPMDResult:
        """One timed, checked join job (a fresh 2-rank world)."""

        def program(comm):
            join = SpatialJoin(
                fs,
                predicate=predicates.intersects,
                grid_config=GridPartitionConfig(num_cells=self.CELLS),
            )
            result = join.run(comm, "datasets/left.wkt", "datasets/right.wkt")
            keys = [(p.left.userdata, p.right.userdata) for p in result.local_results]
            return comm.gather(keys, root=0)

        scale = self.compute_scale()
        with self.op_span(label):
            t0 = time.perf_counter()
            c0 = time.process_time()
            res = mpisim.run_spmd(program, NPROCS, compute_scale=scale)
            dt = time.perf_counter() - t0
            cpu = time.process_time() - c0
        obs = self.obs
        obs.check(sorted(k for chunk in res.values[0] for k in chunk) == self.expected)
        obs.read_wall.append(dt)
        obs.read_cpu.append(cpu)
        obs.span_wall += dt
        obs.ops += 1
        obs.virtual_lat.append(res.max_time)
        obs.virtual_span += res.max_time
        self.calib.sample("read")
        return res

    def setup(self) -> Tuple[CountingLustre, float]:
        """Write both layers to a fresh filesystem and run one warm-up job."""
        mark = len(self.obs.read_wall), self.obs.span_wall, self.obs.virtual_span
        t0 = time.perf_counter()
        fs = self.new_fs()
        fs.create_file("datasets/left.wkt", self.left_wkt)
        fs.create_file("datasets/right.wkt", self.right_wkt)
        self.job(fs, "warm-up")
        dt = time.perf_counter() - t0
        # the warm-up job belongs to the set-up, not to the measured ops
        n, span, vspan = mark
        obs = self.obs
        del obs.read_wall[n:], obs.read_cpu[n:], obs.virtual_lat[n:]
        obs.ops, obs.span_wall, obs.virtual_span = n, span, vspan
        return fs, dt

    def measure(self, seconds: float) -> Observed:
        obs = self.obs
        for _ in range(PRE_CALIB):
            self.calib.sample("pre")
        for _ in range(SETUPS):
            fs, dt = self.setup()
            obs.setup.append(dt)
        settle()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(obs.read_wall) < self.min_read_ops:
            self.job(fs, "job")
        WriteProbe(self, self.left + self.right).run()
        return obs

    def block(self, fs) -> TraceBlock:
        obs = self.obs
        gc.collect()
        n0, w0 = obs.ops, obs.span_wall
        ledger: Counter = Counter()
        for j in range(self.TRACE_JOBS):
            res = self.job(fs, f"job-{j}")
            ledger["io"] += res.max_category("io")
            ledger["comm"] += res.max_category("comm") + res.max_category("comm_pack")
        return TraceBlock(obs.span_wall - w0, obs.ops - n0, {}, {}, dict(ledger))

    def trace(self) -> Dict[str, TraceBlock]:
        tracer = self.tracer
        for _ in range(PRE_CALIB):
            self.calib.sample("pre")
        blocks: Dict[str, TraceBlock] = {}
        fs, _ = self.setup()
        blocks["untraced"] = self.block(fs)
        install(tracer)
        tracer.enabled = True
        try:
            fs, dt = self.setup()
            blocks["setup"] = self.snapshot(dt, 1, {})
            for label in ("A", "B"):
                b = self.block(fs)
                blocks[label] = self.snapshot(b.wall, b.ops, b.ledger)
        finally:
            tracer.enabled = False
            tracer.unpatch()
        return blocks


# --------------------------------------------------------------------------- #
#: compaction cycles of the write probe run after the read span on the
#: workloads whose ops do not write
PROBE_CYCLES = 6


@dataclass
class ChurnShape:
    """One compaction cycle: *rounds* x (append + reopen, then *reads* serve
    calls), then a compaction."""

    rounds: int = 6
    reads: int = 2
    appends: int = 40
    deletes: int = 40
    batches_per_call: int = 4
    per_size: int = 4


class Serving(Workload):
    """Shared machinery of the serving workloads: a sharded store of one
    generated layer behind a ``DistributedStoreServer`` on 2 ranks."""

    LAYER = LayerSpec(count=1600, clusters=64, radius=(6.0, 14.0), vertices=(10, 18))
    PAGE_SIZE = 4096
    CACHE_PAGES = 16
    PARTITIONS = 16
    SHAPE = ChurnShape()
    #: whether write ops count towards the measured span (ops_per_s)
    writes_in_span = False
    #: whether each traced block needs a store no earlier block mutated
    fresh_store_per_block = False

    def prepare(self) -> None:
        self.base = self.make_base()
        self.reset_streams()
        self.servers: Dict[int, DistributedStoreServer] = {}
        self.fs = self.new_fs()
        self.fs.create_file("datasets/base.wkt", layer_text(self.base))
        self.store_seq = 0
        self.reset_ledger()

    def make_base(self) -> List[Poly]:
        return polygon_layer(self.seed * 2 + 1, self.LAYER, "")

    def reset_streams(self) -> None:
        """Restart the seeded op streams (traced blocks replay the same ops)."""
        self.stream = random.Random(self.seed * 2 + 2)
        self.appended = 0

    # -- set-up ---------------------------------------------------------- #
    def setup(self, comm) -> Tuple[DistributedStoreServer, float, str]:
        """Read + parse, bulk load, open and warm one fresh store."""
        self.store_seq += 1
        name = f"s{self.store_seq:03d}"
        comm.barrier()
        with self.op_span("setup", comm.rank):
            t0 = time.perf_counter()
            report = VectorIO(self.fs).read_geometries(comm, "datasets/base.wkt")
            chunks = comm.gather(report.geometries, root=0)
            in_order = True
            if comm.rank == 0:
                geoms = [g for chunk in chunks for g in chunk]
                in_order = [g.userdata for g in geoms] == [p.key for p in self.base]
                sharded_bulk_load(self.fs, name, geoms, num_shards=NPROCS,
                                  num_partitions=self.PARTITIONS, page_size=self.PAGE_SIZE)
                self.model = oracle.LiveModel(self.base)
            comm.barrier()
            server = DistributedStoreServer.open(comm, self.fs, name,
                                                 cache_pages=self.CACHE_PAGES)
            self.servers[comm.rank] = server
            self.warm_up(comm, server)
            comm.barrier()
            dt = time.perf_counter() - t0
        if comm.rank == 0 and not in_order:
            raise BenchError("parsed records are not in file order")
        return server, dt, name

    def warm_up(self, comm, server) -> None:
        """Nothing by default: the store's first reads are part of the ops."""

    def setups(self, comm) -> Tuple[DistributedStoreServer, str]:
        server = None
        for _ in range(SETUPS):
            if server is not None:
                server.close()
            server, dt, name = self.setup(comm)
            if comm.rank == 0:
                self.obs.setup.append(dt)
        return server, name

    # -- store counters across reopen boundaries ------------------------- #
    def ledger(self) -> Counter:
        """Store counters summed over ranks and per-phase virtual seconds
        (max over ranks), servers closed since the last reset included.
        Read on rank 0 while the other rank waits in a barrier."""
        out: Counter = Counter(self.retired)
        for server in self.servers.values():
            for store in server.stores.values():
                out.update(store.stats.as_dict())
        for phase in ("route", "scatter", "local_query", "gather"):
            out["phase." + phase] = max(
                self.retired_phases[r].get(phase, 0.0) + s.phases.get(phase, 0.0)
                for r, s in self.servers.items()
            )
        return out

    def retire(self, rank: int) -> None:
        """Fold a server's counters into the ledger, then close it (both
        ranks retire at once, hence the lock)."""
        server = self.servers[rank]
        with self._ledger_lock:
            for store in server.stores.values():
                self.retired.update(store.stats.as_dict())
            phases = self.retired_phases[rank]
            for phase, value in server.phases.items():
                phases[phase] = phases.get(phase, 0.0) + value
        server.close()

    def reset_ledger(self) -> None:
        self._ledger_lock = threading.Lock()
        self.retired: Counter = Counter()
        self.retired_phases: Dict[int, Dict[str, float]] = {r: {} for r in range(NPROCS)}

    # -- writes ---------------------------------------------------------- #
    def next_append(self) -> Tuple[List[Poly], List[int]]:
        shape = self.SHAPE
        spec = LayerSpec(shape.appends, self.LAYER.clusters, self.LAYER.radius,
                         self.LAYER.vertices)
        polys = polygon_layer(self.stream.randrange(1 << 30), spec, "n", start=self.appended)
        self.appended += len(polys)
        deletes = self.stream.sample(sorted(self.model.live), shape.deletes)
        return polys, deletes

    def write_op(self, comm, name: str) -> DistributedStoreServer:
        """Sharded append + deletes, then a collective reopen (timed until
        the new data can be queried)."""
        polys: List[Poly] = []
        deletes: List[int] = []
        if comm.rank == 0:
            polys, deletes = self.next_append()
        comm.barrier()
        with self.op_span("write", comm.rank):
            t0 = time.perf_counter()
            c0 = time.process_time()
            self.retire(comm.rank)
            if comm.rank == 0:
                ShardedStoreAppender(self.fs, name).append(to_geometries(polys),
                                                           deletes=deletes)
            comm.barrier()
            server = DistributedStoreServer.open(comm, self.fs, name,
                                                 cache_pages=self.CACHE_PAGES)
            self.servers[comm.rank] = server
            comm.barrier()
            dt = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if comm.rank == 0:
            self.model.append(polys, deletes)
            obs = self.obs
            obs.user_bytes += sum(p.wkb_size() for p in polys)
            obs.write_wall.append(dt)
            obs.write_cpu.append(cpu)
            if self.writes_in_span:
                obs.span_wall += dt
            self.calib.sample("write")
        return server

    def compact_op(self, comm, name: str) -> DistributedStoreServer:
        comm.barrier()
        with self.op_span("compact", comm.rank):
            t0 = time.perf_counter()
            self.retire(comm.rank)
            if comm.rank == 0:
                ShardedStoreAppender(self.fs, name).compact()
            comm.barrier()
            server = DistributedStoreServer.open(comm, self.fs, name,
                                                 cache_pages=self.CACHE_PAGES)
            self.servers[comm.rank] = server
            comm.barrier()
            dt = time.perf_counter() - t0
        if comm.rank == 0:
            obs = self.obs
            if self.writes_in_span:
                obs.span_wall += dt
            obs.space_amp.append(self.fs.stored_bytes(f"stores/{name}") / self.model.live_bytes())
            self.calib.sample("write")
        return server

    def write_cycles(self, comm, name: str, cycles: int, reads: bool,
                     seconds: float = 0.0) -> None:
        """Whole compaction cycles: *cycles* of them, or with *seconds* as
        many as start within that time (and enough for the read tail)."""
        shape = self.SHAPE
        start = time.perf_counter()
        written0 = self.fs.bytes_written
        done = 0
        while True:
            go = None
            if comm.rank == 0:
                go = done < cycles or (
                    seconds > 0
                    and (time.perf_counter() - start < seconds
                         or len(self.obs.read_wall) < self.min_read_ops)
                )
            if not comm.bcast(go, root=0):
                break
            for _ in range(shape.rounds):
                server = self.write_op(comm, name)
                if reads:
                    frontend = AsyncStoreFrontend(server, max_in_flight="adaptive")
                    for _ in range(shape.reads):
                        self.churn_read(comm, frontend)
            self.compact_op(comm, name)
            done += 1
        if comm.rank == 0:
            self.obs.bytes_written += self.fs.bytes_written - written0

    # -- driver ---------------------------------------------------------- #
    def run_world(self, program) -> None:
        mpisim.run_spmd(program, NPROCS, compute_scale=self.compute_scale(), timeout=170.0)

    def measure(self, seconds: float) -> Observed:
        for _ in range(PRE_CALIB):
            self.calib.sample("pre")

        def program(comm):
            server, name = self.setups(comm)
            comm.barrier()
            if comm.rank == 0:
                settle()
                for _ in range(PRE_CALIB):
                    self.calib.sample("pre")
                self.rescale(comm.world.clocks)
            self.measured_span(comm, server, name, seconds)

        self.run_world(program)
        return self.obs

    def block(self, comm, server, name: str) -> Optional[TraceBlock]:
        """One fixed block of ops; rank 0 returns its wall, ops and the
        store counter and virtual-clock deltas."""
        obs = self.obs

        def marks():
            clocks = comm.world.clocks
            out = Counter(self.ledger())
            out["comm"] = max(c.category("comm") + c.category("comm_pack") for c in clocks)
            return out

        comm.barrier()
        start = None
        if comm.rank == 0:
            gc.collect()
            start = marks()
            self.reset_streams()
        n0, w0 = obs.ops, obs.span_wall
        self.block_ops(comm, server, name)
        comm.barrier()
        if comm.rank != 0:
            return None
        end = marks()
        delta = {k: end[k] - start.get(k, 0.0) for k in end}
        return TraceBlock(obs.span_wall - w0, obs.ops - n0, {}, {}, delta)

    def trace(self) -> Dict[str, TraceBlock]:
        tracer = self.tracer
        for _ in range(PRE_CALIB):
            self.calib.sample("pre")
        blocks: Dict[str, TraceBlock] = {}

        # tracer state is read and reset between two waits on a barrier the
        # tracer does not see, so no rank is inside a wrapper meanwhile
        sync = threading.Barrier(NPROCS)

        def quiesce(comm, action) -> None:
            sync.wait(timeout=60)
            if comm.rank == 0:
                action()
            sync.wait(timeout=60)

        def enable() -> None:
            install(tracer)
            tracer.enabled = True

        def disable() -> None:
            tracer.enabled = False
            tracer.unpatch()

        def program(comm):
            server, _dt, name = self.setup(comm)
            untraced = self.block(comm, server, name)
            if comm.rank == 0:
                blocks["untraced"] = untraced
            quiesce(comm, enable)
            try:
                server, dt, name = self.setup(comm)
                quiesce(comm, lambda: blocks.__setitem__("setup", self.snapshot(dt, 1, {})))
                for label in ("A", "B"):
                    if label == "B" and self.fresh_store_per_block:
                        server, _dt, name = self.setup(comm)
                        quiesce(comm, tracer.reset)
                    b = self.block(comm, server, name)
                    quiesce(comm, lambda: blocks.__setitem__(
                        label, self.snapshot(b.wall, b.ops, b.ledger)))
            finally:
                quiesce(comm, disable)

        self.run_world(program)
        return blocks


class WriteProbe(Serving):
    """The serving write path (whole compaction cycles of appends, deletes,
    reopens and compactions, no reads) on a store of another workload's own
    polygons.  Workloads whose ops never write run it after their measured
    span, so the write metrics exist for every workload."""

    def __init__(self, parent: Workload, polys: Sequence[Poly]) -> None:
        self.polys = list(polys)
        super().__init__(parent.seed, os.path.join(parent.workdir, "probe"), parent.calib)
        self.obs = parent.obs

    def make_base(self) -> List[Poly]:
        return self.polys

    def run(self) -> None:
        def program(comm):
            _server, _dt, name = self.setup(comm)
            self.write_cycles(comm, name, PROBE_CYCLES, reads=False)

        self.run_world(program)


class ServeWarm(Serving):
    """Batches of rect windows through the collective ``range_query_batch``
    on a store that fits in the page cache and is warm before timing."""

    name = "serve_warm"
    tail_pct = 95
    min_read_ops = 200
    PAGE_SIZE = 65536
    CACHE_PAGES = 4096
    LADDER = (0.01, 0.02, 0.04, 0.08)
    PER_SIZE = 16
    POOL = 24
    TRACE_CALLS = 48

    def prepare(self) -> None:
        super().prepare()
        rng = random.Random(self.seed * 2 + 3)
        self.pool = [ladder_windows(rng, self.LADDER, self.PER_SIZE) for _ in range(self.POOL)]
        indexed = list(enumerate(self.base))
        self.answers = [[oracle.window_hits(indexed, w) for w in batch] for batch in self.pool]
        self.pool_q = [envelopes(batch) for batch in self.pool]

    def digest_parts(self):
        yield layer_text(self.base)
        yield repr(self.pool)
        yield repr(self.answers)

    def warm_up(self, comm, server) -> None:
        """Serve every pooled batch once: the page cache then holds every
        page the measured span touches."""
        for q in self.pool_q:
            server.range_query_batch(q if comm.rank == 0 else None)

    def read_op(self, comm, server, k: int) -> None:
        b = k % self.POOL
        clock = comm.clock
        v0 = clock.now
        with self.op_span("read", comm.rank):
            t0 = time.perf_counter()
            c0 = time.process_time()
            hits = server.range_query_batch(self.pool_q[b] if comm.rank == 0 else None)
            dt = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if comm.rank != 0:
            return
        obs = self.obs
        obs.check(by_query(hits, len(self.pool[b])) == self.answers[b])
        obs.read_wall.append(dt)
        obs.read_cpu.append(cpu)
        obs.span_wall += dt
        obs.ops += len(self.pool[b])
        obs.virtual_lat.append(clock.now - v0)
        obs.virtual_span += clock.now - v0
        self.calib.sample("read")
        self.rescale(comm.world.clocks)

    def measured_span(self, comm, server, name: str, seconds: float) -> None:
        pages0 = self.ledger()["pages_read"] if comm.rank == 0 else 0
        start = time.perf_counter()
        k = 0
        while True:
            go = None
            if comm.rank == 0:
                go = (time.perf_counter() - start < seconds
                      or len(self.obs.read_wall) < self.min_read_ops)
            if not comm.bcast(go, root=0):
                break
            self.read_op(comm, server, k)
            k += 1
        comm.barrier()
        if comm.rank == 0:
            self.obs.extra["span_pages_read"] = self.ledger()["pages_read"] - pages0
        # the read span is over: the write probe may now mutate this store
        self.write_cycles(comm, name, PROBE_CYCLES, reads=False)

    def block_ops(self, comm, server, name: str) -> None:
        for k in range(self.TRACE_CALLS):
            self.read_op(comm, server, k)


class ServeChurn(Serving):
    """Appends, deletes, reopens and compactions beside small Zipf-skewed
    windows through ``AsyncStoreFrontend`` on a store over 4x the page cache."""

    name = "serve_churn"
    tail_pct = 95
    min_read_ops = 200
    ZIPF_HOTSPOTS = 256
    ZIPF_EXPONENT = 0.8
    ZIPF_LADDER = (0.005, 0.01, 0.02)
    ZIPF_SPREAD = 0.02
    fresh_store_per_block = True
    writes_in_span = True

    def reset_streams(self) -> None:
        super().reset_streams()
        anchors = [((p.bbox[0] + p.bbox[2]) / 2, (p.bbox[1] + p.bbox[3]) / 2) for p in self.base]
        self.zipf = ZipfWindows(self.seed * 2 + 3, anchors, self.ZIPF_HOTSPOTS,
                                self.ZIPF_EXPONENT, self.ZIPF_LADDER, self.ZIPF_SPREAD)

    def digest_parts(self):
        """The base layer plus one compaction cycle of the op streams
        (appends, deletes, windows) replayed against the oracle model."""
        yield layer_text(self.base)
        self.reset_streams()
        self.model = oracle.LiveModel(self.base)
        shape = self.SHAPE
        for _ in range(shape.rounds):
            polys, deletes = self.next_append()
            self.model.append(polys, deletes)
            yield layer_text(polys) + repr(deletes).encode()
            for _ in range(shape.reads * shape.batches_per_call):
                rects = self.zipf.batch(shape.per_size)
                yield repr(rects) + repr([self.model.hits(r) for r in rects])
        self.reset_streams()

    def churn_read(self, comm, frontend: AsyncStoreFrontend) -> None:
        rects = None
        if comm.rank == 0:
            shape = self.SHAPE
            rects = [self.zipf.batch(shape.per_size) for _ in range(shape.batches_per_call)]
        with self.op_span("read", comm.rank):
            t0 = time.perf_counter()
            c0 = time.process_time()
            result = frontend.serve([envelopes(r) for r in rects] if rects else None)
            dt = time.perf_counter() - t0
            cpu = time.process_time() - c0
        if comm.rank != 0:
            return
        obs = self.obs
        for r, hits in zip(rects, result.batches):
            obs.check(by_query(hits, len(r)) == [self.model.hits(w) for w in r])
        obs.read_wall.append(dt)
        obs.read_cpu.append(cpu)
        obs.span_wall += dt
        obs.ops += sum(len(r) for r in rects)
        obs.virtual_lat.extend(m.latency for m in result.metrics)
        obs.virtual_span += result.makespan
        obs.extra.setdefault("windows", []).extend(result.windows)
        self.calib.sample("read")
        self.rescale(comm.world.clocks)

    def measured_span(self, comm, server, name: str, seconds: float) -> None:
        self.write_cycles(comm, name, 1, reads=True, seconds=seconds)

    def block_ops(self, comm, server, name: str) -> None:
        self.write_cycles(comm, name, 1, reads=True)


WORKLOADS = {w.name: w for w in (PipelineJoin, ServeWarm, ServeChurn)}
