"""The benchmark's metric catalog: one declaration of every metric.

``BENCHMARK.json`` carries only what the benchmark contract allows (name,
unit, direction and, for end-to-end metrics, the regression bound).  The
rest of each metric's definition lives here: its clock, its tail
percentile, and for each per-layer metric how it is normalised and which
end-to-end metric on which workload it should move.  :func:`check_catalog`
keeps the two in step, and :func:`check_printed` keeps the runner's output
in step with both.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

#: what one calibration sample (``calib.Calibrator.sample``) takes on the
#: reference host, a 2-core x86-64 container running CPython 3.11: wall
#: seconds of the relay probe, and CPU seconds of the compute probe
CALIB_RELAY_REF = 0.0022
CALIB_CPU_REF = 0.0022

#: tail percentile of the read-op latency, per workload (at least 10
#: samples lie beyond it in every run, see ``Workload.min_read_ops``)
TAIL_PCT = {"pipeline_join": 90, "serve_warm": 95, "serve_churn": 95}

WORKLOADS = {
    "pipeline_join": "the paper's read-parse-partition-exchange-join job; no store code, so the control for store changes",
    "serve_warm": "collective rect-window batches on a store that fits the page cache: the CPU path, 0 pages read",
    "serve_churn": "appends, deletes, reopens, compactions beside Zipf windows on a store over 4x the cache: I/O, cache, writes",
}

# name, unit, better, bound, clock
END_TO_END = [
    ("setup_s", "s", "lower", 0.25, "real"),
    ("peak_rss_mb", "MB", "lower", 0.1, "none"),
    ("ops_per_s", "1/s", "higher", 0.2, "ref-host"),
    ("latency_p50_ms", "ms", "lower", 0.25, "ref-host"),
    ("latency_tail_ms", "ms", "lower", 0.25, "ref-host"),
    ("virtual_ops_per_s", "1/s", "higher", 0.25, "virtual"),
    ("virtual_latency_p50_ms", "ms", "lower", 0.25, "virtual"),
    ("write_latency_p50_ms", "ms", "lower", 0.25, "ref-host"),
    ("write_amp", "ratio", "lower", 0.1, "count"),
    ("space_amp", "ratio", "lower", 0.1, "count"),
]

J, W, C = "pipeline_join", "serve_warm", "serve_churn"

# name, unit, better, normalised per, [(e2e metric, workload) it should move]
PER_LAYER = [
    ("core.partition.read.self_ms", "ms", "lower", "op|setup", [("latency_p50_ms", J), ("setup_s", W)]),
    ("core.partition.read.bytes", "bytes", "lower", "op|setup", [("latency_p50_ms", J)]),
    ("core.parsers.parse.self_ms", "ms", "lower", "op|setup", [("latency_p50_ms", J), ("setup_s", W)]),
    ("core.parsers.parse.records", "count", "lower", "op|setup", [("latency_p50_ms", J)]),
    ("core.grid_partition.partition.self_ms", "ms", "lower", "op", [("latency_p50_ms", J)]),
    ("core.grid_partition.replication", "ratio", "lower", "op", [("virtual_latency_p50_ms", J)]),
    ("core.exchange.exchange_cells.self_ms", "ms", "lower", "op", [("latency_p50_ms", J)]),
    ("core.exchange.bytes", "bytes", "lower", "op", [("virtual_latency_p50_ms", J)]),
    ("core.join.refine.self_ms", "ms", "lower", "op", [("latency_p50_ms", J)]),
    ("core.join.candidate_pairs", "count", "lower", "op", [("latency_p50_ms", J)]),
    ("core.join.result_pairs", "count", "higher", "op", [("latency_p50_ms", J)]),
    ("core.join.selectivity", "ratio", "higher", "op", [("latency_p50_ms", J)]),
    ("geometry.predicates.intersects.calls", "count", "lower", "op", [("latency_p50_ms", W), ("latency_p50_ms", J)]),
    ("geometry.predicates.intersects.self_ms", "ms", "lower", "op", [("ops_per_s", W), ("latency_p50_ms", J)]),
    ("index.strtree.query.calls", "count", "lower", "op", [("latency_p50_ms", W)]),
    ("index.strtree.query.self_ms", "ms", "lower", "op", [("latency_p50_ms", W)]),
    ("store.engine.plan.self_ms", "ms", "lower", "op", [("latency_p50_ms", W)]),
    ("store.engine.candidates_per_query", "count", "lower", "op", [("latency_p50_ms", W)]),
    ("store.engine.execute.self_ms", "ms", "lower", "op", [("latency_p50_ms", W)]),
    ("store.engine.refine.self_ms", "ms", "lower", "op", [("latency_p50_ms", W), ("ops_per_s", W)]),
    ("store.engine.slots_scanned", "count", "lower", "op", [("latency_p50_ms", W)]),
    ("store.engine.filter_selectivity", "ratio", "higher", "op", [("latency_p50_ms", W)]),
    ("store.engine.records_decoded", "count", "lower", "op", [("latency_p50_ms", W)]),
    ("store.engine.hits", "count", "higher", "op", [("ops_per_s", W)]),
    ("store.scheduler.schedule.self_ms", "ms", "lower", "op", [("latency_tail_ms", C)]),
    ("store.scheduler.read_requests", "count", "lower", "op", [("virtual_latency_p50_ms", C)]),
    ("store.scheduler.bytes_read", "bytes", "lower", "op", [("virtual_latency_p50_ms", C)]),
    ("store.scheduler.pages_per_request", "ratio", "higher", "op", [("virtual_latency_p50_ms", C)]),
    ("pfs.pread.self_ms", "ms", "lower", "op", [("latency_tail_ms", C)]),
    ("pfs.virtual_io_ms", "ms", "lower", "op", [("virtual_latency_p50_ms", C)]),
    ("store.cache.hit_rate", "ratio", "higher", "op", [("virtual_latency_p50_ms", C), ("latency_tail_ms", C)]),
    ("store.cache.evictions", "count", "lower", "op", [("virtual_latency_p50_ms", C)]),
    ("store.router.plan.self_ms", "ms", "lower", "op", [("latency_p50_ms", W)]),
    ("store.sharded.range_query_batch.self_ms", "ms", "lower", "op", [("latency_p50_ms", W)]),
    ("store.sharded.phase.route_virtual_ms", "ms", "lower", "op", [("virtual_ops_per_s", W)]),
    ("store.sharded.phase.scatter_virtual_ms", "ms", "lower", "op", [("virtual_ops_per_s", W)]),
    ("store.sharded.phase.local_query_virtual_ms", "ms", "lower", "op", [("virtual_ops_per_s", W), ("virtual_ops_per_s", C)]),
    ("store.sharded.phase.gather_virtual_ms", "ms", "lower", "op", [("virtual_ops_per_s", W)]),
    ("store.frontend.serve.self_ms", "ms", "lower", "op", [("latency_p50_ms", C)]),
    ("store.frontend.window_mean", "count", "higher", "call", [("virtual_ops_per_s", C)]),
    ("mpisim.collective.self_ms", "ms", "lower", "op", [("latency_p50_ms", W)]),
    ("mpisim.p2p.self_ms", "ms", "lower", "op", [("latency_p50_ms", C)]),
    ("mpisim.bytes", "bytes", "lower", "op", [("virtual_ops_per_s", W), ("virtual_ops_per_s", C)]),
    ("mpisim.virtual_comm_ms", "ms", "lower", "op", [("virtual_ops_per_s", W)]),
    ("store.mutable.append.self_ms", "ms", "lower", "call", [("write_latency_p50_ms", C)]),
    ("store.mutable.append.bytes_written", "bytes", "lower", "call", [("write_amp", C)]),
    ("store.mutable.compact.self_ms", "ms", "lower", "call", [("ops_per_s", C)]),
    ("store.mutable.compact.bytes_rewritten", "bytes", "lower", "call", [("write_amp", C)]),
    ("store.sharded.open.self_ms", "ms", "lower", "call", [("write_latency_p50_ms", C), ("setup_s", W)]),
    ("store.writer.bulk_load.self_s", "s", "lower", "setup", [("setup_s", W), ("setup_s", C)]),
    ("bench.other.self_ms", "ms", "lower", "op", []),
    ("bench.trace_overhead_frac", "ratio", "lower", "block", []),
]


def benchmark_entries() -> Dict[str, object]:
    """The metric lists ``BENCHMARK.json`` must hold."""
    return {
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _clock in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _per, _moves in PER_LAYER],
    }


def check_catalog(path: str, workload_names: Sequence[str]) -> List[str]:
    """Differences between ``BENCHMARK.json`` and this catalog."""
    with open(path, "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    want = benchmark_entries()
    for key, entries in want.items():
        if bench.get(key) != entries:
            problems.append(f"BENCHMARK.json {key!r} differs from the catalog")
    if sorted(WORKLOADS) != sorted(workload_names) or sorted(TAIL_PCT) != sorted(WORKLOADS):
        problems.append("catalog workloads differ from the runner's workloads")
    return problems


def check_printed(metrics: Dict[str, Dict[str, object]], trace: bool) -> List[str]:
    """Differences between a result's metrics and the catalog."""
    want = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    got = {n: m.get("unit") for n, m in metrics.items()}
    return [] if got == want else [f"printed metrics {sorted(set(got) ^ set(want))} "
                                   f"or their units differ from the catalog"]
