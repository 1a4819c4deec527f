"""Repository benchmark: one workload, checked against an oracle, as metrics.

Run from the repository root::

    python3 repobench/run.py --workload serve_warm --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics for ``--seconds`` (plus
whatever it takes to reach the workload's minimum op count, and for
``serve_churn`` the end of the compaction cycle in progress).  ``--trace 1``
runs a fixed block of ops once untraced and twice with every layer entry
point wrapped, and reports the per-layer metrics of the first traced block.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the fuller record of the run
(raw real times, the calibration median, the trace spans) is written under
``.bench_out/``.  The exit code is 0 only when every answer matched the
oracle and every self-check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(wl, problems: List[str]) -> Dict[str, Dict[str, object]]:
    from catalog import TAIL_PCT

    obs = wl.obs
    f, f_read, f_write = wl.calib.factor(), wl.calib.factor("read"), wl.calib.factor("write")
    tail = TAIL_PCT[wl.name]
    n = len(obs.read_wall)
    if n * (100 - tail) / 100.0 < 10:
        problems.append(f"only {n} read ops: fewer than 10 beyond p{tail}")
    if wl.name == "serve_warm" and obs.extra.get("span_pages_read") != 0:
        problems.append(f"serve_warm read {obs.extra.get('span_pages_read')} pages while measured")
    if not obs.write_wall or not obs.space_amp or not obs.user_bytes:
        problems.append("no completed write cycle")
        return {}
    return {
        "setup_s": metric(statistics.median(obs.setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ops_per_s": metric(obs.ops / (obs.span_wall * f), "1/s"),
        "latency_p50_ms": metric(statistics.median(obs.read_wall) * f_read * 1e3, "ms"),
        "latency_tail_ms": metric(
            statistics.quantiles(obs.read_wall, n=100, method="inclusive")[tail - 1]
            * f_read * 1e3, "ms"),
        "virtual_ops_per_s": metric(obs.ops / obs.virtual_span, "1/s"),
        "virtual_latency_p50_ms": metric(statistics.median(obs.virtual_lat) * 1e3, "ms"),
        "write_latency_p50_ms": metric(statistics.median(obs.write_wall) * f_write * 1e3, "ms"),
        "write_amp": metric(obs.bytes_written / obs.user_bytes, "ratio"),
        "space_amp": metric(statistics.median(obs.space_amp), "ratio"),
    }


def per_layer(wl, blocks, spans_path: str, problems: List[str]) -> Dict[str, Dict[str, object]]:
    from catalog import PER_LAYER
    from repro.obs.schema_check import check_jsonl

    a, b, u, setup = blocks["A"], blocks["B"], blocks["untraced"], blocks["setup"]
    # -- self-checks ----------------------------------------------------- #
    count_keys = sorted(set(a.counts) | set(b.counts))
    differ = [k for k in count_keys if a.counts.get(k) != b.counts.get(k)]
    ledger_counts = ("pages_read", "bytes_read", "records_decoded", "read_requests",
                     "slots_scanned", "cache_hits", "cache_misses", "cache_evictions")
    differ += [k for k in ledger_counts if a.ledger.get(k) != b.ledger.get(k)]
    if differ:
        problems.append(f"per-layer counts differ between two traced blocks: {differ[:6]}")
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in a.spans:
            fh.write(json.dumps(span) + "\n")
    check_jsonl(spans_path, allow_dangling=False, problems=problems)
    layer_self = sum(v for k, v in a.self_s.items() if k != "bench.op")
    other = a.wall - layer_self
    # the serving rank closes its last spans of an op just after the client
    # stops that op's clock, so the CPU can exceed the wall by a little;
    # a span counted twice would exceed it by far more
    if other < -0.05 * a.wall:
        problems.append(f"layer self times {layer_self:.4f}s exceed the traced wall {a.wall:.4f}s")

    # -- metrics --------------------------------------------------------- #
    ops = a.ops
    serve = wl.name != "pipeline_join"
    core_src = setup if serve else a
    core_div = 1 if serve else ops

    def self_ms(block, name, div):
        return block.self_s.get(name, 0.0) * 1e3 / div

    def count(block, key, div):
        return block.counts.get(key, 0.0) / div

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, key=None):
        calls = a.counts.get(name + ".calls", 0.0)
        if key is None:
            return ratio(a.self_s.get(name, 0.0) * 1e3, calls)
        return ratio(a.counts.get(f"{name}.{key}", 0.0), calls)

    led = a.ledger
    io_ms = led.get("io_seconds", led.get("io", 0.0)) * 1e3
    windows = wl.obs.extra.get("windows", [])
    values = {
        "core.partition.read.self_ms": self_ms(core_src, "core.partition.read", core_div),
        "core.partition.read.bytes": count(core_src, "core.partition.read.bytes", core_div),
        "core.parsers.parse.self_ms": self_ms(core_src, "core.parsers.parse", core_div),
        "core.parsers.parse.records": count(core_src, "core.parsers.parse.records", core_div),
        "core.grid_partition.partition.self_ms": self_ms(a, "core.grid_partition.partition", ops),
        "core.grid_partition.replication": ratio(
            a.counts.get("core.grid_partition.partition.assigned", 0.0),
            a.counts.get("core.grid_partition.partition.inputs", 0.0)),
        "core.exchange.exchange_cells.self_ms": self_ms(a, "core.exchange.exchange_cells", ops),
        "core.exchange.bytes": count(a, "core.exchange.exchange_cells.bytes", ops),
        "core.join.refine.self_ms": self_ms(a, "core.join.refine", ops),
        "core.join.candidate_pairs": count(a, "core.join.refine.results", ops),
        "core.join.result_pairs": count(a, "core.join.refine.result_pairs", ops),
        "core.join.selectivity": ratio(a.counts.get("core.join.refine.result_pairs", 0.0),
                                       a.counts.get("core.join.refine.results", 0.0)),
        "geometry.predicates.intersects.calls": count(a, "geometry.predicates.intersects.calls", ops),
        "geometry.predicates.intersects.self_ms": self_ms(a, "geometry.predicates.intersects", ops),
        "index.strtree.query.calls": count(a, "index.strtree.query.calls", ops),
        "index.strtree.query.self_ms": self_ms(a, "index.strtree.query", ops),
        "store.engine.plan.self_ms": self_ms(a, "store.engine.plan", ops),
        "store.engine.candidates_per_query": ratio(a.counts.get("store.engine.plan.candidates", 0.0),
                                                   a.counts.get("store.engine.plan.queries", 0.0)),
        "store.engine.execute.self_ms": self_ms(a, "store.engine.execute", ops),
        "store.engine.refine.self_ms": self_ms(a, "store.engine.refine", ops),
        "store.engine.slots_scanned": led.get("slots_scanned", 0.0) / ops,
        "store.engine.filter_selectivity": ratio(a.counts.get("store.engine.refine.hits", 0.0),
                                                 led.get("slots_scanned", 0.0)),
        "store.engine.records_decoded": led.get("records_decoded", 0.0) / ops,
        "store.engine.hits": count(a, "store.engine.refine.hits", ops),
        "store.scheduler.schedule.self_ms": self_ms(a, "store.scheduler.schedule", ops),
        "store.scheduler.read_requests": led.get("read_requests", 0.0) / ops,
        "store.scheduler.bytes_read": led.get("bytes_read", 0.0) / ops,
        "store.scheduler.pages_per_request": ratio(led.get("pages_read", 0.0),
                                                   led.get("read_requests", 0.0)),
        "pfs.pread.self_ms": self_ms(a, "pfs.pread", ops),
        "pfs.virtual_io_ms": io_ms / ops,
        "store.cache.hit_rate": ratio(led.get("cache_hits", 0.0),
                                      led.get("cache_hits", 0.0) + led.get("cache_misses", 0.0)),
        "store.cache.evictions": led.get("cache_evictions", 0.0) / ops,
        "store.router.plan.self_ms": self_ms(a, "store.router.plan", ops),
        "store.sharded.range_query_batch.self_ms": self_ms(a, "store.sharded.range_query_batch", ops),
        "store.frontend.serve.self_ms": self_ms(a, "store.frontend.serve", ops),
        "store.frontend.window_mean": statistics.fmean(windows) if windows else 0.0,
        "mpisim.collective.self_ms": self_ms(a, "mpisim.collective", ops),
        "mpisim.p2p.self_ms": self_ms(a, "mpisim.p2p", ops),
        "mpisim.bytes": (a.counts.get("mpisim.collective.bytes", 0.0)
                         + a.counts.get("mpisim.p2p.bytes", 0.0)) / ops,
        "mpisim.virtual_comm_ms": led.get("comm", 0.0) * 1e3 / ops,
        "store.mutable.append.self_ms": per_call("store.mutable.append"),
        "store.mutable.append.bytes_written": per_call("store.mutable.append", "bytes_written"),
        "store.mutable.compact.self_ms": per_call("store.mutable.compact"),
        "store.mutable.compact.bytes_rewritten": per_call("store.mutable.compact", "bytes_written"),
        "store.sharded.open.self_ms": per_call("store.sharded.open"),
        "store.writer.bulk_load.self_s": setup.self_s.get("store.writer.bulk_load", 0.0),
        "bench.other.self_ms": other * 1e3 / ops,
        "bench.trace_overhead_frac": a.wall / u.wall - 1.0,
    }
    for phase in ("route", "scatter", "local_query", "gather"):
        values[f"store.sharded.phase.{phase}_virtual_ms"] = led.get("phase." + phase, 0.0) * 1e3 / ops
    units = {n: unit for n, unit, *_ in PER_LAYER}
    return {n: metric(values[n], units[n]) for n, _u, *_ in PER_LAYER}


def hash_seed_check(workload: str, seed: int, digest: str) -> List[str]:
    """Inputs and oracle answers must not depend on the per-process string
    hash: recompute their digest in two processes with different
    ``PYTHONHASHSEED`` values and compare with this process's."""
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--digest"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        digests.append(proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "")
    if digests != [digest, digest]:
        return [f"inputs differ across PYTHONHASHSEED values: {digests} vs {digest}"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--digest", action="store_true",
                        help="print a digest of the generated inputs and oracle answers")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"repobench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from calib import Calibrator
    from catalog import CALIB_CPU_REF, CALIB_RELAY_REF, check_catalog, check_printed
    from layers import LayerTracer
    from workloads import WORKLOADS

    problems = check_catalog(os.path.join(ROOT, "BENCHMARK.json"), list(WORKLOADS))
    if args.workload not in WORKLOADS:
        problems.append(f"unknown workload {args.workload!r} (have {sorted(WORKLOADS)})")
    if problems:
        print("repobench: " + "; ".join(problems), file=sys.stderr)
        return 3

    out_dir = os.path.join(os.getcwd(), ".bench_out")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = []
    try:
        tracer = LayerTracer() if args.trace else None
        calib = Calibrator(CALIB_RELAY_REF, CALIB_CPU_REF)
        wl = WORKLOADS[args.workload](args.seed, workdir, calib, tracer)
        if args.digest:
            print(wl.digest())
            return 0
        if args.trace:
            problems += hash_seed_check(args.workload, args.seed, wl.digest())
            blocks = wl.trace()
            metrics = per_layer(wl, blocks, os.path.join(out_dir, f"{tag}-spans.jsonl"), problems)
        else:
            wl.measure(args.seconds)
            metrics = end_to_end(wl, problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    obs = wl.obs
    if metrics:
        problems += check_printed(metrics, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "calib_ref": {"relay_s": CALIB_RELAY_REF, "cpu_s": CALIB_CPU_REF},
        "calib_median": {kind: wl.calib.medians(kind)
                         for kind in sorted({s[0] for s in wl.calib.samples})},
        "setup_raw_s": obs.setup,
        "read_ops": len(obs.read_wall),
        "read_wall_raw_s": obs.read_wall,
        "write_wall_raw_s": obs.write_wall,
        "read_cpu_raw_s": obs.read_cpu,
        "write_cpu_raw_s": obs.write_cpu,
        "span_wall_raw_s": obs.span_wall,
        "problems": problems,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"repobench: {problem}", file=sys.stderr)
    correct = obs.failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": obs.attempted,
                      "failed": obs.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
