"""Where the benchmark's spans go, and the per-layer metrics they fold into.

Each wrapper sits on the name the caller looks up: ``repro.core.query``
binds ``evaluate_candidate``, ``extend_anchor``, ``merge_anchors`` and
``banded_extend`` at import, so those are wrapped in that module; the
gateway binds ``mendel.query_many`` and its own ``_execute_batch`` when it
is constructed, so those wrappers must be installed before the service
is.  The simulator's generator processes (``node_proc``, ``group_proc``)
are not wrapped: their wall intervals interleave.
"""

from __future__ import annotations

import statistics
import time

from perfbench import speed
from perfbench.trace import Tracer

#: Layers whose self time is reported; with ``other_s`` they tile the wall.
SELF_LAYERS = (
    "vptree.knn", "cluster.route", "core.filter", "core.extend",
    "core.aggregate", "align.gapped", "core.engine", "sim",
    "serve.dispatch", "serve.exec", "tier.fetch_page", "tier.read_page",
    "tier.prefetch", "index.insert", "vptree.insert_batch",
    "vptree.prefix_hash", "store.wal_append", "bench.probe",
)


def install_read_path(tracer: Tracer, identity_threshold: float) -> None:
    """Wrap the query pipeline, the tier and the write path."""
    import repro.core.query as query_module
    from repro.cluster.topology import ClusterTopology
    from repro.core.index import MendelIndex
    from repro.core.query import QueryEngine
    from repro.sim.engine import Simulation
    from repro.store.durable import DurableNodeState
    from repro.tier.blockfile import BlockFileReader
    from repro.tier.store import NodeTier
    from repro.vptree.dynamic import DynamicVPTree
    from repro.vptree.prefix import VPPrefixTree
    from repro.vptree.tree import VPTree

    def knn_before(args, _kwargs):
        return args[0].adapter.pair_evaluations

    def knn_after(before, args, _kwargs, hits):
        tracer.count("vptree.knn.evals",
                     args[0].adapter.pair_evaluations - before)
        tracer.count("vptree.knn.hits", len(hits))

    def route_after(_token, _args, _kwargs, groups):
        tracer.count("cluster.route.groups", len(groups))

    def filter_after(_token, _args, _kwargs, score):
        if score.identity >= identity_threshold:
            tracer.count("core.filter.identity_pass")

    tracer.wrap(VPTree, "knn", "vptree.knn", knn_before, knn_after)
    tracer.wrap(ClusterTopology, "groups_for_query", "cluster.route",
                after=route_after)
    tracer.wrap(query_module, "evaluate_candidate", "core.filter",
                after=filter_after)
    tracer.wrap(query_module, "extend_anchor", "core.extend")
    tracer.wrap(query_module, "merge_anchors", "core.aggregate")
    tracer.wrap(query_module, "banded_extend", "align.gapped")
    tracer.wrap(QueryEngine, "run_batch", "core.engine")
    tracer.wrap(Simulation, "run", "sim")
    tracer.wrap(NodeTier, "fetch_page", "tier.fetch_page")
    tracer.wrap(NodeTier, "prefetch", "tier.prefetch")
    tracer.wrap(BlockFileReader, "read_page", "tier.read_page")
    tracer.wrap(MendelIndex, "insert_sequences", "index.insert")
    tracer.wrap(DynamicVPTree, "insert_batch", "vptree.insert_batch")
    tracer.wrap(VPPrefixTree, "hash_one", "vptree.prefix_hash")
    tracer.wrap(DurableNodeState, "append_insert", "store.wal_append")
    # The benchmark's own speed probes between operations.
    tracer.wrap(speed, "probe", "bench.probe")


def install_gateway(tracer: Tracer, mendel) -> None:
    """Wrap the gateway's batch execution; call before building the
    service, which binds both names at construction."""
    from repro.serve.service import QueryService

    def dispatch_before(args, _kwargs):
        requests = args[2]
        now = time.monotonic()  # the service's own clock
        for request in requests:
            tracer.sample("serve.queue_wait_ms",
                          (now - request.submitted_at) * 1e3)
        tracer.sample("serve.batch", len(requests))
        tracer.set_request(",".join(r.record.seq_id for r in requests))

    tracer.wrap(QueryService, "_execute_batch", "serve.dispatch",
                before=dispatch_before)
    tracer.wrap(mendel, "query_many", "serve.exec")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def fold(tracer: Tracer, wall_s: float,
         percentile) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass over *wall_s* seconds;
    *percentile(values)* gives the tail of the queue waits."""
    busy, calls = tracer.busy()
    self_s = tracer.self_times()
    counts = tracer.counts()
    out: dict[str, tuple[float, str]] = {}
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    for layer in ("vptree.knn", "cluster.route", "core.filter", "core.extend",
                  "core.aggregate", "align.gapped", "tier.fetch_page",
                  "tier.read_page", "tier.prefetch", "index.insert",
                  "vptree.insert_batch", "vptree.prefix_hash",
                  "store.wal_append"):
        out[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
    for layer in ("vptree.knn", "tier.fetch_page", "tier.read_page",
                  "vptree.prefix_hash", "store.wal_append"):
        out[f"{layer}.calls"] = (float(calls.get(layer, 0)), "count")
    evals = counts.get("vptree.knn.evals", 0.0)
    out["vptree.knn.evals"] = (evals, "count")
    out["vptree.knn.hits_per_eval"] = (
        _ratio(counts.get("vptree.knn.hits", 0.0), evals), "ratio")
    out["cluster.route.groups_per_window"] = (
        _ratio(counts.get("cluster.route.groups", 0.0),
               calls.get("cluster.route", 0)), "ratio")
    out["core.filter.identity_pass_ratio"] = (
        _ratio(counts.get("core.filter.identity_pass", 0.0),
               calls.get("core.filter", 0)), "ratio")
    waits = tracer.samples("serve.queue_wait_ms")
    batches = tracer.samples("serve.batch")
    out["serve.queue_wait_p50_ms"] = (_median(waits), "ms")
    out["serve.queue_wait_tail_ms"] = (percentile(waits), "ms")
    out["serve.exec_busy_s"] = (busy.get("serve.exec", 0.0), "s")
    out["serve.batch_mean"] = (
        _ratio(sum(batches), len(batches)), "requests")
    tiled = sum(self_s.get(layer, 0.0) for layer in SELF_LAYERS)
    out["other_s"] = (wall_s - tiled, "s")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.spans"] = (float(sum(calls.values())), "count")
    return out
