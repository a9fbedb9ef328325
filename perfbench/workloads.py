"""The four workloads: set-up, the timed window, and the oracles.

Each workload builds a fresh deployment (inserts and the tier cache change
state, so every run starts from the same one), runs one warm-up
operation, then drives the program's public entry points from this
process for a fixed number of operations, ``round(ops_per_s * seconds)``,
each issued when the previous one is answered.  A fixed count means a
slow spell of the machine cannot change which operations are measured,
and every run has the same number of samples beyond its tail
percentile.  Every time is scaled to the reference speed
of :mod:`perfbench.speed`; raw times are kept beside the scaled ones.
Answers are checked after the window, so the oracles cost nothing inside
it.  A :class:`Pass` holds what one window measured; ``run.py`` folds
passes into metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import itertools
import os
import resource
import time
from dataclasses import dataclass, field

from perfbench import inputs, speed
from perfbench.trace import Tracer

perf = time.perf_counter


@dataclass
class Pass:
    """What one timed window measured; times are scaled unless ``raw``."""

    setup_s: list[float] = field(default_factory=list)
    setup_raw_s: list[float] = field(default_factory=list)
    #: time the operations took, and the window they took it in
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    #: answered reads only
    latencies_ms: list[float] = field(default_factory=list)
    raw_latencies_ms: list[float] = field(default_factory=list)
    sim_ms: list[float] = field(default_factory=list)
    #: machine slowdown against the reference, one per timed operation
    slowdowns: list[float] = field(default_factory=list)
    residues: int = 0
    in_limit: int = 0
    ops: int = 0
    #: the process's peak RSS when the window ended, before the oracles
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: failures that are wrong answers or errors (not sheds or deadlines)
    wrong: int = 0
    notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def fail(self, note: str, wrong: bool = True) -> None:
        self.failed += 1
        self.wrong += int(wrong)
        if len(self.notes) < 5:
            self.notes.append(note)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def op_count(wl: dict, seconds: float) -> int:
    """Operations one window of *seconds* issues for workload *wl*."""
    return max(1, int(round(wl["ops_per_s"] * seconds)))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(call):
    """Run *call* between two speed probes.

    Returns ``(result, error, raw seconds, slowdown)``; an exception is
    returned as *error*, to be counted as a failed operation.
    """
    before = speed.probe()
    start = perf()
    try:
        result, error = call(), None
    except Exception as exc:
        result, error = None, exc
    raw = perf() - start
    return result, error, raw, speed.slowdown(before, speed.probe())


def _database(spec: dict, wl: dict):
    """The workload's reference database: fixed by ``spec.json`` (its own
    seed), so runs with different ``--seed`` values build the same index
    and differ only in the operations they issue."""
    return inputs.database({**spec["database"], **wl.get("database", {})})


def _build(spec: dict, database, spill_bytes: int | None,
           before_spill=None):
    """One timed set-up: ``Mendel.build`` (plus ``Mendel.spill``).

    Returns ``(deployment, raw seconds, scaled seconds)``.  *before_spill*
    runs on the all-RAM deployment, untimed, before it spills.
    """
    from repro.core.framework import Mendel

    db = inputs.copy_of(database)
    config = inputs.config(spec["cluster"])
    mendel, error, raw, slow = _timed(lambda: Mendel.build(db, config))
    if error is not None:
        raise error
    scaled = raw / slow
    if spill_bytes is not None:
        if before_spill is not None:
            before_spill(mendel)
        _, error, spill_raw, slow = _timed(
            lambda: mendel.spill(cache_bytes=spill_bytes))
        if error is not None:
            raise error
        raw += spill_raw
        scaled += spill_raw / slow
    return mendel, raw, scaled


def _setup(result: "Pass", spec: dict, database, repeats: int,
           spill_bytes: int | None = None, before_spill=None):
    """Build *repeats* times and time them all; keep the last deployment
    (*before_spill* runs on that one only)."""
    mendel = None
    for k in range(repeats):
        mendel = None  # let the previous deployment go before the next
        mendel, raw, scaled = _build(
            spec, database, spill_bytes,
            before_spill if k == repeats - 1 else None)
        result.setup_raw_s.append(raw)
        result.setup_s.append(scaled)
    # Collect the discarded deployments now rather than inside the window.
    gc.collect()
    return mendel


def _tamper(report):
    """A deliberately wrong answer: the same report with no alignments."""
    return dataclasses.replace(report, alignments=[])


def _account(result: Pass, ok: bool, raw_s: float, slow: float, report,
             residues: int, limit_ms: float) -> None:
    result.attempted += 1
    if report is None:
        return
    latency_ms = raw_s / slow * 1e3
    result.latencies_ms.append(latency_ms)
    result.raw_latencies_ms.append(raw_s * 1e3)
    result.slowdowns.append(slow)
    result.sim_ms.append(report.stats.turnaround * 1e3)
    result.residues += residues
    if ok and latency_ms <= limit_ms:
        result.in_limit += 1


@contextlib.contextmanager
def _traced(tracer: Tracer | None, install, *args):
    """Install the span wrappers (if any) for the duration of a window."""
    if install is not None:
        install(*args)
    try:
        yield
    finally:
        if install is not None:
            tracer.close()


# -- search and tiered ---------------------------------------------------------


def _read_loop(name: str, seed: int, spec: dict, ops: int, repeats: int,
               tracer: Tracer | None = None, tamper: bool = False,
               install=None, reference: dict | None = None) -> Pass:
    """Closed loop, one client, direct ``Mendel.query`` of *ops* reads.

    ``search`` runs all-RAM and checks that each read's top hit is one of
    the sequences it was stitched from.  ``tiered`` spills to the disk tier
    behind a small block cache and checks every answer against the all-RAM
    answer the same deployment gave before it spilled (*reference* reuses
    those of an earlier pass over the same reads).
    """
    wl = spec["workloads"][name]
    spill = wl.get("cache_bytes")
    params = inputs.params(spec["params"])
    database = _database(spec, wl)
    low, high = wl["read_length"]
    reads = list(itertools.islice(
        inputs.read_stream(database, seed, low, high, name), ops))
    warm = next(inputs.read_stream(database, seed, low, low, "warm", 9))
    result = Pass()
    before_spill = None
    if spill is not None and reference is None:
        reference = {}

        def before_spill(mendel):
            for read in reads:
                reference[read.record.seq_id] = mendel.query(
                    read.record, params).alignments

    mendel = _setup(result, spec, database, repeats, spill, before_spill)
    mendel.query(warm.record, params)
    before = mendel.tier_report()
    timed = []
    with _traced(tracer, install):
        start = perf()
        for read in reads:
            if tracer is not None:
                tracer.set_request(read.record.seq_id)
            timed.append(_timed(functools.partial(mendel.query, read.record,
                                                  params)))
        result.raw_wall_s = perf() - start
    result.peak_rss_mb = _peak_rss_mb()
    result.ops = len(reads)
    result.wall_s = sum(raw / slow for _, _, raw, slow in timed)
    if spill is not None:
        _tier_counts(result, before, mendel.tier_report(), database)
        result.extra["reference"] = reference
    if tamper:
        timed[0] = (_tamper(timed[0][0]),) + timed[0][1:]
    for read, (report, error, raw, slow) in zip(reads, timed):
        if error is not None:
            ok, note = False, repr(error)
        elif spill is None:
            ok = bool(report.alignments) and \
                report.alignments[0].subject_id in read.sources
            note = "top hit is not a source of the read"
        else:
            ok = report.alignments == reference[read.record.seq_id]
            note = "differs from the all-RAM answer"
        if not ok:
            result.fail(f"{read.record.seq_id}: {note}")
        _account(result, ok, raw, slow, report, len(read), wl["limit_ms"])
    _gapped_counts(result, [t[0] for t in timed])
    return result


def _tier_counts(result: Pass, before: dict, after: dict, database) -> None:
    result.extra["cold_read_bytes"] = (after["cold_read_bytes"]
                                       - before["cold_read_bytes"])
    # Cache counters live in the process-wide registry: take differences.
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    result.extra["page_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    result.extra["disk_bytes_per_user_byte"] = (
        after["bytes_on_disk"] / database.total_residues)


def _gapped_counts(result: Pass, reports) -> None:
    reports = [r for r in reports if r is not None]
    result.extra["gapped_extensions"] = sum(
        r.stats.gapped_extensions for r in reports)
    result.extra["alignments"] = sum(
        r.stats.alignments_reported for r in reports)


# -- ingest --------------------------------------------------------------------


def ingest(seed: int, spec: dict, ops: int, repeats: int,
           tracer: Tracer | None = None, tamper: bool = False,
           install=None) -> Pass:
    """Closed loop, one client: insert a small batch of new sequences, then
    read one of them back, *ops* times; end with one node crash and
    recovery.

    Every ``segment_rounds`` rounds the loop starts over on a fresh
    deployment, built outside the window and timed as set-up (so
    *repeats* is not used: each segment is one set-up).  A read's cost
    grows with the index, so each segment measures the same index sizes.
    """
    from repro.seq.mutate import sample_read
    from repro.seq.records import SequenceSet

    wl = spec["workloads"]["ingest"]
    params = inputs.params(spec["params"])
    database = _database(spec, wl)
    batch = wl["batch"]
    batches = inputs.new_batches(seed, batch, wl["new_length"],
                                 database.alphabet)
    gen = inputs.rng(seed, 6)
    low, high = wl["read_length"]
    warm = next(inputs.read_stream(database, seed, low, low, "warm", 9))
    result = Pass()
    done = []  # (source id, read, report, error, read raw s, slowdown)
    insert_ms = []  # per acknowledged insert, scaled
    inserted_residues = 0
    mendel = None
    while len(done) < ops:
        mendel = None  # let the previous segment's deployment go first
        gc.collect()
        mendel, raw, scaled = _build(spec, database, None)
        result.setup_raw_s.append(raw)
        result.setup_s.append(scaled)
        mendel.query(warm.record, params)
        first_block = len(mendel.index.store)
        inserted = []
        with _traced(tracer, install):
            start = perf()
            for _ in range(min(wl["segment_rounds"], ops - len(done))):
                n = len(done)
                new = next(batches)
                inserted.extend(new)
                pick = new[int(gen.integers(0, batch))]
                read = sample_read(pick, inputs.length_at(n, low, high),
                                   rng=gen, error_rate=0.02,
                                   seq_id=f"ingest-{n:05d}")
                if tracer is not None:
                    tracer.set_request(read.seq_id)
                batch_set = SequenceSet(alphabet=database.alphabet,
                                        records=new)
                _, error, raw, slow = _timed(
                    functools.partial(mendel.insert, batch_set))
                result.wall_s += raw / slow
                report, read_raw, read_slow = None, 0.0, 1.0
                if error is None:
                    insert_ms.append(raw / slow * 1e3)
                    inserted_residues += sum(len(r) for r in new)
                    report, error, read_raw, read_slow = _timed(
                        functools.partial(mendel.query, read, params))
                    result.wall_s += read_raw / read_slow
                done.append((pick.seq_id, read, report, error, read_raw,
                             read_slow))
            result.raw_wall_s += perf() - start
    result.peak_rss_mb = _peak_rss_mb()
    result.ops = len(done)
    if tamper:
        done[0] = done[0][:2] + (_tamper(done[0][2]),) + done[0][3:]
    for source_id, read, report, error, raw, slow in done:
        ok = error is None and bool(report.alignments) \
            and report.alignments[0].subject_id == source_id
        if not ok:
            result.fail(f"{read.seq_id}: top hit is not {source_id}"
                        if error is None else repr(error))
        _account(result, ok, raw, slow, report, len(read), wl["limit_ms"])
    result.extra["insert_ms"] = insert_ms
    result.extra["insert_residues_per_s"] = (
        inserted_residues / (sum(insert_ms) / 1e3) if insert_ms else 0.0)
    _gapped_counts(result, [d[2] for d in done])
    _durability(result, mendel, first_block, inserted, params,
                wl["durability_rereads"])
    return result


def _durability(result: Pass, mendel, first_block: int, inserted, params,
                rereads: int) -> None:
    """Crash-stop the node holding most new blocks, recover it, and check
    that every acknowledged insert is still held and found (untimed)."""
    index = mendel.index
    new_blocks = index.store.blocks[first_block:]
    if not new_blocks:
        return
    owners: dict[str, int] = {}
    for block in new_blocks:
        node_id = index.node_of_block[block.block_id]
        owners[node_id] = owners.get(node_id, 0) + 1
    victim = min(owners, key=lambda node_id: (-owners[node_id], node_id))
    node = index.node(victim)
    acked = {b for b in node.block_ids if b >= first_block}
    if node.durability_degraded:
        result.fail(f"{victim}: an insert was not acknowledged")
    mendel.fail_node(victim)
    mendel.recover_node(victim)
    held: set[int] = set()
    for member in index.topology.nodes:
        if member.alive:
            held.update(member.block_ids)
    on_victim = set(index.node(victim).block_ids)
    by_seq: dict[str, list[int]] = {}
    for block in new_blocks:
        by_seq.setdefault(block.seq_id, []).append(block.block_id)
    reread = []
    for record in inserted:
        ids = by_seq.get(record.seq_id, [])
        result.attempted += 1
        lost = [b for b in ids if b not in held or
                (b in acked and b not in on_victim)]
        if lost:
            result.fail(f"{record.seq_id}: {len(lost)} acknowledged blocks "
                        f"lost after recovering {victim}")
        elif any(b in acked for b in ids) and len(reread) < rereads:
            reread.append(record)
    for record in reread:
        result.attempted += 1
        report = mendel.query(record, params)
        if not report.alignments or \
                report.alignments[0].subject_id != record.seq_id:
            result.fail(f"{record.seq_id}: not found after recovery")
    result.extra["durability_checked"] = len(inserted) + len(reread)


# -- gateway -------------------------------------------------------------------


def gateway(seed: int, spec: dict, ops: int, repeats: int,
            tracer: Tracer | None = None, tamper: bool = False,
            install=None) -> Pass:
    """Closed loop, one client: *ops* requests through an in-process
    ``QueryService`` (admission, micro-batcher, result cache, worker
    pool), each submitted when the previous one is answered.

    Requests draw from a fixed pool with Zipf popularity, so a fixed share
    repeats an earlier one and is a result-cache hit.  Each answer must
    equal the sequential direct answer.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.errors import DeadlineExceeded, Overloaded
    from repro.serve.service import QueryService

    wl = spec["workloads"]["gateway"]
    params = inputs.params(spec["params"])
    database = _database(spec, wl)
    low, high = wl["read_length"]
    draws = inputs.request_draws(seed, ops, wl["repeat_share"], wl["zipf"])
    stream = inputs.read_stream(database, seed, low, high, "pool")
    pool = [next(stream) for _ in range(max(draws) + 1)]
    reads = [pool[pick] for pick in draws]
    warm = next(inputs.read_stream(database, seed, low, low, "warm", 9))
    result = Pass()
    mendel = _setup(result, spec, database, repeats)
    timed = []
    with _traced(tracer, install, mendel):
        service = QueryService(mendel, max_workers=nproc(),
                               registry=MetricsRegistry())
        try:
            service.submit(warm.record, params).result(timeout=60)
            if tracer is not None:
                tracer.reset()  # drop the warm-up request's spans
            start = perf()
            for read in reads:
                timed.append(_timed(functools.partial(
                    _served, service, read.record, params,
                    wl["timeout_s"])))
            result.raw_wall_s = perf() - start
            cache = service.cache.stats
            result.extra["cache_hits"] = cache.hits
            result.extra["cache_lookups"] = cache.hits + cache.misses
            result.extra["shed"] = service.stats.shed
        finally:
            service.close()
    result.peak_rss_mb = _peak_rss_mb()
    result.ops = len(reads)
    result.wall_s = sum(raw / slow for _, _, raw, slow in timed)
    result.extra["repeat_share"] = 1.0 - len(set(draws)) / len(draws)
    # The oracle: the sequential direct answer of every distinct read.
    reference = {}
    mismatched = 0
    reports = []
    for k, (read, (report, error, raw, slow)) in enumerate(zip(reads, timed)):
        if error is not None:
            shed = isinstance(error, (Overloaded, DeadlineExceeded))
            result.fail(f"{read.record.seq_id}: {error!r}", wrong=not shed)
            _account(result, False, raw, slow, None, 0, wl["limit_ms"])
            continue
        if tamper and k == 0:
            report = _tamper(report)
        reports.append(report)
        key = read.record.seq_id
        if key not in reference:
            reference[key] = mendel.query(read.record, params)
        ref = reference[key]
        ok = _hits(report.alignments) == _hits(ref.alignments)
        if not ok:
            result.fail(f"{key}: differs from the sequential answer")
        if (report.stats.node_evals != ref.stats.node_evals
                or report.stats.turnaround != ref.stats.turnaround):
            mismatched += 1
        _account(result, ok, raw, slow, report, len(read), wl["limit_ms"])
    result.extra["ledger_mismatch"] = mismatched
    _gapped_counts(result, reports)
    return result


def _hits(alignments) -> list:
    """Alignments without their query id: a result-cache hit answers a read
    whose text an earlier read already had with that read's alignments,
    query id included."""
    return [dataclasses.replace(a, query_id="") for a in alignments]


def _served(service, record, params, timeout: float):
    """One request through the gateway; its report."""
    return service.submit(record, params).result(timeout=timeout).report


WORKLOADS = {
    "search": functools.partial(_read_loop, "search"),
    "gateway": gateway,
    "ingest": ingest,
    "tiered": functools.partial(_read_loop, "tiered"),
}
