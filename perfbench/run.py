"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run from the repository root.  A run issues a fixed number of operations,
``--seconds`` times the workload's rate in ``spec.json`` (which takes
about that long on the reference machine), and scales its times to the
reference speed of ``perfbench/speed.py``.  With ``--trace 0`` the run
measures the end-to-end metrics with no instrumentation.  With
``--trace 1`` it runs half as many operations twice from the same
starting state, first untraced and then with span wrappers around the
layers' functions, and reports the per-layer metrics plus the tracing
overhead.  The spans of a traced run are written to ``.perfbench_out/``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing "
          "(run from a checkout of the repository)")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, workloads  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "perfbench" / "spec.json").read_text())


def percentile(values, p: float) -> float:
    """Linear-interpolated *p*-th percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples above it
    (50 if there are too few samples for that)."""
    p = 99
    while p > 50 and samples - 1 - int((samples - 1) * p / 100) < 10:
        p -= 1
    return p


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(result) -> dict[str, tuple[float, str]]:
    lat = result.latencies_ms
    return {
        "setup_s": (_median(result.setup_s), "s"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_tail_ms": (percentile(lat, tail_percentile(len(lat))), "ms"),
        "residues_per_s": (result.residues / result.wall_s, "res/s"),
        "sim_turnaround_p50_ms": (percentile(result.sim_ms, 50), "ms"),
        "in_limit_fraction": (result.in_limit / max(1, result.ops), "ratio"),
    }


def workload_metrics(result) -> dict[str, tuple[float, str]]:
    """End-to-end metrics that only some workloads have, or that are
    usually 0: reported as per-layer metrics, and listed in every table."""
    ex = result.extra
    insert_ms = ex.get("insert_ms", [])
    return {
        "failed_fraction": (result.failed / max(1, result.attempted), "ratio"),
        "insert_p50_ms": (percentile(insert_ms, 50), "ms"),
        "insert_tail_ms": (percentile(
            insert_ms, tail_percentile(len(insert_ms))), "ms"),
        "insert_residues_per_s": (
            ex.get("insert_residues_per_s", 0.0), "res/s"),
        "disk_bytes_per_user_byte": (
            ex.get("disk_bytes_per_user_byte", 0.0), "ratio"),
    }


def traced(name: str, seed: int, ops: int):
    """Untraced pass, then the same operations traced; per-layer metrics.

    Each pass issues half the run's operations.
    """
    run = workloads.WORKLOADS[name]
    params = SPEC["params"]
    half = max(1, ops // 2)
    extra_args = {}
    plain = run(seed, SPEC, half, 1)
    if name == "tiered":
        extra_args["reference"] = plain.extra["reference"]
    tracer = Tracer()
    if name == "gateway":
        def install(mendel):
            layers.install_read_path(tracer, params["i"])
            layers.install_gateway(tracer, mendel)
    else:
        def install():
            layers.install_read_path(tracer, params["i"])
    result = run(seed, SPEC, half, 1, tracer=tracer, install=install,
                 **extra_args)
    metrics = layers.fold(
        tracer, result.raw_wall_s,
        lambda values: percentile(values, tail_percentile(len(values))))
    metrics["trace.overhead_ratio"] = (result.wall_s / plain.wall_s
                                       if plain.wall_s else 0.0, "ratio")
    metrics["bench.slowdown"] = (
        _median(plain.slowdowns + result.slowdowns), "ratio")
    ex = result.extra
    metrics["align.gapped.alignments_per_extension"] = (
        ex["alignments"] / ex["gapped_extensions"]
        if ex["gapped_extensions"] else 0.0, "ratio")
    metrics["serve.cache_hit_ratio"] = (
        ex["cache_hits"] / ex["cache_lookups"]
        if ex.get("cache_lookups") else 0.0, "ratio")
    metrics["serve.shed"] = (float(ex.get("shed", 0)), "count")
    metrics["serve.ledger_mismatch"] = (
        float(ex.get("ledger_mismatch", 0)), "count")
    metrics["tier.page_hit_ratio"] = (ex.get("page_hit_ratio", 0.0), "ratio")
    metrics["tier.cold_read_bytes"] = (
        float(ex.get("cold_read_bytes", 0)), "bytes")
    # Insert timings from the untraced pass; failures over both passes.
    metrics.update(workload_metrics(plain))
    metrics["failed_fraction"] = (
        (plain.failed + result.failed)
        / max(1, plain.attempted + result.attempted), "ratio")
    out = ROOT / ".perfbench_out" / f"spans-{name}-seed{seed}.jsonl.gz"
    tracer.write(out)
    return plain, result, metrics, out


def table(name: str, seed: int, metrics, result, attempted: int,
          failed: int, traced_run: bool) -> list[str]:
    wl = SPEC["workloads"][name]
    loop = f"{wl['loop']} loop, {wl['clients']} client"
    lines = [
        f"workload {name}  seed {seed}  nproc {workloads.nproc()}  {loop}  "
        f"ops {result.ops}  attempted {attempted}  failed {failed}",
        f"machine slowdown vs reference: median "
        f"{_median(result.slowdowns):.3f} over {len(result.slowdowns)} "
        "operations; times below are scaled to the reference speed",
    ]
    if name == "gateway":
        lines.append(
            f"repeat share {result.extra['repeat_share']:.3f} "
            f"(result-cache hits)")
    lines.append(f"{'metric':<40}{'value':>16}  unit")
    for metric in sorted(metrics):
        value, unit = metrics[metric]
        lines.append(f"{metric:<40}{value:>16.6g}  {unit}")
    if not traced_run:
        lat = result.latencies_ms
        tail = tail_percentile(len(lat))
        raw = result.raw_latencies_ms
        lines.append(
            f"latency_tail_ms is p{tail} of {len(lat)} latencies; raw "
            f"(unscaled) p50 {percentile(raw, 50):.2f} ms, tail "
            f"{percentile(raw, tail):.2f} ms, setup "
            f"{_median(result.setup_raw_s):.4f} s, window "
            f"{result.raw_wall_s:.2f} s")
        lines.append("per-layer metrics of this run (also given with "
                     "--trace 1):")
        for metric, (value, unit) in sorted(workload_metrics(result).items()):
            lines.append(f"{metric:<40}{value:>16.6g}  {unit}")
    lines.extend(f"failure: {note}" for note in result.notes)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    name = args.workload
    ops = workloads.op_count(SPEC["workloads"][name], args.seconds)
    if args.trace:
        plain, result, metrics, out = traced(name, args.seed, ops)
        attempted = plain.attempted + result.attempted
        failed = plain.failed + result.failed
        wrong = plain.wrong + result.wrong
        print(f"spans written to {out.relative_to(ROOT)}")
    else:
        result = workloads.WORKLOADS[name](args.seed, SPEC, ops,
                                           SPEC["setup_repeats"])
        metrics = end_to_end(result)
        attempted, failed, wrong = result.attempted, result.failed, \
            result.wrong
    for line in table(name, args.seed, metrics, result, attempted, failed,
                      bool(args.trace)):
        print(line)
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
