"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Every workload's oracle is fed one deliberately wrong answer (a report
   stripped of its alignments); the run must count exactly that one
   failure and flag the output incorrect.
2. Traced runs of ``search``, ``ingest`` (whose wrappers come and go
   with each segment) and ``gateway`` (whose spans run on the service's
   threads) must tile their wall: every recorded layer is one whose self
   time is reported, no self time is negative, the self times add up to
   the time some span was open (computed independently from the spans),
   and ``other_s`` is the non-negative rest of the wall.

Exits non-zero on the first check that fails.
"""

from __future__ import annotations

import sys

import run  # sets up the import path and loads spec.json
from perfbench import layers, workloads
from perfbench.trace import Tracer

SEED = 7
SECONDS = 2.0


def ops(name: str) -> int:
    return workloads.op_count(run.SPEC["workloads"][name], SECONDS)


def check(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        raise SystemExit(1)


def oracles_catch_a_wrong_answer() -> None:
    for name, workload in sorted(workloads.WORKLOADS.items()):
        result = workload(SEED, run.SPEC, ops(name), 1,
                          tamper=True)
        check(result.failed == 1 and result.wrong == 1,
              f"{name}: one tampered answer counted as one failure "
              f"(failed={result.failed}, wrong={result.wrong}, "
              f"attempted={result.attempted})")


def _covered(tracer: Tracer) -> float:
    """Seconds during which at least one span was open, on any thread."""
    intervals = sorted((rec[1], rec[2]) for st in tracer._states
                       for rec in st.spans)
    total, end = 0.0, float("-inf")
    for lo, hi in intervals:
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def traced_runs_tile_their_wall() -> None:
    identity = run.SPEC["params"]["i"]
    for name in ("search", "gateway", "ingest"):
        tracer = Tracer()
        if name == "gateway":
            def install(mendel):
                layers.install_read_path(tracer, identity)
                layers.install_gateway(tracer, mendel)
        else:
            def install():
                layers.install_read_path(tracer, identity)
        result = workloads.WORKLOADS[name](
            SEED, run.SPEC, ops(name), 1, tracer=tracer,
            install=install)
        self_s = tracer.self_times()
        metrics = layers.fold(tracer, result.raw_wall_s,
                              lambda v: run.percentile(v, 90))
        stray = sorted(set(self_s) - set(layers.SELF_LAYERS))
        check(not stray, f"{name}: every traced layer is tiled ({stray})")
        check(min(self_s.values()) >= -1e-9,
              f"{name}: no negative self time")
        tiled = sum(self_s.values())
        covered = _covered(tracer)
        check(abs(tiled - covered) <= 1e-6 * max(1.0, covered),
              f"{name}: self times {tiled:.6f} s = span-covered time "
              f"{covered:.6f} s")
        other = metrics["other_s"][0]
        wall = metrics["trace.wall_s"][0]
        check(0.0 <= other <= wall and abs(tiled + other - wall) <= 1e-9,
              f"{name}: self times + other_s ({other:.6f} s) = wall "
              f"{wall:.6f} s")


def main() -> int:
    oracles_catch_a_wrong_answer()
    traced_runs_tile_their_wall()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
