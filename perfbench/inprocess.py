"""Harness for the workloads that host the system in this process.

A workload supplies inputs from the seed, a set-up, and a *unit*: a
fixed sequence of top-level operations, each timed alone and then
checked against numpy outside the timed region.  The harness

* sets up several times, timing each (``setup_s`` is their median),
  and runs one unit after every set-up: its simulated counts must be
  identical every time, and identical to earlier runs of this commit;
* repeats the unit a fixed number of times, ``units_per_second`` for
  every second of ``--seconds`` (``ops_per_s`` is the unit's operation
  count over the median unit time, and ``latency_p50_ms`` is the median
  host time of one operation);
* for ``--trace 1``, alternates untraced units with units whose spans
  are recorded, so the per-layer split and the tracing overhead come
  from one process on one set-up, with host drift cancelled.
"""

from __future__ import annotations

import gc
import importlib
import json
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    OUT, Result, check_repeatable, median, now_ns, peak_rss_mb, quantile,
)
from tracing import SpanRecorder, install_layers, kernel_self_ns, layer_metrics

SETUPS = 3
#: A window stops early after this many times ``--seconds``.
CAP = 1.4
MODULES = {"bulk-wide": "bulk_wide", "bitserial-arith": "bitserial"}


def load(name: str):
    """The workload module of a workload name."""
    return importlib.import_module(MODULES[name])


class Clock:
    """Times top-level operations; optionally wraps each in a span."""

    def __init__(self, recorder: Optional[SpanRecorder] = None):
        self.recorder = recorder
        self.latencies_ns: List[int] = []

    def call(self, fn: Callable, *args, **kwargs):
        span = (nullcontext() if self.recorder is None
                else self.recorder.span("workload.op"))
        with span:
            start = now_ns()
            out = fn(*args, **kwargs)
            end = now_ns()
        self.latencies_ns.append(end - start)
        return out


def exact_counts(device) -> Dict[str, float]:
    """Simulated statistics that must repeat exactly for one seed."""
    stats = device.controller.stats
    cache = device.controller.plan_cache
    return {
        "sim_time_ns": float(device.elapsed_ns),
        "aap_count": stats.aap_count,
        "ap_count": stats.ap_count,
        "plan_hits": cache.hits,
        "plan_misses": cache.misses,
        "trace_entries": len(device.chip.trace),
    }


def _units(workload, seconds: float) -> int:
    return max(1, round(workload.units_per_second * seconds))


def _timed_unit(workload, state, result: Result, clock: Clock) -> int:
    """Run one unit on ``clock``; return the host time of its operations."""
    mark = len(clock.latencies_ns)
    workload.unit(state, clock, result)
    return sum(clock.latencies_ns[mark:])


def _capped(start_ns: int, seconds: float, done: int, planned: int,
            result: Result) -> bool:
    if now_ns() - start_ns <= CAP * seconds * 1e9:
        return False
    result.notes["capped"] = (
        f"stopped after {done} of {planned} units ({CAP} x {seconds:g} s); "
        f"counts are not comparable"
    )
    return True


def _window(workload, state, result: Result, seconds: float
            ) -> Tuple[List[int], List[int]]:
    """Run the fixed number of units ``seconds`` stands for; return the
    host time of each unit and of each operation.

    A fixed count (rather than a deadline) keeps the retained command
    trace, the plan cache and therefore the peak RSS identical from run
    to run; a host slower than ``CAP`` times the nominal pace stops
    early and says so.
    """
    clock = Clock()
    unit_ns: List[int] = []
    planned = _units(workload, seconds)
    start = now_ns()
    while len(unit_ns) < planned and not (
        unit_ns and _capped(start, seconds, len(unit_ns), planned, result)
    ):
        unit_ns.append(_timed_unit(workload, state, result, clock))
    return unit_ns, clock.latencies_ns


def _interleaved(workload, state, result: Result, seconds: float,
                 recorder: SpanRecorder) -> Tuple[List[int], List[int]]:
    """Alternate untraced and traced units (ABAB, so drift of the host
    cancels out of the overhead); return each arm's unit times."""
    plain, traced = Clock(), Clock(recorder)
    plain_ns: List[int] = []
    traced_ns: List[int] = []
    planned = _units(workload, seconds / 2)
    start = now_ns()
    while len(traced_ns) < planned and not (
        traced_ns and _capped(start, seconds, len(traced_ns), planned, result)
    ):
        plain_ns.append(_timed_unit(workload, state, result, plain))
        install_layers(recorder)
        try:
            traced_ns.append(_timed_unit(workload, state, result, traced))
        finally:
            recorder.restore()
    return plain_ns, traced_ns


def _setup_and_unit(workload, inputs, result: Result):
    """Set up (timed), then run one unscored unit; return the state, the
    set-up time and the unit's exact counts."""
    start = now_ns()
    state = workload.setup(inputs)
    setup_ns = now_ns() - start
    workload.unit(state, Clock(), result)
    return state, setup_ns, exact_counts(workload.device(state))


def _setup_in_child(name: str, seed: int, result: Result):
    """One set-up in a fresh process.

    Each set-up gets its own process because a process that already
    built and dropped a device gets its next device's cell arrays from
    recycled heap, which the allocator zeroes page by page: later
    set-ups in one process would be slower and far larger than what a
    user starting the program pays.
    """
    proc = subprocess.run(
        [sys.executable, __file__, name, str(seed)],
        stdout=subprocess.PIPE, text=True, check=True, timeout=120,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    result.attempted += out["attempted"]
    for problem in out["problems"]:
        result.fail(f"set-up process: {problem}")
    return out["setup_ns"], out["counts"]


def run(workload, seed: int, seconds: float, trace: bool,
        result: Result) -> None:
    if trace:
        _run_traced(workload, seed, seconds, result)
        return
    setup_ns: List[int] = []
    counts: List[Dict[str, float]] = []
    for _ in range(SETUPS - 1):
        ns, c = _setup_in_child(workload.name, seed, result)
        setup_ns.append(ns)
        counts.append(c)
    inputs = workload.make_inputs(seed)
    result.notes["inputs"] = workload.describe(inputs)
    state, ns, c = _setup_and_unit(workload, inputs, result)
    setup_ns.append(ns)
    counts.append(c)
    _check_counts(workload.name, seed, counts, result)

    unit_ns, latencies = _window(workload, state, result, seconds)
    per_unit = workload.ops_per_unit
    m = result.metrics
    m["setup_s"] = median(setup_ns) / 1e9
    m["ops_per_s"] = per_unit / (median(unit_ns) / 1e9)
    m["latency_p50_ms"] = quantile(latencies, 0.50) / 1e6
    m["sim_time_ms"] = c["sim_time_ns"] / 1e6
    m["peak_rss_mb"] = peak_rss_mb()
    result.notes["setup_ms"] = [round(ns / 1e6, 1) for ns in setup_ns]
    result.notes["units"] = len(unit_ns)
    result.notes["latency_samples"] = len(latencies)
    result.notes["exact_counts"] = c
    result.notes["trace_entries_at_end"] = len(
        workload.device(state).chip.trace
    )


def _check_counts(name: str, seed: int, counts: List[Dict[str, float]],
                  result: Result) -> None:
    for k, other in enumerate(counts[1:], start=2):
        if other != counts[0]:
            result.fail(f"simulated counts of set-up {k} differ from set-up 1: "
                        f"{other} vs {counts[0]}")
    for mismatch in check_repeatable(name, seed, counts[0]):
        result.fail(f"simulated count changed between runs: {mismatch}")


def _run_traced(workload, seed: int, seconds: float, result: Result) -> None:
    inputs = workload.make_inputs(seed)
    result.notes["inputs"] = workload.describe(inputs)
    state, _, counts = _setup_and_unit(workload, inputs, result)
    device = workload.device(state)
    _check_counts(workload.name, result.seed, [counts], result)

    cache = device.controller.plan_cache
    hits, misses = cache.hits, cache.misses
    recorder = SpanRecorder()
    untraced, traced = _interleaved(workload, state, result, seconds,
                                    recorder)
    top_ops = workload.ops_per_unit * len(traced)
    summary = recorder.summary()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{result.seed}.jsonl"
    recorder.dump(spans_path)
    result.notes["spans"] = f"{len(recorder.spans)} written to {spans_path.name}"

    m = result.metrics
    layer_metrics(summary, top_ops, result)
    d_hits, d_misses = cache.hits - hits, cache.misses - misses
    # over both arms: the cache does not know which units were traced
    m["engine.plan.hit_ratio"] = d_hits / max(1, d_hits + d_misses)
    m["engine.plan.hits"] = counts["plan_hits"]
    m["engine.plan.misses"] = counts["plan_misses"]
    m["dram.aap_count"] = counts["aap_count"]
    m["dram.ap_count"] = counts["ap_count"]
    m["dram.trace_entries"] = len(device.chip.trace)
    m["dram.trace_entries_per_op"] = (
        counts["trace_entries"] / workload.ops_per_unit
    )
    m["trace.overhead_ratio"] = median(traced) / median(untraced) - 1.0
    engine_rows = sum(
        summary.get(name, {}).get("work", {}).get("rows", 0)
        for name in ("engine.batch.run_rows", "engine.batch.run_compiled")
    )
    m["engine.batch.tracemalloc_peak_bytes_per_row"] = _alloc_peak(
        workload, state, result
    ) / max(1.0, engine_rows / len(traced))
    roofline_ns = workload.roofline_ns(state)
    if roofline_ns:
        kernel_ns = kernel_self_ns(summary) / len(traced)
        m["dram.subarray.roofline_ratio"] = kernel_ns / roofline_ns
        result.notes["roofline_ms_per_unit"] = roofline_ns / 1e6
    else:
        result.n_a(["dram.subarray.roofline_ratio"],
                   "roofline measured on bulk-wide only")
    result.n_a(_SERVE_ONLY, "layer not on this workload's path")
    result.notes["units"] = f"{len(untraced)} untraced, {len(traced)} traced"
    result.notes["exact_counts"] = counts


_SERVE_ONLY = (
    "serve.coalescer.queue_ms_p50",
    "serve.coalescer.coalesce_ms_p50",
    "serve.coalescer.reject_ratio",
    "serve.server.other_share",
    "serve.server.device_ms_p50",
    "serve.generator.late_ms_p99",
)


def _alloc_peak(workload, state, result: Result) -> int:
    """Peak bytes the Python allocator held above its starting point
    during one unscored unit (deterministic for one seed)."""
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        workload.unit(state, Clock(), result, verify=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


if __name__ == "__main__":
    # Child mode: one set-up and one unit, reported as one JSON line.
    from common import SRC

    sys.path.insert(0, str(SRC))
    child_workload = load(sys.argv[1])
    child_result = Result(child_workload.name, int(sys.argv[2]), False)
    _, child_ns, child_counts = _setup_and_unit(
        child_workload, child_workload.make_inputs(child_result.seed),
        child_result,
    )
    print(json.dumps({
        "setup_ns": child_ns,
        "counts": child_counts,
        "attempted": child_result.attempted,
        "problems": child_result.problems,
    }))
