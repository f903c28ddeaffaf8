"""Spans recorded from the benchmark's side of each layer boundary.

The traced run wraps the public functions of the program's layers
(never their internals) and records one span per call: name, start,
end, the span that caused it, and the work the call did, read from its
arguments or return value.  Spans stay in memory while the run lasts;
:meth:`SpanRecorder.dump` writes them out when it ends.  A layer's self
time is its spans' duration minus the part their child spans cover.

:func:`layer_metrics` turns a span summary into the per-layer metrics
the benchmark reports; the serve workload computes the same summary in
the server process and ships it back as JSON.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

#: (args, kwargs, result) -> work counts of one call
WorkFn = Callable[[tuple, dict, Any], Dict[str, float]]


class SpanRecorder:
    """In-memory span log fed by wrappers around layer functions."""

    def __init__(self) -> None:
        #: one list per span: [name, start_ns, end_ns, parent, work]
        self.spans: List[list] = []
        self._local = threading.local()
        self._undo: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: Any, attr: str, name: str,
             work: Optional[WorkFn] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0, 0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into the program."""
        stack = self._stack()
        span = [name, 0, 0, stack[-1] if stack else None, None]
        self.spans.append(span)
        stack.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: calls, total and self nanoseconds, work sums."""
        child_ns: Dict[int, int] = defaultdict(int)
        for span in self.spans:
            if span[3] is not None:
                child_ns[id(span[3])] += span[2] - span[1]
        out: Dict[str, Dict[str, Any]] = {}
        for span in self.spans:
            entry = out.get(span[0])
            if entry is None:
                entry = out[span[0]] = {
                    "calls": 0, "total_ns": 0, "self_ns": 0, "work": {},
                }
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["total_ns"] += duration
            entry["self_ns"] += duration - child_ns.get(id(span), 0)
            if span[4]:
                work = entry["work"]
                for key, value in span[4].items():
                    work[key] = work.get(key, 0) + value
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: id, name, start, end, parent."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                parent = span[3]
                fh.write(json.dumps({
                    "id": i,
                    "name": span[0],
                    "start_ns": span[1],
                    "end_ns": span[2],
                    "parent": None if parent is None else ids[id(parent)],
                    **({"work": span[4]} if span[4] else {}),
                }, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# The layer boundaries
# ----------------------------------------------------------------------
def _rows_arg(index: int) -> WorkFn:
    def work(args, kwargs, result):
        return {"rows": len(args[index])}
    return work


def _report(args, kwargs, result):
    return {"rows": result.rows, "fused": result.fused_rows}


def _returned_bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


def _poked_bytes(args, kwargs, result):
    values = kwargs["values"] if "values" in kwargs else args[2]
    return {"bytes": values.nbytes}


def _waves(args, kwargs, result):
    return {
        "requests": sum(len(wave.requests) for wave in result),
        "waves": len(result),
    }


def _group_rows(args, kwargs, result):
    return {"rows": len(args[2].plans)}


def _allocated_rows(args, kwargs, result):
    return {"rows": result.num_rows}


def install_layers(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every measured layer."""
    import repro.compile.ops as compile_ops
    import repro.engine.batch as batch
    import repro.serve.coalescer as coalescer
    import repro.serve.protocol as protocol
    import repro.serve.server as server
    from repro.apps.bitvector import BitVector
    from repro.compile.ops import CompiledOp
    from repro.core.driver import AmbitDriver
    from repro.dram.subarray import Subarray
    from repro.engine.batch import BatchEngine
    from repro.faults.recover import FaultTolerantSession

    wrap = recorder.wrap
    # serve.protocol: the server module binds the codec by name.
    for module in (protocol, server):
        wrap(module, "decode_frame", "serve.protocol.decode_frame")
        wrap(module, "encode_frame", "serve.protocol.encode_frame")
    # serve.coalescer: the drain loop calls the module-level planner.
    wrap(coalescer, "plan_waves", "serve.coalescer.plan_waves", _waves)
    wrap(FaultTolerantSession, "run_rows", "faults.recover.run_rows",
         _rows_arg(2))
    wrap(BatchEngine, "run_rows", "engine.batch.run_rows", _report)
    wrap(BatchEngine, "run_compiled", "engine.batch.run_compiled", _report)
    wrap(BatchEngine, "plan_groups", "engine.batch.plan_groups", _rows_arg(2))
    wrap(BatchEngine, "plan_groups_compiled",
         "engine.batch.plan_groups_compiled", _rows_arg(2))
    wrap(BatchEngine, "account_group", "engine.batch.account_group",
         _group_rows)
    wrap(batch, "apply_bulk_op", "engine.batch.apply_bulk_op",
         _returned_bytes)
    wrap(Subarray, "peek_batch", "dram.subarray.peek_batch", _returned_bytes)
    wrap(Subarray, "poke_batch", "dram.subarray.poke_batch", _poked_bytes)
    wrap(CompiledOp, "eval_rows", "compile.eval_rows")
    # BitVector.compute imports compile_expr from the module per call.
    wrap(compile_ops, "compile_expr", "compile.compile_expr")
    wrap(AmbitDriver, "allocate", "core.driver.allocate", _allocated_rows)
    wrap(BitVector, "op_into", "apps.bitvector.op_into")
    wrap(BitVector, "compute", "apps.bitvector.compute")


# ----------------------------------------------------------------------
# Per-layer metrics from a span summary
# ----------------------------------------------------------------------
_NOT_ON_PATH = "layer not on this workload's path"


def layer_metrics(summary: Dict[str, Dict[str, Any]], top_ops: int,
                  result) -> None:
    """Fill ``result.metrics`` with every span-derived layer metric.

    ``top_ops`` is the number of top-level operations the traced window
    completed.  Metrics whose layer saw no calls are marked not
    applicable on ``result``.
    """
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "work": {}}

    def get(*names):
        merged = {"calls": 0, "total_ns": 0, "self_ns": 0, "work": {}}
        for name in names:
            entry = summary.get(name, empty)
            for key in ("calls", "total_ns", "self_ns"):
                merged[key] += entry[key]
            for key, value in entry["work"].items():
                merged["work"][key] = merged["work"].get(key, 0) + value
        return merged

    m = result.metrics

    def put(names, ok, compute):
        if ok:
            m.update(compute())
        else:
            result.n_a(names, _NOT_ON_PATH)

    codec = get("serve.protocol.decode_frame", "serve.protocol.encode_frame")
    decode = get("serve.protocol.decode_frame")
    put(["serve.protocol.us_per_req"], decode["calls"], lambda: {
        "serve.protocol.us_per_req":
            codec["self_ns"] / 1e3 / decode["calls"],
    })

    waves = get("serve.coalescer.plan_waves")
    put(["serve.coalescer.plan_waves_us_per_drain",
         "serve.coalescer.requests_per_wave",
         "serve.coalescer.waves_per_drain"], waves["calls"], lambda: {
        "serve.coalescer.plan_waves_us_per_drain":
            waves["self_ns"] / 1e3 / waves["calls"],
        "serve.coalescer.requests_per_wave":
            waves["work"]["requests"] / waves["work"]["waves"],
        "serve.coalescer.waves_per_drain":
            waves["work"]["waves"] / waves["calls"],
    })

    verify = get("faults.recover.run_rows")
    put(["faults.recover.verify_us_per_row"], verify["calls"], lambda: {
        "faults.recover.verify_us_per_row":
            verify["self_ns"] / 1e3 / verify["work"]["rows"],
    })

    runs = get("engine.batch.run_rows", "engine.batch.run_compiled")
    plan = get("engine.batch.plan_groups", "engine.batch.plan_groups_compiled")
    account = get("engine.batch.account_group")
    put(["engine.batch.rows_per_call", "engine.batch.fused_ratio",
         "engine.batch.plan_us_per_row", "engine.batch.account_us_per_row"],
        runs["calls"] and runs["work"].get("rows"), lambda: {
        "engine.batch.rows_per_call": runs["work"]["rows"] / runs["calls"],
        "engine.batch.fused_ratio":
            runs["work"]["fused"] / runs["work"]["rows"],
        "engine.batch.plan_us_per_row":
            plan["self_ns"] / 1e3 / plan["work"]["rows"],
        "engine.batch.account_us_per_row": (
            account["self_ns"] / 1e3 / account["work"]["rows"]
            if account["calls"] else 0.0
        ),
    })

    moved = get("dram.subarray.peek_batch", "dram.subarray.poke_batch")
    put(["dram.subarray.kernel_gb_s"], moved["calls"], lambda: {
        # bytes per nanosecond is gigabytes per second
        "dram.subarray.kernel_gb_s":
            moved["work"]["bytes"] / max(1, moved["self_ns"]),
    })

    evals = get("compile.eval_rows")
    compiles = get("compile.compile_expr")
    put(["compile.eval_rows_us_per_call"], evals["calls"], lambda: {
        "compile.eval_rows_us_per_call":
            evals["self_ns"] / 1e3 / evals["calls"],
    })
    put(["compile.compile_expr_us_per_call"], compiles["calls"], lambda: {
        "compile.compile_expr_us_per_call":
            compiles["self_ns"] / 1e3 / compiles["calls"],
    })

    alloc = get("core.driver.allocate")
    put(["core.driver.alloc_us_per_call", "core.driver.rows_leased_per_op"],
        alloc["calls"], lambda: {
        "core.driver.alloc_us_per_call":
            alloc["self_ns"] / 1e3 / alloc["calls"],
        "core.driver.rows_leased_per_op":
            alloc["work"]["rows"] / max(1, top_ops),
    })

    vector_ops = get("apps.bitvector.op_into", "apps.bitvector.compute")
    put(["apps.bitvector.self_us_per_op"], vector_ops["calls"], lambda: {
        "apps.bitvector.self_us_per_op":
            vector_ops["self_ns"] / 1e3 / vector_ops["calls"],
    })


def kernel_self_ns(summary: Dict[str, Dict[str, Any]]) -> int:
    """Self time of the fused kernel: gather, apply, scatter."""
    return sum(
        summary.get(name, {}).get("self_ns", 0)
        for name in ("dram.subarray.peek_batch", "engine.batch.apply_bulk_op",
                     "compile.eval_rows", "dram.subarray.poke_batch")
    )
