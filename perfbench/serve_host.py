"""Server process of the serve-mixed workload.

Starts a ``BulkBitwiseServer`` with the configuration users get by
default (in-process ``AmbitDevice``, ``jobs=1``, request spans on) on an
ephemeral port and prints ``{"port": N}``.  When its standard input
closes it prints one JSON line with what the benchmark reads from the
server side -- peak RSS, the device's modelled time and AAP/AP counts,
plan-cache counters, the retained command-trace length and, with
``--trace 1``, the span summary of every wrapped layer -- then shuts
the server down.

Usage: ``python3 perfbench/serve_host.py --trace 0|1 [--spans PATH]``
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from common import SRC, peak_rss_mb

sys.path.insert(0, str(SRC))

from repro.serve import BulkBitwiseServer, ServeConfig  # noqa: E402
from tracing import SpanRecorder, install_layers  # noqa: E402


async def serve(trace: bool, spans_path) -> None:
    recorder = None
    if trace:
        recorder = SpanRecorder()
        install_layers(recorder)
    server = BulkBitwiseServer(ServeConfig())
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.read)  # until stdin closes

    device = server.device
    stats = device.controller.stats
    cache = device.controller.plan_cache
    report = {
        "peak_rss_mb": peak_rss_mb(),
        "elapsed_ns": device.elapsed_ns,
        "aap_count": stats.aap_count,
        "ap_count": stats.ap_count,
        "plan_hits": cache.hits,
        "plan_misses": cache.misses,
        "trace_entries": len(device.chip.trace),
    }
    await server.close()
    if recorder is not None:
        recorder.restore()
        report["spans"] = recorder.summary()
        report["span_count"] = len(recorder.spans)
        if spans_path:
            recorder.dump(spans_path)
    print(json.dumps(report), flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    asyncio.run(serve(bool(args.trace), args.spans))


if __name__ == "__main__":
    main()
