"""Batch-engine speedup benchmark: thresholds + committed baseline.

The measurement itself lives in :mod:`repro.perf.enginebench` (shared
with ``repro bench --check``); this test runs it, asserts the speedup
thresholds, prints the table, and writes
``benchmarks/results/BENCH_engine.json`` -- the committed baseline the
regression gate compares future runs against.  The wall-clock speedups
are paired with a deterministic gate on the bytes one fused batch
allocates.
"""

import json

import pytest

from repro.perf.enginebench import (
    format_engine_bench,
    measure_fused_alloc,
    run_engine_bench,
)

from .conftest import RESULTS_DIR


def test_bench_engine_speedup():
    payload = run_engine_bench(rows_per_bank=40, row_bytes=1024, repeats=3)
    results = payload["results"]

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_engine.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    print("\n" + format_engine_bench(payload) + "\n")

    for r in results:
        assert r["speedup"] >= 1.0, (
            f"batched path slower than per-row at {r['banks']} banks: "
            f"{r['speedup']:.2f}x"
        )
    at8 = next(r for r in results if r["banks"] == 8)
    assert at8["speedup"] >= 3.0, (
        f"batched path must be >= 3x at 8 banks; got {at8['speedup']:.2f}x"
    )
    assert at8["parallelism"] == pytest.approx(8.0)


def test_bench_engine_fused_batch_allocates_less_than_a_row():
    """The fused kernel computes in place: a warm 64-row x 128 KiB AND
    batch allocates less than one row's bytes at its peak (a gathering
    kernel needs whole operand copies)."""
    alloc = measure_fused_alloc(banks=8, rows_per_bank=8, row_bytes=131072)
    assert alloc["rows"] == 64
    assert alloc["tracemalloc_peak_bytes"] < 131072, alloc
