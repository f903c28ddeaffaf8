"""bulk-wide: the paper's Figure-9 operations on multi-MiB vectors.

``AmbitBitSystem`` on the default device (8 banks, 8 KiB rows), three
co-located vectors of about 5 MiB (640 rows; the seed moves the length
by up to four rows either way and fills the data), and a unit that
runs the seven Figure-9 operations ``dst = op(a, b)`` through
``BitVector.op_into``.  Every result is read back and compared with the
numpy model of the packed rows.

This is the workload where the fused kernel has its largest share and
the plan cache stays hot.  (Sizes stay clear of 4 MiB vectors: their
32 MiB boolean staging arrays sit on glibc's largest mmap threshold, so
whether set-up memory returns to the OS would depend on the seed.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro import AmbitBitSystem, BulkOp, DramGeometry

name = "bulk-wide"

#: Figure 9's seven operations.
OPS = (
    BulkOp.NOT, BulkOp.AND, BulkOp.OR, BulkOp.NAND, BulkOp.NOR,
    BulkOp.XOR, BulkOp.XNOR,
)
#: Units per second of ``--seconds``: about the nominal pace on a 2-core host.
units_per_second = 7
ops_per_unit = len(OPS)
BASE_ROWS = 640
JITTER_ROWS = 4


@dataclass
class Inputs:
    nbits: int
    a: np.ndarray        # packed row images, shape (rows, words)
    b: np.ndarray
    expected: Dict[BulkOp, np.ndarray]


@dataclass
class State:
    system: Any
    a: Any
    b: Any
    d: Any
    model: Inputs


def _model(op: BulkOp, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if op is BulkOp.NOT:
        return ~a
    if op is BulkOp.AND:
        return a & b
    if op is BulkOp.OR:
        return a | b
    if op is BulkOp.NAND:
        return ~(a & b)
    if op is BulkOp.NOR:
        return ~(a | b)
    if op is BulkOp.XOR:
        return a ^ b
    return ~(a ^ b)


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    row_bits = DramGeometry().subarray.row_bits
    nbits = BASE_ROWS * row_bits + int(
        rng.integers(-JITTER_ROWS * row_bits, JITTER_ROWS * row_bits)
    )
    rows = -(-nbits // row_bits)
    words = row_bits // 64

    def packed() -> np.ndarray:
        image = rng.integers(0, 2**64, size=(rows, words), dtype=np.uint64,
                             endpoint=False)
        bits = np.unpackbits(image.view(np.uint8), bitorder="little")
        bits[nbits:] = 0  # the row padding beyond the vector is zero
        return np.packbits(bits, bitorder="little").view(np.uint64).reshape(
            rows, words
        )

    a, b = packed(), packed()
    return Inputs(nbits, a, b, {op: _model(op, a, b) for op in OPS})


def describe(inputs: Inputs) -> str:
    rows = inputs.a.shape[0]
    return (f"3 vectors x {inputs.nbits} bits ({rows} rows, "
            f"{inputs.a.nbytes / 2**20:.2f} MiB each), 8 banks")


def _bits(image: np.ndarray, nbits: int) -> np.ndarray:
    return np.unpackbits(image.view(np.uint8), bitorder="little")[:nbits].view(bool)


def setup(inputs: Inputs) -> State:
    system = AmbitBitSystem()
    a = system.from_bits(_bits(inputs.a, inputs.nbits))
    b = system.from_bits(_bits(inputs.b, inputs.nbits), like=a)
    d = system.bitvector(inputs.nbits, like=a)
    return State(system, a, b, d, inputs)


def device(state: State):
    return state.system.device


def unit(state: State, clock, result, verify: bool = True) -> None:
    dev = state.system.device
    for op in OPS:
        other = None if op is BulkOp.NOT else state.b
        result.attempted += 1
        clock.call(state.a.op_into, op, state.d, other)
        if not verify:
            continue
        expected = state.model.expected[op]
        rows = state.d.handle.rows
        bad = sum(
            1 for i, loc in enumerate(rows)
            if not np.array_equal(dev.read_row(loc), expected[i])
        )
        if bad:
            result.fail(f"{op.value}: {bad} of {len(rows)} rows differ")


_UFUNCS = {
    BulkOp.AND: np.bitwise_and,
    BulkOp.OR: np.bitwise_or,
    BulkOp.XOR: np.bitwise_xor,
}
_NEGATED = {BulkOp.NAND: BulkOp.AND, BulkOp.NOR: BulkOp.OR,
            BulkOp.XNOR: BulkOp.XOR}


def roofline_ns(state: State, repeats: int = 7) -> float:
    """Host time of one unit done by a bare in-place numpy loop.

    The same bytes as the device rows -- one row view per operand and
    destination, one ufunc call per row -- with no planning,
    accounting or gather/scatter copies: the ceiling a zero-copy fused
    kernel can reach on this host.  Median of ``repeats`` units.
    """
    a, b = state.model.a, state.model.b
    d = np.empty_like(a)
    rows = range(a.shape[0])
    samples: List[int] = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for op in OPS:
            if op is BulkOp.NOT:
                for i in rows:
                    np.invert(a[i], out=d[i])
                continue
            base = _NEGATED.get(op, op)
            ufunc = _UFUNCS[base]
            for i in rows:
                ufunc(a[i], b[i], out=d[i])
                if op in _NEGATED:
                    np.invert(d[i], out=d[i])
        samples.append(time.perf_counter_ns() - start)
    if not np.array_equal(d, state.model.expected[OPS[-1]]):
        raise RuntimeError("roofline loop computed a wrong result")
    return float(np.median(samples))
