"""bitserial-arith: SIMDRAM-style bit-serial arithmetic on the compiler.

``AmbitBitSystem`` on the default device, columns of about one million
elements (16 rows of 8 KiB per bit plane), and a unit of eleven calls:
``repro.compile.kernels`` ``add`` and ``sub`` on 12-bit columns,
``compare_lt`` and ``compare_eq`` on 16-bit columns, ``popcount`` over
three vectors and ``select`` on 12-bit columns, then
``BitVector.compute`` on five expression strings the seed draws from a
catalogue of eight.  Every result is read back and compared with numpy
integers, then freed.

Every call allocates fresh rows and runs short batches, so plan-cache
misses, command-schedule rebuilds, driver leases and compiled-op
dispatch dominate; the kernel is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

import numpy as np

from repro import AmbitBitSystem
from repro.compile import kernels
from repro.compile.kernels import BitColumn

name = "bitserial-arith"

ADD_BITS = 12
CMP_BITS = 16
POPCOUNT_INPUTS = 3
BASE_ELEMENTS = 1_000_000
JITTER_ELEMENTS = 48_576  # keeps every plane at 16 rows of 8 KiB


def _maj(a, b, c):
    return (a & b) | (a & c) | (b & c)


#: (expression, numpy reference) over boolean arrays a, b, c.
CATALOGUE: Tuple[Tuple[str, Callable], ...] = (
    ("maj(a, b, c) ^ ~a", lambda a, b, c: _maj(a, b, c) ^ ~a),
    ("(a & b) | (~a & c)", lambda a, b, c: (a & b) | (~a & c)),
    ("a ^ b ^ c", lambda a, b, c: a ^ b ^ c),
    ("~(a | b) & c", lambda a, b, c: ~(a | b) & c),
    ("(a & ~b) | (b & ~c)", lambda a, b, c: (a & ~b) | (b & ~c)),
    ("maj(a, ~b, c)", lambda a, b, c: _maj(a, ~b, c)),
    ("~(a ^ b) | c", lambda a, b, c: ~(a ^ b) | c),
    ("(a | b) & (b | c) & (a | c)", lambda a, b, c: _maj(a, b, c)),
)
#: Five expressions put the median call inside one class of calls (the
#: popcounts) rather than in the gap between two, where it would jump.
EXPRESSIONS_PER_UNIT = 5
#: Units per second of ``--seconds``: about the nominal pace on a 2-core host.
units_per_second = 1.0
ops_per_unit = 6 + EXPRESSIONS_PER_UNIT


@dataclass
class Inputs:
    n: int
    a: np.ndarray          # ADD_BITS-wide unsigned
    b: np.ndarray
    c: np.ndarray          # CMP_BITS-wide unsigned
    d: np.ndarray
    mask: np.ndarray       # bool
    votes: List[np.ndarray]  # POPCOUNT_INPUTS bool arrays
    expressions: List[int]   # catalogue indices


@dataclass
class State:
    system: Any
    a: BitColumn
    b: BitColumn
    c: BitColumn
    d: BitColumn
    mask: Any
    votes: List[Any]
    model: Inputs


def make_inputs(seed: int) -> Inputs:
    rng = np.random.default_rng(seed)
    n = BASE_ELEMENTS + int(rng.integers(0, JITTER_ELEMENTS))
    c = rng.integers(0, 1 << CMP_BITS, n, dtype=np.uint64)
    # A third of the pairs are equal so compare_eq has both outcomes.
    d = np.where(rng.random(n) < 1 / 3, c,
                 rng.integers(0, 1 << CMP_BITS, n, dtype=np.uint64))
    return Inputs(
        n=n,
        a=rng.integers(0, 1 << ADD_BITS, n, dtype=np.uint64),
        b=rng.integers(0, 1 << ADD_BITS, n, dtype=np.uint64),
        c=c,
        d=d.astype(np.uint64),
        mask=rng.random(n) < 0.5,
        votes=[rng.random(n) < 0.5 for _ in range(POPCOUNT_INPUTS)],
        expressions=sorted(
            int(i) for i in rng.choice(len(CATALOGUE), EXPRESSIONS_PER_UNIT,
                                       replace=False)
        ),
    )


def describe(inputs: Inputs) -> str:
    exprs = [CATALOGUE[i][0] for i in inputs.expressions]
    return (f"{inputs.n} elements, {ADD_BITS}-bit add/sub/select, "
            f"{CMP_BITS}-bit compares, popcount of {POPCOUNT_INPUTS}, "
            f"expressions {exprs}")


def setup(inputs: Inputs) -> State:
    system = AmbitBitSystem()
    a = BitColumn.from_ints(system, inputs.a, ADD_BITS)
    anchor = a.planes[0]
    return State(
        system=system,
        a=a,
        b=BitColumn.from_ints(system, inputs.b, ADD_BITS, like=anchor),
        c=BitColumn.from_ints(system, inputs.c, CMP_BITS, like=anchor),
        d=BitColumn.from_ints(system, inputs.d, CMP_BITS, like=anchor),
        mask=system.from_bits(inputs.mask, like=anchor),
        votes=[system.from_bits(v, like=anchor) for v in inputs.votes],
        model=inputs,
    )


def device(state: State):
    return state.system.device


def _check(result, label: str, got: np.ndarray, want: np.ndarray) -> None:
    bad = int(np.count_nonzero(got != want))
    if bad:
        result.fail(f"{label}: {bad} of {want.size} elements differ")


def unit(state: State, clock, result, verify: bool = True) -> None:
    m = state.model
    add_mask = np.uint64((1 << ADD_BITS) - 1)
    column_calls = (
        ("add", lambda: kernels.add(state.a, state.b),
         lambda: (m.a + m.b) & add_mask),
        ("sub", lambda: kernels.sub(state.a, state.b),
         lambda: (m.a - m.b) & add_mask),
        ("popcount", lambda: kernels.popcount(state.votes),
         lambda: np.sum(m.votes, axis=0, dtype=np.uint64)),
        ("select", lambda: kernels.select(state.mask, state.a, state.b),
         lambda: np.where(m.mask, m.a, m.b)),
    )
    for label, call, want in column_calls:
        result.attempted += 1
        column = clock.call(call)
        if verify:
            _check(result, label, column.to_ints(), want())
        column.free()

    mask_calls = (
        ("compare_lt", lambda: kernels.compare_lt(state.c, state.d),
         lambda: m.c < m.d),
        ("compare_eq", lambda: kernels.compare_eq(state.c, state.d),
         lambda: m.c == m.d),
    )
    a, b, c = state.votes
    for index in m.expressions:
        text, reference = CATALOGUE[index]
        mask_calls += ((
            text,
            lambda text=text: a.compute(text, a=a, b=b, c=c),
            lambda reference=reference: reference(*m.votes),
        ),)
    for label, call, want in mask_calls:
        result.attempted += 1
        vector = clock.call(call)
        if verify:
            _check(result, label, vector.to_bits(), want())
        vector.free()


def roofline_ns(state: State) -> float:
    """No roofline here: the kernel is a small share of this workload."""
    return 0.0
