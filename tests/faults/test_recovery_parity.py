"""One recovery ladder serves native and compiled ops alike.

A native op and its compiled twin (``BulkOp.AND`` / ``a & b``,
``BulkOp.NAND`` / ``~(a & b)``) bind to the same Figure-8 program, so
under the same injected fault they must climb the same rungs to the
same outcome.  Each test arms one fault on two identical rigs, runs the
native op on one and the compiled op on the other through
:class:`~repro.faults.recover.FaultTolerantSession`, and compares the
recovery records (rung and outcome), the timed attempts, and the
recovered destination.
"""

import numpy as np
import pytest

from repro.compile import compile_expr, parse_expr
from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.faults.recover import FaultTolerantSession

SCRATCH = (8, 9)
SPARES = tuple(range(10, 18))
DST = RowLocation(0, 0, 3)
SRC1 = RowLocation(0, 0, 0)
SRC2 = RowLocation(0, 0, 1)

TWINS = [
    (BulkOp.AND, "a & b", lambda a, b: a & b),
    (BulkOp.NAND, "~(a & b)", lambda a, b: ~(a & b)),
]


def _rig():
    device = AmbitDevice(geometry=small_test_geometry(rows=48, row_bytes=32))
    session = FaultTolerantSession(device)
    session.set_scratch(0, 0, SCRATCH)
    session.add_spares(0, 0, SPARES)
    words = device.geometry.subarray.words_per_row
    rng = np.random.default_rng(5)
    images = [rng.integers(0, 1 << 63, words, dtype=np.uint64) for _ in range(2)]
    for loc, image in zip((SRC1, SRC2), images):
        session.write_row(loc, image)
    session.write_row(DST, np.zeros(words, dtype=np.uint64))
    return device, session, images


def _tra_flip(device):
    subarray = device.chip.bank(0).subarray(0)
    words = device.geometry.subarray.words_per_row
    flip = np.full(words, np.uint64(0xFFFFFFFFFFFFFFFF))

    def hook(sensed):
        subarray.tra_fault_hook = None  # one-shot glitch
        return flip

    subarray.tra_fault_hook = hook


def _stuck_operand(device):
    words = device.geometry.subarray.words_per_row
    device.chip.bank(0).subarray(0).inject_stuck_row(
        SRC2.address, np.full(words, np.uint64(0xDEADBEEFDEADBEEF))
    )


def _dead_dcc0(device):
    device.chip.bank(0).subarray(0).inject_dcc_fault(device.amap.row_dcc(0))


FAULTS = {"tra_flip": _tra_flip, "stuck_operand": _stuck_operand,
          "dead_dcc0": _dead_dcc0}


def _outcome(op, fault):
    device, session, images = _rig()
    FAULTS[fault](device)
    session.run_rows(op, [DST], [SRC1], [SRC2])
    records = [
        (r.bank, r.subarray, r.address, r.kind, r.action) for r in session.log
    ]
    attempts = [(a.address, a.action, a.ok) for a in session.attempts]
    return records, attempts, device.read_row(DST), images, device


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("native, text, oracle", TWINS,
                         ids=[op.value for op, _, _ in TWINS])
def test_twins_take_the_same_rungs(native, text, oracle, fault):
    compiled = compile_expr(parse_expr(text))
    assert [step.op for step in compiled.steps] == [native]
    assert compiled.num_temps == 0

    n_records, n_attempts, n_dst, images, n_dev = _outcome(native, fault)
    c_records, c_attempts, c_dst, _, c_dev = _outcome(compiled, fault)

    assert c_records == n_records
    assert c_attempts == n_attempts
    np.testing.assert_array_equal(c_dst, n_dst)
    np.testing.assert_array_equal(n_dst, oracle(*images))
    assert c_dev.controller.dcc_route == n_dev.controller.dcc_route
    # The fault was really met (a dead DCC0 only matters to NAND).
    hit = fault != "dead_dcc0" or native.uses_single_dcc
    assert bool(n_records) == hit
    assert all(action != "unrecovered" for *_, action in n_records)
