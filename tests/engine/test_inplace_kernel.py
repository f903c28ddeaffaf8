"""The in-place fused kernel leaves exactly the per-row walk's state.

:meth:`repro.engine.batch.BatchEngine.run_rows` evaluates each group in
place on basic-slice views of ``Subarray.cells``, one kernel call per
program step per run of rows whose destination steps by +1 and whose
source and scratch rows step by +1 or stay on one row.  These tests pin
that kernel against ``fuse=False`` (the per-row command walk) on
identical devices, for every native op and for compiled ops with
scratch rows (one of them with a step that overwrites a scratch row it
reads), over layouts that give one run per group, runs of length 1,
runs that break midway, and cells that live in a shared-memory
segment.  Restore stamps are pinned against a gather/scatter kernel:
the documented modelling delta of the fused path (stamps at the
group's issue time) is unchanged.
"""

import numpy as np
import pytest

import repro.engine.batch as batch
from repro.compile import compile_expr, parse_expr
from repro.core.device import AmbitDevice
from repro.core.microprograms import BulkOp
from repro.dram.chip import RowLocation
from repro.dram.geometry import small_test_geometry
from repro.engine.batch import BatchEngine, apply_bulk_op
from repro.errors import AddressError
from repro.parallel.shm import SharedRowStore

#: ``maj(a ^ b, b, c) ^ a`` compiles to ``maj t0 <- b, c, t0``: a step
#: that overwrites a scratch row it reads.
ALIASED = compile_expr(parse_expr("maj(a ^ b, b, c) ^ a"), name="aliased")
COMPILED_OPS = (
    ALIASED,
    compile_expr(parse_expr("(a & b) | (~a & c)"), name="two_temps"),
    compile_expr(parse_expr("a & b"), name="and"),
)
ALL_OPS = tuple(BulkOp) + COMPILED_OPS
GEO = small_test_geometry(rows=64, row_bytes=64, banks=2, subarrays_per_bank=2)
DATA_ROWS = GEO.subarray.data_rows
WORDS = GEO.subarray.words_per_row
#: Rows per (bank, subarray) in every layout below.
N = 6


def _contiguous(k):
    return list(range(k * N, (k + 1) * N))


#: Address columns (dst, src1, src2, src3) of one group, by layout.
LAYOUTS = {
    # The driver's co-located allocation: one run per group.
    "contiguous": [_contiguous(k) for k in range(4)],
    # Sources that stay on one row broadcast over the run (the fixed
    # operand rows of a throughput batch): still one run per group.
    "fixed-sources": [_contiguous(0), [10] * N, _contiguous(2), [40] * N],
    # Destination steps by -1: every row is its own run.
    "reversed": [_contiguous(0)[::-1]] + [_contiguous(k) for k in range(1, 4)],
    # Destination steps by +1 but a source steps by -1 (or +2): runs of 1.
    "sources-step-down": [
        _contiguous(0),
        _contiguous(1)[::-1],
        list(range(20, 20 + 2 * N, 2)),
        _contiguous(6),
    ],
    "scattered": [
        [40, 3, 17, 29, 8, 44],
        [11, 31, 0, 25, 46, 20],
        [5, 38, 14, 33, 22, 9],
        [27, 42, 1, 36, 15, 6],
    ],
    # dst breaks after row 1 and src1 after row 3: three runs.
    "breaks-midway": [
        [0, 1, 20, 21, 22, 23],
        [6, 7, 8, 9, 30, 31],
        _contiguous(2),
        list(range(40, 40 + N)),
    ],
}
#: Scratch-row columns of one group, by layout; they keep its runs.
TEMP_LAYOUTS = {
    "contiguous": [_contiguous(4), _contiguous(5)],
    "fixed-sources": [_contiguous(4), _contiguous(5)],
    "reversed": [_contiguous(4), _contiguous(5)],
    "sources-step-down": [list(range(12, 18)), [42, 43, 44, 45, 18, 19]],
    "scattered": [[2, 4, 7, 10, 12, 13], [16, 18, 19, 21, 23, 24]],
    "breaks-midway": [[24, 25, 32, 33, 34, 35], [2, 3, 10, 11, 18, 19]],
}
#: Kernel calls per group each layout must take: the runs are maximal.
RUNS_PER_GROUP = {"contiguous": 1, "fixed-sources": 1, "reversed": N,
                  "sources-step-down": N, "scattered": N, "breaks-midway": 3}


def _ids(ops):
    return [op.value for op in ops]


def _rows(layout, op):
    """``(dst, *sources), temps`` row lists over every (bank, subarray)
    with ``layout``'s addresses."""
    columns = (
        LAYOUTS[layout][: 1 + op.arity]
        + TEMP_LAYOUTS[layout][: op.num_temps]
    )
    lists = [[] for _ in columns]
    for bank in range(GEO.banks):
        for sub in range(GEO.subarrays_per_bank):
            for col, rows in zip(columns, lists):
                rows.extend(RowLocation(bank, sub, a) for a in col)
    return lists[: 1 + op.arity], lists[1 + op.arity:]


def _device(seed, row_store=None):
    device = AmbitDevice(geometry=GEO, row_store=row_store)
    rng = np.random.default_rng(seed)
    for bank in range(GEO.banks):
        for sub in range(GEO.subarrays_per_bank):
            for addr in range(DATA_ROWS):
                device.write_row(
                    RowLocation(bank, sub, addr),
                    rng.integers(0, 2**64, size=WORDS, dtype=np.uint64),
                )
    # Move the clock off zero so a restore stamp is told from none.
    device.chip.clock_ns = 1000.0
    return device


def _subarrays(device):
    return [
        device.chip.bank(b).subarray(s)
        for b in range(GEO.banks)
        for s in range(GEO.subarrays_per_bank)
    ]


def _gather_scatter(self, op, group, dst, sources, temps):
    """A gather, evaluate, scatter kernel over copies of the rows."""
    subarray = self.chip.bank(group.bank).subarray(group.subarray)
    now = self.chip.clock_ns
    dst_col, *src_cols = [
        [rows[i].address for i in group.indices] for rows in (dst, *sources)
    ]
    temp_cols = [[col[i].address for i in group.indices] for col in temps]
    values = [subarray.peek_batch(col) for col in src_cols]
    result, temp_values = batch.eval_program(op, values)
    subarray.poke_batch(dst_col, result, now_ns=now)
    for col, value in zip(temp_cols, temp_values):
        subarray.poke_batch(col, value, now_ns=now)
    subarray.touch_rows(
        [a for col in [dst_col, *src_cols, *temp_cols] for a in col],
        now_ns=now,
    )
    self.account_group(op, group)


def _assert_same_run(fused, walked, reference):
    """Cells, trace, stats and plan counters match the per-row walk;
    restore stamps match the gather/scatter kernel."""
    for f, w, r in zip(_subarrays(fused), _subarrays(walked),
                       _subarrays(reference)):
        np.testing.assert_array_equal(f.cells[:DATA_ROWS], w.cells[:DATA_ROWS])
        np.testing.assert_array_equal(f.cells, r.cells)
        np.testing.assert_array_equal(f.last_restore_ns, r.last_restore_ns)
        # Exactly the rows the walk restored carry a fresh stamp.
        np.testing.assert_array_equal(
            f.last_restore_ns[:DATA_ROWS] > 0,
            w.last_restore_ns[:DATA_ROWS] > 0,
        )
    assert list(fused.chip.trace) == list(walked.chip.trace)
    assert fused.chip.clock_ns == pytest.approx(walked.chip.clock_ns)
    fs, ws = fused.controller.stats, walked.controller.stats
    assert (fs.aap_count, fs.ap_count) == (ws.aap_count, ws.ap_count)
    assert dict(fs.ops) == dict(ws.ops)
    assert fs.busy_ns == pytest.approx(ws.busy_ns)
    assert dict(fs.bank_busy_ns) == pytest.approx(dict(ws.bank_busy_ns))
    fc, wc = fused.engine.plan_cache, walked.engine.plan_cache
    assert (fc.hits, fc.misses) == (wc.hits, wc.misses)


def _kernel_calls(monkeypatch):
    """Rows per kernel call (the ``out=`` view or the temporary)."""
    calls = []
    inner = batch.apply_bulk_op

    def counting(op, *args, **kwargs):
        result = inner(op, *args, **kwargs)
        calls.append(result.size // WORDS)
        return result

    monkeypatch.setattr(batch, "apply_bulk_op", counting)
    return calls


class TestInPlaceParity:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("op", ALL_OPS, ids=_ids(ALL_OPS))
    def test_fused_matches_per_row_walk(self, op, layout, monkeypatch):
        fused, walked, reference = (_device(seed=3) for _ in range(3))
        rows, temps = _rows(layout, op)
        reference.engine._run_group_fused = _gather_scatter.__get__(
            reference.engine, BatchEngine
        )
        walked.engine.run_rows(op, *rows, temps=temps, fuse=False)
        reference.engine.run_rows(op, *rows, temps=temps)
        calls = _kernel_calls(monkeypatch)
        report = fused.engine.run_rows(op, *rows, temps=temps)
        assert report.fused_rows == len(rows[0])
        groups = GEO.banks * GEO.subarrays_per_bank
        steps = len(op.steps)
        assert len(calls) == groups * RUNS_PER_GROUP[layout] * steps
        assert sum(calls) == len(rows[0]) * steps
        _assert_same_run(fused, walked, reference)

    def test_aliased_step_is_covered(self):
        """The compiled op above really has a step reading its own output."""
        assert any(step.dst in step.srcs for step in ALIASED.steps)

    @pytest.mark.parametrize("op", [BulkOp.XNOR, BulkOp.MAJ, BulkOp.COPY,
                                    ALIASED], ids=lambda op: op.value)
    def test_shared_memory_cells(self, op):
        """Writes land in the shared segment that backs the cells."""
        store = SharedRowStore.create(GEO)
        fused = _device(seed=5, row_store=store)
        try:
            walked, reference = _device(seed=5), _device(seed=5)
            reference.engine._run_group_fused = _gather_scatter.__get__(
                reference.engine, BatchEngine
            )
            rows, temps = _rows("breaks-midway", op)
            walked.engine.run_rows(op, *rows, temps=temps, fuse=False)
            reference.engine.run_rows(op, *rows, temps=temps)
            report = fused.engine.run_rows(op, *rows, temps=temps)
            assert report.fused_rows == len(rows[0])
            _assert_same_run(fused, walked, reference)
            for bank in range(GEO.banks):
                for sub in range(GEO.subarrays_per_bank):
                    sub_w = walked.chip.bank(bank).subarray(sub)
                    np.testing.assert_array_equal(
                        store.cells(bank, sub)[:DATA_ROWS],
                        sub_w.cells[:DATA_ROWS],
                    )
        finally:
            fused.close()


class TestApplyBulkOp:
    @pytest.mark.parametrize("op", tuple(BulkOp), ids=_ids(BulkOp))
    def test_out_form_matches_value_form(self, op):
        rng = np.random.default_rng(11)
        srcs = [rng.integers(0, 2**64, size=(3, WORDS), dtype=np.uint64)
                for _ in range(op.arity)]
        before = [s.copy() for s in srcs]
        out = np.empty((3, WORDS), dtype=np.uint64)
        returned = apply_bulk_op(op, *srcs, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, apply_bulk_op(op, *srcs))
        for src, orig in zip(srcs, before):
            np.testing.assert_array_equal(src, orig)

    @pytest.mark.parametrize("given", [1, 2])
    @pytest.mark.parametrize("use_out", [False, True])
    def test_maj_missing_operand_raises_address_error(self, given, use_out):
        rows = [np.zeros(WORDS, dtype=np.uint64)] * given
        out = np.empty(WORDS, dtype=np.uint64) if use_out else None
        with pytest.raises(AddressError, match="maj takes 3"):
            apply_bulk_op(BulkOp.MAJ, *rows, out=out)

    @pytest.mark.parametrize("use_out", [False, True])
    def test_operand_count_checked_for_every_op(self, use_out):
        row = np.zeros(WORDS, dtype=np.uint64)
        out = np.empty(WORDS, dtype=np.uint64) if use_out else None
        with pytest.raises(AddressError, match="and takes 2"):
            apply_bulk_op(BulkOp.AND, row, out=out)
        with pytest.raises(AddressError, match="not takes 1"):
            apply_bulk_op(BulkOp.NOT, row, row, out=out)
        with pytest.raises(AddressError, match="xor takes 2"):
            apply_bulk_op(BulkOp.XOR, row, None, row, out=out)
