"""The batched execution engine: fused row-batch kernels over cached plans.

The per-row execution path walks every bulk operation through
``compile -> primitives -> Command objects -> Subarray.activate`` one
row at a time; pure Python dispatch dominates long before the functional
numpy work does.  This engine is the fast path the ROADMAP asks for:

1. **Plan once** -- every row reuses a cached
   :class:`~repro.engine.plan.RowPlan` (microprogram + latencies +
   per-(bank, subarray) command schedule) from the controller's
   :class:`~repro.engine.plan.PlanCache`.
2. **Execute in place** -- the rows of a (bank, subarray) group are
   split into maximal runs whose destination rows are consecutive and
   whose source and scratch rows are consecutive or fixed, and each run
   evaluates the op's program step by step (:func:`apply_bulk_op` with
   ``out=``) on basic-slice views of ``Subarray.cells``: no gather, no
   result array, no scatter.  A native op is one step, so one numpy
   call per run; a compiled op is one call per step.  The driver's
   co-located allocation makes each group one run; scattered rows
   become runs of length 1.  The accounting (per-row command
   timing/energy, AAP/AP counts, the command trace itself) is charged
   exactly as if every row had walked the per-row path.
3. **Overlap across banks** -- groups are issued round-robin across
   banks (:class:`~repro.engine.scheduler.BatchScheduler`), and every
   batch returns a :class:`~repro.engine.scheduler.ParallelismReport`
   comparing serialized vs bank-interleaved makespan.

Every op -- a native :class:`~repro.core.microprograms.BulkOp` or a
:class:`~repro.compile.ops.CompiledOp` -- is a program of native steps
over ``(dst, sources, temps)`` row slots, so one entry point
(:meth:`BatchEngine.run_rows`) and one kernel serve both.

The fused kernel only engages when it is *provably* equivalent to the
per-row walk: no tracer attached (a tracer observes per-primitive spans
in execution order; the slow path preserves them byte-for-byte), no
analog charge model (TRA outcomes would depend on cell-level state), no
injected stuck-at faults in the target subarray (faults corrupt the
B-group walk in ways the fused kernel cannot see), and no read/write
hazards between the rows of a group.  Ineligible groups transparently
fall back to the per-row walk -- results are always correct; batching is
purely an optimisation.

Known modelling deltas of the fast path (documented, not observable
through the bulk-op API): B-group designated rows are not rewritten (all
microprograms re-copy their operands into the B-group before using it,
so no later operation can observe the stale values), and
retention-refresh stamps of the rows a group touches are set to the
group's issue time instead of each primitive's individual clock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.microprograms import C0_SLOT, C1_SLOT, DST_SLOT, BulkOp
from repro.dram.chip import RowLocation
from repro.engine.plan import RowPlan
from repro.engine.scheduler import BatchScheduler, CommandGroup, ParallelismReport
from repro.errors import AddressError, DramProtocolError


@dataclass(frozen=True)
class BatchReport:
    """Outcome of one batched bulk operation."""

    #: Rows executed in total.
    rows: int
    #: Rows that took the fused numpy kernel.
    fused_rows: int
    #: Rows that fell back to the per-row command walk.
    fallback_rows: int
    #: Serialized-vs-interleaved makespan comparison for the batch.
    parallelism: ParallelismReport
    #: Worker processes the batch was sharded across (1 = in-process).
    shards: int = 1


def apply_bulk_op(
    op: BulkOp,
    src1: np.ndarray,
    src2: Optional[np.ndarray] = None,
    src3: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The functional effect of a bulk operation on packed uint64 rows.

    This is the single definition of truth the fused kernels use; the
    property tests pin it against the command-level walk bit for bit.

    With ``out`` the result is written into that array (which must not
    overlap any source) and ``out`` is returned; no result array is
    allocated.  The fused kernel passes views of the subarray's cells
    for every operand, so it computes where the rows live.
    """
    arity = op.arity
    if (src2 is not None, src3 is not None) != (arity >= 2, arity == 3):
        raise AddressError(
            f"{op.value} takes {arity} source operand"
            f"{'s' if arity > 1 else ''}"
        )
    if out is not None:
        return _apply_into(op, src1, src2, src3, out)
    if op is BulkOp.NOT:
        return ~src1
    if op is BulkOp.COPY:
        return src1.copy()
    if op is BulkOp.MAJ:
        return (src1 & src2) | (src1 & src3) | (src2 & src3)
    if op is BulkOp.AND:
        return src1 & src2
    if op is BulkOp.OR:
        return src1 | src2
    if op is BulkOp.XOR:
        return src1 ^ src2
    if op is BulkOp.NAND:
        return ~(src1 & src2)
    if op is BulkOp.NOR:
        return ~(src1 | src2)
    if op is BulkOp.XNOR:
        return ~(src1 ^ src2)
    raise AddressError(f"unknown bulk operation {op}")


def _apply_into(op, src1, src2, src3, out) -> np.ndarray:
    """The ``out=`` form of :func:`apply_bulk_op`."""
    if op is BulkOp.AND:
        return np.bitwise_and(src1, src2, out=out)
    if op is BulkOp.OR:
        return np.bitwise_or(src1, src2, out=out)
    if op is BulkOp.XOR:
        return np.bitwise_xor(src1, src2, out=out)
    if op is BulkOp.NOT:
        return np.invert(src1, out=out)
    if op is BulkOp.COPY:
        np.copyto(out, src1)
        return out
    if op is BulkOp.MAJ:
        # maj(a, b, c) = (a & (b | c)) | (b & c); the last term needs
        # the one temporary this op cannot avoid.
        np.bitwise_or(src2, src3, out=out)
        np.bitwise_and(out, src1, out=out)
        return np.bitwise_or(out, src2 & src3, out=out)
    if op is BulkOp.NAND:
        np.bitwise_and(src1, src2, out=out)
    elif op is BulkOp.NOR:
        np.bitwise_or(src1, src2, out=out)
    elif op is BulkOp.XNOR:
        np.bitwise_xor(src1, src2, out=out)
    else:
        raise AddressError(f"unknown bulk operation {op}")
    return np.invert(out, out=out)


@lru_cache(maxsize=256)
def _step_table(op) -> Tuple[tuple, bool]:
    """``op``'s program as ``(native op, out column, source columns,
    aliased)`` per step, plus whether any step reads a control row.

    Columns index a view list laid out as ``[dst, sources..., temps...,
    C0, C1]``.  ``aliased`` marks a step that overwrites one of its own
    inputs (a compiled ``maj t0 <- b, c, t0``).
    """
    width = 1 + op.arity + op.num_temps
    column = {DST_SLOT: 0, C0_SLOT: width, C1_SLOT: width + 1}
    table = []
    for step in op.steps:
        out = column.get(step.dst, step.dst + 1)
        srcs = tuple(column.get(slot, slot + 1) for slot in step.srcs)
        table.append((step.op, out, srcs, out in srcs))
    constants = any(c >= width for _, _, srcs, _ in table for c in srcs)
    return tuple(table), constants


def eval_program(op, sources: Sequence[np.ndarray]):
    """The functional model of any op over row values.

    Returns ``(dst_value, temp_values)``: the destination image and the
    *final* contents of each scratch row, exactly what the fused kernel
    and the per-row walk leave behind.  Steps run through the value
    form of :func:`apply_bulk_op`, each into a fresh array, so a step
    that overwrites a slot it reads needs no special care here.  The
    fault-tolerant shadow predicts every op with this.
    """
    arity, num_temps = op.arity, op.num_temps
    if len(sources) != arity:
        raise AddressError(
            f"{op.value} takes {arity} sources; got {len(sources)}"
        )
    table, constants = _step_table(op)
    values = [None, *map(np.asarray, sources), *[None] * num_temps]
    if constants:
        zeros = values[1] ^ values[1]
        values += (zeros, ~zeros)
    for step_op, out, srcs, _ in table:
        values[out] = apply_bulk_op(step_op, *[values[c] for c in srcs])
    return values[0], tuple(values[1 + arity:1 + arity + num_temps])


def _row_runs(columns: List[List[int]], storage_rows: int) -> List[list]:
    """Split aligned address columns into maximal runs of rows.

    Within a run the destination (column 0) steps by +1 from row to row
    and every other column (sources, scratch rows) either steps by +1 or
    stays on one row, so each operand of the run is one basic index into
    the cell array: a slice
    of as many rows as the run, a one-row slice that broadcasts over it
    (the fixed source rows of a throughput batch), or, for a run of
    length 1 (scattered rows), the row address itself.  Returns one
    index per column for every run.
    """
    if min(map(min, columns)) < 0 or max(map(max, columns)) >= storage_rows:
        raise AddressError(f"batch rows out of range [0, {storage_rows})")
    dst = columns[0]
    n = len(dst)
    runs = []
    first, steps = 0, None
    for k in range(1, n + 1):
        if k < n and dst[k] == dst[k - 1] + 1:
            step = [col[k] - col[k - 1] for col in columns]
            if steps is None:
                if all(s == 0 or s == 1 for s in step):
                    steps = step
                    continue
            elif step == steps:
                continue
        length = k - first
        if steps is None:
            runs.append([col[first] for col in columns])
        else:
            runs.append([
                slice(col[first], col[first] + (length if s else 1))
                for col, s in zip(columns, steps)
            ])
        first, steps = k, None
    return runs


class _Group:
    """All rows of one batch that target one (bank, subarray)."""

    __slots__ = ("bank", "subarray", "indices", "plans")

    def __init__(self, bank: int, subarray: int):
        self.bank = bank
        self.subarray = subarray
        self.indices: List[int] = []
        self.plans: List[RowPlan] = []

    @property
    def duration_ns(self) -> float:
        return sum(plan.total_ns for plan in self.plans)


class BatchEngine:
    """Batched execution of bulk operations on an Ambit device.

    Sits between the driver and the chip: callers hand over *row lists*
    (operand ``i`` of every list lives in the same subarray -- the
    driver's co-location contract) and the engine plans, fuses, and
    issues them with bank-level overlap.
    """

    def __init__(self, device):
        self.device = device
        self.controller = device.controller
        self.chip = device.chip
        self.scheduler = BatchScheduler()
        metrics = getattr(device, "metrics", None)
        self._m_batches = self._m_rows = self._m_makespan = None
        if metrics is not None:
            self._m_batches = metrics.counter(
                "ambit_batches_total", "Batched bulk operations executed"
            )
            self._m_rows = metrics.counter(
                "ambit_batch_rows_total",
                "Rows executed through the batch engine",
                labels=("path",),
            )
            self._m_makespan = metrics.histogram(
                "ambit_batch_makespan_ns",
                "Accounted bank-interleaved makespan per batch (ns)",
            )

    # ------------------------------------------------------------------
    @property
    def plan_cache(self):
        return self.controller.plan_cache

    def run_rows(
        self,
        op,
        dst: Sequence[RowLocation],
        *sources: Optional[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]] = (),
        fuse: bool = True,
    ) -> BatchReport:
        """Execute ``dst[i] = op(sources[0][i], ...)`` for every row.

        ``op`` is a :class:`~repro.core.microprograms.BulkOp` or a
        compiled op.  ``sources`` holds one row list per input (``None``
        entries are dropped, so ``run_rows(op, dst, src1, src2, None)``
        works) and ``temps`` one row list per scratch slot; all lists
        align with ``dst``.  Every row of index ``i`` must share
        ``dst[i]``'s (bank, subarray); stage strays first
        (:meth:`repro.core.driver.AmbitDriver.stage_for`).  Timing,
        energy, statistics, and the command trace are charged exactly as
        the per-row path would.

        ``fuse=False`` forces every group down the per-row command walk
        -- the dispatch auto-tuner's "serial" tier.  The observable
        outcome is identical either way (that is the engine's core
        parity property); only wall-clock changes.
        """
        if None in sources:
            sources = tuple(rows for rows in sources if rows is not None)
        n = len(dst)
        if len(sources) != op.arity:
            raise AddressError(
                f"{op.value} takes {op.arity} operand columns; "
                f"got {len(sources)}"
            )
        if len(temps) != op.num_temps:
            raise AddressError(
                f"{op.value} needs {op.num_temps} scratch columns; "
                f"got {len(temps)}"
            )
        for k, rows in enumerate((*sources, *temps)):
            if len(rows) != n:
                name = f"src{k + 1}" if k < len(sources) else "temp"
                raise AddressError(
                    f"batch operand lists must align: {name} has "
                    f"{len(rows)} rows, dst has {n}"
                )
        if n == 0:
            return BatchReport(
                rows=0, fused_rows=0, fallback_rows=0,
                parallelism=self.scheduler.report(()),
            )

        # Runtime spare-row remapping happens here, at batch entry, so
        # planning, fusion, and accounting all see the repaired rows.
        if self.controller.repair:
            dst = self.translate_rows(dst)
            sources = [self.translate_rows(col) for col in sources]
            temps = [self.translate_rows(col) for col in temps]
        groups = self.plan_groups(op, dst, sources, temps)
        command_groups = [
            CommandGroup(bank=g.bank, duration_ns=g.duration_ns, payload=g)
            for g in groups
        ]
        parallelism = self.scheduler.report(command_groups)

        fused = 0
        for issued in self.scheduler.order(command_groups):
            group: _Group = issued.payload
            if fuse and self._fused_eligible(group, dst, sources, temps):
                self._run_group_fused(op, group, dst, sources, temps)
                fused += len(group.indices)
            else:
                self._run_group_per_row(group)
        if self._m_batches is not None:
            self._m_batches.inc()
            self._m_rows.labels(path="fused").inc(fused)
            self._m_rows.labels(path="fallback").inc(n - fused)
            self._m_makespan.observe(parallelism.makespan_ns)
        return BatchReport(
            rows=n,
            fused_rows=fused,
            fallback_rows=n - fused,
            parallelism=parallelism,
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def translate_rows(
        self, rows: Optional[Sequence[RowLocation]]
    ) -> Optional[Sequence[RowLocation]]:
        """Resolve a row list through the controller's runtime repair map.

        Identity (and allocation-free) while no spare rows have been
        assigned, which is the common case.
        """
        repair = self.controller.repair
        if rows is None or not repair:
            return rows
        return [
            RowLocation(
                loc.bank,
                loc.subarray,
                repair.translate(loc.bank, loc.subarray, loc.address),
            )
            for loc in rows
        ]

    def plan_groups(
        self,
        op,
        dst: Sequence[RowLocation],
        sources: Sequence[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]] = (),
    ) -> List[_Group]:
        """Validate co-location and compile the batch into per-(bank,
        subarray) groups of cached plans.

        This is the planning front half of :meth:`run_rows`; the sharded
        device calls it directly so its plan-cache traffic (and thus the
        hit/miss counters) matches the single-process engine exactly.
        """
        lookup = self.plan_cache.lookup
        dcc_route = self.controller.dcc_route
        columns = (*sources, *temps)
        arity = len(sources)
        groups: "OrderedDict[Tuple[int, int], _Group]" = OrderedDict()
        for i, d in enumerate(dst):
            place = (d.bank, d.subarray)
            addrs = []
            for col in columns:
                loc = col[i]
                if (loc.bank, loc.subarray) != place:
                    raise AddressError(
                        f"batch operands of row {i} must share a subarray: "
                        f"{loc} vs bank {d.bank} subarray {d.subarray} "
                        f"(stage cross-subarray operands first)"
                    )
                addrs.append(loc.address)
            plan = lookup((
                op, d.address, tuple(addrs[:arity]), tuple(addrs[arity:]),
                dcc_route.get(place, 0),
            ))
            group = groups.get(place)
            if group is None:
                group = groups[place] = _Group(d.bank, d.subarray)
            group.indices.append(i)
            group.plans.append(plan)
        return list(groups.values())

    # Kept only because perfbench/tracing.py hooks these names by class
    # attribute; nothing calls them.  Compiled ops run through run_rows.
    run_compiled = run_rows
    plan_groups_compiled = plan_groups

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------
    def _fused_eligible(
        self,
        group: _Group,
        dst: Sequence[RowLocation],
        sources: Sequence[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]],
    ) -> bool:
        if self.chip.tracer is not None:
            return False
        subarray = self.chip.bank(group.bank).subarray(group.subarray)
        if subarray.has_faults or subarray.amps.charge_model is not None:
            return False
        # Hazard check: the fused kernel evaluates each step over whole
        # runs of rows, so every row it writes (destinations and scratch
        # rows) must be written by exactly one row of the group and read
        # by none; anything else takes the sequential walk.
        indices = group.indices
        write_addrs = [dst[i].address for i in indices]
        for col in temps:
            write_addrs.extend(col[i].address for i in indices)
        writes = set(write_addrs)
        if len(writes) != len(write_addrs):
            return False
        return writes.isdisjoint(
            [col[i].address for col in sources for i in indices]
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_group_fused(
        self,
        op,
        group: _Group,
        dst: Sequence[RowLocation],
        sources: Sequence[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]],
    ) -> None:
        bank, sub = group.bank, group.subarray
        if self.chip.bank(bank).open_subarray is not None:
            raise DramProtocolError(
                f"bank {bank} must be precharged before a bulk operation"
            )
        subarray = self.chip.bank(bank).subarray(sub)
        cells, restore = subarray.cells, subarray.last_restore_ns
        start_ns = self.chip.clock_ns

        # Functional effect, in place: the op's steps run over each run
        # of rows on basic-slice views of the cells -- no gather, no
        # result array, no scatter.  Eligibility rules out any overlap
        # between written and read rows, so the views never alias.
        table, constants = _step_table(op)
        columns = [
            [rows[i].address for i in group.indices]
            for rows in (dst, *sources, *temps)
        ]
        for run in _row_runs(columns, len(cells)):
            views = [cells[s] for s in run]
            if constants:
                zeros = np.zeros_like(views[0])
                views += (zeros, ~zeros)
            for step_op, out, srcs, aliased in table:
                args = [views[c] for c in srcs]
                if aliased:
                    # The out= forms read operands after writing ``out``
                    # (MAJ computes ``src2 | src3`` into it first), so a
                    # step that writes a row it reads goes through a
                    # temporary.
                    np.copyto(views[out], apply_bulk_op(step_op, *args))
                else:
                    apply_bulk_op(step_op, *args, out=views[out])
            # Every written row is restored by its write, and every
            # source activation restores (and thereby refreshes) its rows.
            for s in run:
                restore[s] = start_ns

        self.account_group(op, group)

    def account_group(self, op, group: _Group) -> None:
        """Charge one group's exact per-row command schedule.

        Extends the command trace from the plan cache's immutable
        schedules and folds timing/energy statistics, byte-identical to
        walking every row through the controller.  The fused kernel
        calls this after its numpy work; the sharded device calls it for
        groups whose *functional* effect ran in a worker process --
        accounting always happens in the process that owns the stats, so
        merged counters, energy, and golden traces stay exact.
        """
        bank, sub = group.bank, group.subarray
        cache = self.plan_cache
        stats = self.controller.stats
        trace = self.chip.trace
        ops_metric = self.controller._m_ops
        latency_metric = (
            None
            if ops_metric is None
            else self.controller._m_latency.labels(op=op.value)
        )
        total_ns = 0.0
        for plan in group.plans:
            trace.extend(cache.issued_commands(plan, bank, sub))
            stats.aap_count += plan.num_aap
            stats.ap_count += plan.num_ap
            total_ns += plan.total_ns
            if latency_metric is not None:
                latency_metric.observe(plan.total_ns)
        stats.ops[op] += len(group.indices)
        stats.busy_ns += total_ns
        stats.bank_busy_ns[bank] += total_ns
        if ops_metric is not None:
            ops_metric.labels(op=op.value).inc(len(group.indices))
            self.controller._m_busy.inc(total_ns)
        self.chip.clock_ns += total_ns

    def _run_group_per_row(self, group: _Group) -> None:
        for plan in group.plans:
            self.controller.run_plan(plan, group.bank, group.subarray)
