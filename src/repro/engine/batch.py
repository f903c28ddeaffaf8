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
   whose source rows are consecutive or fixed, and each run is *one*
   vectorised numpy call (:func:`apply_bulk_op` with ``out=``) on
   basic-slice views of ``Subarray.cells``: no gather, no result
   array, no scatter.  The driver's co-located allocation makes each
   group one run; scattered rows become runs of length 1.  The
   accounting (per-row command timing/energy, AAP/AP counts, the
   command trace itself) is charged exactly as if every row had walked
   the per-row path.
3. **Overlap across banks** -- groups are issued round-robin across
   banks (:class:`~repro.engine.scheduler.BatchScheduler`), and every
   batch returns a :class:`~repro.engine.scheduler.ParallelismReport`
   comparing serialized vs bank-interleaved makespan.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.microprograms import BulkOp
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


def _row_runs(columns: List[List[int]], storage_rows: int) -> List[list]:
    """Split aligned address columns into maximal runs of rows.

    Within a run the destination (column 0) steps by +1 from row to row
    and every source either steps by +1 or stays on one row, so each
    operand of the run is one basic index into the cell array: a slice
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
        op: BulkOp,
        dst: Sequence[RowLocation],
        src1: Sequence[RowLocation],
        src2: Optional[Sequence[RowLocation]] = None,
        src3: Optional[Sequence[RowLocation]] = None,
        fuse: bool = True,
    ) -> BatchReport:
        """Execute ``dst[i] = op(src1[i], src2[i], src3[i])`` for every row.

        All operands of row ``i`` must share ``dst[i]``'s (bank,
        subarray); stage strays first (:meth:`repro.core.driver.AmbitDriver.stage_for`).
        Timing, energy, statistics, and the command trace are charged
        exactly as the per-row path would.

        ``fuse=False`` forces every group down the per-row command walk
        -- the dispatch auto-tuner's "serial" tier.  The observable
        outcome is identical either way (that is the engine's core
        parity property); only wall-clock changes.
        """
        n = len(dst)
        for name, rows in (("src1", src1), ("src2", src2), ("src3", src3)):
            if rows is not None and len(rows) != n:
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
        dst = self.translate_rows(dst)
        src1 = self.translate_rows(src1)
        src2 = self.translate_rows(src2)
        src3 = self.translate_rows(src3)
        groups = self.plan_groups(op, dst, src1, src2, src3)
        command_groups = [
            CommandGroup(bank=g.bank, duration_ns=g.duration_ns, payload=g)
            for g in groups
        ]
        parallelism = self.scheduler.report(command_groups)

        fused = 0
        for issued in self.scheduler.order(command_groups):
            group: _Group = issued.payload
            if fuse and self._fused_eligible(group, dst, src1, src2, src3):
                self._run_group_fused(op, group, dst, src1, src2, src3)
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

    def run_compiled(
        self,
        cop,
        dst: Sequence[RowLocation],
        operands: Sequence[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]],
        fuse: bool = True,
    ) -> BatchReport:
        """Execute a compiled op over row batches: one dst row, one row
        per input, and one row per scratch slot, for every index.

        ``operands`` holds one row list per compiled input (in
        ``cop.inputs`` order) and ``temps`` one row list per scratch
        slot; all lists align with ``dst``.  Planning, fusion
        eligibility, bank-interleaved issue, accounting, and the
        metrics/trace surface are shared with :meth:`run_rows`, so
        synthesized ops inherit the whole engine behind one call.
        """
        n = len(dst)
        if len(operands) != cop.arity:
            raise AddressError(
                f"{cop.value} takes {cop.arity} operand columns; "
                f"got {len(operands)}"
            )
        if len(temps) != cop.num_temps:
            raise AddressError(
                f"{cop.value} needs {cop.num_temps} scratch columns; "
                f"got {len(temps)}"
            )
        for name, rows in [
            (f"operand {i}", col) for i, col in enumerate(operands)
        ] + [(f"temp {i}", col) for i, col in enumerate(temps)]:
            if len(rows) != n:
                raise AddressError(
                    f"batch operand lists must align: {name} has "
                    f"{len(rows)} rows, dst has {n}"
                )
        if n == 0:
            return BatchReport(
                rows=0, fused_rows=0, fallback_rows=0,
                parallelism=self.scheduler.report(()),
            )

        dst = self.translate_rows(dst)
        operands = [self.translate_rows(col) for col in operands]
        temps = [self.translate_rows(col) for col in temps]
        groups = self.plan_groups_compiled(cop, dst, operands, temps)
        command_groups = [
            CommandGroup(bank=g.bank, duration_ns=g.duration_ns, payload=g)
            for g in groups
        ]
        parallelism = self.scheduler.report(command_groups)

        fused = 0
        for issued in self.scheduler.order(command_groups):
            group: _Group = issued.payload
            if fuse and self._fused_eligible_compiled(
                group, dst, operands, temps
            ):
                self._run_group_fused_compiled(
                    cop, group, dst, operands, temps
                )
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
        op: BulkOp,
        dst: Sequence[RowLocation],
        src1: Sequence[RowLocation],
        src2: Optional[Sequence[RowLocation]] = None,
        src3: Optional[Sequence[RowLocation]] = None,
    ) -> List[_Group]:
        """Validate co-location and compile the batch into per-(bank,
        subarray) groups of cached plans.

        This is the planning front half of :meth:`run_rows`; the sharded
        device calls it directly so its plan-cache traffic (and thus the
        hit/miss counters) matches the single-process engine exactly.
        """
        cache = self.plan_cache
        groups: "OrderedDict[Tuple[int, int], _Group]" = OrderedDict()
        for i in range(len(dst)):
            d = dst[i]
            sources = [src1[i]]
            if src2 is not None:
                sources.append(src2[i])
            if src3 is not None:
                sources.append(src3[i])
            for loc in sources:
                if (loc.bank, loc.subarray) != (d.bank, d.subarray):
                    raise AddressError(
                        f"batch operands of row {i} must share a subarray: "
                        f"{loc} vs bank {d.bank} subarray {d.subarray} "
                        f"(stage cross-subarray operands first)"
                    )
            plan = cache.get(
                op,
                d.address,
                sources[0].address,
                sources[1].address if len(sources) > 1 else None,
                sources[2].address if len(sources) > 2 else None,
                dcc=self.controller.dcc_route.get((d.bank, d.subarray), 0),
            )
            key = (d.bank, d.subarray)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _Group(d.bank, d.subarray)
            group.indices.append(i)
            group.plans.append(plan)
        return list(groups.values())

    def plan_groups_compiled(
        self,
        cop,
        dst: Sequence[RowLocation],
        operands: Sequence[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]],
    ) -> List[_Group]:
        """Compiled-op variant of :meth:`plan_groups`.

        Validates the driver's co-location contract over destination,
        operand, *and* scratch rows, then binds one
        :meth:`~repro.engine.plan.PlanCache.get_compiled` plan per row.
        """
        cache = self.plan_cache
        groups: "OrderedDict[Tuple[int, int], _Group]" = OrderedDict()
        for i in range(len(dst)):
            d = dst[i]
            row_srcs = tuple(col[i] for col in operands)
            row_temps = tuple(col[i] for col in temps)
            for loc in row_srcs + row_temps:
                if (loc.bank, loc.subarray) != (d.bank, d.subarray):
                    raise AddressError(
                        f"batch operands of row {i} must share a subarray: "
                        f"{loc} vs bank {d.bank} subarray {d.subarray} "
                        f"(stage cross-subarray operands first)"
                    )
            plan = cache.get_compiled(
                cop,
                d.address,
                tuple(loc.address for loc in row_srcs),
                tuple(loc.address for loc in row_temps),
                dcc=self.controller.dcc_route.get((d.bank, d.subarray), 0),
            )
            key = (d.bank, d.subarray)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _Group(d.bank, d.subarray)
            group.indices.append(i)
            group.plans.append(plan)
        return list(groups.values())

    # ------------------------------------------------------------------
    # Eligibility
    # ------------------------------------------------------------------
    def _fused_eligible(
        self,
        group: _Group,
        dst: Sequence[RowLocation],
        src1: Sequence[RowLocation],
        src2: Optional[Sequence[RowLocation]],
        src3: Optional[Sequence[RowLocation]],
    ) -> bool:
        if self.chip.tracer is not None:
            return False
        subarray = self.chip.bank(group.bank).subarray(group.subarray)
        if subarray.has_faults or subarray.amps.charge_model is not None:
            return False
        # Hazard check: the fused kernel reads every source before any
        # destination is written, so a row whose source is another row's
        # destination (or duplicate destinations) must take the
        # sequential walk.
        dst_addrs = [dst[i].address for i in group.indices]
        if len(set(dst_addrs)) != len(dst_addrs):
            return False
        src_addrs = set()
        for i in group.indices:
            src_addrs.add(src1[i].address)
            if src2 is not None:
                src_addrs.add(src2[i].address)
            if src3 is not None:
                src_addrs.add(src3[i].address)
        return not (set(dst_addrs) & src_addrs)

    def _fused_eligible_compiled(
        self,
        group: _Group,
        dst: Sequence[RowLocation],
        operands: Sequence[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]],
    ) -> bool:
        if self.chip.tracer is not None:
            return False
        subarray = self.chip.bank(group.bank).subarray(group.subarray)
        if subarray.has_faults or subarray.amps.charge_model is not None:
            return False
        # The fused kernel reads every operand column up front, then
        # writes the destination *and* scratch columns; any write-write
        # aliasing across the group's rows (shared scratch rows, say) or
        # write-read overlap must take the sequential per-row walk.
        write_addrs = [dst[i].address for i in group.indices]
        for col in temps:
            write_addrs.extend(col[i].address for i in group.indices)
        if len(set(write_addrs)) != len(write_addrs):
            return False
        read_addrs = {
            col[i].address for col in operands for i in group.indices
        }
        return not (set(write_addrs) & read_addrs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _run_group_fused(
        self,
        op: BulkOp,
        group: _Group,
        dst: Sequence[RowLocation],
        src1: Sequence[RowLocation],
        src2: Optional[Sequence[RowLocation]],
        src3: Optional[Sequence[RowLocation]],
    ) -> None:
        bank, sub = group.bank, group.subarray
        if self.chip.bank(bank).open_subarray is not None:
            raise DramProtocolError(
                f"bank {bank} must be precharged before a bulk operation"
            )
        subarray = self.chip.bank(bank).subarray(sub)
        cells, restore = subarray.cells, subarray.last_restore_ns
        start_ns = self.chip.clock_ns

        # Functional effect, in place: one numpy call per run of rows
        # on basic-slice views of the cells -- no gather, no result
        # array, no scatter.  Eligibility rules out any overlap between
        # destination and source rows, so the views never alias.
        columns = [
            [rows[i].address for i in group.indices]
            for rows in (dst, src1, src2, src3)
            if rows is not None
        ]
        for run in _row_runs(columns, len(cells)):
            apply_bulk_op(op, *[cells[s] for s in run[1:]], out=cells[run[0]])
            # The destination is restored by its write, and every source
            # activation restores (and thereby refreshes) its rows.
            for s in run:
                restore[s] = start_ns

        self.account_group(op, group)

    def _run_group_fused_compiled(
        self,
        cop,
        group: _Group,
        dst: Sequence[RowLocation],
        operands: Sequence[Sequence[RowLocation]],
        temps: Sequence[Sequence[RowLocation]],
    ) -> None:
        bank, sub = group.bank, group.subarray
        if self.chip.bank(bank).open_subarray is not None:
            raise DramProtocolError(
                f"bank {bank} must be precharged before a bulk operation"
            )
        subarray = self.chip.bank(bank).subarray(sub)
        indices = group.indices
        start_ns = self.chip.clock_ns

        sources = [
            subarray.peek_batch([col[i].address for i in indices])
            for col in operands
        ]
        result, temp_values = cop.eval_rows(sources)
        dst_addrs = [dst[i].address for i in indices]
        subarray.poke_batch(dst_addrs, result, now_ns=start_ns)
        # Scratch rows end a per-row walk holding their final step
        # values; poke them too so fused and per-row leave identical
        # memory behind (the dispatch-parity property).
        touched = list(dst_addrs)
        for col, values in zip(temps, temp_values):
            temp_addrs = [col[i].address for i in indices]
            subarray.poke_batch(temp_addrs, values, now_ns=start_ns)
            touched.extend(temp_addrs)
        for col in operands:
            touched.extend(col[i].address for i in indices)
        subarray.touch_rows(touched, now_ns=start_ns)

        self.account_group(cop, group)

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
