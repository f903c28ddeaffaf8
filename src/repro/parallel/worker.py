"""Worker-process side of the sharded simulator.

Each worker owns a process-global :class:`~repro.core.device.AmbitDevice`
built over the parent's :class:`~repro.parallel.shm.SharedRowStore`
segment, so the *functional* effect of every bulk operation it executes
(the batch engine's in-place kernel writes) lands directly in the
parent-visible cell arrays.

The dispatch protocol is **resident-plan, zero-copy**:

* **Plans ship once.**  A batch's shard row-lists (and, for traced
  batches, the tracer configuration) are *published* by the parent to
  the plan board of the shared
  :class:`~repro.parallel.accounting.SharedAccountingBlock`; the
  per-batch :class:`ShardJob` carries only the board entry id plus a
  few integers.  Workers fetch an entry the first time they see its id
  and memoise the decoded rows (:data:`_RESIDENT`), so a warm batch
  costs one dict lookup -- and the worker's persistent
  :class:`~repro.engine.plan.PlanCache` keeps the compiled
  microprograms hot across batches on top of that.
* **Results travel through shared memory.**  A worker writes its
  counters (rows, fused/fallback split, busy-ns, RSS, heartbeat) into
  its shard's fixed-layout telemetry slot and returns only its shard
  index; the parent reconstructs :class:`ShardResult` views from the
  block and pickles nothing.
* **Trace spools are zero-copy too.**  A traced job serialises its
  JSON-lines events into the slot's spool region when they fit
  (falling back to a spool file on overflow, flagged in the slot), so
  the common traced batch never touches the filesystem.

The split of responsibilities is strict:

* **Workers compute cells.**  A worker runs its shard's rows through its
  own :class:`~repro.engine.batch.BatchEngine`, which applies exactly
  the same fused-vs-per-row decision logic as the single-process path
  (hazard groups take the sequential walk), so cell contents are
  bit-exact by construction.
* **The parent computes accounting.**  Worker-side statistics, traces,
  and plan caches are private scratch state (reset per job); the parent
  re-derives the exact command trace, timing, and energy from its own
  plan cache (see :meth:`repro.engine.batch.BatchEngine.account_group`).

Traced jobs are the one exception to "engine runs the shard": when a
tracer config rides along, the worker attaches a real tracer and
executes its rows *one at a time* through the per-row command walk --
the only path that emits genuine per-primitive events -- spooling them
for the parent to merge in canonical serial order
(:mod:`repro.obs.remote`).  Cells stay bit-exact (the per-row walk is
always correct); only wall-clock changes.

Workers are handed *disjoint banks*, so no two processes ever write the
same (bank, subarray) slice; B-group scratch rows are per-subarray and
therefore also disjoint, and telemetry slots are per-shard within one
batch at a time.
"""

from __future__ import annotations

import io
import os
import pickle
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParameters

#: One row of a shard job: (bank, subarray, dk, di, dj, dl).
RowSpec = Tuple[int, int, int, int, Optional[int], Optional[int]]

#: One row of a *compiled* shard job: (bank, subarray, dk, src
#: addresses in ``CompiledOp.inputs`` order, temp addresses in slot
#: order).  The nested tuples make the spec self-describing for any
#: arity/scratch count, so the worker needs no per-op schema.
CompiledRowSpec = Tuple[int, int, int, Tuple[int, ...], Tuple[int, ...]]

#: Sentinel ``ShardJob.op`` marking a compiled-operation job.  Regular
#: jobs resolve ``op`` by ``BulkOp(value)`` lookup; compiled ops are
#: synthesized objects with no enum entry, so they ride the plan board
#: (``op_resident``) or pickle inline (``op_inline``) instead.
COMPILED_OP = "__compiled__"


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to rebuild the device (picklable)."""

    shm_name: str
    geometry: DramGeometry
    timing: TimingParameters
    split_decoder: bool = True
    #: Name of the device's :class:`SharedAccountingBlock` segment.
    block_name: Optional[str] = None


@dataclass(frozen=True)
class ShardJob:
    """One worker's slice of a batched bulk operation.

    The resident-plan protocol keeps this O(1): after the parent has
    published a batch shape once, a job is ``(op, entry id, shard,
    batch id, clock)`` -- no row lists, no plan descriptions, no tracer
    objects.  ``rows``/``tracer``/``spool_dir`` exist only as the
    inline fallback for a full plan board, and the dispatch-budget
    tests assert they stay ``None`` in the steady state.
    """

    #: ``BulkOp.value`` -- the enum member is resolved worker-side so the
    #: job pickles to a handful of primitives.
    op: str
    #: Plan-board entry id of the published shard row-lists.
    resident: Optional[int] = None
    #: Inline fallback when the plan board was full.
    rows: Optional[Tuple[RowSpec, ...]] = None
    #: Parent clock at dispatch; retention stamps written by this shard
    #: use bank-parallel time (all shards start together, as on real
    #: hardware) rather than the serialized global clock.
    start_ns: float = 0.0
    #: Parent-assigned batch identity, threaded through spool file names
    #: and crash context.
    batch_id: int = 0
    #: This job's shard index within the batch (and telemetry slot).
    shard: int = 0
    #: Plan-board entry id of the published ``(TracerConfig,
    #: spool_dir)`` pair; set on traced jobs.
    tracer_resident: Optional[int] = None
    #: Inline fallbacks for a full plan board (traced jobs only).
    tracer: Optional[object] = None
    spool_dir: Optional[str] = None
    #: Plan-board entry id of the published
    #: :class:`~repro.compile.ops.CompiledOp`; set (or ``op_inline``)
    #: when ``op`` is :data:`COMPILED_OP`.
    op_resident: Optional[int] = None
    #: Inline compiled-op fallback for a full plan board.
    op_inline: Optional[object] = None


@dataclass(frozen=True)
class ShardResult:
    """Parent-side view of one shard's telemetry slot.

    Workers no longer return this over the result pipe -- they return a
    bare shard index and the parent rebuilds the view from the shared
    accounting block (zero-copy).  The dataclass survives as the stable
    API the pool's telemetry folding consumes.
    """

    rows: int
    fused_rows: int
    fallback_rows: int
    #: Worker health telemetry.
    pid: int = 0
    #: Wall-clock nanoseconds this job spent executing.
    busy_ns: int = 0
    #: Peak resident set size of the worker process, bytes.
    rss_bytes: int = 0
    #: ``time.time()`` at job completion (the worker's heartbeat).
    heartbeat_ts: float = 0.0
    #: Shard jobs this worker process has served so far (including this).
    batches_served: int = 0
    #: Spool file holding this job's trace events (overflow fallback
    #: only; ``None`` when the spool lives in the shared block).
    spool_path: Optional[str] = None
    #: Bytes of trace spool in the shared block (0 = none).
    spool_len: int = 0


_STORE = None
_DEVICE = None
_BLOCK = None
_BATCHES_SERVED = 0
#: Memoised plan-board entries: id -> decoded payload.  Ids are
#: immutable for a device's lifetime, so this never invalidates.
_RESIDENT: Dict[int, object] = {}


def initialize_worker(config: WorkerConfig) -> None:
    """Pool initializer: attach the store and block, build the device.

    ``initialize_control_rows=False``: C0/C1 were stamped by the parent;
    re-poking them here would race other workers' reads for no reason.
    """
    global _STORE, _DEVICE, _BLOCK
    from repro.core.device import AmbitDevice
    from repro.parallel.accounting import SharedAccountingBlock
    from repro.parallel.shm import SharedRowStore

    _STORE = SharedRowStore.attach(config.shm_name, config.geometry)
    _DEVICE = AmbitDevice(
        geometry=config.geometry,
        timing=config.timing,
        split_decoder=config.split_decoder,
        row_store=_STORE,
        initialize_control_rows=False,
    )
    _BLOCK = (
        SharedAccountingBlock.attach(config.block_name)
        if config.block_name is not None
        else None
    )
    _RESIDENT.clear()


def _rss_bytes() -> int:
    """Peak RSS of this process in bytes (0 where unavailable)."""
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports kilobytes; macOS reports bytes.
        return peak * 1024 if peak < 1 << 40 else peak
    except Exception:  # pragma: no cover - platform fallback
        return 0


def _fetch_resident(entry_id: int):
    """Decode (and memoise) one plan-board entry."""
    cached = _RESIDENT.get(entry_id)
    if cached is None:
        cached = _RESIDENT[entry_id] = pickle.loads(_BLOCK.fetch(entry_id))
    return cached


def _job_rows(job: ShardJob) -> Tuple[RowSpec, ...]:
    """This job's row list: resident entry, or the inline fallback."""
    if job.resident is not None:
        return _fetch_resident(job.resident)[job.shard]
    if job.rows is None:  # pragma: no cover - dispatch contract
        raise RuntimeError("shard job carries neither resident id nor rows")
    return job.rows


def _job_tracer(job: ShardJob):
    """(TracerConfig, spool_dir) of a traced job, or (None, None)."""
    if job.tracer_resident is not None:
        return _fetch_resident(job.tracer_resident)
    return job.tracer, job.spool_dir


def _job_op(job: ShardJob):
    """The CompiledOp of a compiled job: resident entry or inline."""
    if job.op_resident is not None:
        return _fetch_resident(job.op_resident)
    if job.op_inline is None:  # pragma: no cover - dispatch contract
        raise RuntimeError("compiled shard job carries no operation")
    return job.op_inline


def run_shard(job: ShardJob) -> int:
    """Execute one shard job; results land in the accounting block.

    Returns the shard index -- the only payload that crosses the result
    pipe.  Everything else (counters, spool, health telemetry) is
    written into the job's telemetry slot of the shared block.
    """
    from repro.core.microprograms import BulkOp
    from repro.dram.chip import RowLocation

    global _BATCHES_SERVED
    device = _DEVICE
    if device is None:  # pragma: no cover - initializer contract
        raise RuntimeError("worker used before initialize_worker ran")
    started = time.perf_counter_ns()
    # Worker stats/trace are scratch: reset so the persistent process
    # does not accumulate an unbounded trace across jobs.  The plan
    # cache survives the reset, staying warm between jobs.
    device.reset_stats()
    device.chip.clock_ns = job.start_ns

    tracer_config, spool_dir = _job_tracer(job)
    if job.op == COMPILED_OP:
        cop = _job_op(job)
        dst, operands, temps = _decode_compiled(cop, _job_rows(job))
        if tracer_config is not None:
            _run_traced_compiled(
                device, job, cop, dst, operands, temps, tracer_config,
                spool_dir,
            )
            fused = 0
        else:
            report = device.engine.run_compiled(cop, dst, operands, temps)
            fused = report.fused_rows
    else:
        op = BulkOp(job.op)
        dst, src1, src2, src3 = [], [], [], []
        for bank, sub, dk, di, dj, dl in _job_rows(job):
            dst.append(RowLocation(bank, sub, dk))
            src1.append(RowLocation(bank, sub, di))
            if dj is not None:
                src2.append(RowLocation(bank, sub, dj))
            if dl is not None:
                src3.append(RowLocation(bank, sub, dl))

        if tracer_config is not None:
            _run_traced(
                device, job, op, dst, src1, src2, src3, tracer_config,
                spool_dir,
            )
            fused = 0
        else:
            report = device.engine.run_rows(
                op,
                dst,
                src1,
                src2 if src2 else None,
                src3 if src3 else None,
            )
            fused = report.fused_rows

    _BATCHES_SERVED += 1
    _BLOCK.write_telemetry(
        job.shard,
        pid=os.getpid(),
        rows=len(dst),
        fused_rows=fused,
        rss_bytes=_rss_bytes(),
        batches_served=_BATCHES_SERVED,
        busy_ns=time.perf_counter_ns() - started,
        heartbeat_ts=time.time(),
    )
    return job.shard


def _decode_compiled(cop, rows):
    """Split compiled rowspecs into dst / operand / temp row columns."""
    from repro.dram.chip import RowLocation

    dst = []
    operands = [[] for _ in range(cop.arity)]
    temps = [[] for _ in range(cop.num_temps)]
    for bank, sub, dk, srcs, temp_addrs in rows:
        dst.append(RowLocation(bank, sub, dk))
        for column, address in zip(operands, srcs):
            column.append(RowLocation(bank, sub, address))
        for column, address in zip(temps, temp_addrs):
            column.append(RowLocation(bank, sub, address))
    return dst, operands, temps


def _run_traced(
    device, job: ShardJob, op, dst, src1, src2, src3, tracer_config, spool_dir
) -> None:
    """Execute a traced shard per-row, spooling events zero-copy.

    Per-row execution in job order is what makes the parent-side merge
    exact: every row contributes one contiguous event segment ending in
    its ``kind="op"`` event, and rows of one bank retain the serial
    engine's FIFO order (cross-bank order is functionally irrelevant --
    shards own disjoint banks).

    Events serialise into an in-memory buffer first; if they fit the
    block's per-slot spool region they are published there (zero-copy),
    otherwise they spill to the traditional per-(batch, shard) spool
    file, with the slot flagged so the parent knows where to look.
    """
    buffer = io.StringIO()
    tracer = tracer_config.build(buffer)
    device.chip.tracer = tracer
    try:
        for i in range(len(dst)):
            device.bbop_row(
                op,
                dst[i],
                src1[i],
                src2[i] if src2 else None,
                src3[i] if src3 else None,
            )
    finally:
        device.chip.tracer = None
        tracer.close()
    _publish_spool(job, buffer, spool_dir)


def _run_traced_compiled(
    device, job: ShardJob, cop, dst, operands, temps, tracer_config, spool_dir
) -> None:
    """Compiled twin of :func:`_run_traced`: per-row walk, spooled.

    Each row runs through ``bbop_compiled_row`` -- the same per-row
    command walk the serial engine traces -- so every row still
    contributes one contiguous event segment ending in its ``kind="op"``
    event and the parent's canonical-order merge applies unchanged.
    """
    buffer = io.StringIO()
    tracer = tracer_config.build(buffer)
    device.chip.tracer = tracer
    try:
        for i in range(len(dst)):
            device.bbop_compiled_row(
                cop,
                dst[i],
                [column[i] for column in operands],
                [column[i] for column in temps],
            )
    finally:
        device.chip.tracer = None
        tracer.close()
    _publish_spool(job, buffer, spool_dir)


def _publish_spool(job: ShardJob, buffer: io.StringIO, spool_dir) -> None:
    """Land a traced job's events in the block slot, or spill to a file."""
    data = buffer.getvalue().encode("utf-8")
    if not _BLOCK.write_spool(job.shard, data):
        if spool_dir is None:  # pragma: no cover - dispatch contract
            raise RuntimeError(
                "trace spool overflowed the shared block and no spool "
                "directory was provided"
            )
        with open(spool_file_path(spool_dir, job.batch_id, job.shard), "w") as f:
            f.write(buffer.getvalue())


def spool_file_path(spool_dir: str, batch_id: int, shard: int) -> str:
    """The overflow spool file of one (batch, shard) -- both sides agree."""
    return os.path.join(spool_dir, f"batch{batch_id}-shard{shard}.jsonl")


def crash(exit_code: int = 1) -> None:  # pragma: no cover - runs in worker
    """Kill the calling worker without cleanup (crash-recovery tests)."""
    import os

    os._exit(exit_code)


def stall(seconds: float) -> float:  # pragma: no cover - runs in worker
    """Occupy the calling worker for ``seconds`` (stall-fault injection).

    The worker stays alive and eventually returns, so a stalled shard is
    *detected* (results exceed the stall timeout) and then *recovered*
    (the extended wait drains it) rather than treated as a crash.
    """
    import time

    time.sleep(seconds)
    return seconds
