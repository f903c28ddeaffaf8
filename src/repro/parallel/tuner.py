"""Auto-tuned dispatch: pick serial / fused / sharded per request.

The three execution tiers of a bulk batch trade fixed overhead against
marginal row cost very differently:

* **serial** -- the per-row command walk.  No planning or group setup,
  but every row pays full Python dispatch; right only for tiny batches.
* **fused** -- the in-process batch engine: one planning pass, then
  in-place numpy kernels on views of each (bank, subarray) group's
  cells.  The default for anything that fits one process.
* **sharded** -- fan the fused kernels across worker processes.  Adds a
  fixed dispatch cost (submit + collect through the pool) and a
  per-shard cost, but divides the numpy byte work by the effective
  worker count.  Wins only when the divided byte work exceeds what the
  dispatch overhead eats -- the Buddy-RAM lesson: amortize one-time
  setup over *large* batches.

:class:`AutoTuner` encodes those shapes as an explicit per-tier cost
model (:class:`CostModel`) and picks the cheapest tier per request.
The decision is a pure function of ``(rows, row_bytes, shards, jobs)``
and the model constants, which is what makes it golden-testable: the
decision table in ``tests/parallel/test_tuner.py`` pins every boundary.

Constants come from one of two places: the shipped defaults (measured
on a reference host; conservative toward ``fused``, the always-safe
tier) or :meth:`AutoTuner.calibrate`, which times micro-probes on the
caller's device and rebuilds the model from live measurements.
Correctness never depends on the model -- every tier is bit-exact by
construction -- so a mis-tuned model costs wall-clock only.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple


class DispatchTier(enum.Enum):
    """How one bulk batch is executed."""

    SERIAL = "serial"
    FUSED = "fused"
    SHARDED = "sharded"


#: Tie-break preference: simpler tiers win equal estimates.
_TIER_ORDER = (DispatchTier.SERIAL, DispatchTier.FUSED, DispatchTier.SHARDED)


@dataclass(frozen=True)
class CostModel:
    """Per-tier cost constants, in seconds.

    The estimates deliberately stay three-term simple -- fixed + per-row
    + per-byte -- because the decision only needs the *crossover points*
    right, not absolute times.
    """

    #: Per-row cost of the per-row command walk (Python dispatch heavy).
    serial_row_s: float = 110e-6
    #: Fixed planning/report cost of an engine batch.
    fused_batch_s: float = 60e-6
    #: Per-row planning/accounting cost inside an engine batch.
    fused_row_s: float = 7e-6
    #: Per-byte cost of the fused numpy kernels (both in-process tiers
    #: and the workers' shards run the same kernels).  A row operation
    #: traverses each operand row several times (operand copies into
    #: the B-group, the kernel itself, the result copy-back), so this
    #: is far above a single memcpy pass.
    byte_s: float = 2.0e-9
    #: Fixed dispatch cost of a sharded batch (submit + collect through
    #: the worker pool, resident-plan protocol in effect).
    sharded_batch_s: float = 450e-6
    #: Marginal cost per shard job in a batch.
    sharded_shard_s: float = 120e-6

    def describe(self) -> Dict[str, float]:
        """The constants as a plain dict (for bench payloads / docs)."""
        return {
            "serial_row_s": self.serial_row_s,
            "fused_batch_s": self.fused_batch_s,
            "fused_row_s": self.fused_row_s,
            "byte_s": self.byte_s,
            "sharded_batch_s": self.sharded_batch_s,
            "sharded_shard_s": self.sharded_shard_s,
        }


#: Reference-host defaults.
DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class McCostModel:
    """Cost constants of the Monte Carlo fan-out, in seconds.

    The Monte Carlo arm has a different shape from a bulk batch: the
    chunk count is *experiment configuration* (it fixes the RNG
    streams), so the tuner may only pick the worker count, never the
    chunking.  The decision is therefore one-dimensional: is dividing
    the per-trial compute across ``jobs`` processes worth the pool
    spin-up plus per-chunk submit/collect overhead?
    """

    #: Per-trial compute of the vectorised variation deck.
    trial_s: float = 2.4e-7
    #: Per-chunk overhead: child-rng spawn, submit, pickle, collect.
    chunk_s: float = 5e-4
    #: One-time pool creation cost (fork/spawn + imports), paid by
    #: every parallel run because the MC path builds a fresh pool.
    pool_spinup_s: float = 0.35

    def describe(self) -> Dict[str, float]:
        """The constants as a plain dict (for bench payloads / docs)."""
        return {
            "trial_s": self.trial_s,
            "chunk_s": self.chunk_s,
            "pool_spinup_s": self.pool_spinup_s,
        }


#: Reference-host defaults for the Monte Carlo arm.
DEFAULT_MC_COST_MODEL = McCostModel()


@dataclass(frozen=True)
class McDispatchDecision:
    """Worker-count decision for one Monte Carlo run (for surfacing)."""

    trials: int
    chunks: int
    jobs_requested: int
    cores: int
    #: Worker count to actually run with (1 = stay in-process).
    jobs: int
    serial_est_s: float
    parallel_est_s: float
    #: True when fanning out is predicted to beat the in-process run.
    worthwhile: bool
    #: Why the tuner declined to fan out ("" when it did not decline).
    reason: str


def plan_mc_dispatch(
    trials: int,
    chunks: int,
    jobs: int,
    cores: Optional[int] = None,
    model: Optional[McCostModel] = None,
) -> McDispatchDecision:
    """Pick the Monte Carlo worker count from the cost model.

    Chunk count is left untouched -- it is part of the experiment's
    identity (the failure count is a function of ``(chunks, seed)``) --
    so the only free variable is how many processes share the chunks.
    On a single schedulable core, or whenever the predicted parallel
    time (pool spin-up + chunk overhead + divided trial work) exceeds
    the in-process time, the decision is ``jobs=1`` with a stated
    reason; the bench records that reason as an explicit waiver instead
    of publishing a sub-1x "speedup" that is really a dispatch tax.
    """
    model = model if model is not None else DEFAULT_MC_COST_MODEL
    if cores is None:
        from repro.parallel.pmap import default_jobs

        cores = default_jobs()
    effective = max(1, min(jobs, cores, chunks))
    work_s = trials * model.trial_s
    serial_est = work_s
    parallel_est = (
        model.pool_spinup_s + chunks * model.chunk_s + work_s / effective
    )
    worthwhile = effective >= 2 and parallel_est < serial_est
    if worthwhile:
        reason = ""
    elif min(jobs, cores) < 2:
        reason = (
            f"single-core host ({cores} schedulable core(s)); "
            f"fan-out cannot win"
        )
    else:
        reason = (
            f"dispatch-bound: predicted parallel {parallel_est:.3f}s "
            f">= serial {serial_est:.3f}s at {effective} worker(s) "
            f"(pool spin-up + {chunks} chunk submissions dominate "
            f"{trials:,} trials)"
        )
    return McDispatchDecision(
        trials=trials,
        chunks=chunks,
        jobs_requested=jobs,
        cores=cores,
        jobs=effective if worthwhile else 1,
        serial_est_s=serial_est,
        parallel_est_s=parallel_est,
        worthwhile=worthwhile,
        reason=reason,
    )


@dataclass(frozen=True)
class Decision:
    """One auto-dispatch decision with its estimates (for surfacing)."""

    rows: int
    row_bytes: int
    shards: int
    jobs: int
    tier: DispatchTier
    estimates_s: Dict[str, float]


class AutoTuner:
    """Cost-model dispatch tier selection for a sharded device."""

    def __init__(self, model: Optional[CostModel] = None):
        self.model = model if model is not None else DEFAULT_COST_MODEL
        #: Decisions taken, per tier value (mirrors the device's
        #: ``ambit_dispatch_total`` metric, kept here so a bare tuner is
        #: inspectable without a registry).
        self.decisions: Dict[str, int] = {t.value: 0 for t in DispatchTier}
        self.last_decision: Optional[Decision] = None

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        tier: DispatchTier,
        rows: int,
        row_bytes: int,
        shards: int,
        jobs: int,
    ) -> float:
        """Predicted wall-clock seconds of one batch on one tier."""
        m = self.model
        byte_work = rows * row_bytes * m.byte_s
        if tier is DispatchTier.SERIAL:
            return rows * m.serial_row_s + byte_work
        if tier is DispatchTier.FUSED:
            return m.fused_batch_s + rows * m.fused_row_s + byte_work
        effective = max(1, min(shards, jobs))
        return (
            m.sharded_batch_s
            + effective * m.sharded_shard_s
            + m.fused_batch_s
            + rows * m.fused_row_s
            + byte_work / effective
        )

    def choose(
        self, rows: int, row_bytes: int, shards: int, jobs: int
    ) -> DispatchTier:
        """The cheapest tier for this request shape.

        ``shards`` is the batch's *eligible* shard count (distinct
        banks, capped by workers); pass 1 when sharding is ineligible
        and the sharded tier prices itself out automatically.
        """
        estimates = {
            tier: self.estimate(tier, rows, row_bytes, shards, jobs)
            for tier in _TIER_ORDER
        }
        if shards < 2 or jobs < 2:
            del estimates[DispatchTier.SHARDED]
        tier = min(estimates, key=lambda t: (estimates[t], _TIER_ORDER.index(t)))
        self.decisions[tier.value] += 1
        self.last_decision = Decision(
            rows=rows,
            row_bytes=row_bytes,
            shards=shards,
            jobs=jobs,
            tier=tier,
            estimates_s={t.value: s for t, s in estimates.items()},
        )
        return tier

    def decision_table(
        self, shapes: Iterable[Tuple[int, int, int, int]]
    ) -> List[Dict[str, object]]:
        """Evaluate ``(rows, row_bytes, shards, jobs)`` shapes.

        Pure: rows of the returned table do not count toward
        :attr:`decisions` -- this is the inspection/golden-test surface.
        """
        saved = dict(self.decisions), self.last_decision
        try:
            table = []
            for rows, row_bytes, shards, jobs in shapes:
                tier = self.choose(rows, row_bytes, shards, jobs)
                table.append(
                    {
                        "rows": rows,
                        "row_bytes": row_bytes,
                        "shards": shards,
                        "jobs": jobs,
                        "tier": tier.value,
                    }
                )
            return table
        finally:
            self.decisions, self.last_decision = saved

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    def calibrate(self, device, rows: int = 32, repeats: int = 3) -> CostModel:
        """Rebuild the model from micro-probes on a live sharded device.

        Times (best of ``repeats``) a per-row walk, a fused batch, and a
        sharded batch of the same shape on subarray-local scratch rows,
        then solves the model constants from the differences.  The
        device's statistics are reset afterwards; cells of the scratch
        rows are clobbered (use before real data, as ``repro bench``
        does).  Returns (and installs) the new model.
        """
        from repro.core.microprograms import BulkOp
        from repro.dram.chip import RowLocation

        geometry = device.geometry
        banks = geometry.banks
        per_bank = max(1, min(rows // banks, geometry.subarray.data_rows - 2))
        dst, src1, src2 = [], [], []
        for bank in range(banks):
            for i in range(per_bank):
                dst.append(RowLocation(bank, 0, 2 + i))
                src1.append(RowLocation(bank, 0, 0))
                src2.append(RowLocation(bank, 0, 1))
        n = len(dst)
        row_bytes = device.row_bytes

        def best(fn) -> float:
            result = float("inf")
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                fn()
                result = min(result, time.perf_counter() - t0)
            return result

        engine = device.engine
        run = device.run_rows
        # Warm plan caches, the worker pool, and the resident plan so
        # calibration measures the steady state the tuner predicts for.
        engine.run_rows(BulkOp.AND, dst, src1, src2)
        run(BulkOp.AND, dst, src1, src2)
        serial_s = best(
            lambda: engine.run_rows(BulkOp.AND, dst, src1, src2, fuse=False)
        )
        fused_s = best(lambda: engine.run_rows(BulkOp.AND, dst, src1, src2))
        sharded_s = best(lambda: run(BulkOp.AND, dst, src1, src2))
        device.quiesce()
        device.reset_stats()

        shards = max(1, min(getattr(device, "max_workers", 1), banks))
        byte_work = n * row_bytes * self.model.byte_s
        fused_rows_cost = max(fused_s - byte_work, 1e-9)
        dispatch = max(
            sharded_s - (fused_s - byte_work + byte_work / max(1, shards)),
            1e-9,
        )
        self.model = replace(
            self.model,
            serial_row_s=max(serial_s / n, 1e-9),
            fused_row_s=max(
                (fused_rows_cost - self.model.fused_batch_s) / n, 1e-9
            ),
            sharded_batch_s=dispatch / 2,
            sharded_shard_s=dispatch / (2 * max(1, shards)),
        )
        return self.model
