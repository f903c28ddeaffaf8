"""Microprogram plan cache: compile once, execute many.

Every instance of a bulk bitwise operation with the same local row
addresses compiles to the *same* microprogram, the same per-primitive
latencies, and (per bank/subarray) the same DRAM command stream.  The
driver places co-operating bitvectors at matching local addresses across
stripes, so a vector-wide operation is thousands of executions of a
handful of distinct plans.  :class:`PlanCache` memoises that compilation:

* :class:`RowPlan` -- one compiled bulk operation: the
  :class:`~repro.core.microprograms.Microprogram`, its per-primitive
  latencies under the cache's timing/decoder configuration, and the
  aggregate counts the accounting layer needs.
* :meth:`PlanCache.issued_commands` -- the flat
  :class:`~repro.dram.commands.IssuedCommand` schedule of a plan on one
  ``(bank, subarray)``, byte-identical to what
  :meth:`repro.dram.chip.DramChip.execute` would append to the command
  trace (wordline counts and AAP-overlap flags included), so the batch
  engine can extend the trace without re-executing the state machine.

Cache keys are ``(op, dk, srcs, temps, dcc)``: the operation (a native
:class:`~repro.core.microprograms.BulkOp` or a synthesized
:class:`repro.compile.ops.CompiledOp`), its local destination, source
and scratch row addresses, and the DCC route, under one fixed
``(address map, timing, split_decoder)`` configuration -- the cache is
per-controller, and the controller's configuration is immutable.  Both
kinds of op bind through their own ``program()`` method, so compiled
plans are memoised, trimmed, and expanded to command schedules exactly
like the paper's fixed nine.  Hit/miss statistics are additionally kept
per operation label (``hits_by_op``/``misses_by_op``), so ``repro
profile`` shows each compiled op as its own line instead of folding
every synthesized plan into one catch-all bucket.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.addressing import AmbitAddressMap
from repro.core.microprograms import BulkOp, Microprogram
from repro.core.primitives import AAP, AP
from repro.dram.commands import Command, IssuedCommand, Opcode
from repro.dram.timing import TimingParameters

#: Cache key: the operation, its destination, source and scratch row
#: addresses, and the DCC route.
PlanKey = Tuple[object, int, Tuple[int, ...], Tuple[int, ...], int]


@dataclass(frozen=True)
class RowPlan:
    """One compiled bulk operation with pre-computed cost metadata."""

    key: PlanKey
    program: Microprogram
    #: Accounted latency of each primitive, in program order.
    latencies_ns: Tuple[float, ...]
    #: Sum of ``latencies_ns`` -- the per-row latency of the operation.
    total_ns: float
    num_aap: int
    num_ap: int
    #: Bus commands the plan expands to (3 per AAP, 2 per AP).
    num_commands: int

    @property
    def op(self) -> BulkOp:
        return self.program.op


class PlanCache:
    """Memoised compilation of bulk operations to executable plans.

    Parameters
    ----------
    amap:
        The subarray address map (fixed per device).
    timing:
        Speed grade used for the cached per-primitive latencies.
    split_decoder:
        Decoder configuration the latencies assume (Section 5.3).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; hit/miss
        counters mirror into ``ambit_plan_cache_{hits,misses}_total``
        and a collector samples the compiled-plan count at scrape time.
    """

    def __init__(
        self,
        amap: AmbitAddressMap,
        timing: TimingParameters,
        split_decoder: bool = True,
        metrics: Optional[object] = None,
        max_plans: Optional[int] = None,
    ):
        self.amap = amap
        self.timing = timing
        self.split_decoder = split_decoder
        self._plans: "OrderedDict[PlanKey, RowPlan]" = OrderedDict()
        self._commands: Dict[Tuple[PlanKey, int, int], Tuple[IssuedCommand, ...]] = {}
        self._wordline_counts: Optional[Dict[int, int]] = None
        #: Cache statistics; reset with :meth:`reset_counters` (the
        #: compiled plans themselves survive a stats reset).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Per-operation-label statistics (``op.value`` -> count); the
        #: fix for compiled plans colliding into one profile bucket.
        self.hits_by_op: Dict[str, int] = {}
        self.misses_by_op: Dict[str, int] = {}
        self._max_plans: Optional[int] = None
        self._m_hits = self._m_misses = self._m_evictions = None
        if metrics is not None:
            self._m_hits = metrics.counter(
                "ambit_plan_cache_hits_total", "Plan-cache hits"
            )
            self._m_misses = metrics.counter(
                "ambit_plan_cache_misses_total",
                "Plan-cache misses (microprogram compilations)",
            )
            self._m_evictions = metrics.counter(
                "ambit_plan_cache_evictions_total",
                "Plans evicted by the LRU bound (multi-tenant churn)",
            )
            plans_gauge = metrics.gauge(
                "ambit_plan_cache_plans", "Distinct compiled plans held"
            )
            metrics.register_collector(
                lambda: plans_gauge.set(len(self._plans))
            )
        if max_plans is not None:
            self.max_plans = max_plans

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._plans)

    @property
    def max_plans(self) -> Optional[int]:
        """LRU bound on compiled plans (``None`` = unbounded).

        A single workload compiles a handful of plans and never needs a
        bound; a multi-tenant service allocating and freeing vectors at
        churn compiles an unbounded stream of address combinations, so
        the serving layer installs a bound here.  Setting it trims the
        cache immediately (least recently used first) and counts each
        drop in ``ambit_plan_cache_evictions_total``.
        """
        return self._max_plans

    @max_plans.setter
    def max_plans(self, bound: Optional[int]) -> None:
        if bound is not None and bound < 1:
            raise ValueError(f"max_plans must be >= 1 or None; got {bound}")
        self._max_plans = bound
        self._trim()

    def _trim(self) -> None:
        while self._max_plans is not None and len(self._plans) > self._max_plans:
            key, _ = self._plans.popitem(last=False)
            # The flat command schedules are keyed by plan; drop them
            # with it or the cache bound would not bound memory.
            for ckey in [c for c in self._commands if c[0] == key]:
                del self._commands[ckey]
            self.evictions += 1
            if self._m_evictions is not None:
                self._m_evictions.inc()

    def get(
        self,
        op,
        dk: int,
        *srcs: Optional[int],
        temps: Sequence[int] = (),
        dcc: int = 0,
    ) -> RowPlan:
        """The plan for ``op`` bound to the given local rows (compiling on miss).

        ``srcs`` are the operand rows in the op's input order (``None``
        entries are dropped, so ``get(op, dk, di, dj, dl)`` works for
        every native op) and ``temps`` the scratch rows a compiled op
        clobbers.  ``dcc`` selects the dual-contact row carrying single
        negations (not/nand/nor); it is part of the cache key, so
        rerouting a subarray around a broken DCC never aliases the
        healthy plans.
        """
        if None in srcs:
            srcs = tuple(s for s in srcs if s is not None)
        return self.lookup((op, dk, srcs, tuple(temps), dcc))

    def lookup(self, key: PlanKey) -> RowPlan:
        """The plan for a whole cache key (compiling on miss).

        :meth:`get` without the argument normalisation, for the batch
        engine's planner, which builds each row's ``(op, dk, srcs, temps,
        dcc)`` key itself (a varargs call per row costs about 1 us).
        """
        plan = self._plans.get(key)
        if plan is not None:
            self._record_hit(key[0], key)
            return plan
        op, dk, srcs, temps, dcc = key
        self._record_miss(op)
        program = op.program(self.amap, dk, srcs, temps, dcc=dcc)
        return self._install(key, program)

    def _record_hit(self, op, key) -> None:
        self.hits += 1
        label = op.value
        self.hits_by_op[label] = self.hits_by_op.get(label, 0) + 1
        if self._m_hits is not None:
            self._m_hits.inc()
        if self._max_plans is not None:
            self._plans.move_to_end(key)

    def _record_miss(self, op) -> None:
        self.misses += 1
        label = op.value
        self.misses_by_op[label] = self.misses_by_op.get(label, 0) + 1
        if self._m_misses is not None:
            self._m_misses.inc()

    def _install(self, key, program: Microprogram) -> RowPlan:
        latencies = tuple(
            p.latency_ns(self.timing, self.amap, self.split_decoder)
            for p in program.primitives
        )
        plan = RowPlan(
            key=key,
            program=program,
            latencies_ns=latencies,
            total_ns=sum(latencies),
            num_aap=program.num_aap,
            num_ap=program.num_ap,
            num_commands=sum(
                3 if isinstance(p, AAP) else 2 for p in program.primitives
            ),
        )
        self._plans[key] = plan
        self._trim()
        return plan

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without dropping compiled plans."""
        self.hits = 0
        self.misses = 0
        self.hits_by_op.clear()
        self.misses_by_op.clear()

    # ------------------------------------------------------------------
    # Flat command schedules
    # ------------------------------------------------------------------
    def issued_commands(
        self, plan: RowPlan, bank: int, subarray: int
    ) -> Tuple[IssuedCommand, ...]:
        """The plan's command stream on one subarray, as the chip would trace it.

        The returned tuple carries the exact ``wordlines_raised`` and
        ``onto_open_row`` annotations the chip's execute path would
        produce: the first ACTIVATE of an AAP (and the ACTIVATE of an AP)
        is a fresh sense, the second ACTIVATE of an AAP lands on the open
        row.  Entries are immutable and shared across executions; the
        energy fold over the trace is order-independent, so repeated
        extension with the same tuple is byte-equivalent to re-execution.
        """
        ckey = (plan.key, bank, subarray)
        cached = self._commands.get(ckey)
        if cached is not None:
            return cached
        issued = []
        for primitive in plan.program.primitives:
            if isinstance(primitive, AAP):
                issued.append(self._activate(primitive.addr1, bank, subarray, False))
                issued.append(self._activate(primitive.addr2, bank, subarray, True))
            else:
                issued.append(self._activate(primitive.addr, bank, subarray, False))
            issued.append(
                IssuedCommand(
                    Command(Opcode.PRECHARGE, bank=bank, subarray=subarray)
                )
            )
        commands = tuple(issued)
        self._commands[ckey] = commands
        return commands

    def _activate(
        self, address: int, bank: int, subarray: int, onto_open: bool
    ) -> IssuedCommand:
        return IssuedCommand(
            Command(Opcode.ACTIVATE, bank=bank, subarray=subarray, row=address),
            wordlines_raised=self._wordlines(address),
            onto_open_row=onto_open,
        )

    def _wordlines(self, address: int) -> int:
        """Wordlines an ACTIVATE to ``address`` raises (Table 1)."""
        if self._wordline_counts is None:
            self._wordline_counts = {
                addr: len(wordlines)
                for addr, wordlines in self.amap.b_group_wordlines().items()
            }
        return self._wordline_counts.get(address, 1)
