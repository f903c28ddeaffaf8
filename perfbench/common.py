"""Shared helpers of the benchmark: statistics, host fingerprint, results.

Nothing here imports the program under test, so the entry point can
check that the program exists before touching it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence

#: Root of the checkout the benchmark runs in (the directory holding
#: ``BENCHMARK.json``) and the program's source tree inside it.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch directory for span dumps and the determinism record.
OUT = ROOT / ".perfbench"


def now_ns() -> int:
    return time.perf_counter_ns()


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``0 <= q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def beyond(values: Sequence[float], q: float) -> int:
    """Samples strictly above the ``q`` quantile (the tail it rests on)."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def disable_huge_pages() -> bool:
    """Turn transparent huge pages off for this process and its children.

    Whether the kernel grants a huge page depends on the host's memory
    fragmentation at that moment; with one, every touched subarray of
    the default geometry costs 2 MiB of RSS instead of the rows touched,
    so ``peak_rss_mb`` (and the kernel's TLB behaviour) would measure
    the host, not the program.  Returns False where prctl is missing.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


PR_SET_THP_DISABLE = 41


def host_fingerprint(huge_pages_off: bool) -> Dict[str, Any]:
    """Cores, Python, numpy and CPU model, recorded with every result."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "huge_pages": "off" if huge_pages_off else "as configured",
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
    }


def source_digest() -> str:
    """Hash of the program's and the benchmark's sources: keys the
    determinism record, so a commit that changes the model or the
    workloads legitimately gets a fresh entry."""
    digest = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    files = [*(SRC / "repro").rglob("*.py"), *bench.glob("*.py"),
             ROOT / "BENCHMARK.json"]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_repeatable(workload: str, seed: int, counts: Dict[str, float]) -> List[str]:
    """Compare exact simulated counts with earlier runs of this commit.

    The first run of a (workload, seed, source digest) stores its counts
    under ``.perfbench/``; every later run must reproduce them exactly.
    Returns the mismatches (empty when the counts repeat).
    """
    OUT.mkdir(exist_ok=True)
    path = OUT / "deterministic.json"
    try:
        record = json.loads(path.read_text())
    except (OSError, ValueError):
        record = {}
    key = f"{workload}:{seed}:{source_digest()}"
    previous = record.get(key)
    if previous is None:
        record[key] = counts
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
        tmp.replace(path)
        return []
    return [
        f"{name}: {previous.get(name)} earlier, {value} now"
        for name, value in counts.items()
        if previous.get(name) != value
    ]


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Result:
    """What one run measured, checked and counted."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: why the run's figures do not measure the program, if they don't
        self.invalid: List[str] = []
        self.metrics: Dict[str, float] = {}
        #: per-layer metrics not on this workload's path, with the reason
        self.not_applicable: Dict[str, str] = {}
        self.notes: Dict[str, Any] = {}

    def fail(self, message: str) -> None:
        """Record a wrong, refused or failed operation."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def invalidate(self, reason: str) -> None:
        """Mark the run invalid: every output may be right, but the
        figures do not measure the program, so ``correct`` is false."""
        self.invalid.append(reason)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.invalid

    def n_a(self, names: Iterable[str], why: str) -> None:
        for name in names:
            self.not_applicable[name] = why

    def emit(self, spec: Dict[str, Any], host: Dict[str, Any]) -> int:
        """Print the human table, then the contract's JSON line.

        Returns the process exit code: 0 when every metric the contract
        asks for was measured, 1 otherwise (a benchmark defect).
        """
        section = "per_layer" if self.trace else "end_to_end"
        wanted = spec[section]
        print(f"# workload {self.workload}  seed {self.seed}  "
              f"{'traced' if self.trace else 'untraced'}")
        print("# host " + json.dumps(host, sort_keys=True))
        for key, value in sorted(self.notes.items()):
            print(f"# {key}: {value}")
        for problem in self.problems:
            print(f"# PROBLEM: {problem}")
        for reason in self.invalid:
            print(f"# INVALID RUN: {reason}")
            print(f"invalid run: {reason}", file=sys.stderr)
        if not self.trace and self.attempted:
            print(f"{'error_ratio':<46} {self.failed / self.attempted:>14.6g} "
                  f"fraction")
        metrics: Dict[str, Dict[str, Any]] = {}
        missing = []
        for entry in wanted:
            name = entry["name"]
            if name in self.metrics:
                value = float(self.metrics[name])
                print(f"{name:<46} {value:>14.6g} {entry['unit']}")
            elif name in self.not_applicable:
                value = 0.0
                print(f"{name:<46} {'n/a':>14} ({self.not_applicable[name]})")
            else:
                missing.append(name)
                continue
            metrics[name] = {"value": value, "unit": entry["unit"]}
        if missing:
            print(f"benchmark defect: metrics not measured: {missing}",
                  file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": self.correct,
            "attempted": int(max(1, self.attempted)),
            "failed": int(self.failed),
            "metrics": metrics,
        }))
        return 0
