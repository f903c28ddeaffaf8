"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload bulk-wide --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
records spans at every layer boundary and reports the per-layer
metrics, including the tracing overhead.  Each run prints a table of
every metric by name and unit, then, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in turn (one fresh process each)
and prints only their tables.

The metric names and units come from ``BENCHMARK.json``; the workloads,
why each was chosen, and which end-to-end metric every layer metric
should move are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from common import SRC, Result, disable_huge_pages, host_fingerprint, load_spec

WORKLOADS = ("serve-mixed", "bulk-wide", "bitserial-arith")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print()
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    huge_pages_off = disable_huge_pages()
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))

    result = Result(args.workload, args.seed, bool(args.trace))
    if args.workload == "serve-mixed":
        import serve_mixed

        serve_mixed.run(args.seed, args.seconds, bool(args.trace), result)
    else:
        import inprocess

        inprocess.run(inprocess.load(args.workload), args.seed, args.seconds,
                      bool(args.trace), result)
    return result.emit(spec, host_fingerprint(huge_pages_off))


if __name__ == "__main__":
    sys.exit(main())
