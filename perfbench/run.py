"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload offline-batch --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/README.md``).  Every metric is printed as
``name = value unit``, then one ``provenance`` JSON line, and, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.  The
program is imported from the checkout's ``src``; without it the run
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("offline-batch", "offline-lsh", "routed-rw")


def report(args, result) -> list:
    """The output lines: one per metric, provenance, then the result."""
    from perfbench import common, workloads

    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = set(units) - set(result.metrics)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    lines = [f"{name} = {result.metrics[name]:.6g} {unit}" for name, unit in units.items()]
    if not args.trace:
        raw = result.details["raw"]
        lines += [f"{name} = {raw[name]:.6g} {unit} (as measured, unbounded)"
                  for name, unit in workloads.RAW.items()]
    details = {**common.provenance(), **result.details,
               "workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    lines.append("provenance " + json.dumps(details, sort_keys=True))
    lines.append(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(result.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from perfbench import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report(args, result):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
