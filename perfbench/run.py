"""Repository benchmark: end-to-end workloads of the pysysc-ams
simulator with per-layer attribution from a traced run.

Run from the repository root::

    python3 perfbench/run.py --workload adsl_fig1 --seed 1 --seconds 10 --trace 0

Workloads: ``adsl_fig1``, ``refine_l2``, ``campaign_sweep``,
``service_jobs`` (see ``workloads.py``).  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see ``harness.py``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when any correctness gate fails, and when the
simulator's sources (``src/repro``) are not next to this directory.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent / "src"
WORKLOAD_NAMES = ("adsl_fig1", "refine_l2", "campaign_sweep",
                  "service_jobs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SOURCES / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found at {SOURCES}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(HERE)]
    import harness

    return harness.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
