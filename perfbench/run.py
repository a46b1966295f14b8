#!/usr/bin/env python3
"""The repository's benchmark: the scheduling service, batch sweeps and
durable sessions, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload rpc-schedule --seed 1 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``rpc-schedule``   -- closed-loop ``POST /schedule`` on ``repro serve``;
* ``sweep-many``     -- ``schedule_many`` + unpack over a 10k corpus;
* ``session-events`` -- closed-loop journaled session event streams.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload untraced and then traced, and prints the per-layer metrics
(plus the tracing overhead).  Lines before the last are a report of the
recipe, seed and per-phase operation counts; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("rpc-schedule", "sweep-many", "session-events")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_speed(seconds: float = 0.3) -> float:
    """Rounds per second of a fixed pure-Python loop.

    Not a metric: a record, kept in the report, of how fast the machine
    ran around this run.  On a shared host it moves by tens of percent
    over minutes, and every metric of the run moves with it.
    """
    rounds = 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        total = 0
        for i in range(10_000):
            total += i * i
        rounds += 1
    return rounds / (time.perf_counter() - t0)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import metrics

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    speed_before = machine_speed()
    try:
        if args.workload == "sweep-many":
            import sweep_many
            result = sweep_many.run(ROOT, workdir, args.seed, args.seconds,
                                    bool(args.trace))
        else:
            import service_workloads as service
            workload = (service.run_rpc if args.workload == "rpc-schedule"
                        else service.run_sessions)
            result = workload(ROOT, workdir, args.seed, args.seconds,
                              bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still there

    speed = {"before": speed_before, "after": machine_speed()}
    attempted, failed = result["attempted"], result["failed"]
    values = dict(result.pop("metrics"))
    if args.trace:
        values["failed_share"] = failed / attempted
        units = metrics.PER_LAYER
    else:
        units = metrics.END_TO_END
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine_rounds_per_s": speed, **result}
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics.render(values, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
