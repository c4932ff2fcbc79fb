"""chaninv benchmark: one run of one workload.

    python3 perfbench/run.py --workload {suite,invert,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; chaninv is imported from its ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--seconds``
defaults to ``run_seconds`` in ``BENCHMARK.json``. A full record
(provenance, digests, failed operations) goes to ``--results`` (default
``perfbench/out``). The exit code is 1 when an output was incorrect and 2
when the benchmark cannot run.
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(harness.DEFAULT_RESULTS), help="directory for run records")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            workdir = Path(args.results) / f"probe-{args.workload}-{time.time_ns()}"
            _, workload, seconds = harness.set_up(args.workload, args.seed, workdir)
            harness.close(workload)
            print(json.dumps({"setup_s": seconds}))
            return 0
        seconds = args.seconds if args.seconds is not None else harness.load_spec()["run_seconds"]
        result, record = harness.run_benchmark(args.workload, args.seed, seconds, args.trace, args.results)
    except harness.BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{result['attempted']} ops, {result['failed']} failed (failed_frac {record['failed_frac']:.4f})")
    for name, m in result["metrics"].items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for label in record["failed_ops"][:5]:
        print(f"  failed: {label}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
