"""entrocl benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload for about S seconds and prints, as its last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` measures every workload in turn, each in
its own process. The exit code is non-zero when any output or count check
fails. See bench/README.md for the workloads and the metric definitions.
"""

import os

# One BLAS thread per process: plan-csv runs 2 workers on 2 cores, so
# jobs x BLAS threads <= nproc. It must be set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from prepare import import_entrocl  # noqa: E402

WORKLOAD_NAMES = ("single-default", "wide-eval", "plan-csv")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args):
    """Each workload in a fresh process; non-zero if any of them fails."""
    failed = []
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        print(f"== {name}", flush=True)
        if subprocess.run(cmd).returncode != 0:
            failed.append(name)
    print(f"== failed: {', '.join(failed)}" if failed else "== all workloads passed their checks")
    return 1 if failed else 0


def main(argv=None):
    args = parse_args(argv)
    if args.seconds < 1:
        sys.exit("error: --seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    try:
        import_entrocl()
    except ImportError as exc:
        sys.exit(f"error: cannot import entrocl from this checkout: {exc}")
    from workloads import run_workload

    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
