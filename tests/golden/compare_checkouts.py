"""Run the same plans through two checkouts' CLIs, verify their output and diff their
artifacts byte for byte.

    python3 tests/golden/compare_checkouts.py PARENT CHANGE

PARENT and CHANGE are repository roots, for example a clean copy of the parent
commit and the working tree. Each plan runs as ``python -m entrocl.cli`` with
``PYTHONPATH`` set to that checkout's ``src`` and one BLAS thread. The plans
hold 39 runs: the four arms on seeds 0 and 1 at ``--jobs 2``; ``--arms
plain_er,no_entropy_scaling`` on seeds 0 and 1 at ``--jobs 2``, whose first
run is plain ER's, so verify must render its manifest's beta of 0 from a
``plan.json`` whose beta is 0.005; one run each
with ``--entropy-sign signed``, ``--widths 8,16,4``, the
benchmark's wide-eval shape, ``--buffer-capacity 5`` (each 10-example offer
fills or overwrites the reservoir in one call, drawing repeated slots) and
``--buffer-batch-size 0`` (every replay sample is empty); ``--test-per-class
700`` on seeds 0 and 1, whose 1400-row test splits are scored in more than one
block of rows; ``--test-per-class 800`` on seeds 0 and 1, whose 1600-row test
splits lie past the size (about 1562 rows for a 64-wide, 10-class head) where a
whole-split forward would take OpenBLAS's blocked kernel instead of its
small-matrix one, so scoring bits that followed the split size would show
there; ``--num-tasks 3 --batch-size 7`` on seeds 0 and 1, whose 1000-example
tasks end in a partial batch of 6, a telemetry shape with T = 3 that no other
plan writes; ``--stream csv`` on
a seeded CSV stream whose rows come in shuffled class order, as the four arms
on seeds 0 and 1 at ``--jobs 2`` (the process pool) and on seeds 0 and 1 at
``--jobs 1`` (in process); and ``--stream idx`` on a seeded IDX image/label pair, on seeds 0
and 1 in process and as ``full`` and ``plain_er`` on seeds 0 and 1 at ``--jobs
2`` (the pool), whose per-class split follows the seed. Both streams are written once
for both checkouts. Every one of these plans must exit 0. Two more plans fail
on purpose: ``--lr 1e300`` on ``full`` and ``plain_er`` over seeds 0 and 1
makes all 8 runs diverge, at ``--jobs 2`` and at ``--jobs 1``. They must
exit 1. After each plan, ``python -m entrocl.cli verify`` runs on its output
in the same checkout; every plan that must exit 0 must also verify with exit
0, so the real CLI's layouts (the pool, csv, idx, odd widths, a 5-slot
reservoir, wide-eval) are checked to verify. Every plan that must exit 0 then
reruns in the same checkout as ``--config OUT/plan.json --out OUT2`` from another
working directory than the plan's, and must exit 0 and write the same files as the
plan did (``summary.json`` less its wall time): a recorded plan reruns from
anywhere. A checkout whose ``plan.json`` records the stream paths as given fails
this step on the csv, csv-serial, idx and idx-pool plans, whose relative stream
paths do not resolve from there. For every plan, the exit codes and
the ``error:`` lines on stderr of both the plan and its verify are compared,
each checkout's output directory in verify's lines read as ``OUT``. Every file
of every plan is compared
byte for byte (``report.csv`` included), ``summary.json`` less its wall-clock
``runtime_seconds``. Both CLIs' ``--help`` output, printed with ``COLUMNS=80``,
is compared too. Exits 0 when all match; otherwise prints each differing or
missing file and exits 1.
"""

import argparse
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

WIDE_EVAL = (
    "--input-dim", "256", "--widths", "256,256,256,256",
    "--batch-size", "50", "--buffer-batch-size", "16",
    "--buffer-capacity", "2000", "--test-per-class", "1000",
)
ALL_ARMS = "full,no_entropy_scaling,no_adaptive_training,plain_er"
CSV_STREAM = "csv_stream"  # the streams are written under the plans' working directory
IDX_IMAGES, IDX_LABELS = "images.idx", "labels.idx"
DIVERGE = ("--lr", "1e300", "--arms", "full,plain_er", "--seeds", "0,1")  # every run fails
PLANS = {
    "arms": ("--arms", ALL_ARMS, "--seeds", "0,1", "--jobs", "2"),
    "plain-first": ("--arms", "plain_er,no_entropy_scaling", "--seeds", "0,1", "--jobs", "2"),
    "signed": ("--entropy-sign", "signed"),
    "widths": ("--widths", "8,16,4"),
    "wide-eval": WIDE_EVAL,
    "capacity-5": ("--buffer-capacity", "5"),
    "no-replay": ("--buffer-batch-size", "0"),
    "multi-block": ("--test-per-class", "700", "--seeds", "0,1"),
    "blas-switch": ("--test-per-class", "800", "--seeds", "0,1"),
    "tasks-3-batch-7": ("--num-tasks", "3", "--batch-size", "7", "--seeds", "0,1"),
    "csv": ("--stream", "csv", "--csv-path", CSV_STREAM, "--arms", ALL_ARMS,
            "--seeds", "0,1", "--jobs", "2"),
    "csv-serial": ("--stream", "csv", "--csv-path", CSV_STREAM, "--seeds", "0,1", "--jobs", "1"),
    "idx": ("--stream", "idx", "--idx-images", IDX_IMAGES, "--idx-labels", IDX_LABELS,
            "--seeds", "0,1"),
    "idx-pool": ("--stream", "idx", "--idx-images", IDX_IMAGES, "--idx-labels", IDX_LABELS,
                 "--arms", "full,plain_er", "--seeds", "0,1", "--jobs", "2"),
    "diverge": DIVERGE + ("--jobs", "2"),
    "diverge-serial": DIVERGE + ("--jobs", "1"),
}
# the exit code each plan must give; every other plan must exit 0
EXIT_CODES = {"diverge": 1, "diverge-serial": 1}


def write_csv_stream(folder, classes=10, dim=16, seed=0):
    """Seeded Gaussian blobs as train.csv/test.csv, the rows in shuffled class order."""
    rng = np.random.default_rng(seed)
    means = 3.0 / np.sqrt(dim) * rng.standard_normal((classes, dim))
    folder.mkdir()
    for name, per_class in (("train.csv", 100), ("test.csv", 20)):
        labels = rng.permutation(np.repeat(np.arange(classes), per_class))
        inputs = means[labels] + rng.standard_normal((len(labels), dim))
        lines = ["label," + ",".join(f"f{i}" for i in range(dim))]
        for y, x in zip(labels.tolist(), inputs.tolist()):
            lines.append(f"{y}," + ",".join(map(repr, x)))
        (folder / name).write_text("\n".join(lines) + "\n")


def write_idx_pair(folder, classes=10, per_class=60, side=4, seed=0):
    """Seeded uint8 images around one mean per class, in shuffled class order,
    as an IDX image file and an IDX label file."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(40, 215, size=(classes, side, side))
    labels = rng.permutation(np.repeat(np.arange(classes), per_class))
    images = np.clip(means[labels] + 30 * rng.standard_normal((len(labels), side, side)), 0, 255)
    (folder / IDX_IMAGES).write_bytes(
        struct.pack(">IIII", 0x00000803, len(labels), side, side) + images.astype(np.uint8).tobytes()
    )
    (folder / IDX_LABELS).write_bytes(
        struct.pack(">II", 0x00000801, len(labels)) + labels.astype(np.uint8).tobytes()
    )


def checkout_env(root):
    """The environment that imports entrocl from ``root/src``, checked by importing it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    where = subprocess.run(
        [sys.executable, "-c", "import entrocl; print(entrocl.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(root):
        sys.exit(f"error: entrocl imported from {where}, not from {root / 'src'}")
    return env


def help_text(env):
    """The CLI's ``--help`` output at a fixed terminal width."""
    return subprocess.run(
        [sys.executable, "-m", "entrocl.cli", "--help"],
        env=dict(env, COLUMNS="80"), capture_output=True, text=True, check=True,
    ).stdout


def run_cli(args, env, cwd):
    """The CLI's exit code, its stderr and the ``error:`` lines in it."""
    done = subprocess.run([sys.executable, "-m", "entrocl.cli", *args],
                          env=env, cwd=cwd, capture_output=True, text=True)
    errors = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    return done.returncode, done.stderr, errors


def comparable(path):
    """The bytes to compare: the file, or summary.json without its wall time."""
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        summary.pop("runtime_seconds", None)
        data = json.dumps(summary, sort_keys=True).encode()
    return data


def diff_trees(left, right):
    """Relative paths of files that differ or exist on one side only, and the files compared."""
    files = {
        str(path.relative_to(root))
        for root in (left, right)
        for path in root.rglob("*")
        if path.is_file()
    }
    differing = []
    for name in sorted(files):
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()) or comparable(a) != comparable(b):
            differing.append(name)
    return differing, len(files)


def rerun_differs(plan, label, out, env, tmp):
    """Whether rerunning ``out/plan.json`` from a directory other than the plan's
    working directory fails or writes other files than the plan did; prints why."""
    elsewhere = tmp / label
    elsewhere.mkdir(exist_ok=True)
    rerun = elsewhere / f"{plan}.rerun"
    code, stderr, _ = run_cli(["--config", str(out / "plan.json"), "--out", str(rerun)],
                              env, elsewhere)
    if code != 0:
        print(f"{plan}: the {label} CLI's rerun from plan.json exited {code}:\n{stderr}")
        return True
    differing, _ = diff_trees(out, rerun)
    for name in differing:
        print(f"{plan}: the {label} CLI's rerun from plan.json: {name} differs")
    return bool(differing)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for label, root in checkouts.items():
        if not (root / "src" / "entrocl").is_dir():
            parser.error(f"{label}: {root} has no src/entrocl")
    envs = {label: checkout_env(root) for label, root in checkouts.items()}

    failed = help_text(envs["parent"]) != help_text(envs["change"])
    print(f"--help: {'differs' if failed else 'identical'}")
    with tempfile.TemporaryDirectory(prefix="entrocl_compare_") as tmp:
        write_csv_stream(Path(tmp) / CSV_STREAM)
        write_idx_pair(Path(tmp))
        for plan, flags in PLANS.items():
            outs, outcomes = {}, {}
            for label, env in envs.items():
                outs[label] = Path(tmp) / label / plan
                code, stderr, errors = run_cli([*flags, "--out", str(outs[label])], env, tmp)
                if code != EXIT_CODES.get(plan, 0):
                    print(f"{plan}: the {label} CLI exited {code}:\n{stderr}")
                    failed = True
                verified, stderr, verify_errors = run_cli(["verify", "--out", str(outs[label])],
                                                          env, tmp)
                if plan not in EXIT_CODES and verified != 0:
                    print(f"{plan}: the {label} CLI's verify exited {verified}:\n{stderr}")
                    failed = True
                verify_errors = [line.replace(str(outs[label]), "OUT") for line in verify_errors]
                outcomes[label] = (code, errors, verified, verify_errors)
                if plan not in EXIT_CODES:
                    failed = rerun_differs(plan, label, outs[label], env, Path(tmp)) or failed
            if outcomes["parent"] != outcomes["change"]:
                print(f"{plan}: exit codes or error lines differ")
                for label, (code, errors, verified, verify_errors) in outcomes.items():
                    print("\n".join([f"  {label} exited {code}", *errors,
                                     f"  {label}'s verify exited {verified}", *verify_errors]))
                failed = True
            differing, compared = diff_trees(outs["parent"], outs["change"])
            runs = len(list(outs["parent"].rglob("summary.json")))
            for name in differing:
                print(f"{plan}: {name} differs")
            failed = failed or bool(differing)
            status = f"{len(differing)} differ" if differing else "all identical"
            _, errors, verified, _ = outcomes["parent"]
            print(f"{plan}: {runs} run(s), {compared} files, {len(errors)} error line(s), "
                  f"verify exit {verified}, {status}")
    print("DIFFERENT" if failed else "IDENTICAL")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
