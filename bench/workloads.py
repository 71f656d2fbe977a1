"""The three benchmark workloads, their output checks and their metrics.

Every workload is a closed loop in one process: a run or plan starts only
after the previous one finished. ``single-default`` and ``wide-eval`` call
``make_stream`` and ``run_sequence`` in process, as ``cli.execute_run`` does,
and group their runs into plans of a few seeds at jobs 1. ``plan-csv`` runs
whole ``entrocl`` plans through ``cli.main`` at ``--jobs 2`` and then
``entrocl verify``. The end-to-end figures are medians over the plans of one
run, measured with tracing off; ``--trace 1`` repeats the same seeds traced
and reports the per-layer figures.
"""

import functools
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field, replace
from itertools import cycle
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from calibrate import REFERENCE_S, STARTUP_REFERENCE_S, kernel_s, startup_s
from entrocl import cli, streams, training
from prepare import prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = ROOT / "tests" / "golden" / "accuracy_matrix_full_seed0.csv"
RUN_SPAN = "bench.run"
PLAN_SPAN = "bench.plan"
IN_PROCESS_ARM = "full"
# Kernel samples after each in-process run: a median over several rejects
# the single samples that a burst on the host slows down.
KERNELS_PER_RUN = 2
# One set-up probe per this many measured seconds, spread over the run so
# that the probes sample the machine's drift rather than one moment of it.
PROBE_EVERY_S = 2.5


@dataclass
class PlanRecord:
    """One plan of the closed loop; ``scaled`` times are at reference speed."""

    seconds: float = 0.0
    scaled_seconds: float = 0.0
    steps: int = 0
    digests: list = field(default_factory=list)
    run_seconds: list = field(default_factory=list)  # scaled
    attempted: int = 0
    done: int = 0

    @property
    def complete(self):
        return self.done == self.attempted


@dataclass(frozen=True)
class Workload:
    flags: tuple
    seeds_per_plan: int
    in_process: bool


WORKLOADS = {
    # Default sizes: the matrices are tiny, so cost follows the number of
    # numpy operations per step (tape, forward, loss, Adam).
    "single-default": Workload((), 4, True),
    # BLAS-bound matmuls and 10k-row evaluation forwards; 50 reservoir writes
    # against 16 reads per step. The control for per-operation savings.
    "wide-eval": Workload(
        (
            "--input-dim", "256", "--widths", "256,256,256,256",
            "--batch-size", "50", "--buffer-batch-size", "16",
            "--buffer-capacity", "2000", "--test-per-class", "1000",
        ),
        2,
        True,
    ),
    # How sweeps run: 4 arms x 2 seeds through the process pool, CSV input,
    # artifacts on, then verify.
    "plan-csv": Workload(
        ("--stream", "csv", "--arms", ",".join(cli.ARM_NAMES), "--jobs", "2"), 2, False
    ),
}


class RunClock:
    """Times each pool run of a plan from inside its worker.

    A wrapper around ``cli.execute_run``, which the forked pool workers
    inherit, records per run the wall time of the run (CSV parsing, training
    and artifact writing), then the calibration kernel's time in the same
    worker, and the worker's peak RSS in KiB: one JSON line per run.
    """

    def __init__(self, folder):
        self.folder = Path(folder)
        self.folder.mkdir()
        self.original = None

    def install(self):
        self.original = original = cli.execute_run
        folder = self.folder

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = perf_counter()
            out = original(*args, **kwargs)
            seconds = perf_counter() - start
            record = [seconds, kernel_s(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]
            with open(folder / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            return out

        cli.execute_run = timed

    def uninstall(self):
        if self.original:
            cli.execute_run = self.original
            self.original = None

    def take(self):
        """The records written since the last call; deletes them."""
        records = []
        for path in sorted(self.folder.iterdir()):
            records += [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
        return records


class Checks:
    """Output and count checks; any failure fails the benchmark."""

    def __init__(self):
        self.failures = []

    def expect(self, ok, what):
        print(f"check {'ok' if ok else 'FAILED'}: {what}")
        if not ok:
            self.failures.append(what)

    def same_per_key(self, pairs, what):
        """Every value recorded under one key must be identical."""
        seen = {}
        for key, value in pairs:
            seen.setdefault(key, []).append(value)
        repeats = sum(len(v) - 1 for v in seen.values())
        differing = [key for key, vals in seen.items() if any(v != vals[0] for v in vals)]
        self.expect(
            repeats > 0 and not differing,
            f"{what} identical across {repeats} repetitions of {len(seen)} keys"
            + (f"; differ for {differing[0]}: {seen[differing[0]]}" if differing else ""),
        )


def artifact_digest(folder):
    """SHA-256 of every file under ``folder``; summary.json minus its wall time."""
    folder = Path(folder)
    h = hashlib.sha256()
    for path in sorted(p for p in folder.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            summary = json.loads(data)
            summary.pop("runtime_seconds")
            data = json.dumps(summary, sort_keys=True).encode()
        h.update(str(path.relative_to(folder)).encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def environment(jobs):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "jobs": jobs,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Bench:
    def __init__(self, name, seed, seconds, work):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seconds = seconds
        self.work = work
        rng = random.Random(seed)
        self.seeds = rng.sample(range(1, 10**6), self.workload.seeds_per_plan)
        self.data_seed = rng.randrange(10**6)
        self.checks = Checks()
        self.tracer = None
        self.clock = RunClock(work / "run-clock") if not self.workload.in_process else None
        self.failed = 0
        self.warm_up = []
        self.worker_rss_kb = 0

    def flags(self):
        flags = list(self.workload.flags)
        if not self.workload.in_process:
            flags += ["--csv-path", str(self.work / "csv")]
        return flags

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    # -- one unit of work -------------------------------------------------

    def one_run(self, plan, seed):
        """One run in process; returns (seconds, steps, artifact digest, accuracy matrix CSV)."""
        cfg = replace(cli.apply_arm(plan.run_config, IN_PROCESS_ARM), seed=seed)
        stream_cfg = replace(plan.stream_config, seed=seed)
        with self.span(RUN_SPAN):
            start = perf_counter()
            tasks = streams.make_stream(stream_cfg)
            result = training.run_sequence(tasks, cfg)
            run_s = perf_counter() - start
        folder = self.work / "run"
        training.write_run_artifacts(
            folder, cfg, result, {"arm": IN_PROCESS_ARM, "stream_config": stream_cfg.to_dict()}
        )
        matrix = (folder / "accuracy_matrix.csv").read_bytes()
        digest = artifact_digest(folder)
        shutil.rmtree(folder)
        return run_s, len(result.telemetry), digest, matrix

    def one_plan(self, plan):
        """One plan plus verify; returns (seconds, steps, digest, run clock records, runs done)."""
        out = self.work / "plan"
        argv = self.flags() + ["--seeds", ",".join(map(str, self.seeds)), "--out", str(out)]
        with self.span(PLAN_SPAN):
            start = perf_counter()
            code = cli.main(argv)
        with redirect_stdout(io.StringIO()):
            verified = cli.main(["verify", "--out", str(out)])
        plan_s = perf_counter() - start
        runs = self.clock.take()
        done = len(list(out.glob("*/*/summary.json")))
        layers = len(plan.run_config.widths)
        steps = 0
        for path in out.glob("*/*/telemetry.csv"):
            with open(path, encoding="utf-8") as fh:
                steps += (sum(1 for _ in fh) - 1) // layers
        self.checks.expect(code == 0 and verified == 0, f"plan exit {code}, verify exit {verified}")
        digest = artifact_digest(out)
        shutil.rmtree(out)
        return plan_s, steps, digest, runs, done

    # -- closed loops -----------------------------------------------------

    def loop(self, plan, schedule, budget=None, probes=None):
        """Plans back to back; with a budget of measured seconds, stop at the
        plan boundary nearest it, after at least two plans so that every seed
        repeats. With a ``probes`` list, time a set-up probe into it once per
        ``PROBE_EVERY_S`` measured, between units.

        A plan and its runs are scaled by ``REFERENCE_S`` over the median
        time of the calibration kernel taken where the plan's work ran: in
        process, ``KERNELS_PER_RUN`` samples after each run, plus those just
        before the plan; in a pool, one sample in the worker after each run.
        """
        schedule = iter(schedule)
        per_plan = len(self.seeds)
        records = []
        measured = owed_probes = 0.0
        kernels = [kernel_s() for _ in range(KERNELS_PER_RUN)] if self.workload.in_process else []

        while True:
            if budget is not None and len(records) >= 2:
                if measured + records[-1].seconds / 2 >= budget:
                    break
            seeds = [next(schedule, None) for _ in range(per_plan)]
            if seeds[0] is None:
                break
            if self.workload.in_process:
                record = PlanRecord(attempted=per_plan)
                kernels = kernels[-KERNELS_PER_RUN:]
                for seed in seeds:
                    try:
                        run_s, steps, digest, _ = self.one_run(plan, seed)
                    except Exception:  # noqa: BLE001 - count it and keep measuring
                        traceback.print_exc()
                        self.failed += 1
                        record.digests.append((seed, None))
                        continue
                    kernels += [kernel_s() for _ in range(KERNELS_PER_RUN)]
                    record.seconds += run_s
                    record.run_seconds.append(run_s)
                    record.steps += steps
                    record.done += 1
                    record.digests.append((seed, digest))
            else:
                plan_s, steps, digest, runs, done = self.one_plan(plan)
                kernels = [kernel for _, kernel, _ in runs] or [REFERENCE_S]
                self.worker_rss_kb = max([self.worker_rss_kb] + [rss for _, _, rss in runs])
                record = PlanRecord(
                    seconds=plan_s,
                    steps=steps,
                    digests=[("plan", digest)],
                    run_seconds=[run_s for run_s, _, _ in runs],
                    attempted=len(plan.arms) * per_plan,
                    done=done,
                )
                self.failed += record.attempted - done
            scale = REFERENCE_S / statistics.median(kernels)
            record.scaled_seconds = record.seconds * scale
            record.run_seconds = [run_s * scale for run_s in record.run_seconds]
            records.append(record)
            measured += record.seconds
            if probes is not None:
                owed_probes += record.seconds / PROBE_EVERY_S
                while owed_probes >= 1:
                    probes.append(self.setup_probe())
                    owed_probes -= 1
        return records

    # -- the two modes ----------------------------------------------------

    def start(self):
        """Make inputs, run the checks that sit outside the timed region, warm up."""
        plan = prepare(self.flags(), self.data_seed)
        print("env " + json.dumps(environment(plan.jobs), sort_keys=True))
        if self.name == "single-default":
            _, _, _, matrix = self.one_run(plan, 0)
            self.checks.expect(
                matrix == GOLDEN.read_bytes(), f"seed 0 reproduces {GOLDEN.relative_to(ROOT)}"
            )
        elif self.workload.in_process:
            _, _, digest, _ = self.one_run(plan, self.seeds[0])
            self.warm_up = [(self.seeds[0], digest)]
        return plan

    def install(self, tracer=None):
        """Install the run clock and, if given, the tracer inside it, so that
        the clock's kernel stays out of the traced ``cli.execute_run`` span."""
        self.uninstall()
        self.tracer = tracer
        for wrapper in (tracer, self.clock):
            if wrapper:
                wrapper.install()

    def uninstall(self):
        for wrapper in (self.clock, self.tracer):
            if wrapper:
                wrapper.uninstall()

    def measure(self):
        plan = self.start()
        probes = []
        self.install()
        try:
            records = self.loop(plan, cycle(self.seeds), self.seconds, probes)
        finally:
            self.uninstall()
        self.check_repeats(records)

        done = [r for r in records if r.complete]
        plan_s = statistics.median(r.scaled_seconds for r in done)
        attempted = sum(r.attempted for r in records)
        per_plan = done[0].attempted
        metrics = {
            "setup_s": (
                statistics.median(p for p, _ in probes)
                * STARTUP_REFERENCE_S
                / statistics.median(r for _, r in probes),
                "s",
            ),
            "runs_per_s": (per_plan / plan_s, "1/s"),
            "steps_per_s": (statistics.median(r.steps for r in done) / plan_s, "1/s"),
            "run_s_p50": (statistics.median(s for r in done for s in r.run_seconds), "s"),
            "plan_s": (plan_s, "s"),
            "peak_rss_mb": (
                (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + self.worker_rss_kb) / 1024,
                "MB",
            ),
            "completed_run_share": ((attempted - self.failed) / attempted, "share"),
        }
        raw = statistics.median(r.seconds for r in done)
        raw_setup = statistics.median(p for p, _ in probes)
        print(
            f"{len(records)} plans of {per_plan} runs; unscaled plan_s median {raw:.4f} s;"
            f" {len(probes)} set-up probes, unscaled setup_s median {raw_setup:.4f} s"
        )
        return attempted, metrics

    def measure_traced(self):
        plan = self.start()
        self.install()
        try:
            plain = self.loop(plan, cycle(self.seeds), self.seconds / 2)
            if self.workload.in_process:
                schedule = [seed for r in plain for seed, _ in r.digests]
            else:
                schedule = self.seeds * len(plain)
            self.install(spans.Tracer(self.work / "spans"))
            start = perf_counter()
            traced = self.loop(plan, schedule)
            wall = perf_counter() - start
        finally:
            self.uninstall()
        groups = self.tracer.collect()
        self.check_repeats(plain + traced)
        self.checks.expect(
            [r.digests for r in plain] == [r.digests for r in traced],
            f"traced outputs equal untraced outputs over {len(traced)} plans",
        )

        runs = sum(r.done for r in traced)
        steps = sum(r.steps for r in traced)
        if self.workload.in_process:
            metrics = spans.layer_metrics(groups, runs, steps, 1, wall, RUN_SPAN)
            per_run = self.per_run_counts_in_process(groups[0], schedule)
        else:
            plan_wall = sum(s[2] - s[1] for s in groups[0] if s[0] == PLAN_SPAN)
            metrics = spans.layer_metrics(
                groups, runs, steps, plan.jobs, plan_wall, spans.ROOT_SPAN
            )
            per_run = [(tuple(g[0][4]), spans.run_counts(g)) for g in groups[1:]]
        self.checks.same_per_key(per_run, "tape nodes, rows, bytes and reservoir accepts")

        plain_s = sum(r.scaled_seconds for r in plain)
        overhead = sum(r.scaled_seconds for r in traced) - plain_s
        metrics["bench.trace_overhead_share"] = (overhead / plain_s, "share")
        metrics["bench.trace_overhead_us_per_step"] = (overhead / steps * 1e6, "us")
        self.check_accounting(metrics, runs / steps)
        return sum(r.attempted for r in plain + traced), metrics

    # -- checks -----------------------------------------------------------

    def check_repeats(self, records):
        pairs = self.warm_up + [pair for r in records for pair in r.digests if pair[1] is not None]
        what = "report.csv and run artifacts" if not self.workload.in_process else "run artifacts"
        self.checks.same_per_key(pairs, what)

    def per_run_counts_in_process(self, own, schedule):
        """Split the parent's spans at each run span; counts keyed by seed."""
        starts = [i for i, s in enumerate(own) if s[0] == RUN_SPAN] + [len(own)]
        return [
            (seed, spans.run_counts(own[lo:hi]))
            for seed, lo, hi in zip(schedule, starts, starts[1:])
        ]

    def check_accounting(self, metrics, runs_per_step):
        """run_task = its per-step children + its self time + boundary work.

        ``training.step_self_us`` is run_task minus its direct wrapped
        children, so this is a structural identity: it holds up to rounding
        whenever every step layer and the boundary work nest directly in
        run_task, and fails when a wrapped call moves out of run_task or a
        span is counted twice. It does not bound untraced time.
        """
        parts = (
            "tensor.backward_us_per_step",
            "model.forward_train_us_per_step",
            "modulation.composite_loss_us_per_step",
            "training.adam_us_per_step",
            "buffers.sample_us_per_step",
            "buffers.extend_us_per_step",
            "training.step_self_us",
        )
        accounted = sum(metrics[p][0] for p in parts)
        accounted += metrics["training.boundary_ms_per_run"][0] * 1e3 * runs_per_step
        run_task = metrics["training.run_task_us_per_step"][0]
        gap = run_task - accounted
        self.checks.expect(
            abs(gap) <= 1e-9 * run_task,
            f"step layers + self time + boundary work = run_task span, a structural identity"
            f" (gap {gap:.3g} us/step)",
        )

    # -- set-up -----------------------------------------------------------

    def setup_probe(self):
        """Wall times of prepare.py in a fresh interpreter and of the reference
        start-up just before it."""
        flags = [f.replace(str(self.work / "csv"), str(self.work / "probe-csv")) for f in self.flags()]
        cmd = [sys.executable, str(BENCH / "prepare.py"), str(self.data_seed), "--", *flags]
        reference = startup_s()
        start = perf_counter()
        subprocess.run(cmd, check=True)
        return perf_counter() - start, reference


def run_workload(name, seed, seconds, trace):
    """Measure one workload; print the report and return the result object."""
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(name, seed, seconds, work)
        attempted, metrics = bench.measure_traced() if trace else bench.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for metric, (value, unit) in metrics.items():
        print(f"{name} {metric} = {value:.6g} {unit}")
    return {
        "correct": not bench.checks.failures and bench.failed == 0,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
