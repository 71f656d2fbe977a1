"""Experiment front door: seeded runs, ablation arms, aggregate report.

``entrocl`` records a plan in ``out/plan.json``, the ``--config`` file that
reproduces it, before any run, runs every (arm, seed) pair of it, writes per-run
artifacts under ``out/<arm>/<seed>/`` and, once every run completed, an aggregate
``report.csv``; ``entrocl verify --out DIR`` builds the plan from ``plan.json`` with
the same parser, requires exactly the plan's run directories, renders each run's
files (``training.RUN_ARTIFACTS``) and the report again from the plan and the values
the run's files hold, and accepts only those bytes.
"""

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import metrics, training
from .errors import ConfigError, FormatError
from .model import scoring_threads
from .modulation import ENTROPY_SIGNS
from .streams import STREAM_SOURCES, StreamConfig, load_source, make_stream
from .training import RunConfig

# The switches each ablation arm sets on the base config; plain ER also drops beta.
ARMS = {
    "full": dict(enable_entropy_scaling=True, enable_adaptive_training=True),
    "no_entropy_scaling": dict(enable_entropy_scaling=False, enable_adaptive_training=True),
    "no_adaptive_training": dict(enable_entropy_scaling=True, enable_adaptive_training=False),
    "plain_er": dict(enable_entropy_scaling=False, enable_adaptive_training=False, beta=0.0),
}
ARM_NAMES = tuple(ARMS)

# (flag, config field, help) for each setting a plan passes to every run. A
# flag's default and type are the field's default and its type, its choices the
# tuple that validates the field; seed and the two arm switches have no flag.
STREAM_FLAGS = (
    ("--stream", "source", "task stream source"),
    ("--idx-images", "idx_images", "IDX image file (idx source)"),
    ("--idx-labels", "idx_labels", "IDX label file (idx source)"),
    ("--csv-path", "csv_path", "directory holding train.csv/test.csv (csv source)"),
    ("--num-tasks", "num_tasks", "tasks in the stream"),
    ("--classes-per-task", "classes_per_task", "classes introduced per task"),
    ("--train-per-class", "train_per_class", "synthetic training examples per class"),
    ("--test-per-class", "test_per_class", "synthetic test examples per class"),
    ("--input-dim", "input_dim", "synthetic input dimension"),
    ("--noise-scale", "noise_scale", "synthetic within-class noise scale"),
    ("--separation", "separation", "synthetic class-mean scale"),
)
RUN_FLAGS = (
    ("--beta", "beta", "entropy regularizer scale"),
    ("--lr", "learning_rate", "learning rate"),
    ("--wd", "weight_decay", "decoupled weight decay"),
    ("--batch-size", "batch_size", "current-task batch size"),
    ("--buffer-batch-size", "buffer_batch_size", "replay examples mixed into every step"),
    ("--buffer-capacity", "buffer_capacity", "replay buffer capacity M"),
    ("--val-quota", "val_quota", "validation examples stored per task"),
    ("--entropy-sign", "entropy_sign", "add or subtract the entropy term in the loss"),
    ("--widths", "widths", "comma-separated block widths"),
)
FIELD_CHOICES = {"source": STREAM_SOURCES, "entropy_sign": ENTROPY_SIGNS}

REPORT_METRICS = ("acc_final", "bwt", "average_forgetting", "entropy_spread_final")


@dataclass
class ExperimentPlan:
    run_config: RunConfig
    stream_config: StreamConfig
    seeds: tuple
    arms: tuple
    out: Path
    jobs: int = 1


def apply_arm(cfg, arm):
    """Realize an ablation arm by setting its switches on ``cfg``."""
    if arm not in ARMS:
        raise ConfigError(f"unknown arm {arm!r}")
    return replace(cfg, **ARMS[arm])


def parse_seeds(text):
    """Accept '7', '0,3,9' or inclusive ranges like '0..19'."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = tuple(range(int(lo), int(hi) + 1))
        else:
            seeds = tuple(map(int, text.split(","))) if text else ()
    except ValueError:
        raise ConfigError(f"--seeds: not an integer list or range: {text!r}") from None
    if not seeds:
        raise ConfigError(f"no seeds in {text!r}")
    if min(seeds) < 0:
        raise ConfigError(f"--seeds: seeds must be nonnegative, got {text!r}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"seeds must be distinct, got {text!r}")
    return seeds


def parse_arms(text):
    arms = tuple(part.strip() for part in text.split(",")) if text.strip() else ()
    if not arms:
        raise ConfigError("at least one arm is required")
    for arm in arms:
        if arm not in ARM_NAMES:
            raise ConfigError(f"--arms: unknown arm {arm!r} in {text!r}; choose from {ARM_NAMES}")
    if len(set(arms)) != len(arms):
        raise ConfigError(f"arms must be distinct, got {text!r}")
    return arms


def parse_widths(text):
    try:
        widths = tuple(map(int, text.split(","))) if text else ()
    except ValueError:
        raise ConfigError(f"--widths: not a comma-separated integer list: {text!r}") from None
    if not widths:
        raise ConfigError(f"no widths in {text!r}")
    return widths


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entrocl",
        description="Layer-wise entropy-adaptive continual-learning experiments.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        exit_on_error=False,
    )
    parser.add_argument("--config", type=str, default=None,
                        help="JSON config file; flags override its values")
    for rows, config in ((STREAM_FLAGS, StreamConfig()), (RUN_FLAGS, RunConfig())):
        for flag, field, help_text in rows:
            default = getattr(config, field)
            if field == "widths":  # a string, so that parse_widths reports a bad list
                default = ",".join(map(str, default))
            parser.add_argument(flag, type=type(default), default=default,
                                choices=FIELD_CHOICES.get(field), help=help_text)
    parser.add_argument("--seeds", type=str, default="0",
                        help="seed list: '3', '0,1,2' or '0..9'")
    parser.add_argument("--arms", type=str, default="full",
                        help=f"comma-separated subset of {','.join(ARM_NAMES)}")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers over (arm, seed) runs")
    parser.add_argument("--out", type=str, default="output",
                        help="output directory")
    return parser


def _load_json_object(path):
    """The JSON object in the file at ``path``, a ``--config`` file or a run's JSON
    artifact; ConfigError naming the file otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at byte {exc.start}") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nests too deeply") from None
    except ValueError as exc:  # an integer of more digits than int() converts
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: not a JSON object")
    return value


def parse_args(argv):
    parser = build_parser()
    # Pre-scan for --config: the file's values, each parsed as its flag would parse
    # it, make the namespace that the command line's flags then override.
    probe, _ = parser.parse_known_args(argv)
    namespace = None
    if probe.config:
        known = {action.dest for action in parser._actions} - {"config", "help"}
        file_argv = []
        for key, value in _load_json_object(probe.config).items():
            dest = key.replace("-", "_")
            if dest not in known:
                raise ConfigError(f"{probe.config}: unknown config key {key!r}")
            # the text the flag would carry, a list's items joined by commas
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            file_argv.append(f"--{dest.replace('_', '-')}={text}")
        try:
            namespace = parser.parse_args(file_argv)
        except argparse.ArgumentError as exc:
            raise ConfigError(f"{probe.config}: {exc}") from None
    args = parser.parse_args(argv, namespace)

    values = dict(vars(args), widths=parse_widths(args.widths))
    run_config, stream_config = (
        cls(**{field: values[flag[2:].replace("-", "_")] for flag, field, _ in rows})
        for cls, rows in ((RunConfig, RUN_FLAGS), (StreamConfig, STREAM_FLAGS))
    )
    run_config.validate()
    if args.num_tasks < 2:
        raise ConfigError(f"--num-tasks: a sequence needs at least 2 tasks, got {args.num_tasks}")
    stream_config.validate()

    seeds = parse_seeds(args.seeds)
    arms = parse_arms(args.arms)
    if args.jobs < 1:
        raise ConfigError(f"jobs must be positive, got {args.jobs}")

    return ExperimentPlan(
        run_config=run_config,
        stream_config=stream_config,
        seeds=seeds,
        arms=arms,
        out=Path(args.out),
        jobs=args.jobs,
    )


def _run_configs(arm, seed, run_config, stream_config):
    """An (arm, seed) run's configs and the keys ``execute_run`` adds to its manifest."""
    stream_cfg = replace(stream_config, seed=seed)
    return (replace(apply_arm(run_config, arm), seed=seed), stream_cfg,
            {"arm": arm, "stream_config": stream_cfg.to_dict()})


def execute_run(arm, seed, run_config, stream_config, out_dir, source=None, threads=None):
    """One (arm, seed) run; module-level so worker processes can import it.
    ``source`` is the plan's stream files as ``load_source`` read them, and
    ``threads`` the run's scoring threads (see ``training.run_sequence``)."""
    cfg, stream_cfg, extra = _run_configs(arm, seed, run_config, stream_config)
    result = training.run_sequence(make_stream(stream_cfg, source), cfg, threads)
    training.write_run_artifacts(out_dir, cfg, result, extra)
    return result.summary


# A pool worker's copy of the plan's source and its scoring threads, set once
# when the worker starts so that no job carries the stream data. Only _pool_run
# reads them: an in-process run gets both as arguments and never sees a slot
# left by a pool.
_worker_source = None
_worker_threads = 1


def _start_worker(source, threads):
    global _worker_source, _worker_threads
    _worker_source, _worker_threads = source, threads


def _pool_run(*job):
    """A pool worker's entry. It calls ``execute_run`` through the module
    attribute, so a wrapper installed there before the pool started runs too."""
    return execute_run(*job, _worker_source, _worker_threads)


def write_report(fh, arms, summaries):
    """Per-arm mean and population std of the summary metrics."""
    header = ["arm", "n_seeds"]
    for name in REPORT_METRICS:
        header += [f"{name}_mean", f"{name}_std"]
    fh.write(",".join(header) + "\n")
    for arm in arms:
        rows = summaries[arm]
        cells = [arm, str(len(rows))]
        for name in REPORT_METRICS:
            values = np.asarray([row[name] for row in rows], dtype=np.float64)
            cells += [repr(float(values.mean())), repr(float(values.std(ddof=0)))]
        fh.write(",".join(cells) + "\n")


def write_plan(fh, plan):
    """A plan's plan.json: the flat ``--config`` file that reproduces the plan, with its
    arms, its seeds and each run and stream flag's value under the flag's dest. A run's
    seed and arm switches are its own, and ``jobs`` and ``out`` change no artifact, so
    none of them is recorded."""
    recorded = {"arms": plan.arms, "seeds": plan.seeds}
    for config, rows in ((plan.run_config, RUN_FLAGS), (plan.stream_config, STREAM_FLAGS)):
        recorded.update({flag[2:].replace("-", "_"): getattr(config, field)
                         for flag, field, _ in rows})
    json.dump(recorded, fh, indent=2, sort_keys=True)
    fh.write("\n")


def run_plan(plan):
    # a fork pool starts all its workers at the first submit, so size it to the
    # runs; a plan run in process never loads the pool code
    workers = min(plan.jobs, len(plan.arms) * len(plan.seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

    # a file-backed stream is read once for every run, and a bad file fails the plan here
    try:
        source = load_source(plan.stream_config)
    except (FormatError, OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # the plan is recorded before any run, so verify knows every run it meant to make
    out = Path(plan.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "plan.json", "w", encoding="utf-8") as fh:
            write_plan(fh, plan)
    except OSError as exc:
        print(f"error: output directory {out} is not writable: {exc}", file=sys.stderr)
        return 1

    jobs = [
        (arm, seed, plan.run_config, plan.stream_config, str(out / arm / str(seed)))
        for arm in plan.arms
        for seed in plan.seeds
    ]

    failures = []
    summaries = {arm: [] for arm in plan.arms}
    # each worker takes the source once, as its initializer's argument (read in
    # place under fork, pickled once per worker otherwise), and the jobs omit it;
    # the workers share the cores, so their scoring threads follow their number
    threads = scoring_threads(workers)
    executor = (ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                    initargs=(source, threads)) if workers > 1 else nullcontext())
    with executor as pool:
        calls = [pool.submit(_pool_run, *job).result if pool
                 else partial(execute_run, *job, source, threads) for job in jobs]
        for job, call in zip(jobs, calls):
            try:
                summaries[job[0]].append(call())
            except Exception as exc:  # noqa: BLE001 - report and keep going
                failures.append((job[0], job[1], f"{type(exc).__name__}: {exc}"))

    for arm, seed, message in failures:
        print(f"error: run (arm={arm}, seed={seed}) failed: {message}", file=sys.stderr)
    if failures:  # a report of fewer runs than the plan's would pass for a complete one
        return 1
    with open(out / "report.csv", "w", encoding="utf-8") as fh:
        write_report(fh, plan.arms, summaries)
    return 0


def _read_plan(out_dir):
    """The plan ``out_dir/plan.json`` holds, built as ``entrocl --config`` builds it,
    if the file is exactly what ``write_plan`` writes for that plan."""
    path = Path(out_dir) / "plan.json"
    try:
        plan = parse_args([f"--config={path}", f"--out={out_dir}"])
    except ConfigError as exc:  # the loader's errors name the file already
        message = str(exc)
        if not message.startswith(str(path)):
            message = f"{path}: cannot build the plan: {message}"
        raise ConfigError(message) from None
    metrics.expect_written(path, write_plan, plan)
    return plan


def _read_runs(plan):
    """Each of the plan's arms' recomputed summaries in seed order. Every (arm, seed) the
    plan lists must have a directory, and no other run one, holding each file of
    ``training.RUN_ARTIFACTS`` as its writer renders it from the plan for that run."""
    runs = [(arm, seed, plan.out / arm / str(seed)) for arm in plan.arms for seed in plan.seeds]
    layers, tasks = len(plan.run_config.widths), plan.stream_config.num_tasks
    summaries = {arm: [] for arm in plan.arms}
    for arm, seed, run_dir in runs:
        for name, _, _ in training.RUN_ARTIFACTS:
            if not (run_dir / name).is_file():
                raise ValueError(f"{run_dir / name}: run artifact is missing")
        _load_json_object(run_dir / "manifest.json")  # bad JSON is named as such
        cfg, _, extra = _run_configs(arm, seed, plan.run_config, plan.stream_config)
        accuracy = training.read_per_layer_csv(run_dir / "per_layer_accuracy.csv", layers, tasks)
        telemetry = training.read_telemetry_csv(run_dir / "telemetry.csv", layers)
        # the one value of summary.json verify cannot recompute, rendered as a float
        path = run_dir / "summary.json"
        runtime = _load_json_object(path).get("runtime_seconds")
        if type(runtime) not in (int, float) or not 0 <= runtime <= sys.float_info.max:
            raise ValueError(f"{path}: runtime_seconds is not a finite, nonnegative number")
        with np.errstate(all="ignore"):  # finite telemetry can still overflow a statistic
            summary = training.build_summary(accuracy[-1], telemetry, float(runtime))
        result = training.RunResult(accuracy, telemetry, summary)
        for name, write, values in training.RUN_ARTIFACTS:
            if name != "per_layer_accuracy.csv":  # read_per_layer_csv has checked it
                metrics.expect_written(run_dir / name, write, *values(cfg, result, extra))
        summaries[arm].append(summary)
    # any other entry, say a run left by an earlier plan or a copy of one
    arm_dirs = [plan.out / arm for arm in plan.arms]
    listed = {plan.out / "plan.json", plan.out / "report.csv", *arm_dirs,
              *(run_dir for _, _, run_dir in runs)}
    for folder in (plan.out, *arm_dirs):
        for path in sorted(folder.iterdir()):
            if path not in listed:
                raise ValueError(f"{path}: not a run of the plan in {plan.out / 'plan.json'}")
    return summaries


def verify_report(out_dir):
    """Check every run ``plan.json`` lists and recompute report.csv from their summaries."""
    try:
        plan = _read_plan(out_dir)
        summaries = _read_runs(plan)
        metrics.expect_written(plan.out / "report.csv", write_report, plan.arms, summaries)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"report.csv verified against {len(plan.arms) * len(plan.seeds)} runs")
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv[:1] == ["verify"]:
            parser = argparse.ArgumentParser(prog="entrocl verify")
            parser.add_argument("--out", type=str, default="output")
            args = parser.parse_args(argv[1:])
            return verify_report(args.out)
        plan = parse_args(argv)
        return run_plan(plan)
    except (ConfigError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
