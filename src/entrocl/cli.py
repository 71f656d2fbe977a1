"""Experiment front door: seeded runs, ablation arms, aggregate report.

``entrocl`` runs every (arm, seed) pair of a plan, writes per-run artifacts
under ``out/<arm>/<seed>/`` and an aggregate ``report.csv``; ``entrocl
verify --out DIR`` recomputes the aggregate from the per-run summaries and
checks it against the written report.
"""

import argparse
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import training
from .errors import ConfigError, FormatError
from .modulation import ENTROPY_SIGNS
from .streams import STREAM_SOURCES, StreamConfig, load_source, make_stream
from .training import OPTIMIZERS, RunConfig

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
    ("--optimizer", "optimizer", "parameter update rule"),
)
FIELD_CHOICES = {"source": STREAM_SOURCES, "entropy_sign": ENTROPY_SIGNS, "optimizer": OPTIMIZERS}

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
            seeds = tuple(int(part) for part in text.split(",") if part != "")
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
    arms = tuple(part.strip() for part in text.split(",") if part.strip())
    if not arms:
        raise ConfigError("at least one arm is required")
    for arm in arms:
        if arm not in ARM_NAMES:
            raise ConfigError(f"unknown arm {arm!r}; choose from {ARM_NAMES}")
    if len(set(arms)) != len(arms):
        raise ConfigError(f"arms must be distinct, got {text!r}")
    return arms


def parse_widths(text):
    try:
        widths = tuple(int(part) for part in text.split(",") if part != "")
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


def parse_args(argv):
    parser = build_parser()
    # Pre-scan for --config so file values become defaults the flags override.
    probe, _ = parser.parse_known_args(argv)
    if probe.config:
        try:
            with open(probe.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"{probe.config}: cannot read config: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{probe.config}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            ) from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{probe.config}: not UTF-8 text at byte {exc.start}") from None
        if not isinstance(file_values, dict):
            raise ConfigError(f"{probe.config}: config must be a flat JSON object")
        known = {action.dest for action in parser._actions} - {"config", "help"}
        defaults = {}
        for key, value in file_values.items():
            dest = key.replace("-", "_")
            if dest not in known:
                raise ConfigError(f"{probe.config}: unknown config key {key!r}")
            # the string the flag would carry, so file and flag share one parse path
            defaults[dest] = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        parser.set_defaults(**defaults)
    args = parser.parse_args(argv)

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


def execute_run(arm, seed, run_config, stream_config, out_dir, source=None):
    """One (arm, seed) run; module-level so worker processes can import it.
    ``source`` is the plan's stream files as ``load_source`` read them."""
    cfg = replace(apply_arm(run_config, arm), seed=seed)
    stream_cfg = replace(stream_config, seed=seed)
    result = training.run_sequence(make_stream(stream_cfg, source), cfg)
    training.write_run_artifacts(
        out_dir, cfg, result, {"arm": arm, "stream_config": stream_cfg.to_dict()}
    )
    return result.summary


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


def run_plan(plan):
    # a file-backed stream is read once for every run, and a bad file fails the plan here
    try:
        source = load_source(plan.stream_config)
    except (FormatError, OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(plan.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory {out} is not writable: {exc}", file=sys.stderr)
        return 1

    jobs = [
        (arm, seed, plan.run_config, plan.stream_config, str(out / arm / str(seed)), source)
        for arm in plan.arms
        for seed in plan.seeds
    ]

    failures = []
    summaries = {arm: [] for arm in plan.arms}
    # a fork pool starts all its workers at the first submit, so size it to the runs
    workers = min(plan.jobs, len(jobs))
    if workers == 1:
        for job in jobs:
            try:
                summaries[job[0]].append(execute_run(*job))
            except Exception as exc:  # noqa: BLE001 - report and keep going
                failures.append((job[0], job[1], f"{type(exc).__name__}: {exc}"))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(execute_run, *job) for job in jobs]
            for job, future in zip(jobs, futures):
                try:
                    summaries[job[0]].append(future.result())
                except Exception as exc:  # noqa: BLE001
                    failures.append((job[0], job[1], f"{type(exc).__name__}: {exc}"))

    completed_arms = [arm for arm in plan.arms if summaries[arm]]
    if completed_arms:
        with open(out / "report.csv", "w", encoding="utf-8") as fh:
            write_report(fh, completed_arms, summaries)

    for arm, seed, message in failures:
        print(f"error: run (arm={arm}, seed={seed}) failed: {message}", file=sys.stderr)
    return 1 if failures else 0


def _read_summaries(arm_dir):
    """The summary.json of every seed directory under one arm, in seed order."""
    seeds = {}
    for path in arm_dir.iterdir():
        try:
            seeds[int(path.name)] = path / "summary.json"
        except ValueError:
            raise ValueError(f"{path} is not a seed directory") from None
    rows = []
    for _, path in sorted(seeds.items()):
        try:
            summary = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # bad JSON or bad UTF-8, named with the file
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
        if not isinstance(summary, dict):
            raise ValueError(f"{path}: summary is not a JSON object")
        for name in REPORT_METRICS:
            if type(summary.get(name)) not in (int, float):
                raise ValueError(f"{path}: {name} is missing or not a number")
        rows.append(summary)
    return rows


def verify_report(out_dir):
    """Recompute the aggregate from per-run summaries and diff against report.csv."""
    out = Path(out_dir)
    report_path = out / "report.csv"
    try:
        with open(report_path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
        arms = [line.split(",", 1)[0] for line in lines[1:]]
        summaries = {arm: _read_summaries(out / arm) for arm in arms}
    except UnicodeDecodeError as exc:
        print(f"error: {report_path}: not UTF-8 text at byte {exc.start}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    buffer = io.StringIO()
    write_report(buffer, arms, summaries)
    recomputed = buffer.getvalue().rstrip("\n").split("\n")
    if recomputed != lines:
        print("error: report.csv does not match recomputation:", file=sys.stderr)
        for got, want in zip(lines, recomputed):
            if got != want:
                print(f"  report   : {got}", file=sys.stderr)
                print(f"  recomputed: {want}", file=sys.stderr)
        return 1
    print(f"report.csv verified against {sum(len(v) for v in summaries.values())} runs")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
