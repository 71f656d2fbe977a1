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

from .errors import ConfigError
from .streams import StreamConfig, make_stream
from .training import RunConfig, run_sequence

ARM_NAMES = ("full", "no_entropy_scaling", "no_adaptive_training", "plain_er")

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
    """Realize an ablation arm via the two switches (plain ER also drops beta)."""
    if arm == "full":
        return replace(cfg, enable_entropy_scaling=True, enable_adaptive_training=True)
    if arm == "no_entropy_scaling":
        return replace(cfg, enable_entropy_scaling=False, enable_adaptive_training=True)
    if arm == "no_adaptive_training":
        return replace(cfg, enable_entropy_scaling=True, enable_adaptive_training=False)
    if arm == "plain_er":
        return replace(
            cfg, enable_entropy_scaling=False, enable_adaptive_training=False, beta=0.0
        )
    raise ConfigError(f"unknown arm {arm!r}")


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
    parser.add_argument("--stream", choices=["synthetic", "idx", "csv"],
                        default="synthetic", help="task stream source")
    parser.add_argument("--idx-images", type=str, default="",
                        help="IDX image file (idx source)")
    parser.add_argument("--idx-labels", type=str, default="",
                        help="IDX label file (idx source)")
    parser.add_argument("--csv-path", type=str, default="",
                        help="directory holding train.csv/test.csv (csv source)")
    parser.add_argument("--num-tasks", type=int, default=5, help="tasks in the stream")
    parser.add_argument("--classes-per-task", type=int, default=2,
                        help="classes introduced per task")
    parser.add_argument("--train-per-class", type=int, default=500,
                        help="synthetic training examples per class")
    parser.add_argument("--test-per-class", type=int, default=100,
                        help="synthetic test examples per class")
    parser.add_argument("--input-dim", type=int, default=32,
                        help="synthetic input dimension")
    parser.add_argument("--noise-scale", type=float, default=1.0,
                        help="synthetic within-class noise scale")
    parser.add_argument("--separation", type=float, default=3.0,
                        help="synthetic class-mean scale")
    parser.add_argument("--beta", type=float, default=0.005,
                        help="entropy regularizer scale")
    parser.add_argument("--lr", type=float, default=1e-3, help="learning rate")
    parser.add_argument("--wd", type=float, default=1e-4,
                        help="decoupled weight decay")
    parser.add_argument("--batch-size", type=int, default=10,
                        help="current-task batch size")
    parser.add_argument("--buffer-batch-size", type=int, default=64,
                        help="replay examples mixed into every step")
    parser.add_argument("--buffer-capacity", type=int, default=200,
                        help="replay buffer capacity M")
    parser.add_argument("--val-quota", type=int, default=64,
                        help="validation examples stored per task")
    parser.add_argument("--entropy-sign", choices=["penalize", "reward"],
                        default="penalize",
                        help="add or subtract the entropy term in the loss")
    parser.add_argument("--widths", type=str, default="64,64,64,64",
                        help="comma-separated block widths")
    parser.add_argument("--optimizer", choices=["adam", "sgd"], default="adam",
                        help="parameter update rule")
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
        known = {action.dest for action in parser._actions}
        defaults = {}
        for key, value in file_values.items():
            dest = key.replace("-", "_")
            if dest not in known:
                raise ConfigError(f"{probe.config}: unknown config key {key!r}")
            # the string the flag would carry, so file and flag share one parse path
            defaults[dest] = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        parser.set_defaults(**defaults)
    args = parser.parse_args(argv)

    if args.stream != "idx" and (args.idx_images or args.idx_labels):
        raise ConfigError("IDX paths given but --stream is not 'idx'")
    if args.stream != "csv" and args.csv_path:
        raise ConfigError("--csv-path given but --stream is not 'csv'")

    run_config = RunConfig(
        beta=float(args.beta),
        learning_rate=float(args.lr),
        weight_decay=float(args.wd),
        batch_size=int(args.batch_size),
        buffer_batch_size=int(args.buffer_batch_size),
        buffer_capacity=int(args.buffer_capacity),
        val_quota=int(args.val_quota),
        entropy_sign=args.entropy_sign,
        widths=parse_widths(args.widths),
        optimizer=args.optimizer,
    )
    run_config.validate()

    if int(args.num_tasks) < 2:
        raise ConfigError(f"--num-tasks: a sequence needs at least 2 tasks, got {args.num_tasks}")
    stream_config = StreamConfig(
        source=args.stream,
        num_tasks=int(args.num_tasks),
        classes_per_task=int(args.classes_per_task),
        train_per_class=int(args.train_per_class),
        test_per_class=int(args.test_per_class),
        input_dim=int(args.input_dim),
        noise_scale=float(args.noise_scale),
        separation=float(args.separation),
        idx_images=args.idx_images,
        idx_labels=args.idx_labels,
        csv_path=args.csv_path,
    )
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
        jobs=int(args.jobs),
    )


def execute_run(arm, seed, run_config, stream_config, out_dir):
    """One (arm, seed) run; module-level so worker processes can import it."""
    cfg = replace(apply_arm(run_config, arm), seed=seed)
    stream_cfg = replace(stream_config, seed=seed)
    tasks = make_stream(stream_cfg)
    result = run_sequence(
        tasks,
        cfg,
        out_dir=out_dir,
        manifest_extra={"arm": arm, "stream_config": stream_cfg.to_dict()},
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
        (arm, seed, plan.run_config, plan.stream_config, str(out / arm / str(seed)))
        for arm in plan.arms
        for seed in plan.seeds
    ]

    failures = []
    summaries = {arm: [] for arm in plan.arms}
    if plan.jobs == 1:
        for job in jobs:
            try:
                summaries[job[0]].append(execute_run(*job))
            except Exception as exc:  # noqa: BLE001 - report and keep going
                failures.append((job[0], job[1], repr(exc)))
    else:
        with ProcessPoolExecutor(max_workers=plan.jobs) as pool:
            futures = [pool.submit(execute_run, *job) for job in jobs]
            for job, future in zip(jobs, futures):
                try:
                    summaries[job[0]].append(future.result())
                except Exception as exc:  # noqa: BLE001
                    failures.append((job[0], job[1], repr(exc)))

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
