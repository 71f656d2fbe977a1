import concurrent.futures
import io
import json
import os
import pickle
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx_pair
from entrocl import ConfigError, RunConfig, __version__, cli, metrics, streams, training
from entrocl.cli import (
    ARM_NAMES,
    ARMS,
    RUN_FLAGS,
    STREAM_FLAGS,
    apply_arm,
    build_parser,
    main,
    parse_args,
    parse_seeds,
    run_plan,
    verify_report,
)
from entrocl.model import BLAS_THREAD_VARIABLES
from entrocl.modulation import ENTROPY_SIGNS
from entrocl.streams import STREAM_SOURCES, StreamConfig, make_synthetic_stream, save_stream_csv


def write_json(path, data):
    """Write ``data`` with the writer of entrocl's JSON artifacts."""
    with open(path, "w", encoding="utf-8") as fh:
        training.write_json(fh, data)


def edit_json(path, section=None, **values):
    """Set ``values`` in a JSON object file, or in its object ``section``."""
    data = json.loads(path.read_text())
    (data[section] if section else data).update(values)
    write_json(path, data)


def edit_every_manifest(arm, section=None, **values):
    for seed in ("0", "1"):
        edit_json(arm / seed / "manifest.json", section, **values)


def edit_plan(arm, **values):
    """Set ``values`` in the plan record beside ``arm``."""
    edit_json(arm.parent / "plan.json", **values)


def drop_plan_key(arm, key):
    path = arm.parent / "plan.json"
    plan = json.loads(path.read_text())
    del plan[key]
    write_json(path, plan)


def drop_run_setting(arm, key):
    path = arm / "1" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["run_config"][key]
    write_json(path, manifest)


def remove_artifact(name, arm):
    (arm / "1" / name).unlink()


def edit_matrix_cell(arm):
    """Set task 1's cell of run 1's matrix row after task 2 to a valid accuracy."""
    path = arm / "1" / "accuracy_matrix.csv"
    lines = [line.split(",") for line in path.read_text().splitlines()]
    lines[2][1] = "0.123456789"
    path.write_text("".join(",".join(line) + "\n" for line in lines))


def respell_last_cell(path, line, spell):
    """Rewrite the last cell of ``path``'s ``line`` (counted from 1) as ``spell(cell)``."""
    lines = path.read_text(encoding="utf-8").split("\n")
    head, _, cell = lines[line - 1].rpartition(",")
    lines[line - 1] = f"{head},{spell(cell)}"
    path.write_text("\n".join(lines), encoding="utf-8")


def rewrite_report(arm):
    """Rewrite report.csv from the arm's summaries, as entrocl writes it."""
    summaries = [json.loads((arm / seed / "summary.json").read_text()) for seed in ("0", "1")]
    with open(arm.parent / "report.csv", "w", encoding="utf-8") as fh:
        cli.write_report(fh, [arm.name], {arm.name: summaries})


def edit_summary_and_report(arm):
    """Set run 1's acc_final and rewrite report.csv from the edited summaries."""
    edit_json(arm / "1" / "summary.json", acc_final=0.99)
    rewrite_report(arm)


def edit_telemetry_cell(path, line, cell):
    """Set the entropy cell of ``path``'s ``line`` (counted from 1) to ``cell``."""
    lines = path.read_text().split("\n")
    fields = lines[line - 1].split(",")
    fields[3] = cell
    lines[line - 1] = ",".join(fields)
    path.write_text("\n".join(lines))


def edit_entropy_keys_and_report(arm):
    """Set one entropy cell of run 1's telemetry and its entropy_spread_final,
    and rewrite report.csv from the edited summaries."""
    edit_telemetry_cell(arm / "1" / "telemetry.csv", 24, "1.5")
    edit_json(arm / "1" / "summary.json", entropy_spread_final=0.5)
    rewrite_report(arm)


def cut_telemetry_by_one_step(arm):
    """Drop the last step, one line per layer, from run 1's 2-layer telemetry."""
    path = arm / "1" / "telemetry.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-2]))


def cut_to_two_boundaries(arm):
    """Rewrite both runs of a 3-task, 2-layer plan as entrocl writes their
    first 2 task boundaries: both accuracy files, the summaries' accuracy
    metrics and report.csv."""
    for seed in ("0", "1"):
        run = arm / seed
        accuracy = training.read_per_layer_csv(run / "per_layer_accuracy.csv", 2, 3)[:, :2, :2]
        with open(run / "per_layer_accuracy.csv", "w", encoding="utf-8") as fh:
            training.write_per_layer_csv(fh, accuracy)
        with open(run / "accuracy_matrix.csv", "w", encoding="utf-8") as fh:
            metrics.write_accuracy_csv(fh, accuracy[-1])
        edit_json(run / "summary.json",
                  acc_final=metrics.final_average_accuracy(accuracy[-1]),
                  bwt=metrics.backward_transfer(accuracy[-1]),
                  average_forgetting=metrics.average_forgetting(accuracy[-1]))
    rewrite_report(arm)


def respell_beta(path):
    """Write a manifest's or plan record's beta of 0.005 as 0.0050, the same number."""
    path.write_text(path.read_text().replace('"beta": 0.005,', '"beta": 0.0050,', 1))


def cut_to_one_boundary(arm):
    """Cut run 1's accuracy files to their first task boundary, each as entrocl writes it."""
    path = arm / "1" / "per_layer_accuracy.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:3]))
    (arm / "1" / "accuracy_matrix.csv").write_text("task,1\n1,0.4\n")


def report_as_directory(arm):
    report = arm.parent / "report.csv"
    report.unlink()
    report.mkdir()


def keep_report_rows(arm, rows):
    """Rewrite report.csv as its header and ``rows(arm_rows)``."""
    report = arm.parent / "report.csv"
    header, *arm_rows = report.read_text().splitlines()
    report.write_text("\n".join([header, *rows(arm_rows)]) + "\n")


def rename_arm(arm, name):
    """Copy the arm's runs to ``name`` and relabel its report row, as if a plan ran it."""
    shutil.copytree(arm, arm.parent / name)
    keep_report_rows(arm, lambda rows: [row.replace(arm.name, name, 1) for row in rows])


@pytest.fixture
def pool_record(monkeypatch):
    """Replace the process pool with a fake that runs its initializer once, as a
    worker would, and each job inline when it is submitted. Returns the pool
    sizes asked for and the pickled size of each submitted call. A fork pool
    starts every worker at the first submit, so the fake records the size
    instead of forking; the slot the initializer sets is cleared after the test."""
    record = SimpleNamespace(sizes=[], call_bytes=[])

    class InlineExecutor:
        def __init__(self, max_workers, initializer=None, initargs=()):
            record.sizes.append(max_workers)
            if initializer:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            # the pool pickles each call to send it to a worker
            record.call_bytes.append(len(pickle.dumps((fn, args))))
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(cli, "_worker_source", None)
    monkeypatch.setattr(cli, "_worker_threads", 1)
    return record


@pytest.fixture
def inline_pool(pool_record):
    """The pool sizes a plan asks for, its jobs run inline."""
    return pool_record.sizes


def csv_plan_flags(folder, train_per_class=20, input_dim=4):
    """Flags of a CSV-stream plan over a small stream written to ``folder``."""
    stream = StreamConfig(num_tasks=2, train_per_class=train_per_class, test_per_class=5,
                          input_dim=input_dim)
    save_stream_csv(make_synthetic_stream(stream), folder)
    return ["--stream", "csv", "--csv-path", str(folder), "--num-tasks", "2",
            "--widths", "8,8", "--buffer-capacity", "20"]


def idx_plan_flags(folder):
    """Flags of an IDX-stream plan over 4 classes of 4x4 images written to ``folder``."""
    folder.mkdir()
    rng = np.random.default_rng(3)
    labels = rng.permutation(np.repeat(np.arange(4), 30))
    images = np.clip(40 * labels[:, None, None] + 30 * rng.standard_normal((120, 4, 4)), 0, 255)
    image_path, label_path = write_idx_pair(folder, images, labels)
    return ["--stream", "idx", "--idx-images", str(image_path), "--idx-labels", str(label_path),
            "--num-tasks", "2", "--widths", "8,8", "--buffer-capacity", "20"]


def run_files(out):
    """Every file of a plan's output by relative path: its bytes, or for
    summary.json its JSON less the wall-clock ``runtime_seconds``."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "summary.json":
                data = json.loads(data)
                data.pop("runtime_seconds")
            files[str(path.relative_to(out))] = data
    return files


FAST_FLAGS = [
    "--train-per-class", "30",
    "--test-per-class", "10",
    "--widths", "8,8",
    "--buffer-capacity", "40",
    "--num-tasks", "2",
]


@pytest.fixture(scope="module")
def plan_output(tmp_path_factory):
    """A verified 2-seed plan's output directory and its plan.json bytes, shared by
    the examples of the fuzz tests, which restore plan.json after each one."""
    out = tmp_path_factory.mktemp("plan") / "out"
    assert main(FAST_FLAGS + ["--seeds", "0,1", "--out", str(out)]) == 0
    assert verify_report(out) == 0
    return out, (out / "plan.json").read_bytes()


class TestParsing:
    def test_seed_range_and_arm_list(self):
        plan = parse_args(
            ["--beta", "0.005", "--seeds", "0..9", "--arms", "full,no_entropy_scaling"]
        )
        assert plan.seeds == tuple(range(10))
        assert plan.arms == ("full", "no_entropy_scaling")
        assert plan.run_config.beta == 0.005

    def test_defaults(self):
        plan = parse_args([])
        assert plan.run_config == RunConfig()
        assert plan.stream_config == StreamConfig()
        assert plan.arms == ("full",)
        assert plan.seeds == (0,)

    def test_each_config_field_has_one_flag(self):
        per_run = {"seed", "enable_entropy_scaling", "enable_adaptive_training"}
        for cls, rows in ((RunConfig, RUN_FLAGS), (StreamConfig, STREAM_FLAGS)):
            flagged = [field for _, field, _ in rows]
            assert sorted(flagged) == sorted({f.name for f in fields(cls)} - per_run)
        choices = {action.option_strings[0]: action.choices
                   for action in build_parser()._actions if action.choices}
        assert choices == {"--stream": STREAM_SOURCES, "--entropy-sign": ENTROPY_SIGNS}

    def test_negative_beta_rejected(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_args(["--beta", "-1"])
        assert main(["--beta", "-1"]) == 2

    def test_seed_forms(self):
        assert parse_seeds("7") == (7,)
        assert parse_seeds("0,3,9") == (0, 3, 9)
        assert parse_seeds("2..5") == (2, 3, 4, 5)
        with pytest.raises(ConfigError):
            parse_seeds("1,1")

    def test_unknown_arm_rejected(self):
        with pytest.raises(ConfigError, match="unknown arm"):
            parse_args(["--arms", "bogus"])

    def test_conflicting_stream_sources(self):
        with pytest.raises(ConfigError, match="IDX"):
            parse_args(["--stream", "synthetic", "--idx-images", "x.idx"])
        with pytest.raises(ConfigError, match="csv"):
            parse_args(["--csv-path", "somewhere"])

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"beta": 0.01, "seeds": "0..2", "jobs": 2}))
        plan = parse_args(["--config", str(config), "--beta", "0.02"])
        assert plan.run_config.beta == 0.02  # flag wins
        assert plan.seeds == (0, 1, 2)
        assert plan.jobs == 2

    def test_config_file_lists_take_the_flag_parsers(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"seeds": [0, 2], "arms": ["full", "plain_er"], "widths": [8, 8]})
        )
        plan = parse_args(["--config", str(config)])
        assert plan.seeds == (0, 2)
        assert plan.arms == ("full", "plain_er")
        assert plan.run_config.widths == (8, 8)

    @pytest.mark.parametrize(
        "values, match",
        [
            ({"arms": ["bogus"]}, "unknown arm"),
            ({"arms": ["full", "full"]}, "distinct"),
            ({"seeds": [1, 1]}, "distinct"),
            ({"seeds": []}, "no seeds"),
            ({"widths": []}, "no widths"),
        ],
    )
    def test_config_file_bad_lists_rejected(self, tmp_path, values, match):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        with pytest.raises(ConfigError, match=match):
            parse_args(["--config", str(config)])

    def test_zero_beta_rejected_by_run_config(self):
        with pytest.raises(ConfigError, match="beta"):
            parse_args(["--beta", "0"])

    @pytest.mark.parametrize(
        "flag, text, named",
        [
            ("--seeds", "x", "--seeds: not an integer list or range: 'x'"),
            ("--seeds", "0..a", "--seeds: not an integer list or range: '0..a'"),
            ("--seeds", "-1", "--seeds: seeds must be nonnegative, got '-1'"),
            ("--widths", "a,b", "--widths: not a comma-separated integer list: 'a,b'"),
            ("--config", None, "run.json: cannot read: No such file or directory"),
            ("--config", '{"beta": 0.01,\n "seeds": }', "run.json:2:11: invalid JSON"),
            ("--config", b"\xff\xfe", "not UTF-8 text at byte 0"),
            ("--config", "[" * 100000, "run.json: JSON nests too deeply"),
            ("--config", '{"beta": 1' + "0" * 5000 + "}",
             "run.json: invalid JSON: Exceeds the limit (4300 digits)"),
            ("--beta", "nan", "beta must be finite, got nan"),
            ("--lr", "nan", "learning_rate must be finite, got nan"),
            ("--lr", "inf", "learning_rate must be finite, got inf"),
            ("--wd", "nan", "weight_decay must be finite, got nan"),
            ("--noise-scale", "nan", "noise_scale must be finite, got nan"),
            ("--separation", "inf", "separation must be finite, got inf"),
            ("--num-tasks", "1", "--num-tasks: a sequence needs at least 2 tasks, got 1"),
            # an empty item is an error, not an item left out
            ("--widths", "64,,64", "--widths: not a comma-separated integer list: '64,,64'"),
            ("--seeds", "0,,1,", "--seeds: not an integer list or range: '0,,1,'"),
            ("--arms", "full,,", "--arms: unknown arm '' in 'full,,'"),
            ("--config", '{"widths": [64, "", 64]}',
             "--widths: not a comma-separated integer list: '64,,64'"),
            # a value argparse rejects is one error line, named by the file it came from
            ("--beta", "x", "error: argument --beta: invalid float value: 'x'"),
            ("--config", '{"beta": "x"}', "run.json: argument --beta: invalid float value: 'x'"),
        ],
        ids=["seeds-word", "seeds-range", "seeds-negative", "widths-word", "config-missing",
             "config-bad-json", "config-not-utf8", "config-deep-json", "config-long-integer",
             "beta-nan", "lr-nan", "lr-inf", "wd-nan",
             "noise-scale-nan", "separation-inf", "num-tasks-1", "widths-empty-item",
             "seeds-empty-item", "arms-empty-item", "config-widths-empty-item", "beta-word",
             "config-beta-word"],
    )
    def test_bad_boundary_input_exits_2_with_an_error_line(
        self, tmp_path, capsys, flag, text, named
    ):
        if flag == "--config":
            config = tmp_path / "run.json"
            if isinstance(text, bytes):
                config.write_bytes(text)
            elif text is not None:
                config.write_text(text)
            text = str(config)
        assert main([flag, text, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_optimizer_flag_is_unknown(self, tmp_path, capsys):
        # Adam is the only update rule, so there is no rule to choose
        with pytest.raises(SystemExit) as exc:
            main(["--optimizer", "sgd", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --optimizer sgd" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_unknown_key(self, tmp_path):
        # config and help are argparse dests, but no setting a file can carry
        config = tmp_path / "run.json"
        for values in ({"betta": 1.0}, {"config": "other.json"}, {"help": 1},
                       {"optimizer": "adam"}):
            config.write_text(json.dumps(values))
            with pytest.raises(ConfigError, match=f"unknown config key '{next(iter(values))}'"):
                parse_args(["--config", str(config)])

    def test_arm_configs(self):
        base = parse_args([]).run_config
        # (entropy scaling, adaptive training, beta) of each arm
        expected = {
            "full": (True, True, base.beta),
            "no_entropy_scaling": (False, True, base.beta),
            "no_adaptive_training": (True, False, base.beta),
            "plain_er": (False, False, 0.0),
        }
        assert ARM_NAMES == tuple(expected)
        for arm in ARMS:
            cfg = apply_arm(base, arm)
            switches = (cfg.enable_entropy_scaling, cfg.enable_adaptive_training, cfg.beta)
            assert switches == expected[arm]
        with pytest.raises(ConfigError, match="unknown arm"):
            apply_arm(base, "bogus")


class TestRunPlan:
    def test_single_run_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "out"
        code = main(FAST_FLAGS + ["--out", str(out)])
        assert code == 0
        run_dir = out / "full" / "0"
        for name in (
            "manifest.json",
            "accuracy_matrix.csv",
            "per_layer_accuracy.csv",
            "telemetry.csv",
            "summary.json",
        ):
            assert (run_dir / name).exists(), name
        assert (out / "report.csv").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["arm"] == "full"
        assert manifest["seed"] == 0
        assert manifest["stream_config"]["source"] == "synthetic"
        assert "version" in manifest
        # the plan's own settings, under their flags' dests; how many workers ran it,
        # where and with which version are not among them
        plan = json.loads((out / "plan.json").read_text())
        dests = [flag[2:].replace("-", "_") for flag, _, _ in STREAM_FLAGS + RUN_FLAGS]
        assert sorted(plan) == sorted(["arms", "seeds", *dests])
        assert (plan["arms"], plan["seeds"], plan["widths"]) == (["full"], [0], [8, 8])

    def test_rerun_is_bitwise_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = FAST_FLAGS + ["--seeds", "0,1", "--arms", "full,plain_er"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
        for sub in ("full/0", "full/1", "plain_er/0", "plain_er/1"):
            for name in ("accuracy_matrix.csv", "telemetry.csv"):
                assert (out_a / sub / name).read_bytes() == (
                    out_b / sub / name
                ).read_bytes(), f"{sub}/{name}"

    def test_plan_json_reruns_its_plan(self, tmp_path):
        # plan.json is the --config file of its plan: a rerun from it at another
        # --jobs writes the same bytes, and verifies
        out, rerun = tmp_path / "out", tmp_path / "rerun"
        assert main(FAST_FLAGS + ["--arms", ",".join(ARM_NAMES), "--seeds", "0,1",
                                  "--jobs", "2", "--out", str(out)]) == 0
        assert main(["--config", str(out / "plan.json"), "--out", str(rerun), "--jobs", "1"]) == 0
        assert run_files(rerun) == run_files(out)
        assert len(run_files(out)) == 2 + 8 * 5  # plan.json, report.csv and five files a run
        assert verify_report(rerun) == 0

    @pytest.mark.parametrize("stream_flags", [csv_plan_flags, idx_plan_flags], ids=["csv", "idx"])
    def test_plan_json_reruns_from_another_directory(self, tmp_path, monkeypatch, stream_flags):
        # plan.json records its stream files' absolute paths, so a rerun from it
        # reads the same files whatever the working directory
        monkeypatch.chdir(tmp_path)
        flags = stream_flags(Path("stream"))
        assert main(flags + ["--seeds", "0,1", "--out", "out"]) == 0
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert main(["--config", "../out/plan.json", "--out", "../rerun"]) == 0
        assert run_files(tmp_path / "rerun") == run_files(tmp_path / "out")
        assert verify_report(tmp_path / "rerun") == 0

    def test_unwritable_out_fails_before_training(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(FAST_FLAGS + ["--out", str(blocker / "nested")])
        assert code == 1

    @pytest.mark.parametrize(
        "stream_flags",
        [lambda folder: FAST_FLAGS, csv_plan_flags, idx_plan_flags],
        ids=["synthetic", "csv", "idx"],
    )
    def test_parallel_jobs_match_serial(self, tmp_path, stream_flags):
        # a real pool: the workers take the plan's source from their initializer
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        args = stream_flags(tmp_path / "stream") + ["--seeds", "0,1", "--arms", "full,plain_er"]
        assert main(args + ["--out", str(out_a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(out_b), "--jobs", "2"]) == 0
        serial = run_files(out_a)
        assert len(serial) == 2 + 4 * 5  # plan.json, report.csv and five files a run
        assert run_files(out_b) == serial

    def test_pool_jobs_do_not_carry_the_stream(self, tmp_path, pool_record):
        # the source reaches each worker once, through the pool's initializer
        flags = csv_plan_flags(tmp_path / "stream", train_per_class=1000, input_dim=64)
        source = streams.load_source(parse_args(flags).stream_config)
        assert len(pickle.dumps(source)) > 1 << 20
        out = tmp_path / "out"
        assert main(flags + ["--arms", "full,plain_er", "--seeds", "0,1", "--jobs", "2",
                             "--batch-size", "100", "--out", str(out)]) == 0
        assert pool_record.sizes == [2]
        assert len(pool_record.call_bytes) == 4
        assert max(pool_record.call_bytes) < 64 << 10
        assert verify_report(out) == 0

    @pytest.mark.parametrize("jobs, threads", [("1", 2), ("2", 1)], ids=["in-process", "pool"])
    def test_plan_hands_each_run_its_scoring_threads(self, tmp_path, monkeypatch, pool_record,
                                                      jobs, threads):
        # one BLAS thread on two pinned cores: a plan run in process splits its
        # scoring, and two pool workers sharing the cores keep one thread each
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        handed, run_sequence = [], training.run_sequence
        monkeypatch.setattr(training, "run_sequence", lambda tasks, cfg, threads=None:
                            handed.append(threads) or run_sequence(tasks, cfg, threads))
        out = tmp_path / "out"
        assert main(FAST_FLAGS + ["--seeds", "0,1", "--jobs", jobs, "--out", str(out)]) == 0
        assert handed == [threads] * 2
        assert len(pool_record.call_bytes) == (2 if jobs == "2" else 0)
        assert max(pool_record.call_bytes, default=0) < 1 << 10
        assert verify_report(out) == 0

    def test_pool_forks_cleanly_after_split_scoring(self, tmp_path):
        # in one fresh interpreter: a plan in process whose scoring is forced
        # onto a helper thread, then a real pool, which forks that process;
        # 300 test rows per class give the second boundary 1200 rows, enough
        # to split
        root = Path(__file__).resolve().parents[1]
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        flags = FAST_FLAGS + ["--test-per-class", "300", "--seeds", "0,1",
                              "--arms", "full,plain_er"]
        script = "\n".join([
            "import threading",
            "from entrocl import cli, model",
            "helped, forward = [], model.LayeredNet.forward",
            "def recording_forward(self, *args, **kwargs):",
            "    helped.append(threading.current_thread() is not threading.main_thread())",
            "    return forward(self, *args, **kwargs)",
            "model.LayeredNet.forward = recording_forward",
            "cli.scoring_threads = lambda workers: 2",
            f"assert cli.main({flags + ['--out', str(serial)]!r}) == 0",
            "assert any(helped) and threading.active_count() == 1",
            f"assert cli.main({flags + ['--jobs', '2', '--out', str(pooled)]!r}) == 0",
            f"assert cli.main(['verify', '--out', {str(pooled)!r}]) == 0",
        ])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=300)
        assert done.returncode == 0, done.stderr
        assert run_files(pooled) == run_files(serial)

    def test_in_process_run_ignores_the_worker_slot(self, tmp_path, monkeypatch):
        # a slot set in this process must not stand in for the run's own files
        plan = parse_args(csv_plan_flags(tmp_path / "stream", train_per_class=30))
        stale = parse_args(csv_plan_flags(tmp_path / "stale")).stream_config
        monkeypatch.setattr(cli, "_worker_source", streams.load_source(stale))
        run = partial(cli.execute_run, "full", 0, plan.run_config, plan.stream_config)
        run(tmp_path / "slot")
        run(tmp_path / "given", streams.load_source(plan.stream_config))
        assert run_files(tmp_path / "slot") == run_files(tmp_path / "given")

    @pytest.mark.parametrize(
        "jobs, seeds, pool_sizes",
        [("8", "0", []), ("8", "0,1,2", [3]), ("2", "0,1,2", [2])],
        ids=["one-run-in-process", "three-runs", "two-jobs"],
    )
    def test_pool_has_no_more_workers_than_runs(self, tmp_path, inline_pool, jobs, seeds,
                                                 pool_sizes):
        out = tmp_path / "out"
        assert main(FAST_FLAGS + ["--jobs", jobs, "--seeds", seeds, "--out", str(out)]) == 0
        assert inline_pool == pool_sizes
        assert verify_report(out) == 0

    def test_pool_and_random_load_only_when_used(self, tmp_path):
        # in a fresh interpreter: parsing a plan, as --help, verify and config
        # errors do, loads neither, and a plan run in process loads no pool code
        root = Path(__file__).resolve().parents[1]
        script = "\n".join([
            "import sys",
            "from entrocl import cli",
            "lazy = ('concurrent.futures', 'multiprocessing', 'numpy.random')",
            "cli.parse_args([])",
            "print([name for name in lazy if name in sys.modules])",
            f"assert cli.main({FAST_FLAGS + ['--out', str(tmp_path / 'out')]!r}) == 0",
            "print([name for name in lazy if name in sys.modules])",
        ])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=300)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[]", "['numpy.random']"]

    def test_too_short_widths_rejected_at_parse_time(self, tmp_path):
        code = main(["--widths", "8", "--out", str(tmp_path / "out")])
        assert code == 2

    def test_oversized_batch_is_one_chunk_per_task(self, tmp_path):
        code = main(
            FAST_FLAGS + ["--out", str(tmp_path / "out"), "--batch-size", "1000000"]
        )
        assert code == 0

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["in-process", "pool"])
    def test_plan_parses_each_csv_file_once(self, tmp_path, monkeypatch, inline_pool, jobs):
        parsed = []
        parse = streams._read_examples_csv
        monkeypatch.setattr(streams, "_read_examples_csv",
                            lambda path: parsed.append(path) or parse(path))
        out = tmp_path / "out"
        flags = csv_plan_flags(tmp_path / "stream")
        assert main(flags + ["--arms", "full,plain_er", "--seeds", "0,1", "--jobs", jobs,
                             "--out", str(out)]) == 0
        assert [Path(path).name for path in parsed] == ["train.csv", "test.csv"]
        assert inline_pool == ([] if jobs == "1" else [2])
        assert verify_report(out) == 0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "fault", ["missing-train", "bad-line", "class-mismatch", "idx-class-of-two"])
    def test_file_fault_fails_the_plan_once(self, tmp_path, capsys, fault, jobs):
        folder = tmp_path / "stream"
        flags = csv_plan_flags(folder)
        train = folder / "train.csv"
        if fault == "missing-train":
            train.unlink()
            named = str(train)
        elif fault == "idx-class-of-two":
            # every seed's 80/20 split puts both images of class 3 in the train split
            labels = np.repeat(np.arange(4), [10, 10, 10, 2])
            image_path, label_path = write_idx_pair(folder, np.zeros((32, 2, 2)), labels)
            flags = ["--stream", "idx", "--idx-images", str(image_path), "--idx-labels",
                     str(label_path), "--num-tasks", "2", "--widths", "8,8"]
            named = (f"{label_path} (test split): 2 tasks of 2 need every class 0..3 in both "
                     "splits; missing [3]")
        elif fault == "class-mismatch":
            # the files hold 4 classes, the plan asks for 6
            flags += ["--num-tasks", "3"]
            named = f"{train}: 3 tasks of 2 need every class 0..5 in both splits"
        else:
            lines = train.read_text().splitlines()
            cells = lines[2].split(",")
            cells[1] = "one"
            lines[2] = ",".join(cells)
            train.write_text("\n".join(lines) + "\n")
            named = f"{train}:3: "
        out = tmp_path / "out"
        code = main(flags + ["--arms", "full,plain_er", "--seeds", "0,1", "--jobs", jobs,
                             "--out", str(out)])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert named in errors[0]
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["in-process", "pool"])
    def test_failed_run_reports_arm_and_seed(self, tmp_path, capfd, jobs):
        # an Adam step of 1e300 overflows the weights within the first task; at
        # --jobs 2 the exception crosses the process boundary of a real pool.
        # The overflow must warn nowhere: a numpy warning would fail the run
        # here (the forked workers inherit the filter) and print to stderr
        # outside pytest, so stderr, the workers' included, holds the errors only
        out = tmp_path / "out"
        code = main(FAST_FLAGS + ["--lr", "1e300", "--arms", "full,plain_er", "--jobs", jobs,
                                  "--out", str(out)])
        assert code == 1
        errors = capfd.readouterr().err.splitlines()
        assert [line.split(" failed: ")[0] for line in errors] == [
            "error: run (arm=full, seed=0)", "error: run (arm=plain_er, seed=0)"
        ]
        assert all("FloatingPointError: step " in line for line in errors)
        assert not (out / "report.csv").exists()


class TestVerify:
    def test_verify_fresh_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(FAST_FLAGS + ["--seeds", "0,1", "--out", str(out)]) == 0
        assert main(["verify", "--out", str(out)]) == 0

    def test_verify_detects_tampering(self, tmp_path):
        out = tmp_path / "out"
        assert main(FAST_FLAGS + ["--seeds", "0,1", "--out", str(out)]) == 0
        report = out / "report.csv"
        content = report.read_text().replace("full", "full").splitlines()
        # corrupt one aggregate cell
        header, row = content[0], content[1]
        cells = row.split(",")
        cells[2] = "0.123456789"
        report.write_text(header + "\n" + ",".join(cells) + "\n")
        assert main(["verify", "--out", str(out)]) == 1

    def test_verify_missing_report(self, tmp_path):
        assert main(["verify", "--out", str(tmp_path / "nothing")]) == 1

    @pytest.mark.parametrize(
        "damage, named",
        [
            (
                lambda arm: (arm / "1" / "summary.json").unlink(),
                "summary.json: run artifact is missing",
            ),
            *(
                (partial(remove_artifact, name), f"{name}: run artifact is missing")
                for name in ("manifest.json", "accuracy_matrix.csv",
                             "per_layer_accuracy.csv", "telemetry.csv")
            ),
            (lambda arm: (arm / "notes").mkdir(), "full/notes: not a run of the plan in "),
            (lambda arm: (arm / "0" / "summary.json").write_text("{"),
             "0/summary.json:1:2: invalid JSON: Expecting property name"),
            (
                lambda arm: (arm / "0" / "summary.json").write_text('{"acc_final": 0.5}'),
                "0/summary.json: runtime_seconds is not a finite, nonnegative number",
            ),
            (
                lambda arm: (arm / "0" / "summary.json").write_text("[1, 2]"),
                "0/summary.json: not a JSON object",
            ),
            (
                lambda arm: edit_json(arm / "1" / "summary.json", acc_final="high"),
                "1/summary.json:2: found '  \"acc_final\": \"high\",', but entrocl writes "
                "'  \"acc_final\": 0.375,'",
            ),
            (
                lambda arm: (arm / "1" / "summary.json").write_bytes(b"\xff{}"),
                "1/summary.json: not UTF-8 text at byte 0",
            ),
            (
                lambda arm: (arm / "0" / "summary.json").write_text(
                    '{"acc_final": 1' + "0" * 400
                    + ', "bwt": 0, "average_forgetting": 0, "entropy_spread_final": 0}'
                ),
                "0/summary.json: runtime_seconds is not a finite, nonnegative number",
            ),
            (
                lambda arm: (arm / "1" / "manifest.json").write_text("[]"),
                "1/manifest.json: not a JSON object",
            ),
            (
                lambda arm: edit_json(arm / "1" / "manifest.json", seed=0),
                "1/manifest.json:20: found '  \"seed\": 0,', but entrocl writes "
                "'  \"seed\": 1,'",
            ),
            (
                lambda arm: edit_json(arm / "1" / "manifest.json", "stream_config", seed=0),
                "1/manifest.json:29: found '    \"seed\": 0,', but entrocl writes "
                "'    \"seed\": 1,'",
            ),
            (
                # as if a plan of both arms ran it
                lambda arm: (rename_arm(arm, "plain_er"),
                             edit_plan(arm, arms=["full", "plain_er"])),
                "plain_er/0/manifest.json:2: found '  \"arm\": \"full\",', but entrocl writes "
                "'  \"arm\": \"plain_er\",'",
            ),
            (
                lambda arm: edit_json(arm / "0" / "manifest.json", "run_config",
                                      enable_adaptive_training=False),
                "0/manifest.json:8: found '    \"enable_adaptive_training\": false,', but "
                "entrocl writes '    \"enable_adaptive_training\": true,'",
            ),
            (
                lambda arm: edit_json(arm / "0" / "manifest.json", "run_config", beta=0.5),
                "0/manifest.json:5: found '    \"beta\": 0.5,', but entrocl writes "
                "'    \"beta\": 0.005,'",
            ),
            (
                lambda arm: edit_json(arm / "1" / "manifest.json", "stream_config",
                                      noise_scale=2.0),
                "1/manifest.json:27: found '    \"noise_scale\": 2.0,', but entrocl writes "
                "'    \"noise_scale\": 1.0,'",
            ),
            (
                partial(drop_run_setting, key="learning_rate"),
                "1/manifest.json:11: found '    \"seed\": 1,', but entrocl writes "
                "'    \"learning_rate\": 0.001,'",
            ),
            (
                lambda arm: edit_json(arm / "1" / "manifest.json", version="9.9.9"),
                "1/manifest.json:35: found '  \"version\": \"9.9.9\"', but entrocl writes "
                f"'  \"version\": \"{__version__}\"'",
            ),
            (
                lambda arm: edit_json(arm / "1" / "manifest.json", extra=1),
                "1/manifest.json:3: found '  \"extra\": 1,', but entrocl writes "
                "'  \"run_config\": {'",
            ),
            (
                lambda arm: [shutil.rmtree(arm / seed) for seed in ("0", "1")],
                "full/0/manifest.json: run artifact is missing",
            ),
            (report_as_directory, "Is a directory"),
            (
                lambda arm: (arm.parent / "report.csv").write_bytes(b"arm\xff\n"),
                "report.csv: not UTF-8 text (byte offset 3)",
            ),
            (
                lambda arm: shutil.copytree(arm / "1", arm / "01"),
                "full/01: not a run of the plan in ",
            ),
            (
                lambda arm: shutil.copytree(arm / "1", arm / "+1"),
                "full/+1: not a run of the plan in ",
            ),
            (
                lambda arm: shutil.copytree(arm / "1", arm / "2"),
                "full/2: not a run of the plan in ",
            ),
            (
                lambda arm: keep_report_rows(arm, lambda rows: rows + rows[-1:]),
                "report.csv:3: found 'full,2,0.2125,0.1625,0.0,0.0,0.0,0.0,0.04187673651696918,"
                "0.02421368318668247', but entrocl writes the end of the file",
            ),
            (
                lambda arm: keep_report_rows(arm, lambda rows: []),
                "report.csv:2: found the end of the file, but entrocl writes 'full,2,",
            ),
            (
                # the row alone: a directory named bogus is not a run of the plan
                lambda arm: keep_report_rows(arm, lambda rows: [row.replace("full", "bogus", 1)
                                                                for row in rows]),
                "report.csv:2: found 'bogus,2,",
            ),
            (
                lambda arm: keep_report_rows(arm, lambda rows: [row[len("full"):] for row in rows]),
                "report.csv:2: found ',2,",
            ),
            (
                # as if left by an earlier plan with more arms
                lambda arm: shutil.copytree(arm, arm.parent / "no_entropy_scaling"),
                "out/no_entropy_scaling: not a run of the plan in ",
            ),
            (
                edit_matrix_cell,
                "1/accuracy_matrix.csv:3: found '2,0.123456789,0.35', but entrocl writes "
                "'2,0.4,0.35'",
            ),
            (
                lambda arm: (arm / "1" / "per_layer_accuracy.csv").write_bytes(
                    (arm / "1" / "per_layer_accuracy.csv").read_bytes()[:-4]
                ),
                "1/per_layer_accuracy.csv:7: line does not end in a newline",
            ),
            # float() reads each of these cells as the number it replaces
            (
                lambda arm: respell_last_cell(arm / "1" / "accuracy_matrix.csv", 3,
                                              lambda cell: cell + "_0"),
                "1/accuracy_matrix.csv:3: found '2,0.4,0.35_0', but entrocl writes '2,0.4,0.35'",
            ),
            (
                lambda arm: respell_last_cell(arm / "1" / "per_layer_accuracy.csv", 2,
                                              lambda cell: cell.replace("0", "\u0660", 1)),
                "1/per_layer_accuracy.csv:2: a field holds '_' or a non-ASCII character",
            ),
            (
                lambda arm: respell_last_cell(arm / "0" / "accuracy_matrix.csv", 3,
                                              lambda cell: cell + "0"),
                "0/accuracy_matrix.csv:3: found '2,0.05,0.050', but entrocl writes '2,0.05,0.05'",
            ),
            (
                lambda arm: respell_last_cell(arm / "1" / "per_layer_accuracy.csv", 2,
                                              lambda cell: cell + "0"),
                "1/per_layer_accuracy.csv:2: found '1,1,0,0.250', but entrocl writes "
                "'1,1,0,0.25'",
            ),
            (
                edit_summary_and_report,
                "1/summary.json:2: found '  \"acc_final\": 0.99,', but entrocl writes "
                "'  \"acc_final\": 0.375,'",
            ),
            (
                lambda arm: edit_json(arm / "1" / "summary.json", bwt=0),
                "1/summary.json:4: found '  \"bwt\": 0,', but entrocl writes '  \"bwt\": 0.0,'",
            ),
            (
                cut_to_one_boundary,
                "1/per_layer_accuracy.csv: 2 accuracy lines, but a run of 2 tasks and 2 layers "
                "writes 6",
            ),
            (
                lambda arm: (arm / "1" / "summary.json").write_text("[" * 100000),
                "1/summary.json: JSON nests too deeply",
            ),
            (
                lambda arm: (arm / "1" / "manifest.json").write_text("[" * 100000),
                "1/manifest.json: JSON nests too deeply",
            ),
            (
                lambda arm: (arm / "1" / "summary.json").write_text("[1" + "0" * 5000 + "]"),
                "1/summary.json: invalid JSON: Exceeds the limit (4300 digits)",
            ),
            (
                lambda arm: respell_beta(arm / "1" / "manifest.json"),
                "1/manifest.json:5: found '    \"beta\": 0.0050,', but entrocl writes "
                "'    \"beta\": 0.005,'",
            ),
            (
                partial(edit_every_manifest, version="9.9.9"),
                "0/manifest.json:35: found '  \"version\": \"9.9.9\"', but entrocl writes",
            ),
            (
                # read without allocating a (T, T) grid
                partial(edit_plan, num_tasks=10**12),
                "0/per_layer_accuracy.csv: 6 accuracy lines, but a run of 1000000000000 tasks "
                "and 2 layers writes 1000000000001000000000000",
            ),
            (
                partial(edit_plan, extra=1),
                "out/plan.json: unknown config key 'extra'",
            ),
            (
                partial(edit_plan, widths=8),
                "out/plan.json: cannot build the plan: need at least 2 layer widths",
            ),
            # values the CLI never writes: a flag's parser rejects one, or the plan
            # renders it as entrocl writes it
            (
                partial(edit_plan, batch_size=True),
                "out/plan.json: argument --batch-size: invalid int value: 'True'",
            ),
            (
                partial(edit_plan, lr=1),
                "out/plan.json:15: found '  \"lr\": 1,', but entrocl writes '  \"lr\": 1.0,'",
            ),
            (
                partial(edit_plan, widths=[8.0, 8]),
                "out/plan.json: cannot build the plan: --widths: not a comma-separated integer "
                "list: '8.0,8'",
            ),
            (
                edit_entropy_keys_and_report,
                "1/summary.json:7: found '    0.0006239669058971061', but entrocl writes "
                "'    0.00014618092897443352'",
            ),
            (
                # float() reads the cell as the number it replaces
                lambda arm: respell_last_cell(arm / "1" / "telemetry.csv", 2,
                                              lambda cell: cell + "0"),
                "1/telemetry.csv:2: found '1,1,0,1.2130860913333952,-1.0,0.002334607438612213,"
                "1.0,1.57375428396433410', but entrocl writes '1,1,0,1.2130860913333952,-1.0,"
                "0.002334607438612213,1.0,1.5737542839643341'",
            ),
            (
                cut_telemetry_by_one_step,
                "1/summary.json:7: found '    0.0006239669058971061', but entrocl writes "
                "'    0.0005211028955426466'",
            ),
            (
                lambda arm: edit_telemetry_cell(arm / "1" / "telemetry.csv", 5, "nan"),
                "1/telemetry.csv:5: non-finite value",
            ),
            (
                lambda arm: edit_json(arm / "1" / "summary.json", extra=1),
                "1/summary.json:10: found '  \"extra\": 1,', but entrocl writes "
                "'  \"runtime_seconds\": ",
            ),
            (
                lambda arm: edit_json(arm / "1" / "summary.json", runtime_seconds=3),
                "1/summary.json:10: found '  \"runtime_seconds\": 3', but entrocl writes "
                "'  \"runtime_seconds\": 3.0'",
            ),
            # the plan record's lists go through the flag parsers, then it renders as written
            (
                partial(edit_plan, seeds=[True]),
                "out/plan.json: cannot build the plan: --seeds: not an integer list or range: "
                "'True'",
            ),
            (
                partial(edit_plan, seeds=["0"]),
                "out/plan.json:19: found '    \"0\"', but entrocl writes '    0'",
            ),
            (
                partial(edit_plan, arms=["full", "full"]),
                "out/plan.json: cannot build the plan: arms must be distinct, got 'full,full'",
            ),
            (
                lambda arm: respell_beta(arm.parent / "plan.json"),
                "out/plan.json:6: found '  \"beta\": 0.0050,', but entrocl writes "
                "'  \"beta\": 0.005,'",
            ),
            (
                # a plan setting that changes no artifact, so plan.json never records it
                partial(edit_plan, jobs=2),
                "out/plan.json:15: found '  \"jobs\": 2,', but entrocl writes "
                "'  \"lr\": 0.001,'",
            ),
            (
                partial(edit_plan, beta="x"),
                "out/plan.json: argument --beta: invalid float value: 'x'",
            ),
            (
                # a key left out takes its flag's default, which plan.json records
                partial(drop_plan_key, key="lr"),
                "out/plan.json:15: found '  \"noise_scale\": 1.0,', but entrocl writes "
                "'  \"lr\": 0.001,'",
            ),
            # only the plan's files and runs may sit in its output directory
            (
                lambda arm: shutil.copytree(arm, arm.parent / "Full"),
                "out/Full: not a run of the plan in ",
            ),
            (
                lambda arm: shutil.copytree(arm, arm.parent / "0"),
                "out/0: not a run of the plan in ",
            ),
            (
                lambda arm: (arm.parent / "notes.txt").write_text("seed 1 ran on a laptop\n"),
                "out/notes.txt: not a run of the plan in ",
            ),
            # nor anything but its files in a run's directory
            (
                lambda arm: (arm / "0" / "notes.txt").write_text("seed 0 ran on a laptop\n"),
                "out/full/0/notes.txt: not a run of the plan in ",
            ),
            (
                lambda arm: (arm / "1" / "checkpoints").mkdir(),
                "out/full/1/checkpoints: not a run of the plan in ",
            ),
        ],
        ids=["missing-summary", "missing-manifest", "missing-accuracy-matrix",
             "missing-per-layer-accuracy", "missing-telemetry", "non-integer-directory", "truncated-summary", "missing-metric",
             "non-object-summary", "non-numeric-metric", "non-utf8-summary",
             "metric-beyond-float64", "non-object-manifest", "manifest-seed",
             "manifest-stream-seed", "manifest-arm", "manifest-switches", "manifest-run-config",
             "manifest-stream-config", "manifest-missing-setting", "manifest-version",
             "manifest-extra-key", "no-seed-directories",
             "report-is-directory", "non-utf8-report", "zero-padded-seed-directory",
             "signed-seed-directory", "unlisted-seed-directory", "duplicate-arm-row",
             "no-arm-rows", "unknown-arm-row",
             "empty-arm-row", "arm-directory-without-row", "edited-matrix-cell",
             "truncated-per-layer-line", "underscore-in-matrix-cell",
             "arabic-digit-in-per-layer-cell", "respelled-matrix-cell",
             "respelled-per-layer-cell", "summary-and-report-edited", "integer-summary-metric",
             "one-boundary-run",
             "deep-json-summary", "deep-json-manifest", "long-integer-summary",
             "respelled-manifest-number",
             "manifest-version-in-every-run", "huge-num-tasks", "unknown-run-key-in-every-run",
             "widths-not-a-list-in-every-run", "boolean-batch-size-in-every-run",
             "integer-learning-rate-in-every-run", "float-width-in-every-run",
             "entropy-keys-and-report-edited", "respelled-telemetry-cell",
             "telemetry-cut-by-one-step", "nan-telemetry-cell", "summary-key-added",
             "runtime-not-a-float", "plan-seed-boolean", "plan-seed-string",
             "plan-arm-repeated", "plan-respelled-beta", "plan-key-added", "plan-beta-word", "plan-key-missing",
             "arm-copy-under-another-case", "arm-copy-named-as-a-seed", "stray-file",
             "stray-file-in-a-run", "stray-directory-in-a-run"],
    )
    def test_verify_reports_damaged_runs_as_errors(self, tmp_path, capsys, damage, named):
        out = tmp_path / "out"
        assert main(FAST_FLAGS + ["--seeds", "0,1", "--out", str(out)]) == 0
        damage(out / "full")
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize(
        "flags, damage, named",
        [
            (
                ["--num-tasks", "3"],
                cut_to_two_boundaries,
                "0/per_layer_accuracy.csv: 6 accuracy lines, but a run of 3 tasks and 2 layers "
                "writes 12",
            ),
            (
                ["--widths", "8,8,8,8"],
                partial(edit_plan, widths=[64, 64]),
                "0/per_layer_accuracy.csv: 12 accuracy lines, but a run of 2 tasks and 2 layers "
                "writes 6",
            ),
        ],
        ids=["run-cut-to-fewer-tasks", "widths-disagree-with-files"],
    )
    def test_verify_reports_runs_of_another_shape(self, tmp_path, capsys, flags, damage, named):
        # each run's accuracy files must hold the shape its manifest records
        out = tmp_path / "out"
        assert main(FAST_FLAGS + flags + ["--seeds", "0,1", "--out", str(out)]) == 0
        damage(out / "full")
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    @pytest.mark.parametrize("arms", ["plain_er,full", "plain_er"])
    def test_verify_renders_plain_er_from_the_plans_beta(self, tmp_path, arms):
        # plain ER's manifests hold beta 0 under a plan record whose beta is 0.005
        out = tmp_path / "out"
        assert main(FAST_FLAGS + ["--arms", arms, "--seeds", "0,1", "--out", str(out)]) == 0
        assert json.loads((out / "plan.json").read_text())["beta"] == 0.005
        assert main(["verify", "--out", str(out)]) == 0

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["in-process", "pool"])
    def test_plan_with_a_failed_run_does_not_verify(self, tmp_path, monkeypatch, capsys, jobs):
        # no report averages the one seed that completed; a real pool's forked
        # workers inherit the patched run_sequence
        run_sequence = training.run_sequence

        def fail_seed_1(tasks, cfg, threads=None):
            if cfg.seed == 1:
                raise MemoryError("seed 1")
            return run_sequence(tasks, cfg, threads)

        monkeypatch.setattr(training, "run_sequence", fail_seed_1)
        out = tmp_path / "out"
        assert main(FAST_FLAGS + ["--seeds", "0,1", "--jobs", jobs, "--out", str(out)]) == 1
        assert not (out / "report.csv").exists()
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        missing = out / "full" / "1" / "manifest.json"
        assert capsys.readouterr().err == f"error: {missing}: run artifact is missing\n"

    @pytest.mark.parametrize("missing", ["diverged-runs", "plan-record"])
    def test_verify_names_the_first_file_missing(self, tmp_path, capsys, missing):
        out = tmp_path / "out"
        if missing == "diverged-runs":
            assert main(FAST_FLAGS + ["--lr", "1e300", "--out", str(out)]) == 1
            named = out / "full" / "0" / "manifest.json: run artifact is missing"
        else:
            assert main(FAST_FLAGS + ["--out", str(out)]) == 0
            (out / "plan.json").unlink()
            named = f"{out / 'plan.json'}: cannot read: No such file or directory"
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {named}\n"

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_damaged_plan_record_fails_with_one_error_line(self, plan_output, data):
        out, valid = plan_output
        cut = st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
        flip = st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)).map(
            lambda at: valid[:at[0]] + bytes([valid[at[0]] ^ at[1]]) + valid[at[0] + 1:])
        (out / "plan.json").write_bytes(data.draw(st.one_of(cut, flip)))
        err = io.StringIO()
        try:
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                code = main(["verify", "--out", str(out)])
        finally:
            (out / "plan.json").write_bytes(valid)
        lines = err.getvalue().splitlines()
        assert code == 1 and len(lines) == 1 and lines[0].startswith("error: ")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_damaged_config_file_fails_with_one_error_line(self, plan_output, data):
        # the plan command reads a config file with the same loader as verify; --jobs 0
        # fails a config that still parses, so no example runs a plan
        out, valid = plan_output
        config, rerun = out.parent / "run.json", out.parent / "rerun"
        cut = st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
        flip = st.tuples(st.integers(0, len(valid) - 1), st.integers(1, 255)).map(
            lambda at: valid[:at[0]] + bytes([valid[at[0]] ^ at[1]]) + valid[at[0] + 1:])
        config.write_bytes(data.draw(st.one_of(cut, flip)))
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["--config", str(config), "--jobs", "0", "--out", str(rerun)])
        lines = err.getvalue().splitlines()
        assert code == 2 and len(lines) == 1 and lines[0].startswith("error: ")
        assert not rerun.exists()
