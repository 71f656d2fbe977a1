import json
import shutil
from concurrent.futures import Future
from dataclasses import fields
from pathlib import Path

import pytest

from entrocl import ConfigError, RunConfig, cli, streams
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
from entrocl.modulation import ENTROPY_SIGNS
from entrocl.streams import STREAM_SOURCES, StreamConfig, make_synthetic_stream, save_stream_csv
from entrocl.training import OPTIMIZERS


def edit_summary(path, **values):
    summary = json.loads(path.read_text())
    summary.update(values)
    path.write_text(json.dumps(summary))


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
def inline_pool(monkeypatch):
    """Replace the process pool with a fake that runs each job inline when it is
    submitted; returns the list of pool sizes asked for. A fork pool starts every
    worker at the first submit, so the fake records the size instead of forking."""
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
    return sizes


def csv_plan_flags(folder):
    """Flags of a CSV-stream plan over a small stream written to ``folder``."""
    stream = StreamConfig(num_tasks=2, train_per_class=20, test_per_class=5, input_dim=4)
    save_stream_csv(make_synthetic_stream(stream), folder)
    return ["--stream", "csv", "--csv-path", str(folder), "--num-tasks", "2",
            "--widths", "8,8", "--buffer-capacity", "20"]


FAST_FLAGS = [
    "--train-per-class", "30",
    "--test-per-class", "10",
    "--widths", "8,8",
    "--buffer-capacity", "40",
    "--num-tasks", "2",
]


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
        assert choices == {
            "--stream": STREAM_SOURCES,
            "--entropy-sign": ENTROPY_SIGNS,
            "--optimizer": OPTIMIZERS,
        }

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
            ("--config", None, "run.json: cannot read config: No such file or directory"),
            ("--config", '{"beta": 0.01,\n "seeds": }', "run.json:2:11: invalid JSON"),
            ("--config", b"\xff\xfe", "not UTF-8 text at byte 0"),
            ("--beta", "nan", "beta must be finite, got nan"),
            ("--lr", "nan", "learning_rate must be finite, got nan"),
            ("--lr", "inf", "learning_rate must be finite, got inf"),
            ("--wd", "nan", "weight_decay must be finite, got nan"),
            ("--noise-scale", "nan", "noise_scale must be finite, got nan"),
            ("--separation", "inf", "separation must be finite, got inf"),
            ("--num-tasks", "1", "--num-tasks: a sequence needs at least 2 tasks, got 1"),
        ],
        ids=["seeds-word", "seeds-range", "seeds-negative", "widths-word", "config-missing",
             "config-bad-json", "config-not-utf8", "beta-nan", "lr-nan", "lr-inf", "wd-nan",
             "noise-scale-nan", "separation-inf", "num-tasks-1"],
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
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "out").exists()

    def test_config_file_unknown_key(self, tmp_path):
        # config and help are argparse dests, but no setting a file can carry
        config = tmp_path / "run.json"
        for values in ({"betta": 1.0}, {"config": "other.json"}, {"help": 1}):
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

    def test_unwritable_out_fails_before_training(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = main(FAST_FLAGS + ["--out", str(blocker / "nested")])
        assert code == 1

    def test_parallel_jobs_match_serial(self, tmp_path):
        out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
        args = FAST_FLAGS + ["--seeds", "0,1", "--arms", "full"]
        assert main(args + ["--out", str(out_a), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(out_b), "--jobs", "2"]) == 0
        assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()

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
    @pytest.mark.parametrize("fault", ["missing-train", "bad-line"])
    def test_file_fault_fails_the_plan_once(self, tmp_path, capsys, fault, jobs):
        folder = tmp_path / "stream"
        flags = csv_plan_flags(folder)
        train = folder / "train.csv"
        if fault == "missing-train":
            train.unlink()
            named = str(train)
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
            (lambda arm: (arm / "1" / "summary.json").unlink(), "summary.json"),
            (lambda arm: (arm / "notes").mkdir(), "notes is not a seed directory"),
            (lambda arm: (arm / "0" / "summary.json").write_text("{"), "is not valid JSON"),
            (
                lambda arm: (arm / "0" / "summary.json").write_text('{"acc_final": 0.5}'),
                "summary.json: bwt is missing or not a number",
            ),
            (
                lambda arm: (arm / "0" / "summary.json").write_text("[1, 2]"),
                "summary.json: summary is not a JSON object",
            ),
            (
                lambda arm: edit_summary(arm / "1" / "summary.json", acc_final="high"),
                "summary.json: acc_final is missing or not a number",
            ),
            (
                lambda arm: (arm / "1" / "summary.json").write_bytes(b"\xff{}"),
                "summary.json is not valid JSON",
            ),
            (report_as_directory, "Is a directory"),
            (
                lambda arm: (arm.parent / "report.csv").write_bytes(b"arm\xff\n"),
                "report.csv: not UTF-8 text at byte 3",
            ),
            (lambda arm: shutil.copytree(arm / "1", arm / "01"), "01 is not a seed directory"),
            (lambda arm: shutil.copytree(arm / "1", arm / "+1"), "+1 is not a seed directory"),
            (
                lambda arm: keep_report_rows(arm, lambda rows: rows + rows[-1:]),
                "got rows for ['full', 'full']",
            ),
            (lambda arm: keep_report_rows(arm, lambda rows: []), "report.csv: expected one row"),
            (lambda arm: rename_arm(arm, "bogus"), "got rows for ['bogus']"),
            (
                lambda arm: keep_report_rows(arm, lambda rows: [row[len("full"):] for row in rows]),
                "got rows for ['']",
            ),
        ],
        ids=["missing-summary", "non-integer-directory", "truncated-summary", "missing-metric",
             "non-object-summary", "non-numeric-metric", "non-utf8-summary",
             "report-is-directory", "non-utf8-report", "zero-padded-seed-directory",
             "signed-seed-directory", "duplicate-arm-row", "no-arm-rows", "unknown-arm-row",
             "empty-arm-row"],
    )
    def test_verify_reports_damaged_runs_as_errors(self, tmp_path, capsys, damage, named):
        out = tmp_path / "out"
        assert main(FAST_FLAGS + ["--seeds", "0,1", "--out", str(out)]) == 0
        damage(out / "full")
        capsys.readouterr()
        assert main(["verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
