import io
import math
import os
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from entrocl import ConfigError, FormatError, evaluate_layer_accuracies, training
from entrocl.metrics import final_average_accuracy, write_accuracy_csv
from entrocl.model import BLAS_THREAD_VARIABLES, correct_counts
from entrocl.modulation import alpha_from_accuracies
from entrocl.streams import StreamConfig, TaskSpec, make_synthetic_stream
from entrocl.training import (
    TELEMETRY_FIELDS,
    AdamState,
    RunConfig,
    adam_step,
    boundary_states,
    init_state,
    read_per_layer_csv,
    read_telemetry_csv,
    run_sequence,
    run_task,
    write_run_artifacts,
    write_telemetry_csv,
)

GOLDEN = Path(__file__).parent / "golden"


def tiny_stream(seed, **overrides):
    base = dict(
        num_tasks=3,
        classes_per_task=2,
        train_per_class=40,
        test_per_class=10,
        input_dim=8,
        seed=seed,
    )
    base.update(overrides)
    return make_synthetic_stream(StreamConfig(**base))


def tiny_config(seed, **overrides):
    base = dict(seed=seed, widths=(16, 16), buffer_capacity=50)
    base.update(overrides)
    return RunConfig(**base)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        flat = np.asarray([1.0, -2.0, 3.0])
        moments = AdamState(flat)
        before = flat.copy()
        adam_step(flat, np.zeros(3), moments, lr=1e-3, wd=0.0)
        assert np.array_equal(flat, before)

    def test_first_step_magnitude_is_learning_rate(self):
        flat = np.zeros(1)
        moments = AdamState(flat)
        adam_step(flat, np.ones(1), moments, lr=1e-3, wd=0.0)
        assert float(flat[0]) == pytest.approx(-1e-3, rel=1e-6)

    def test_decoupled_shrink_with_zero_gradient(self):
        flat = np.asarray([2.0])
        moments = AdamState(flat)
        adam_step(flat, np.zeros(1), moments, lr=1e-3, wd=1e-4)
        assert float(flat[0]) == pytest.approx(2.0 * (1.0 - 1e-7), rel=1e-15)

    def test_slices_match_one_whole_vector_update(self, monkeypatch):
        rng = np.random.default_rng(0)
        whole = rng.standard_normal(3007)
        sliced = whole.copy()
        whole_moments, sliced_moments = AdamState(whole), AdamState(sliced)
        for _ in range(3):
            grad = rng.standard_normal(3007)
            adam_step(whole, grad, whole_moments, lr=1e-3, wd=1e-4)
            monkeypatch.setattr(training, "ADAM_SLICE", 1000)
            adam_step(sliced, grad, sliced_moments, lr=1e-3, wd=1e-4)
            monkeypatch.undo()
        assert sliced.tobytes() == whole.tobytes()
        assert sliced_moments.v.tobytes() == whole_moments.v.tobytes()

    @pytest.mark.parametrize("wd", [0.0, 1e-4])
    def test_buffered_update_matches_the_plain_expressions_bitwise(self, wd):
        rng = np.random.default_rng(3)
        size = 2 * training.ADAM_SLICE + 123  # two whole slices and a partial one
        flat = rng.standard_normal(size)
        moments = AdamState(flat)
        p, m, v = flat.copy(), np.zeros(size), np.zeros(size)
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        for t in range(1, 6):
            g = rng.standard_normal(size)
            adam_step(flat, g, moments, lr=lr, wd=wd)
            # the update written with whole-array temporaries and the fixed constants
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            if wd:
                p *= 1.0 - lr * wd
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            assert flat.tobytes() == p.tobytes()
        assert moments.m.tobytes() == m.tobytes()
        assert moments.v.tobytes() == v.tobytes()


class TestRunTask:
    def test_alpha_stays_neutral_on_first_task(self):
        tasks = tiny_stream(0)
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        initial = state.alpha
        run_task(state, tasks[0])
        assert state.alpha is initial  # set at task boundaries, not per step
        assert state.alpha == (1.0, 1.0)

    def test_alpha_refreshes_from_second_task(self):
        tasks = tiny_stream(0)
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        run_task(state, tasks[0])
        # task 2 starts from the net and validation rows task 1 left
        alpha = alpha_from_accuracies(evaluate_layer_accuracies(state.net, state.vbuf))
        run_task(state, tasks[1])
        assert state.alpha == alpha != (1.0, 1.0)

    def test_alpha_forced_neutral_when_switch_off(self):
        tasks = tiny_stream(0)
        cfg = tiny_config(0, enable_adaptive_training=False)
        state = init_state(cfg, 8, 6)
        for task in tasks:
            run_task(state, task)
        assert state.alpha == (1.0, 1.0)

    def test_task_ids_must_increase(self):
        tasks = tiny_stream(0)
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        with pytest.raises(ConfigError, match=r"positive and strictly increasing, got 0$"):
            run_task(state, replace(tasks[0], task_id=0))
        run_task(state, tasks[0])
        with pytest.raises(ConfigError, match=r"strictly increasing, got 1 after 1$"):
            run_task(state, tasks[0])

    def test_invalid_config_is_rejected_before_any_work(self):
        with pytest.raises(ConfigError, match="learning rate"):
            init_state(tiny_config(0, learning_rate=-1.0), 8, 6)
        with pytest.raises(ConfigError, match="learning rate"):
            run_sequence(tiny_stream(0), tiny_config(0, learning_rate=-1.0))

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            init_state(tiny_config(-1), 8, 6)

    def test_state_binds_its_config(self):
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        assert state.cfg is cfg
        with pytest.raises(AttributeError):
            state.cfg.learning_rate = -1.0  # frozen: checked when built, never edited

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: replace(RunConfig(), batch_size=0), "batch size must be positive, got 0"),
            (lambda: RunConfig(beta=float("nan")), "beta must be finite, got nan"),
        ],
        ids=["replace", "constructor"],
    )
    def test_config_checks_itself_when_built(self, build, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()

    def test_non_finite_step_fails_loudly(self):
        tasks = tiny_stream(0)
        tasks[1].train_x[17, 3] = np.nan
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        run_task(state, tasks[0])
        with pytest.raises(
            FloatingPointError, match=r"step \d+ of task 2 diverged: .* first non-finite layer 0"
        ) as failure:
            run_task(state, tasks[1])
        # the run's step count: task 1's steps, then the steps of task 2 up to the bad one
        step = int(str(failure.value).split()[1])
        task1_steps, task2_steps = (math.ceil(t.train_size / 10) for t in tasks[:2])
        assert task1_steps < step <= task1_steps + task2_steps
        # the diverged step is reported before the optimizer applies it
        assert np.isfinite(state.net.flat).all()
        # the telemetry holds the completed first task and nothing of the failed one
        assert state.telemetry["task"].tolist() == [1] * math.ceil(tasks[0].train_size / 10)
        assert all(np.isfinite(state.telemetry[name]).all() for name in TELEMETRY_FIELDS)

    def test_last_update_that_overflows_fails_its_task(self):
        # one step per task: task 1's update takes the parameters near 1e300,
        # and task 2's overflows them; no later step's check would see it
        tasks = tiny_stream(0, num_tasks=2, train_per_class=5)
        state = init_state(tiny_config(0, learning_rate=1e300), 8, 4)
        with np.errstate(over="ignore", invalid="ignore"):
            run_task(state, tasks[0])
            assert np.isfinite(state.net.flat).all()
            with pytest.raises(
                FloatingPointError,
                match=r"^task 2 left \d+ of \d+ parameters non-finite after its last step$",
            ):
                run_task(state, tasks[1])
        # the failed task adds no telemetry and no validation rows
        assert state.telemetry["task"].tolist() == [1]
        assert list(state.vbuf.per_task) == [1]

    def test_run_whose_last_update_overflows_fails(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"^task 2 left"):
                run_sequence(
                    tiny_stream(0, num_tasks=2, train_per_class=5),
                    tiny_config(0, learning_rate=1e300),
                )

    @pytest.mark.parametrize("capacity", [5, 50])
    def test_replay_rows_hold_each_resident_offer(self, monkeypatch, capacity):
        # the buffer holds stream positions; position k is the k-th row that
        # ``batches`` yielded, and the run must keep that row in the slot
        yielded, batches = [], training.batches

        def recording_batches(*args):
            for batch in batches(*args):
                yielded.append(batch)
                yield batch

        monkeypatch.setattr(training, "batches", recording_batches)
        state = init_state(tiny_config(0, buffer_capacity=capacity), 8, 6)
        for task in tiny_stream(0):
            run_task(state, task)
        offered_x = np.concatenate([x for x, _ in yielded])
        offered_y = np.concatenate([y for _, y in yielded])
        assert state.buffer.seen_count == len(offered_y)
        assert len(state.buffer.items) == capacity
        assert len(set(state.buffer.items)) == capacity
        for slot, position in enumerate(state.buffer.items):
            assert state.replay_x[slot].tobytes() == offered_x[position].tobytes()
            assert state.replay_y[slot] == offered_y[position]

    def test_multi_head_replay_learns_separable_toy(self):
        # plain multi-head ER (both switches off, beta zeroed)
        final = []
        for seed in range(10):
            tasks = tiny_stream(
                seed, num_tasks=1, classes_per_task=2, train_per_class=400,
                separation=8.0,
            )
            cfg = tiny_config(
                seed,
                beta=0.0,
                enable_entropy_scaling=False,
                enable_adaptive_training=False,
            )
            state = init_state(cfg, 8, 2)
            run_task(state, tasks[0])
            preds = state.net.forward(tasks[0].test_x).probs[1].argmax(axis=1)
            final.append(float((preds == tasks[0].test_y).mean()))
        assert float(np.mean(final)) > 0.95


class TestRunSequence:
    def test_identical_tasks_show_no_forgetting(self):
        margins = []
        for seed in range(10):
            base = tiny_stream(seed, num_tasks=1, train_per_class=150)[0]
            twin = TaskSpec(
                task_id=2,
                class_ids=base.class_ids,
                train_x=base.train_x,
                train_y=base.train_y,
                test_x=base.test_x,
                test_y=base.test_y,
            )
            cfg = tiny_config(seed)
            result = run_sequence([base, twin], cfg)
            margins.append(result.accuracy[-1, 1, 0] - result.accuracy[-1, 0, 0])
        assert float(np.mean(margins)) >= -0.02

    def test_matrix_shape_and_fill(self):
        tasks = tiny_stream(3)
        result = run_sequence(tasks, tiny_config(3))
        accuracy = result.accuracy
        # one (L, T, T) array: two heads, three tasks
        assert accuracy.shape == (2, 3, 3) and accuracy.dtype == np.float64
        lower = np.tri(3, dtype=bool)
        assert np.isfinite(accuracy[:, lower]).all()
        assert np.isnan(accuracy[:, ~lower]).all()
        assert ((accuracy[:, lower] >= 0) & (accuracy[:, lower] <= 1)).all()

    @pytest.mark.parametrize("blas_threads, num_tasks, test_per_class, helpers",
                             [(None, 3, 300, 0), ("1", 3, 300, 2), ("1", 5, 100, 0)],
                             ids=["blas-default", "one-blas-thread",
                                  "one-blas-thread-1000-rows"])
    def test_boundary_scoring_splits_only_beside_one_blas_thread(
            self, monkeypatch, blas_threads, num_tasks, test_per_class, helpers):
        # two cores: with one BLAS thread, a boundary whose seen test splits
        # hold 2 * EVAL_BLOCK rows scores on a helper thread it joins. Tasks of
        # 600 test rows split at the second and third boundaries (1200 and
        # 1800 rows); tasks of 200 never do, as a default run's last boundary
        # holds 1000 rows
        for name in BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        if blas_threads:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread.name) or start(thread))
        tasks = tiny_stream(4, num_tasks=num_tasks, test_per_class=test_per_class)
        cfg = tiny_config(4)
        before = threading.active_count()
        result = run_sequence(tasks, cfg)
        assert threading.active_count() == before
        assert started == ["entrocl-scoring_0"] * helpers
        alone = run_sequence(tasks, cfg, threads=1)
        assert result.accuracy.tobytes() == alone.accuracy.tobytes()
        assert result.telemetry.tobytes() == alone.telemetry.tobytes()

    def test_step_accounting(self):
        tasks = tiny_stream(1)
        cfg = tiny_config(1, batch_size=7)
        result = run_sequence(tasks, cfg)
        expected = [math.ceil(t.train_size / 7) for t in tasks]
        assert len(result.telemetry) == sum(expected)
        assert np.bincount(result.telemetry["task"])[1:].tolist() == expected

    def test_losses_finite_at_every_step(self):
        tasks = tiny_stream(2)
        result = run_sequence(tasks, tiny_config(2))
        for name in TELEMETRY_FIELDS:
            assert np.isfinite(result.telemetry[name]).all(), name

    def test_needs_two_tasks(self):
        tasks = tiny_stream(0)[:1]
        with pytest.raises(ConfigError):
            run_sequence(tasks, tiny_config(0))

    @pytest.mark.parametrize("ids", [(0, 1, 2), (-1, 0, 1), (1, 1, 2), (2, 1, 3)])
    def test_task_ids_must_be_positive_and_strictly_increasing(self, ids):
        # a first id of 0 once passed this check and failed in run_task with
        # "task ids must be strictly increasing, got 0 after 0"
        tasks = [replace(task, task_id=i) for task, i in zip(tiny_stream(0), ids)]
        with pytest.raises(
            ConfigError,
            match=re.escape(f"task ids must be positive and strictly increasing, got {list(ids)}"),
        ):
            run_sequence(tasks, tiny_config(0))

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda task: dict(train_x=task.train_x[:, :5], test_x=task.test_x[:, :5]),
             "task 2 has 5-wide inputs, but task 1's are 8-wide"),
        ],
        ids=["other-width"],
    )
    def test_task_rejected_before_training(self, monkeypatch, change, message):
        # this used to train and fail in numpy's concatenate at task 2
        tasks = tiny_stream(0)
        tasks[1] = replace(tasks[1], **change(tasks[1]))
        trained = []
        monkeypatch.setattr(training, "run_task", lambda state, task: trained.append(task))
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_sequence(tasks, tiny_config(0))
        with pytest.raises(ConfigError, match=re.escape(message)):
            next(boundary_states(tasks, tiny_config(0)))
        assert trained == []

    @pytest.mark.parametrize("threads, test_per_class", [(1, 10), (2, 512)],
                             ids=["one-thread", "two-threads-1024-row-splits"])
    @pytest.mark.parametrize("arm", ["full", "no_adaptive_training"])
    def test_boundary_states_replay_the_run(self, arm, threads, test_per_class):
        # a boundary's net is replayed, not stored: two replays yield the same
        # parameters, and scoring them as run_sequence does gives its
        # accuracies and telemetry bit for bit
        from entrocl.cli import apply_arm

        tasks = tiny_stream(9, test_per_class=test_per_class)
        cfg = apply_arm(tiny_config(9), arm)
        flats = []
        for state in boundary_states(tasks, cfg):
            flats.append(state.net.flat.copy())
        again = [replayed.net.flat.copy() for replayed in boundary_states(tasks, cfg)]
        assert [flat.tobytes() for flat in again] == [flat.tobytes() for flat in flats]

        result = run_sequence(tasks, cfg, threads)
        accuracy = np.full_like(result.accuracy, np.nan)
        test_rows = np.array([len(task.test_y) for task in tasks])[:, None]
        for t, flat in enumerate(flats):
            state.net.flat[:] = flat
            splits = [(seen.test_x, seen.test_y) for seen in tasks[: t + 1]]
            counts = correct_counts(state.net, splits, threads)
            accuracy[:, t, : t + 1] = (counts / test_rows[: t + 1]).T
        assert accuracy.tobytes() == result.accuracy.tobytes()
        assert state.telemetry.tobytes() == result.telemetry.tobytes()

    def test_bitwise_determinism(self):
        def run_once():
            tasks = tiny_stream(5)
            result = run_sequence(tasks, tiny_config(5))
            telemetry = io.StringIO()
            write_telemetry_csv(telemetry, result.telemetry)
            matrix = io.StringIO()
            write_accuracy_csv(matrix, result.accuracy[-1])
            return telemetry.getvalue(), matrix.getvalue(), result.accuracy.tobytes()

        first, second = run_once(), run_once()
        assert first == second

    def test_arms_share_state_until_first_divergence(self):
        from dataclasses import replace

        from entrocl.cli import apply_arm

        tasks = tiny_stream(6)
        results = {}
        for arm in ("full", "no_entropy_scaling"):
            cfg = replace(apply_arm(tiny_config(6), arm), seed=6)
            results[arm] = run_sequence(tasks, cfg)
        first_full = results["full"].telemetry[0]
        first_no_es = results["no_entropy_scaling"].telemetry[0]
        # same params and same batch before the first update: identical entropies
        assert np.array_equal(first_full["entropy"], first_no_es["entropy"])
        assert np.array_equal(first_full["loss"], first_no_es["loss"])
        # the gamma path is where they diverge
        assert first_no_es["gamma"].tolist() == [0.005, 0.005]

    def test_golden_full_run_matrix_bitwise(self):
        tasks = make_synthetic_stream(StreamConfig(seed=0))
        result = run_sequence(tasks, RunConfig(seed=0))
        out = io.StringIO()
        write_accuracy_csv(out, result.accuracy[-1])
        expected = (GOLDEN / "accuracy_matrix_full_seed0.csv").read_text()
        assert out.getvalue() == expected

    def test_golden_telemetry_bitwise(self):
        tasks = make_synthetic_stream(
            StreamConfig(num_tasks=2, train_per_class=24, test_per_class=5, input_dim=6, seed=0)
        )
        result = run_sequence(tasks, RunConfig(seed=0, widths=(8, 8)))
        out = io.StringIO()
        write_telemetry_csv(out, result.telemetry)
        expected = (GOLDEN / "telemetry_tiny_seed0.csv").read_bytes()
        assert out.getvalue().encode("utf-8") == expected

    def test_golden_per_layer_accuracy_bitwise(self, tmp_path):
        tasks = make_synthetic_stream(
            StreamConfig(
                num_tasks=3, train_per_class=60, test_per_class=7, input_dim=6,
                separation=4.0, seed=0,
            )
        )
        cfg = RunConfig(seed=0, widths=(8, 8, 8))
        write_run_artifacts(tmp_path, cfg, run_sequence(tasks, cfg))
        expected = (GOLDEN / "per_layer_accuracy_tiny_seed0.csv").read_bytes()
        assert (tmp_path / "per_layer_accuracy.csv").read_bytes() == expected

    def test_per_layer_reader_round_trips_every_bit(self, tmp_path):
        cfg = tiny_config(6, widths=(8, 8, 8))
        result = run_sequence(tiny_stream(6), cfg)
        write_run_artifacts(tmp_path, cfg, result)
        read = read_per_layer_csv(tmp_path / "per_layer_accuracy.csv", *result.accuracy.shape[:2])
        assert read.tobytes() == result.accuracy.tobytes()

    # (L, T) is the run's layer and task count, from its manifest
    @pytest.mark.parametrize("data, shape, named", [
        (b"", (1, 1), ":1: header '' has fewer than 3 fields"),
        (b"after_task,eval_task,layer,accuracy\n", (1, 1),
         ": 0 accuracy lines, but a run of 1 tasks and 1 layers writes 1"),
        (b"after_task,eval_task,layer,accuracy\n1,1,0,0.5\n1,1,1,0.5\n2,1,0,0.5\n", (2, 2),
         ": 3 accuracy lines, but a run of 2 tasks and 2 layers writes 6"),
        (b"after_task,eval_task,layer,accuracy\n1,1,0,0.5\n1,1,2,0.5\n", (2, 1),
         ":3: found '1,1,2,0.5', but entrocl writes '1,1,1,0.5'"),
        (b"after_task,eval_task,layer,accuracy\n1,1,0,0.5\n2,2,0,0.5\n", (1, 2),
         ": 2 accuracy lines, but a run of 2 tasks and 1 layers writes 3"),
        (b"after_task,eval_task,layer,accuracy\n1,1,0,0.5,0\n", (1, 1),
         ":2: expected 4 fields, got 5"),
        (b"after_task,eval_task,layer,accuracy\n1,1,0,-0.5\n", (1, 1),
         ":2: accuracy -0.5 is not in"),
        # float() reads 0.5_0 as 0.5
        (b"after_task,eval_task,layer,accuracy\n1,1,0,0.5_0\n", (1, 1),
         ":2: a field holds '_' or a non-ASCII character"),
        (b"after_task,eval_task,layer,accuracy\n1,1,0,0.5", (1, 1),
         ":2: line does not end in a newline"),
    ], ids=["empty", "no-rows", "ends-inside-a-boundary", "skipped-layer", "skipped-task",
            "extra-field", "negative", "underscore", "truncated"])
    def test_per_layer_reader_names_the_bad_line(self, tmp_path, data, shape, named):
        path = tmp_path / "per_layer_accuracy.csv"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(f"{path}{named}")):
            read_per_layer_csv(path, *shape)

    def test_per_layer_reader_fails_only_with_a_format_error(self, tmp_path):
        # a written file's lines, cut, repeated, reordered and mixed with junk:
        # the reader of its 2-layer, 3-task run returns only accuracies it
        # would write back to the same file, holds no more cells than twice
        # the lines, and raises nothing but FormatError
        rng = np.random.default_rng(0)
        accuracy = np.where(np.tri(3, dtype=bool), rng.integers(0, 5, (2, 3, 3)) / 4, np.nan)
        out = io.StringIO()
        training.write_per_layer_csv(out, accuracy)
        header, *written = out.getvalue().splitlines()
        junk = ["", "1", "1,1", "1,1,0", "1,1,0,0.5,0", "2,1,0,1.0", "x,y,z,nan", ",,,"]
        path = tmp_path / "per_layer_accuracy.csv"
        outcomes = set()
        for _ in range(400):
            lines = rng.choice(written + junk, rng.integers(0, 12)).tolist()
            for text in (lines, written[: rng.integers(0, len(written) + 1)]):
                path.write_text("".join(f"{line}\n" for line in [header, *text]))
                try:
                    read = read_per_layer_csv(path, 2, 3)
                except FormatError:
                    outcomes.add("rejected")
                    continue
                outcomes.add("read")
                assert read.size <= 2 * len(text)
                back = io.StringIO()
                training.write_per_layer_csv(back, read)
                assert back.getvalue() == path.read_text()
        assert outcomes == {"read", "rejected"}

    @pytest.mark.parametrize("widths", [(8, 8, 8), (8, 8, 8, 8)])
    def test_telemetry_reader_round_trips_every_bit(self, tmp_path, widths):
        cfg = tiny_config(6, widths=widths)
        result = run_sequence(tiny_stream(6), cfg)
        write_run_artifacts(tmp_path, cfg, result)
        read = read_telemetry_csv(tmp_path / "telemetry.csv", len(widths))
        assert read.dtype == result.telemetry.dtype
        assert read.tobytes() == result.telemetry.tobytes()

    def test_telemetry_reader_fails_only_with_a_format_error(self, tmp_path):
        # a written file's lines, cut, repeated, reordered and mixed with junk:
        # the 2-layer reader returns one finite record per 2 non-blank lines, a
        # cut file as the steps it holds, and raises nothing but FormatError
        # naming the file
        rng = np.random.default_rng(0)
        telemetry = np.zeros(3, training.telemetry_dtype(2))
        telemetry["task"] = [1, 1, 2]
        for name in TELEMETRY_FIELDS:
            telemetry[name] = rng.standard_normal((3, 2))
        out = io.StringIO()
        write_telemetry_csv(out, telemetry)
        header, *written = out.getvalue().splitlines()
        junk = ["", "1", "1,1", "1,1,0,1.0,2.0,3.0,4.0", "1,1,0,x,1,1,1,1", ",,,,,,,",
                "1,1,0,inf,1,1,1,1", "1,1,0,1e400,1,1,1,1", "1,1,0,nan,1,1,1,1",
                "1,99999999999999999999,0,1,1,1,1,1", "1,-3,0,1,1,1,1,1,1"]
        path = tmp_path / "telemetry.csv"
        outcomes = set()
        for _ in range(400):
            cut = written[: rng.integers(0, len(written) + 1)]
            for text in (rng.choice(written + junk, rng.integers(0, 12)).tolist(), cut):
                path.write_text("".join(f"{line}\n" for line in [header, *text]))
                try:
                    read = read_telemetry_csv(path, 2)
                except FormatError as exc:
                    assert str(exc).startswith(f"{path}")
                    outcomes.add("rejected")
                    continue
                outcomes.add("read")
                assert len(read) * 2 == sum(map(bool, text))
                assert all(np.isfinite(read[name]).all() for name in TELEMETRY_FIELDS)
                if text is cut:
                    assert read.tobytes() == telemetry[: len(read)].tobytes()
        assert outcomes == {"read", "rejected"}

    def test_artifact_files_written(self, tmp_path):
        cfg = tiny_config(7)
        write_run_artifacts(tmp_path / "run", cfg, run_sequence(tiny_stream(7), cfg))
        names = [name for name, _, _ in training.RUN_ARTIFACTS]
        assert names == ["manifest.json", "accuracy_matrix.csv", "per_layer_accuracy.csv",
                         "telemetry.csv", "summary.json"]
        assert sorted(path.name for path in (tmp_path / "run").iterdir()) == sorted(names)

    def test_summary_fields(self):
        tasks = tiny_stream(8)
        result = run_sequence(tasks, tiny_config(8))
        summary = result.summary
        assert set(summary) == {
            "acc_final",
            "acc_final_per_head",
            "bwt",
            "average_forgetting",
            "entropy_spread_final",
            "delta_t_per_task",
            "runtime_seconds",
        }
        assert len(summary["delta_t_per_task"]) == 3
        assert summary["acc_final_per_head"] == [
            final_average_accuracy(grid) for grid in result.accuracy
        ]
        assert summary["acc_final_per_head"][-1] == summary["acc_final"]
        assert summary["acc_final"] == pytest.approx(
            final_average_accuracy(result.accuracy[-1])
        )
