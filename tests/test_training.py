import io
import math
from pathlib import Path

import numpy as np
import pytest

from entrocl import ConfigError, training
from entrocl.metrics import final_average_accuracy, write_accuracy_csv
from entrocl.modulation import alpha_from_accuracies
from entrocl.streams import StreamConfig, TaskSpec, make_synthetic_stream
from entrocl.training import (
    TELEMETRY_FIELDS,
    AdamState,
    RunConfig,
    adam_step,
    init_state,
    run_sequence,
    run_task,
    sgd_step,
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
            adam_step(flat, g, moments, lr=lr, wd=wd, beta1=b1, beta2=b2, eps=eps)
            # the update written with whole-array temporaries
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

    def test_sgd_step(self):
        flat = np.asarray([1.0])
        sgd_step(flat, np.asarray([0.5]), lr=0.1, wd=0.0)
        assert float(flat[0]) == pytest.approx(0.95)


class TestRunTask:
    def test_alpha_stays_neutral_on_first_task(self):
        tasks = tiny_stream(0)
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        initial = state.modulators
        run_task(state, tasks[0])
        assert state.modulators is initial  # set at task boundaries, not per step
        assert state.modulators.alpha == (1.0, 1.0)

    def test_alpha_refreshes_from_second_task(self):
        tasks = tiny_stream(0)
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        run_task(state, tasks[0])
        run_task(state, tasks[1])
        assert state.modulators.source_accuracies  # populated at task 2
        alpha, _, _, _ = alpha_from_accuracies(state.modulators.source_accuracies)
        assert state.modulators.alpha == alpha

    def test_alpha_forced_neutral_when_switch_off(self):
        tasks = tiny_stream(0)
        cfg = tiny_config(0, enable_adaptive_training=False)
        state = init_state(cfg, 8, 6)
        for task in tasks:
            run_task(state, task)
        assert state.modulators.alpha == (1.0, 1.0)

    def test_task_ids_must_increase(self):
        tasks = tiny_stream(0)
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        run_task(state, tasks[0])
        with pytest.raises(ConfigError):
            run_task(state, tasks[0])

    def test_invalid_config_is_rejected_before_any_work(self):
        cfg = tiny_config(0, learning_rate=-1.0)
        with pytest.raises(ConfigError, match="learning rate"):
            init_state(cfg, 8, 6)
        with pytest.raises(ConfigError, match="learning rate"):
            run_sequence(tiny_stream(0), cfg)

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be nonnegative, got -1"):
            init_state(tiny_config(-1), 8, 6)

    def test_state_binds_its_config(self):
        cfg = tiny_config(0)
        state = init_state(cfg, 8, 6)
        assert state.cfg is cfg
        with pytest.raises(AttributeError):
            state.cfg.learning_rate = -1.0  # frozen: validated once, never edited

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

    def test_zero_example_task_rejected(self):
        tasks = tiny_stream(0)
        empty = TaskSpec(
            task_id=4,
            class_ids=(8, 9),
            train_x=np.zeros((0, 8)),
            train_y=np.zeros(0, dtype=np.int64),
            test_x=np.zeros((0, 8)),
            test_y=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ConfigError):
            run_sequence(tasks + [empty], tiny_config(0))

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

    def test_artifact_files_written(self, tmp_path):
        cfg = tiny_config(7)
        write_run_artifacts(tmp_path / "run", cfg, run_sequence(tiny_stream(7), cfg))
        for name in (
            "manifest.json",
            "accuracy_matrix.csv",
            "per_layer_accuracy.csv",
            "telemetry.csv",
            "summary.json",
        ):
            assert (tmp_path / "run" / name).exists(), name

    def test_summary_fields(self):
        tasks = tiny_stream(8)
        result = run_sequence(tasks, tiny_config(8))
        summary = result.summary
        assert set(summary) == {
            "acc_final",
            "bwt",
            "average_forgetting",
            "entropy_spread_final",
            "delta_t_per_task",
            "runtime_seconds",
        }
        assert len(summary["delta_t_per_task"]) == 3
        assert summary["acc_final"] == pytest.approx(
            final_average_accuracy(result.accuracy[-1])
        )
