"""Sequential task training with replay mixing and layer-wise modulation.

One run works through a task stream in order. At each task boundary (from the
second task on) the per-layer accuracy modulators are refreshed from the
validation buffer; within a task, every optimizer step sees the current batch
concatenated with a replay batch, computes the modulated multi-head objective
on it, and then feeds the current-task examples into the reservoir buffer.
Everything stochastic draws from generators derived from the run seed, so a
run is a pure function of (config, stream).
"""

import json
import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .buffers import ReplayBuffer, ValidationBuffer, evaluate_layer_accuracies
from .errors import ConfigError, FormatError, require_finite
from .metrics import (
    average_forgetting,
    backward_transfer,
    cross_layer_entropy_spread,
    entropy_deviation,
    expect_written,
    final_average_accuracy,
    write_accuracy_csv,
)
from .model import LayeredNet, correct_counts, scoring_threads
from .modulation import ENTROPY_SIGNS, alpha_from_accuracies, composite_loss
from .streams import batches, read_csv_numbers

SPREAD_WINDOW = 50

# The per-layer columns of telemetry.csv, in order. A run's telemetry is one
# record array with a row per step: the task id and each of these as an (L,)
# float64 field.
TELEMETRY_FIELDS = ("entropy", "z", "gamma", "alpha", "loss")


def telemetry_dtype(num_layers):
    return np.dtype(
        [("task", np.int64)] + [(name, np.float64, (num_layers,)) for name in TELEMETRY_FIELDS]
    )


@dataclass(frozen=True)
class RunConfig:
    beta: float = 0.005
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    batch_size: int = 10
    buffer_batch_size: int = 64
    buffer_capacity: int = 200
    val_quota: int = 64
    enable_entropy_scaling: bool = True
    enable_adaptive_training: bool = True
    entropy_sign: str = "penalize"
    seed: int = 0
    widths: tuple = (64, 64, 64, 64)

    def __post_init__(self):
        require_finite(self)
        if self.beta < 0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.enable_entropy_scaling and self.beta == 0:
            raise ConfigError("entropy scaling needs beta > 0")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight decay must be nonnegative, got {self.weight_decay}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be positive, got {self.batch_size}")
        if self.buffer_batch_size < 0:
            raise ConfigError("buffer batch size must be nonnegative")
        if self.buffer_capacity < 1:
            raise ConfigError("buffer capacity must be positive")
        if self.val_quota < 1:
            raise ConfigError("validation quota must be positive")
        if self.entropy_sign not in ENTROPY_SIGNS:
            raise ConfigError(f"entropy_sign must be one of {ENTROPY_SIGNS}")
        if len(self.widths) < 2:
            raise ConfigError("need at least 2 layer widths")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"widths must be positive, got {self.widths}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


# adam_step walks the flat vector in cache-sized slices of this many entries
# (256 KiB), computing each update in two scratch vectors of one slice, so a step
# allocates nothing; for a 256-wide net (273k parameters) whole-vector temporaries
# made the step 2.6x slower than per-array updates on a 2-core x86-64 machine.
ADAM_SLICE = 1 << 15
# Adam's moment decay rates and denominator guard, fixed for every run
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moments of the flat parameters, step counter, ``adam_step`` scratch."""

    def __init__(self, flat):
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0
        self.scratch = np.empty((2, min(ADAM_SLICE, flat.size)))


def adam_step(flat, grad, moments, lr, wd):
    """Bias-corrected Adam with decoupled weight decay, in place on ``flat``.

    The decay multiplies parameters by (1 - lr*wd) before the Adam update, so
    the gradient path stays exactly the gradient of the loss. The update,
    ``p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)`` in
    that order of operations, with the ``ADAM_*`` constants as beta1, beta2 and
    eps, is elementwise, so slicing changes no bit of it.
    """
    moments.t += 1
    m_scale, v_scale = 1.0 - ADAM_BETA1**moments.t, 1.0 - ADAM_BETA2**moments.t
    for lo in range(0, flat.size, ADAM_SLICE):
        part = slice(lo, lo + ADAM_SLICE)
        p, g, m, v = flat[part], grad[part], moments.m[part], moments.v[part]
        step, denom = moments.scratch[:, : p.size]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v += step
        np.divide(v, v_scale, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        np.divide(m, m_scale, out=step)
        step *= lr
        step /= denom
        p *= 1.0 - lr * wd
        p -= step


@dataclass
class RunState:
    cfg: RunConfig  # checked when it was built; governs every task of the run
    net: LayeredNet
    moments: AdamState
    buffer: ReplayBuffer
    replay_x: np.ndarray  # (capacity, D) input of the example in each buffer slot
    replay_y: np.ndarray  # (capacity,) its label
    vbuf: ValidationBuffer
    rng: "np.random.Generator"  # a string, so numpy.random loads at the first default_rng
    alpha: tuple  # each layer's accuracy modulator, set at each task boundary
    telemetry: np.ndarray  # every step of every completed task, see TELEMETRY_FIELDS
    task_index: int = 0


def init_state(cfg, input_dim, num_classes):
    net = LayeredNet.init(input_dim, cfg.widths, num_classes, seed=cfg.seed)
    train_seq, buffer_seq = np.random.SeedSequence(cfg.seed).spawn(2)
    return RunState(
        cfg=cfg,
        net=net,
        moments=AdamState(net.flat),
        buffer=ReplayBuffer(cfg.buffer_capacity, np.random.default_rng(buffer_seq)),
        replay_x=np.zeros((cfg.buffer_capacity, input_dim)),
        replay_y=np.zeros(cfg.buffer_capacity, dtype=np.int64),
        vbuf=ValidationBuffer(cfg.val_quota),
        rng=np.random.default_rng(train_seq),
        alpha=(1.0,) * net.num_layers,
        telemetry=np.zeros(0, telemetry_dtype(net.num_layers)),
    )


def run_task(state, task):
    """Train one epoch on ``task`` under ``state.cfg``, per the outer-loop protocol."""
    cfg = state.cfg
    if task.task_id <= state.task_index:
        after = f" after {state.task_index}" if state.task_index else ""
        raise ConfigError(
            f"task ids must be positive and strictly increasing, got {task.task_id}{after}"
        )
    state.task_index = task.task_id
    num_layers = state.net.num_layers

    # the from-the-second-task guard: modulators need past-task validation data
    if cfg.enable_adaptive_training and state.vbuf.per_task:
        state.alpha = alpha_from_accuracies(evaluate_layer_accuracies(state.net, state.vbuf))

    gamma_override = None
    if not cfg.enable_entropy_scaling:
        gamma_override = (cfg.beta,) * num_layers

    # one row per batch that ``batches`` yields
    rows = np.zeros(-(-task.train_size // cfg.batch_size), telemetry_dtype(num_layers))
    # a diverging step overflows before the finite check below reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, (batch_x, batch_y) in enumerate(batches(task, cfg.batch_size, state.rng)):
            slots = state.buffer.sample(cfg.buffer_batch_size, state.rng)
            x = np.concatenate([batch_x, state.replay_x[slots]], axis=0)
            y = np.concatenate([batch_y, state.replay_y[slots]])

            objective = composite_loss(
                state.net.forward(x),
                y,
                alpha=state.alpha,
                beta=cfg.beta,
                entropy_sign=cfg.entropy_sign,
                gamma=gamma_override,
            )
            grad = T.backward(objective)
            if not (math.isfinite(objective.total) and np.isfinite(grad).all()):
                layer = _first_nonfinite_layer(state.net, objective)
                raise FloatingPointError(
                    f"step {len(state.telemetry) + i + 1} of task {task.task_id} diverged: "
                    f"objective {objective.total!r}, first non-finite layer {layer}"
                )
            adam_step(state.net.flat, grad, state.moments, cfg.learning_rate, cfg.weight_decay)

            # offer each example by its position in the run's stream, as a list
            # so that ``items`` keeps the very int objects offered (the traced
            # benchmark counts accepted offers by identity); the rows of the
            # offers that took a slot are copied into that slot
            seen = state.buffer.seen_count
            where = state.buffer.extend(list(range(seen, seen + len(batch_y))))
            kept = where < cfg.buffer_capacity
            state.replay_x[where[kept]] = batch_x[kept]
            state.replay_y[where[kept]] = batch_y[kept]
            stats = objective.entropy
            rows[i] = (
                task.task_id,
                stats.per_layer,
                stats.z,
                objective.gamma,
                objective.alpha,
                objective.layer_losses,
            )
    # a step checks the gradient it takes, not the update it makes
    if bad := np.count_nonzero(~np.isfinite(state.net.flat)):
        raise FloatingPointError(
            f"task {task.task_id} left {bad} of {state.net.flat.size} parameters "
            "non-finite after its last step"
        )

    state.telemetry = np.concatenate([state.telemetry, rows])
    state.vbuf.update(task.train_x, task.train_y, task.task_id, state.rng)
    return state


def _first_nonfinite_layer(net, objective):
    """The shallowest layer whose loss, entropy or block/head gradient (in
    ``net.grad``, where ``backward`` wrote it) is not finite."""
    for layer in range(net.num_layers):
        parts = [*net.grad_layers[layer],
                 [objective.layer_losses[layer], objective.entropy.per_layer[layer]]]
        if not all(np.isfinite(part).all() for part in parts):
            return layer
    return None


@dataclass
class RunResult:
    # [l, t-1, s-1]: head l's accuracy on task s after training task t, NaN for s > t;
    # accuracy[-1] is the reported (deepest-head) grid
    accuracy: np.ndarray
    telemetry: np.ndarray  # one row per step, see TELEMETRY_FIELDS
    summary: dict


def boundary_states(tasks, cfg):
    """Train ``tasks`` in order under ``cfg``, yielding the run's RunState after each task.

    The stream is checked before any task trains. The yielded state is the live
    one, which the next task goes on to train, so a caller that keeps a
    boundary's net copies ``state.net.flat``. A run is a pure function of
    (config, stream), so iterating again with the same ``tasks`` and ``cfg``
    yields the same bits: a boundary's net is replayed, never stored.
    """
    if len(tasks) < 2:
        raise ConfigError("a sequence needs at least 2 tasks")
    input_dim = tasks[0].train_x.shape[1]
    for task in tasks:
        if task.train_x.shape[1] != input_dim:
            raise ConfigError(f"task {task.task_id} has {task.train_x.shape[1]}-wide inputs, "
                              f"but task {tasks[0].task_id}'s are {input_dim}-wide")
    ids = [task.task_id for task in tasks]
    if ids[0] < 1 or any(a >= b for a, b in zip(ids, ids[1:])):
        raise ConfigError(f"task ids must be positive and strictly increasing, got {ids}")

    num_classes = max(max(task.class_ids) for task in tasks) + 1
    state = init_state(cfg, input_dim, num_classes)
    for task in tasks:
        run_task(state, task)
        yield state


def run_sequence(tasks, cfg, threads=None):
    """Run the whole stream and evaluate after every task; returns a RunResult.

    Each task boundary that ``boundary_states`` yields scores every seen task's
    test split in one ``correct_counts`` call on ``threads`` threads, by default
    ``scoring_threads()``'s choice for a process that runs alone.
    """
    accuracy = np.full((len(cfg.widths), len(tasks), len(tasks)), np.nan)
    threads = scoring_threads() if threads is None else threads
    test_rows = np.array([len(task.test_y) for task in tasks])[:, None]
    started = time.perf_counter()
    for t, state in enumerate(boundary_states(tasks, cfg)):
        splits = [(seen.test_x, seen.test_y) for seen in tasks[: t + 1]]
        counts = correct_counts(state.net, splits, threads)
        accuracy[:, t, : t + 1] = (counts / test_rows[: t + 1]).T

    summary = build_summary(accuracy, state.telemetry, time.perf_counter() - started)
    return RunResult(accuracy, state.telemetry, summary)


def build_summary(accuracy, telemetry, runtime_seconds):
    """The run's metrics from its (L, T, T) accuracies and its telemetry. Every
    metric but ``acc_final_per_head`` reads the deepest head's grid."""
    grid = accuracy[-1]
    tasks = telemetry["task"]
    per_task = [telemetry["entropy"][tasks == t] for t in np.unique(tasks)]
    return {
        "acc_final": final_average_accuracy(grid),
        "acc_final_per_head": [final_average_accuracy(head) for head in accuracy],
        "bwt": backward_transfer(grid),
        "average_forgetting": average_forgetting(grid),
        "entropy_spread_final": cross_layer_entropy_spread(per_task[-1], SPREAD_WINDOW),
        "delta_t_per_task": [
            entropy_deviation(rows[-SPREAD_WINDOW:].mean(axis=0)) for rows in per_task
        ],
        "runtime_seconds": runtime_seconds,
    }


def write_telemetry_csv(fh, telemetry):
    """One line per step and layer. ``tolist`` gives Python floats, whose
    ``repr`` round-trips exactly."""
    fh.write(",".join(("step", "task", "layer", *TELEMETRY_FIELDS)) + "\n")
    tasks = telemetry["task"].tolist()
    columns = [telemetry[name].tolist() for name in TELEMETRY_FIELDS]
    for step, (task, *fields) in enumerate(zip(tasks, *columns), start=1):
        for layer, values in enumerate(zip(*fields)):
            fh.write(f"{step},{task},{layer}," + ",".join(map(repr, values)) + "\n")


def write_per_layer_csv(fh, accuracy):
    """One line per task boundary t, seen task s <= t and layer, in that
    order: the layer's head's accuracy on task s after task t."""
    fh.write("after_task,eval_task,layer,accuracy\n")
    for t, row in enumerate(accuracy.transpose(1, 2, 0).tolist(), start=1):
        for s, layers in enumerate(row[:t], start=1):
            for layer, acc in enumerate(layers):
                fh.write(f"{t},{s},{layer},{acc!r}\n")


def read_per_layer_csv(path, layers, tasks):
    """The (L, T, T) accuracies of a run's per_layer_accuracy.csv, NaN above
    each diagonal. The file must hold its L*T*(T+1)/2 lines of four fields,
    counted before the grid is allocated, be exactly what ``write_per_layer_csv``
    writes for the accuracies in their last fields (``expect_written``), and
    hold only accuracies in [0, 1]."""
    header, _, values = read_csv_numbers(path, 3)
    if len(header) != 4:
        raise FormatError(f"{path}:1: header {','.join(header)!r} does not have 4 fields")
    count = layers * tasks * (tasks + 1) // 2
    if len(values) != count:
        raise FormatError(f"{path}: {len(values)} accuracy lines, but a run of {tasks} tasks "
                          f"and {layers} layers writes {count}")
    accuracy = np.full((tasks, tasks, layers), np.nan)
    accuracy[np.tril_indices(tasks)] = values.reshape(-1, layers)
    accuracy = accuracy.transpose(2, 0, 1)
    expect_written(path, write_per_layer_csv, accuracy)
    # the file is what the writer writes, so value i is on line i + 2
    if bad := np.flatnonzero((values < 0) | (values > 1)).tolist():
        raise FormatError(f"{path}:{bad[0] + 2}: accuracy {values[bad[0], 0].item()!r} "
                          "is not in [0, 1]")
    return accuracy


def read_telemetry_csv(path, layers):
    """The record array a run's telemetry.csv was written from, ``layers`` lines a
    step: each line's task and the values after its layer. The step and layer
    columns, the header and each cell's spelling are left to ``expect_written``."""
    _, ints, values = read_csv_numbers(path, 3)
    if not len(values) or len(values) % layers:
        raise FormatError(f"{path}: {len(values)} telemetry lines, not whole steps of {layers}")
    telemetry = np.zeros(len(values) // layers, telemetry_dtype(layers))
    telemetry["task"] = ints[::layers, 1]
    for name, column in zip(TELEMETRY_FIELDS, values.T):
        telemetry[name] = column.reshape(-1, layers)
    return telemetry


def write_json(fh, value):
    """A JSON artifact (a run's manifest.json and summary.json, a plan's plan.json):
    ``value`` with two-space indents and sorted keys, then a newline."""
    json.dump(value, fh, indent=2, sort_keys=True)
    fh.write("\n")


def write_manifest(fh, cfg, extra=None):
    """A run's manifest.json: its config, its seed, the version and ``extra``'s keys."""
    manifest = {"run_config": asdict(cfg), "seed": cfg.seed, "version": __version__}
    write_json(fh, {**manifest, **(extra or {})})


# A run's files: each one's name, writer and the writer's values from (cfg, RunResult,
# manifest extra). write_run_artifacts writes them and ``entrocl verify`` renders them.
RUN_ARTIFACTS = (
    ("manifest.json", write_manifest, lambda cfg, result, extra: (cfg, extra)),
    ("accuracy_matrix.csv", write_accuracy_csv, lambda cfg, result, extra: (result.accuracy[-1],)),
    ("per_layer_accuracy.csv", write_per_layer_csv, lambda cfg, result, extra: (result.accuracy,)),
    ("telemetry.csv", write_telemetry_csv, lambda cfg, result, extra: (result.telemetry,)),
    ("summary.json", write_json, lambda cfg, result, extra: (result.summary,)),
)


def write_run_artifacts(out_dir, cfg, result, manifest_extra=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write, values in RUN_ARTIFACTS:
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            write(fh, *values(cfg, result, manifest_extra))
