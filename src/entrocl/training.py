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
import time
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .buffers import ReplayBuffer, ValidationBuffer, evaluate_layer_accuracies
from .errors import ConfigError, require_finite
from .metrics import (
    average_forgetting,
    backward_transfer,
    cross_layer_entropy_spread,
    entropy_deviation,
    final_average_accuracy,
    write_accuracy_csv,
)
from .model import LayeredNet, layer_accuracies
from .modulation import ENTROPY_SIGNS, ModulatorState, alpha_from_accuracies, composite_loss
from .streams import batches

SPREAD_WINDOW = 50

OPTIMIZERS = ("adam", "sgd")

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
    optimizer: str = "adam"

    def validate(self):
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
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


# adam_step walks the flat vector in cache-sized slices of this many entries
# (256 KiB), computing each update in two scratch vectors of one slice, so a step
# allocates nothing; for a 256-wide net (273k parameters) whole-vector temporaries
# made the step 2.6x slower than per-array updates on a 2-core x86-64 machine.
ADAM_SLICE = 1 << 15


class AdamState:
    """First/second moments of the flat parameters, step counter, ``adam_step`` scratch."""

    def __init__(self, flat):
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        self.t = 0
        self.scratch = np.empty((2, min(ADAM_SLICE, flat.size)))


def adam_step(flat, grad, moments, lr, wd, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam with decoupled weight decay, in place on ``flat``.

    The decay multiplies parameters by (1 - lr*wd) before the Adam update, so
    the gradient path stays exactly the gradient of the loss. The update,
    ``p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)`` in
    that order of operations, is elementwise, so slicing changes no bit of it.
    """
    moments.t += 1
    m_scale, v_scale = 1.0 - beta1**moments.t, 1.0 - beta2**moments.t
    for lo in range(0, flat.size, ADAM_SLICE):
        part = slice(lo, lo + ADAM_SLICE)
        p, g, m, v = flat[part], grad[part], moments.m[part], moments.v[part]
        step, denom = moments.scratch[:, : p.size]
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=step)
        m += step
        v *= beta2
        np.multiply(g, 1.0 - beta2, out=step)
        step *= g
        v += step
        np.divide(v, v_scale, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m, m_scale, out=step)
        step *= lr
        step /= denom
        if wd:
            p *= 1.0 - lr * wd
        p -= step


def sgd_step(flat, grad, lr, wd):
    if wd:
        flat *= 1.0 - lr * wd
    flat -= lr * grad


@dataclass
class RunState:
    cfg: RunConfig  # validated by init_state; governs every task of the run
    net: LayeredNet
    moments: AdamState
    buffer: ReplayBuffer
    replay_x: np.ndarray  # (capacity, D) input of the example in each buffer slot
    replay_y: np.ndarray  # (capacity,) its label
    vbuf: ValidationBuffer
    rng: np.random.Generator
    modulators: ModulatorState
    telemetry: np.ndarray  # every step of every completed task, see TELEMETRY_FIELDS
    task_index: int = 0


def init_state(cfg, input_dim, num_classes):
    cfg.validate()
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
        modulators=ModulatorState(
            alpha=(1.0,) * net.num_layers, source_accuracies=(), mu_acc=0.0, sigma_acc=0.0
        ),
        telemetry=np.zeros(0, telemetry_dtype(net.num_layers)),
    )


def run_task(state, task):
    """Train one epoch on ``task`` under ``state.cfg``, per the outer-loop protocol."""
    cfg = state.cfg
    if task.train_size == 0:
        raise ConfigError(f"task {task.task_id} has no training examples")
    if task.task_id <= state.task_index:
        raise ConfigError(
            f"task ids must be strictly increasing, got {task.task_id} after "
            f"{state.task_index}"
        )
    state.task_index = task.task_id
    num_layers = state.net.num_layers

    # the from-the-second-task guard: modulators need past-task validation data
    if cfg.enable_adaptive_training and state.vbuf.per_task:
        accuracies = evaluate_layer_accuracies(state.net, state.vbuf)
        alpha, mu_acc, sigma_acc, _ = alpha_from_accuracies(accuracies)
        state.modulators = ModulatorState(alpha, tuple(accuracies), mu_acc, sigma_acc)

    gamma_override = None
    if not cfg.enable_entropy_scaling:
        gamma_override = (cfg.beta,) * num_layers

    # one row per batch that ``batches`` yields
    rows = np.zeros(-(-task.train_size // cfg.batch_size), telemetry_dtype(num_layers))
    # a diverging step overflows before the finite check below reports it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, (batch_x, batch_y) in enumerate(batches(task, cfg.batch_size, state.rng)):
            slots = state.buffer.sample(cfg.buffer_batch_size, state.rng)
            if len(slots):
                x = np.concatenate([batch_x, state.replay_x[slots]], axis=0)
                y = np.concatenate([batch_y, state.replay_y[slots]])
            else:
                x, y = batch_x, batch_y

            objective = composite_loss(
                state.net.forward(x),
                y,
                alpha=state.modulators.alpha,
                beta=cfg.beta,
                entropy_sign=cfg.entropy_sign,
                gamma=gamma_override,
            )
            grad = T.backward(objective)
            if not (np.isfinite(objective.total) and np.isfinite(grad).all()):
                layer = _first_nonfinite_layer(state.net, grad, objective)
                raise FloatingPointError(
                    f"step {len(state.telemetry) + i + 1} of task {task.task_id} diverged: "
                    f"objective {objective.total!r}, first non-finite layer {layer}"
                )
            if cfg.optimizer == "adam":
                adam_step(state.net.flat, grad, state.moments, cfg.learning_rate, cfg.weight_decay)
            else:
                sgd_step(state.net.flat, grad, cfg.learning_rate, cfg.weight_decay)

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

    state.telemetry = np.concatenate([state.telemetry, rows])
    state.vbuf.update(task.train_x, task.train_y, task.task_id, state.rng)
    return state


def _first_nonfinite_layer(net, grad, objective):
    """The shallowest layer whose loss, entropy or block/head gradient is not finite."""
    for layer in range(net.num_layers):
        parts = net.layer_views(grad, layer)
        parts.append([objective.layer_losses[layer], objective.entropy.per_layer[layer]])
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


def run_sequence(tasks, cfg):
    """Run the whole stream and evaluate after every task; returns a RunResult."""
    if len(tasks) < 2:
        raise ConfigError("a sequence needs at least 2 tasks")
    for task in tasks:
        if task.train_size == 0:
            raise ConfigError(f"task {task.task_id} has no training examples")
    ids = [task.task_id for task in tasks]
    if ids != sorted(ids) or len(set(ids)) != len(ids):
        raise ConfigError(f"task ids must be strictly increasing, got {ids}")

    input_dim = tasks[0].train_x.shape[1]
    num_classes = max(max(task.class_ids) for task in tasks) + 1
    state = init_state(cfg, input_dim, num_classes)
    accuracy = np.full((state.net.num_layers, len(tasks), len(tasks)), np.nan)

    started = time.perf_counter()
    for t, task in enumerate(tasks):
        run_task(state, task)
        for s, seen in enumerate(tasks[: t + 1]):
            accuracy[:, t, s] = layer_accuracies(state.net, seen.test_x, seen.test_y)

    summary = build_summary(accuracy[-1], state.telemetry, time.perf_counter() - started)
    return RunResult(accuracy, state.telemetry, summary)


def build_summary(grid, telemetry, runtime_seconds):
    """The run's metrics from its deepest-head (T, T) accuracy grid and its telemetry."""
    tasks = telemetry["task"]
    per_task = [telemetry["entropy"][tasks == t] for t in np.unique(tasks)]
    return {
        "acc_final": final_average_accuracy(grid),
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


def write_run_artifacts(out_dir, cfg, result, manifest_extra=None):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {
        "run_config": asdict(cfg),
        "seed": cfg.seed,
        "version": __version__,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    with open(out_dir / "accuracy_matrix.csv", "w", encoding="utf-8") as fh:
        write_accuracy_csv(fh, result.accuracy[-1])
    with open(out_dir / "per_layer_accuracy.csv", "w", encoding="utf-8") as fh:
        fh.write("after_task,eval_task,layer,accuracy\n")
        for t, row in enumerate(result.accuracy.transpose(1, 2, 0).tolist(), start=1):
            for s, layers in enumerate(row[:t], start=1):
                for layer, acc in enumerate(layers):
                    fh.write(f"{t},{s},{layer},{acc!r}\n")
    with open(out_dir / "telemetry.csv", "w", encoding="utf-8") as fh:
        write_telemetry_csv(fh, result.telemetry)
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(result.summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
