"""Regenerate the frozen regression fixtures in this directory.

Run from the repository root after an intentional behavior change:

    python3 tests/golden/make_goldens.py

Every value here was cross-checked against independent oracles (finite
differences, closed forms) before being frozen; treat diffs as regressions
unless the change is deliberate.
"""

import io
import json
import tempfile
from pathlib import Path

import numpy as np

from entrocl import LayeredNet, ValidationBuffer, composite_loss, evaluate_layer_accuracies
from entrocl.metrics import write_accuracy_csv
from entrocl.streams import StreamConfig, make_synthetic_stream
from entrocl.training import RunConfig, run_sequence, write_run_artifacts, write_telemetry_csv

HERE = Path(__file__).parent


def golden_model():
    net = LayeredNet.init(6, (8, 8), 4, seed=42)
    x = np.random.default_rng(61).standard_normal((5, 6))
    labels = [0, 1, 2, 3, 0]
    record = net.forward(x)
    objective = composite_loss(record, labels, alpha=(1.0, 1.0), beta=0.005)
    payload = {
        "input": x.tolist(),
        "labels": labels,
        "logits": [z.tolist() for z in record.logits],
        "predictions": [p.argmax(axis=1).tolist() for p in record.probs],
        "loss_total": objective.total,
        "gamma": list(objective.gamma),
        "entropies": list(objective.entropy.per_layer),
    }
    (HERE / "model_seed42.json").write_text(json.dumps(payload, indent=1))


def golden_validation_accuracies():
    net = LayeredNet.init(32, (16, 16), 10, seed=42)
    tasks = make_synthetic_stream(StreamConfig(seed=7, train_per_class=40, test_per_class=10))
    vbuf = ValidationBuffer(per_task_quota=20)
    rng = np.random.default_rng(13)
    for task in tasks[:3]:
        vbuf.update(task.train_x, task.train_y, task.task_id, rng)
    payload = {"accuracies": evaluate_layer_accuracies(net, vbuf)}
    (HERE / "vbuf_seed42.json").write_text(json.dumps(payload, indent=1))


def golden_full_run_matrix():
    tasks = make_synthetic_stream(StreamConfig(seed=0))
    result = run_sequence(tasks, RunConfig(seed=0))
    buf = io.StringIO()
    write_accuracy_csv(buf, result.accuracy[-1])
    (HERE / "accuracy_matrix_full_seed0.csv").write_text(buf.getvalue())


def golden_telemetry():
    tasks = make_synthetic_stream(
        StreamConfig(num_tasks=2, train_per_class=24, test_per_class=5, input_dim=6, seed=0)
    )
    result = run_sequence(tasks, RunConfig(seed=0, widths=(8, 8)))
    buf = io.StringIO()
    write_telemetry_csv(buf, result.telemetry)
    (HERE / "telemetry_tiny_seed0.csv").write_text(buf.getvalue())


def golden_per_layer_accuracy():
    """Three tasks and three heads through the artifact writer, so every loop of
    per_layer_accuracy.csv is pinned."""
    tasks = make_synthetic_stream(
        StreamConfig(
            num_tasks=3, train_per_class=60, test_per_class=7, input_dim=6,
            separation=4.0, seed=0,
        )
    )
    cfg = RunConfig(seed=0, widths=(8, 8, 8))
    with tempfile.TemporaryDirectory() as tmp:
        write_run_artifacts(tmp, cfg, run_sequence(tasks, cfg))
        data = (Path(tmp) / "per_layer_accuracy.csv").read_bytes()
    (HERE / "per_layer_accuracy_tiny_seed0.csv").write_bytes(data)


if __name__ == "__main__":
    golden_model()
    golden_validation_accuracies()
    golden_full_run_matrix()
    golden_telemetry()
    golden_per_layer_accuracy()
    print("goldens written to", HERE)
