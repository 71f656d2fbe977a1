"""Data plumbing: CSV round trips, IDX streams, and a task boundary's net replayed."""

import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from entrocl import (
    RunConfig,
    StreamConfig,
    boundary_states,
    make_stream,
    make_synthetic_stream,
    run_sequence,
    save_stream_csv,
)
from entrocl.model import correct_counts

# the work directory and everything in it are removed when the block ends
with tempfile.TemporaryDirectory(prefix="entrocl_demo_") as tmp:
    workdir = Path(tmp)

    # CSV round trip: a stream serializes to train.csv/test.csv and reloads exactly
    cfg = StreamConfig(num_tasks=2, classes_per_task=2, train_per_class=8,
                       test_per_class=3, input_dim=4, seed=5)
    tasks = make_synthetic_stream(cfg)
    save_stream_csv(tasks, workdir / "stream")
    reloaded = make_stream(replace(cfg, source="csv", csv_path=str(workdir / "stream")))
    exact = all(
        np.array_equal(a.train_x, b.train_x) and np.array_equal(a.test_y, b.test_y)
        for a, b in zip(tasks, reloaded)
    )
    print("csv round trip exact:", exact)

    # IDX: craft a 10-image file pair in the big-endian format and load it as a
    # run does; each class splits 80/20 into train and test rows
    images = np.arange(10 * 4 * 4, dtype=np.uint8).reshape(10, 4, 4)
    (workdir / "img.idx").write_bytes(
        struct.pack(">IIII", 0x00000803, 10, 4, 4) + images.tobytes()
    )
    (workdir / "lab.idx").write_bytes(struct.pack(">II", 0x00000801, 10) + bytes([0, 1] * 5))
    (task,) = make_stream(StreamConfig(source="idx", num_tasks=1, classes_per_task=2,
                                       idx_images=str(workdir / "img.idx"),
                                       idx_labels=str(workdir / "lab.idx")))
    x = np.concatenate([task.train_x, task.test_x])
    print(f"idx loaded: {task.train_x.shape} train, {task.test_x.shape} test, labels "
          f"{task.train_y.tolist()}, range [{x.min():.3f}, {x.max():.3f}]")

    # boundary replay: a run is a pure function of (config, stream), so the net
    # after any task is trained again rather than stored; boundary_states yields
    # the run's live state after each task, so a net to keep is a copy of flat
    run_cfg = RunConfig(seed=9, widths=(8, 8), buffer_capacity=20)
    result = run_sequence(reloaded, run_cfg)
    after_task_1 = next(boundary_states(reloaded, run_cfg)).net
    first = reloaded[0]
    (correct,) = correct_counts(after_task_1, [(first.test_x, first.test_y)])
    replayed, recorded = (correct / len(first.test_y)).tolist(), result.accuracy[:, 0, 0].tolist()
    print(f"each head's task 1 accuracy after task 1: replayed {replayed}, run {recorded}")
    print("boundary replay exact:", replayed == recorded)
    print("artifacts under:", workdir)
