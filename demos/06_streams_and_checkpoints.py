"""Data plumbing: CSV round trips, IDX streams, and parameter checkpoints."""

import struct
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from entrocl import (
    LayeredNet,
    StreamConfig,
    load_checkpoint,
    make_stream,
    make_synthetic_stream,
    save_checkpoint,
    save_stream_csv,
)

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

    # checkpoint: JSON header line + little-endian float64 payload
    net = LayeredNet.init(4, (8, 8), 3, seed=9)
    save_checkpoint(net, workdir / "net.ckpt")
    restored = load_checkpoint(workdir / "net.ckpt")
    identical = all(
        np.array_equal(a, b)
        for (_, a), (_, b) in zip(net.parameters(), restored.parameters())
    )
    print("checkpoint round trip exact:", identical)
    print("artifacts under:", workdir)
