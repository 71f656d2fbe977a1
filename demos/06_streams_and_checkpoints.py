"""Data plumbing: CSV round trips, IDX parsing, and parameter checkpoints."""

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
from entrocl.streams import parse_idx_images, parse_idx_labels

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

    # IDX: craft a 2-image file pair in the big-endian format and parse it back
    images = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4)
    (workdir / "img.idx").write_bytes(
        struct.pack(">IIII", 0x00000803, 2, 4, 4) + images.tobytes()
    )
    (workdir / "lab.idx").write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
    x = parse_idx_images(workdir / "img.idx")
    y = parse_idx_labels(workdir / "lab.idx")
    print("idx parsed:", x.shape, "labels", y.tolist(), "range",
          (round(x.min(), 3), round(x.max(), 3)))

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
