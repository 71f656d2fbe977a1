import re
import struct
import tracemalloc

import numpy as np
import pytest

from entrocl import ConfigError, FormatError
from entrocl.streams import (
    StreamConfig,
    _read_examples_csv,
    batches,
    load_csv_stream,
    load_idx_stream,
    load_source,
    make_stream,
    make_synthetic_stream,
    parse_idx_images,
    parse_idx_labels,
    save_stream_csv,
)


def small_cfg(**overrides):
    base = dict(
        num_tasks=3,
        classes_per_task=2,
        train_per_class=25,
        test_per_class=5,
        input_dim=4,
        seed=11,
    )
    base.update(overrides)
    return StreamConfig(**base)


class TestSyntheticStream:
    def test_zero_noise_collapses_to_class_means(self):
        tasks = make_synthetic_stream(small_cfg(noise_scale=0.0))
        for task in tasks:
            for c in task.class_ids:
                rows = task.train_x[task.train_y == c]
                assert np.allclose(rows, rows[0])
        # nearest-mean rule is exact when noise vanishes
        means = {
            c: task.train_x[task.train_y == c][0]
            for task in tasks
            for c in task.class_ids
        }
        for task in tasks:
            for x, y in zip(task.test_x, task.test_y):
                dists = {c: np.linalg.norm(x - m) for c, m in means.items()}
                assert min(dists, key=dists.get) == y

    def test_same_seed_is_bitwise_identical(self):
        a = make_synthetic_stream(small_cfg())
        b = make_synthetic_stream(small_cfg())
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.train_x, tb.train_x)
            assert np.array_equal(ta.test_y, tb.test_y)

    def test_ordered_class_split(self):
        tasks = make_synthetic_stream(
            StreamConfig(num_tasks=5, classes_per_task=2, train_per_class=5,
                         test_per_class=2, input_dim=3, seed=0)
        )
        assert [t.class_ids for t in tasks] == [
            (0, 1), (2, 3), (4, 5), (6, 7), (8, 9)
        ]

    def test_disjoint_and_exhaustive(self):
        tasks = make_synthetic_stream(small_cfg())
        seen = set()
        for task in tasks:
            assert not (seen & set(task.class_ids))
            seen |= set(task.class_ids)
        assert seen == set(range(6))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            make_synthetic_stream(small_cfg(noise_scale=-1.0))
        with pytest.raises(ConfigError):
            make_synthetic_stream(small_cfg(num_tasks=0))

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"seed": -1}, "seed must be nonnegative, got -1"),
            ({"idx_labels": "labels.idx"}, "IDX paths given but --stream is not 'idx'"),
            ({"csv_path": "stream"}, "--csv-path given but --stream is not 'csv'"),
        ],
        ids=["negative-seed", "idx-path", "csv-path"],
    )
    def test_make_stream_rejects_config(self, overrides, match):
        with pytest.raises(ConfigError, match=match):
            make_stream(small_cfg(**overrides))


class TestBatches:
    def test_chunk_sizes(self):
        task = make_synthetic_stream(small_cfg())[0]  # 50 train examples
        sizes = [len(y) for _, y in batches(task, 20, np.random.default_rng(0))]
        assert sizes == [20, 20, 10]

    def test_single_example_batches(self):
        task = make_synthetic_stream(small_cfg())[0]
        sizes = [len(y) for _, y in batches(task, 1, np.random.default_rng(0))]
        assert sizes == [1] * 50

    def test_deterministic_order(self):
        task = make_synthetic_stream(small_cfg())[0]
        a = [y.tolist() for _, y in batches(task, 7, np.random.default_rng(5))]
        b = [y.tolist() for _, y in batches(task, 7, np.random.default_rng(5))]
        assert a == b

    def test_single_epoch_coverage(self):
        task = make_synthetic_stream(small_cfg())[0]
        collected = []
        for x, y in batches(task, 8, np.random.default_rng(2)):
            collected.extend(x[:, 0].tolist())
        assert sorted(collected) == sorted(task.train_x[:, 0].tolist())

    def test_batch_size_must_be_positive(self):
        task = make_synthetic_stream(small_cfg())[0]
        with pytest.raises(ValueError):
            list(batches(task, 0, np.random.default_rng(0)))


def write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    image_path = tmp_path / "images.idx"
    label_path = tmp_path / "labels.idx"
    image_path.write_bytes(
        struct.pack(">IIII", 0x00000803, n, rows, cols) + images.tobytes()
    )
    label_path.write_bytes(struct.pack(">II", 0x00000801, n) + labels.tobytes())
    return image_path, label_path


# each IDX file kind: its parser, its magic and the dimensions of a small valid file
IDX_KINDS = {
    "image": (parse_idx_images, 0x00000803, (2, 2, 2)),
    "label": (parse_idx_labels, 0x00000801, (3,)),
}


def idx_bytes(magic, dims, payload_size):
    return struct.pack(f">{1 + len(dims)}I", magic, *dims) + bytes(int(payload_size))


def per_class_reference(per_class, classes_per_task):
    """Each task's (train_x, train_y, test_x, test_y), concatenated class by class
    from a list of every class's (train rows, test rows)."""
    tasks = []
    for lo in range(0, len(per_class), classes_per_task):
        ids = range(lo, lo + classes_per_task)
        arrays = []
        for split in (0, 1):
            arrays.append(np.concatenate([per_class[c][split] for c in ids]))
            arrays.append(np.concatenate(
                [np.full(len(per_class[c][split]), c, dtype=np.int64) for c in ids]
            ))
        tasks.append(arrays)
    return tasks


def assert_same_bytes(tasks, reference):
    assert len(tasks) == len(reference)
    for task, arrays in zip(tasks, reference):
        for got, want in zip((task.train_x, task.train_y, task.test_x, task.test_y), arrays):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


def task_arrays(tasks):
    return [(t.train_x, t.train_y, t.test_x, t.test_y) for t in tasks]


class TestIdx:
    def test_two_image_fixture(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(2, 28, 28))
        image_path, label_path = write_idx_pair(tmp_path, images, [3, 7])
        x = parse_idx_images(image_path)
        y = parse_idx_labels(label_path)
        assert x.shape == (2, 784)
        assert np.all((x >= 0.0) & (x <= 1.0))
        assert np.allclose(x[0], images[0].reshape(-1) / 255.0)
        assert y.tolist() == [3, 7]

    @pytest.mark.parametrize("kind", IDX_KINDS)
    def test_wrong_magic(self, tmp_path, kind):
        parse, _, dims = IDX_KINDS[kind]
        path = tmp_path / "bad.idx"
        path.write_bytes(idx_bytes(0xDEADBEEF, dims, np.prod(dims)))
        with pytest.raises(FormatError, match=f"bad {kind} magic 0xdeadbeef") as failure:
            parse(path)
        assert failure.value.offset == 0

    @pytest.mark.parametrize("kind", IDX_KINDS)
    def test_truncated_header(self, tmp_path, kind):
        parse, magic, dims = IDX_KINDS[kind]
        path = tmp_path / "short.idx"
        path.write_bytes(idx_bytes(magic, dims, 0)[:6])
        with pytest.raises(FormatError, match=f"truncated IDX {kind} header") as failure:
            parse(path)
        assert failure.value.offset == 6

    @pytest.mark.parametrize("extra", [-3, 1], ids=["short", "long"])
    @pytest.mark.parametrize("kind", IDX_KINDS)
    def test_wrong_payload_length(self, tmp_path, kind, extra):
        parse, magic, dims = IDX_KINDS[kind]
        path = tmp_path / "short.idx"
        data = idx_bytes(magic, dims, np.prod(dims) + extra)
        path.write_bytes(data)
        expected = len(data) - extra
        with pytest.raises(FormatError, match=f"expected {expected} bytes") as failure:
            parse(path)
        assert failure.value.offset == min(len(data), expected)

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
    def test_images_without_pixels(self, tmp_path, rows, cols):
        path = tmp_path / "empty.idx"
        path.write_bytes(idx_bytes(0x00000803, (2, rows, cols), 0))
        with pytest.raises(FormatError, match="hold no features") as failure:
            parse_idx_images(path)
        assert failure.value.offset == 8

    def test_label_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(4, 2, 2))
        image_path, _ = write_idx_pair(tmp_path, images, [0, 1, 0, 1])
        label_path = tmp_path / "labels2.idx"
        label_path.write_bytes(struct.pack(">II", 0x00000801, 3) + bytes([0, 1, 0]))
        cfg = StreamConfig(source="idx", num_tasks=1, classes_per_task=2,
                           idx_images=str(image_path), idx_labels=str(label_path))
        with pytest.raises(FormatError, match="label count 3 does not match image count 4"
                           ) as failure:
            load_idx_stream(image_path, label_path, cfg)
        assert str(label_path) in str(failure.value)
        assert str(image_path) in str(failure.value)

    def test_stream_assembly(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(40, 2, 2))
        labels = np.tile([0, 1, 2, 3], 10)
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        cfg = StreamConfig(source="idx", num_tasks=2, classes_per_task=2, seed=3,
                           idx_images=str(image_path), idx_labels=str(label_path))
        tasks = load_idx_stream(image_path, label_path, cfg)
        assert [t.class_ids for t in tasks] == [(0, 1), (2, 3)]
        for task in tasks:
            # 10 per class, 80/20 split
            assert task.train_size == 16
            assert len(task.test_y) == 4


    def test_split_matches_per_class_reference(self, tmp_path):
        # interleaved labels; the reference splits each class 80/20 in class order
        rng = np.random.default_rng(8)
        labels = np.arange(47) % 4
        images = rng.integers(0, 256, size=(47, 2, 3)).astype(np.uint8)
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        inputs = images.reshape(47, 6).astype(np.float64) / 255.0
        for seed in (0, 1):
            cfg = StreamConfig(source="idx", num_tasks=2, classes_per_task=2, seed=seed,
                               idx_images=str(image_path), idx_labels=str(label_path))
            split_rng = np.random.default_rng(seed)
            per_class = []
            for c in range(4):
                idx = np.flatnonzero(labels == c)
                order = split_rng.permutation(len(idx))
                n_train = int(round(0.8 * len(idx)))
                per_class.append((inputs[idx[order[:n_train]]], inputs[idx[order[n_train:]]]))
            tasks = load_idx_stream(image_path, label_path, cfg)
            assert_same_bytes(tasks, per_class_reference(per_class, 2))

    def test_class_without_test_rows(self, tmp_path):
        # two images of class 3 both fall on the train side of the 80/20 split
        labels = [0] * 10 + [1] * 10 + [2] * 10 + [3] * 2
        images = np.zeros((len(labels), 2, 2))
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        cfg = StreamConfig(source="idx", num_tasks=2, classes_per_task=2,
                           idx_images=str(image_path), idx_labels=str(label_path))
        with pytest.raises(ConfigError, match=r"labels\.idx \(test split\): .*missing \[3\]"):
            load_idx_stream(image_path, label_path, cfg)


def write_examples_csv(path, inputs, labels):
    lines = ["label," + ",".join(f"f{i}" for i in range(inputs.shape[1]))]
    for label, row in zip(labels.tolist(), inputs.tolist()):
        lines.append(f"{label}," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n")


class TestCsvRoundTrip:
    def test_shuffled_rows_match_per_class_reference(self, tmp_path):
        # tasks keep each class's rows in file order, whatever the class order
        rng = np.random.default_rng(4)
        pools = []
        for name, n in (("train.csv", 60), ("test.csv", 18)):
            labels = rng.permutation(np.arange(n) % 6)
            inputs = rng.standard_normal((n, 3))
            write_examples_csv(tmp_path / name, inputs, labels)
            pools.append((inputs, labels))
        per_class = [tuple(x[y == c] for x, y in pools) for c in range(6)]
        tasks = load_csv_stream(tmp_path, small_cfg())
        assert_same_bytes(tasks, per_class_reference(per_class, 2))

    @pytest.mark.parametrize("dropped", [[2, 3], [3]], ids=["task-2", "class-3"])
    def test_test_split_missing_classes(self, tmp_path, dropped):
        save_stream_csv(make_synthetic_stream(small_cfg()), tmp_path)
        path = tmp_path / "test.csv"
        lines = path.read_text().splitlines()
        kept = [line for line in lines[1:] if int(line.split(",")[0]) not in dropped]
        path.write_text("\n".join(lines[:1] + kept) + "\n")
        with pytest.raises(ConfigError, match=rf"test\.csv: .*missing {re.escape(str(dropped))}"):
            load_csv_stream(tmp_path, small_cfg())

    def test_save_load_identical(self, tmp_path):
        tasks = make_synthetic_stream(small_cfg())
        save_stream_csv(tasks, tmp_path / "stream")
        cfg = small_cfg()
        cfg.source = "csv"
        cfg.csv_path = str(tmp_path / "stream")
        reloaded = load_csv_stream(tmp_path / "stream", cfg)
        assert len(reloaded) == len(tasks)
        for a, b in zip(tasks, reloaded):
            assert a.task_id == b.task_id
            assert a.class_ids == b.class_ids
            assert np.array_equal(a.train_x, b.train_x)
            assert np.array_equal(a.train_y, b.train_y)
            assert np.array_equal(a.test_x, b.test_x)
            assert np.array_equal(a.test_y, b.test_y)

    def test_class_count_mismatch(self, tmp_path):
        tasks = make_synthetic_stream(small_cfg())
        save_stream_csv(tasks, tmp_path / "stream")
        cfg = small_cfg(num_tasks=2)
        with pytest.raises(ConfigError):
            load_csv_stream(tmp_path / "stream", cfg)

    @pytest.mark.parametrize(
        "column, value",
        [(1, "nan"), (2, "inf"), (4, "-Infinity"), (3, "0x1p3"), (0, "1.5"), (0, "one"),
         (0, "9" * 20)],
    )
    def test_bad_field_names_path_and_line(self, tmp_path, column, value):
        save_stream_csv(make_synthetic_stream(small_cfg()), tmp_path / "stream")
        path = tmp_path / "stream" / "train.csv"
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = value
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"train\.csv:4: "):
            load_csv_stream(tmp_path / "stream", small_cfg())

    def test_header_without_features(self, tmp_path):
        for name in ("train.csv", "test.csv"):
            (tmp_path / name).write_text("label\n0\n1\n2\n3\n")
        with pytest.raises(FormatError, match=r"train\.csv:1: header has no feature columns"):
            load_csv_stream(tmp_path, small_cfg(num_tasks=2))

    def test_feature_count_differs_between_splits(self, tmp_path):
        save_stream_csv(make_synthetic_stream(small_cfg()), tmp_path / "stream")
        wider = make_synthetic_stream(small_cfg(input_dim=5))
        save_stream_csv(wider, tmp_path / "wider")
        (tmp_path / "wider" / "test.csv").replace(tmp_path / "stream" / "test.csv")
        with pytest.raises(FormatError, match=r"test\.csv:1: header has 5 features, train\.csv has 4"):
            load_csv_stream(tmp_path / "stream", small_cfg())

    def test_bytes_that_are_not_utf8_name_path_and_line(self, tmp_path):
        save_stream_csv(make_synthetic_stream(small_cfg()), tmp_path)
        path = tmp_path / "train.csv"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b",\xff", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match=r"train\.csv:3: "):
            load_csv_stream(tmp_path, small_cfg())

    def test_parse_holds_about_one_copy_of_the_data(self, tmp_path):
        # a Python float per feature would hold about 5x the arrays' bytes
        rng = np.random.default_rng(5)
        path = tmp_path / "train.csv"
        write_examples_csv(path, rng.standard_normal((5000, 32)), np.arange(5000) % 10)
        tracemalloc.start()
        try:
            inputs, labels = _read_examples_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (inputs.dtype, inputs.shape) == (np.float64, (5000, 32))
        assert (labels.dtype, labels.shape) == (np.int64, (5000,))
        assert inputs.flags.c_contiguous and labels.flags.c_contiguous
        assert peak <= 2 * (inputs.nbytes + labels.nbytes)


class TestLoadSource:
    def test_synthetic_source_has_no_files(self):
        assert load_source(small_cfg()) is None

    def test_csv_source_builds_every_seed_as_the_files_do(self, tmp_path):
        save_stream_csv(make_synthetic_stream(small_cfg()), tmp_path)
        source = load_source(small_cfg(source="csv", csv_path=str(tmp_path)))
        for seed in (0, 1):
            seeded = small_cfg(source="csv", csv_path=str(tmp_path), seed=seed)
            assert_same_bytes(make_stream(seeded, source), task_arrays(make_stream(seeded)))

    def test_idx_source_splits_each_seed_as_the_files_do(self, tmp_path):
        rng = np.random.default_rng(9)
        images = rng.integers(0, 256, size=(60, 2, 2))
        image_path, label_path = write_idx_pair(tmp_path, images, np.arange(60) % 6)
        paths = dict(source="idx", idx_images=str(image_path), idx_labels=str(label_path))
        source = load_source(small_cfg(**paths))
        splits = []
        for seed in (0, 1):
            tasks = make_stream(small_cfg(seed=seed, **paths), source)
            assert_same_bytes(tasks, task_arrays(make_stream(small_cfg(seed=seed, **paths))))
            splits.append(tasks[0].train_x.tobytes())
        assert splits[0] != splits[1]  # the split still follows the seed
