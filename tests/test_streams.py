import io
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_idx_pair
from entrocl import ConfigError, FormatError, training
from entrocl.streams import (
    StreamConfig,
    _read_examples_csv,
    _read_idx_pixels,
    batches,
    load_source,
    make_stream,
    make_synthetic_stream,
    parse_idx_labels,
    read_csv_numbers,
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


class TestTaskSpec:
    @pytest.mark.parametrize(
        "change, message",
        [
            # run_sequence once trained on the 40 rows that had labels
            (lambda task: dict(train_y=task.train_y[:40]),
             "task 1: train split has 50 inputs but 40 labels"),
            (lambda task: dict(test_y=task.test_y[:0]), "task 1: test split has 10 inputs but 0 labels"),
            (lambda task: dict(train_x=task.train_x.ravel()),
             "task 1: train inputs must be 2-D, got shape (200,)"),
            (lambda task: dict(test_x=task.test_x[:, :, None]),
             "task 1: test inputs must be 2-D, got shape (10, 4, 1)"),
            (lambda task: dict(test_x=task.test_x[:, :3]),
             "task 1: train inputs are 4 wide, test inputs 3"),
            # an empty test split once trained and failed after every task
            # with "accuracy matrix is incomplete"
            (lambda task: dict(train_x=task.train_x[:0], train_y=task.train_y[:0]),
             "task 1 has no training examples"),
            (lambda task: dict(test_x=task.test_x[:0], test_y=task.test_y[:0]),
             "task 1 has no test examples"),
        ],
        ids=["train-labels-short", "test-labels-missing", "flat-train-inputs",
             "3-d-test-inputs", "widths-differ", "no-train-examples", "no-test-examples"],
    )
    def test_inconsistent_arrays_rejected(self, change, message):
        task = make_synthetic_stream(small_cfg())[0]
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(task, **change(task))


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


# each IDX file kind: its parser, its magic and the dimensions of a small valid file
IDX_KINDS = {
    "image": (_read_idx_pixels, 0x00000803, (2, 2, 2)),
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
        x = _read_idx_pixels(image_path)
        y = parse_idx_labels(label_path)
        assert (x.dtype, x.shape) == (np.uint8, (2, 784))
        assert np.array_equal(x, images.reshape(2, 784))
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
            _read_idx_pixels(path)
        assert failure.value.offset == 8

    def test_plan_holds_one_uint8_copy_of_the_images(self, tmp_path):
        # the plan keeps the file's pixels; each run scales only the rows it gathers
        rng = np.random.default_rng(6)
        images = rng.integers(0, 256, size=(4000, 28, 28))
        image_path, label_path = write_idx_pair(tmp_path, images, np.arange(4000) % 10)
        cfg = StreamConfig(source="idx", num_tasks=5, classes_per_task=2,
                           idx_images=str(image_path), idx_labels=str(label_path))
        pixel_bytes, float_bytes = images.size, 8 * images.size
        tracemalloc.start()
        try:
            source = load_source(cfg)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tasks = make_stream(cfg, source)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the images as uint8, and the labels as int64
        assert held <= 1.1 * pixel_bytes + 8 * 4000 + 4096
        # a run's pools are one float64 copy of the images; scaling them
        # adds a gathered uint8 split, not a second float64 one
        assert current - held <= 1.1 * float_bytes
        assert peak - held <= 1.25 * float_bytes
        assert sum(t.train_size + len(t.test_y) for t in tasks) == 4000

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
            make_stream(cfg)
        assert str(label_path) in str(failure.value)
        assert str(image_path) in str(failure.value)

    def test_stream_assembly(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(40, 2, 2))
        labels = np.tile([0, 1, 2, 3], 10)
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        cfg = StreamConfig(source="idx", num_tasks=2, classes_per_task=2, seed=3,
                           idx_images=str(image_path), idx_labels=str(label_path))
        tasks = make_stream(cfg)
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
            tasks = make_stream(cfg)
            assert_same_bytes(tasks, per_class_reference(per_class, 2))

    def test_class_without_test_rows(self, tmp_path):
        # two images of class 3 both fall on the train side of the 80/20 split
        labels = [0] * 10 + [1] * 10 + [2] * 10 + [3] * 2
        images = np.zeros((len(labels), 2, 2))
        image_path, label_path = write_idx_pair(tmp_path, images, labels)
        cfg = StreamConfig(source="idx", num_tasks=2, classes_per_task=2,
                           idx_images=str(image_path), idx_labels=str(label_path))
        with pytest.raises(ConfigError, match=r"labels\.idx \(test split\): .*missing \[3\]"):
            make_stream(cfg)


def write_examples_csv(path, inputs, labels):
    lines = ["label," + ",".join(f"f{i}" for i in range(inputs.shape[1]))]
    for label, row in zip(labels.tolist(), inputs.tolist()):
        lines.append(f"{label}," + ",".join(map(repr, row)))
    path.write_text("\n".join(lines) + "\n")


def csv_stream(directory, cfg):
    """The stream ``make_stream`` builds from train.csv/test.csv in ``directory``."""
    return make_stream(replace(cfg, source="csv", csv_path=str(directory)))


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
        tasks = csv_stream(tmp_path, small_cfg())
        assert_same_bytes(tasks, per_class_reference(per_class, 2))

    @pytest.mark.parametrize("dropped", [[2, 3], [3]], ids=["task-2", "class-3"])
    def test_test_split_missing_classes(self, tmp_path, dropped):
        save_stream_csv(make_synthetic_stream(small_cfg()), tmp_path)
        path = tmp_path / "test.csv"
        lines = path.read_text().splitlines()
        kept = [line for line in lines[1:] if int(line.split(",")[0]) not in dropped]
        path.write_text("\n".join(lines[:1] + kept) + "\n")
        with pytest.raises(ConfigError, match=rf"test\.csv: .*missing {re.escape(str(dropped))}"):
            csv_stream(tmp_path, small_cfg())

    def test_save_load_identical(self, tmp_path):
        tasks = make_synthetic_stream(small_cfg())
        save_stream_csv(tasks, tmp_path / "stream")
        cfg = small_cfg()
        cfg.source = "csv"
        cfg.csv_path = str(tmp_path / "stream")
        reloaded = make_stream(cfg)
        assert len(reloaded) == len(tasks)
        for a, b in zip(tasks, reloaded):
            assert a.task_id == b.task_id
            assert a.class_ids == b.class_ids
            assert np.array_equal(a.train_x, b.train_x)
            assert np.array_equal(a.train_y, b.train_y)
            assert np.array_equal(a.test_x, b.test_x)
            assert np.array_equal(a.test_y, b.test_y)

    def test_save_writes_the_repr_of_each_numpy_scalar(self, tmp_path):
        tasks = make_synthetic_stream(small_cfg())
        tasks[0].train_x[:3, 0] = (-0.0, 1e-300, 0.1)
        save_stream_csv(tasks, tmp_path)
        for name, split in (("train.csv", 0), ("test.csv", 2)):
            lines = ["label," + ",".join(f"f{i}" for i in range(4))]
            for task in tasks:
                x, y = task_arrays([task])[0][split : split + 2]
                for row, label in zip(x, y):
                    lines.append(str(int(label)) + "," + ",".join(repr(float(v)) for v in row))
            assert (tmp_path / name).read_text() == "\n".join(lines) + "\n"

    def test_class_count_mismatch(self, tmp_path):
        tasks = make_synthetic_stream(small_cfg())
        save_stream_csv(tasks, tmp_path / "stream")
        cfg = small_cfg(num_tasks=2)
        with pytest.raises(ConfigError):
            csv_stream(tmp_path / "stream", cfg)

    @pytest.mark.parametrize(
        "column, value",
        [(1, "nan"), (2, "inf"), (4, "-Infinity"), (3, "0x1p3"), (0, "1.5"), (0, "one"),
         (0, "9" * 20),
         # int and float read each of these as a number: 1, 15.25, 1 and 1.5
         (0, "0_1"), (1, "1_5.25"), (0, "\u0661"), (2, "\u0661.\u0665"),
         # a carriage return ends no line: this is one line of 9 fields, not two of 5
         (4, "1.5\r0,1.0,1.0,1.0,1.0")],
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
            csv_stream(tmp_path / "stream", small_cfg())

    def test_header_without_features(self, tmp_path):
        for name in ("train.csv", "test.csv"):
            (tmp_path / name).write_text("label\n0\n1\n2\n3\n")
        with pytest.raises(FormatError, match=r"train\.csv:1: header has no feature columns"):
            csv_stream(tmp_path, small_cfg(num_tasks=2))

    def test_feature_count_differs_between_splits(self, tmp_path):
        save_stream_csv(make_synthetic_stream(small_cfg()), tmp_path / "stream")
        wider = make_synthetic_stream(small_cfg(input_dim=5))
        save_stream_csv(wider, tmp_path / "wider")
        (tmp_path / "wider" / "test.csv").replace(tmp_path / "stream" / "test.csv")
        with pytest.raises(FormatError, match=r"test\.csv:1: header has 5 features, train\.csv has 4"):
            csv_stream(tmp_path / "stream", small_cfg())

    def test_bytes_that_are_not_utf8_name_path_and_line(self, tmp_path):
        save_stream_csv(make_synthetic_stream(small_cfg()), tmp_path)
        path = tmp_path / "train.csv"
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b",\xff", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match=r"train\.csv:3: "):
            csv_stream(tmp_path, small_cfg())

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


def written_csv_files():
    """(name, bytes, reader, the values written) of a stream file and of a 2-layer,
    3-task run's per-layer and telemetry files. Each reader returns a tuple of
    arrays and the table of numbers they hold, one row per data line."""
    rng = np.random.default_rng(12)
    inputs, labels = rng.standard_normal((4, 2)), np.arange(4)
    inputs[2] = 1e308  # a flip that raises a digit of 1e+308 overflows to inf
    accuracy = np.where(np.tri(3, dtype=bool), rng.integers(0, 5, (2, 3, 3)) / 4, np.nan)
    telemetry = np.zeros(3, training.telemetry_dtype(2))
    telemetry["task"] = [1, 1, 2]
    for name in training.TELEMETRY_FIELDS:
        telemetry[name] = rng.standard_normal((3, 2))

    def read_stream(path):
        inputs, labels = _read_examples_csv(path)
        return (inputs, labels), inputs

    def read_per_layer(path):
        accuracy = training.read_per_layer_csv(path, 2, 3)
        return (accuracy,), accuracy.transpose(1, 2, 0)[np.tril_indices(3)].reshape(-1, 1)

    def read_telemetry(path):
        telemetry = training.read_telemetry_csv(path, 2)
        fields = [telemetry[name] for name in training.TELEMETRY_FIELDS]
        return (telemetry,), np.stack(fields, axis=-1).reshape(-1, len(fields))

    stream = "label,f0,f1\n" + "".join(f"{label}," + ",".join(map(repr, row)) + "\n"
                                         for label, row in zip(labels.tolist(), inputs.tolist()))
    per_layer, steps = io.StringIO(), io.StringIO()
    training.write_per_layer_csv(per_layer, accuracy)
    training.write_telemetry_csv(steps, telemetry)
    return [("train.csv", stream.encode(), read_stream, (inputs, labels)),
            ("per_layer_accuracy.csv", per_layer.getvalue().encode(), read_per_layer, (accuracy,)),
            ("telemetry.csv", steps.getvalue().encode(), read_telemetry, (telemetry,))]


CSV_FILES = written_csv_files()


def data_lines(path):
    """How many lines after the header are not blank, where only a newline ends a line."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        return sum(1 for line in list(fh)[1:] if line.strip())


class TestCsvReaderFuzz:
    @pytest.mark.parametrize("name, written, read, values", CSV_FILES,
                             ids=[name for name, *_ in CSV_FILES])
    def test_written_bytes_read_back_every_bit(self, tmp_path, name, written, read, values):
        path = tmp_path / name
        path.write_bytes(written)
        for got, want in zip(read(path)[0], values, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_bytes_read_or_fail_with_a_format_error(self, tmp_path_factory, data):
        # a truncated, bit-flipped file either fails naming itself, or reads as one
        # row of finite numbers per non-blank line, through the one reader and
        # through the file's own reader alike
        name, written, read, _ = data.draw(st.sampled_from(CSV_FILES))
        damaged = bytearray(written[: len(written) - data.draw(st.integers(0, len(written)))])
        flips = st.tuples(st.integers(0, max(len(damaged) - 1, 0)), st.integers(0, 7))
        for position, bit in data.draw(st.lists(flips, max_size=4 if damaged else 0)):
            damaged[position] ^= 1 << bit
        path = tmp_path_factory.mktemp("damaged") / name
        path.write_bytes(damaged)
        for parse in (lambda: read_csv_numbers(path, 1 if name == "train.csv" else 3)[1:],
                      lambda: read(path)[1:]):
            try:
                tables = parse()
            except FormatError as exc:
                assert str(exc).startswith(f"{path}")
                continue
            for table in tables:
                assert len(table) == data_lines(path) and np.isfinite(table).all()


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

    def test_files_whose_classes_do_not_fit_fail_when_read(self, tmp_path):
        # 4 classes on file, 6 in the config: the check runs once, before any seed
        save_stream_csv(make_synthetic_stream(small_cfg(num_tasks=2)), tmp_path)
        with pytest.raises(ConfigError, match=r"train\.csv: 3 tasks of 2 .*missing \[4, 5\]"):
            load_source(small_cfg(num_tasks=3, source="csv", csv_path=str(tmp_path)))
        image_path, label_path = write_idx_pair(tmp_path, np.zeros((8, 2, 2)), np.arange(8) % 4)
        paths = dict(source="idx", idx_images=str(image_path), idx_labels=str(label_path))
        with pytest.raises(ConfigError, match=r"labels\.idx \(train split\): .*missing \[4, 5\]"):
            load_source(small_cfg(num_tasks=3, **paths))


def whole_expression_pools(cfg):
    """The train and test pools drawn with one whole-expression temporary per class."""
    rng = np.random.default_rng(cfg.seed)
    means = (cfg.separation / np.sqrt(cfg.input_dim)) * rng.standard_normal(
        (cfg.num_classes, cfg.input_dim)
    )
    counts = (cfg.train_per_class, cfg.test_per_class)
    labels = np.arange(cfg.num_classes, dtype=np.int64)
    pools = [(np.empty((cfg.num_classes * n, cfg.input_dim)), labels.repeat(n)) for n in counts]
    for c in range(cfg.num_classes):
        for (inputs, _), n in zip(pools, counts):
            inputs[c * n : (c + 1) * n] = means[c] + cfg.noise_scale * rng.standard_normal(
                (n, cfg.input_dim)
            )
    return pools


def sorted_copy_assembly(pools, cfg):
    """Each task's arrays as fresh copies, by a stable argsort of each pool's
    labels and a fancy index of its rows."""
    edges = np.arange(0, cfg.num_classes + 1, cfg.classes_per_task)
    splits = []
    for inputs, labels in pools:
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], edges)
        splits.append(
            [(inputs[order[lo:hi]], labels[order[lo:hi]]) for lo, hi in zip(bounds, bounds[1:])]
        )
    return [[*train, *test] for train, test in zip(*splits)]


def memory_owner(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def synthetic_case(tmp_path):
    cfg = small_cfg(input_dim=5, seed=3)
    return cfg, whole_expression_pools(cfg)


def csv_case(tmp_path, shuffled):
    # the files' rows come class by class, or in a seeded shuffle
    rng = np.random.default_rng(6)
    for name, per_class in (("train.csv", 9), ("test.csv", 4)):
        labels = np.arange(6).repeat(per_class)
        if shuffled:
            labels = rng.permutation(labels)
        write_examples_csv(tmp_path / name, rng.standard_normal((len(labels), 3)), labels)
    pools = [_read_examples_csv(tmp_path / name) for name in ("train.csv", "test.csv")]
    return small_cfg(source="csv", csv_path=str(tmp_path)), pools


def idx_case(tmp_path):
    rng = np.random.default_rng(10)
    labels = np.arange(60) % 6
    images = rng.integers(0, 256, size=(60, 2, 2))
    image_path, label_path = write_idx_pair(tmp_path, images, labels)
    cfg = small_cfg(source="idx", idx_images=str(image_path), idx_labels=str(label_path))
    # each class's seeded 80/20 split, class by class
    inputs = images.reshape(60, 4).astype(np.float64) / 255.0
    split_rng, rows = np.random.default_rng(cfg.seed), ([], [])
    for c in range(6):
        idx = np.flatnonzero(labels == c)
        idx = idx[split_rng.permutation(len(idx))]
        rows[0].extend(idx[:8].tolist())
        rows[1].extend(idx[8:].tolist())
    return cfg, [(inputs[r], labels[r].astype(np.int64)) for r in rows]


STREAM_CASES = {
    "synthetic": synthetic_case,
    "csv-class-ordered": lambda tmp_path: csv_case(tmp_path, shuffled=False),
    "csv-shuffled": lambda tmp_path: csv_case(tmp_path, shuffled=True),
    "idx": idx_case,
}


class TestTasksAreViews:
    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_tasks_are_slices_of_one_pool(self, tmp_path, case):
        cfg, _ = STREAM_CASES[case](tmp_path)
        tasks = make_stream(cfg)
        for arrays in zip(*task_arrays(tasks)):  # each split's inputs, then labels
            pool = memory_owner(arrays[0])
            assert pool.size == sum(a.size for a in arrays)
            for a in arrays:
                assert memory_owner(a) is pool and np.shares_memory(a, pool)

    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_tasks_match_a_sorted_copy_of_the_pools(self, tmp_path, case):
        cfg, pools = STREAM_CASES[case](tmp_path)
        assert_same_bytes(make_stream(cfg), sorted_copy_assembly(pools, cfg))

    def test_shuffled_csv_pools_are_sorted_once_per_plan(self, tmp_path):
        cfg, _ = csv_case(tmp_path, shuffled=True)
        source = load_source(cfg)
        for seed in (0, 1):
            for task in make_stream(replace(cfg, seed=seed), source):
                assert np.shares_memory(task.train_x, source[0][0])
                assert np.shares_memory(task.test_y, source[1][1])

    @pytest.mark.parametrize("shuffled", [False, True], ids=["class-ordered", "shuffled"])
    def test_csv_tasks_are_read_only(self, tmp_path, shuffled):
        cfg, _ = csv_case(tmp_path, shuffled)
        task = make_stream(cfg)[1]
        for array in task_arrays([task])[0]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_in_place_draw_matches_the_whole_expression(self):
        for cfg in (small_cfg(), small_cfg(input_dim=7, noise_scale=0.3, separation=5.0, seed=2),
                    small_cfg(noise_scale=0.0)):
            pools = [a for pool in whole_expression_pools(cfg) for a in pool]
            for got, want in zip(zip(*task_arrays(make_synthetic_stream(cfg))), pools):
                assert np.concatenate(got).tobytes() == want.tobytes()
