import io
import re

import numpy as np
import pytest

from entrocl import FormatError
from entrocl.metrics import (
    average_forgetting,
    backward_transfer,
    cross_layer_entropy_spread,
    entropy_deviation,
    expect_written,
    final_average_accuracy,
    write_accuracy_csv,
)


def matrix_from(rows):
    """A (T, T) grid from its lower-triangle rows, NaN above the diagonal."""
    grid = np.full((len(rows), len(rows)), np.nan)
    for t, row in enumerate(rows):
        grid[t, : len(row)] = row
    return grid


class TestFinalAverageAccuracy:
    def test_all_ones(self):
        m = matrix_from([[1.0], [1.0, 1.0]])
        assert final_average_accuracy(m) == 1.0

    def test_two_task_average(self):
        m = matrix_from([[0.9], [0.4, 0.6]])
        assert final_average_accuracy(m) == pytest.approx(0.5)

    def test_single_task(self):
        m = matrix_from([[0.73]])
        assert final_average_accuracy(m) == pytest.approx(0.73)

    def test_incomplete_rejected(self):
        m = np.full((2, 2), np.nan)
        m[0, 0] = 0.5
        with pytest.raises(ValueError, match="incomplete"):
            final_average_accuracy(m)


class TestBackwardTransfer:
    def test_no_drift(self):
        m = matrix_from([[0.8], [0.8, 0.9], [0.8, 0.9, 0.7]])
        assert backward_transfer(m) == pytest.approx(0.0)

    def test_definition(self):
        m = matrix_from([[0.9], [0.8, 0.85]])
        assert backward_transfer(m) == pytest.approx(-0.1)

    def test_improvement_is_positive(self):
        m = matrix_from([[0.5], [0.7, 0.6]])
        assert backward_transfer(m) > 0

    def test_needs_two_tasks(self):
        with pytest.raises(ValueError):
            backward_transfer(matrix_from([[0.5]]))


class TestAverageForgetting:
    def test_constant_columns(self):
        m = matrix_from([[0.8], [0.8, 0.9], [0.8, 0.9, 0.7]])
        assert average_forgetting(m) == pytest.approx(0.0)

    def test_definition(self):
        m = matrix_from([[0.9], [0.7, 0.8], [0.6, 0.8, 0.95]])
        assert average_forgetting(m) == pytest.approx((0.3 + 0.0) / 2)

    def test_matches_negative_bwt_when_diagonal_is_maximal(self, rng):
        for _ in range(20):
            T = int(rng.integers(2, 6))
            rows = []
            for t in range(1, T + 1):
                row = list(rng.uniform(0.0, 0.8, size=t))
                rows.append(row)
            # lift each diagonal to its column maximum
            for s in range(1, T + 1):
                col_max = max(rows[k - 1][s - 1] for k in range(s, T + 1))
                rows[s - 1][s - 1] = min(1.0, col_max + 0.05)
            m = matrix_from(rows)
            assert average_forgetting(m) == pytest.approx(-backward_transfer(m))

    def test_nonnegative(self, rng):
        for _ in range(20):
            rows = [list(rng.uniform(0, 1, size=t)) for t in range(1, 5)]
            assert average_forgetting(matrix_from(rows)) >= 0.0


class TestEntropyDeviation:
    def test_zero_at_targets(self):
        # the targets are the cross-layer mean
        assert entropy_deviation([1.5, 1.5, 1.5]) == 0.0

    def test_mean_default(self):
        assert entropy_deviation([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_homogeneity(self):
        base = entropy_deviation([1.0, 2.0, 4.0])
        scaled = entropy_deviation([3.0 * v for v in [1.0, 2.0, 4.0]])
        # scaling values by c scales deviations-from-mean by c, so the sum by c^2
        assert scaled == pytest.approx(9.0 * base)

    def test_shift_invariance_with_mean_targets(self):
        base = entropy_deviation([0.3, 0.9, 0.4])
        shifted = entropy_deviation([v + 10.0 for v in [0.3, 0.9, 0.4]])
        assert shifted == pytest.approx(base, abs=1e-9)


class TestEntropySpread:
    def test_identical_layers_give_zero(self):
        ent = np.ones((30, 4))
        assert cross_layer_entropy_spread(ent) == 0.0

    def test_two_constant_layers(self):
        ent = np.tile([1.0, 3.0], (40, 1))
        assert cross_layer_entropy_spread(ent) == pytest.approx(1.0)

    def test_window_clamps_to_available_steps(self):
        ent = np.tile([0.0, 2.0], (5, 1))
        assert cross_layer_entropy_spread(ent, window=50) == pytest.approx(1.0)

    def test_empty_telemetry_rejected(self):
        with pytest.raises(ValueError):
            cross_layer_entropy_spread(np.zeros((0, 4)))

    def test_negative_window_rejected(self):
        # a negative window once sliced from the front: -3 averaged ent[3:]
        ent = np.vstack([np.tile([0.0, 2.0], (3, 1)), np.tile([1.0, 1.0], (5, 1))])
        with pytest.raises(ValueError, match="window must be nonnegative, got -3"):
            cross_layer_entropy_spread(ent, window=-3)

    def test_zero_window_takes_every_step(self):
        ent = np.vstack([np.tile([0.0, 2.0], (3, 1)), np.tile([1.0, 1.0], (5, 1))])
        assert cross_layer_entropy_spread(ent, window=0) == pytest.approx(3 / 8)


class TestMatrixCsv:
    def test_grid_layout(self):
        m = matrix_from([[0.5], [0.25, 0.75]])
        out = io.StringIO()
        write_accuracy_csv(out, m)
        assert out.getvalue() == "task,1,2\n1,0.5,\n2,0.25,0.75\n"

    def test_reader_round_trips_every_bit(self, tmp_path):
        # expect_written accepts the file the writer wrote, and no grid one ulp away
        rng = np.random.default_rng(5)
        m = matrix_from([rng.uniform(0, 1, t).tolist() for t in range(1, 6)])
        path = tmp_path / "accuracy_matrix.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_accuracy_csv(fh, m)
        expect_written(path, write_accuracy_csv, m)
        m[3, 2] = np.nextafter(m[3, 2], 1.0)
        with pytest.raises(FormatError, match=f"{re.escape(str(path))}:5: found '4,"):
            expect_written(path, write_accuracy_csv, m)

    @pytest.mark.parametrize("data, named", [
        (b"", ":1: found the end of the file, but entrocl writes 'task,1,2'"),
        (b"task,2,1\n1,0.5,\n2,0.25,0.75\n", ":1: found 'task,2,1', but entrocl writes 'task,1,2'"),
        (b"task,1,2\n1,0.5,\n", ":3: found the end of the file, but entrocl writes '2,0.25,0.75'"),
        (b"task,1,2\n1,0.5,\n2,0.25,0.75\n3,1,1\n",
         ":4: found '3,1,1', but entrocl writes the end of the file"),
        (b"task,1,2\n1,0.5,0.1\n2,0.25,0.75\n", ":2: found '1,0.5,0.1', but entrocl writes '1,0.5,'"),
        (b"task,1,2\n2,0.5,\n1,0.25,0.75\n", ":2: found '2,0.5,', but entrocl writes '1,0.5,'"),
        (b"task,1,2\n1,0.5,\n2,high,0.75\n", ":3: found '2,high,0.75', but"),
        (b"task,1,2\n1,1.5,\n2,0.25,0.75\n", ":2: found '1,1.5,', but"),
        (b"task,1,2\n1,nan,\n2,0.25,0.75\n", ":2: found '1,nan,', but"),
        (b"task,1,2\n1,0.5,\n2,0.25,0.7", ":3: line does not end in a newline"),
        (b"task,1,2\n1,0.5,\n2,\xff,0.75\n", ": not UTF-8 text (byte offset 18)"),
        (b"task,1,2\n1,0.5,\n2,0.2_5,0.75\n", ":3: found '2,0.2_5,0.75', but"),
        ("task,1,2\n1,\u0660.5,\n2,0.25,0.75\n".encode(), ":2: found '1,\u0660.5,', but"),
    ], ids=["empty", "header", "missing-row", "extra-row", "cell-above-diagonal",
            "rows-swapped", "not-a-number", "above-one", "nan", "truncated", "not-utf8",
            "underscore", "arabic-digit"])
    def test_reader_names_the_bad_line(self, tmp_path, data, named):
        # each file differs from what write_accuracy_csv writes for this grid
        path = tmp_path / "accuracy_matrix.csv"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=re.escape(f"{path}{named}")):
            expect_written(path, write_accuracy_csv, matrix_from([[0.5], [0.25, 0.75]]))


METRICS = [final_average_accuracy, backward_transfer, average_forgetting, write_accuracy_csv]


def call(metric, grid):
    """The metric's value, or the text the CSV writer writes."""
    if metric is write_accuracy_csv:
        out = io.StringIO()
        metric(out, grid)
        return out.getvalue()
    return metric(grid)


@pytest.mark.parametrize("metric", METRICS, ids=lambda f: f.__name__)
class TestGridChecks:
    @pytest.mark.parametrize(
        "shape", [(2, 3), (3,), (2, 2, 2), (0, 0)], ids=lambda dims: "x".join(map(str, dims))
    )
    def test_non_square_grid_rejected(self, metric, shape):
        with pytest.raises(ValueError, match="must be a nonempty \\(T, T\\) grid"):
            call(metric, np.full(shape, 0.5))

    @pytest.mark.parametrize("cell", [(0, 0), (1, 0), (2, 1), (2, 2)], ids=lambda c: f"{c[0]}-{c[1]}")
    def test_nan_on_or_below_diagonal_rejected(self, metric, cell):
        m = matrix_from([[0.9], [0.8, 0.7], [0.6, 0.5, 0.4]])
        m[cell] = np.nan
        with pytest.raises(ValueError, match="accuracy matrix is incomplete"):
            call(metric, m)

    def test_values_above_diagonal_ignored(self, metric):
        m = matrix_from([[0.9], [0.8, 0.7], [0.6, 0.5, 0.4]])
        filled = m.copy()
        filled[np.triu_indices(3, k=1)] = 1.0
        assert call(metric, m) == call(metric, filled)


class TestAgainstLoops:
    """The vectorised metrics equal the definitions computed cell by cell."""

    def test_bitwise_equal_to_the_per_cell_definitions(self, rng):
        for _ in range(50):
            T = int(rng.integers(2, 12))
            m = matrix_from([rng.uniform(0, 1, size=t) for t in range(1, T + 1)])
            cells = m.tolist()
            final = [cells[T - 1][s] for s in range(T)]
            assert final_average_accuracy(m) == float(np.mean(final))
            bwt = [cells[T - 1][s] - cells[s][s] for s in range(T - 1)]
            assert backward_transfer(m) == float(np.mean(bwt))
            drops = [max(cells[k][s] for k in range(s, T)) - cells[T - 1][s] for s in range(T - 1)]
            assert average_forgetting(m) == float(np.mean(drops))
