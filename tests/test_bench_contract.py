"""The benchmark in bench/ wraps entrocl functions by name from outside.

These tests load bench/spans.py as the benchmark does and check that every
function it wraps still exists and is still called where the benchmark's
accounting expects it, so a rename or a moved call fails here rather than
first in a benchmark run.
"""

import importlib.util
from pathlib import Path

from entrocl import buffers, cli
from entrocl.streams import StreamConfig
from entrocl.training import RunConfig

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# spans the run_task accounting identity expects directly under run_task
STEP_AND_BOUNDARY = (
    "tensor.backward",
    "modulation.composite_loss",
    "training.adam_step",
    "buffers.sample",
    "buffers.extend",
    "buffers.vbuf_update",
    "buffers.evaluate_layer_accuracies",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    spans = load_spans()
    for name, owner, attr, _, _ in spans.TARGETS:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr}"


def test_traced_accept_count_matches_the_returned_slots(tmp_path, monkeypatch):
    # spans counts an accepted offer by the identity of the item it finds in
    # ReplayBuffer.items; a wrapper installed under the tracer counts the late
    # offers whose returned slot is below capacity, which must agree
    late_kept = []
    extend = buffers.ReplayBuffer.extend

    def counting_extend(buf, items):
        free = max(0, buf.capacity - buf.seen_count)
        where = extend(buf, items)
        late_kept.append(int((where[free:] < buf.capacity).sum()))
        return where

    monkeypatch.setattr(buffers.ReplayBuffer, "extend", counting_extend)
    spans = load_spans()
    tracer = spans.Tracer(tmp_path / "spill")
    tracer.install()
    try:
        cli.execute_run(
            "full",
            0,
            RunConfig(widths=(8, 8), buffer_capacity=40),
            # 400 offers: Python caches the ints up to 256, so only positions
            # past it can tell a kept item from an equal fresh one
            StreamConfig(num_tasks=2, train_per_class=100, test_per_class=10),
            tmp_path / "run",
        )
    finally:
        tracer.uninstall()
    counts = spans.run_counts(tracer.spans)
    assert counts["extend_accepted"] == sum(late_kept)
    assert 0 < counts["extend_accepted"] < counts["extend_offered"]


def test_traced_run_calls_every_target_where_the_accounting_expects(tmp_path):
    spans = load_spans()
    tracer = spans.Tracer(tmp_path / "spill")
    tracer.install()
    try:
        cli.execute_run(
            "full",
            0,
            RunConfig(widths=(8, 8), buffer_capacity=40),
            StreamConfig(num_tasks=2, train_per_class=30, test_per_class=10),
            tmp_path / "run",
        )
    finally:
        tracer.uninstall()
    recorded = tracer.spans
    names = {span[0] for span in recorded}
    for name, *_ in spans.TARGETS:
        assert name in names, f"{name} was never called"
    for name, _, _, parent, _ in recorded:
        if name in STEP_AND_BOUNDARY:
            assert recorded[parent][0] == "training.run_task", name
    assert spans.run_counts(recorded)["extend_offered"] > 0
