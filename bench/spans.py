"""In-memory span tracer that wraps entrocl's public functions from outside.

A span is ``[name, start, end, parent, count]``: ``parent`` indexes the
enclosing span in the same process's list (-1 for a root) and ``count`` is
the work counter the wrapper recorded at that boundary (rows, tape nodes,
bytes), or None. Spans stay in memory until the run ends.

Plans at ``--jobs 2`` run ``cli.execute_run`` in forked pool workers, which
inherit the installed wrappers. The first ``execute_run`` in a worker starts a
fresh span list there, and every finished ``execute_run`` writes that list to
``spill_dir``; the parent reads the files back with ``collect``.
"""

import functools
import json
import os
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from entrocl import buffers, cli, model, modulation, streams, tensor, training

ROOT_SPAN = "cli.execute_run"


def _rows(args, out, pre):
    return len(args[1])


def _returned_rows(args, out, pre):
    return len(out)


def _tape_nodes(args, out, pre):
    return len(args[0].tape)


def _csv_bytes(args, out, pre):
    cfg = args[0]
    if cfg.source != "csv":
        return 0
    folder = Path(cfg.csv_path)
    return sum((folder / name).stat().st_size for name in ("train.csv", "test.csv"))


def _artifact_bytes(args, out, pre):
    """Bytes of the bitwise-reproducible artifacts: all but summary.json,
    whose wall time varies in length."""
    return sum(
        p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file() and p.name != "summary.json"
    )


def _run_key(args, out, pre):
    return [args[0], args[1]]


def _fill_slots(args):
    buf = args[0]
    return max(0, buf.capacity - buf.seen_count)


def _reservoir_accepts(args, out, pre):
    """(offered once full, still resident after the call) for one extend."""
    late = list(args[1])[pre:]
    resident = set(map(id, args[0].items))
    return (len(late), sum(id(item) in resident for item in late))


# (span name, owner, attribute, counter, pre-call probe)
TARGETS = (
    ("buffers.sample", buffers.ReplayBuffer, "sample", _returned_rows, None),
    ("buffers.extend", buffers.ReplayBuffer, "extend", _reservoir_accepts, _fill_slots),
    ("buffers.vbuf_update", buffers.ValidationBuffer, "update", None, None),
    ("buffers.evaluate_layer_accuracies", buffers, "evaluate_layer_accuracies", None, None),
    ("model.forward", model.LayeredNet, "forward", _rows, None),
    ("modulation.composite_loss", modulation, "composite_loss", None, None),
    ("tensor.backward", tensor, "backward", _tape_nodes, None),
    ("training.adam_step", training, "adam_step", None, None),
    ("training.run_task", training, "run_task", None, None),
    ("training.build_summary", training, "build_summary", None, None),
    ("training.write_run_artifacts", training, "write_run_artifacts", _artifact_bytes, None),
    ("streams.make_stream", streams, "make_stream", _csv_bytes, None),
    (ROOT_SPAN, cli, "execute_run", _run_key, None),
)


class Tracer:
    def __init__(self, spill_dir):
        self.spill_dir = Path(spill_dir)
        self.owner = os.getpid()
        self._patched = []
        self._start_list()

    def _start_list(self):
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.spilled = 0

    def _open(self, name):
        if name == ROOT_SPAN and os.getpid() != self.pid:
            self._start_list()
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span, end):
        span[2] = end
        self.stack.pop()
        if span[0] == ROOT_SPAN and self.pid != self.owner:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            path = self.spill_dir / f"{self.pid}-{self.spilled}.json"
            path.write_text(json.dumps(self.spans))
            self.spilled += 1
            self.spans = []

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span, perf_counter())

    def _wrap(self, name, fn, counter, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = probe(args) if probe else None
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(span, perf_counter())
                raise
            end = perf_counter()
            if counter:
                span[4] = counter(args, out, pre)
            self._close(span, end)
            return out

        return traced

    def install(self):
        """Patch each target wherever an entrocl module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "entrocl" or n.startswith("entrocl.")]
        for name, owner, attr, counter, probe in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter, probe)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._patched.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    def collect(self):
        """All span lists: this process's own, then each spilled worker list."""
        groups = [self.spans]
        if self.spill_dir.is_dir():
            for path in sorted(self.spill_dir.iterdir()):
                groups.append(json.loads(path.read_text()))
        return groups


def run_counts(spans):
    """Work counters of one run's spans, which must repeat exactly per seed."""
    counts = {}
    for name, _, _, _, n in spans:
        if name == "buffers.extend":
            counts["extend_offered"] = counts.get("extend_offered", 0) + n[0]
            counts["extend_accepted"] = counts.get("extend_accepted", 0) + n[1]
        elif n is not None and name != ROOT_SPAN:
            counts[name] = counts.get(name, 0) + n
    return counts


def layer_metrics(groups, runs, steps, jobs, loop_wall, unit_span):
    """Per-layer figures from traced span lists.

    ``runs`` and ``steps`` are the run and optimizer-step counts of the traced
    pass, the steps taken from the runs' telemetry rather than from the spans,
    so that a step that no longer calls ``adam_step`` is still counted.

    ``unit_span`` names the span around one worker run: ``cli.execute_run``
    in a plan, the benchmark's own run span in process. ``loop_wall`` is the
    wall time the runs were spread over, for the pool idle share.
    """
    total, count = {}, {}
    forward_train = forward_eval = eval_rows = 0.0
    run_task_self = 0.0
    unit_durations = []
    for spans in groups:
        for key, value in run_counts(spans).items():
            count[key] = count.get(key, 0) + value
        child_time = [0.0] * len(spans)
        for name, start, end, parent, n in spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            if parent >= 0:
                child_time[parent] += dur
            if name == "model.forward":
                if parent >= 0 and spans[parent][0] == "training.run_task":
                    forward_train += dur
                else:
                    forward_eval += dur
                    eval_rows += n
            if name == unit_span:
                unit_durations.append(dur)
        for i, (name, start, end, _, _) in enumerate(spans):
            if name == "training.run_task":
                run_task_self += end - start - child_time[i]

    offered, accepted = count.get("extend_offered", 0), count.get("extend_accepted", 0)
    if steps == 0 or runs == 0:
        raise RuntimeError("traced pass recorded no optimizer steps")

    def per_step_us(name):
        return total.get(name, 0.0) / steps * 1e6

    def per_run_ms(name):
        return total.get(name, 0.0) / runs * 1e3

    busy = sum(unit_durations)
    return {
        "tensor.backward_us_per_step": (per_step_us("tensor.backward"), "us"),
        "tensor.tape_nodes_per_step": (count.get("tensor.backward", 0) / steps, "count"),
        "model.forward_train_us_per_step": (forward_train / steps * 1e6, "us"),
        "modulation.composite_loss_us_per_step": (per_step_us("modulation.composite_loss"), "us"),
        "training.adam_us_per_step": (per_step_us("training.adam_step"), "us"),
        "training.step_self_us": (run_task_self / steps * 1e6, "us"),
        "training.run_task_us_per_step": (per_step_us("training.run_task"), "us"),
        "buffers.sample_us_per_step": (per_step_us("buffers.sample"), "us"),
        "buffers.extend_us_per_step": (per_step_us("buffers.extend"), "us"),
        "buffers.replay_rows_per_step": (count.get("buffers.sample", 0) / steps, "count"),
        "buffers.reservoir_accept_ratio": (accepted / offered if offered else 0.0, "ratio"),
        "buffers.reservoir_offered_per_run": (offered / runs, "count"),
        "model.forward_eval_ms_per_run": (forward_eval / runs * 1e3, "ms"),
        "model.forward_eval_rows_per_run": (eval_rows / runs, "count"),
        "training.boundary_ms_per_run": (
            per_run_ms("buffers.evaluate_layer_accuracies") + per_run_ms("buffers.vbuf_update"),
            "ms",
        ),
        "streams.make_stream_ms_per_run": (per_run_ms("streams.make_stream"), "ms"),
        "streams.csv_bytes_per_run": (count.get("streams.make_stream", 0) / runs, "bytes"),
        "training.write_artifacts_ms_per_run": (per_run_ms("training.write_run_artifacts"), "ms"),
        "training.artifact_bytes_per_run": (
            count.get("training.write_run_artifacts", 0) / runs,
            "bytes",
        ),
        "metrics.summary_us_per_run": (total.get("training.build_summary", 0.0) / runs * 1e6, "us"),
        "cli.worker_run_s_p50": (statistics.median(unit_durations), "s"),
        "cli.pool_idle_share": (1.0 - busy / (jobs * loop_wall), "share"),
    }
