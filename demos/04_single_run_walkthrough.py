"""One full training run on the default synthetic benchmark, end to end:
stream construction, the task loop, and the evaluation artifacts."""

import numpy as np

from entrocl import RunConfig, StreamConfig, make_synthetic_stream, run_sequence

stream_cfg = StreamConfig(seed=0)
tasks = make_synthetic_stream(stream_cfg)
print(f"{len(tasks)} tasks over {stream_cfg.num_classes} classes;"
      f" task 1 classes={tasks[0].class_ids}, train={tasks[0].train_size}")

cfg = RunConfig(seed=0)
result = run_sequence(tasks, cfg)

print("\naccuracy matrix (row = after task t, column = eval task s):")
# result.accuracy is (layers, tasks, tasks); its last layer is the reported deepest head
for t, row in enumerate(result.accuracy[-1], start=1):
    print(f"  t={t}: " + " ".join(f"{a:.3f}" for a in row[:t]))

s = result.summary
print(f"\nfinal average accuracy : {s['acc_final']:.4f}")
print(f"backward transfer      : {s['bwt']:+.4f}")
print(f"average forgetting     : {s['average_forgetting']:.4f}")
print(f"final entropy spread   : {s['entropy_spread_final']:.4f}")
print(f"entropy deviation by task: {np.round(s['delta_t_per_task'], 4)}")

# one telemetry row per step: the task id and per-layer entropy, z, gamma, alpha, loss
telemetry = result.telemetry
rows = telemetry["entropy"][telemetry["task"] == telemetry["task"][-1]]
print(f"\nper-layer mean entropy over the last task's final 10 steps:")
print(" ", np.round(rows[-10:].mean(axis=0), 4))
