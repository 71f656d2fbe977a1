"""Set up one benchmark workload: import entrocl, build its plan, write inputs.

The benchmark times this script in a fresh interpreter several times per run
and reports the median as ``setup_s``, so work moved into import time, plan
parsing or input writing shows there. It also calls ``prepare`` in process to
make the inputs it then measures on.

    python3 bench/prepare.py DATA_SEED -- ENTROCL_FLAGS...

A plan with ``--stream csv`` gets a synthetic stream of the plan's shape,
drawn from DATA_SEED and written to its ``--csv-path`` with
``save_stream_csv``.
"""

import sys
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_entrocl():
    """Import entrocl from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import entrocl

    if Path(entrocl.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"entrocl imported from {entrocl.__file__}, not from {SRC}")
    return entrocl


def prepare(flags, data_seed):
    """Return the ExperimentPlan the flags describe, writing its CSV stream."""
    import_entrocl()
    from entrocl import cli, streams

    plan = cli.parse_args(flags)
    cfg = plan.stream_config
    if cfg.source == "csv":
        data_cfg = replace(cfg, source="synthetic", csv_path="", seed=data_seed)
        streams.save_stream_csv(streams.make_synthetic_stream(data_cfg), cfg.csv_path)
    return plan


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: prepare.py DATA_SEED -- ENTROCL_FLAGS...")
    prepare(sys.argv[3:], int(sys.argv[1]))
