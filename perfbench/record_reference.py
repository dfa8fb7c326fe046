"""Record reference outputs for the benchmark's correctness checks.

    python3 perfbench/record_reference.py

Runs one round of every workload for seeds 0-31 with the program in `src/`
and stores what `compare` checks later runs against: fused extract rows,
eval report values, segmentation grids and mIoU. The three `eval-banks.*`
workloads share one entry per seed. Tolerances already in `reference.json`
are kept as they are. Re-record only when a change is meant to alter
results, and say so in the change.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import run  # noqa: E402

SEEDS = range(32)


def main():
    fungi = run.load_fungi()
    from perfbench import workloads

    logging.basicConfig(level=logging.WARNING)
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        reference = json.load(fh)
    os.makedirs(run.STATE_DIR, exist_ok=True)
    for workload in workloads.WORKLOADS.values():
        recorded = reference.setdefault(workload.ref_key, {})
        for seed in SEEDS:
            workdir = tempfile.mkdtemp(dir=run.STATE_DIR)
            try:
                state = workload.setup(fungi, seed, workdir)
                ops = workload.run_round(fungi, state)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            bad = [f"{op.name}: {op.problems}" for op in ops if not op.ok]
            if bad:
                sys.exit(f"{workload.name} seed {seed} fails its own checks: {bad}")
            recorded.setdefault(str(seed), {}).update(workload.record(ops))
            print(f"{workload.name} seed {seed} recorded", file=sys.stderr, flush=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
