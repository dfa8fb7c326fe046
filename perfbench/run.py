"""Benchmark entry point.

    python3 perfbench/run.py --workload extract-views --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout: the program is imported from
`src/`. One process runs one workload. It builds the inputs from the seed
(several times, reporting the median as `setup_s`), then repeats rounds of
the workload's timed calls, one caller in a closed loop, while another
round fits in `--seconds` (at least two), with calibration passes between
rounds that turn round times into reference seconds (`calibration.py`).
Every operation's outputs are checked.
The last line of stdout is one JSON object: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics of traced
rounds, which alternate with untraced ones to give the tracing overhead. A human-readable
summary goes to stderr. Spans of a traced run are written to
`.perfbench/traces/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import logging
import math
import os
import resource
import shutil
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
MODULES = ("autodiff", "backbone", "augment", "objectives", "features", "evalkit",
           "segmem", "store", "config", "synth", "pipeline", "cli")
SETUP_REPEATS = 9
CALIBRATION_SHARE = 0.15
# One BLAS thread, set before numpy loads. With OpenBLAS's default of one
# thread per vCPU, every small product waits for both vCPUs of a shared host:
# the same probe call took 11-15 s on eight runs and 71 s on one, and the other
# thread's spinning doubled CPU time. One thread cost the probe about 15%.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def load_fungi():
    """Import the program from the checkout; None if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fungi", "__init__.py")):
        return None
    sys.path.insert(0, src)
    return types.SimpleNamespace(**{m: importlib.import_module(f"fungi.{m}") for m in MODULES})


def source_digest():
    """Identifies the code under test: program sources plus the benchmark."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def blas_info():
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": None, "blas_threads": None}
    try:
        info["blas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except (OSError, KeyError, TypeError):
        return info
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def measure(workload, fungi, state, budget_s, min_rounds=2, calibration=None):
    """Rounds while the next one, at the mean round time so far, would end
    within `budget_s`, and at least `min_rounds`. With a `calibration`, it
    runs before the first round and after each one, for a `CALIBRATION_SHARE`
    of that round's time, so a long round is bracketed by several passes.

    Returns the rounds and the peak RSS (MiB) after the first one: later
    rounds only add heap fragmentation that grows with the round count.
    """
    rounds, start = [], time.perf_counter()
    if calibration is not None:
        calibration.run()
    while True:
        rounds.append(workload.run_round(fungi, state))
        # each CLI call would run in a fresh process: free the round's cyclic
        # garbage (tape nodes) before the next one
        gc.collect()
        if len(rounds) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if calibration is not None:
            calibration.run_for(CALIBRATION_SHARE * sum(op.seconds for op in rounds[-1]))
        elapsed = time.perf_counter() - start
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > budget_s:
            return rounds, peak_rss_mb


def round_stats(rounds):
    per_round = [[op.seconds for op in r] for r in rounds]
    return {
        "round_s": statistics.median(sum(t) for t in per_round),
        "op_max_s": statistics.median(max(t) for t in per_round),
        "op_geomean_s": statistics.median(
            math.exp(sum(math.log(max(s, 1e-9)) for s in t) / len(t)) for t in per_round
        ),
    }


def end_to_end(setup_times, peak_rss_mb, stats, scale):
    """The untraced run's metrics: name -> (value, unit). Times are in
    reference seconds, wall seconds times the calibration's `scale`."""
    return {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "round_ref_s": (stats["round_s"] * scale, "s"),
        "op_max_ref_s": (stats["op_max_s"] * scale, "s"),
        "op_geomean_ref_s": (stats["op_geomean_s"] * scale, "s"),
    }


def verify(workload, seed, rounds, reference):
    """Cross-round, cross-run and reference checks; marks failing ops."""
    first = rounds[0]
    for r in rounds[1:]:
        for op, ref_op in zip(r, first):
            if op.digest != ref_op.digest:
                op.fail("outputs differ from the first round's")
    ref = reference.get(workload.ref_key, {}).get(str(seed))
    if ref is None:
        log(f"no recorded reference for seed {seed}: invariant checks only")
    else:
        tol = reference["tolerances"][workload.ref_key]
        for r in rounds:
            for op in r:
                workload.compare(op, ref, tol)
    # outputs of one commit stay byte-identical across runs in this checkout
    path = os.path.join(STATE_DIR, "digests.json")
    key = f"{workload.name}/{seed}/{source_digest()}"
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except (OSError, ValueError):
        known = {}
    if key in known:
        for r in rounds:
            for op, want in zip(r, known[key]):
                if op.digest != want:
                    op.fail("outputs differ from an earlier run of the same code")
    elif all(op.ok for op in first):
        known[key] = [op.digest for op in first]
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(known, fh)
        os.replace(tmp, path)


def log(message):
    print(message, file=sys.stderr, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fungi = load_fungi()
    if fungi is None:
        log(f"no program sources under {os.path.join(ROOT, 'src')}; nothing to benchmark")
        return 2
    from perfbench import calibration, layers, workloads  # after the program import: need numpy

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        log(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
        return 2
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)  # quiets the CLI's INFO lines
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    work = os.path.join(STATE_DIR, "work", f"{workload.name}-{args.seed}-{os.getpid()}")
    try:
        setup_times = []
        for rep in range(SETUP_REPEATS):
            workdir = os.path.join(work, f"setup{rep}")
            os.makedirs(workdir)
            start = time.perf_counter()
            state = workload.setup(fungi, args.seed, workdir)
            setup_times.append(time.perf_counter() - start)

        if args.trace:
            untraced, traced, layer_values, absent = layers.traced_run(
                workload, fungi, state, args.seconds, measure, round_stats,
                args.seed, os.path.join(STATE_DIR, "traces"), MODULES)
            rounds = untraced + traced
            if absent:
                log("absent from the program (reported as 0): " + ", ".join(absent))
            log(f"tracing overhead: {layer_values['trace.overhead'][0]:+.3f} "
                f"({len(traced)} traced vs {len(untraced)} untraced rounds)")
        else:
            cal = calibration.Calibration()
            untraced, peak_rss_mb = measure(workload, fungi, state, args.seconds, calibration=cal)
            rounds = untraced
        verify(workload, args.seed, rounds, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if not op.ok]
    for op in failed[:5]:
        log(f"FAILED {op.name}: " + "; ".join(p.strip() for p in op.problems))
    stats = round_stats(untraced)
    headline = workload.headline(untraced, state)
    headline["failed_op_share"] = len(failed) / len(ops)
    log(f"{workload.name} seed={args.seed}: {len(rounds)} rounds, {len(ops)} ops, {len(failed)} failed; "
        f"setup {statistics.median(setup_times):.3f}s; "
        + ", ".join(f"{k}={v:.4g}" for k, v in {**stats, **headline}.items()))
    log("round times: " + " ".join(f"{sum(op.seconds for op in r):.3f}" for r in rounds))
    log("machine: " + json.dumps(blas_info()))

    if args.trace:
        metrics = layer_values
        for name, unit in layers.E2E_UNITS.items():
            value = headline.get(name, 0.0)
            metrics[f"e2e.{name}"] = (value if math.isfinite(value) else 0.0, unit)
    else:
        log(f"calibration: median {statistics.median(cal.times):.4f}s over {len(cal.times)} passes, "
            f"scale {cal.scale():.4f}")
        metrics = end_to_end(setup_times, peak_rss_mb, stats, cal.scale())
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
