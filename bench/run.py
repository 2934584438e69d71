"""Benchmark driver for cellcomplexes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload single-process and single-threaded on the library in
``src/`` of the checkout this file sits in.  It prints every metric by
name with its unit, then one run record (environment and sample
counts), and as its last line the JSON result the benchmark contract
asks for.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Run records, and the spans of a
traced run, are also written under ``bench_out/`` in the checkout.

Every time the result reports is scaled to a reference speed: the run
interleaves ``calibrate()``, a fixed piece of pure-Python work that does
not touch the library, with its ops, and multiplies each op's latency by
``REF_CALIBRATE_S`` over the median of the calibrations around it.  On
a shared host the speed of a core drifts by tens of percent within
seconds and between minutes; the library is pure Python too, so its ops
slow down in step with the calibration, and the scaled times keep what
the library itself costs.
A change to the library moves them as much as the raw times; the raw
times are in the run record.

Exit status: 0 after a run (failed ops are reported in the result, not
by the exit status), 2 when the library cannot be imported or the
generated inputs are invalid.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 5  # set-up repetitions; setup_s is their median
MIN_BATCHES = 2  # batches every untraced run completes
CALIBRATE_STEPS = 1300
REF_CALIBRATE_S = 0.010  # calibrate() on an idle core of the reference machine

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cells_per_s": "cells/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "ok_ratio": "1",
}


def calibrate() -> float:
    """Seconds taken by a fixed piece of work in the style of the library
    (integer row operations on lists, dict counts), without the library.
    Garbage collection is held off, so the library's heap does not enter
    the time."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    rows = [[(i * 31 + j * 17) % 11 - 5 for j in range(40)] for i in range(40)]
    seen = {}
    for k in range(CALIBRATE_STEPS):
        i, j = k % 40, (k * 7 + 3) % 40
        q = rows[j][k % 40]
        rows[j] = [(a - q * b) % 1009 for a, b in zip(rows[j], rows[i])]
        seen[rows[j][i]] = seen.get(rows[j][i], 0) + 1
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def speed(samples) -> float:
    """The factor that scales times measured next to these calibration
    samples to the reference speed."""
    return REF_CALIBRATE_S / statistics.median(samples)


class Tally:
    """Ops attempted, failures by op, and scaled op latencies by input."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.latencies = {}  # case label -> scaled latency of each measured op
        self.trail = []      # per batch: unscaled op latencies and calibrations

    def op(self, wl, lib, case, tracer=None):
        """One op and its check; returns the op's latency."""
        op_id = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(lib, case)
            else:
                with tracer.root(op_id):
                    out = wl.run(lib, case)
        except Exception as e:  # an op that raises fails; the run goes on
            elapsed = time.perf_counter() - t0
            error = f"raised {type(e).__name__}: {e}"
        else:
            elapsed = time.perf_counter() - t0
            error = wl.check(case, out)
        if error:
            self.failures.append(f"op {op_id} ({case.label}): {error}")
        return elapsed

    def batch(self, wl, lib, cases, tracer=None):
        """Every case once, with a calibration before the first op and after
        each.  Op k is scaled by the median of the calibrations k - 1 to
        k + 2, the two on either side of it, so that one calibration the
        host interrupts does not skew it.  Returns (sum of scaled op
        latencies, wall time with checks and without calibrations).  Each
        batch starts from a collected heap, so that cyclic garbage
        collection does not depend on what ran before it."""
        gc.collect()
        calib = [calibrate()]
        raw = []
        t0 = time.perf_counter()
        for case in cases:
            raw.append(self.op(wl, lib, case, tracer))
            calib.append(calibrate())
        wall = time.perf_counter() - t0 - sum(calib[1:])
        total = 0.0
        for k, (case, t) in enumerate(zip(cases, raw)):
            scaled = t * speed(calib[max(k - 1, 0): k + 3])
            self.latencies.setdefault(case.label, []).append(scaled)
            total += scaled
        self.trail.append({"op_s": raw, "calibrate_s": calib})
        return total, wall


def batches(tally, wl, lib, cases, seconds, at_least, tracer=None):
    """Whole batches until the next one would end after ``seconds``, and at
    least ``at_least`` of them.  Whole batches keep the mix of every run the
    same, which keeps the latency percentiles comparable between runs."""
    op_times, walls = [], []
    t0 = time.perf_counter()
    while True:
        ops, wall = tally.batch(wl, lib, cases, tracer)
        op_times.append(ops)
        walls.append(wall)
        elapsed = time.perf_counter() - t0
        if len(walls) >= at_least and elapsed * (len(walls) + 1) / len(walls) > seconds:
            return op_times, walls


def setup(wl, lib, seed, workdir, tally, import_s):
    """Generate and validate the inputs, write input files, warm up on the
    smallest input.  Repeated SETUPS times; returns the last inputs and the
    scaled set-up times, each counting the one library import."""
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        cases = wl.prepare(lib, random.Random(seed), workdir)
        tally.op(wl, lib, min(cases, key=lambda c: c.cells))
        elapsed = import_s + time.perf_counter() - t0
        times.append(elapsed * speed([calibrate() for _ in range(3)]))
    return cases, times


def end_to_end(tally, cases, setup_times, batch_times):
    """wall_s is the median batch time, where a batch's time is the sum of
    its scaled op latencies: the checks between ops are the benchmark's own
    work and are left out.  op_p50_ms and op_tail_ms are taken over every op
    the run measured; the tail is the op with exactly ten ops beyond it,
    and its percentile is recorded."""
    ops = sorted(t for v in tally.latencies.values() for t in v)
    n = len(ops)
    tail_rank = max(n - 10, 1)
    wall = statistics.median(batch_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cells_per_s": sum(c.cells for c in cases) / wall,
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_tail_ms": 1000 * ops[tail_rank - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - len(tally.failures) / tally.attempted,
    }
    details = {"op_samples": n, "tail_percentile": round(100 * tail_rank / n, 2)}
    return metrics, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        import cellcomplexes
    except ImportError as e:
        print(f"bench: cannot import cellcomplexes from {src}: {e}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if Path(cellcomplexes.__file__).resolve().parent.parent != src.resolve():
        print(f"bench: cellcomplexes came from {cellcomplexes.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import numpy
    import tracing
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = ROOT / "bench_out"
    workdir = out_dir / f"inputs-{wl.name}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}"

    lib = workloads.Lib()
    tally = Tally()
    try:
        cases, setup_times = setup(wl, lib, args.seed, workdir, tally, import_s)
    except workloads.SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    # The inputs of the whole batch stay alive; freezing them keeps the
    # collector from scanning them during every op, as it would not in a
    # process that holds one complex.
    gc.collect()
    gc.freeze()

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "loadavg_1m": os.getloadavg()[0],
        "threads_env": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "ops_per_batch": len(cases), "batch_cells": sum(c.cells for c in cases),
        "op_order": [c.label for c in cases],
        "setup_s_each": setup_times,
    }
    if args.trace:
        # one untraced batch as the reference for the tracing overhead
        reference, _ = tally.batch(wl, lib, cases)
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            op_times, walls = batches(tally, wl, lib, cases,
                                      args.seconds - reference, 1, tracer)
        finally:
            tracer.restore()
        metrics = tracer.metrics(len(op_times), sum(walls),
                                 statistics.median(op_times) - reference)
        units = tracing.per_layer_units()
        tracer.write_jsonl(f"{stem}-spans.jsonl.gz")
        record.update(traced_batches=len(op_times), untraced_batch_s=reference,
                      traced_batch_s=op_times)
    else:
        op_times, walls = batches(tally, wl, lib, cases, args.seconds, MIN_BATCHES)
        metrics, details = end_to_end(tally, cases, setup_times, op_times)
        units = END_TO_END
        record.update(details, batches=len(op_times), batch_wall_s=walls,
                      batch_op_s=op_times, op_latency_s=tally.latencies)
    record.update(attempted=tally.attempted, failures=tally.failures)

    for f in tally.failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:30s} {metrics[name]:14.6g} {unit}")
    print("bench: " + json.dumps(record))
    stem.with_suffix(".json").write_text(json.dumps({**record, "metrics": metrics,
                                                     "batch_trail": tally.trail}, indent=1))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
