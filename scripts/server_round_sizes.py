#!/usr/bin/env python3
"""Time one distnewton server round over a grid of sizes.

For each (n, m) it prints the cold first call (the first server_round of
a fresh process, page faults included) and the warm median of ROUNDS
further rounds, with the retained rank j.  The reports are seeded
standard normals, redrawn in place before each round and outside its
timer, so that every round reads freshly written reports, as in a
training run.  One more round, outside the timed ones, runs under
tracemalloc, and its peak allocation is printed in units of 8n (the bytes
of one n-vector: theta_new alone reads 1.0).  `read MB` is the report
bytes a round reads, computed from the array shapes, not measured: pass 1
reads the m gradients and the step pass all 2m report vectors, so 8n * 3m
for m >= 2, and 8n * 2 at m = 1 (no pass 1, and the step pass reads only
theta_0 and g_0).  `GB/s` is that count over the warm median.  `read ms`
is measured: the median, over ROUNDS more redraws after the timed
rounds, of the time to read exactly those vectors once, in that order,
each by a BLAS dot product with itself (`v @ v`, which streams on every
BLAS thread, where `np.sum`'s one-thread pairwise sum can be bound by its
adds rather than by memory); the gap
between it and the warm median is what the round spends beyond reading
its inputs.  `pass1 ms` and `step ms` split the round: over ROUNDS more
redraws, `pass1 ms` is the median time of `difference_spectrum` on the
round's `center_reports` (the Gram pass and the eigensolve), and `step
ms` that of `step_coefficients` plus `combine` right after it on the
same reports (the step pass).  `gram ms` is pass 1's flop floor: the
median time of one X^T X over the m gradients, stacked once, outside the
timer, into one n x m Fortran-order matrix X; `pass1 GFLOP/s` is the
2 n m^2 flops of pass 1's Gram over `pass1 ms`.
A header line gives the numpy version, the BLAS numpy was built against
and the usable core count.  It times this checkout's `src`, not an
installed copy.

Usage: python scripts/server_round_sizes.py
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # time this checkout's code

import numpy as np  # noqa: E402

from distnewton.harness import server_round  # noqa: E402
from distnewton.operator import (  # noqa: E402
    WorkerReport,
    center_reports,
    combine,
    difference_spectrum,
    step_coefficients,
)

SIZES = [(100_000, 4), (100_000, 64), (300_000, 16), (300_000, 32), (300_000, 64), (1_000_000, 4), (1_000_000, 16)]
ROUNDS = 15
LAMBDA, TAU = 0.1, 0.01


def time_size(n: int, m: int) -> dict:
    rng = np.random.default_rng([n, m])
    reports = [WorkerReport(np.empty(n), np.empty(n)) for _ in range(m)]

    def redraw():
        for rep in reports:
            rng.standard_normal(out=rep.theta)
            rng.standard_normal(out=rep.grad)

    times = []
    for _ in range(ROUNDS + 1):
        redraw()
        t0 = time.perf_counter()
        _, stats = server_round(reports, LAMBDA, TAU, False, "distnewton")
        times.append(time.perf_counter() - t0)
    # what read_bytes counts: the m gradients, then all 2m reports
    reads = [rep.grad for rep in reports] if m >= 2 else []
    reads += [v for rep in reports for v in (rep.theta, rep.grad)]
    read_times = []
    for _ in range(ROUNDS):
        redraw()
        t0 = time.perf_counter()
        for v in reads:
            v @ v
        read_times.append(time.perf_counter() - t0)
    pass1_times, step_times = [], []
    for _ in range(ROUNDS):
        redraw()
        rows = center_reports(reports)
        t0 = time.perf_counter()
        spec = difference_spectrum(rows, LAMBDA)
        t1 = time.perf_counter()
        combine(rows, step_coefficients(spec, m, TAU))
        step_times.append(time.perf_counter() - t1)
        pass1_times.append(t1 - t0)
    stacked = np.asfortranarray(np.column_stack([rep.grad for rep in reports]))
    gram_times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        stacked.T @ stacked
        gram_times.append(time.perf_counter() - t0)
    del stacked
    redraw()  # one more round, untimed, for its allocation
    tracemalloc.start()
    server_round(reports, LAMBDA, TAU, False, "distnewton")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "cold_ms": 1e3 * times[0],
        "warm_p50_ms": 1e3 * statistics.median(times[1:]),
        "j": stats.j,
        "peak_alloc_8n": peak / (8 * n),
        "read_bytes": 8 * n * (3 * m if m >= 2 else 2),  # from the shapes, as the docstring says
        "read_ms": 1e3 * statistics.median(read_times),
        "pass1_ms": 1e3 * statistics.median(pass1_times),
        "step_ms": 1e3 * statistics.median(step_times),
        "gram_ms": 1e3 * statistics.median(gram_times),
        "pass1_gflops": 2 * n * m**2 / statistics.median(pass1_times) / 1e9,
    }


def blas() -> str:
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def main(argv) -> int:
    if argv[1:2] == ["--one"]:  # child: one size in a fresh process
        print(json.dumps(time_size(int(argv[2]), int(argv[3]))))
        return 0
    print(
        f"python {platform.python_version()}, numpy {np.__version__}, BLAS {blas()}, "
        f"{len(os.sched_getaffinity(0))} cores; warm p50 over {ROUNDS} rounds; "
        "read MB is computed from the report shapes, GB/s is read MB over the warm p50, "
        "read ms is the measured median time to read those bytes once, "
        "pass1 ms and step ms the medians of the round's two passes, gram ms that of one X^T X "
        "over the stacked gradients, pass1 GFLOP/s is 2 n m^2 over pass1 ms"
    )
    print(
        f"{'n':>9} {'m':>3} {'j':>3} {'cold ms':>9} {'warm p50 ms':>12} {'peak/8n':>8}"
        f" {'read MB':>8} {'GB/s':>6} {'read ms':>8} {'pass1 ms':>9} {'step ms':>8}"
        f" {'gram ms':>8} {'pass1 GFLOP/s':>14}"
    )
    for n, m in SIZES:
        out = subprocess.run(
            [sys.executable, __file__, "--one", str(n), str(m)], capture_output=True, text=True, check=True
        )
        r = json.loads(out.stdout)
        print(
            f"{n:>9} {m:>3} {r['j']:>3} {r['cold_ms']:>9.1f} {r['warm_p50_ms']:>12.1f} {r['peak_alloc_8n']:>8.2f}"
            f" {r['read_bytes'] / 1e6:>8.1f} {r['read_bytes'] / 1e6 / r['warm_p50_ms']:>6.2f} {r['read_ms']:>8.1f}"
            f" {r['pass1_ms']:>9.1f} {r['step_ms']:>8.1f} {r['gram_ms']:>8.1f} {r['pass1_gflops']:>14.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
