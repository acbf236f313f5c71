#!/usr/bin/env python3
"""Cost of one-shot `distnewton run`s of a preset, each in a fresh process.

The preset is written out again with `harness.m` replaced.  Each
repetition runs `distnewton run` on it as a child process and reaps the
child with `os.wait4`, which returns that child's own minor page faults
and max RSS; its wall time runs from the start to the reaping.  The
medians over the repetitions are printed under a line naming the Python
and numpy versions and the usable core count.  Wall time includes
interpreter start-up and the dataset build, which is what a one-shot run
pays.

Usage: python scripts/one_shot_run.py [--config configs/mnist_tanh.cfg] [--m 1] [--repeats 5]
"""

import argparse
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))  # configure this checkout's code, not an installed copy

import numpy as np  # noqa: E402

from distnewton.config import emit_config, load_config  # noqa: E402


def one_run(cfg: Path, out: Path) -> dict:
    """One `distnewton run` of `cfg` in a child process, and what it cost."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "distnewton.cli", "run", "--config", str(cfg), "--out", str(out)],
        env=env, stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args)
    return {"wall_s": wall, "minor_faults": usage.ru_minflt, "max_rss_mb": usage.ru_maxrss / 1024.0}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=REPO / "configs" / "mnist_tanh.cfg")
    parser.add_argument("--m", type=int, default=1, help="harness.m for the runs")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(emit_config(replace(load_config(args.config), m=args.m)))
        runs = [one_run(cfg, Path(tmp) / f"out{k}") for k in range(args.repeats)]
    print(
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{len(os.sched_getaffinity(0))} cores; {args.config.name} at harness.m = {args.m}, "
        f"median of {args.repeats} fresh processes"
    )
    for key in ("wall_s", "minor_faults", "max_rss_mb"):
        print(f"{key} {statistics.median(r[key] for r in runs):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
