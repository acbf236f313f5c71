#!/usr/bin/env python3
"""Where criterion 7's gain comes from, arm by arm.

Criterion 7 (`tests/test_acceptance.py`) orders distnewton at m = 8 and
m = 4 against the `sgd_average` baseline at m = 1.  This script runs that
test's own configuration (`_comparison_cfg`, `_comparison_dataset`), so it
cannot drift from it, and splits the gain into arms, each a config
override only:

- `sgd_average` at m = 1, the criterion's baseline, which weighs each
  round's report gradient by zero;
- distnewton at m = 1 (`theta - tau g` after the local step, so the
  report gradient is used), with the preset's jitter and with jitter 0;
- distnewton at m = 4 and m = 8 at the default lambda (rank j), and at
  lambda = 2, which forces j = 0: the averaged gradient step;
- j = 0 at m = 8 over `harness.tau = 0.01 * 2^k`, k = 0..7.

It prints the final train NLL of each arm per seed and as a mean, and how
many seeds each rank-j arm beats its own j = 0 arm on.

Usage: python scripts/decompose_criterion7.py [--seeds 0,1,2,3,4] [--epochs 20]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]  # this checkout's code and test

from distnewton.config import DEFAULT_LAMBDA  # noqa: E402
from distnewton.harness import run_experiment  # noqa: E402
from test_acceptance import _comparison_cfg, _comparison_dataset  # noqa: E402

J0_LAMBDA = 2.0  # past every ratio sigma_k / sigma_1, so j = 0
TAUS = [0.01 * 2**k for k in range(8)]


def arms(seed):
    """(label, cfg) of each arm at one seed, in the order printed."""
    def cfg(m, lam=DEFAULT_LAMBDA, aggregator="distnewton"):
        return _comparison_cfg(m, aggregator, seed, lam)

    yield "sgd_average m=1", cfg(1, aggregator="sgd_average")
    yield "distnewton m=1", cfg(1)
    yield "distnewton m=1 jitter=0", replace(cfg(1), worker_jitter=0.0)
    for m in (4, 8):
        yield f"distnewton m={m}", cfg(m)
        yield f"distnewton m={m} j=0", cfg(m, J0_LAMBDA)


def final_nll(cfg, epochs, dataset) -> float:
    """The run's final train NLL; NaN if it diverged."""
    return run_experiment(replace(cfg, epochs=epochs), dataset=dataset).final_nll


def row(label, values) -> str:
    mean = sum(values) / len(values)
    return f"{label:<26}" + "".join(f"{v:>9.4f}" for v in values) + f"{mean:>9.4f}"


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    parser.add_argument("--epochs", type=int, default=20)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    dataset, source = _comparison_dataset()

    print(f"criterion 7's configuration on the {source}, {args.epochs} epochs: final train NLL")
    header = "".join(f"{'seed ' + str(s):>9}" for s in seeds) + f"{'mean':>9}"
    print(f"{'arm':<26}" + header)
    finals = {}
    for per_seed in zip(*(arms(s) for s in seeds)):
        label = per_seed[0][0]
        finals[label] = [final_nll(cfg, args.epochs, dataset) for _, cfg in per_seed]
        print(row(label, finals[label]))
    for m in (4, 8):
        wins = sum(r < z for r, z in zip(finals[f"distnewton m={m}"], finals[f"distnewton m={m} j=0"]))
        print(f"rank j beats j=0 at m={m} on {wins}/{len(seeds)} seeds")

    print("j=0 at m=8 over harness.tau: final train NLL")
    print(f"{'tau':<26}" + header)
    for tau in TAUS:
        nlls = [final_nll(replace(_comparison_cfg(8, "distnewton", s, J0_LAMBDA), server_tau=tau), args.epochs,
                          dataset) for s in seeds]
        print(row(f"{tau:g}", nlls))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
