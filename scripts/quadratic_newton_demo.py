#!/usr/bin/env python3
"""Show the one-round quadratic collapse: spanning workers with exact
gradients give the server the full inverse Hessian, so tau=1 lands on the
minimizer immediately while plain averaging crawls."""

import sys
from dataclasses import replace
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))  # run this checkout's code, not an installed copy

from distnewton.config import load_config  # noqa: E402
from distnewton.harness import run_experiment  # noqa: E402

CONFIG = REPO / "configs" / "quadratic_newton.cfg"


def main():
    cfg = load_config(CONFIG)
    for aggregator in ("distnewton", "sgd_average"):
        hist = run_experiment(replace(cfg, aggregator=aggregator))
        print(f"{aggregator}:")
        for rec in hist.records:
            print(f"  epoch {rec.epoch}: J = {rec.train_nll:.3e}  (rank j = {rec.retained_j:.0f})")


if __name__ == "__main__":
    main()
