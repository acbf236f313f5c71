#!/usr/bin/env python3
"""Run the finite-difference gradient check over every preset config."""

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))  # check this checkout's code, not an installed copy

from distnewton.cli import main as cli_main  # noqa: E402

CONFIGS = REPO / "configs"


def main():
    worst = 0
    for cfg in sorted(CONFIGS.glob("*.cfg")):
        print(f"== {cfg.name}")
        worst = max(worst, cli_main(["grad-check", "--config", str(cfg)]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
