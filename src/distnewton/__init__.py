"""Distributed quasi-Newton optimization: low-rank inverse-Hessian updates
built from worker (parameter, gradient) reports, plus a synchronous
parameter-server simulation harness.

The root exports what a run needs: `load_config` reads a config file,
`run_experiment` trains from it, and `WorkerReport` is the server's input.
Everything else is imported from its own module."""

from .config import load_config
from .harness import run_experiment
from .operator import WorkerReport

__all__ = ["WorkerReport", "load_config", "run_experiment"]
