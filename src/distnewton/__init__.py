"""Distributed quasi-Newton optimization: low-rank inverse-Hessian updates
built from worker (parameter, gradient) reports, plus a synchronous
parameter-server simulation harness."""

from .config import ExperimentConfig, emit_config, load_config, parse_config_text
from .harness import RunHistory, run_experiment, server_round
from .operator import WorkerReport, apply, build_operator, newton_update

__all__ = [
    "ExperimentConfig",
    "RunHistory",
    "WorkerReport",
    "apply",
    "build_operator",
    "emit_config",
    "load_config",
    "newton_update",
    "parse_config_text",
    "run_experiment",
    "server_round",
]
