import numpy as np
import pytest

from distnewton.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    main,
    read_history_csv,
)
from distnewton.config import emit_config, load_config, parse_config_text

QUADRATIC_CFG = """
objective.kind = quadratic
objective.dim = 6
objective.condition = 50.0
data.kind = none
harness.m = 7
harness.local_lr = 0.05
harness.tau = 1.0
harness.jitter = 0.5
harness.epochs = 4
harness.seed = 0
operator.lambda = 1e-6
"""

BLOB_CFG = """
objective.kind = mlp
objective.layers = 12,8,4
objective.activation = tanh
data.kind = synthetic
data.features = 12
data.classes = 4
data.samples = 320
data.seed = 9
data.limit = 0
harness.m = 2
harness.local_lr = 0.05
harness.tau = 0.05
harness.epochs = 2
harness.global_batch = 32
harness.seed = 1
operator.lambda = 0.1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def strip_wall_time(csv_text: str) -> str:
    """Timing column varies run to run; everything else must not."""
    lines = []
    for line in csv_text.strip().splitlines():
        lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


# -------------------------------------------------------------------- run


def test_run_quadratic_exits_zero(tmp_path):
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = read_history_csv(out / "distnewton-7.csv")
    assert len(rows) == 4
    assert rows[-1]["train_nll"] < 1e-10


def test_run_writes_resolved_config_echo(tmp_path):
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    resolved = (out / "resolved.cfg").read_text()
    parsed = parse_config_text(resolved)
    assert parsed == load_config(cfg)
    # defaults materialized, not just the keys the file set
    assert "harness.global_batch = 256" in resolved


def test_run_rejects_zero_workers(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUADRATIC_CFG + "harness.m = 0\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "harness.m" in capsys.readouterr().err


def test_run_rejects_unknown_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "harness.bogus = 3\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "harness.bogus" in capsys.readouterr().err


def test_feature_mismatch_exits_config_naming_layers(tmp_path, capsys):
    # the dataset has 12 features but the model's input layer expects 10
    text = BLOB_CFG.replace("objective.layers = 12,8,4", "objective.layers = 10,8,4")
    cfg = write_cfg(tmp_path, text)
    for command in ("run", "sweep"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "objective.layers" in err
        assert "Traceback" not in err


def test_run_missing_config_file(tmp_path):
    code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_run_divergence_exit_code_and_flag_row(tmp_path):
    text = BLOB_CFG.replace("objective.activation = tanh", "objective.activation = relu")
    text = text.replace("harness.local_lr = 0.05", "harness.local_lr = 1e160")
    text = text.replace("harness.tau = 0.05", "harness.tau = 1.0")
    text = text.replace("harness.epochs = 2", "harness.epochs = 8")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGED
    rows = read_history_csv(out / "distnewton-2.csv")
    assert 0 < len(rows) < 8  # truncated
    assert np.isnan(rows[-1]["train_nll"])  # flag row, still well-formed CSV


def test_run_csv_round_trip_numerics(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    rows = read_history_csv(out / "distnewton-2.csv")
    from distnewton.harness import run_experiment

    hist = run_experiment(load_config(cfg))
    for row, rec in zip(rows, hist.records):
        assert row["epoch"] == rec.epoch
        assert row["train_nll"] == pytest.approx(rec.train_nll, rel=1e-12)
        assert row["retained_j"] == pytest.approx(rec.retained_j, rel=1e-12)


def test_run_idempotent_modulo_wall_time(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    out = tmp_path / "out"
    main(["run", "--config", str(cfg), "--out", str(out)])
    first = strip_wall_time((out / "distnewton-2.csv").read_text())
    main(["run", "--config", str(cfg), "--out", str(out)])
    second = strip_wall_time((out / "distnewton-2.csv").read_text())
    assert first == second


def test_run_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(cfg), "--out", str(out1), "--seed", "7"])
    main(["run", "--config", str(cfg), "--out", str(out2), "--seed", "7"])
    assert strip_wall_time((out1 / "distnewton-2.csv").read_text()) == strip_wall_time(
        (out2 / "distnewton-2.csv").read_text()
    )
    resolved = (out1 / "resolved.cfg").read_text()
    assert "harness.seed = 7" in resolved


def test_run_output_dir_from_env(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    out = tmp_path / "envout"
    monkeypatch.setenv("DISTNEWTON_OUT", str(out))
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert (out / "distnewton-7.csv").exists()


def test_run_threads_flag_identical_output(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    main(["run", "--config", str(cfg), "--out", str(out1), "--threads", "1"])
    main(["run", "--config", str(cfg), "--out", str(out2), "--threads", "3"])
    assert strip_wall_time((out1 / "distnewton-2.csv").read_text()) == strip_wall_time(
        (out2 / "distnewton-2.csv").read_text()
    )


# ------------------------------------------------------------------ sweep


def test_sweep_writes_one_csv_per_curve(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    out = tmp_path / "out"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "1,2,4,8"])
    assert code == EXIT_OK
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == ["distnewton-1.csv", "distnewton-2.csv", "distnewton-4.csv",
                     "distnewton-8.csv", "sgd.csv"]


def test_sweep_summary_sorted_ascending(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    out = tmp_path / "out"
    main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", "2,4"])
    lines = (out / "summary.txt").read_text().strip().splitlines()
    assert len(lines) == 3
    finals = [float(line.split("final_train_nll=")[1]) for line in lines]
    assert finals == sorted(finals)


def test_sweep_rejects_bad_worker_list(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", "0,2"])
    assert code == EXIT_CONFIG


# -------------------------------------------------------------- grad-check


def test_grad_check_quadratic_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    assert main(["grad-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "max relative gradient error" in capsys.readouterr().out


def test_grad_check_tanh_mlp_passes(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    assert main(["grad-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_grad_check_relu_mlp_passes(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG.replace("tanh", "relu"))
    assert main(["grad-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK


def test_grad_check_corrupted_gradient_fails(tmp_path, capsys, monkeypatch):
    # negative control: an honest value with one wrong gradient entry
    import distnewton.cli
    from distnewton.harness import build_objective

    class CorruptedGradient:
        def __init__(self, inner):
            self.inner = inner
            self.dim = inner.dim

        def value(self, theta, batch=None):
            return self.inner.value(theta, batch)

        def gradient(self, theta, batch=None):
            g = self.inner.gradient(theta, batch).copy()
            g[0] = 2.0 * g[0] + 1.0
            return g

    monkeypatch.setattr(distnewton.cli, "build_objective", lambda cfg: CorruptedGradient(build_objective(cfg)))
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    code = main(["grad-check", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code != EXIT_OK
    assert "FAILED" in capsys.readouterr().err


# ------------------------------------------------------------------ config


def test_emit_parse_round_trip():
    cfg = parse_config_text(BLOB_CFG)
    assert parse_config_text(emit_config(cfg)) == cfg


def test_config_rejects_bad_value():
    from distnewton.errors import ConfigError

    with pytest.raises(ConfigError) as err:
        parse_config_text("harness.m = banana\n")
    assert err.value.field == "harness.m"


def test_config_rejects_garbage_line():
    from distnewton.errors import ConfigError

    with pytest.raises(ConfigError):
        parse_config_text("this is not a config\n")
