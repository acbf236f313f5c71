import itertools
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from distnewton.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_INTERNAL, EXIT_OK, main
from distnewton.config import emit_config, load_config, parse_config_text
from distnewton.data import IMAGE_MAGIC, LABEL_MAGIC


def read_history_csv(path) -> list[dict]:
    """The rows of a history CSV as {column: value} dicts."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    names = lines[0].split(",")
    return [dict(zip(names, map(float, line.split(",")))) for line in lines[1:]]


PRESETS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.cfg"))

QUADRATIC_CFG = """
objective.kind = quadratic
objective.dim = 6
objective.condition = 50.0
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
data.samples = 320
data.seed = 9
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


def argv(command, cfg, tmp_path):
    """`command` on `cfg`, writing under tmp_path/o if the command writes."""
    out = [] if command == "grad-check" else ["--out", str(tmp_path / "o")]
    return [command, "--config", str(cfg), *out]


def with_setting(text, key, value):
    """text with any line that sets `key` dropped and `key = value` appended:
    a config may set a key only once."""
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() != key]
    return "\n".join(kept) + f"\n{key} = {value}\n"


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
    cfg = write_cfg(tmp_path, with_setting(QUADRATIC_CFG, "harness.m", 0))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "harness.m" in capsys.readouterr().err


@pytest.mark.parametrize("spread,code", [("-0.15", EXIT_CONFIG), ("0", EXIT_OK)])
def test_run_holds_data_spread_to_nonnegative(tmp_path, capsys, spread, code):
    # a negative spread would only flip the noise's sign: the rule is >= 0
    preset = next(p for p in PRESETS if p.stem == "mnist_tanh").read_text(encoding="utf-8")
    text = with_setting(with_setting(preset, "data.spread", spread), "harness.epochs", 1)
    cfg = write_cfg(tmp_path, with_setting(text, "data.samples", 512))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: data.spread: must be >= 0") == (code == EXIT_CONFIG)


def test_run_rejects_unknown_key(tmp_path, capsys):
    # data.kind was removed: the IDX paths alone choose the data source;
    # operator.lr_cap was removed: every round steps with harness.tau
    for key in ("harness.bogus", "data.kind", "operator.lr_cap"):
        cfg = write_cfg(tmp_path, f"{key} = 3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert key in err
        assert "unknown configuration key" in err


@pytest.mark.parametrize("key, missing", [("data.images", "data.labels"), ("data.labels", "data.images")])
def test_one_idx_path_exits_config_naming_the_other(tmp_path, capsys, key, missing):
    cfg = write_cfg(tmp_path, BLOB_CFG + f"{key} = {tmp_path / 'file.idx'}\n")
    for command in ("run", "sweep", "grad-check"):
        assert main(argv(command, cfg, tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {missing}: ")
        assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def idx_cfg(tmp_path, image_bytes, label_bytes, layers="4,3"):
    """A config that reads the given bytes as its IDX image and label files."""
    (tmp_path / "images.idx").write_bytes(image_bytes)
    (tmp_path / "labels.idx").write_bytes(label_bytes)
    return write_cfg(tmp_path, (
        f"objective.layers = {layers}\nharness.m = 1\nharness.global_batch = 2\n"
        f"data.images = {tmp_path / 'images.idx'}\ndata.labels = {tmp_path / 'labels.idx'}\n"
    ))


def test_feature_mismatch_exits_config_naming_layers(tmp_path, capsys):
    # two 2x2 images, so 4 features
    images = struct.pack(">4I", IMAGE_MAGIC, 2, 2, 2) + bytes(8)
    mismatches = (
        # the model's input layer expects 5 features
        (images, struct.pack(">2I", LABEL_MAGIC, 2) + bytes([0, 2]), "5,3"),
        # a label of 5 but the model has 3 outputs
        (images, struct.pack(">2I", LABEL_MAGIC, 2) + bytes([0, 5]), "4,3"),
    )
    for image_bytes, label_bytes, layers in mismatches:
        cfg = idx_cfg(tmp_path, image_bytes, label_bytes, layers)
        for command in ("run", "sweep", "grad-check"):
            assert main(argv(command, cfg, tmp_path)) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "objective.layers" in err
            assert "Traceback" not in err


def test_rosenbrock_odd_dimension_exits_config(tmp_path, capsys):
    for dim in (1, 7):
        cfg = write_cfg(tmp_path, f"objective.kind = rosenbrock\nobjective.dim = {dim}\n")
        for command in ("run", "sweep"):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert "objective.dim" in err
            assert "Traceback" not in err


def test_run_malformed_idx_exits_config_naming_file(tmp_path, capsys):
    images = struct.pack(">4I", IMAGE_MAGIC, 2, 2, 2) + bytes(8)
    labels = struct.pack(">2I", LABEL_MAGIC, 2) + bytes(2)
    # label bytes of None point data.labels at the images file
    broken = {
        "bad image magic": (struct.pack(">4I", 0, 2, 2, 2) + bytes(8), labels, "data.images",
                            "bad magic 0x00000000"),
        "truncated images": (images[:-3], labels, "data.images", "expected 24 bytes, file has 21"),
        "truncated labels": (images, labels[:-1], "data.labels", "label payload truncated"),
        "count mismatch": (images, struct.pack(">2I", LABEL_MAGIC, 1) + bytes(1), "data.labels",
                           "2 images but 1 labels"),
        "garbage labels": (images, b"garbage", "data.labels", "header truncated"),
        "images as labels": (images, None, "data.labels", "bad magic 0x00000803"),
    }
    for case, (image_bytes, label_bytes, key, fault) in broken.items():
        cfg = idx_cfg(tmp_path, image_bytes, labels if label_bytes is None else label_bytes)
        if label_bytes is None:
            write_cfg(tmp_path, with_setting(cfg.read_text(), "data.labels", tmp_path / "images.idx"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG, case
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: "), case
        assert fault in err, case
        assert "Traceback" not in err, case


def test_run_missing_config_file(tmp_path):
    code = main(["run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG


def test_unreadable_config_exits_config_naming_flag(tmp_path, capsys):
    (tmp_path / "latin1.cfg").write_bytes("# caf\xe9\nharness.m = 2\n".encode("latin-1"))
    for path in (tmp_path, tmp_path / "latin1.cfg"):
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: --config: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("key", ["data.images", "data.labels"])
def test_unreadable_data_path_exits_config_naming_key(tmp_path, capsys, key):
    images = struct.pack(">4I", IMAGE_MAGIC, 2, 2, 2) + bytes(8)
    labels = struct.pack(">2I", LABEL_MAGIC, 2) + bytes(2)
    cfg = idx_cfg(tmp_path, images, labels)
    (tmp_path / "dir").mkdir()
    # a directory, a missing file, and a path that runs through a file
    for bad in (tmp_path / "dir", tmp_path / "missing.idx", tmp_path / "images.idx" / "idx"):
        write_cfg(tmp_path, with_setting(cfg.read_text(), key, bad), name="bad.cfg")
        for command in ("run", "grad-check"):
            assert main(argv(command, tmp_path / "bad.cfg", tmp_path)) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {key}: ")
            assert "Traceback" not in err


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


@pytest.mark.parametrize("field", ["theta", "grad"])
def test_run_whose_report_differences_overflow_exits_diverged(tmp_path, monkeypatch, field):
    # finite reports whose differences from worker 0 overflow float64 end
    # the run as diverged, not as an internal error
    from distnewton import harness

    real, count = harness.worker_round, itertools.count()

    def overflowing(*args):
        rep = real(*args)
        vec = getattr(rep, field).copy()
        vec[0] = 1e308 * (-1) ** next(count)
        return replace(rep, **{field: vec})

    monkeypatch.setattr(harness, "worker_round", overflowing)
    cfg = write_cfg(tmp_path, BLOB_CFG)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGED
    rows = read_history_csv(out / "distnewton-2.csv")
    assert len(rows) == 1 and np.isnan(rows[0]["train_nll"])
    # the summary says which pass overflowed: the Gram sum or the step
    why = {"theta": "theta_new: the differences from worker 0 or the step overflowed",
           "grad": "difference_spectrum: the gradient differences from worker 0 overflow"}[field]
    summary = (out / "summary.txt").read_text()
    assert summary.endswith(f'final_train_nll=nan stopped="epoch 0 round 0: {why}"\n')


def test_relu_divergence_preset_names_where_it_stopped(tmp_path):
    # a diverged run's summary line names the epoch, round and report at fault
    cfg, out = PRESETS[0].with_name("relu_divergence.cfg"), tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGED
    summary = (out / "summary.txt").read_text()
    assert summary == (
        "distnewton-4: status=diverged epochs=1 final_train_nll=nan "
        'stopped="epoch 0 round 0: report 0: gradient has a NaN or infinite entry"\n'
    )


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


def test_run_more_workers_than_samples_exits_config(tmp_path, capsys):
    text = BLOB_CFG.replace("data.samples = 320", "data.samples = 6").replace("harness.m = 2", "harness.m = 8")
    cfg = write_cfg(tmp_path, text)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "harness.m" in err
    assert "Traceback" not in err


def test_usage_errors_exit_config(tmp_path, capsys):
    # argparse's own exit code 2 would read as a diverged run
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    assert main(["run", "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert main(["run", "--config", str(cfg), "--threads", "2"]) == EXIT_CONFIG
    # grad-check writes nothing, so it takes no output directory
    assert main(["grad-check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert main(["run", "--help"]) == EXIT_OK
    assert "--config" in capsys.readouterr().out


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


def test_sweep_builds_the_dataset_once(tmp_path, monkeypatch):
    import distnewton.harness

    calls = []
    real = distnewton.harness.synthetic_blobs

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(distnewton.harness, "synthetic_blobs", counting)
    # the base harness.m exceeds the 6 samples, but every cell's m fits
    text = BLOB_CFG.replace("data.samples = 320", "data.samples = 6").replace("harness.m = 2", "harness.m = 8")
    cfg = write_cfg(tmp_path, text)
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", "1,2,4"])
    assert code == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_failing_cell_is_reported_and_written(tmp_path, capsys, monkeypatch, command):
    import distnewton.cli

    real = distnewton.cli.run_experiment

    def fails_at_two_workers(cfg, **kwargs):
        if cfg.m == 2 and cfg.aggregator == "distnewton":
            raise RuntimeError("cell broke")
        return real(cfg, **kwargs)

    monkeypatch.setattr(distnewton.cli, "run_experiment", fails_at_two_workers)
    cfg = write_cfg(tmp_path, BLOB_CFG)  # harness.m = 2
    out = tmp_path / "out"
    extra = ["--workers", "1,2"] if command == "sweep" else []
    assert main([command, "--config", str(cfg), "--out", str(out)] + extra) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: cell broke" in err
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[-1].startswith("distnewton-2: status=failed epochs=0 ")
    assert read_history_csv(out / "distnewton-2.csv") == []
    others = ["distnewton-1", "sgd"] if command == "sweep" else []
    for label in others:
        assert len(read_history_csv(out / f"{label}.csv")) == 2
        assert any(line.startswith(f"{label}: status=completed") for line in summary)
    assert len(summary) == 1 + len(others)


def test_sweep_rejects_bad_worker_list(tmp_path, capsys):
    # a repeated count would run its cell twice and overwrite its CSV
    cfg = write_cfg(tmp_path, BLOB_CFG)
    for workers in ("0,2", "2,x", "2,,4", "2,2"):
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--workers", workers])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "config error: workers" in err
    assert "worker count 2 is repeated" in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_bad_out_exits_config_before_any_cell_runs(tmp_path, capsys, monkeypatch, command):
    import distnewton.cli

    monkeypatch.setattr(distnewton.cli, "run_experiment", lambda *a, **k: pytest.fail("a cell ran"))
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    blocker = write_cfg(tmp_path, "", name="a_file")
    for out in (blocker, blocker / "under"):  # --out is a regular file, or lies under one
        assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: --out" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "samples, workers, key",
    [
        (320, "1,33", "harness.global_batch"),  # a global batch of 32 for 33 workers
        (6, "1,7", "harness.m"),  # 7 workers for 6 samples
    ],
)
def test_sweep_checks_every_cell_before_any_runs(tmp_path, capsys, monkeypatch, samples, workers, key):
    # the last count breaks the rule: no cell runs and --out is not made
    import distnewton.cli

    monkeypatch.setattr(distnewton.cli, "run_experiment", lambda *a, **k: pytest.fail("a cell ran"))
    cfg = write_cfg(tmp_path, with_setting(BLOB_CFG, "data.samples", samples))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--workers", workers]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {key}: " in err
    assert "Traceback" not in err
    assert not out.exists()


# -------------------------------------------------------------- grad-check


def test_grad_check_quadratic_passes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    assert main(["grad-check", "--config", str(cfg)]) == EXIT_OK
    assert "max relative gradient error" in capsys.readouterr().out


def test_grad_check_tanh_mlp_passes(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG)
    assert main(["grad-check", "--config", str(cfg)]) == EXIT_OK


def test_grad_check_relu_mlp_passes(tmp_path):
    cfg = write_cfg(tmp_path, BLOB_CFG.replace("tanh", "relu"))
    assert main(["grad-check", "--config", str(cfg)]) == EXIT_OK


def test_grad_check_relu_passes_with_zero_preactivations(tmp_path, capsys):
    # at density 0.001 a class's feature support is empty, so its inputs are
    # all zero and, with zero initial biases, its hidden pre-activations are
    # exactly 0 at every probe: a kink screen that rejects any 0 keeps nothing
    cfg = write_cfg(tmp_path, """
objective.kind = mlp
objective.layers = 784,32,10
objective.activation = relu
data.samples = 512
data.density = 0.001
data.spread = 0.15
data.seed = 20260811
harness.m = 4
harness.global_batch = 256
""")
    assert main(["grad-check", "--config", str(cfg)]) == EXIT_OK
    assert "max relative gradient error" in capsys.readouterr().out


def test_grad_check_corrupted_gradient_fails(tmp_path, capsys, monkeypatch):
    # negative control: an honest value with one wrong gradient entry
    import distnewton.cli
    from distnewton.harness import build_objective

    class CorruptedGradient:
        def __init__(self, inner):
            self.inner = inner
            self.dim = inner.dim
            self.init_theta = inner.init_theta

        def value(self, theta, batch=None):
            return self.inner.value(theta, batch)

        def gradient(self, theta, batch=None, *, out):
            g = self.inner.gradient(theta, batch, out=out)
            g[0] = 2.0 * g[0] + 1.0
            return g

    monkeypatch.setattr(distnewton.cli, "build_objective", lambda cfg: CorruptedGradient(build_objective(cfg)))
    cfg = write_cfg(tmp_path, QUADRATIC_CFG)
    code = main(["grad-check", "--config", str(cfg)])
    assert code != EXIT_OK
    assert "FAILED" in capsys.readouterr().err


# ------------------------------------------------------------------ config


# every key set away from its default; the lr float needs all 17 digits
EVERY_KEY_CFG = """
objective.kind = quadratic
objective.layers = 5,7,3
objective.activation = relu
objective.dim = 6
objective.condition = 12.5
objective.seed = 3
data.images = images.idx
data.labels = labels.idx
data.samples = 90
data.spread = 0.125
data.density = 0.5
data.seed = 11
harness.m = 3
harness.local_steps = 2
harness.local_lr = 0.30000000000000004
harness.tau = 0.3
harness.epochs = 5
harness.global_batch = 33
harness.seed = 4
harness.aggregator = sgd_average
harness.jitter = 1e-3
operator.lambda = 0.2
"""


@pytest.mark.parametrize(
    "text",
    [p.read_text(encoding="utf-8") for p in PRESETS] + [EVERY_KEY_CFG],
    ids=[p.stem for p in PRESETS] + ["every_key"],
)
def test_emit_parse_round_trip(text):
    cfg = parse_config_text(text)
    emitted = emit_config(cfg)
    assert parse_config_text(emitted) == cfg
    assert emit_config(parse_config_text(emitted)) == emitted


def test_every_key_config_sets_every_field():
    cfg = parse_config_text(EVERY_KEY_CFG)
    assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == f.default] == []
    assert cfg.local_lr == 0.1 + 0.2
    assert "harness.local_lr = 0.30000000000000004" in emit_config(cfg)
    assert "objective.layers = 5,7,3" in emit_config(cfg)


FLOAT_KEYS = ("objective.condition", "data.spread", "data.density", "harness.local_lr",
              "harness.tau", "harness.jitter", "operator.lambda")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_setting_exits_config_naming_key(tmp_path, capsys, key, value):
    from distnewton.config import ExperimentConfig
    from distnewton.errors import ConfigError

    cfg = write_cfg(tmp_path, with_setting(QUADRATIC_CFG, key, value))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    assert "Traceback" not in err
    # a config built in code is held to the same rule
    name = next(f.name for f in fields(ExperimentConfig) if f.metadata["key"] == key)
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(**{name: float(value)})
    assert exc.value.field == key


def test_float_keys_cover_every_float_setting():
    from distnewton.config import ExperimentConfig

    floats = {f.metadata["key"] for f in fields(ExperimentConfig) if type(f.default) is float}
    assert floats == set(FLOAT_KEYS)


# one violating value per declared rule: (key, rule, value)
RULE_VIOLATIONS = [
    ("objective.kind", "choices", "linear"),
    ("objective.activation", "choices", "sigmoid"),
    ("objective.dim", "ge", "0"),
    ("objective.condition", "ge", "0.5"),
    ("objective.seed", "ge", "-1"),
    ("data.samples", "ge", "0"),
    ("data.spread", "ge", "-0.15"),
    ("data.density", "gt", "0.0"),
    ("data.density", "le", "1.5"),
    ("data.seed", "ge", "-1"),
    ("harness.m", "ge", "0"),
    ("harness.local_steps", "ge", "0"),
    ("harness.local_lr", "gt", "0.0"),
    ("harness.tau", "gt", "-0.5"),
    ("harness.epochs", "ge", "-1"),
    ("harness.seed", "ge", "-2"),
    ("harness.aggregator", "choices", "adam"),
    ("harness.jitter", "ge", "-0.01"),
    ("operator.lambda", "gt", "0.0"),
]


def test_rule_violations_cover_every_declared_rule():
    from distnewton.config import ExperimentConfig

    declared = {(f.metadata["key"], rule) for f in fields(ExperimentConfig) for rule in f.metadata["rules"]}
    assert declared == {(key, rule) for key, rule, _ in RULE_VIOLATIONS}


@pytest.mark.parametrize("key,rule,value", RULE_VIOLATIONS, ids=[f"{k}-{r}" for k, r, _ in RULE_VIOLATIONS])
def test_rule_violation_exits_config_naming_key(tmp_path, capsys, key, rule, value):
    cfg = write_cfg(tmp_path, with_setting(QUADRATIC_CFG, key, value))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: must be ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_rejects_bad_value():
    from distnewton.errors import ConfigError

    with pytest.raises(ConfigError) as err:
        parse_config_text("harness.m = banana\n")
    assert err.value.field == "harness.m"


@pytest.mark.parametrize("layers", ["7 84,32,10", "784,,32,10", "784,32,10,", ""])
def test_malformed_layer_list_exits_config_naming_key(tmp_path, capsys, layers):
    # an inner space or an empty entry is an error, not a different model
    cfg = write_cfg(tmp_path, with_setting(QUADRATIC_CFG, "objective.layers", layers))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: objective.layers: bad value ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_layer_list_entries_may_have_surrounding_spaces():
    cfg = parse_config_text("objective.layers = 784 , 32,10\n")
    assert cfg.mlp_layers == (784, 32, 10)


def test_key_set_twice_exits_config_naming_key_and_lines(tmp_path, capsys):
    cfg = write_cfg(tmp_path, QUADRATIC_CFG + "harness.m = 2\n")  # line 5 sets m = 7, line 12 this
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: harness.m: set again on line 12 (first on line 5)")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_config_rejects_garbage_line():
    from distnewton.errors import ConfigError

    with pytest.raises(ConfigError):
        parse_config_text("this is not a config\n")


@pytest.mark.parametrize(
    "changes,key",
    [({"m": 0}, "harness.m"), ({"m": 2, "global_batch": 1}, "harness.global_batch"),
     ({"local_lr": float("nan")}, "harness.local_lr")],
    ids=["per-key", "cross-key", "non-finite"],
)
def test_replace_raises_config_error_naming_key(changes, key):
    # a replaced config is checked as a parsed one is, so none that a run
    # would reject can be written out with emit_config
    from distnewton.config import ExperimentConfig
    from distnewton.errors import ConfigError

    with pytest.raises(ConfigError) as exc:
        replace(ExperimentConfig(), **changes)
    assert exc.value.field == key


def test_config_is_frozen():
    import dataclasses

    cfg = parse_config_text(QUADRATIC_CFG)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.m = 3
    assert cfg.m == 7


def test_readme_config_table_names_every_key_with_its_default():
    # a key added to config.py without its README row, or a default changed
    # in one place only, fails here; the two IDX paths share one row
    import re

    from distnewton.config import ExperimentConfig

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Config format\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for row in section.splitlines():
        if row.startswith("| `"):
            keys, default = row.split("|")[1:3]
            for key in re.findall(r"`([^`]+)`", keys):
                documented[key] = default.strip().strip("`")
    emitted = dict(line.split(" = ") for line in emit_config(ExperimentConfig()).splitlines())
    assert documented == {key: value or "empty" for key, value in emitted.items()}
