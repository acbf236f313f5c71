import json
import os
import re
import subprocess
import sys
from pathlib import Path

from distnewton.config import load_config
from distnewton.operator import RUN_ROWS, block_rows

REPO = Path(__file__).resolve().parent.parent


def test_one_shot_run_measures_a_preset_at_another_m():
    # the preset sets harness.m = 9; the script must replace it, not set it twice
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "one_shot_run.py"),
         "--config", str(REPO / "configs" / "quadratic_newton.cfg"), "--m", "3", "--repeats", "1"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "quadratic_newton.cfg at harness.m = 3" in lines[0]
    values = dict(line.split() for line in lines[1:])
    assert list(values) == ["wall_s", "minor_faults", "max_rss_mb"]
    assert all(float(v) > 0 for v in values.values())


def test_grad_check_all_checks_every_preset():
    # relu_divergence is the one ReLU preset, so it is the only one that runs the kink screen
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "grad_check_all.py")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert out.returncode == 0, out.stderr
    checked = [line[3:] for line in out.stdout.splitlines() if line.startswith("== ")]
    assert checked == sorted(p.name for p in (REPO / "configs").glob("*.cfg"))
    assert "relu_divergence.cfg" in checked


def test_run_digest_prints_a_digest_per_dataset_and_run():
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_digest.py")],
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ .* [0-9a-f]{64}", line) for line in lines), lines
    presets = sorted((REPO / "configs").glob("*.cfg"))
    datasets = [line.split()[0] for line in lines if line.split()[1] == "dataset"]
    assert datasets == [p.stem for p in presets if load_config(p).objective_kind == "mlp"]
    runs, multi, server = [], [], []
    for line in lines:
        words = line.split()
        if words[0] == "server":
            server.append(words[1:4])
        elif words[1] != "dataset":
            (multi if words[2] == "s=2" else runs).append(words[:2] + words[-3:-2])
    want = []
    for p in presets:
        for m in (1, 8) if p.stem.startswith("mnist") else (load_config(p).m,):
            want += [[p.stem, f"m={m}", aggregator] for aggregator in ("distnewton", "sgd_average")]
    assert sorted(runs) == sorted(want)
    assert len(multi) == 4
    # one streamed round past two run edges, at sizes no preset reaches
    assert server == [
        [f"n={2 * RUN_ROWS + 123}", f"m={m}", aggregator]
        for m in (1, 2, 16, 33)
        for aggregator in ("distnewton", "sgd_average")
    ]


def test_server_round_sizes_times_one_size():
    n, m = 20000, 4
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "server_round_sizes.py"), "--one", str(n), str(m)],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    r = json.loads(out.stdout)
    assert r["cold_ms"] > 0 and r["warm_p50_ms"] > 0
    assert r["j"] == 3
    # from the shapes: pass 1 reads the m gradients, the step pass all 2m reports
    assert r["read_bytes"] == 8 * n * 3 * m == 1_920_000
    # pass 1's block of m columns, then theta_new and one difference run
    # (here all n rows), each freed with its pass
    assert 1.0 <= r["peak_alloc_8n"] <= (max(block_rows(m) * m, 2 * n) * 8 + 2**16) / (8 * n)
