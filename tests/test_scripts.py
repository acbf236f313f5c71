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


def test_decompose_criterion7_runs_every_arm():
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "decompose_criterion7.py"), "--seeds", "0", "--epochs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    rows = {line[:26].strip(): line[26:].split() for line in out.stdout.splitlines()}
    arms = ["sgd_average m=1", "distnewton m=1", "distnewton m=1 jitter=0"]
    arms += [f"distnewton m={m}{j0}" for m in (4, 8) for j0 in ("", " j=0")]
    taus = [f"{0.01 * 2**k:g}" for k in range(8)]
    for label in arms + taus:
        seed_0, mean = (float(v) for v in rows[label])
        assert 0.0 < seed_0 == mean
    # the tau row's first cell is the m = 8, j = 0 arm at the preset's tau
    assert rows["0.01"] == rows["distnewton m=8 j=0"]
    assert sum(line.startswith("rank j beats j=0 at m=") for line in out.stdout.splitlines()) == 2


def test_grad_check_all_checks_every_preset():
    # relu_divergence is the one ReLU preset, so it is the only one that runs the kink screen
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "grad_check_all.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    checked = [line[3:] for line in out.stdout.splitlines() if line.startswith("== ")]
    assert checked == sorted(p.name for p in (REPO / "configs").glob("*.cfg"))
    assert "relu_divergence.cfg" in checked


def test_quadratic_newton_demo_runs_from_a_checkout():
    # no PYTHONPATH: the script finds its checkout's src itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "quadratic_newton_demo.py")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    newton, average = (
        [float(j) for j in re.findall(r"J = (\S+)", part)] for part in out.stdout.split("sgd_average:")
    )
    assert out.stdout.startswith("distnewton:") and len(newton) == len(average) > 0
    # one round lands on the minimizer; averaging is still far from it
    assert newton[0] < 1e-20
    assert min(average) > 0.1


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
    runs, multi, relu, server = [], [], [], []
    for line in lines:
        words = line.split()
        if words[0] == "server":
            server.append(words[1:4])
        elif words[1] != "dataset":
            {"s=2": multi, "relu": relu}.get(words[2], runs).append(words[:2] + words[-3:-2])
    want = []
    for p in presets:
        for m in (1, 8) if p.stem.startswith("mnist") else (load_config(p).m,):
            want += [[p.stem, f"m={m}", aggregator] for aggregator in ("distnewton", "sgd_average")]
    assert sorted(runs) == sorted(want)
    assert len(multi) == 4
    # the ReLU path trained to the end: no preset trains it past its first round
    assert relu == [["mnist_tanh", f"m={m}", "distnewton"] for m in (1, 8)]
    assert [line.split()[4] for line in lines if line.split()[2] == "relu"] == ["completed"] * 2
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
    assert r["read_ms"] > 0 and r["pass1_ms"] > 0 and r["step_ms"] > 0
    assert r["gram_ms"] > 0 and r["pass1_gflops"] > 0
    # pass 1's block of m columns, then theta_new and one difference run
    # (here all n rows), each freed with its pass
    assert 1.0 <= r["peak_alloc_8n"] <= (max(block_rows(m) * m, 2 * n) * 8 + 2**16) / (8 * n)
