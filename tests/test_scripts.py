import os
import subprocess
import sys
from pathlib import Path

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
