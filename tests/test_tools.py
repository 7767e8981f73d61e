"""The comparison tools under tools/, run as a user runs them."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_runs_times_each_side_in_its_own_processes():
    # one round of 0.5 s per child, this tree against itself
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_runs.py"), str(ROOT), "--workload", "mlp-ngd",
         "--rounds", "1", "--seconds", "0.5"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("mlp-ngd round 1 (this first): median run at reference speed")
    assert "report texts differ" not in lines[0]
    assert lines[1].startswith("mlp-ngd: median ratio this/other ")
    assert lines[1].endswith(" of 1 rounds")
