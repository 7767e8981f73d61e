"""The comparison tools under tools/, run as a user runs them."""

import importlib.util
import re
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
    # one round: each side's quartiles are its one median, and no gain
    # holds on fewer than ten rounds
    fields = re.search(r"; per-round medians this (\S+) s \(quartiles (\S+)-(\S+)\), "
                       r"other (\S+) s \(quartiles (\S+)-(\S+)\); gain (holds|does not hold) "
                       r"\(needs 10 rounds or more, 9 in 10 won, and a median gap, here (\S+) s, "
                       r"above other's IQR, (\S+) s\); this faster in ", lines[1])
    assert fields, lines[1]
    this, q1, q3, other, oq1, oq3 = (float(x) for x in fields.group(1, 2, 3, 4, 5, 6))
    assert this == q1 == q3 and other == oq1 == oq3
    assert abs(float(fields.group(8)) - (other - this)) < 2e-6 and float(fields.group(9)) == 0
    assert fields.group(7) == "does not hold"


def _ab_runs():
    spec = importlib.util.spec_from_file_location("ab_runs", ROOT / "tools" / "ab_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_runs_gain_rule_needs_nine_wins_in_ten_and_a_gap_above_the_iqr():
    ab = _ab_runs()
    other = list(range(10, 20))
    assert ab.quartiles(other) == (12.25, 14.5, 16.75)
    assert ab.quartiles([2.0]) == (2.0, 2.0, 2.0)
    # nine wins, a median gap of 5 above other's IQR of 4.5
    this = [x - 5 for x in other[:9]] + [other[9] + 1]
    assert "gain holds" in ab.gain_summary(this, other)
    # the same gap with eight wins
    this[8] = other[8] + 1
    assert "gain does not hold" in ab.gain_summary(this, other)
    # ten wins, but a gap of 4 under the IQR
    assert "gain does not hold" in ab.gain_summary([x - 4 for x in other], other)
    # nine wins in nine rounds: too few rounds
    assert "gain does not hold" in ab.gain_summary([x - 5 for x in other[:9]], other[:9])


def test_ab_runs_children_get_their_own_bytecode_and_fixed_malloc(monkeypatch, tmp_path):
    ab = _ab_runs()
    seen = []

    def fake_run(argv, **kwargs):
        seen.append(kwargs["env"])
        return subprocess.CompletedProcess(argv, 0, stdout='{"run_s": 1.0}', stderr="")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    for side in ("this", "other"):
        assert ab.fresh_child(ROOT, "mlp-ngd", 0.5, str(tmp_path / side)) == {"run_s": 1.0}
    assert [env["PYTHONPYCACHEPREFIX"] for env in seen] == [str(tmp_path / "this"),
                                                            str(tmp_path / "other")]
    for env in seen:
        assert env["MALLOC_MMAP_THRESHOLD_"] == "1048576"
        assert env["MALLOC_TRIM_THRESHOLD_"] == "67108864"
