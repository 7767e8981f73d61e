"""What moved in the check-invariance reports between two checkouts.

    python3 tools/report_drift.py PARENT_ROOT [ROOT]

runs `check-invariance` on every config of tools/report_digests.py, once
with PARENT_ROOT/src and once with ROOT/src (ROOT defaults to the checkout
holding this script), each call in a fresh process. report_digests tells
whether any output changed; this script tells by how much, for a change
that moves the last bits of the arithmetic. It prints one line per config:

    <config> <exit codes> <worst forward gaps> <objective drift> <transformed drift>

with each pair as parent->root. A worst gap is the largest
`forward_discrepancy` over the records ("-" when the report has none or
there is no report); a drift is the largest relative difference
|a - b| / max(|a|, |b|) of `objective` or `objective_transformed` over the
records the two reports share ("-" when they share none; 0 when both are
equal, NaN included). The last line gives the number of configs whose exit
code changed and the largest drift of each kind.
"""

import json
import math
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import report_digests


def _records(stdout: bytes) -> list:
    try:
        return json.loads(stdout)["records"]
    except (ValueError, KeyError, TypeError):
        return []


def _worst_gap(records) -> str:
    gaps = [r["forward_discrepancy"] for r in records]
    if not gaps:
        return "-"
    return "nan" if any(map(math.isnan, gaps)) else f"{max(gaps):.3e}"


def _rel(a: float, b: float) -> float:
    """Relative difference; inf when only one side is finite or NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _drift(old, new, key: str):
    pairs = list(zip(old, new))
    return max(_rel(a[key], b[key]) for a, b in pairs) if pairs else None


def _show(x) -> str:
    return "-" if x is None else f"{x:.2e}"


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: " + __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent = Path(argv[1]).resolve()
    root = Path(argv[2]).resolve() if len(argv) > 2 else report_digests.HERE
    command = ("check-invariance",)
    changed, worst = 0, {"objective": 0.0, "objective_transformed": 0.0}
    with tempfile.TemporaryDirectory() as tmp:
        paths = report_digests.write_configs(tmp)
        jobs = [(tree, path) for path in paths.values() for tree in (parent, root)]
        with ThreadPoolExecutor(max_workers=2) as pool:
            done = iter(pool.map(lambda job: report_digests.run_cli(*job, command), jobs))
            for name in paths:
                old, new = next(done), next(done)
                a, b = _records(old.stdout), _records(new.stdout)
                drift = {key: _drift(a, b, key) for key in worst}
                for key, value in drift.items():
                    if value is not None:
                        worst[key] = max(worst[key], value)
                changed += old.returncode != new.returncode
                print(f"{name} exit {old.returncode}->{new.returncode} "
                      f"gap {_worst_gap(a)}->{_worst_gap(b)} "
                      f"objective {_show(drift['objective'])} "
                      f"transformed {_show(drift['objective_transformed'])}", flush=True)
    print(f"exit codes changed: {changed}; largest drift: objective "
          f"{worst['objective']:.2e}, objective_transformed "
          f"{worst['objective_transformed']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
