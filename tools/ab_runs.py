"""Alternating A/B timing of two kfaclab trees in one process.

    python3 tools/ab_runs.py OTHER_ROOT [--workload W] [--seconds S]

imports OTHER_ROOT/src/kfaclab a second time, as the package `kfaclab_other`,
next to the kfaclab of the checkout holding this script ("this"). For each
workload of bench/workloads.py (all four, or the one named by --workload) it

1. runs every panel config (the ten ledger reparam seeds) once on each side
   and prints how many of the report texts differ;
2. then, for S seconds (default 10), takes one invariance run on each side
   per panel config in turn, the side that goes first alternating from pair
   to pair, and prints each side's median wall time per run, the median of
   the paired ratios this/other, the number of pairs this side won, and
   each side's median count of minor page faults per run (the process's
   ru_minflt before and after it): memory that a run takes from the system
   and touches for the first time.

A run is what the benchmark times: build the config from its dict, run the
invariance protocol, serialize the report. Both sides share one interpreter,
one numpy and one BLAS (pinned to one thread, as bench/run.py does), so a
machine whose speed drifts moves both sides of a pair alike. Run it from the
changed tree against a copy of the parent commit:

    git archive --prefix=parent/ PARENT_COMMIT | tar -x -C /tmp
    python3 tools/ab_runs.py /tmp/parent --workload mlp-ngd --seconds 30
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))
sys.path.insert(0, str(HERE / "bench"))

from workloads import WORKLOADS  # noqa: E402

from kfaclab import harness as this_harness  # noqa: E402

OTHER = "kfaclab_other"


def load_other(root: Path):
    """The harness module of root/src/kfaclab, imported as package OTHER.
    kfaclab imports its own modules relatively, so they load from root."""
    package = root / "src" / "kfaclab"
    spec = importlib.util.spec_from_file_location(
        OTHER, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[OTHER] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{OTHER}.harness")


def run(harness, config: dict) -> str:
    """One invariance run, as the report text the CLI would print."""
    return harness.run_invariance(harness.ExperimentConfig.from_dict(config)).to_json()


def timed(harness, config: dict) -> tuple:
    """(wall time, minor page faults) of one run."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    run(harness, config)
    elapsed = time.perf_counter() - start
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def compare(name: str, other_harness, seconds: float) -> None:
    configs = WORKLOADS[name].configs(seed=1)
    differ = sum(run(this_harness, c) != run(other_harness, c) for c in configs)
    print(f"{name}: report text differs on {differ} of {len(configs)} panel configs")

    this, other = [], []  # (wall time, minor faults) per run
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for config in configs:
            if len(this) % 2:
                other.append(timed(other_harness, config))
                this.append(timed(this_harness, config))
            else:
                this.append(timed(this_harness, config))
                other.append(timed(other_harness, config))
    this_s, this_faults = zip(*this)
    other_s, other_faults = zip(*other)
    ratios = [a / b for a, b in zip(this_s, other_s)]
    won = sum(a < b for a, b in zip(this_s, other_s))
    print(f"{name}: {len(ratios)} pairs; median run this {statistics.median(this_s):.5f} s, "
          f"other {statistics.median(other_s):.5f} s; median ratio this/other "
          f"{statistics.median(ratios):.4f}; this faster in {won} of {len(ratios)} pairs; "
          f"median minor page faults per run this {statistics.median(this_faults):g}, "
          f"other {statistics.median(other_faults):g}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", type=Path, help="a checkout with src/kfaclab")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per workload (default 10)")
    args = parser.parse_args(argv)
    root = args.other_root.resolve()
    if not (root / "src" / "kfaclab" / "__init__.py").is_file():
        parser.error(f"no kfaclab sources under {root / 'src'}")
    other_harness = load_other(root)
    for name in [args.workload] if args.workload else WORKLOADS:
        compare(name, other_harness, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
