"""Alternating A/B timing of two kfaclab trees, each side in fresh processes.

    python3 tools/ab_runs.py OTHER_ROOT [--workload W] [--rounds R] [--seconds S]

times the kfaclab of the checkout holding this script ("this") against
OTHER_ROOT/src/kfaclab on each workload of bench/workloads.py (all four, or
the one named by --workload). Each of R rounds (default 10) starts one
child process per side, the side that goes first alternating from round to
round; a side never shares a process, and so never a glibc heap, with the
other, whose allocations would move the thresholds its own runs meet. A
child runs every panel config (the ten ledger reparam seeds) once to warm
up, then runs the panel for S seconds (default 5, at least once through).
It times each run the way bench/run.py does: its wall time at the reference
speed of bench/measure.py (`reference_s`, `Timings`). A run is what the
benchmark times: build the config from its dict, run the invariance
protocol, serialize the report. The child reports its median run time, its
median count of minor page faults per run (the process's ru_minflt before
and after it: memory that a run takes from the system and touches for the
first time) and a digest of its warm-up report texts.

Each side's children read and write bytecode under their own
PYTHONPYCACHEPREFIX in a temporary directory, so a stale or missing
__pycache__ in either tree cannot move its side's numbers. They also run
with glibc's malloc thresholds fixed (MALLOC_MMAP_THRESHOLD_ at 1 MiB,
MALLOC_TRIM_THRESHOLD_ at 64 MiB), since the adaptive thresholds move with
what the modules allocate at import, and the page faults per run with them.
With them fixed, every array of 1 MiB or more gets fresh pages and the
smaller ones come from a heap that is never trimmed, so the fault count is
the pages of a run's large arrays. That costs time: conv-kfac runs read
20-25% slower than under the adaptive thresholds that bench/run.py
keeps, so a change to those arrays moves this tool's times more than the
benchmark's. Both settings reach only the tool's children.

The tool prints, for each round, both sides' medians and fault counts, the
ratio this/other, and whether the report texts differ; then the median
ratio, each side's median and quartiles of its per-round medians, whether
a gain of this side holds (at least ten rounds, nine in ten of them won, and
a median gap wider than the other side's interquartile range), and the
rounds this side won. BLAS runs on one thread, as in
bench/run.py. A child that outlives its timeout is killed. Run it from the
changed tree against a copy of the parent commit:

    git archive --prefix=parent/ PARENT_COMMIT | tar -x -C /tmp
    python3 tools/ab_runs.py /tmp/parent --workload mlp-ngd --rounds 10 --seconds 10
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent.parent
# set in every child's environment (see the module docstring)
FIXED_MALLOC = {"MALLOC_MMAP_THRESHOLD_": "1048576", "MALLOC_TRIM_THRESHOLD_": "67108864"}


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


def child(workload, seconds: float) -> dict:
    """One side of a round, in its own process: the panel once to warm up,
    then timed runs for `seconds`, at least once through."""
    import measure

    from kfaclab import harness

    configs = workload.configs(seed=1)
    texts = "\n".join(run(harness, c) for c in configs)
    timings, faults = measure.Timings(), []
    end = time.perf_counter() + seconds
    ref = measure.reference_s()
    while len(faults) < len(configs) or time.perf_counter() < end:
        wall, fault = timed(harness, configs[len(faults) % len(configs)])
        faults.append(fault)
        after = measure.reference_s()
        timings.add(wall, ref, after)
        ref = after
    return {"run_s": statistics.median(timings.scaled), "faults": statistics.median(faults),
            "runs": len(faults), "reports": hashlib.sha256(texts.encode()).hexdigest()}


def fresh_child(root: Path, name: str, seconds: float, pycache: str) -> dict:
    """child() for the kfaclab under root, in a new process with its
    bytecode under pycache and fixed malloc thresholds, killed if it runs
    past its timeout."""
    argv = [sys.executable, __file__, "--child", str(root), "--workload", name,
            "--seconds", str(seconds)]
    env = {**os.environ, **FIXED_MALLOC, "PYTHONPYCACHEPREFIX": pycache}
    try:
        done = subprocess.run(argv, capture_output=True, text=True, env=env,
                              timeout=120 + 4 * seconds)
    except subprocess.TimeoutExpired:
        sys.exit(f"ab_runs: the {name} child for {root} timed out and was killed")
    if done.returncode:
        sys.exit(f"ab_runs: the {name} child for {root} exited {done.returncode}: "
                 f"{done.stderr[-500:]}")
    return json.loads(done.stdout)


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile), linear between the order
    statistics; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def gain_summary(this: list, other: list) -> str:
    """Each side's median and quartiles of its per-round medians, and
    whether this side's gain holds: over at least ten rounds it won at least
    nine tenths of them (ties count for neither), and its median is below
    the other's by more than the other's interquartile range."""
    (q1, mid, q3), (oq1, omid, oq3) = quartiles(this), quartiles(other)
    won = sum(a < b for a, b in zip(this, other))
    holds = len(this) >= 10 and won >= 0.9 * len(this) and omid - mid > oq3 - oq1
    return (f"per-round medians this {mid:.6f} s (quartiles {q1:.6f}-{q3:.6f}), "
            f"other {omid:.6f} s (quartiles {oq1:.6f}-{oq3:.6f}); gain "
            f"{'holds' if holds else 'does not hold'} (needs 10 rounds or more, 9 in 10 won, "
            f"and a median gap, here {omid - mid:.6f} s, above other's IQR, {oq3 - oq1:.6f} s)")


def compare(name: str, other_root: Path, rounds: int, seconds: float, tmp: str) -> None:
    ratios, this_s, other_s = [], [], []
    for i in range(rounds):
        sides = [("this", HERE), ("other", other_root)]
        got = {side: fresh_child(root, name, seconds, os.path.join(tmp, side))
               for side, root in (sides if i % 2 == 0 else sides[::-1])}
        this, other = got["this"], got["other"]
        this_s.append(this["run_s"])
        other_s.append(other["run_s"])
        ratios.append(this_s[-1] / other_s[-1])
        differ = "" if this["reports"] == other["reports"] else "; report texts differ"
        print(f"{name} round {i + 1} ({'this' if i % 2 == 0 else 'other'} first): "
              f"median run at reference speed this {this['run_s']:.6f} s ({this['runs']} runs), "
              f"other {other['run_s']:.6f} s ({other['runs']} runs); ratio {ratios[-1]:.4f}; "
              f"median minor page faults per run this {this['faults']:g}, "
              f"other {other['faults']:g}{differ}", flush=True)
    print(f"{name}: median ratio this/other {statistics.median(ratios):.4f}; "
          f"{gain_summary(this_s, other_s)}; this faster in "
          f"{sum(r < 1 for r in ratios)} of {rounds} rounds", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", type=Path, nargs="?", help="a checkout with src/kfaclab")
    parser.add_argument("--workload", help="one workload of bench/workloads.py (default all)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="rounds of one child process per side (default 10)")
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="timed seconds per child (default 5)")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # this checkout's kfaclab, or in a child the kfaclab of its side
    sys.path[:0] = [str((args.child or HERE).resolve() / "src"), str(HERE / "bench")]
    from workloads import WORKLOADS

    if args.workload not in (None, *WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.child:
        print(json.dumps(child(WORKLOADS[args.workload], args.seconds)))
        return 0
    if args.other_root is None:
        parser.error("OTHER_ROOT is required")
    root = args.other_root.resolve()
    if not (root / "src" / "kfaclab" / "__init__.py").is_file():
        parser.error(f"no kfaclab sources under {root / 'src'}")
    if args.rounds < 1:
        parser.error("--rounds needs at least one round")
    with tempfile.TemporaryDirectory() as tmp:  # each side's bytecode
        for name in [args.workload] if args.workload else WORKLOADS:
            compare(name, root, args.rounds, args.seconds, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
