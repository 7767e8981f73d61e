"""Measurement for one benchmark run: timed loops, fresh-process probes,
and the end-to-end and per-layer metrics they yield.

Everything runs closed loop with one client: each invariance run starts
when the previous one has returned, and child processes run one at a time.
"""

import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from tracer import SpanStats, Tracer
from workloads import EXIT_FOR_VERDICT, check_report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
PROBE = BENCH / "probe.py"

CHILD_TIMEOUT_S = 150
LOOP_CAP_S = 120  # stop the timed loop here even mid-panel, to end within 180 s
TAIL_BEYOND = 10  # samples a tail percentile must have above it

# The machine the baseline was measured on runs at several speeds, up to
# 1.75x apart, in spells of seconds to minutes, so whole runs can fall in a
# slow or a fast spell. No statistic over the wall times of one run corrects
# that: over ten seeds their medians and 90th percentiles spread 0.2-0.3.
# Every timing is therefore also taken at a reference speed: its wall time
# times REF_LOOP_S over the time a fixed pure-Python loop takes right before
# and after it. The loop slows down with the interpreter-bound code of
# kfaclab, so the ratio moves with the code and hardly with the spell. The
# wall-clock figures are printed too, without a bound (see README.md).
REF_LOOP_ITERATIONS = 300_000
REF_LOOP_S = 0.0234  # the loop's time on the baseline machine in a fast spell; sets the scale

END_TO_END = {
    "run_s.p50": "s",
    "run_s.tail": "s",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "cold_cli_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "pass_frac": "ratio",
    "worst_gap_digits": "digits",
}
UNBOUNDED = {
    "wall.run_s.p50": "s",
    "wall.setup_s": "s",
    "wall.cold_cli_s": "s",
    "ref_loop_s": "s",
    "fail_frac": "ratio",
    "worst_gap": "abs",
}

# layers reported as summed time and calls
_TIMED_LAYERS = (
    "kfac.estimate_factors",
    "kfac.objective_and_gradient",
    "kfac.apply_inverse",
    "nets.forward",
    "nets.backward",
    "nets.extract_patches",
    "nets.fold_patches",
    "metrics.basis_backpasses",
    "metrics.exact_fisher",
    "metrics.model",
    "linalg.solve",
    "linalg.kron",
    "reparam.transform_params",
    "reparam.transform_input",
)
# layers reported as summed time only
_TIME_ONLY = (
    "linalg.sym_eig_min",
    "harness.compare_params",
    "reparam.random_reparam",
    "reparam.transform_network",
    "harness.synthetic_dataset",
)
_SPAN_OF = {"harness.compare_params": "harness.compare_params_through_reparam"}
_PER_STEP = ("nets.forward", "nets.backward", "metrics.exact_fisher")
_STEP_SPANS = ("kfac.kfac_step", "kfac.ngd_step", "kfac.sgd_step")
_ENTRY_SPANS = ("harness.run_invariance", "harness.run_ngd_invariance")
ROOT_SPAN = "bench.run"

PER_LAYER = {}
for _layer in _TIMED_LAYERS:
    PER_LAYER[f"{_layer}.s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
for _layer in _TIME_ONLY:
    PER_LAYER[f"{_layer}.s"] = "s"
for _layer in _PER_STEP:
    PER_LAYER[f"{_layer}.per_step"] = "calls/step"
PER_LAYER.update({
    "kfac.grad_used_ratio": "ratio",
    "kfac.step.s": "s",
    "linalg.solve.max_n": "n",
    "harness.self_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
})


class Ledger:
    """Counts attempted and failed operations and passing verdicts, and
    keeps the worst gap.

    A report is compared byte for byte with the first report of the same
    panel member, so every repeat doubles as a determinism check.
    """

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.reports = 0  # gated invariance reports, in process and from the CLI
        self.passes = 0  # of those, reports with verdict "pass"
        self.gaps = []
        self.references = {}

    def count(self, problem=None):
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)

    def judge(self, member, text, problem=None):
        self.reports += 1
        if problem is None:
            problem, gap, verdict = check_report(
                self.workload, text, self.references.get(member)
            )
            self.references.setdefault(member, text)
            self.gaps.append(gap)
            self.passes += verdict == "pass"
        self.count(problem and f"panel member {member}: {problem}")


def reference_s():
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class Timings:
    """Wall times, each with the reference loop's times before and after it."""

    def __init__(self):
        self.wall = []
        self.refs = []

    def add(self, wall, ref_before, ref_after):
        self.wall.append(wall)
        self.refs.append((ref_before + ref_after) / 2)

    def timed(self, fn):
        """Call fn, which returns a wall time or None, and keep its time."""
        before = reference_s()
        wall = fn()
        if wall is not None:
            self.add(wall, before, reference_s())

    @property
    def scaled(self):
        """The wall times at the reference speed."""
        return [w * REF_LOOP_S / r for w, r in zip(self.wall, self.refs)]


def timed_loop(workload, configs, ledger, until, tracer=None, chores=()):
    """Run the panel in order, round after round, until `until` has passed
    and every member has run once. `chores` (callables, such as fresh-process
    probes) run between invariance runs, spread evenly over the time left,
    so that a slow or fast spell of the machine does not fall on one metric.
    Returns the Timings of the runs that returned a report."""
    timings = Timings()
    chores = list(chores)
    total_chores = len(chores)
    start = time.perf_counter()
    window = max(until - start, 0.0)
    cap = start + LOOP_CAP_S
    ref = None  # the reference time after the previous run, if nothing ran since
    i = 0
    while True:
        now = time.perf_counter()
        done = (i >= len(configs) and now >= until) or (i > 0 and now >= cap)
        due = window * (total_chores - len(chores)) / max(total_chores, 1)
        if chores and (done or now - start >= due):
            chores.pop(0)()
            ref = None
            continue
        if done:
            return timings
        member = i % len(configs)
        if tracer is not None:
            tracer.run = i
        if ref is None:
            ref = reference_s()
        start_run = time.perf_counter()
        try:
            if tracer is None:
                text = workload.run(configs[member])
            else:
                with tracer.span(ROOT_SPAN):
                    text = workload.run(configs[member])
        except Exception as exc:  # a raising run is a failed operation
            ledger.judge(member, None, f"raised {exc!r}")
            ref = None
        else:
            wall = time.perf_counter() - start_run
            ledger.judge(member, text)
            after = reference_s()
            timings.add(wall, ref, after)
            ref = after
        i += 1


# ---------------------------------------------------------------------------
# fresh processes


def _child(args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT, env=env,
        timeout=CHILD_TIMEOUT_S,
    )


def setup_probe(config_path, ledger):
    """Seconds from before `import kfaclab` to a built network and twin."""
    proc = _child([str(PROBE), "setup", str(config_path)])
    if proc.returncode != 0:
        ledger.count(f"setup probe exited {proc.returncode}: {proc.stderr[-300:]}")
        return None
    ledger.count()
    return float(proc.stdout.split()[-1])


def _judge_cli(ledger, code, stdout, expected_text):
    verdict = json.loads(expected_text)["verdict"]
    if stdout != expected_text + "\n":
        ledger.judge(0, None, "CLI output differs from the in-process report")
    elif code != EXIT_FOR_VERDICT[verdict]:
        ledger.judge(0, None, f"CLI exited {code} for verdict {verdict}")
    else:
        ledger.judge(0, stdout[:-1])


def cold_cli(config_path, ledger, expected_text):
    """Wall time of one `python -m kfaclab.cli check-invariance` process."""
    start = time.perf_counter()
    proc = _child(["-m", "kfaclab.cli", "check-invariance", "--config", str(config_path)])
    elapsed = time.perf_counter() - start
    _judge_cli(ledger, proc.returncode, proc.stdout, expected_text)
    return elapsed


def traced_cli(config_path, ledger, expected_text):
    """cli.import_s and cli.self_s from one traced CLI process, or None."""
    proc = _child([str(PROBE), "cli", str(config_path)])
    if proc.returncode != 0:
        ledger.count(f"cli probe exited {proc.returncode}: {proc.stderr[-300:]}")
        return None
    out = json.loads(proc.stdout)
    _judge_cli(ledger, out["exit"], out["stdout"], expected_text)
    return out


# ---------------------------------------------------------------------------
# metrics


def tail(times):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it. Below 2 * TAIL_BEYOND samples no percentile above the median
    has that many, and the tail is the median itself."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _blas_threads():
    """OpenBLAS's own thread count, asked through its C API, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    """Information only, never a metric."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = ROOT / "src"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src.rglob("*.py")),
    }


def _per_layer(stats, runs, steps_per_run):
    m = {}
    for layer in _TIMED_LAYERS + _TIME_ONLY:
        m[f"{layer}.s"] = stats.total.get(_SPAN_OF.get(layer, layer), 0.0) / runs
    for layer in _TIMED_LAYERS:
        m[f"{layer}.calls"] = stats.calls.get(layer, 0) / runs
    for layer in _PER_STEP:
        m[f"{layer}.per_step"] = m[f"{layer}.calls"] / steps_per_run
    grads = stats.calls.get("kfac.objective_and_gradient", 0)
    used = sum(stats.under.get(("kfac.objective_and_gradient", s), 0) for s in _STEP_SPANS)
    m["kfac.grad_used_ratio"] = used / grads if grads else 0.0
    m["kfac.step.s"] = sum(stats.total.get(s, 0.0) for s in _STEP_SPANS) / runs
    m["linalg.solve.max_n"] = stats.max_size.get("linalg.solve", 0)
    m["harness.self_s"] = stats.self_of_module("harness") / runs
    unattributed = stats.self_time.get(ROOT_SPAN, 0.0) + sum(
        stats.self_time.get(s, 0.0) for s in _ENTRY_SPANS
    )
    m["trace.coverage"] = 1.0 - unattributed / stats.total[ROOT_SPAN]
    return m


def measure(workload, seed, seconds, trace, setup_samples=10, cli_samples=5):
    """One benchmark run. Returns a dict with the four result keys
    (`correct`, `attempted`, `failed`, `metrics`) plus an `info` block."""
    start = time.perf_counter()
    until = start + seconds
    configs = workload.configs(seed)
    OUT.mkdir(exist_ok=True)
    config_path = OUT / f"config-{workload.name}-{seed}.json"
    config_path.write_text(json.dumps(configs[0]))
    ledger = Ledger(workload)
    info = {"workload": workload.name, "seed": seed, "seconds": seconds,
            "reparam_seeds": [c["reparam_source"]["seed"] for c in configs],
            "env": environment()}

    # The first in-process run pays import-time and cache warm-up; it is
    # gated and reported, never timed into run_s.
    first = time.perf_counter()
    reference = workload.run(configs[0])
    info["first_run_s"] = time.perf_counter() - first
    ledger.judge(0, reference)

    if trace:
        metrics = _traced(workload, configs, ledger, config_path, reference, until, info)
        units = PER_LAYER
    else:
        metrics = _untraced(workload, configs, ledger, config_path, reference, until,
                            setup_samples, cli_samples, info)
        units = END_TO_END
    info["failures"] = ledger.failures
    info["worst_gap"] = float(np.nanmax(ledger.gaps)) if ledger.gaps else None
    info["elapsed_s"] = time.perf_counter() - start
    return {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "info": info,
    }


def _untraced(workload, configs, ledger, config_path, reference, until,
              setup_samples, cli_samples, info):
    setups, clis = Timings(), Timings()

    def setup():
        setups.timed(lambda: setup_probe(config_path, ledger))

    def cli():
        clis.timed(lambda: cold_cli(config_path, ledger, reference))

    # each kind of probe spread evenly over the window, interleaved
    slots = [(k / setup_samples, 0, setup) for k in range(setup_samples)]
    slots += [((k + 0.5) / cli_samples, 1, cli) for k in range(cli_samples)]
    chores = [chore for *_, chore in sorted(slots, key=lambda slot: slot[:2])]
    runs = timed_loop(workload, configs, ledger, until, chores=chores)
    if not (runs.wall and setups.wall and ledger.gaps):
        raise RuntimeError(f"no timings survived: {ledger.failures[:3]}")
    scaled = runs.scaled
    tail_value, tail_pct = tail(scaled)
    worst = float(np.nanmax(ledger.gaps))
    fail_frac = len(ledger.failures) / ledger.attempted
    info.update(run_s=runs.wall, samples=len(scaled), setup_s=setups.wall,
                cold_cli_s=clis.wall, tail_percentile=tail_pct,
                ref_loop_s=runs.refs + setups.refs + clis.refs, unbounded={
                    "wall.run_s.p50": statistics.median(runs.wall),
                    "wall.setup_s": statistics.median(setups.wall),
                    "wall.cold_cli_s": statistics.median(clis.wall),
                    "ref_loop_s": statistics.median(runs.refs),
                    "fail_frac": fail_frac,
                    "worst_gap": worst,
                })
    return {
        "run_s.p50": statistics.median(scaled),
        "run_s.tail": tail_value,
        "steps_per_s": workload.steps_per_run * len(scaled) / sum(scaled),
        "setup_s": statistics.median(setups.scaled),
        "cold_cli_s": statistics.median(clis.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - fail_frac,
        "pass_frac": ledger.passes / ledger.reports,
        "worst_gap_digits": -math.log10(max(worst, np.finfo(float).tiny)),
    }


def _traced(workload, configs, ledger, config_path, reference, until, info):
    cli = traced_cli(config_path, ledger, reference)
    if cli is None:
        raise RuntimeError(f"traced CLI probe failed: {ledger.failures[-1]}")
    middle = time.perf_counter() + (until - time.perf_counter()) / 2
    plain = timed_loop(workload, configs, ledger, middle)
    tracer = Tracer()
    tracer.install()
    try:
        traced = timed_loop(workload, configs, ledger, until, tracer)
    finally:
        tracer.uninstall()
    if not (plain.wall and traced.wall):
        raise RuntimeError(f"no timings survived: {ledger.failures[:3]}")
    trace_path = OUT / f"trace-{workload.name}-{info['seed']}.jsonl.gz"
    tracer.write(trace_path)
    runs = sum(1 for s in tracer.spans if s[0] == ROOT_SPAN)
    metrics = _per_layer(SpanStats(tracer.spans), runs, workload.steps_per_run)
    metrics["cli.import_s"] = cli["import_s"]
    metrics["cli.self_s"] = cli["self_s"]
    # at the reference speed, so that the two halves falling in different
    # spells of the machine does not read as tracing overhead
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.scaled) / statistics.median(plain.scaled) - 1.0
    )
    info.update(run_s=plain.wall, traced_run_s=traced.wall,
                trace_file=str(trace_path.relative_to(ROOT)))
    return metrics
