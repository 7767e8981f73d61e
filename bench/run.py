"""Invariance-run benchmark for kfaclab.

Run from the repository root:

    python3 bench/run.py --workload mlp-kfac --seed 1 --seconds 30 --trace 0

Workloads: mlp-kfac, conv-kfac, rnn-kfac, mlp-ngd (see bench/README.md).
`--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
gives the per-layer metrics from a run with the outside tracer installed.
Prints each metric with its unit, then, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The full results, with
the environment block and per-run timings, go to .bench_out/.
"""

import os

# One client and no extra threads: pin BLAS before numpy is loaded, here
# and in every child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kfaclab" / "__init__.py").is_file():
        print(f"bench: no kfaclab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kfaclab

    if Path(kfaclab.__file__).resolve().parent != SRC / "kfaclab":
        print(f"bench: imported kfaclab from {kfaclab.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = measure.measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    info = result.pop("info")
    out_path = measure.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**result, "info": info}, indent=1))

    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        for name, value in info["unbounded"].items():
            print(f"{args.workload} {name} = {value:.6g} {measure.UNBOUNDED[name]} (unbounded)")
        print(f"{args.workload} run_s.tail is p{info['tail_percentile']:.1f} "
              f"of {info['samples']} runs")
    print(f"{args.workload} env {json.dumps(info['env'])}")
    for failure in info["failures"]:
        print(f"{args.workload} FAILED {failure}")
    print(f"{args.workload} results in {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
