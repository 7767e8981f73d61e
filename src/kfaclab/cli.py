"""Command-line entry point.

Exit codes for check-invariance: 0 when the verdict is pass (or the run is
damped and therefore only reported), 2 on a fail verdict (a diverged run
whose step meets inf/NaN entries in a solve, or whose exact Fisher is not
finite at the initial parameters, ends as fail), 3 when the run
hit a degenerate metric or non-finite teacher outputs, 4 for configuration
problems. train exits 0, 3 (as above, or a solve that met inf/NaN entries)
or 4; dump-factors exits 0, 3 (non-finite teacher outputs, or a factor with
inf/NaN entries, which JSON cannot hold) or 4.

The whole config is checked when it is loaded, before any run: field names,
types and ranges, the network and output model, and the reparam source (a
reparam file must exist and its maps must fit the network; every reparam's
maps, whatever the source, must be finite and pass linalg.solve's pivot
rule, and are inverted then, once; runs use the maps and inverses of that
moment). Any problem there (errors.ConfigError), a train --out path that
cannot be opened for writing (checked before the run), or a dataset too
large to allocate exits 4 with one line on stderr. numpy's
floating-point warnings are silenced: a diverged run reports its NaN itself.
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from . import harness
from .errors import ConfigError, KfacLabError, ShapeMismatch

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_DEGENERATE = 3
EXIT_CONFIG = 4


def _load_config(path: str) -> harness.ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
        return harness.ExperimentConfig.from_dict(raw)
    except (OSError, ValueError, KeyError, TypeError, ShapeMismatch) as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_check_invariance(args) -> int:
    report = harness.run_invariance(_load_config(args.config))
    print(report.to_json())
    if report.verdict == "fail":
        return EXIT_FAIL
    if report.verdict == "degenerate":
        return EXIT_DEGENERATE
    return EXIT_PASS


def _cmd_train(args) -> int:
    config = _load_config(args.config)
    try:  # opened before the run, so an unwritable path fails before any work
        out = contextlib.nullcontext(sys.stdout) if args.out == "-" else open(args.out, "w")
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    with out as fh:
        fh.write(harness.training_csv(harness.run_training(config)))
    return EXIT_PASS


def _cmd_dump_factors(args) -> int:
    config = _load_config(args.config)
    print(harness.dump_factors(config))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfaclab",
        description="Kronecker-factored curvature experiments on small networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "check-invariance",
        help="run an update rule on a network and its affine-transformed twin",
    )
    p.add_argument("--config", required=True, help="experiment config JSON file")
    p.set_defaults(fn=_cmd_check_invariance)

    p = sub.add_parser("train", help="run a training loop, write step,objective CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output CSV path, - for stdout")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("dump-factors", help="print Kronecker factors at init as JSON")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_dump_factors)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.fn(args)
    # the config is unusable, or asks for arrays too large to allocate
    except (MemoryError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KfacLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
