"""SHA-256 digests of what the kfaclab CLI prints, for comparing two checkouts.

    python3 tools/report_digests.py [ROOT]

runs `check-invariance`, `train --out -` and `dump-factors` in a fresh
process per call, with ROOT/src on PYTHONPATH (ROOT defaults to the checkout
holding this script), on a fixed set of configs: the four benchmark panels
of bench/workloads.py (reparam seeds 1000-1009 each) and the variants below.
It prints one line per config and command:

    <config> <command> <sha256 of stdout> <sha256 of stderr> <exit code>

ROOT's path is replaced by "<root>" in stderr before hashing, so tracebacks
and warnings from two checkouts compare by content. To check that a change
keeps every output, run the script (from the changed tree) once on a copy of
the parent commit and once on the change, and diff the two outputs:

    git archive --prefix=parent/ PARENT_COMMIT | tar -x -C /tmp
    python3 tools/report_digests.py /tmp/parent > parent.txt
    python3 tools/report_digests.py > change.txt
    diff parent.txt change.txt

A change that moves the last bits of the arithmetic changes many digests;
tools/report_drift.py then shows what moved in the reports.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))
sys.path.insert(0, str(HERE / "bench"))

from workloads import LEDGER_REPARAM_SEEDS, WORKLOADS  # noqa: E402

COMMANDS = (
    ("check-invariance",),
    ("train", "--out", "-"),
    ("dump-factors",),
)

MLP = WORKLOADS["mlp-kfac"].base
CONV = WORKLOADS["conv-kfac"].base
RNN = WORKLOADS["rnn-kfac"].base
NGD = WORKLOADS["mlp-ngd"].base
SMALL_MLP = {
    "architecture": {"type": "mlp", "dims": [4, 5, 3]},
    "output_model": {"kind": "categorical", "classes": 3},
    "dataset_spec": {"num_samples": 8},
    "reparam_source": {"kind": "random", "seed": 1},
    "steps": 3,
    "learning_rate": 1e308,
}
CONV_LAYERS = {
    "type": "layers",
    "layers": [
        {"kind": "conv2d", "in_channels": 2, "out_channels": 3, "kernel_radius": 2,
         "grid": [4, 4], "activation": "tanh", "padding_value": [0.5, -1.0]},
        {"kind": "dense", "in_dim": 48, "out_dim": 4, "activation": "logistic"},
    ],
}
RNN_LAYERS = {
    "type": "layers",
    "layers": [
        {"kind": "recurrent", "input_dim": 3, "hidden_dim": 4, "steps": 3,
         "activation": "tanh", "initial_state": [0.3, -0.2, 0.1, 0.5]},
        {"kind": "dense", "in_dim": 4, "out_dim": 4, "activation": "logistic"},
    ],
}
CONV_NO_HEAD = {"type": "conv", "channels": [2, 3, 1], "grid": [3, 3],
                "activation": "logistic", "final_activation": "tanh", "weight_scale": 4.0}
RNN_NO_HEAD = {"type": "rnn", "input_dim": 3, "hidden_dim": 6, "steps": 5,
               "activation": "logistic", "final_activation": "tanh", "weight_scale": 4.0}
# Reparam files, written next to the configs; a variant names one by its
# file name under REPARAM_DIR.
REPARAM_DIR = "<reparam files>"
REPARAM_FILES = {
    "maps-not-an-array.json": {"activation_maps": 5, "preactivation_maps": []},
    "matrix-not-numbers.json": {"activation_maps": [{"B": "x", "c": [0.0]}],
                                "preactivation_maps": []},
}
CATEGORICAL_4 = {"kind": "categorical", "classes": 4}
GAUSSIAN_6 = {"kind": "gaussian", "dim": 6, "variance": 0.5}

VARIANTS = {
    "sgd-mlp": {**MLP, "optimizer": "sgd"},
    "sgd-conv": {**CONV, "optimizer": "sgd"},
    "sgd-rnn": {**RNN, "optimizer": "sgd"},
    "tikhonov": {**MLP, "damping": 0.1, "damping_mode": "dense_tikhonov"},
    "factored": {**MLP, "damping": 0.1, "damping_mode": "factored"},
    "ggn": {**MLP, "metric": "ggn"},
    "gauss-newton-rnn": {**RNN, "metric": "gauss-newton"},
    "ngd-seed-7": {**NGD, "reparam_source": {**NGD["reparam_source"], "seed": 7}},
    "ngd-degenerate": {**NGD, "dataset_spec": {"num_samples": 2}},
    "gaussian-conv": {**CONV, "output_model": GAUSSIAN_6},
    "gaussian-rnn": {**RNN, "output_model": GAUSSIAN_6},
    "layers-conv": {**MLP, "architecture": CONV_LAYERS, "output_model": CATEGORICAL_4},
    "layers-rnn": {**MLP, "architecture": RNN_LAYERS, "output_model": CATEGORICAL_4},
    "layers-rnn-sgd": {**MLP, "architecture": RNN_LAYERS, "output_model": CATEGORICAL_4,
                       "optimizer": "sgd"},
    "preset": {**MLP, "reparam_source": {"kind": "preset", "name": "logistic-to-tanh"}},
    "identity": {**MLP, "reparam_source": {"kind": "identity"}},
    "diverging-kfac": {**MLP, **SMALL_MLP, "optimizer": "kfac"},
    "diverging-sgd": {**MLP, **SMALL_MLP, "optimizer": "sgd"},
    "kfac-singular-factor": {**MLP, "architecture": {**MLP["architecture"],
                                                     "final_activation": "identity"}},
    "diverging-ngd": {**MLP, **SMALL_MLP, "dataset_spec": {"num_samples": 32},
                      "optimizer": "ngd"},
    "ngd-fisher-overflow": {**NGD, "architecture": {"type": "mlp", "dims": [2, 2, 2, 2],
                                                    "activation": "identity",
                                                    "weight_scale": 1e90},
                            "output_model": {"kind": "gaussian", "dim": 2},
                            "dataset_spec": {"num_samples": 8}},
    "conv-final-no-head": {**CONV, "architecture": CONV_NO_HEAD,
                           "output_model": {"kind": "categorical", "classes": 9}},
    "rnn-final-no-head": {**RNN, "architecture": RNN_NO_HEAD},
    "conv-one-channel-head": {**CONV, "architecture": {**CONV["architecture"],
                                                       "channels": [2]}},
    "conv-one-in-channel": {**CONV, "architecture": {**CONV["architecture"],
                                                     "channels": [1, 1, 4], "kernel_radius": 2,
                                                     "grid": [3, 4]}},
    "diverging-conv-kfac": {**CONV, "optimizer": "kfac", "learning_rate": 1e308},
    "diverging-conv-sgd": {**CONV, "optimizer": "sgd", "learning_rate": 1e308},
    "diverging-rnn-kfac": {**RNN, "optimizer": "kfac", "learning_rate": 1e308},
    "diverging-rnn-sgd": {**RNN, "optimizer": "sgd", "learning_rate": 1e308},
    "categorical-without-classes": {**MLP, "output_model": {"kind": "categorical"}},
    "gaussian-without-dim": {**NGD, "output_model": {"kind": "gaussian", "variance": 0.5}},
    "rnn-without-hidden-dim": {**RNN, "architecture": {
        k: v for k, v in RNN["architecture"].items() if k != "hidden_dim"}},
    "layer-without-activation": {**MLP, "architecture": {
        "type": "layers", "layers": [{"kind": "dense", "in_dim": 8, "out_dim": 6}]}},
    "reparam-file-maps-not-an-array": {**MLP, "reparam_source": {
        "kind": "file", "path": f"{REPARAM_DIR}/maps-not-an-array.json"}},
    "reparam-file-matrix-not-numbers": {**MLP, "reparam_source": {
        "kind": "file", "path": f"{REPARAM_DIR}/matrix-not-numbers.json"}},
}


def configs() -> dict:
    out = {}
    for name, w in WORKLOADS.items():
        for seed in LEDGER_REPARAM_SEEDS:
            source = {**w.base["reparam_source"], "seed": seed}
            out[f"{name}-{seed}"] = {**w.base, "reparam_source": source}
    out.update(VARIANTS)
    return out


def write_configs(tmp: str) -> dict:
    """Write every config, and the reparam files they read, into the
    directory tmp; {config name: path of its JSON file}."""
    for name, content in REPARAM_FILES.items():
        with open(os.path.join(tmp, name), "w") as fh:
            json.dump(content, fh)
    paths = {}
    for name, config in configs().items():
        source = config.get("reparam_source") or {}
        if source.get("kind") == "file":
            path = source["path"].replace(REPARAM_DIR, tmp)
            config = {**config, "reparam_source": {**source, "path": path}}
        paths[name] = os.path.join(tmp, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(config, fh)
    return paths


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(root: Path, path: str, command: tuple) -> subprocess.CompletedProcess:
    """One CLI call on the config at path, in a fresh process running
    ROOT/src, with ROOT's path replaced by "<root>" in stderr."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    argv = [sys.executable, "-m", "kfaclab.cli", command[0], "--config", path, *command[1:]]
    done = subprocess.run(argv, capture_output=True, env=env, cwd=root)
    done.stderr = done.stderr.replace(str(root).encode(), b"<root>")
    return done


def digest(root: Path, path: str, command: tuple) -> str:
    done = run_cli(root, path, command)
    return f"{_sha(done.stdout)} {_sha(done.stderr)} {done.returncode}"


def main(argv) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else HERE
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for name, path in write_configs(tmp).items():
            jobs += [(name, path, command) for command in COMMANDS]
        with ThreadPoolExecutor(max_workers=2) as pool:
            lines = pool.map(lambda job: digest(root, job[1], job[2]), jobs)
            for (name, _, command), line in zip(jobs, lines):
                print(f"{name} {command[0]} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
