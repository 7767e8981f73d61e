"""SHA-256 digests of what the kfaclab CLI prints, for comparing two checkouts.

    python3 tools/report_digests.py [ROOT]

runs `check-invariance`, `train --out -` and `dump-factors` in a fresh
process per call, with ROOT/src on PYTHONPATH (ROOT defaults to the checkout
holding this script), on a fixed set of configs: the four benchmark panels
of bench/workloads.py (reparam seeds 1000-1009 each) and the variants below.
Each call runs BLAS on one thread, since a product's rounding can depend on
the thread count once P is a few hundred, so the lines do not depend on the
machine. It prints one line per config and command:

    <config> <command> <sha256 of stdout> <sha256 of stderr> <exit code>

ROOT's path is replaced by "<root>" in stderr before hashing, so tracebacks
and warnings from two checkouts compare by content, and the temporary
directory holding the configs by "<reparam files>" in stdout, so a report
that echoes a reparam file's path compares too. To check that a change
keeps every output, run the script (from the changed tree) once on a copy of
the parent commit and once on the change, and diff the two outputs:

    git archive --prefix=parent/ PARENT_COMMIT | tar -x -C /tmp
    python3 tools/report_digests.py /tmp/parent > parent.txt
    python3 tools/report_digests.py > change.txt
    diff parent.txt change.txt

A change that moves the last bits of the arithmetic changes many digests;
tools/report_drift.py then shows what moved in the reports.
"""

import copy
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

from kfaclab.harness import build_network  # noqa: E402
from kfaclab.reparam import random_reparam, reparam_to_dict  # noqa: E402
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
    # the maps of the mlp-kfac-1000 panel member, so the reparam-file
    # variant's records equal that member's
    "maps-mlp-kfac-1000.json": reparam_to_dict(random_reparam(
        build_network(MLP["architecture"]), 1000, MLP["reparam_source"]["conditioning_cap"])),
}
# the same maps with pre-activation map 0's B made diag(1, ..., 1, 1e-13), so
# that map's homogeneous form has an rcond below linalg.SINGULARITY_RTOL
_SINGULAR = copy.deepcopy(REPARAM_FILES["maps-mlp-kfac-1000.json"])
_SINGULAR["preactivation_maps"][0]["B"] = [
    [(1.0 if i < 11 else 1e-13) if i == j else 0.0 for j in range(12)] for i in range(12)]
REPARAM_FILES["preactivation-map-0-singular.json"] = _SINGULAR
# exact NGD on a conv and a recurrent net (tests/test_harness.py's NGD_NETS)
NGD_CONV = {**NGD, "architecture": {"type": "conv", "channels": [2, 3, 2], "grid": [4, 4],
                                    "kernel_radius": 1, "head_dim": 4, "activation": "tanh",
                                    "final_activation": "identity"},
            "output_model": {"kind": "gaussian", "dim": 4}, "dataset_spec": {"num_samples": 122},
            "reparam_source": {**NGD["reparam_source"], "seed": 1000}}
NGD_RNN = {**NGD, "architecture": {"type": "rnn", "input_dim": 3, "hidden_dim": 3, "steps": 3,
                                   "activation": "tanh", "final_activation": "identity"},
           "output_model": {"kind": "gaussian", "dim": 3}, "dataset_spec": {"num_samples": 11},
           "reparam_source": {**NGD["reparam_source"], "seed": 1000}}
# a grid flattened into a dense layer that feeds another dense layer
CONV_DENSE_DENSE = {
    "type": "layers",
    "weight_scale": 4.0,
    "layers": [
        {"kind": "conv2d", "in_channels": 2, "out_channels": 3, "kernel_radius": 1,
         "grid": [3, 3], "activation": "tanh"},
        {"kind": "dense", "in_dim": 27, "out_dim": 8, "activation": "logistic"},
        {"kind": "dense", "in_dim": 8, "out_dim": 4, "activation": "logistic"},
    ],
}
CATEGORICAL_4 = {"kind": "categorical", "classes": 4}
# logits more than about 745 apart: a target's p_y is 0 in float64, so its
# metric-root weight -1/sqrt(p_y) is infinite and the step takes its gradient
# from one more backward pass, of the loss cotangent
SATURATED = {"architecture": {"type": "mlp", "dims": [2, 3], "final_activation": "identity",
                              "weight_scale": 1000.0},
             "output_model": {"kind": "categorical", "classes": 3},
             "dataset_spec": {"num_samples": 8}}
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
    "ngd-degenerate-damped": {**NGD, "dataset_spec": {"num_samples": 2}, "damping": 0.1,
                              "damping_mode": "dense_tikhonov"},
    # no step solves the singular Fisher: a pass with one record, as train
    "ngd-steps-0-singular": {**NGD, "dataset_spec": {"num_samples": 2}, "steps": 0},
    # 5123 parameters, above metrics.PARAM_CAP: a config error
    "ngd-over-param-cap": {**NGD, "architecture": {"type": "mlp", "dims": [60, 80, 3]},
                           "output_model": {"kind": "categorical", "classes": 3}},
    "ngd-conv": NGD_CONV,
    "ngd-rnn": NGD_RNN,
    # N*K = 260 just above P = 245: an ill-conditioned Fisher, on a reparam
    # seed whose twins part beyond the tolerance if the step forms F = R^T R
    "ngd-conv-near-rank": {**NGD_CONV, "dataset_spec": {"num_samples": 65},
                           "reparam_source": {**NGD["reparam_source"], "seed": 1002}},
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
    # exact NGD at learning rate 1e308: with reparam seed 1 the twin's R fails
    # the rule at step 1 (degenerate); with seed 2 the Fishers stay regular
    # until one overflows at step 2 (a diverged run, fail)
    "diverging-ngd": {**MLP, **SMALL_MLP, "dataset_spec": {"num_samples": 32},
                      "optimizer": "ngd"},
    "diverging-ngd-mid-run": {**MLP, **SMALL_MLP, "dataset_spec": {"num_samples": 32},
                              "reparam_source": {"kind": "random", "seed": 2},
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
    # pre-activation maps whose B is near 1e13 and well conditioned: judged
    # by B, they load, and the twin's A factor is singular
    "reparam-random-cap-1e26": {**MLP, "reparam_source": {
        "kind": "random", "seed": 1000, "conditioning_cap": 1e26}},
    "reparam-file-maps-not-an-array": {**MLP, "reparam_source": {
        "kind": "file", "path": f"{REPARAM_DIR}/maps-not-an-array.json"}},
    "reparam-file-matrix-not-numbers": {**MLP, "reparam_source": {
        "kind": "file", "path": f"{REPARAM_DIR}/matrix-not-numbers.json"}},
    "reparam-file": {**MLP, "reparam_source": {
        "kind": "file", "path": f"{REPARAM_DIR}/maps-mlp-kfac-1000.json"}},
    "reparam-file-fails-pivot-rule": {**MLP, "reparam_source": {
        "kind": "file", "path": f"{REPARAM_DIR}/preactivation-map-0-singular.json"}},
    "teacher-input-scale": {**MLP, "dataset_spec": {**MLP["dataset_spec"], "teacher_seed": 3,
                                                    "input_scale": 0.5}},
    # settings the optimizer would ignore: config errors
    "sgd-damped": {**MLP, "optimizer": "sgd", "damping": 0.1, "damping_mode": "factored"},
    "ngd-factored": {**NGD, "damping": 0.1, "damping_mode": "factored"},
    "sgd-gauss-newton": {**MLP, "optimizer": "sgd", "metric": "gauss-newton"},
    "ngd-ggn": {**NGD, "metric": "ggn"},
    # a pulled-back conv layer with fewer output than input channels (4 -> 2)
    # at radius 2 on a non-square grid: fold_patches gathers windows of dz
    "conv-radius-2-narrowing": {**CONV, "architecture": {**CONV["architecture"],
                                                         "channels": [3, 4, 2],
                                                         "kernel_radius": 2, "grid": [4, 5]}},
    # a conv layer of radius 1e9: numpy cannot address its initial weights,
    # (2R+1)^2 patch offsets, so every command exits 4
    "conv-unaddressable": {**MLP, "architecture": {"type": "conv", "channels": [1, 1],
                                                   "kernel_radius": 10**9, "grid": [2, 2],
                                                   "head_dim": 2},
                           "output_model": {"kind": "categorical", "classes": 2},
                           "dataset_spec": {"num_samples": 4}},
    # inputs so large that the A factor overflows: dump-factors exits 3
    "dump-factors-overflow": {**MLP, "architecture": {"type": "mlp", "dims": [3, 4, 3]},
                              "output_model": {"kind": "categorical", "classes": 3},
                              "dataset_spec": {"num_samples": 8, "input_scale": 1e200}},
    # softplus hidden layers (on the ledger's weight scale of 4 they diverge)
    "softplus-mlp": {**MLP, "architecture": {**MLP["architecture"], "activation": "softplus",
                                             "final_activation": "logistic",
                                             "weight_scale": 2.0}},
    "conv-dense-dense": {**MLP, "architecture": CONV_DENSE_DENSE, "output_model": CATEGORICAL_4},
    "kfac-saturated-target": {**MLP, **SATURATED},
    "sgd-saturated-target": {**MLP, **SATURATED, "optimizer": "sgd"},
    # damped, so the saturated softmax's all but zero Fisher does not end
    # the run degenerate, as it does undamped
    "ngd-saturated-target": {**MLP, **SATURATED, "optimizer": "ngd", "damping": 0.1,
                             "damping_mode": "dense_tikhonov"},
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
    ROOT/src with BLAS on one thread, with ROOT's path replaced by "<root>"
    in stderr, and the config directory's by REPARAM_DIR in stdout (a
    report echoes the path of the reparam file it read)."""
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    argv = [sys.executable, "-m", "kfaclab.cli", command[0], "--config", path, *command[1:]]
    done = subprocess.run(argv, capture_output=True, env=env, cwd=root)
    done.stderr = done.stderr.replace(str(root).encode(), b"<root>")
    done.stdout = done.stdout.replace(os.path.dirname(path).encode(), REPARAM_DIR.encode())
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
