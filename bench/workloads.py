"""The four benchmark workloads and the correctness gate.

Each workload is a fixed ledger config from tests/test_acceptance.py, run
over a panel of all ten of the ledger's own reparam seeds, so the worst gap
over a panel is the same for every workload seed. The workload seed only
sets the order of the panel, and so which reparam seed the fresh-process
probes use. Sizes, step counts and the data seed (`seed`: init, dataset,
teacher, probes) never depend on it; see README.md for why the data seed
stays at the ledger's 0.
"""

import json
from dataclasses import dataclass
from math import nan

import numpy as np

from kfaclab import harness

LEDGER_REPARAM_SEEDS = range(1000, 1010)  # REPARAM_SEEDS in tests/test_acceptance.py


def _kfac_config(architecture, num_samples):
    return {
        "architecture": architecture,
        "output_model": {"kind": "categorical", "classes": 6},
        "dataset_spec": {"num_samples": num_samples},
        "reparam_source": {"kind": "random", "seed": 0, "conditioning_cap": 100.0},
        "metric": "fisher",
        "optimizer": "kfac",
        "steps": 5,
        "learning_rate": 0.05,
        "damping": 0.0,
        "seed": 0,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    base: dict  # ledger config; its seeds are replaced per panel member
    panel: int = len(LEDGER_REPARAM_SEEDS)  # configs, each with its own reparam seed

    @property
    def is_ngd(self) -> bool:
        return self.base["optimizer"] == "ngd"

    @property
    def steps_per_run(self) -> int:
        return 2 * self.base["steps"]  # both twins

    def configs(self, seed: int) -> list:
        """The panel of config dicts for one workload seed."""
        order = np.random.default_rng(seed).permutation(LEDGER_REPARAM_SEEDS)
        return [
            {**self.base, "reparam_source": {**self.base["reparam_source"], "seed": int(r)}}
            for r in order[: self.panel]
        ]

    def run(self, config: dict) -> str:
        """One invariance run, as the report bytes the CLI would print."""
        cfg = harness.ExperimentConfig.from_dict(config)
        runner = harness.run_ngd_invariance if self.is_ngd else harness.run_invariance
        return runner(cfg).to_json()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mlp-kfac",
            _kfac_config(
                {"type": "mlp", "dims": [8, 12, 10, 6], "activation": "logistic",
                 "weight_scale": 4.0},
                64,
            ),
        ),
        Workload(
            "conv-kfac",
            _kfac_config(
                {"type": "conv", "channels": [2, 3, 2], "kernel_radius": 1,
                 "grid": [5, 5], "head_dim": 6, "activation": "logistic",
                 "weight_scale": 4.0},
                64,
            ),
        ),
        Workload(
            "rnn-kfac",
            _kfac_config(
                {"type": "rnn", "input_dim": 3, "hidden_dim": 6, "steps": 5,
                 "head_dim": 6, "activation": "logistic", "weight_scale": 4.0},
                32,
            ),
        ),
        Workload(
            "mlp-ngd",
            {
                "architecture": {"type": "mlp", "dims": [4, 5, 4], "activation": "tanh",
                                 "final_activation": "identity"},
                "output_model": {"kind": "gaussian", "dim": 4},
                "dataset_spec": {"num_samples": 32},
                "reparam_source": {"kind": "random", "seed": 0, "conditioning_cap": 100.0},
                "optimizer": "ngd",
                "steps": 3,
                "learning_rate": 0.2,
                "seed": 0,
            },
        ),
    )
}


def check_report(workload: Workload, text: str, reference: str = None):
    """Gate one report. Returns (reason or None, worst forward gap, verdict).

    A report fails when it differs from an earlier run of the same config,
    holds a non-finite record value, or has the wrong verdict: anything but
    "pass" for K-FAC, "degenerate" for exact NGD. Values are reduced with
    NaN-propagating numpy reductions; Python's max(worst, x) drops a NaN.
    """
    if reference is not None and text != reference:
        return "report bytes differ from an earlier run of the same config", nan, None
    try:
        report = json.loads(text)
        records = report["records"]
        verdict = report["verdict"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc!r}", nan, None
    if workload.is_ngd:
        if verdict == "degenerate":
            return f"verdict degenerate: {report.get('diagnostic', '')}", nan, verdict
    elif verdict != "pass":
        return f"verdict {verdict}, expected pass", nan, verdict
    if not records:
        return "report has no records", nan, verdict
    values = np.array(
        [v for r in records for v in r.values()
         if isinstance(v, (int, float)) and not isinstance(v, bool)],
        dtype=float,
    )
    worst = float(np.max([r["forward_discrepancy"] for r in records]))
    if not np.isfinite(values).all():
        return "non-finite record value", worst, verdict
    return None, worst, verdict


# check-invariance exit code for each verdict, per the CLI contract.
EXIT_FOR_VERDICT = {"pass": 0, "report": 0, "fail": 2, "degenerate": 3}
