"""Experiment runner: invariance protocol, training loops, CLI plumbing."""

import json

import numpy as np
import pytest

from kfaclab import cli, harness
from kfaclab.harness import (
    POST_UPDATE_TOL,
    STEP0_TOL,
    Dataset,
    ExperimentConfig,
    build_network,
    compare_params_through_reparam,
    dump_factors,
    probe_inputs,
    run_invariance,
    run_ngd_invariance,
    run_training,
    synthetic_dataset,
    training_csv,
)
from kfaclab.kfac import UpdateConfig, kfac_step
from kfaclab.metrics import FisherMetric, GaussianFixedVar, WrappedOutputModel
from kfaclab.nets import (
    DenseLayer,
    Identity,
    Logistic,
    NetworkSpec,
    init_params,
)
from kfaclab.reparam import (
    output_space_map,
    random_reparam,
    transform_input,
    transform_network,
    transform_params,
)


def _mlp_config(**overrides):
    raw = {
        "architecture": {
            "type": "mlp",
            "dims": [8, 12, 10, 6],
            "activation": "logistic",
            "weight_scale": 4.0,
        },
        "output_model": {"kind": "categorical", "classes": 6},
        "dataset_spec": {"num_samples": 64},
        "reparam_source": {"kind": "random", "seed": 5, "conditioning_cap": 100.0},
        "metric": "fisher",
        "optimizer": "kfac",
        "steps": 2,
        "learning_rate": 0.05,
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def _ngd_config(**overrides):
    raw = {
        "architecture": {
            "type": "mlp",
            "dims": [4, 5, 4],
            "activation": "tanh",
            "final_activation": "identity",
        },
        "output_model": {"kind": "gaussian", "dim": 4},
        "dataset_spec": {"num_samples": 32},
        "reparam_source": {"kind": "random", "seed": 7, "conditioning_cap": 100.0},
        "optimizer": "ngd",
        "steps": 3,
        "learning_rate": 0.2,
        "seed": 0,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        _mlp_config(steps=-1)
    with pytest.raises(ValueError):
        _mlp_config(optimizer="adam")
    with pytest.raises(ValueError):
        _mlp_config(metric="spectral")
    with pytest.raises(ValueError):
        _mlp_config(dataset_spec={"num_samples": 0})
    with pytest.raises(ValueError):
        _mlp_config(damping=0.1)  # no damping_mode
    with pytest.raises(ValueError):
        _mlp_config(learning_rate=-1.0)


def test_config_dict_round_trip():
    config = _mlp_config()
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_dict({**config.to_dict(), "momentum": 0.9})
    with pytest.raises(ValueError, match="missing config fields"):
        ExperimentConfig.from_dict({"output_model": {"kind": "gaussian", "dim": 2}})


# ---------------------------------------------------------------------------
# data generation


def test_synthetic_dataset_is_deterministic():
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    model = GaussianFixedVar(2)
    a = synthetic_dataset(spec, model, 8, seed=3)
    b = synthetic_dataset(spec, model, 8, seed=3)
    assert len(a) == 8
    for xa, xb, ya, yb in zip(a.inputs, b.inputs, a.targets, b.targets):
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)
    c = synthetic_dataset(spec, model, 8, seed=3, teacher_seed=99)
    np.testing.assert_array_equal(a.inputs[0], c.inputs[0])
    assert np.abs(a.targets[0] - c.targets[0]).max() > 0


def test_synthetic_dataset_needs_samples():
    spec = NetworkSpec([DenseLayer(3, 2, Identity())])
    with pytest.raises(ValueError):
        synthetic_dataset(spec, GaussianFixedVar(2), 0, seed=0)


def test_probe_inputs_shapes():
    mlp = build_network({"type": "mlp", "dims": [3, 2], "activation": "identity"})
    conv = build_network(
        {
            "type": "conv",
            "channels": [2, 3],
            "kernel_radius": 1,
            "grid": [4, 4],
            "head_dim": 2,
        }
    )
    rnn = build_network(
        {"type": "rnn", "input_dim": 3, "hidden_dim": 4, "steps": 5, "head_dim": 2}
    )
    assert probe_inputs(mlp, 0, count=7)[0].shape == (3,)
    assert probe_inputs(conv, 0)[0].shape == (2, 16)
    assert probe_inputs(rnn, 0)[0].shape == (5, 3)
    assert len(probe_inputs(mlp, 0, count=7)) == 7


def test_dataset_length_mismatch():
    with pytest.raises(ValueError):
        Dataset([np.zeros(2)], [])


# ---------------------------------------------------------------------------
# invariance protocol


def test_reports_are_deterministic():
    a = run_invariance(_mlp_config())
    b = run_invariance(_mlp_config())
    assert a.to_json() == b.to_json()


def test_identity_reparam_gives_exact_zero_discrepancy():
    for optimizer in ("kfac", "sgd"):
        config = _mlp_config(
            reparam_source={"kind": "identity"}, optimizer=optimizer, steps=1
        )
        report = run_invariance(config)
        assert report.verdict == "pass"
        for rec in report.records:
            assert rec.forward_discrepancy == 0.0
            assert rec.param_discrepancy == 0.0
            assert rec.objective == rec.objective_transformed


def test_mlp_kfac_invariance_passes():
    report = run_invariance(_mlp_config())
    assert report.verdict == "pass"
    assert report.records[0].forward_discrepancy <= STEP0_TOL
    assert report.max_forward_discrepancy <= POST_UPDATE_TOL
    assert [r.step for r in report.records] == [0, 1, 2]
    assert report.tolerances == {"step0": STEP0_TOL, "post_update": POST_UPDATE_TOL}


@pytest.mark.parametrize("metric", ["gauss-newton", "ggn"])
def test_non_fisher_metrics_pass_with_identity_output_map(metric):
    report = run_invariance(_mlp_config(metric=metric))
    assert report.verdict == "pass"
    assert report.max_forward_discrepancy <= POST_UPDATE_TOL


def test_sgd_control_breaks_invariance():
    report = run_invariance(_mlp_config(optimizer="sgd", steps=1))
    assert report.verdict == "fail"
    assert report.records[0].forward_discrepancy <= STEP0_TOL
    assert report.records[1].forward_discrepancy > 1e-3


def test_damped_run_only_reports_and_drifts():
    config = _mlp_config(steps=5, damping=0.1, damping_mode="dense_tikhonov")
    report = run_invariance(config)
    assert report.verdict == "report"
    assert report.max_forward_discrepancy > 1e-6


def test_ngd_invariance_on_tiny_mlp():
    config = _ngd_config()
    spec = build_network(config.architecture)
    assert init_params(spec, 0).num_params <= 60
    report = run_ngd_invariance(config)
    assert report.verdict == "pass"
    assert report.max_forward_discrepancy <= 1e-7


def test_ngd_degenerate_fisher_is_reported():
    # Two samples cannot span the 49-dim weight space, so the exact Fisher
    # is singular and the run must say so instead of producing a verdict.
    report = run_ngd_invariance(_ngd_config(dataset_spec={"num_samples": 2}))
    assert report.verdict == "degenerate"
    assert "exact Fisher is singular" in report.diagnostic
    assert report.records == []


# ---------------------------------------------------------------------------
# parameter-space comparison


def test_compare_params_round_trip_is_tiny():
    spec = NetworkSpec([DenseLayer(3, 4, Logistic()), DenseLayer(4, 2, Logistic())])
    params = init_params(spec, 0)
    r = random_reparam(spec, 1)
    mapped = transform_params(params, r)
    assert compare_params_through_reparam(params, mapped, r) <= 1e-12


def test_compare_params_detects_unrelated_params():
    spec = NetworkSpec([DenseLayer(3, 4, Logistic()), DenseLayer(4, 2, Logistic())])
    r = random_reparam(spec, 2)
    a = init_params(spec, 0)
    b = transform_params(init_params(spec, 1), r)
    assert compare_params_through_reparam(a, b, r) > 1e-3


def test_nan_in_twin_params_gives_nan_gaps_and_no_pass(monkeypatch):
    # max(0.0, nan) is 0.0, so a Python-max reduction would record 0 here.
    real = harness.reparam.transform_network

    def poisoned(spec, params, r):
        spec_t, params_t = real(spec, params, r)
        params_t.layers[-1].wbar[0, 0] = np.nan
        return spec_t, params_t

    monkeypatch.setattr(harness.reparam, "transform_network", poisoned)
    report = run_invariance(_mlp_config(steps=0))
    record = report.records[0]
    assert np.isnan(record.forward_discrepancy)
    assert np.isnan(record.param_discrepancy)
    assert np.isnan(report.max_forward_discrepancy)
    assert report.verdict == "fail"


def test_compare_params_after_matching_steps():
    # One K-FAC step on each side stays equivalent in parameter space. The
    # transformed side sees the data and output model in its own bases.
    spec = NetworkSpec(
        [DenseLayer(4, 5, Logistic()), DenseLayer(5, 3, Logistic())]
    )
    params = init_params(spec, 3, weight_scale=4.0)
    model = GaussianFixedVar(3)
    data = synthetic_dataset(spec, model, 16, seed=4, weight_scale=4.0)
    r = random_reparam(spec, 5)
    spec_t, params_t = transform_network(spec, params, r)
    omap = output_space_map(spec, r)
    model_t = WrappedOutputModel(model, omap.b, omap.c)
    data_t = Dataset([transform_input(spec, r, x) for x in data.inputs], data.targets)
    config = UpdateConfig(0.05)
    stepped = kfac_step(spec, params, model, data, FisherMetric(), config)
    stepped_t = kfac_step(spec_t, params_t, model_t, data_t, FisherMetric(), config)
    assert compare_params_through_reparam(stepped, stepped_t, r) <= 1e-8


# ---------------------------------------------------------------------------
# training loops


def _train_config(**overrides):
    raw = {
        "architecture": {"type": "mlp", "dims": [5, 3], "activation": "identity"},
        "output_model": {"kind": "gaussian", "dim": 3},
        "dataset_spec": {"num_samples": 32},
        "optimizer": "kfac",
        "steps": 3,
        "learning_rate": 1.0,
        "seed": 1,
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


def _quadratic_optimum(config):
    # least-squares objective value at the normal-equations solution
    spec = build_network(config.architecture)
    model = GaussianFixedVar(config.output_model["dim"])
    data = synthetic_dataset(spec, model, config.dataset_spec["num_samples"],
                             seed=config.seed + 1)
    design = np.stack([np.concatenate([x, [1.0]]) for x in data.inputs])
    targets = np.stack(data.targets)
    coef, *_ = np.linalg.lstsq(design, targets, rcond=None)
    resid = design @ coef - targets
    return float(np.mean(np.sum(resid**2, axis=1)) / 2.0) + targets.shape[1] / 2.0 * float(
        np.log(2.0 * np.pi)
    )


def test_kfac_training_reaches_quadratic_optimum():
    rows = run_training(_train_config())
    assert [s for s, _ in rows] == [0, 1, 2, 3]
    optimum = _quadratic_optimum(_train_config())
    assert rows[1][1] - optimum <= 1e-8
    assert rows[3][1] - optimum <= 1e-8


def test_sgd_training_decreases_monotonically():
    rows = run_training(_train_config(optimizer="sgd", learning_rate=0.05, steps=6))
    values = [h for _, h in rows]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_training_zero_steps_single_row():
    rows = run_training(_train_config(steps=0))
    assert len(rows) == 1 and rows[0][0] == 0


def test_training_csv_format():
    rows = run_training(_train_config(steps=1))
    text = training_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "step,objective"
    assert len(lines) == 3
    step, value = lines[1].split(",")
    assert step == "0" and float(value) == rows[0][1]


# ---------------------------------------------------------------------------
# CLI


def _write_config(tmp_path, name, config):
    path = tmp_path / name
    path.write_text(json.dumps(config.to_dict()))
    return str(path)


def test_cli_pass_exit_code_and_report(tmp_path, capsys):
    path = _write_config(tmp_path, "pass.json", _mlp_config(steps=1))
    code = cli.main(["check-invariance", "--config", path])
    assert code == cli.EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    assert len(report["records"]) == 2


def test_cli_fail_exit_code(tmp_path, capsys):
    path = _write_config(tmp_path, "fail.json", _mlp_config(optimizer="sgd", steps=1))
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_FAIL
    assert json.loads(capsys.readouterr().out)["verdict"] == "fail"


def test_cli_degenerate_exit_code(tmp_path, capsys):
    config = _ngd_config(dataset_spec={"num_samples": 2})
    path = _write_config(tmp_path, "degen.json", config)
    assert cli.main(["check-invariance", "--config", path]) == cli.EXIT_DEGENERATE
    capsys.readouterr()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"architecture": {"type": "mlp", "dims": [2, 2]}}))
    assert cli.main(["check-invariance", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert cli.main(["train", "--config", "/no/such/file", "--out", "-"]) == cli.EXIT_CONFIG
    capsys.readouterr()


def _mis_chained(raw):
    raw["architecture"] = {
        "type": "layers",
        "layers": [
            {"kind": "dense", "in_dim": 8, "out_dim": 5, "activation": "logistic"},
            {"kind": "dense", "in_dim": 4, "out_dim": 6, "activation": "logistic"},
        ],
    }


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda raw: raw["architecture"].update(type="transformer"), "unknown architecture type"),
        (lambda raw: raw.update(output_model={"kind": "poisson"}), "unknown output model"),
        (_mis_chained, "layer 1 declares input 4 but layer 0 emits 5"),
        (lambda raw: raw["output_model"].update(classes=2), "output model dimension 2"),
    ],
)
def test_cli_unbuildable_config_exits_with_config_error(tmp_path, capsys, edit, message):
    raw = _mlp_config().to_dict()
    edit(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["check-invariance", "--config", str(path)]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_cli_train_writes_csv(tmp_path, capsys):
    path = _write_config(tmp_path, "train.json", _train_config())
    out = tmp_path / "series.csv"
    assert cli.main(["train", "--config", path, "--out", str(out)]) == cli.EXIT_PASS
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,objective" and len(lines) == 5
    capsys.readouterr()


def test_cli_dump_factors(tmp_path, capsys):
    path = _write_config(tmp_path, "dump.json", _train_config(steps=0))
    assert cli.main(["dump-factors", "--config", path]) == cli.EXIT_PASS
    blob = json.loads(capsys.readouterr().out)
    assert [b["layer_index"] for b in blob] == [0]
    assert set(blob[0]) == {"layer_index", "scale", "A", "G"}
