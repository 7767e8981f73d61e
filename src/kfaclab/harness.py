"""Experiment runner behind the CLI.

Builds a network and its affine-transformed twin, runs the same update rule
on both sides, and reports per-step discrepancies. All expectations in the
updates are closed-form means over the dataset, so the two runs share no
randomness; identical configs produce byte-identical reports.
"""

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import kfac, metrics, nets, reparam
from .errors import NonFinite, SingularFactor, SingularMatrix, check_int
from .kfac import UpdateConfig
from .linalg import sym_eig_min

STEP0_TOL = 1e-10  # pure reparam correctness, no solves involved
POST_UPDATE_TOL = 1e-8  # headroom over inverse-factor solve error
NUM_PROBES = 32
FISHER_DEGENERACY_RTOL = 1e-12


@dataclass
class Dataset:
    inputs: list
    targets: list

    def __post_init__(self):
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets differ in length")

    def __len__(self) -> int:
        return len(self.inputs)


def _draw_input(spec: nets.NetworkSpec, rng, scale: float):
    return scale * rng.standard_normal(spec.layers[0].in_shape)


def probe_inputs(spec: nets.NetworkSpec, seed: int, count: int = NUM_PROBES, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    return [_draw_input(spec, rng, scale) for _ in range(count)]


def synthetic_dataset(
    spec: nets.NetworkSpec,
    model,
    num_samples: int,
    seed: int,
    teacher: nets.ParamSet = None,
    teacher_seed: int = None,
    input_scale: float = 1.0,
    weight_scale: float = 1.0,
) -> Dataset:
    """Inputs i.i.d. normal, targets sampled from a teacher's predictive.

    The teacher is a fresh random instance of the same architecture unless
    one is passed in; its outputs come from one batched forward pass. All
    inputs are drawn before any target. Deterministic per (seed, teacher_seed).
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if teacher is None:
        teacher = nets.init_params(
            spec, seed=seed + 1 if teacher_seed is None else teacher_seed,
            weight_scale=weight_scale,
        )
    rng = np.random.default_rng(seed)
    inputs = [_draw_input(spec, rng, input_scale) for _ in range(num_samples)]
    outputs = nets.forward_batch(spec, teacher, inputs).output
    targets = [model.sample(z, rng) for z in outputs]
    return Dataset(inputs, targets)


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ExperimentConfig:
    architecture: dict
    output_model: dict
    dataset_spec: dict
    reparam_source: dict = None
    metric: str = "fisher"
    optimizer: str = "kfac"
    steps: int = 5
    learning_rate: float = 0.05
    damping: float = 0.0
    damping_mode: str = "none"
    seed: int = 0

    def __post_init__(self):
        for name in ("architecture", "output_model", "dataset_spec"):
            if not isinstance(getattr(self, name), dict):
                raise ValueError(f"{name} must be a JSON object")
        # Build once so a config that names an unknown kind or does not chain
        # is rejected here, as a config error, rather than mid-run.
        spec = build_network(self.architecture)
        model = build_output_model(self.output_model)
        if model.dim != spec.output_dim:
            raise ValueError(
                f"output model dimension {model.dim} != network output {spec.output_dim}"
            )
        _check_real("architecture.weight_scale", _init_scale(self))
        check_int("steps", self.steps, 0)
        check_int("seed", self.seed, 0)
        ds = self.dataset_spec
        check_int("dataset_spec.num_samples", ds.get("num_samples"), 1)
        if ds.get("teacher_seed") is not None:
            check_int("dataset_spec.teacher_seed", ds["teacher_seed"], 0)
        _check_real("dataset_spec.input_scale", ds.get("input_scale", 1.0))
        if self.optimizer not in _STEP_FNS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.metric not in metrics.METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        _check_real("learning_rate", self.learning_rate)
        _check_real("damping", self.damping)
        # delegate the damping consistency rules
        UpdateConfig(self.learning_rate, self.damping, self.damping_mode)
        _reparam_maker(spec, self.reparam_source)  # checks; builds no random maps

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        extra = set(d) - set(known)
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        missing = [
            f for f in ("architecture", "output_model", "dataset_spec") if f not in d
        ]
        if missing:
            raise ValueError(f"missing config fields: {missing}")
        return cls(**known)

    def to_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "output_model": self.output_model,
            "dataset_spec": self.dataset_spec,
            "reparam_source": self.reparam_source,
            "metric": self.metric,
            "optimizer": self.optimizer,
            "steps": self.steps,
            "learning_rate": self.learning_rate,
            "damping": self.damping,
            "damping_mode": self.damping_mode,
            "seed": self.seed,
        }


def build_network(arch: dict) -> nets.NetworkSpec:
    kind = arch.get("type")
    act = nets.activation_by_name(arch.get("activation", "logistic"))
    if kind == "mlp":
        dims = arch["dims"]
        final = arch.get("final_activation")
        layers = []
        for i in range(len(dims) - 1):
            a = act
            if final is not None and i == len(dims) - 2:
                a = nets.activation_by_name(final)
            layers.append(nets.DenseLayer(dims[i], dims[i + 1], a))
        return nets.NetworkSpec(layers)
    if kind == "conv":
        grid = tuple(arch["grid"])
        radius = arch.get("kernel_radius", 1)
        channels = arch["channels"]  # in-channel count first
        layers = []
        for cin, cout in zip(channels, channels[1:]):
            layers.append(nets.ConvLayer(cin, cout, radius, grid, act))
        head = arch.get("head_dim")
        if head is not None:
            flat = channels[-1] * grid[0] * grid[1]
            final = nets.activation_by_name(arch.get("final_activation", arch.get("activation", "logistic")))
            layers.append(nets.DenseLayer(flat, head, final))
        return nets.NetworkSpec(layers)
    if kind == "rnn":
        layers = [
            nets.RecurrentLayer(arch["input_dim"], arch["hidden_dim"], arch["steps"], act)
        ]
        head = arch.get("head_dim")
        if head is not None:
            final = nets.activation_by_name(arch.get("final_activation", arch.get("activation", "logistic")))
            layers.append(nets.DenseLayer(arch["hidden_dim"], head, final))
        return nets.NetworkSpec(layers)
    if kind == "layers":
        return nets.spec_from_dict(arch)
    raise ValueError(f"unknown architecture type {kind!r}")


def build_output_model(d: dict):
    kind = d.get("kind")
    if kind == "categorical":
        return metrics.CategoricalLogits(d["classes"])
    if kind == "gaussian":
        return metrics.GaussianFixedVar(d["dim"], d.get("variance", 1.0))
    raise ValueError(f"unknown output model {kind!r}")


def _check_real(what: str, value, least: float = -np.inf) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not (math.isfinite(value) and value >= least)
    ):
        bound = "" if least == -np.inf else f" >= {least}"
        raise ValueError(f"{what} must be a finite number{bound}, got {value!r}")


def _reparam_maker(spec: nets.NetworkSpec, source):
    """Check a reparam_source against the network; return the function of
    identity_output that builds the reparam. The check reads a file source
    and fits its maps to the network, but draws no random maps."""
    if source is None:
        source = {"kind": "identity"}
    if not isinstance(source, dict):
        raise ValueError("reparam_source must be a JSON object or null")
    kind = source.get("kind", "random")
    if kind == "identity":
        return lambda identity_output: reparam.identity_reparam(spec)
    if kind == "random":
        seed = source.get("seed", 0)
        cap = source.get("conditioning_cap", 100.0)
        check_int("reparam_source.seed", seed, 0)
        _check_real("reparam_source.conditioning_cap", cap, 1.0)
        return lambda identity_output: reparam.random_reparam(
            spec, rng_seed=seed, conditioning_cap=cap, identity_output=identity_output
        )
    if kind == "preset":
        name = source.get("name")
        if name not in reparam.PRESETS:
            raise ValueError(f"unknown reparam preset {name!r}")
        return lambda identity_output: reparam.PRESETS[name](spec)
    if kind == "file":
        path = source.get("path")
        if not isinstance(path, str):
            raise ValueError(f"reparam_source.path must be a file path, got {path!r}")
        with open(path) as fh:
            r = reparam.reparam_from_dict(json.load(fh))
        reparam.check_dims(spec, r)
        return lambda identity_output: r
    raise ValueError(f"unknown reparam source {kind!r}")


def build_reparam(
    spec: nets.NetworkSpec, source: dict, identity_output: bool = False
) -> reparam.NetworkReparam:
    return _reparam_maker(spec, source)(identity_output)


# ---------------------------------------------------------------------------
# invariance protocol


@dataclass
class StepRecord:
    step: int
    forward_discrepancy: float
    objective: float
    objective_transformed: float
    param_discrepancy: float

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "forward_discrepancy": self.forward_discrepancy,
            "objective": self.objective,
            "objective_transformed": self.objective_transformed,
            "param_discrepancy": self.param_discrepancy,
        }


@dataclass
class InvarianceReport:
    config: dict
    tolerances: dict
    records: list = field(default_factory=list)
    verdict: str = "report"
    diagnostic: str = ""

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "tolerances": self.tolerances,
            "records": [r.to_dict() for r in self.records],
            "verdict": self.verdict,
            "diagnostic": self.diagnostic,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @property
    def max_forward_discrepancy(self) -> float:
        """Largest forward gap over all records; NaN if any gap is NaN."""
        return float(np.max([r.forward_discrepancy for r in self.records]))


def compare_params_through_reparam(
    w: nets.ParamSet, w_t: nets.ParamSet, r: reparam.NetworkReparam
) -> float:
    """Max abs difference after mapping the transformed parameters back
    through r, the reparam that made the twin (reparam.untransform_params).

    Twin parameters that are non-finite, or so large that mapping them back
    overflows, cannot be compared and give NaN, which no tolerance accepts.
    """
    if not np.isfinite(w_t.flatten()).all():
        return float("nan")
    back = reparam.untransform_params(w_t, r).flatten()
    if not np.isfinite(back).all():
        return float("nan")
    return float(np.max(np.abs(w.flatten() - back)))


def _forward_gap(spec, p, spec_t, p_t, out_back, probes, probes_t) -> float:
    """Max abs gap over the probes between the outputs of the two twins,
    the twin's mapped back to the original output basis. NaN propagates."""
    o = nets.forward_batch(spec, p, probes).output
    o_t = nets.forward_batch(spec_t, p_t, probes_t).output
    return float(np.max(np.abs(out_back.apply_cols(o_t.T).T - o)))


def _init_scale(config: ExperimentConfig) -> float:
    return config.architecture.get("weight_scale", 1.0)


def _setup(config: ExperimentConfig):
    spec = build_network(config.architecture)
    model = build_output_model(config.output_model)
    wscale = _init_scale(config)
    params = nets.init_params(spec, seed=config.seed, weight_scale=wscale)
    ds_spec = config.dataset_spec
    data = synthetic_dataset(
        spec,
        model,
        ds_spec["num_samples"],
        seed=config.seed + 1,
        teacher_seed=ds_spec.get("teacher_seed"),
        input_scale=ds_spec.get("input_scale", 1.0),
        weight_scale=wscale,
    )
    probes = probe_inputs(
        spec, seed=config.seed + 3, scale=ds_spec.get("input_scale", 1.0)
    )
    return spec, model, params, data, probes


def _transformed_side(spec, model, params, data, config: ExperimentConfig):
    r = build_reparam(
        spec, config.reparam_source, identity_output=config.metric != "fisher"
    )
    spec_t, params_t = reparam.transform_network(spec, params, r)
    data_t = Dataset(
        [reparam.transform_input(spec, r, x) for x in data.inputs], data.targets
    )
    omap = reparam.output_space_map(spec, r)
    model_t = model if omap.is_identity() else metrics.WrappedOutputModel(
        model, omap.b, omap.c
    )
    return r, spec_t, params_t, data_t, model_t, omap.inverse()


_STEP_FNS = {"kfac": kfac.kfac_step, "ngd": kfac.ngd_step, "sgd": kfac.sgd_step}


def run_invariance(config: ExperimentConfig) -> InvarianceReport:
    """Run the configured update rule on a network and its transformed twin.

    Verdict is pass/fail only for undamped runs; damped runs always come back
    as "report" since the damped update is not expected to be invariant.
    A singular factor or Fisher ends the run with a "degenerate" verdict; a
    step that meets inf/NaN entries (a diverged run) ends it with "fail".
    """
    return _run_invariance(config, _setup(config))


def _run_invariance(config: ExperimentConfig, setup) -> InvarianceReport:
    """run_invariance on an already built _setup(config)."""
    spec, model, params, data, probes = setup
    r, spec_t, params_t, data_t, model_t, out_back = _transformed_side(
        spec, model, params, data, config
    )
    metric = metrics.METRICS[config.metric]
    step_fn = _STEP_FNS[config.optimizer]
    ucfg = UpdateConfig(config.learning_rate, config.damping, config.damping_mode)

    report = InvarianceReport(
        config=config.to_dict(),
        tolerances={"step0": STEP0_TOL, "post_update": POST_UPDATE_TOL},
    )

    probes_t = [reparam.transform_input(spec, r, x) for x in probes]

    def record(step, p, p_t):
        report.records.append(
            StepRecord(
                step,
                _forward_gap(spec, p, spec_t, p_t, out_back, probes, probes_t),
                kfac.objective(spec, p, model, data),
                kfac.objective(spec_t, p_t, model_t, data_t),
                compare_params_through_reparam(p, p_t, r),
            )
        )

    p, p_t = params, params_t
    record(0, p, p_t)
    try:
        for step in range(1, config.steps + 1):
            p = step_fn(spec, p, model, data, metric, ucfg)
            p_t = step_fn(spec_t, p_t, model_t, data_t, metric, ucfg)
            record(step, p, p_t)
    except (SingularFactor, SingularMatrix) as exc:
        report.verdict = "degenerate"
        report.diagnostic = str(exc)
        return report
    except NonFinite as exc:
        report.verdict = "fail"
        report.diagnostic = f"step {step} diverged: {exc}"
        return report

    if config.damping > 0:
        report.verdict = "report"
    else:
        ok = report.records[0].forward_discrepancy <= STEP0_TOL and all(
            rec.forward_discrepancy <= POST_UPDATE_TOL for rec in report.records[1:]
        )
        report.verdict = "pass" if ok else "fail"
    return report


def run_ngd_invariance(config: ExperimentConfig) -> InvarianceReport:
    """Exact-NGD variant with a Fisher nondegeneracy check up front."""
    setup = _setup(config)
    spec, model, params, data, _ = setup
    fisher = metrics.exact_fisher(spec, params, model, data.inputs).matrix
    emin = sym_eig_min(fisher)
    emax = float(np.max(np.abs(np.linalg.eigvalsh(fisher))))
    if emin <= FISHER_DEGENERACY_RTOL * emax:
        report = InvarianceReport(
            config=config.to_dict(),
            tolerances={"step0": STEP0_TOL, "post_update": POST_UPDATE_TOL},
        )
        report.verdict = "degenerate"
        report.diagnostic = (
            f"exact Fisher is singular: smallest eigenvalue {emin:.6e} "
            f"(largest {emax:.6e})"
        )
        return report
    cfg = ExperimentConfig(**{**config.to_dict(), "optimizer": "ngd"})
    return _run_invariance(cfg, setup)


# ---------------------------------------------------------------------------
# training


def run_training(config: ExperimentConfig):
    """Objective trajectory [(step, h(w))], step 0 included."""
    spec, model, params, data, _ = _setup(config)
    metric = metrics.METRICS[config.metric]
    step_fn = _STEP_FNS[config.optimizer]
    ucfg = UpdateConfig(config.learning_rate, config.damping, config.damping_mode)
    rows = []
    p = params
    rows.append((0, kfac.objective(spec, p, model, data)))
    for step in range(1, config.steps + 1):
        p = step_fn(spec, p, model, data, metric, ucfg)
        rows.append((step, kfac.objective(spec, p, model, data)))
    return rows


def training_csv(rows) -> str:
    lines = ["step,objective"]
    for step, h in rows:
        lines.append(f"{step},{h!r}")
    return "\n".join(lines) + "\n"


def dump_factors(config: ExperimentConfig) -> str:
    """Kronecker factors at the initial parameters, as JSON."""
    spec, model, params, data, _ = _setup(config)
    metric = metrics.METRICS[config.metric]
    return kfac.factors_to_json(kfac.estimate_factors(spec, params, model, data, metric))
