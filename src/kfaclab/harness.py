"""Experiment runner behind the CLI.

Builds a network and its affine-transformed twin, runs the same update rule
on both sides, and reports per-step discrepancies. All expectations in the
updates are closed-form means over the dataset, so the two runs share no
randomness; identical configs produce byte-identical reports.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kfac, metrics, nets, reparam
from .errors import (NonFinite, SingularMatrix, check_int, check_keys, check_list, check_name,
                     check_real)
from .kfac import UpdateConfig
from .linalg import sym_eig_min  # noqa: F401 (see README, names kept)

STEP0_TOL = 1e-10  # pure reparam correctness, no solves involved
POST_UPDATE_TOL = 1e-8  # headroom over inverse-factor solve error
NUM_PROBES = 32


@dataclass
class Dataset:
    """N samples as two stacked arrays: inputs, float64 (N, *in_shape), and
    targets, (N,) class indices or (N, dim) vectors. Lists are stacked."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.targets = np.asarray(self.targets)
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets differ in length")

    def __len__(self) -> int:
        return len(self.inputs)


def _draw_inputs(spec: nets.NetworkSpec, rng, count: int, scale: float) -> np.ndarray:
    """count i.i.d. normal inputs in one draw, the same numbers as count
    draws of one input each."""
    return scale * rng.standard_normal((count,) + spec.layers[0].in_shape)


def probe_inputs(spec: nets.NetworkSpec, seed: int, scale: float = 1.0):
    return _draw_inputs(spec, np.random.default_rng(seed), NUM_PROBES, scale)


def synthetic_dataset(
    spec: nets.NetworkSpec,
    model,
    num_samples: int,
    seed: int,
    teacher_seed: int = None,
    input_scale: float = 1.0,
    weight_scale: float = 1.0,
) -> Dataset:
    """Inputs i.i.d. normal, targets sampled from a teacher's predictive.

    The teacher is a fresh random instance of the same architecture. All
    inputs come from one draw, the teacher's outputs from one batched
    forward pass and the targets from one model.sample call, after the
    inputs. Deterministic per (seed, teacher_seed).
    Raises NonFinite when a teacher output overflows.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    teacher = nets.init_params(
        spec, seed=seed + 1 if teacher_seed is None else teacher_seed, weight_scale=weight_scale
    )
    rng = np.random.default_rng(seed)
    inputs = _draw_inputs(spec, rng, num_samples, input_scale)
    outputs = nets.forward_batch(spec, teacher, inputs).output
    if not np.isfinite(outputs).all():
        raise NonFinite("teacher outputs are not finite")
    return Dataset(inputs, model.sample(outputs, rng))


# ---------------------------------------------------------------------------
# configuration

_JSON_SCALARS = (float, int, str, bool, type(None))


def _plain(x):
    """dataclasses.asdict without its deep copy: dataclass instances become
    dicts of their fields, and dicts, lists and tuples are copied level by
    level, so editing the result leaves x alone. Other values, the numbers
    and strings of a config or report, are shared, not copied."""
    if type(x) in _JSON_SCALARS:  # most values; checked first for speed
        return x
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_plain(v) for v in x]
    if isinstance(x, tuple):
        return tuple(_plain(v) for v in x)
    if hasattr(type(x), "__dataclass_fields__"):
        return {name: _plain(getattr(x, name)) for name in x.__dataclass_fields__}
    return x


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
        # The network, output model, update config, reparam and its inverse
        # are built here, once, so a config that names an unknown kind, does
        # not chain or holds a map that cannot be inverted is rejected as a
        # config error rather than mid-run, and every run uses what was
        # checked. They are attributes, not fields, so to_dict and the
        # reports do not carry them.
        self.spec = spec = build_network(self.architecture)
        self.model = model = build_output_model(self.output_model)
        if model.dim != spec.output_dim:
            raise ValueError(
                f"output model dimension {model.dim} != network output {spec.output_dim}"
            )
        self.weight_scale = self.architecture.get("weight_scale", 1.0)
        check_real("architecture.weight_scale", self.weight_scale)
        check_int("steps", self.steps, 0)
        check_int("seed", self.seed, 0)
        ds = self.dataset_spec
        check_keys("dataset_spec", ds, ("num_samples", "teacher_seed", "input_scale"))
        self.num_samples = ds.get("num_samples")
        check_int("dataset_spec.num_samples", self.num_samples, 1)
        self.teacher_seed = ds.get("teacher_seed")
        if self.teacher_seed is not None:
            check_int("dataset_spec.teacher_seed", self.teacher_seed, 0)
        self.input_scale = ds.get("input_scale", 1.0)
        check_real("dataset_spec.input_scale", self.input_scale)
        check_name("optimizer", self.optimizer, _STEP_FNS)
        check_name("metric", self.metric, metrics.METRICS)
        # checks learning_rate, damping and their consistency with damping_mode
        self.update = UpdateConfig(self.learning_rate, self.damping, self.damping_mode)
        # settings the optimizer would ignore (sgd never damps; ngd damps
        # its exact Fisher only as F + damping I; neither reads the metric)
        if self.optimizer == "sgd" and self.damping > 0:
            raise ValueError("optimizer sgd takes no damping: damping must be 0")
        if self.optimizer == "ngd" and self.damping_mode == "factored":
            raise ValueError("optimizer ngd damps only as F + damping I: damping_mode "
                             "must be none or dense_tikhonov")
        if self.optimizer != "kfac" and self.metric != "fisher":
            raise ValueError(f"optimizer {self.optimizer} reads no metric: metric must be fisher")
        if self.optimizer == "ngd":  # its exact Fisher is dense, a column per parameter
            size = sum(math.prod(s) for shapes in nets.param_shapes(spec) for s in shapes if s)
            if size > metrics.PARAM_CAP:
                raise ValueError(f"optimizer ngd: {size} parameters exceeds the dense cap "
                                 f"{metrics.PARAM_CAP}")
        # a metric that is not the model's Fisher does not move with the
        # output basis, so it needs that basis left alone
        pin = not isinstance(metrics.METRICS[self.metric], metrics.FisherMetric)
        self.reparam, self.reparam_inverse = _build_reparam(spec, self.reparam_source, pin)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        check_keys("config", d, cls.__dataclass_fields__,
                   ("architecture", "output_model", "dataset_spec"))
        return cls(**d)

    def to_dict(self) -> dict:
        return _plain(self)


# the keys each shorthand requires, and those it may read, besides type,
# activation, final_activation and weight_scale
_SHORTHAND_KEYS = {
    "mlp": (("dims",), ()),
    "conv": (("channels", "grid"), ("kernel_radius", "head_dim")),
    "rnn": (("input_dim", "hidden_dim", "steps"), ("head_dim",)),
}


def build_network(arch: dict) -> nets.NetworkSpec:
    """The network an architecture names: an explicit layer list, or a
    shorthand's layer stack, then its optional dense head, with
    final_activation (when given) on whichever layer comes last."""
    kind = arch.get("type")
    act = nets.activation_by_name(arch.get("activation", "logistic"))
    check_name("architecture type", kind, ("layers",) + tuple(_SHORTHAND_KEYS))
    if kind == "layers":
        check_keys("architecture", arch, ("type", "layers", "weight_scale"))
        return nets.spec_from_dict(arch)
    required, optional = _SHORTHAND_KEYS[kind]
    check_keys("architecture", arch, required + optional
               + ("type", "activation", "final_activation", "weight_scale"), required)
    if kind == "mlp":
        dims = arch["dims"]
        check_list("architecture.dims", dims)
        layers = [nets.DenseLayer(i, o, act) for i, o in zip(dims, dims[1:])]
    elif kind == "conv":
        grid, radius = arch["grid"], arch.get("kernel_radius", 1)
        channels = arch["channels"]  # in-channel count first
        check_list("architecture.channels", channels)
        layers = [nets.ConvLayer(i, o, radius, grid, act) for i, o in zip(channels, channels[1:])]
    else:
        layers = [nets.RecurrentLayer(arch["input_dim"], arch["hidden_dim"], arch["steps"], act)]
    if not layers:
        raise ValueError("network needs at least one layer")
    if arch.get("head_dim") is not None:
        layers.append(nets.DenseLayer(layers[-1].output_dim, arch["head_dim"], act))
    if arch.get("final_activation") is not None:
        final = nets.activation_by_name(arch["final_activation"])
        layers[-1] = replace(layers[-1], activation=final)
    return nets.NetworkSpec(layers)


def build_output_model(d: dict):
    kind = d.get("kind")
    if kind == "categorical":
        check_keys("output_model", d, ("kind", "classes"), ("classes",))
        return metrics.CategoricalLogits(d["classes"])
    if kind == "gaussian":
        check_keys("output_model", d, ("kind", "dim", "variance"), ("dim",))
        return metrics.GaussianFixedVar(d["dim"], d.get("variance", 1.0))
    raise ValueError(f"unknown output model {kind!r}")


def _build_reparam(spec: nets.NetworkSpec, source, identity_output: bool):
    """The reparam that source names, checked against the network, and its
    inverse, solved here once; identity_output pins a random reparam's
    output map to the identity. A map that is not finite or that
    linalg.solve finds singular is refused by name, whatever the source."""
    if source is None:
        source = {"kind": "identity"}
    if not isinstance(source, dict):
        raise ValueError("reparam_source must be a JSON object or null")
    kind = source.get("kind", "random")
    if kind == "identity":
        check_keys("reparam_source", source, ("kind",))
        r = reparam.identity_reparam(spec)
    elif kind == "random":
        check_keys("reparam_source", source, ("kind", "seed", "conditioning_cap"))
        seed = source.get("seed", 0)
        cap = source.get("conditioning_cap", 100.0)
        check_int("reparam_source.seed", seed, 0)
        check_real("reparam_source.conditioning_cap", cap, 1.0)
        r = reparam.random_reparam(
            spec, rng_seed=seed, conditioning_cap=cap, identity_output=identity_output
        )
    elif kind == "preset":
        check_keys("reparam_source", source, ("kind", "name"))
        name = source.get("name")
        check_name("reparam preset", name, reparam.PRESETS)
        r = reparam.PRESETS[name](spec)
    elif kind == "file":
        check_keys("reparam_source", source, ("kind", "path"))
        path = source.get("path")
        if not isinstance(path, str):
            raise ValueError(f"reparam_source.path must be a file path, got {path!r}")
        with open(path) as fh:
            r = reparam.reparam_from_dict(json.load(fh))
        reparam.check_dims(spec, r)
    else:
        raise ValueError(f"unknown reparam source {kind!r}")
    what = "reparam file" if kind == "file" else "reparam_source"
    try:
        return r, r.inverse()
    except (NonFinite, SingularMatrix) as exc:
        raise ValueError(f"{what} {exc}") from exc


# ---------------------------------------------------------------------------
# invariance protocol


@dataclass
class StepRecord:
    step: int
    forward_discrepancy: float
    objective: float
    objective_transformed: float
    param_discrepancy: float


@dataclass
class InvarianceReport:
    config: dict
    tolerances: dict
    records: list = field(default_factory=list)
    verdict: str = "report"
    diagnostic: str = ""

    def to_dict(self) -> dict:
        return _plain(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def compare_params_through_reparam(
    w: nets.ParamSet, w_t: nets.ParamSet, back: reparam.ParamMap
) -> float:
    """Max abs difference after mapping the transformed parameters back
    through back, the ParamMap of the reparam that made the twin.

    Twin parameters that are non-finite, or so large that mapping them back
    overflows, cannot be compared and give NaN, which no tolerance accepts.
    """
    if not np.isfinite(w_t.flatten()).all():
        return float("nan")
    restored = back.apply(w_t).flatten()
    if not np.isfinite(restored).all():
        return float("nan")
    return float(np.max(np.abs(w.flatten() - restored)))


def _forward_gap(o, o_t, out_back) -> float:
    """Max abs gap between the two twins' outputs o and o_t over the probes,
    the twin's mapped back to the original output basis. NaN propagates."""
    return float(np.max(np.abs(out_back.apply_cols(o_t.T).T - o)))


def _setup(config: ExperimentConfig):
    spec, model = config.spec, config.model
    try:  # every array sized from the config
        params = nets.init_params(spec, seed=config.seed, weight_scale=config.weight_scale)
        data = synthetic_dataset(spec, model, config.num_samples, seed=config.seed + 1,
                                 teacher_seed=config.teacher_seed,
                                 input_scale=config.input_scale,
                                 weight_scale=config.weight_scale)
        probes = probe_inputs(spec, seed=config.seed + 3, scale=config.input_scale)
    except NonFinite:  # a teacher whose outputs overflow, a ValueError too
        raise
    except ValueError as exc:  # numpy refuses a size it cannot address
        raise MemoryError(str(exc)) from exc
    return spec, model, params, data, probes


def _transformed_side(spec, model, params, data, config: ExperimentConfig):
    """The twin, built from the reparam and its inverse that the config
    holds, so it makes no solve with a reparam map; and the back-map of its
    outputs, the inverted output map, which its output model reads too."""
    r, r_inv = config.reparam, config.reparam_inverse
    spec_t, params_t = reparam.transform_network(spec, params, r, r_inv)
    omap, out_back = reparam.output_space_map(spec, r), reparam.output_space_map(spec, r_inv)
    model_t = model if omap.is_identity() else metrics.WrappedOutputModel(model, omap, out_back)
    data_t = Dataset(reparam.transform_input(spec, r, data.inputs), data.targets)
    return r, spec_t, params_t, data_t, model_t, out_back


_STEP_FNS = {"kfac": kfac.kfac_step, "ngd": kfac.ngd_step, "sgd": kfac.sgd_step}


def _trajectory(config: ExperimentConfig, spec, params, model, data, probes):
    """The forward pass at params, then again after each of the configured
    steps, each over data's inputs stacked with the probes. Each pass yields
    (the trace of the data columns, copied out of the pass, and the outputs
    of the probe rows); the step and the objective read the data columns,
    the forward gap the probe rows, and each step reads the pass before it.
    A GEMM's bits depend on how many columns share it, so train and
    dump-factors read these passes too, to print check-invariance's
    numbers. This is the only place a step is taken: one root pass gives dz
    and the gradient, the rule turns them into a direction, and the step is
    w - learning_rate * direction."""
    metric = metrics.METRICS[config.metric]
    xs = np.concatenate([data.inputs, probes])
    n = len(data)
    for step in range(config.steps + 1):
        if step:
            dz, grad = kfac.root_backward(trace, model, data, metric)
            delta = _STEP_FNS[config.optimizer](trace, dz, grad, config.update)
            params = trace.params.add_scaled(delta, -config.update.learning_rate)
            del dz, grad, delta  # freed before the next forward pass, not after it
        full = nets.forward_batch(spec, params, xs)
        trace, probe_out = full.head(n), full.output[n:]
        del full  # only the data columns' copy outlives the pass
        yield trace, probe_out


def run_invariance(config: ExperimentConfig) -> InvarianceReport:
    """Run the configured update rule on a network and its transformed twin.

    Verdict is pass/fail only for undamped runs; damped runs that do not
    diverge come back as "report" since the damped update is not expected to
    be invariant.
    A step that cannot be solved ends the run right after the record of the
    pass that step read, whatever the optimizer: a singular factor or Fisher
    with a "degenerate" verdict, inf/NaN entries (a diverged run) with
    "fail".
    """
    spec, model, params, data, probes = _setup(config)
    report = InvarianceReport(
        config=config.to_dict(),
        tolerances={"step0": STEP0_TOL, "post_update": POST_UPDATE_TOL},
    )
    r, spec_t, params_t, data_t, model_t, out_back = _transformed_side(
        spec, model, params, data, config
    )
    probes_t = reparam.transform_input(spec, r, probes)
    back = reparam.ParamMap(r, params)
    twins = zip(_trajectory(config, spec, params, model, data, probes),
                _trajectory(config, spec_t, params_t, model_t, data_t, probes_t))
    try:
        # each record is appended before the next step is taken
        for (tr, o), (tr_t, o_t) in twins:
            report.records.append(
                StepRecord(
                    len(report.records),
                    _forward_gap(o, o_t, out_back),
                    kfac.objective(tr, model, data),
                    kfac.objective(tr_t, model_t, data_t),
                    compare_params_through_reparam(tr.params, tr_t.params, back),
                )
            )
            del tr, tr_t, o, o_t  # free these traces before the next steps run
    except SingularMatrix as exc:
        report.verdict = "degenerate"
        report.diagnostic = str(exc)
        return report
    except NonFinite as exc:
        return _diverged(report, exc)

    if config.damping > 0:
        report.verdict = "report"
    else:
        ok = report.records[0].forward_discrepancy <= STEP0_TOL and all(
            rec.forward_discrepancy <= POST_UPDATE_TOL for rec in report.records[1:]
        )
        report.verdict = "pass" if ok else "fail"
    return report


def _diverged(report: InvarianceReport, why) -> InvarianceReport:
    """report, ended with a fail at the step it has reached: a diverged run."""
    report.verdict = "fail"
    report.diagnostic = f"step {len(report.records)} diverged: {why}"
    return report


def run_ngd_invariance(config: ExperimentConfig) -> InvarianceReport:
    """run_invariance under its former exact-NGD name."""
    return run_invariance(config)


# ---------------------------------------------------------------------------
# training


def run_training(config: ExperimentConfig):
    """Objective trajectory [(step, h(w))], step 0 included."""
    spec, model, params, data, probes = _setup(config)
    return [
        (step, kfac.objective(trace, model, data))
        for step, (trace, _) in enumerate(_trajectory(config, spec, params, model, data, probes))
    ]


def training_csv(rows) -> str:
    lines = ["step,objective"]
    for step, h in rows:
        lines.append(f"{step},{h!r}")
    return "\n".join(lines) + "\n"


def dump_factors(config: ExperimentConfig) -> str:
    """Kronecker factors at the initial parameters, as JSON: those of the
    first pass of the run loop, which a kfac run's first step reads."""
    spec, model, params, data, probes = _setup(config)
    trace, _ = next(_trajectory(config, spec, params, model, data, probes))
    metric = metrics.METRICS[config.metric]
    factors = kfac.estimate_factors(trace, kfac.root_backward(trace, model, data, metric)[0])
    return kfac.factors_to_json(factors)
