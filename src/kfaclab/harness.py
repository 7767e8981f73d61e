"""Experiment runner behind the CLI.

Builds a network and its affine-transformed twin, runs the same update rule
on both sides, and reports per-step discrepancies. All expectations in the
updates are closed-form means over the dataset, so the two runs share no
randomness; identical configs produce byte-identical reports.
"""

import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import kfac, metrics, nets, reparam
from .errors import (NonFinite, SingularMatrix, check_int, check_keys, check_list, check_name,
                     check_real)
from .kfac import UpdateConfig
from .linalg import inv, sym_eig_min

STEP0_TOL = 1e-10  # pure reparam correctness, no solves involved
POST_UPDATE_TOL = 1e-8  # headroom over inverse-factor solve error
NUM_PROBES = 32
FISHER_DEGENERACY_RTOL = 1e-12


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
    try:
        return scale * rng.standard_normal((count,) + spec.layers[0].in_shape)
    except ValueError as exc:  # numpy refuses a size it cannot address
        raise MemoryError(str(exc)) from exc


def probe_inputs(spec: nets.NetworkSpec, seed: int, count: int = NUM_PROBES, scale: float = 1.0):
    return _draw_inputs(spec, np.random.default_rng(seed), count, scale)


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
    one is passed in. All inputs come from one draw, the teacher's outputs
    from one batched forward pass and the targets from one model.sample
    call, after the inputs. Deterministic per (seed, teacher_seed).
    Raises NonFinite when a teacher output overflows.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    if teacher is None:
        teacher = nets.init_params(
            spec, seed=seed + 1 if teacher_seed is None else teacher_seed,
            weight_scale=weight_scale,
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
        # The network, output model, update config and reparam are built
        # here, once, so a config that names an unknown kind or does not chain
        # is rejected as a config error rather than mid-run, and every run
        # uses what was checked. They are attributes, not fields, so to_dict
        # and the reports do not carry them.
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
        # a metric other than the Fisher needs the output basis left alone
        self.reparam = _build_reparam(spec, self.reparam_source, self.metric != "fisher")

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
    """The reparam that source names, checked against the network;
    identity_output pins a random reparam's output map to the identity."""
    if source is None:
        source = {"kind": "identity"}
    if not isinstance(source, dict):
        raise ValueError("reparam_source must be a JSON object or null")
    kind = source.get("kind", "random")
    if kind == "identity":
        check_keys("reparam_source", source, ("kind",))
        return reparam.identity_reparam(spec)
    if kind == "random":
        check_keys("reparam_source", source, ("kind", "seed", "conditioning_cap"))
        seed = source.get("seed", 0)
        cap = source.get("conditioning_cap", 100.0)
        check_int("reparam_source.seed", seed, 0)
        check_real("reparam_source.conditioning_cap", cap, 1.0)
        return reparam.random_reparam(
            spec, rng_seed=seed, conditioning_cap=cap, identity_output=identity_output
        )
    if kind == "preset":
        check_keys("reparam_source", source, ("kind", "name"))
        name = source.get("name")
        check_name("reparam preset", name, reparam.PRESETS)
        return reparam.PRESETS[name](spec)
    if kind == "file":
        check_keys("reparam_source", source, ("kind", "path"))
        path = source.get("path")
        if not isinstance(path, str):
            raise ValueError(f"reparam_source.path must be a file path, got {path!r}")
        with open(path) as fh:
            r = reparam.reparam_from_dict(json.load(fh))
        reparam.check_dims(spec, r)
        for i, m in enumerate(r.activation_maps):
            _check_file_map(f"activation map {i}", m.b, m.c)
        for i, m in enumerate(r.preactivation_maps):
            _check_file_map(f"preactivation map {i}", m.homogeneous(), m.c)
        return r
    raise ValueError(f"unknown reparam source {kind!r}")


def _check_file_map(what: str, matrix, offset) -> None:
    """A map read from a file must be finite, and the matrix a run solves
    with must pass linalg.solve's pivot rule: B for an activation map, the
    homogeneous [[B, c], [0, 1]] for a pre-activation map."""
    try:
        if not np.isfinite(offset).all():
            raise NonFinite("offset has non-finite entries")
        inv(matrix)
    except (NonFinite, SingularMatrix) as exc:
        raise ValueError(f"reparam file {what}: {exc}") from exc


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

    @property
    def max_forward_discrepancy(self) -> float:
        """Largest forward gap over all records; NaN if any gap is NaN."""
        return float(np.max([r.forward_discrepancy for r in self.records]))


def compare_params_through_reparam(
    w: nets.ParamSet, w_t: nets.ParamSet, back: reparam.Untransform
) -> float:
    """Max abs difference after mapping the transformed parameters back
    through back, the inverse of the reparam that made the twin.

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
    params = nets.init_params(spec, seed=config.seed, weight_scale=config.weight_scale)
    data = synthetic_dataset(
        spec,
        model,
        config.num_samples,
        seed=config.seed + 1,
        teacher_seed=config.teacher_seed,
        input_scale=config.input_scale,
        weight_scale=config.weight_scale,
    )
    probes = probe_inputs(spec, seed=config.seed + 3, scale=config.input_scale)
    return spec, model, params, data, probes


def _transformed_side(spec, model, params, data, config: ExperimentConfig):
    r = config.reparam
    spec_t, params_t = reparam.transform_network(spec, params, r)
    data_t = Dataset(reparam.transform_input(spec, r, data.inputs), data.targets)
    omap = reparam.output_space_map(spec, r)
    model_t = model if omap.is_identity() else metrics.WrappedOutputModel(model, omap)
    out_back = omap.inverse() if model_t is model else model_t.out_back
    return r, spec_t, params_t, data_t, model_t, out_back


_STEP_FNS = {"kfac": kfac.kfac_step, "ngd": kfac.ngd_step, "sgd": kfac.sgd_step}


def _trajectory(config: ExperimentConfig, spec, params, model, data, probes=None):
    """The forward pass at params, then again after each of the configured
    steps, each over data's inputs stacked with the probes when given. Each
    pass yields (the trace of the data rows, the outputs of the probe rows);
    the step and the objective read the data rows, the forward gap the
    probe rows, and each step reads the pass before it."""
    metric = metrics.METRICS[config.metric]
    xs = data.inputs if probes is None else np.concatenate([data.inputs, probes])
    n = len(data)
    for step in range(config.steps + 1):
        if step:
            params = _STEP_FNS[config.optimizer](trace, model, data, metric, config.update)
        full = nets.forward_batch(spec, params, xs)
        trace = full.head(n)
        yield trace, full.output[n:]


def run_invariance(config: ExperimentConfig) -> InvarianceReport:
    """Run the configured update rule on a network and its transformed twin.

    Verdict is pass/fail only for undamped runs; damped runs always come back
    as "report" since the damped update is not expected to be invariant.
    A singular factor or Fisher ends the run with a "degenerate" verdict; an
    exact-NGD run checks its Fisher at the initial parameters first. A step
    that meets inf/NaN entries (a diverged run), or an exact-NGD Fisher that
    already overflows at the initial parameters, ends the run with "fail".
    """
    spec, model, params, data, probes = _setup(config)
    report = InvarianceReport(
        config=config.to_dict(),
        tolerances={"step0": STEP0_TOL, "post_update": POST_UPDATE_TOL},
    )
    ref = _trajectory(config, spec, params, model, data, probes)
    first = next(ref)
    if config.optimizer == "ngd":
        # the check reads the Fisher the first step will use
        try:
            report.diagnostic = _fisher_degeneracy(kfac.ngd_curvature(first[0], model)[1])
        except NonFinite as exc:  # a Fisher that overflows at the initial parameters
            return _diverged(report, f"exact Fisher: {exc}")
        if report.diagnostic:
            report.verdict = "degenerate"
            return report
    r, spec_t, params_t, data_t, model_t, out_back = _transformed_side(
        spec, model, params, data, config
    )
    probes_t = reparam.transform_input(spec, r, probes)
    back = reparam.Untransform(r, params)
    # chain keeps its arguments for the whole run: an iterator over the
    # first pass drops the pass once it is read, a list would keep it
    twins = zip(itertools.chain(iter([first]), ref),
                _trajectory(config, spec_t, params_t, model_t, data_t, probes_t))
    del first
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


def _fisher_degeneracy(fisher) -> str:
    """Why the exact Fisher is singular, or "" if it is not."""
    emin = sym_eig_min(fisher)
    emax = float(np.max(np.abs(np.linalg.eigvalsh(fisher))))
    if emin > FISHER_DEGENERACY_RTOL * emax:
        return ""
    return f"exact Fisher is singular: smallest eigenvalue {emin:.6e} (largest {emax:.6e})"


# ---------------------------------------------------------------------------
# training


def run_training(config: ExperimentConfig):
    """Objective trajectory [(step, h(w))], step 0 included."""
    spec, model, params, data, _ = _setup(config)
    return [
        (step, kfac.objective(trace, model, data))
        for step, (trace, _) in enumerate(_trajectory(config, spec, params, model, data))
    ]


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
