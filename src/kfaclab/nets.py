"""Small feedforward, convolutional, and recurrent networks in coordinates.

Layers compute z = Wbar @ abar where abar is the input activation with a
trailing homogeneous 1, so weights and biases travel together. Convolution
layers are expressed the same way after expanding the input grid into
patches (stride 1, zero padding equal to the kernel radius, so the spatial
grid is preserved). The recurrent cell is

    z_t = W a_{t-1} + b,   z'_t = z_t + V x_t,   a_t = phi(z'_t)

with a fixed initial state (zeros unless the layer says otherwise).

Every layer kind is the same homogenized map Wbar @ Abar applied at T
locations: T is 1 for dense layers, the grid size for conv layers (Abar
holds im2col patch columns) and the step count for recurrent layers.

The batched engine (forward_batch, backward_batch) runs all N samples at
once: Abar is an (N, n+1, T) tensor per layer, and backward takes an
(N, K, output_dim) stack of cotangents, all K output coordinates in one
pass. Training, factor estimation and the invariance harness use it.

The per-sample path (forward, backward, jvp) evaluates one input and keeps
a full trace. It is the reference oracle: the dense and Monte-Carlo Fisher
and the tests are built on it. Activations act along the second-to-last
axis (columns for vector layers, grids for conv layers), so both paths and
all layer kinds share them.
"""

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.special
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatch
from .linalg import unvec, vec


# ---------------------------------------------------------------------------
# activations


class Activation:
    """Smooth map applied to pre-activations, with jvp/vjp at a point."""

    def value(self, z):
        raise NotImplementedError

    def jvp(self, z, dz):
        raise NotImplementedError

    def vjp(self, z, da):
        raise NotImplementedError


class _Elementwise(Activation):
    def _f(self, z):
        raise NotImplementedError

    def _df(self, z):
        raise NotImplementedError

    def value(self, z):
        return self._f(z)

    def jvp(self, z, dz):
        return self._df(z) * dz

    def vjp(self, z, da):
        # elementwise maps have symmetric Jacobian
        return self._df(z) * da


class Identity(_Elementwise):
    name = "identity"

    def _f(self, z):
        return np.array(z, copy=True)

    def _df(self, z):
        return np.ones_like(z)


class Logistic(_Elementwise):
    name = "logistic"

    def _f(self, z):
        return scipy.special.expit(z)

    def _df(self, z):
        s = scipy.special.expit(z)
        return s * (1.0 - s)


class Tanh(_Elementwise):
    name = "tanh"

    def _f(self, z):
        return np.tanh(z)

    def _df(self, z):
        t = np.tanh(z)
        return 1.0 - t * t


class Softplus(_Elementwise):
    """Smooth stand-in where one would otherwise reach for ReLU."""

    name = "softplus"

    def _f(self, z):
        return np.logaddexp(0.0, z)

    def _df(self, z):
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class AffineWrapped(Activation):
    """phi'(z) = omega @ base(phi @ z + tau) + gamma, columnwise (the maps act
    along the second-to-last axis, so leading batch axes pass through).

    omega and phi must be invertible; this is how a change of basis of the
    activation and pre-activation spaces shows up inside the nonlinearity.
    """

    base: Activation
    omega: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray
    tau: np.ndarray

    name = "affine_wrapped"

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=np.float64)
        self.gamma = np.asarray(self.gamma, dtype=np.float64)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.tau = np.asarray(self.tau, dtype=np.float64)

    def _inner(self, z):
        return self.phi @ z + self.tau[:, None]

    def value(self, z):
        return self.omega @ self.base.value(self._inner(z)) + self.gamma[:, None]

    def jvp(self, z, dz):
        return self.omega @ self.base.jvp(self._inner(z), self.phi @ dz)

    def vjp(self, z, da):
        return self.phi.T @ self.base.vjp(self._inner(z), self.omega.T @ da)


_BY_NAME = {
    "identity": Identity(),
    "logistic": Logistic(),
    "tanh": Tanh(),
    "softplus": Softplus(),
}


def activation_by_name(name: str) -> Activation:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def activation_name(act: Activation) -> str:
    if isinstance(act, AffineWrapped):
        raise ValueError("wrapped activations have no serialized form")
    return act.name


# ---------------------------------------------------------------------------
# layer and network specs


@dataclass
class DenseLayer:
    in_dim: int
    out_dim: int
    activation: Activation

    kind = "dense"


@dataclass
class ConvLayer:
    """2-d convolution, stride 1, padding width = kernel_radius.

    Input and output live on the same grid; grid = (height, width) and
    locations are indexed row-major. num_offsets is (2R+1)^2.

    padding_value is the channel vector patches see beyond the border
    (zeros by default). It is a point of the input activation space, so a
    change of basis of that space must remap it; that is the only reason it
    is stored explicitly.
    """

    in_channels: int
    out_channels: int
    kernel_radius: int
    grid: tuple
    activation: Activation
    padding_value: np.ndarray = None

    kind = "conv2d"

    def __post_init__(self):
        if self.padding_value is None:
            self.padding_value = np.zeros(self.in_channels)
        else:
            self.padding_value = np.asarray(self.padding_value, dtype=np.float64)
            if self.padding_value.shape != (self.in_channels,):
                raise ShapeMismatch("padding_value length != in_channels")

    @property
    def num_locations(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def num_offsets(self) -> int:
        k = 2 * self.kernel_radius + 1
        return k * k


@dataclass
class RecurrentLayer:
    """Recurrent cell run for a fixed number of steps; output is a_T.

    initial_state defaults to zeros. It is part of the architecture (not a
    trained parameter) but a change of basis of the hidden space must remap
    it, so it lives here explicitly.
    """

    input_dim: int
    hidden_dim: int
    steps: int
    activation: Activation
    initial_state: np.ndarray = None

    kind = "recurrent"

    def __post_init__(self):
        if self.steps < 1:
            raise ShapeMismatch("recurrent layer needs steps >= 1")
        if self.initial_state is None:
            self.initial_state = np.zeros(self.hidden_dim)
        else:
            self.initial_state = np.asarray(self.initial_state, dtype=np.float64)
            if self.initial_state.shape != (self.hidden_dim,):
                raise ShapeMismatch("initial_state length != hidden_dim")


@dataclass
class NetworkSpec:
    layers: list

    def __post_init__(self):
        if not self.layers:
            raise ShapeMismatch("network needs at least one layer")
        for i, layer in enumerate(self.layers):
            if layer.kind == "recurrent" and i != 0:
                raise ShapeMismatch("recurrent layer must come first")
            if layer.kind == "conv2d" and i > 0 and self.layers[i - 1].kind != "conv2d":
                raise ShapeMismatch("conv layer must follow the input or another conv")
            if i == 0:
                continue
            prev = self.layers[i - 1]
            got = layer.in_channels if layer.kind == "conv2d" else layer.in_dim
            want = _emitted_dim(prev) if layer.kind == "dense" else prev.out_channels
            if layer.kind == "conv2d" and prev.grid != layer.grid:
                raise ShapeMismatch("consecutive conv layers must share the grid")
            if got != want:
                raise ShapeMismatch(
                    f"layer {i} declares input {got} but layer {i - 1} emits {want}"
                )

    @property
    def output_dim(self) -> int:
        return _emitted_dim(self.layers[-1])


def _emitted_dim(layer) -> int:
    """Dimension the layer hands to a following dense layer (grids flatten)."""
    if layer.kind == "dense":
        return layer.out_dim
    if layer.kind == "conv2d":
        return layer.out_channels * layer.num_locations
    return layer.hidden_dim


# ---------------------------------------------------------------------------
# parameters


@dataclass
class LayerParams:
    """Homogenized weights [W b]; recurrent layers add the input map V."""

    wbar: np.ndarray
    v: np.ndarray = None

    def copy(self):
        return LayerParams(self.wbar.copy(), None if self.v is None else self.v.copy())


@dataclass
class ParamSet:
    layers: list

    def copy(self) -> "ParamSet":
        return ParamSet([lp.copy() for lp in self.layers])

    def flatten(self) -> np.ndarray:
        """Column-stack each layer's wbar, then its v when present."""
        parts = []
        for lp in self.layers:
            parts.append(vec(lp.wbar))
            if lp.v is not None:
                parts.append(vec(lp.v))
        return np.concatenate(parts)

    @property
    def num_params(self) -> int:
        return sum(
            lp.wbar.size + (0 if lp.v is None else lp.v.size) for lp in self.layers
        )

    def add_scaled(self, other: "ParamSet", alpha: float) -> "ParamSet":
        """self + alpha * other, entrywise. None entries in other are kept."""
        out = []
        for lp, op in zip(self.layers, other.layers):
            wbar = lp.wbar + alpha * op.wbar
            v = lp.v
            if lp.v is not None and op.v is not None:
                v = lp.v + alpha * op.v
            out.append(LayerParams(wbar, v))
        return ParamSet(out)


def param_shapes(spec: NetworkSpec) -> list:
    """Per-layer (wbar_shape, v_shape_or_None)."""
    shapes = []
    for layer in spec.layers:
        if layer.kind == "dense":
            shapes.append(((layer.out_dim, layer.in_dim + 1), None))
        elif layer.kind == "conv2d":
            cols = layer.in_channels * layer.num_offsets + 1
            shapes.append(((layer.out_channels, cols), None))
        else:
            shapes.append(
                (
                    (layer.hidden_dim, layer.hidden_dim + 1),
                    (layer.hidden_dim, layer.input_dim),
                )
            )
    return shapes


def unflatten_params(spec: NetworkSpec, w: np.ndarray) -> ParamSet:
    w = np.asarray(w, dtype=np.float64)
    layers = []
    pos = 0
    for wshape, vshape in param_shapes(spec):
        n = wshape[0] * wshape[1]
        wbar = unvec(w[pos : pos + n], *wshape)
        pos += n
        v = None
        if vshape is not None:
            n = vshape[0] * vshape[1]
            v = unvec(w[pos : pos + n], *vshape)
            pos += n
        layers.append(LayerParams(wbar, v))
    if pos != w.size:
        raise ShapeMismatch(f"flat vector has {w.size} entries, spec wants {pos}")
    return ParamSet(layers)


def init_params(spec: NetworkSpec, seed: int, weight_scale: float = 1.0) -> ParamSet:
    """Gaussian init, weights scaled by 1/sqrt(fan_in), small biases."""
    rng = np.random.default_rng(seed)
    layers = []
    for layer, (wshape, vshape) in zip(spec.layers, param_shapes(spec)):
        fan_in = wshape[1] - 1
        wbar = rng.standard_normal(wshape) * (weight_scale / np.sqrt(fan_in))
        wbar[:, -1] = 0.1 * rng.standard_normal(wshape[0])
        v = None
        if vshape is not None:
            v = rng.standard_normal(vshape) * (weight_scale / np.sqrt(vshape[1]))
        layers.append(LayerParams(wbar, v))
    return ParamSet(layers)


def zero_tangent(params: ParamSet) -> ParamSet:
    return ParamSet(
        [
            LayerParams(
                np.zeros_like(lp.wbar), None if lp.v is None else np.zeros_like(lp.v)
            )
            for lp in params.layers
        ]
    )


# ---------------------------------------------------------------------------
# patches


def extract_patches(grid, radius: int, grid_hw: tuple, padding_value=None) -> np.ndarray:
    """Expand a channels-by-locations grid into patch columns (im2col).

    Column t holds the radius-R neighbourhood of location t, ordered
    offset-major: rows [d*J, (d+1)*J) hold channel values at spatial offset
    index d, offsets scanned row-major over the (2R+1)x(2R+1) window.
    Beyond the border patches read padding_value (zeros when omitted).
    Leading axes are batch axes: (..., J, H*W) -> (..., J*(2R+1)^2, H*W).
    """
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid_hw
    if grid.ndim < 2 or grid.shape[-1] != h * w:
        raise ShapeMismatch(f"grid shape {grid.shape} != (..., J, {h * w})")
    lead, j = grid.shape[:-2], grid.shape[-2]
    k = 2 * radius + 1
    padded = np.zeros(lead + (j, h + 2 * radius, w + 2 * radius))
    if padding_value is not None and np.any(padding_value):
        padded += np.asarray(padding_value, dtype=np.float64)[:, None, None]
    padded[..., radius : radius + h, radius : radius + w] = grid.reshape(lead + (j, h, w))
    windows = sliding_window_view(padded, (k, k), axis=(-2, -1))  # (..., J, H, W, k, k)
    return np.moveaxis(windows, (-2, -1), (-5, -4)).reshape(lead + (k * k * j, h * w))


def fold_patches(patches, radius: int, grid_hw: tuple) -> np.ndarray:
    """Adjoint of extract_patches: scatter-add patch columns back to the grid.

    Leading axes are batch axes, as in extract_patches.
    """
    patches = np.asarray(patches, dtype=np.float64)
    h, w = grid_hw
    k = 2 * radius + 1
    if patches.ndim < 2 or patches.shape[-2] % (k * k) or patches.shape[-1] != h * w:
        raise ShapeMismatch(f"patch matrix shape {patches.shape} unexpected")
    lead, j = patches.shape[:-2], patches.shape[-2] // (k * k)
    blocks = patches.reshape(lead + (k * k, j, h, w))
    padded = np.zeros(lead + (j, h + 2 * radius, w + 2 * radius))
    for d in range(k * k):
        dy, dx = divmod(d, k)
        padded[..., dy : dy + h, dx : dx + w] += blocks[..., d, :, :, :]
    return padded[..., radius : radius + h, radius : radius + w].reshape(lead + (j, h * w))


# ---------------------------------------------------------------------------
# batched engine


@dataclass
class BatchTrace:
    """What forward_batch keeps per layer: the homogenized inputs abar,
    (N, n+1, T), and what the activation saw, act_in, (N, m, T).

    T is 1 for dense layers, the grid size for conv layers and the step
    count for recurrent layers (act_in holds z'_t there).
    """

    spec: NetworkSpec
    params: ParamSet
    x: np.ndarray  # the stacked inputs, (N, ...)
    abar: list
    act_in: list
    output: np.ndarray  # (N, output_dim)


@dataclass
class BatchBackward:
    dz: list  # per layer, cotangents of act_in: (N, K, m, T)
    grad: ParamSet  # summed over the batch; None unless K == 1


def _homogenize_batch(cols) -> np.ndarray:
    ones = np.ones(cols.shape[:-2] + (1, cols.shape[-1]))
    return np.concatenate([cols, ones], axis=-2)


def _flatten_cols(grid) -> np.ndarray:
    """(..., m, T) -> (..., m*T) column-major, as vec flattens one sample."""
    return grid.swapaxes(-1, -2).reshape(grid.shape[:-2] + (-1,))


def _unflatten_cols(flat, rows: int, cols: int) -> np.ndarray:
    return flat.reshape(flat.shape[:-1] + (cols, rows)).swapaxes(-1, -2)


def _out_layout(layer) -> tuple:
    """(rows, cols) of the activation a layer emits."""
    if layer.kind == "conv2d":
        return layer.out_channels, layer.num_locations
    return (layer.out_dim if layer.kind == "dense" else layer.hidden_dim), 1


def forward_batch(spec: NetworkSpec, params: ParamSet, xs) -> BatchTrace:
    """Evaluate the network on a batch; every layer is one Wbar @ Abar.

    xs stacks inputs of the shapes forward takes along a new leading axis.
    Conv layers expand their input with extract_patches; a recurrent layer
    runs its steps over the whole batch at once.
    """
    x = np.asarray(xs, dtype=np.float64)
    n = x.shape[0]
    abars, act_ins = [], []
    carry = x
    for layer, lp in zip(spec.layers, params.layers):
        if layer.kind == "dense":
            if carry.ndim == 3:
                carry = _flatten_cols(carry)
            if carry.shape != (n, layer.in_dim):
                raise ShapeMismatch(
                    f"dense layer expects (N, {layer.in_dim}), got {carry.shape}"
                )
            abar = _homogenize_batch(carry[:, :, None])
            z = lp.wbar @ abar
            carry = layer.activation.value(z)[:, :, 0]
        elif layer.kind == "conv2d":
            want = (n, layer.in_channels, layer.num_locations)
            if carry.shape != want:
                raise ShapeMismatch(f"conv layer expects {want}, got {carry.shape}")
            patches = extract_patches(
                carry, layer.kernel_radius, layer.grid, layer.padding_value
            )
            abar = _homogenize_batch(patches)
            z = lp.wbar @ abar
            carry = layer.activation.value(z)
        else:
            want = (n, layer.steps, layer.input_dim)
            if carry.shape != want:
                raise ShapeMismatch(f"recurrent layer expects {want}, got {carry.shape}")
            vx = lp.v @ carry.swapaxes(1, 2)
            abar = np.empty((n, layer.hidden_dim + 1, layer.steps))
            z = np.empty((n, layer.hidden_dim, layer.steps))
            a = np.broadcast_to(layer.initial_state, (n, layer.hidden_dim))
            for t in range(layer.steps):
                abar_t = _homogenize_batch(a[:, :, None])
                zp_t = lp.wbar @ abar_t + vx[:, :, t : t + 1]
                a = layer.activation.value(zp_t)[:, :, 0]
                abar[:, :, t] = abar_t[:, :, 0]
                z[:, :, t] = zp_t[:, :, 0]
            carry = a
        abars.append(abar)
        act_ins.append(z)
    output = _flatten_cols(carry) if carry.ndim == 3 else carry
    return BatchTrace(spec, params, x, abars, act_ins, output)


def backward_batch(trace: BatchTrace, cotangents) -> BatchBackward:
    """Reverse pass for a stack of output cotangents, (N, K, output_dim).

    dz is linear in the cotangents, so K basis vectors give every column of
    the output Jacobian in one pass. The parameter gradient is only defined
    for one cotangent per sample (K == 1). Nothing is pulled back past
    layer 0: no caller reads the input cotangent.
    """
    u = np.asarray(cotangents, dtype=np.float64)
    n = trace.output.shape[0]
    if u.ndim != 3 or u.shape[0] != n or u.shape[2] != trace.output.shape[1]:
        raise ShapeMismatch(
            f"cotangent stack {u.shape} does not fit output {trace.output.shape}"
        )
    k = u.shape[1]
    spec, params = trace.spec, trace.params
    dzs = [None] * len(spec.layers)
    grads = [None] * len(spec.layers)
    carry = u
    for i in reversed(range(len(spec.layers))):
        layer, lp = spec.layers[i], params.layers[i]
        act_in = trace.act_in[i]
        w = lp.wbar[:, :-1]
        da = carry if carry.ndim == 4 else _unflatten_cols(carry, *_out_layout(layer))
        if layer.kind == "recurrent":
            dz = np.empty((n, k) + act_in.shape[1:])
            for t in reversed(range(layer.steps)):
                dzp = layer.activation.vjp(act_in[:, None, :, t : t + 1], da)
                dz[:, :, :, t] = dzp[:, :, :, 0]
                da = w.T @ dzp
        else:
            dz = layer.activation.vjp(act_in[:, None], da)
            if i > 0 and layer.kind == "conv2d":
                carry = fold_patches(w.T @ dz, layer.kernel_radius, layer.grid)
            elif i > 0:
                carry = (w.T @ dz)[:, :, :, 0]
        dzs[i] = dz
        if k == 1:
            dwbar = np.tensordot(dz[:, 0], trace.abar[i], axes=([0, 2], [0, 2]))
            dv = None
            if layer.kind == "recurrent":  # always layer 0, so it reads trace.x
                dv = np.tensordot(dz[:, 0], trace.x, axes=([0, 2], [0, 1]))
            grads[i] = LayerParams(dwbar, dv)
    return BatchBackward(dzs, ParamSet(grads) if k == 1 else None)


# ---------------------------------------------------------------------------
# per-sample reference path: forward / backward / jvp
#
# The batched engine above is what training and factor estimation run. This
# path evaluates one sample at a time and stays as the oracle that the dense
# Fisher, the Monte-Carlo Fisher, jvp and the tests compare against.


@dataclass
class LayerTrace:
    kind: str
    a_in: np.ndarray  # dense: (n,); conv: (J,T); recurrent: (T,d) sequence
    abar: np.ndarray  # homogenized input columns: dense (n+1,1); conv (J|D|+1,T); recurrent (h+1,T)
    z: np.ndarray  # pre-activations as columns: dense (m,1); conv (I,T); recurrent (h,T) of z_t
    act_in: np.ndarray  # what the activation actually saw (recurrent: z'_t; else z)
    a_out: np.ndarray  # dense: (m,); conv: (I,T); recurrent: (h,) = a_T


@dataclass
class ForwardTrace:
    spec: NetworkSpec
    params: ParamSet
    x: np.ndarray
    layers: list = field(default_factory=list)
    output: np.ndarray = None


def _homogenize(cols) -> np.ndarray:
    ones = np.ones((1, cols.shape[1]))
    return np.vstack([cols, ones])


def forward(spec: NetworkSpec, params: ParamSet, x) -> ForwardTrace:
    """Evaluate the network on one input, keeping every intermediate value.

    Input shape: (in_dim,) for dense-first nets, (in_channels, T) for
    conv-first nets, (steps, input_dim) for recurrent nets. A conv grid
    flattens column-wise (location-major) when it meets a dense layer.
    """
    x = np.asarray(x, dtype=np.float64)
    trace = ForwardTrace(spec, params, x)
    carry = x
    for layer, lp in zip(spec.layers, params.layers):
        if layer.kind == "dense":
            if carry.ndim == 2:
                carry = vec(carry)
            if carry.shape != (layer.in_dim,):
                raise ShapeMismatch(
                    f"dense layer expects ({layer.in_dim},), got {carry.shape}"
                )
            abar = _homogenize(carry.reshape(-1, 1))
            z = lp.wbar @ abar
            a_out = layer.activation.value(z)[:, 0]
            trace.layers.append(LayerTrace("dense", carry, abar, z, z, a_out))
            carry = a_out
        elif layer.kind == "conv2d":
            t = layer.num_locations
            if carry.shape != (layer.in_channels, t):
                raise ShapeMismatch(
                    f"conv layer expects ({layer.in_channels}, {t}), got {carry.shape}"
                )
            patches = extract_patches(
                carry, layer.kernel_radius, layer.grid, layer.padding_value
            )
            abar = _homogenize(patches)
            z = lp.wbar @ abar
            a_out = layer.activation.value(z)
            trace.layers.append(LayerTrace("conv2d", carry, abar, z, z, a_out))
            carry = a_out
        else:
            if carry.shape != (layer.steps, layer.input_dim):
                raise ShapeMismatch(
                    f"recurrent layer expects ({layer.steps}, {layer.input_dim}), "
                    f"got {carry.shape}"
                )
            a = layer.initial_state
            abar = np.empty((layer.hidden_dim + 1, layer.steps))
            z_cols = np.empty((layer.hidden_dim, layer.steps))
            zp_cols = np.empty((layer.hidden_dim, layer.steps))
            for t in range(layer.steps):
                abar_t = _homogenize(a.reshape(-1, 1))
                z_t = lp.wbar @ abar_t
                zp_t = z_t + lp.v @ carry[t].reshape(-1, 1)
                a = layer.activation.value(zp_t)[:, 0]
                abar[:, t] = abar_t[:, 0]
                z_cols[:, t] = z_t[:, 0]
                zp_cols[:, t] = zp_t[:, 0]
            trace.layers.append(LayerTrace("recurrent", carry, abar, z_cols, zp_cols, a))
            carry = a
    trace.output = vec(carry) if carry.ndim == 2 else carry
    return trace


@dataclass
class LayerBackward:
    kind: str
    dz: np.ndarray  # cotangents of the activation input, same layout as trace.act_in


@dataclass
class BackwardTrace:
    layers: list
    grad: ParamSet  # per-layer DWbar (and DV for recurrent layers)

    def flatten(self) -> np.ndarray:
        return self.grad.flatten()


def backward(trace: ForwardTrace, output_cotangent) -> BackwardTrace:
    """Reverse-mode pass: parameter cotangents for one output covector.

    Nothing is pulled back past layer 0: no caller reads the input cotangent.
    """
    u = np.asarray(output_cotangent, dtype=np.float64)
    if u.shape != trace.output.shape:
        raise ShapeMismatch(f"cotangent shape {u.shape} != output {trace.output.shape}")
    spec, params = trace.spec, trace.params
    layer_back = [None] * len(spec.layers)
    grads = [None] * len(spec.layers)
    carry = u
    for i in reversed(range(len(spec.layers))):
        layer, lp, lt = spec.layers[i], params.layers[i], trace.layers[i]
        w = lp.wbar[:, :-1]
        if layer.kind == "dense":
            dz = layer.activation.vjp(lt.act_in, carry.reshape(-1, 1))
            dwbar = dz @ lt.abar.T
            grads[i] = LayerParams(dwbar)
            layer_back[i] = LayerBackward("dense", dz)
            if i > 0:
                carry = w.T @ dz[:, 0]
        elif layer.kind == "conv2d":
            da = carry
            if da.ndim == 1:  # flattened grid fed to a dense head or the output
                da = unvec(da, layer.out_channels, layer.num_locations)
            dz = layer.activation.vjp(lt.act_in, da)
            dwbar = dz @ lt.abar.T
            grads[i] = LayerParams(dwbar)
            layer_back[i] = LayerBackward("conv2d", dz)
            if i > 0:
                carry = fold_patches(w.T @ dz, layer.kernel_radius, layer.grid)
        else:
            da = carry
            dwbar = np.zeros_like(lp.wbar)
            dv = np.zeros_like(lp.v)
            dz_cols = np.empty((layer.hidden_dim, layer.steps))
            for t in reversed(range(layer.steps)):
                dzp = layer.activation.vjp(
                    lt.act_in[:, t].reshape(-1, 1), da.reshape(-1, 1)
                )
                dwbar += dzp @ lt.abar[:, t].reshape(1, -1)
                dv += dzp @ lt.a_in[t].reshape(1, -1)
                dz_cols[:, t] = dzp[:, 0]
                da = w.T @ dzp[:, 0]
            grads[i] = LayerParams(dwbar, dv)
            layer_back[i] = LayerBackward("recurrent", dz_cols)
        if i > 0 and spec.layers[i - 1].kind == "conv2d" and layer.kind == "dense":
            prev = spec.layers[i - 1]
            carry = unvec(carry, prev.out_channels, prev.num_locations)
    return BackwardTrace(layer_back, ParamSet(grads))


def jvp(trace: ForwardTrace, param_tangent: ParamSet) -> np.ndarray:
    """Forward-mode directional derivative of the output in a parameter direction."""
    spec, params = trace.spec, trace.params
    if len(param_tangent.layers) != len(params.layers):
        raise ShapeMismatch("tangent has wrong number of layers")
    dcarry = None  # tangent of the running activation, None means zero
    for layer, lp, dp, lt in zip(
        spec.layers, params.layers, param_tangent.layers, trace.layers
    ):
        if dp.wbar.shape != lp.wbar.shape:
            raise ShapeMismatch("tangent wbar shape mismatch")
        w = lp.wbar[:, :-1]
        if layer.kind == "dense":
            if dcarry is not None and dcarry.ndim == 2:
                dcarry = vec(dcarry)
            dz = dp.wbar @ lt.abar
            if dcarry is not None:
                dz = dz + w @ dcarry.reshape(-1, 1)
            dcarry = layer.activation.jvp(lt.act_in, dz)[:, 0]
        elif layer.kind == "conv2d":
            dz = dp.wbar @ lt.abar
            if dcarry is not None:
                dpatches = extract_patches(dcarry, layer.kernel_radius, layer.grid)
                dz = dz + w @ dpatches
            dcarry = layer.activation.jvp(lt.act_in, dz)
        else:
            da = np.zeros((layer.hidden_dim, 1))  # initial state is a constant
            for t in range(layer.steps):
                dz = dp.wbar @ lt.abar[:, t].reshape(-1, 1) + w @ da
                if dp.v is not None:
                    dz = dz + dp.v @ lt.a_in[t].reshape(-1, 1)
                da = layer.activation.jvp(lt.act_in[:, t].reshape(-1, 1), dz)
            dcarry = da[:, 0]
    return vec(dcarry) if dcarry.ndim == 2 else dcarry


# ---------------------------------------------------------------------------
# serialization


def layer_to_dict(layer) -> dict:
    act = activation_name(layer.activation)
    if layer.kind == "dense":
        return {
            "kind": "dense",
            "in_dim": layer.in_dim,
            "out_dim": layer.out_dim,
            "activation": act,
        }
    if layer.kind == "conv2d":
        out = {
            "kind": "conv2d",
            "in_channels": layer.in_channels,
            "out_channels": layer.out_channels,
            "kernel_radius": layer.kernel_radius,
            "grid": list(layer.grid),
            "activation": act,
        }
        if np.any(layer.padding_value):
            out["padding_value"] = layer.padding_value.tolist()
        return out
    out = {
        "kind": "recurrent",
        "input_dim": layer.input_dim,
        "hidden_dim": layer.hidden_dim,
        "steps": layer.steps,
        "activation": act,
    }
    if np.any(layer.initial_state):
        out["initial_state"] = layer.initial_state.tolist()
    return out


def layer_from_dict(d: dict):
    act = activation_by_name(d["activation"])
    kind = d["kind"]
    if kind == "dense":
        return DenseLayer(d["in_dim"], d["out_dim"], act)
    if kind == "conv2d":
        return ConvLayer(
            d["in_channels"],
            d["out_channels"],
            d["kernel_radius"],
            tuple(d["grid"]),
            act,
            padding_value=np.asarray(d["padding_value"])
            if "padding_value" in d
            else None,
        )
    if kind == "recurrent":
        return RecurrentLayer(
            d["input_dim"],
            d["hidden_dim"],
            d["steps"],
            act,
            initial_state=np.asarray(d["initial_state"])
            if "initial_state" in d
            else None,
        )
    raise ValueError(f"unknown layer kind {kind!r}")


def spec_to_dict(spec: NetworkSpec) -> dict:
    return {"layers": [layer_to_dict(layer) for layer in spec.layers]}


def spec_from_dict(d: dict) -> NetworkSpec:
    return NetworkSpec([layer_from_dict(ld) for ld in d["layers"]])


def save_params(path, params: ParamSet) -> None:
    """Binary checkpoint: one JSON shape-header line, then raw little-endian
    float64 in flatten order."""
    header = {
        "layers": [
            {
                "wbar": list(lp.wbar.shape),
                "v": None if lp.v is None else list(lp.v.shape),
            }
            for lp in params.layers
        ]
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.flatten().astype("<f8").tobytes())


def load_params(path) -> ParamSet:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        flat = np.frombuffer(fh.read(), dtype="<f8").astype(np.float64)
    layers = []
    pos = 0
    for entry in header["layers"]:
        r, c = entry["wbar"]
        wbar = unvec(flat[pos : pos + r * c], r, c)
        pos += r * c
        v = None
        if entry["v"] is not None:
            r, c = entry["v"]
            v = unvec(flat[pos : pos + r * c], r, c)
            pos += r * c
        layers.append(LayerParams(wbar.copy(), None if v is None else v.copy()))
    if pos != flat.size:
        raise ShapeMismatch("checkpoint payload does not match its header")
    return ParamSet(layers)
