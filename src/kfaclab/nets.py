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
holds im2col patch columns) and the step count for recurrent layers. Each
kind is one class (DenseLayer, ConvLayer, RecurrentLayer) holding the facts
and steps that differ between kinds. The conv patch columns come from
extract_patches, one gather from the padded grid through a cached flat
index; its adjoint fold_patches adds the shifted offsets back with the
batch axes innermost. Neither loops over rows of the grid, and both give
the same bits as a per-offset loop.

The batched engine (forward_batch, backward_batch) runs all N samples at
once: Abar is an (N, n+1, T) tensor per layer, and backward takes an
(N, K, output_dim) stack of cotangents, all K output coordinates in one
pass. basis_backward runs the K output basis vectors; backward is linear in
the cotangent, so its dz gives the gradient for any loss cotangent
(gradient_from_basis) and the per-sample output Jacobians (basis_jacobians)
without another pass. Training, factor estimation, the dense Fisher and the
invariance harness use it.

The per-sample path (forward, backward, jvp) evaluates one input and keeps
a full trace. It is the reference oracle: the Monte-Carlo Fisher, the
per-sample output Jacobian and the tests are built on it. Activations act
along the second-to-last axis (columns for vector layers, grids for conv
layers), so both paths and all layer kinds share them.
"""

import functools
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np
import scipy.special

from .errors import ShapeMismatch, check_int
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
    """phi'(z) = outer(base(inner(z))), columnwise: outer is the
    activation-space map Omega, inner the pre-activation map Phi, each an
    invertible affine map with a matrix b and apply_cols (the maps act along
    the second-to-last axis, so leading batch axes pass through).

    This is how a change of basis of the activation and pre-activation
    spaces shows up inside the nonlinearity.
    """

    base: Activation
    outer: object
    inner: object

    name = "affine_wrapped"

    def value(self, z):
        return self.outer.apply_cols(self.base.value(self.inner.apply_cols(z)))

    def jvp(self, z, dz):
        return self.outer.b @ self.base.jvp(self.inner.apply_cols(z), self.inner.b @ dz)

    def vjp(self, z, da):
        return self.inner.b.T @ self.base.vjp(self.inner.apply_cols(z), self.outer.b.T @ da)


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
# layer kinds
#
# Each kind knows its own shapes and spaces, how a batch of inputs expands to
# Abar and how a cotangent of Abar folds back, how a change of basis moves the
# points it stores, and its dict form. The batched engine and the reparam code
# loop over layers through these and never ask for the kind.


class Layer:
    """Shared behaviour of the layer kinds; subclasses are dataclasses.

    Shapes are per sample: in_shape is what the layer reads, out_shape what
    it emits. in_space and out_space are the local dimensions of the
    activation spaces it reads and writes (channels for grids); out_space is
    also the dimension of its pre-activation space.
    """

    kind = None
    fixed_input_basis = False  # True when the input space has no change of basis
    v_shape = None  # only the recurrent cell has an input map V

    @property
    def out_space(self) -> int:
        return self.out_shape[0]  # grids emit channels by locations

    @property
    def output_dim(self) -> int:
        """Dimension of the emitted activation once flattened."""
        return math.prod(self.out_shape)

    @property
    def out_copies(self) -> int:
        """Copies of the local output space in the emitted activation."""
        return self.output_dim // self.out_space

    def expand(self, x):
        """Input columns of Abar for a batch x, without the row of ones."""
        raise NotImplementedError

    def fold(self, cols):
        """Adjoint of expand: a cotangent of the input columns to the input."""
        raise NotImplementedError

    def emit(self, a):
        """The activation, (N, m, T), in the layout the layer emits."""
        return a

    def apply(self, lp, x) -> tuple:
        """(abar, act_in, output) for a batch x of shape (N, *in_shape)."""
        abar = _homogenize_batch(self.expand(x))
        z = lp.wbar @ abar
        return abar, z, self.emit(self.activation.value(z))

    def pullback(self, lp, act_in, da, to_input: bool) -> tuple:
        """dz, (N, K, m, T), for activation cotangents da, and the cotangent
        of the layer input when to_input is set (None otherwise)."""
        dz = self.activation.vjp(act_in[:, None], da)
        return dz, self.fold(lp.wbar[:, :-1].T @ dz) if to_input else None

    def input_map_grad(self, dz, x):
        """Gradient of the input map V for one cotangent per sample."""
        return None

    def input_map_jacobian(self, dz, x):
        """Per-sample gradients of V, (N, K, *v_shape), for dz (N, K, m, T)."""
        return None

    def map_input(self, m, x) -> np.ndarray:
        """Network inputs x, one or a stack, expressed through the
        input-space map m."""
        return m.apply(x)

    def rebased(self, activation, in_map, out_map):
        """The layer in new bases, with the given (wrapped) activation."""
        return replace(self, activation=activation)

    def to_dict(self) -> dict:
        """Fields in declaration order; an all-zero stored point is left out."""
        out = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "activation":
                value = activation_name(value)
            elif isinstance(value, np.ndarray):
                if not value.any():
                    continue
                value = value.tolist()
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict):
        kw = {f.name: d[f.name] for f in fields(cls) if f.name in d or f.default is MISSING}
        kw["activation"] = activation_by_name(d["activation"])
        return cls(**kw)


@dataclass
class DenseLayer(Layer):
    in_dim: int
    out_dim: int
    activation: Activation

    kind = "dense"

    def __post_init__(self):
        check_int("in_dim", self.in_dim, 1)
        check_int("out_dim", self.out_dim, 1)

    @property
    def in_shape(self) -> tuple:
        return (self.in_dim,)

    @property
    def out_shape(self) -> tuple:
        return (self.out_dim,)

    @property
    def in_space(self) -> int:
        return self.in_dim

    @property
    def wbar_shape(self) -> tuple:
        return (self.out_dim, self.in_dim + 1)

    def expand(self, x):
        return x[:, :, None]

    def fold(self, cols):
        return cols[:, :, :, 0]

    def emit(self, a):
        return a[:, :, 0]


@dataclass
class ConvLayer(Layer):
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
        check_int("in_channels", self.in_channels, 1)
        check_int("out_channels", self.out_channels, 1)
        check_int("kernel_radius", self.kernel_radius, 0)
        self.grid = tuple(self.grid)
        if len(self.grid) != 2:
            raise ShapeMismatch(f"grid must be (height, width), got {self.grid!r}")
        for size in self.grid:
            check_int("grid size", size, 1)
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

    @property
    def in_shape(self) -> tuple:
        return (self.in_channels, self.num_locations)

    @property
    def out_shape(self) -> tuple:
        return (self.out_channels, self.num_locations)

    @property
    def in_space(self) -> int:
        return self.in_channels

    @property
    def wbar_shape(self) -> tuple:
        return (self.out_channels, self.in_channels * self.num_offsets + 1)

    def expand(self, x):
        return extract_patches(x, self.kernel_radius, self.grid, self.padding_value)

    def fold(self, cols):
        return fold_patches(cols, self.kernel_radius, self.grid)

    def map_input(self, m, x) -> np.ndarray:
        return m.apply_cols(x)

    def rebased(self, activation, in_map, out_map):
        return replace(self, activation=activation,
                       padding_value=in_map.apply(self.padding_value))


@dataclass
class RecurrentLayer(Layer):
    """Recurrent cell run for a fixed number of steps; output is a_T.

    initial_state defaults to zeros. It is part of the architecture (not a
    trained parameter) but a change of basis of the hidden space must remap
    it, so it lives here explicitly. The input is a sequence, whose
    coordinates no change of basis touches.
    """

    input_dim: int
    hidden_dim: int
    steps: int
    activation: Activation
    initial_state: np.ndarray = None

    kind = "recurrent"
    fixed_input_basis = True

    def __post_init__(self):
        check_int("input_dim", self.input_dim, 1)
        check_int("hidden_dim", self.hidden_dim, 1)
        check_int("steps", self.steps, 1)
        if self.initial_state is None:
            self.initial_state = np.zeros(self.hidden_dim)
        else:
            self.initial_state = np.asarray(self.initial_state, dtype=np.float64)
            if self.initial_state.shape != (self.hidden_dim,):
                raise ShapeMismatch("initial_state length != hidden_dim")

    @property
    def in_shape(self) -> tuple:
        return (self.steps, self.input_dim)

    @property
    def out_shape(self) -> tuple:
        return (self.hidden_dim,)

    @property
    def in_space(self) -> int:
        return self.input_dim

    @property
    def wbar_shape(self) -> tuple:
        return (self.hidden_dim, self.hidden_dim + 1)

    @property
    def v_shape(self) -> tuple:
        return (self.hidden_dim, self.input_dim)

    def apply(self, lp, x) -> tuple:
        """The steps run over the whole batch at once; Abar holds the
        homogenized previous state at each step and act_in holds z'_t."""
        n = x.shape[0]
        vx = lp.v @ x.swapaxes(1, 2)
        abar = np.empty((n, self.hidden_dim + 1, self.steps))
        z = np.empty((n, self.hidden_dim, self.steps))
        a = np.broadcast_to(self.initial_state, (n, self.hidden_dim))
        for t in range(self.steps):
            abar_t = _homogenize_batch(a[:, :, None])
            zp_t = lp.wbar @ abar_t + vx[:, :, t : t + 1]
            a = self.activation.value(zp_t)[:, :, 0]
            abar[:, :, t] = abar_t[:, :, 0]
            z[:, :, t] = zp_t[:, :, 0]
        return abar, z, a

    def pullback(self, lp, act_in, da, to_input: bool) -> tuple:
        """Back through the steps; the cell is always the first layer, so
        its input cotangent is never asked for."""
        w = lp.wbar[:, :-1]
        dz = np.empty(da.shape[:2] + act_in.shape[1:])
        for t in reversed(range(self.steps)):
            dzp = self.activation.vjp(act_in[:, None, :, t : t + 1], da)
            dz[:, :, :, t] = dzp[:, :, :, 0]
            da = w.T @ dzp
        return dz, None

    def input_map_grad(self, dz, x):
        return np.tensordot(dz, x, axes=([0, 2], [0, 1]))

    def input_map_jacobian(self, dz, x):
        return dz @ x[:, None]

    def map_input(self, m, x) -> np.ndarray:
        return np.array(x, copy=True)

    def rebased(self, activation, in_map, out_map):
        return replace(self, activation=activation,
                       initial_state=out_map.apply(self.initial_state))


LAYER_KINDS = {cls.kind: cls for cls in (DenseLayer, ConvLayer, RecurrentLayer)}


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
            want = prev.output_dim if layer.kind == "dense" else prev.out_space
            if layer.kind == "conv2d" and prev.grid != layer.grid:
                raise ShapeMismatch("consecutive conv layers must share the grid")
            if layer.in_space != want:
                raise ShapeMismatch(
                    f"layer {i} declares input {layer.in_space} but layer {i - 1} emits {want}"
                )

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim


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
    return [(layer.wbar_shape, layer.v_shape) for layer in spec.layers]


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


@functools.lru_cache(maxsize=32)
def _patch_index(radius: int, grid_hw: tuple, channels: int) -> np.ndarray:
    """Flat positions in a padded (J, H+2R, W+2R) block of the patch entries,
    shaped (J*(2R+1)^2, H*W) in extract_patches' row order; read-only."""
    h, w = grid_hw
    k = 2 * radius + 1
    hp, wp = h + 2 * radius, w + 2 * radius
    dy, dx = np.divmod(np.arange(k * k), k)
    y, x = np.divmod(np.arange(h * w), w)
    rows = (dy * wp + dx)[:, None] + np.arange(channels) * (hp * wp)  # (offset, channel)
    index = rows.reshape(-1, 1) + (y * wp + x)
    index.setflags(write=False)
    return index


def extract_patches(grid, radius: int, grid_hw: tuple, padding_value=None) -> np.ndarray:
    """Expand a channels-by-locations grid into patch columns (im2col).

    Column t holds the radius-R neighbourhood of location t, ordered
    offset-major: rows [d*J, (d+1)*J) hold channel values at spatial offset
    index d, offsets scanned row-major over the (2R+1)x(2R+1) window.
    Beyond the border patches read padding_value (zeros when omitted).
    Leading axes are batch axes: (..., J, H*W) -> (..., J*(2R+1)^2, H*W).

    The grid is padded once; every patch entry is then gathered by one take
    through a cached flat index into the padded (J, H+2R, W+2R) block.
    """
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid_hw
    if grid.ndim < 2 or grid.shape[-1] != h * w:
        raise ShapeMismatch(f"grid shape {grid.shape} != (..., J, {h * w})")
    lead, j = grid.shape[:-2], grid.shape[-2]
    padded = np.zeros(lead + (j, h + 2 * radius, w + 2 * radius))
    if padding_value is not None and np.any(padding_value):
        padded += np.asarray(padding_value, dtype=np.float64)[:, None, None]
    padded[..., radius : radius + h, radius : radius + w] = grid.reshape(lead + (j, h, w))
    flat = padded.reshape(lead + (j * (h + 2 * radius) * (w + 2 * radius),))
    return flat.take(_patch_index(radius, (h, w), j), axis=-1)


def fold_patches(patches, radius: int, grid_hw: tuple) -> np.ndarray:
    """Adjoint of extract_patches: scatter-add patch columns back to the grid.

    Leading axes are batch axes, as in extract_patches. The buffer holds
    them innermost, behind the channels, so each of the (2R+1)^2 shifted
    adds writes contiguous runs of W x J x (batch size) values instead of
    rows of W. The offsets go in order into a zero buffer, so every grid
    cell sums them in offset order.
    """
    patches = np.asarray(patches, dtype=np.float64)
    h, w = grid_hw
    k = 2 * radius + 1
    if patches.ndim < 2 or patches.shape[-2] % (k * k) or patches.shape[-1] != h * w:
        raise ShapeMismatch(f"patch matrix shape {patches.shape} unexpected")
    lead, j = patches.shape[:-2], patches.shape[-2] // (k * k)
    size = math.prod(lead)
    # (offset, row, column, channel, batch) view of the patches
    blocks = patches.reshape(size, k * k, j, h, w).transpose(1, 3, 4, 2, 0)
    padded = np.zeros((h + 2 * radius, w + 2 * radius, j, size))
    for d in range(k * k):
        dy, dx = divmod(d, k)
        window = padded[dy : dy + h, dx : dx + w]  # a view: += adds in place
        window += blocks[d]
    grid = padded[radius : radius + h, radius : radius + w].transpose(3, 2, 0, 1)
    return np.ascontiguousarray(grid).reshape(lead + (j, h * w))


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


def _homogenize_batch(cols) -> np.ndarray:
    ones = np.ones(cols.shape[:-2] + (1, cols.shape[-1]))
    return np.concatenate([cols, ones], axis=-2)


def _flatten_cols(grid) -> np.ndarray:
    """(..., m, T) -> (..., m*T) column-major, as vec flattens one sample."""
    return grid.swapaxes(-1, -2).reshape(grid.shape[:-2] + (-1,))


def _unflatten_cols(flat, rows: int, cols: int) -> np.ndarray:
    return flat.reshape(flat.shape[:-1] + (cols, rows)).swapaxes(-1, -2)


def forward_batch(spec: NetworkSpec, params: ParamSet, xs) -> BatchTrace:
    """Evaluate the network on a batch; every layer is one Wbar @ Abar.

    xs stacks the inputs, (N, *in_shape) of the first layer, as a Dataset
    holds them (a list of inputs is stacked here). A grid that meets a
    layer reading vectors flattens column-wise, as in forward.
    """
    x = np.asarray(xs, dtype=np.float64)
    abars, act_ins = [], []
    carry = x
    for layer, lp in zip(spec.layers, params.layers):
        if carry.ndim == 3 and len(layer.in_shape) == 1:
            carry = _flatten_cols(carry)
        if carry.shape[1:] != layer.in_shape:
            raise ShapeMismatch(
                f"{layer.kind} layer expects (N,) + {layer.in_shape}, got {carry.shape}"
            )
        abar, z, carry = layer.apply(lp, carry)
        abars.append(abar)
        act_ins.append(z)
    output = _flatten_cols(carry) if carry.ndim == 3 else carry
    return BatchTrace(spec, params, x, abars, act_ins, output)


def backward_batch(trace: BatchTrace, cotangents) -> list:
    """Reverse pass for a stack of output cotangents, (N, K, output_dim):
    the per-layer dz, (N, K, m, T).

    dz is linear in the cotangents, so K basis vectors give every column of
    the output Jacobian in one pass, and gradient_from_basis turns dz into
    a parameter gradient. Nothing is pulled back past layer 0: no caller
    reads the input cotangent.
    """
    u = np.asarray(cotangents, dtype=np.float64)
    n = trace.output.shape[0]
    if u.ndim != 3 or u.shape[0] != n or u.shape[2] != trace.output.shape[1]:
        raise ShapeMismatch(
            f"cotangent stack {u.shape} does not fit output {trace.output.shape}"
        )
    spec, params = trace.spec, trace.params
    dzs = [None] * len(spec.layers)
    carry = u
    for i in reversed(range(len(spec.layers))):
        layer, lp = spec.layers[i], params.layers[i]
        if carry.ndim == 3:
            carry = _unflatten_cols(carry, layer.out_space, layer.out_copies)
        dzs[i], carry = layer.pullback(lp, trace.act_in[i], carry, i > 0)
    return dzs


def basis_backward(trace: BatchTrace) -> list:
    """Per-layer dz, (N, K, m, T), of one backward pass of the K output
    basis vectors: the columns of every sample's output Jacobian."""
    n, k = trace.output.shape
    return backward_batch(trace, np.broadcast_to(np.eye(k), (n, k, k)))


def gradient_from_basis(trace: BatchTrace, dz: list, u) -> ParamSet:
    """Parameter gradient, summed over the batch, for output cotangents u,
    (N, K), from the dz of basis_backward. Backward is linear in the
    cotangent, so u's dz is u contracted with the basis dz. On the dz of a
    one-cotangent pass, u = 1 gives that cotangent's gradient."""
    u = np.asarray(u, dtype=np.float64)[:, None, :]
    grads = []
    for layer, abar, d in zip(trace.spec.layers, trace.abar, dz):
        du = (u @ d.reshape(d.shape[:2] + (-1,))).reshape(d.shape[:1] + d.shape[2:])
        dwbar = np.tensordot(du, abar, axes=([0, 2], [0, 2]))
        # only a first layer has an input map V, so it reads the input
        grads.append(LayerParams(dwbar, layer.input_map_grad(du, trace.x)))
    return ParamSet(grads)


def basis_jacobians(trace: BatchTrace, dz: list) -> np.ndarray:
    """Per-sample output Jacobians, (N, K, P), columns in ParamSet.flatten
    order, from the dz of basis_backward: per layer vec(dz abar^T), then
    vec of V's gradient."""
    parts = []
    for layer, abar, d in zip(trace.spec.layers, trace.abar, dz):
        parts.append(_flatten_cols(d @ abar[:, None].swapaxes(-1, -2)))
        jv = layer.input_map_jacobian(d, trace.x)
        if jv is not None:
            parts.append(_flatten_cols(jv))
    return np.concatenate(parts, axis=-1)


# ---------------------------------------------------------------------------
# per-sample reference path: forward / backward / jvp
#
# The batched engine above is what training, factor estimation and the dense
# Fisher run. This path evaluates one sample at a time and stays as the oracle
# that the per-sample output Jacobian, the Monte-Carlo Fisher, jvp and the
# tests are built on.


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


def layer_from_dict(d: dict):
    kind = d["kind"]
    if kind not in LAYER_KINDS:
        raise ValueError(f"unknown layer kind {kind!r}")
    return LAYER_KINDS[kind].from_dict(d)


def spec_to_dict(spec: NetworkSpec) -> dict:
    return {"layers": [layer.to_dict() for layer in spec.layers]}


def spec_from_dict(d: dict) -> NetworkSpec:
    return NetworkSpec([layer_from_dict(ld) for ld in d["layers"]])
