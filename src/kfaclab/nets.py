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
and steps that differ between kinds.

The batched engine (forward_batch, backward_batch) runs all B samples at
once with the batch axis innermost: a layer's Abar is (n+1, T, B), its
pre-activations (m, T, B), and backward takes a stack of K output
cotangents per sample, so its dz is (m, T, K, B). Every product with a
matrix the whole batch shares (W, W^T, and a wrapped activation's Omega,
Omega^T, Phi, Phi^T) is then one GEMM over all columns of a reshaped view
(_lmul), in both passes. The bits of a GEMM row depend on how many columns
share the call, so a sample's numbers depend on the batch it rides in: the
run loop reads the data columns of one pass over the data stacked with the
probes (BatchTrace.head), and every command reads that same pass.

A pass carries K cotangents per sample, in the run the columns of the
output metric's square root (kfac.root_backward); basis_jacobians turns its
dz into each sample's Jacobians of those K cotangents. Backward is linear in
the cotangent, so gradient_from_basis gets the gradient for any weights of
a pass's K cotangents by contracting them with dz over K, then one GEMM
over reshaped views of that and Abar, the operands np.tensordot passes.

A conv layer's patch columns come from extract_patches, one gather of whole
B-long rows from the zero-padded grid through a cached index, with the
bits of a per-offset loop; the row of ones is read from a row past the
padded grid. Its input cotangent comes from fold_patches, one GEMM over
gathered windows of dz, which never builds the patch cotangent W^T dz. A
dense layer fills one buffer with its input and the row of ones
(_homogenize_batch); the recurrent cell sets the row of ones once and
writes each state into its column of Abar, which the next step's product
reads as a strided view.

The per-sample path (forward, backward) evaluates one input and keeps a
full trace. It is the reference oracle: the Monte-Carlo Fisher, the
per-sample output Jacobian and the tests are built on it, and it folds
W^T dz back by shifted adds (_fold_cols), so the batched engine's conv
cotangent is checked against arithmetic it does not share. Activations and
the patch helpers act along the leading axes (channels, then locations),
with any batch axes trailing, so both paths and all layer kinds share them.
"""

import functools
import math
from dataclasses import MISSING, dataclass, field, fields, replace

import numpy as np

from ._scipy import expit
from .errors import ShapeMismatch, check_int, check_keys, check_list, check_name
from .linalg import unvec, vec


# ---------------------------------------------------------------------------
# activations


class Activation:
    """Smooth map applied to pre-activations, with its vjp at a point."""

    def value(self, z):
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

    def vjp(self, z, da):
        # elementwise maps have symmetric Jacobian
        return self._df(z) * da


class Identity(_Elementwise):
    def _f(self, z):
        return np.array(z, copy=True)

    def _df(self, z):
        return np.ones_like(z)


class Logistic(_Elementwise):
    """scipy.special.expit, the same compiled ufunc, loaded by kfaclab._scipy
    without scipy's package set-up."""

    def _f(self, z):
        return expit(z)

    def _df(self, z):
        s = expit(z)
        return s * (1.0 - s)


class Tanh(_Elementwise):
    def _f(self, z):
        return np.tanh(z)

    def _df(self, z):
        t = np.tanh(z)
        return 1.0 - t * t


class Softplus(_Elementwise):
    """Smooth stand-in where one would otherwise reach for ReLU."""

    def _f(self, z):
        return np.logaddexp(0.0, z)

    def _df(self, z):
        return expit(z)  # the logistic function, without exp(-z)'s overflow


@dataclass
class AffineWrapped(Activation):
    """phi'(z) = outer(base(inner(z))): outer is the activation-space map
    Omega, inner the pre-activation map Phi, each an invertible affine map
    with a matrix b and an offset c. The maps act along the first axis of z,
    each as one GEMM over all the trailing columns (locations, cotangents,
    samples).

    This is how a change of basis of the activation and pre-activation
    spaces shows up inside the nonlinearity.
    """

    base: Activation
    outer: object
    inner: object

    def value(self, z):
        return _affine(self.outer, self.base.value(_affine(self.inner, z)))

    def vjp(self, z, da):
        inner, outer = self.inner, self.outer
        return _lmul(inner.b.T, self.base.vjp(_affine(inner, z), _lmul(outer.b.T, da)))


def _lmul(b, x) -> np.ndarray:
    """b @ x over the first axis of x: one GEMM over all the trailing
    columns of x, read through a reshaped view where its layout allows."""
    cols = x.reshape(x.shape[0], math.prod(x.shape[1:]))
    return (b @ cols).reshape(b.shape[:1] + x.shape[1:])


def _affine(m, x) -> np.ndarray:
    """The affine map m, b @ x + c, over the first axis of x."""
    out = _lmul(m.b, x)
    out += m.c.reshape((-1,) + (1,) * (x.ndim - 1))
    return out


_BY_NAME = {
    "identity": Identity(),
    "logistic": Logistic(),
    "tanh": Tanh(),
    "softplus": Softplus(),
}


def activation_by_name(name: str) -> Activation:
    check_name("activation", name, _BY_NAME)
    return _BY_NAME[name]


# ---------------------------------------------------------------------------
# layer kinds
#
# Each kind knows its own shapes and spaces, how a batch of inputs expands to
# Abar and how a cotangent pulls back through it, how a change of basis moves
# the points it stores, and how it is read from a dict. The batched engine
# and the reparam code loop over layers through these and never ask for the
# kind.


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
        """Abar, (n+1, T, B), for a batch x, (*in_shape, B): its input
        columns, then the row of ones."""
        raise NotImplementedError

    def emit(self, a):
        """The activation, (m, T, B), in the layout the layer emits."""
        return a

    def apply(self, lp, x) -> tuple:
        """(abar, act_in, output) for a batch x of shape (*in_shape, B)."""
        abar = self.expand(x)
        z = _lmul(lp.wbar, abar)
        return abar, z, self.emit(self.activation.value(z))

    def pullback(self, lp, act_in, da, to_input: bool) -> tuple:
        """dz, (m, T, K, B), for activation cotangents da, (*out_shape, K, B),
        and the cotangent of the layer input when to_input is set (None
        otherwise)."""
        raise NotImplementedError

    def input_map_grad(self, du, x):
        """Gradient of the input map V for pre-activation cotangents du,
        (m, T, B), one per sample; x holds the network inputs, (B, *in_shape)."""
        return None

    def input_map_jacobian(self, dz, x):
        """Per-sample gradients of V, each vec-flattened, (B, K, V.size), for
        dz (m, T, K, B)."""
        return None

    def map_input(self, m, x) -> np.ndarray:
        """Network inputs x, one or a stack, expressed through the
        input-space map m."""
        return m.apply(x)

    def rebased(self, activation, in_map, out_map):
        """The layer in new bases, with the given (wrapped) activation."""
        return replace(self, activation=activation)

    @classmethod
    def from_dict(cls, d: dict):
        required = [f.name for f in fields(cls) if f.default is MISSING]
        check_keys(f"{cls.kind} layer", d, ["kind"] + [f.name for f in fields(cls)], required)
        kw = {f.name: d[f.name] for f in fields(cls) if f.name in d}
        kw["activation"] = activation_by_name(d["activation"])
        return cls(**kw)


def _stored_point(what: str, value, size_name: str, size: int) -> np.ndarray:
    """A point a layer stores, as a float64 vector of length size; zeros
    when value is None."""
    if value is None:
        return np.zeros(size)
    try:
        point = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a list of numbers, got {value!r}") from None
    if point.shape != (size,):
        raise ShapeMismatch(f"{what} length != {size_name}")
    return point


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
        return _homogenize_batch(x[:, None])

    def emit(self, a):
        return a[:, 0]

    def pullback(self, lp, act_in, da, to_input: bool) -> tuple:
        dz = self.activation.vjp(act_in[:, :, None], da[:, None])
        return dz, _lmul(lp.wbar[:, :-1].T, dz[:, 0]) if to_input else None


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
        if not isinstance(self.grid, (list, tuple)) or len(self.grid) != 2:
            raise ShapeMismatch(f"grid must be (height, width), got {self.grid!r}")
        self.grid = tuple(self.grid)
        for size in self.grid:
            check_int("grid size", size, 1)
        self.padding_value = _stored_point("padding_value", self.padding_value,
                                           "in_channels", self.in_channels)

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

    def pullback(self, lp, act_in, da, to_input: bool) -> tuple:
        """The input cotangent comes from fold_patches, which never builds
        W^T dz."""
        dz = self.activation.vjp(act_in[:, :, None], da)
        if not to_input:
            return dz, None
        return dz, fold_patches(dz, lp.wbar[:, :-1], self.kernel_radius, self.grid)

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
        self.initial_state = _stored_point("initial_state", self.initial_state,
                                           "hidden_dim", self.hidden_dim)

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
        """The steps run over the whole batch at once, x being (T, d, B);
        Abar holds the homogenized previous state at each step and act_in
        holds z'_t. Each state is written into its column of Abar, which the
        next step's product reads as a strided view."""
        h, steps, n = self.hidden_dim, self.steps, x.shape[-1]
        vx = _lmul(lp.v, x.swapaxes(0, 1))
        abar = np.empty((h + 1, steps, n))
        abar[h] = 1.0
        abar[:h, 0] = self.initial_state[:, None]
        z = np.empty((h, steps, n))
        for t in range(steps):
            zp_t = lp.wbar @ abar[:, t]
            zp_t += vx[:, t]
            a = self.activation.value(zp_t)
            z[:, t] = zp_t
            if t + 1 < steps:
                abar[:h, t + 1] = a
        return abar, z, a

    def pullback(self, lp, act_in, da, to_input: bool) -> tuple:
        """Back through the steps; the cell is always the first layer, so
        its input cotangent is never asked for."""
        w = lp.wbar[:, :-1]
        dz = np.empty(act_in.shape[:2] + da.shape[1:])
        for t in reversed(range(self.steps)):
            dzp = self.activation.vjp(act_in[:, t, None], da)
            dz[:, t] = dzp
            da = _lmul(w.T, dzp)
        return dz, None

    def input_map_grad(self, du, x):
        # np.tensordot(du, x, axes=([1, 2], [1, 0])): the same operands, x
        # copied into (T*B, d), and the same np.dot
        return np.dot(du.reshape(du.shape[0], -1), x.swapaxes(0, 1).reshape(-1, x.shape[2]))

    def input_map_jacobian(self, dz, x):
        # per sample and cotangent, sum_t x_t dz_t^T: vec(dV) in rows
        per_sample = x.swapaxes(1, 2)[:, None] @ dz.transpose(3, 2, 1, 0)
        return per_sample.reshape(per_sample.shape[:2] + (-1,))

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


@dataclass
class ParamSet:
    layers: list

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


# ---------------------------------------------------------------------------
# patches


@functools.lru_cache(maxsize=32)
def _patch_index(radius: int, grid_hw: tuple, channels: int) -> np.ndarray:
    """Rows of a padded (J*(H+2R)*(W+2R), batch) block that hold the patch
    entries, shaped (J*(2R+1)^2, H*W) in extract_patches' row order, then a
    row pointing at the row just past the block; read-only."""
    h, w = grid_hw
    k = 2 * radius + 1
    hp, wp = h + 2 * radius, w + 2 * radius
    dy, dx = np.divmod(np.arange(k * k), k)
    y, x = np.divmod(np.arange(h * w), w)
    rows = (dy * wp + dx)[:, None] + np.arange(channels) * (hp * wp)  # (offset, channel)
    index = rows.reshape(-1, 1) + (y * wp + x)
    index = np.vstack([index, np.full((1, h * w), channels * hp * wp)])
    index.setflags(write=False)
    return index


def extract_patches(grid, radius: int, grid_hw: tuple, padding_value=None) -> np.ndarray:
    """Expand a channels-by-locations grid into homogenized patch columns
    (im2col with a row of ones): the Abar of a conv layer.

    Column t holds the radius-R neighbourhood of location t, ordered
    offset-major: rows [d*J, (d+1)*J) hold channel values at spatial offset
    index d, offsets scanned row-major over the (2R+1)x(2R+1) window.
    Beyond the border patches read padding_value (zeros when omitted).
    A last row of ones follows. Trailing axes are batch axes:
    (J, H*W, ...) -> (J*(2R+1)^2 + 1, H*W, ...).

    The grid is padded once, into a (J*(H+2R)*(W+2R) + 1, batch) buffer
    whose last row holds 1.0; every patch row, and the row of ones, is then
    gathered as a whole batch-long row by one take through a cached index.
    """
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid_hw
    if grid.ndim < 2 or grid.shape[1] != h * w:
        raise ShapeMismatch(f"grid shape {grid.shape} != (J, {h * w}, ...)")
    j, batch = grid.shape[0], grid.shape[2:]
    size = math.prod(batch)
    hp, wp = h + 2 * radius, w + 2 * radius
    flat = np.zeros((j * hp * wp + 1, size))
    flat[-1] = 1.0
    padded = flat[:-1].reshape(j, hp, wp, size)
    if padding_value is not None and np.any(padding_value):
        padded += np.asarray(padding_value, dtype=np.float64)[:, None, None, None]
    padded[:, radius : radius + h, radius : radius + w] = grid.reshape(j, h, w, size)
    index = _patch_index(radius, (h, w), j)
    return flat.take(index, axis=0).reshape(index.shape + batch)


def _fold_cols(patches, radius: int, grid_hw: tuple) -> np.ndarray:
    """Adjoint of extract_patches' patch rows (all but its row of ones):
    scatter-add patch columns back to the grid. The per-sample oracle
    (backward) folds W^T dz with it, apart from fold_patches' gather.

    Trailing axes are batch axes, as in extract_patches, and the buffer
    holds them innermost, so each of the (2R+1)^2 shifted adds writes
    contiguous runs of W x (batch size) values. The offsets go in order
    into a zero buffer, so every grid cell sums them in offset order.
    """
    patches = np.asarray(patches, dtype=np.float64)
    h, w = grid_hw
    k = 2 * radius + 1
    if patches.ndim < 2 or patches.shape[0] % (k * k) or patches.shape[1] != h * w:
        raise ShapeMismatch(f"patch matrix shape {patches.shape} unexpected")
    j, batch = patches.shape[0] // (k * k), patches.shape[2:]
    size = math.prod(batch)
    blocks = patches.reshape(k * k, j, h, w, size)  # (offset, channel, row, column, batch)
    padded = np.zeros((j, h + 2 * radius, w + 2 * radius, size))
    for d in range(k * k):
        dy, dx = divmod(d, k)
        window = padded[:, dy : dy + h, dx : dx + w]  # a view: += adds in place
        window += blocks[d]
    grid = padded[:, radius : radius + h, radius : radius + w]
    return np.ascontiguousarray(grid).reshape((j, h * w) + batch)


def fold_patches(dz, w, radius: int, grid_hw: tuple) -> np.ndarray:
    """Cotangent of a conv layer's input, the fold (_fold_cols) of W^T dz,
    for pre-activation cotangents dz, (I, H*W, ...), and patch weights
    w = Wbar[:, :-1], (I, J*(2R+1)^2); trailing axes are batch axes.

    dz is copied once into a zero-padded (I*(H+2R)*(W+2R), batch) buffer,
    extract_patches' index gathers its (2R+1)^2 shifted windows as whole
    batch-long rows, and one GEMM with W's offset blocks, reordered to
    (J, (2R+1)^2 * I) with the offsets reversed (the window at offset
    (dy, dx) meets W's offset (2R-dy, 2R-dx)), sums every term: W^T dz is
    never made.
    """
    dz = np.asarray(dz, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    h, wd = grid_hw
    k = 2 * radius + 1
    if (dz.ndim < 2 or dz.shape[1] != h * wd or w.ndim != 2
            or w.shape[0] != dz.shape[0] or w.shape[1] % (k * k)):
        raise ShapeMismatch(f"cotangent {dz.shape} and weights {w.shape} do not fit")
    (i, t), batch = dz.shape[:2], dz.shape[2:]
    size, j = math.prod(batch), w.shape[1] // (k * k)
    flat = np.zeros((i * (h + 2 * radius) * (wd + 2 * radius), size))
    padded = flat.reshape(i, h + 2 * radius, wd + 2 * radius, size)
    padded[:, radius : radius + h, radius : radius + wd] = dz.reshape(i, h, wd, size)
    windows = flat.take(_patch_index(radius, (h, wd), i)[:-1], axis=0)  # ((offset, I), T, batch)
    blocks = w.reshape(i, k * k, j)[:, ::-1].transpose(2, 1, 0).reshape(j, -1)
    return np.dot(blocks, windows.reshape(k * k * i, t * size)).reshape((j, t) + batch)


# ---------------------------------------------------------------------------
# batched engine


@dataclass
class BatchTrace:
    """What forward_batch keeps per layer, the batch axis innermost: the
    homogenized inputs abar, (n+1, T, B), and what the activation saw,
    act_in, (m, T, B).

    T is 1 for dense layers, the grid size for conv layers and the step
    count for recurrent layers (act_in holds z'_t there).
    """

    spec: NetworkSpec
    params: ParamSet
    x: np.ndarray  # the stacked inputs, (B, ...)
    abar: list
    act_in: list
    output: np.ndarray  # (B, output_dim)
    # what is derived from this pass and kept for its later readers, by name
    # (kfac.ngd_curvature keeps exact NGD's gradient and Fisher root here)
    memo: dict = field(default_factory=dict, repr=False, compare=False)

    def head(self, n: int) -> "BatchTrace":
        """The trace of the first n samples: every abar and act_in's first n
        columns copied out, C-contiguous, so this pass's arrays can be
        freed. These are the bits the samples got in this pass, not those
        of a pass over them alone."""
        return BatchTrace(self.spec, self.params, self.x[:n],
                          [np.ascontiguousarray(a[..., :n]) for a in self.abar],
                          [np.ascontiguousarray(z[..., :n]) for z in self.act_in],
                          self.output[:n])


def _homogenize_batch(cols) -> np.ndarray:
    """cols, (n, ...), with a row of ones after it: (n+1, ...), filled into
    one buffer."""
    out = np.empty((cols.shape[0] + 1,) + cols.shape[1:])
    out[:-1] = cols
    out[-1] = 1.0
    return out


def _flatten_grid(grid) -> np.ndarray:
    """(m, T, B) -> (m*T, B), each sample flattened column-major, as vec
    flattens one."""
    m, t, b = grid.shape
    return grid.swapaxes(0, 1).reshape(m * t, b)


def forward_batch(spec: NetworkSpec, params: ParamSet, xs) -> BatchTrace:
    """Evaluate the network on a batch; every layer is one Wbar @ Abar.

    xs stacks the inputs, (B, *in_shape) of the first layer, as a Dataset
    holds them (a list of inputs is stacked here); the layers see them with
    the batch axis moved innermost. A grid that meets a layer reading
    vectors flattens column-wise, as in forward. The output is (B, K).
    """
    x = np.asarray(xs, dtype=np.float64)
    abars, act_ins = [], []
    carry = x.transpose(tuple(range(1, x.ndim)) + (0,))  # the batch axis innermost
    for layer, lp in zip(spec.layers, params.layers):
        if carry.ndim == 3 and len(layer.in_shape) == 1:
            carry = _flatten_grid(carry)
        if carry.shape[:-1] != layer.in_shape:
            raise ShapeMismatch(
                f"{layer.kind} layer expects {layer.in_shape} + (B,), got {carry.shape}"
            )
        abar, z, carry = layer.apply(lp, carry)
        abars.append(abar)
        act_ins.append(z)
    output = np.ascontiguousarray((_flatten_grid(carry) if carry.ndim == 3 else carry).T)
    return BatchTrace(spec, params, x, abars, act_ins, output)


def backward_batch(trace: BatchTrace, cotangents) -> list:
    """Reverse pass for a stack of output cotangents, (B, K, output_dim):
    the per-layer dz, (m, T, K, B).

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
    carry = u.T  # (output_dim, K, B)
    for i in reversed(range(len(spec.layers))):
        layer, lp = spec.layers[i], params.layers[i]
        if carry.ndim == 3 and len(layer.out_shape) == 2:  # flat, column-major, meets a grid
            carry = carry.reshape((layer.out_copies, layer.out_space) + carry.shape[1:])
            carry = carry.swapaxes(0, 1)
        dzs[i], carry = layer.pullback(lp, trace.act_in[i], carry, i > 0)
    return dzs


def gradient_from_basis(trace: BatchTrace, dz: list, u) -> ParamSet:
    """Parameter gradient, summed over the batch, for the output cotangent
    that weights u, (B, K), make of the K cotangents of dz's pass (for a
    pass of the output basis vectors, u is that cotangent): u contracted
    with dz, then one GEMM over views of it and Abar, np.tensordot's
    operands."""
    u = np.asarray(u, dtype=np.float64).T  # (K, B), against dz's last two axes
    grads = []
    for layer, abar, d in zip(trace.spec.layers, trace.abar, dz):
        du = np.einsum("itkn,kn->itn", d, u)
        dwbar = np.dot(du.reshape(len(du), -1), abar.reshape(len(abar), -1).T)
        # only a first layer has an input map V, so it reads the input
        grads.append(LayerParams(dwbar, layer.input_map_grad(du, trace.x)))
    return ParamSet(grads)


def basis_jacobians(trace: BatchTrace, dz: list) -> np.ndarray:
    """Per-sample Jacobians of the K cotangents of dz's pass, (B, K, P),
    columns in ParamSet.flatten order: row k of sample n is the gradient of
    its k-th cotangent, J_n^T c_k (for the output basis vectors, the rows of
    the output Jacobian). Per layer vec(dz abar^T), then vec of V's
    gradient."""
    n, k = trace.output.shape
    parts = []
    for layer, abar, d in zip(trace.spec.layers, trace.abar, dz):
        # per sample and cotangent, abar dz^T: vec(dz abar^T) in rows
        per_sample = abar.transpose(2, 0, 1)[:, None] @ d.transpose(3, 2, 1, 0)
        parts.append(per_sample.reshape(n, k, -1))
        jv = layer.input_map_jacobian(d, trace.x)
        if jv is not None:
            parts.append(jv)
    return np.concatenate(parts, axis=-1)


# ---------------------------------------------------------------------------
# per-sample reference path: forward / backward
#
# The batched engine above is what training, factor estimation and the dense
# Fisher run. This path evaluates one sample at a time and stays as the oracle
# that the per-sample output Jacobian, the Monte-Carlo Fisher and the tests
# are built on.


@dataclass
class LayerTrace:
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
        if carry.ndim == 2 and len(layer.in_shape) == 1:
            carry = vec(carry)
        if carry.shape != layer.in_shape:
            raise ShapeMismatch(f"{layer.kind} layer expects {layer.in_shape}, got {carry.shape}")
        if layer.kind == "dense":
            abar = _homogenize_batch(carry.reshape(-1, 1))
            z = lp.wbar @ abar
            a_out = layer.activation.value(z)[:, 0]
            trace.layers.append(LayerTrace(carry, abar, z, z, a_out))
            carry = a_out
        elif layer.kind == "conv2d":
            abar = extract_patches(carry, layer.kernel_radius, layer.grid, layer.padding_value)
            z = lp.wbar @ abar
            a_out = layer.activation.value(z)
            trace.layers.append(LayerTrace(carry, abar, z, z, a_out))
            carry = a_out
        else:
            a = layer.initial_state
            abar = np.empty((layer.hidden_dim + 1, layer.steps))
            z_cols = np.empty((layer.hidden_dim, layer.steps))
            zp_cols = np.empty((layer.hidden_dim, layer.steps))
            for t in range(layer.steps):
                abar_t = _homogenize_batch(a.reshape(-1, 1))
                z_t = lp.wbar @ abar_t
                zp_t = z_t + lp.v @ carry[t].reshape(-1, 1)
                a = layer.activation.value(zp_t)[:, 0]
                abar[:, t] = abar_t[:, 0]
                z_cols[:, t] = z_t[:, 0]
                zp_cols[:, t] = zp_t[:, 0]
            trace.layers.append(LayerTrace(carry, abar, z_cols, zp_cols, a))
            carry = a
    trace.output = vec(carry) if carry.ndim == 2 else carry
    return trace


@dataclass
class BackwardTrace:
    dz: list  # per layer, cotangents of the activation input, laid out as its act_in
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
    dzs = [None] * len(spec.layers)
    grads = [None] * len(spec.layers)
    carry = u
    for i in reversed(range(len(spec.layers))):
        layer, lp, lt = spec.layers[i], params.layers[i], trace.layers[i]
        w = lp.wbar[:, :-1]
        if layer.kind == "dense":
            dz = layer.activation.vjp(lt.act_in, carry.reshape(-1, 1))
            grads[i] = LayerParams(dz @ lt.abar.T)
            if i > 0:
                carry = w.T @ dz[:, 0]
        elif layer.kind == "conv2d":
            da = carry
            if da.ndim == 1:  # flattened grid fed to a dense head or the output
                da = unvec(da, layer.out_channels, layer.num_locations)
            dz = layer.activation.vjp(lt.act_in, da)
            grads[i] = LayerParams(dz @ lt.abar.T)
            if i > 0:
                carry = _fold_cols(w.T @ dz, layer.kernel_radius, layer.grid)
        else:
            da = carry
            dwbar = np.zeros_like(lp.wbar)
            dv = np.zeros_like(lp.v)
            dz = np.empty((layer.hidden_dim, layer.steps))
            for t in reversed(range(layer.steps)):
                dzp = layer.activation.vjp(
                    lt.act_in[:, t].reshape(-1, 1), da.reshape(-1, 1)
                )
                dwbar += dzp @ lt.abar[:, t].reshape(1, -1)
                dv += dzp @ lt.a_in[t].reshape(1, -1)
                dz[:, t] = dzp[:, 0]
                da = w.T @ dzp[:, 0]
            grads[i] = LayerParams(dwbar, dv)
        dzs[i] = dz
        if i > 0 and spec.layers[i - 1].kind == "conv2d" and layer.kind == "dense":
            prev = spec.layers[i - 1]
            carry = unvec(carry, prev.out_channels, prev.num_locations)
    return BackwardTrace(dzs, ParamSet(grads))


# ---------------------------------------------------------------------------
# serialization


def layer_from_dict(d: dict):
    if not isinstance(d, dict):
        raise ValueError(f"a layer must be a JSON object, got {d!r}")
    check_name("layer kind", d.get("kind"), LAYER_KINDS)
    return LAYER_KINDS[d["kind"]].from_dict(d)


def spec_from_dict(d: dict) -> NetworkSpec:
    check_list("layers", d.get("layers"))
    return NetworkSpec([layer_from_dict(ld) for ld in d["layers"]])
