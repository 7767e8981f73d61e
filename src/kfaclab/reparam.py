"""Affine changes of basis of a network's activation and pre-activation spaces.

A NetworkReparam holds one invertible affine map per activation space
(index 0 is the input space, index i the output space of layer i) and one
per pre-activation space. Activation maps are stored in the old-to-new
direction (a' = B a + c); pre-activation maps in the new-to-old direction
(z = B z' + c). With that convention the transformed parameters are

    W' = Phi^-1 W Omega^-1,    b' = Phi^-1 (b - tau) - W' gamma

per layer (conv layers lift Omega over patch offsets, recurrent layers use
their single shared hidden-space map), the activation gets wrapped as
phi'(z) = Omega phi(Phi z + tau) + gamma, and the two networks compute the
same function: outputs agree after mapping through the last activation map.
The maps are solved once, by NetworkReparam.inverse; the twin's parameters
are then products with the inverse maps, made by the class (ParamMap) that
maps the twin's parameters back.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (NonFinite, ShapeMismatch, SingularMatrix, check_keys, check_list,
                     check_numbers)
from .linalg import kron, solve
from .nets import AffineWrapped, LayerParams, NetworkSpec, ParamSet


@dataclass
class AffineMap:
    """x -> b @ x + c with invertible b."""

    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        self.c = np.asarray(self.c, dtype=np.float64)
        if self.b.ndim != 2 or self.b.shape[0] != self.b.shape[1]:
            raise ShapeMismatch("AffineMap needs a square matrix")
        if self.c.shape != (self.b.shape[0],):
            raise ShapeMismatch("AffineMap offset length != matrix size")

    @property
    def dim(self) -> int:
        return self.b.shape[0]

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(np.eye(n), np.zeros(n))

    def is_identity(self) -> bool:
        return np.array_equal(self.b, np.eye(self.dim)) and not self.c.any()

    def apply(self, x) -> np.ndarray:
        """The map on the last axis of x, so x may stack vectors; each gets
        the bits of a lone b @ x + c (x @ b.T would not)."""
        return (self.b @ np.asarray(x, dtype=np.float64)[..., None])[..., 0] + self.c

    def apply_cols(self, x) -> np.ndarray:
        return self.b @ np.asarray(x, dtype=np.float64) + self.c[:, None]

    def inverse(self) -> "AffineMap":
        binv = solve(self.b, np.eye(self.dim))
        return AffineMap(binv, -(binv @ self.c))

    def after(self, other: "AffineMap") -> "AffineMap":
        """self compose other: x -> self(other(x))."""
        return AffineMap(self.b @ other.b, self.b @ other.c + self.c)

    def homogeneous(self) -> np.ndarray:
        n = self.dim
        out = np.zeros((n + 1, n + 1))
        out[:n, :n] = self.b
        out[:n, n] = self.c
        out[n, n] = 1.0
        return out

    def lift(self, copies: int) -> "AffineMap":
        """The same map applied to each of `copies` stacked blocks."""
        if copies == 1:
            return self
        return AffineMap(kron(np.eye(copies), self.b), np.tile(self.c, copies))


@dataclass
class NetworkReparam:
    activation_maps: list  # one per activation space, input space first
    preactivation_maps: list  # one per layer

    def __post_init__(self):
        if len(self.activation_maps) != len(self.preactivation_maps) + 1:
            raise ShapeMismatch("need one more activation map than layers")

    @property
    def num_layers(self) -> int:
        return len(self.preactivation_maps)

    def inverse(self) -> "NetworkReparam":
        """The inverse maps, the only solves made with a reparam's maps:
        activation maps first, each solved by its B, then pre-activation
        maps, each solved in homogeneous form [[B, c], [0, 1]]. Raises
        NonFinite or SingularMatrix, naming the map, at the first map whose
        offset is not finite or whose solve fails linalg.solve's pivot rule."""
        return NetworkReparam(
            [_inverted(f"activation map {i}", m, False)
             for i, m in enumerate(self.activation_maps)],
            [_inverted(f"preactivation map {i}", m, True)
             for i, m in enumerate(self.preactivation_maps)],
        )

    def in_map(self, i: int) -> AffineMap:
        return self.activation_maps[i]

    def out_map(self, i: int) -> AffineMap:
        return self.activation_maps[i + 1]

    def pre_map(self, i: int) -> AffineMap:
        return self.preactivation_maps[i]


def _inverted(what: str, m: AffineMap, homogeneous: bool) -> AffineMap:
    """m's inverse, solved by m.b, or in homogeneous form; an error raised
    again with what, the map's name, in front of its message."""
    try:
        if not np.isfinite(m.c).all():
            raise NonFinite("offset has non-finite entries")
        if not homogeneous:
            return m.inverse()
        h = solve(m.homogeneous(), np.eye(m.dim + 1))
    except (NonFinite, SingularMatrix) as exc:
        raise type(exc)(f"{what}: {exc}") from exc
    return AffineMap(h[:-1, :-1], h[:-1, -1])


def identity_reparam(spec: NetworkSpec) -> NetworkReparam:
    act_dims, pre_dims = space_dims(spec)
    return NetworkReparam(
        [AffineMap.identity(d) for d in act_dims],
        [AffineMap.identity(d) for d in pre_dims],
    )


def compose(s: NetworkReparam, r: NetworkReparam) -> NetworkReparam:
    """The reparam equivalent to applying r first and then s.

    Activation maps compose as s o r; pre-activation maps are stored in the
    opposite direction, so they compose as r o s.
    """
    return NetworkReparam(
        [sm.after(rm) for sm, rm in zip(s.activation_maps, r.activation_maps)],
        [rm.after(sm) for sm, rm in zip(s.preactivation_maps, r.preactivation_maps)],
    )


def space_dims(spec: NetworkSpec) -> tuple:
    """Local dimensions of the activation spaces (input first) and the
    pre-activation spaces. Conv spaces count channels, not grid cells."""
    pre = [layer.out_space for layer in spec.layers]
    return [spec.layers[0].in_space] + pre, pre


def check_dims(spec: NetworkSpec, r: NetworkReparam) -> None:
    act, pre = space_dims(spec)
    got_act = [m.dim for m in r.activation_maps]
    got_pre = [m.dim for m in r.preactivation_maps]
    if got_act != act or got_pre != pre:
        raise ShapeMismatch(
            f"reparam dims {got_act}/{got_pre} do not match network {act}/{pre}"
        )
    if spec.layers[0].fixed_input_basis and not r.activation_maps[0].is_identity():
        raise ShapeMismatch("sequence-input space must keep the identity map")


# ---------------------------------------------------------------------------
# parameter transforms


def _homogeneous_rows(wbar) -> np.ndarray:
    """[W]_H: wbar with the row (0 ... 0 1) appended."""
    n_out, n_in1 = wbar.shape
    wh = np.zeros((n_out + 1, n_in1))
    wh[:n_out] = wbar
    wh[n_out, n_in1 - 1] = 1.0
    return wh


def _layer_in_map(r: NetworkReparam, i: int, lp: LayerParams) -> AffineMap:
    """Effective map on the stacked input coordinates of layer i.

    A recurrent layer (the one with an input map V) reads the hidden space
    it writes. Conv layers and dense layers fed by a flattened grid see
    several copies of the local activation space; the stored per-space map
    lifts over the copies, whose count falls out of the weight shape.
    """
    width = lp.wbar.shape[1] - 1
    if lp.v is not None:
        if r.out_map(i).dim != width:
            raise ShapeMismatch("hidden-space map does not fit recurrent layer")
        return r.out_map(i)
    local = r.in_map(i)
    copies, rem = divmod(width, local.dim)
    if rem:
        raise ShapeMismatch(
            f"layer {i} input width {width} is not a multiple of "
            f"the space dimension {local.dim}"
        )
    return local.lift(copies)


def transform_params(params: ParamSet, r_inv: NetworkReparam) -> ParamSet:
    """Parameters of the equivalent network in the new bases of r, given
    r_inv = r.inverse(): [W']_H = [Phi^-1]_H [W]_H [Omega^-1]_H and
    V' = Phi^-1 V, by multiplication only."""
    return ParamMap(r_inv, params).apply(params)


class ParamMap:
    """Parameters shaped like params, mapped through r by multiplication
    only: [W]_H = [Phi]_H [W']_H [Omega]_H and V = Phi V'. This maps the twin
    made by r back; with r.inverse() as r, it makes the twin. The homogeneous
    maps depend on r and the shapes alone, so they are built here once and
    reused for every parameter set mapped.

    Nothing is inverted or solved, so finite but huge parameters come back
    as inf or NaN instead of raising.
    """

    def __init__(self, r: NetworkReparam, params: ParamSet):
        if len(params.layers) != r.num_layers:
            raise ShapeMismatch("reparam layer count does not match params")
        self.maps = [
            (r.pre_map(i).homogeneous(), r.pre_map(i).b, _layer_in_map(r, i, lp).homogeneous())
            for i, lp in enumerate(params.layers)
        ]

    def apply(self, params: ParamSet) -> ParamSet:
        out = []
        for (pre_h, pre_b, in_h), lp in zip(self.maps, params.layers, strict=True):
            wbar = (pre_h @ _homogeneous_rows(lp.wbar) @ in_h)[: lp.wbar.shape[0]]
            out.append(LayerParams(wbar, None if lp.v is None else pre_b @ lp.v))
        return ParamSet(out)


def transform_activation(act, omega: AffineMap, phi: AffineMap):
    """Wrap an activation for new bases: phi'(z) = Omega act(Phi z + tau) + gamma.

    Wrapping an already-wrapped activation collapses into a single wrap of
    its base, so repeated transforms stay flat.
    """
    if omega.is_identity() and phi.is_identity():
        return act
    if isinstance(act, AffineWrapped):
        return AffineWrapped(act.base, omega.after(act.outer), act.inner.after(phi))
    return AffineWrapped(act, omega, phi)


def transform_network(spec: NetworkSpec, params: ParamSet, r: NetworkReparam,
                      r_inv: NetworkReparam):
    """The equivalent network in the new bases of r: (spec, params) pair;
    r_inv is r.inverse().

    Activations get wrapped, conv padding points and recurrent initial
    states get remapped, parameters transform per layer.
    """
    check_dims(spec, r)
    new_layers = [
        layer.rebased(
            transform_activation(layer.activation, r.out_map(i), r.pre_map(i)),
            r.in_map(i),
            r.out_map(i),
        )
        for i, layer in enumerate(spec.layers)
    ]
    return NetworkSpec(new_layers), transform_params(params, r_inv)


def transform_input(spec: NetworkSpec, r: NetworkReparam, x) -> np.ndarray:
    """Network inputs expressed in the new input-space basis: one input, or
    a stack of them, (N, *in_shape), in one call."""
    return spec.layers[0].map_input(r.activation_maps[0], x)


def output_space_map(spec: NetworkSpec, r: NetworkReparam) -> AffineMap:
    """Effective map on the flattened network output (lifts conv-last grids)."""
    return r.activation_maps[-1].lift(spec.layers[-1].out_copies)


# ---------------------------------------------------------------------------
# generators and presets


def random_reparam(
    spec: NetworkSpec,
    rng_seed: int,
    conditioning_cap: float = 100.0,
    identity_output: bool = False,
) -> NetworkReparam:
    """Random invertible maps with condition number at most conditioning_cap.

    Matrices are built as Q1 diag(s) Q2^T with singular values s drawn from
    [cap^-1/2, cap^1/2], so cap = 1 gives orthogonal maps. Deterministic per
    seed. identity_output pins the last activation-space map to the identity
    (needed whenever the output metric is not a Fisher pullback).

    Each map draws, in turn, the normals of Q1 and Q2, then s, then its
    offset, activation maps first; a pinned map draws too. The QRs and
    products then run once per distinct size over the stacked draws, with
    the bits of one QR and one product per matrix.
    """
    if conditioning_cap < 1.0:
        raise ValueError("conditioning_cap must be at least 1")
    rng = np.random.default_rng(rng_seed)
    act_dims, pre_dims = space_dims(spec)
    dims = act_dims + pre_dims
    lo, hi = conditioning_cap**-0.5, conditioning_cap**0.5
    draws = [
        (rng.standard_normal((2, n, n)), rng.uniform(lo, hi, n), 0.5 * rng.standard_normal(n))
        for n in dims
    ]
    b = [None] * len(dims)
    for n in set(dims):
        which = [i for i, d in enumerate(dims) if d == n]
        q, upper = np.linalg.qr(np.stack([draws[i][0] for i in which]))
        q *= np.sign(np.diagonal(upper, axis1=-2, axis2=-1))[..., None, :]
        diag_s = np.stack([draws[i][1] for i in which])[:, :, None] * np.eye(n)
        for i, m in zip(which, q[:, 0] @ diag_s @ q[:, 1].swapaxes(1, 2)):
            b[i] = m
    maps = [AffineMap(m, c) for m, (_, _, c) in zip(b, draws)]
    act_maps, pre_maps = maps[: len(act_dims)], maps[len(act_dims):]
    if spec.layers[0].fixed_input_basis:
        act_maps[0] = AffineMap.identity(act_dims[0])
    if identity_output:
        act_maps[-1] = AffineMap.identity(act_dims[-1])
    return NetworkReparam(act_maps, pre_maps)


def logistic_to_tanh(spec: NetworkSpec) -> NetworkReparam:
    """Basis change under which wrapped logistic activations evaluate as tanh.

    Built from tanh(x) = 2 logistic(2x) - 1: every activation space maps by
    a -> 2a - 1 and every pre-activation space by z -> 2z (offsets on the
    activation side; putting them on the pre-activation side instead gives a
    different but equally valid identification). The input space keeps its
    coordinates.
    """
    act_dims, pre_dims = space_dims(spec)
    act_maps = [AffineMap.identity(act_dims[0])]
    act_maps += [AffineMap(2.0 * np.eye(n), -np.ones(n)) for n in act_dims[1:]]
    pre_maps = [AffineMap(2.0 * np.eye(n), np.zeros(n)) for n in pre_dims]
    return NetworkReparam(act_maps, pre_maps)


PRESETS = {"logistic-to-tanh": logistic_to_tanh}


# ---------------------------------------------------------------------------
# serialization


def _map_to_dict(m: AffineMap) -> dict:
    return {"B": m.b.tolist(), "c": m.c.tolist()}


def _map_from_dict(what: str, d: dict) -> AffineMap:
    check_keys(what, d, None, ("B", "c"))
    check_numbers(f"{what} B", d["B"], 2)
    check_numbers(f"{what} c", d["c"], 1)
    return AffineMap(d["B"], d["c"])


def reparam_to_dict(r: NetworkReparam) -> dict:
    return {
        "activation_maps": [_map_to_dict(m) for m in r.activation_maps],
        "preactivation_maps": [_map_to_dict(m) for m in r.preactivation_maps],
    }


def reparam_from_dict(d: dict) -> NetworkReparam:
    check_keys("reparam file", d, None, ("activation_maps", "preactivation_maps"))
    check_list("reparam file activation_maps", d["activation_maps"])
    check_list("reparam file preactivation_maps", d["preactivation_maps"])
    return NetworkReparam(
        [_map_from_dict(f"reparam file activation map {i}", m)
         for i, m in enumerate(d["activation_maps"])],
        [_map_from_dict(f"reparam file preactivation map {i}", m)
         for i, m in enumerate(d["preactivation_maps"])],
    )
