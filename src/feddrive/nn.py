"""Dense feed-forward networks with hand-written reverse-mode gradients and Adam.

A network's parameters are one contiguous vector, ``MlpParams.flat``, and its
``layers`` are weight/bias views into it.  That vector's dtype is the net's
dtype: ``forward`` casts its input to it, and gradients, Adam moments and
copies are made in it.  Nets built from layers (``init_params``,
``MlpParams(layers=...)``, ``mlp_from_parts``) are float64; ``cast_params``
gives a copy in another dtype.

The layer arithmetic exists once, in ``_forward`` and ``_backpropagate``,
which write into given arrays or, where they are given None, into new
ones.  ``forward``, ``backward`` and ``input_gradient`` run them on new
arrays.  ``forward_into`` and ``backward_into`` run them on a
``LayerBuffers``, preallocated per architecture and batch size, so a warm
training update allocates nothing parameter-sized; they write into that
buffer set and nowhere else, and what they return lives there until its
next use.  Both kinds of call make the same ufunc and BLAS calls on the
same values, so they give the same bits.  ``adam_step`` updates its
``params`` and ``state`` in place, and ``soft_update`` its ``target``; no
other function here writes to an argument.  Fixed elementwise formulas,
applied in a fixed order, keep gradient checks and cross-run determinism
exact.  Supported activations: relu, tanh, identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass(frozen=True)
class LayerParams:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)


@dataclass(frozen=True)
class MlpParams:
    """One network's parameters: ``flat`` holds them all, ``layers`` are views into it.

    Building from ``layers`` (directly or by ``dataclasses.replace``) packs
    them into a new vector; ``wrap`` puts views on an existing one.
    """

    layers: tuple[LayerParams, ...]
    activations: tuple[str, ...]
    flat: np.ndarray = field(init=False, repr=False, compare=False)
    layer_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parts = [a for layer in self.layers for a in (np.ravel(layer.weights), layer.bias)]
        sizes = (self.layers[0].weights.shape[1], *(layer.weights.shape[0] for layer in self.layers))
        self._bind(np.concatenate(parts, dtype=np.float64), sizes)

    @classmethod
    def wrap(cls, flat: np.ndarray, layer_sizes, activations) -> "MlpParams":
        """A net whose layers are views into ``flat`` (no copy)."""
        params = object.__new__(cls)
        object.__setattr__(params, "activations", tuple(activations))
        params._bind(flat, layer_sizes)
        return params

    def _bind(self, flat: np.ndarray, layer_sizes) -> None:
        # layer order; within a layer, weights (row-major) then bias
        layers, offset = [], 0
        for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
            w_end = offset + fan_out * fan_in
            weights = flat[offset:w_end].reshape(fan_out, fan_in)
            offset = w_end + fan_out
            layers.append(LayerParams(weights=weights, bias=flat[w_end:offset]))
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "layer_sizes", tuple(layer_sizes))

    @property
    def param_count(self) -> int:
        return self.flat.size

    @property
    def in_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weights.shape[0]


@dataclass(frozen=True)
class ForwardCache:
    values: tuple[np.ndarray, ...]  # the net input, then each layer's output; batch-major
    preacts: tuple[np.ndarray, ...]  # pre-activation of each layer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int


def _check_architecture(layer_sizes, activations) -> None:
    if len(layer_sizes) < 2:
        raise ValueError(f"need at least 2 layer sizes, got {layer_sizes}")
    if len(activations) != len(layer_sizes) - 1:
        raise ValueError(
            f"need {len(layer_sizes) - 1} activations for {len(layer_sizes)} sizes, got {len(activations)}"
        )
    for act in activations:
        if act not in ACTIVATIONS:
            raise ValueError(f"unknown activation {act!r}; expected one of {ACTIVATIONS}")
    if any(size < 1 for size in layer_sizes):
        raise ValueError(f"layer sizes must be >= 1, got {layer_sizes}")


def init_params(layer_sizes: list[int], activations: list[str], seed: int) -> MlpParams:
    """Uniform fan-in init: W ~ U[-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero."""
    _check_architecture(layer_sizes, activations)
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        layers.append(LayerParams(weights=weights, bias=np.zeros(fan_out, dtype=np.float64)))
    return MlpParams(layers=tuple(layers), activations=tuple(activations))


class LayerBuffers:
    """Every array a forward and backward pass of one architecture writes, at one batch size.

    ``values`` and ``preacts`` are laid out as in a ``ForwardCache``, except
    that each activation is applied in place: ``values[i + 1]`` is
    ``preacts[i]`` and holds layer i's output.  Backward reads a
    pre-activation only as a relu's ``> 0`` mask, which the relu leaves as
    it was.  ``values[0]`` holds whatever input the last ``forward_into``
    was given.  ``inputs`` and ``output_gradient`` are spare arrays for a
    caller to assemble a net input or an output gradient in, and ``grad``
    receives ``backward_into``'s parameter gradients.  Each pass through the
    buffers overwrites what the one before left there.
    """

    def __init__(self, layer_sizes, activations, dtype, n: int):
        # One allocation holds every float array here (grad, inputs and
        # output_gradient, then per layer at most an output, an input
        # gradient and a pre-activation gradient), each on a 16-element
        # boundary.  As one block made at agent creation (``DdpgAgent.create``)
        # the set left the paper-size benchmark's peak RSS where it was;
        # separate arrays, or a block made at the first update, raised it by
        # about 2 MB.
        count = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))
        block = np.empty(count + 3 * n * sum(layer_sizes) + 16 * (3 + 3 * len(activations)), dtype)
        pos = 0

        def take(*shape):
            nonlocal pos
            size = math.prod(shape)
            array = block[pos : pos + size].reshape(shape)
            pos += -(-size // 16) * 16
            return array

        self.grad = MlpParams.wrap(take(count), layer_sizes, activations)
        self.inputs = take(n, layer_sizes[0])
        self.output_gradient = take(n, layer_sizes[-1])
        self.preacts = [take(n, fan_out) for fan_out in layer_sizes[1:]]
        self.values = [None, *self.preacts]
        # per layer: the relu mask, the pre-activation gradient and the input
        # gradient; below the output layer a relu's pre-activation gradient
        # overwrites the gradient it is computed from, elementwise
        g_ins = [take(n, fan_in) for fan_in in layer_sizes[:-1]]
        self.scratch = []
        for i, (fan_out, act) in enumerate(zip(layer_sizes[1:], activations)):
            if act == "identity":
                gz = None
            elif act == "relu" and i + 1 < len(g_ins):
                gz = g_ins[i + 1]
            else:
                gz = take(n, fan_out)
            self.scratch.append((np.empty((n, fan_out), bool) if act == "relu" else None, gz, g_ins[i]))


_ALLOCATE = (None, None, None)  # a layer's scratch in an allocating backward: every array new


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch (n, in_dim) through the net; cache is sufficient for backward."""
    x = np.asarray(x, dtype=params.flat.dtype)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(f"expected input of shape (n, {params.in_dim}), got {x.shape}")
    depth = len(params.layers)
    values, preacts = [x] + [None] * depth, [None] * depth
    out = _forward(params, values, preacts)
    return out, ForwardCache(values=tuple(values), preacts=tuple(preacts))


def forward_into(params: MlpParams, bufs: LayerBuffers, x: np.ndarray) -> np.ndarray:
    """``forward`` through ``bufs``; the output is a view into them, valid until their next use."""
    bufs.values[0] = np.asarray(x, dtype=params.flat.dtype)
    return _forward(params, bufs.values, bufs.preacts)


def _forward(params: MlpParams, values: list, preacts: list) -> np.ndarray:
    """The forward layer arithmetic on ``values[0]``; fills ``values[1:]`` and ``preacts``.

    Each layer writes into the arrays already there, or into new ones where
    an entry is None; where ``values[i + 1]`` is ``preacts[i]`` the
    activation is applied in place.  An identity layer's output is its
    pre-activation array.
    """
    x = values[0]
    for i, (layer, act) in enumerate(zip(params.layers, params.activations)):
        z = preacts[i] = np.matmul(x, layer.weights.T, out=preacts[i])
        z += layer.bias
        if act == "relu":
            x = np.maximum(z, 0.0, out=values[i + 1])
        elif act == "tanh":
            x = np.tanh(z, out=values[i + 1])
        else:
            x = z
        values[i + 1] = x
    return x


def backward(params: MlpParams, cache: ForwardCache, output_gradient: np.ndarray) -> tuple[MlpParams, np.ndarray]:
    """Exact gradients of sum(output * output_gradient) w.r.t. params and input.

    The parameter gradient is a new ``MlpParams`` laid out like ``params``.
    """
    grad = MlpParams.wrap(np.empty_like(params.flat), params.layer_sizes, params.activations)
    g = _output_gradient(params, cache.preacts, output_gradient)
    return grad, _backpropagate(params, cache.values, cache.preacts, g, grad, [_ALLOCATE] * len(params.layers))


def input_gradient(params: MlpParams, cache: ForwardCache, output_gradient: np.ndarray) -> np.ndarray:
    """``backward``'s gradient w.r.t. the input, without the parameter gradients."""
    g = _output_gradient(params, cache.preacts, output_gradient)
    return _backpropagate(params, cache.values, cache.preacts, g, None, [_ALLOCATE] * len(params.layers))


def backward_into(
    params: MlpParams, bufs: LayerBuffers, output_gradient: np.ndarray, grad: bool = True, input_grad: bool = False
) -> np.ndarray | None:
    """``backward`` through the last ``forward_into`` on ``bufs``, in them.

    Writes the parameter gradients into ``bufs.grad`` if ``grad``.  Returns
    the input gradient, a view into ``bufs`` valid until their next use, if
    ``input_grad``; else the first layer's input gradient is not computed.
    """
    g = _output_gradient(params, bufs.preacts, output_gradient)
    return _backpropagate(params, bufs.values, bufs.preacts, g, bufs.grad if grad else None, bufs.scratch, input_grad)


def _output_gradient(params: MlpParams, preacts, output_gradient: np.ndarray) -> np.ndarray:
    g = np.asarray(output_gradient, dtype=params.flat.dtype)
    if g.shape != preacts[-1].shape:
        raise ValueError(f"output gradient shape {g.shape} != output shape {preacts[-1].shape}")
    return g


def _backpropagate(
    params: MlpParams, values, preacts, g: np.ndarray, grad: MlpParams | None, scratch, input_grad: bool = True
) -> np.ndarray | None:
    """The backward layer arithmetic, from the output gradient ``g``.

    Writes the parameter gradients into ``grad`` unless it is None, and
    returns the input gradient if ``input_grad`` (else None).  ``scratch[i]``
    holds layer i's relu mask, pre-activation gradient and input gradient
    arrays; a None entry makes a new array.
    """
    for i in reversed(range(len(params.layers))):
        mask, gz, g_in = scratch[i]
        act = params.activations[i]
        if act == "relu":
            gz = np.multiply(g, np.greater(preacts[i], 0.0, out=mask), out=gz)
        elif act == "tanh":
            gz = np.square(values[i + 1], out=gz)  # tanh' = 1 - tanh^2, from the cached tanh
            np.subtract(1.0, gz, out=gz)
            np.multiply(g, gz, out=gz)
        else:
            gz = g
        if grad is not None:
            np.matmul(gz.T, values[i], out=grad.layers[i].weights)
            np.add.reduce(gz, axis=0, out=grad.layers[i].bias)
        if i == 0 and not input_grad:
            return None
        g = np.matmul(gz, params.layers[i].weights, out=g_in)
    return g


def init_adam(params: MlpParams) -> AdamState:
    return AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), t=0)


ADAM_CHUNK = 32768  # elements per pass, so a chunk's operands stay in cache between passes


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of ``params.flat`` and ``state``, in place.

    Raises on non-finite gradients before anything is written.  The vectors
    are walked in chunks; each element goes through the same operations, in
    the same order, as in one pass over whole vectors.
    """
    if not np.isfinite(grads.flat).all():
        raise ValueError("non-finite gradient in adam_step (training diverged)")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    scratch = np.empty((2, min(ADAM_CHUNK, params.param_count)), dtype=params.flat.dtype)
    for lo in range(0, params.param_count, ADAM_CHUNK):
        g, m, v, theta = (a[lo : lo + ADAM_CHUNK] for a in (grads.flat, state.m, state.v, params.flat))
        step, denom = scratch[:, : g.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=step)
        v *= b2
        v += np.multiply(np.multiply(g, 1.0 - b2, out=step), g, out=step)
        np.multiply(np.divide(m, c1, out=step), lr, out=step)  # lr * m_hat
        np.sqrt(np.divide(v, c2, out=denom), out=denom)  # sqrt(v_hat)
        denom += ADAM_EPS
        theta -= np.divide(step, denom, out=step)


def soft_update(target: MlpParams, source: MlpParams, tau: float) -> None:
    """Set ``target`` to the elementwise combination tau*source + (1-tau)*target, in place.

    Walked in chunks like ``adam_step``, so the ``tau * source`` temporary
    is one chunk, with the same operations per element as on whole vectors.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must lie in [0, 1]")
    t, s = target.flat, source.flat
    if t.shape != s.shape:
        raise ValueError(f"shape mismatch: target {t.shape} vs source {s.shape}")
    for lo in range(0, t.size, ADAM_CHUNK):
        t_part = t[lo : lo + ADAM_CHUNK]
        t_part *= 1.0 - tau
        t_part += tau * s[lo : lo + ADAM_CHUNK]


def flatten_params(params: MlpParams) -> np.ndarray:
    """A copy of ``params.flat``: weights (row-major) then bias, per layer."""
    return params.flat.copy()


def unflatten_params(template: MlpParams, vector: np.ndarray) -> MlpParams:
    """A new net holding a copy of ``vector``; the template supplies shapes, activations and dtype."""
    return _wrap_copy(vector, template.layer_sizes, template.activations, template.flat.dtype)


def cast_params(params: MlpParams, dtype) -> MlpParams:
    """A copy of ``params`` whose vector is ``params.flat`` converted to ``dtype``."""
    return _wrap_copy(params.flat, params.layer_sizes, params.activations, dtype)


def _wrap_copy(vector: np.ndarray, layer_sizes, activations, dtype) -> MlpParams:
    count = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))
    vector = np.array(vector, dtype=dtype)
    if vector.shape != (count,):
        raise ValueError(f"expected vector of length {count}, got shape {vector.shape}")
    return MlpParams.wrap(vector, layer_sizes, activations)


# ------------------------------------------------------- checkpoint metadata


def mlp_meta(params: MlpParams) -> dict:
    return {"layer_sizes": list(params.layer_sizes), "activations": list(params.activations)}


def mlp_from_parts(meta: dict, flat: np.ndarray) -> MlpParams:
    """A net holding a copy of ``flat``, checked against the stored architecture."""
    sizes = [int(s) for s in meta["layer_sizes"]]
    acts = [str(a) for a in meta["activations"]]
    _check_architecture(sizes, acts)
    return _wrap_copy(flat, sizes, acts, np.float64)
