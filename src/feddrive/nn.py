"""Dense feed-forward networks with hand-written reverse-mode gradients and Adam.

A network's parameters are one contiguous vector, ``MlpParams.flat``, and its
``layers`` are weight/bias views into it.  That vector's dtype is the net's
dtype: ``forward`` casts its input to it, and gradients, Adam moments and
copies are made in it.  Nets built from layers (``init_params``,
``MlpParams(layers=...)``, ``mlp_from_parts``) are float64; ``cast_params``
gives a copy in another dtype.

The layer arithmetic exists once, in ``forward_into`` and ``backward_into``,
and the arrays of one pass live in one container, a ``LayerBuffers`` made
per architecture and batch size.  Both functions write into the buffer set
they are given and nowhere else, and what they return lives there until
its next use, so a caller that keeps its sets allocates nothing
parameter-sized per pass.  ``ddpg`` keeps one set per architecture, dtype
and batch size, for batch-1 actions and batch-64 updates alike, and shares
it between nets; that is safe because training and evaluation run
serially.  ``forward`` runs ``forward_into`` on a fresh set and returns the
set as its cache; ``backward`` and ``input_gradient`` run ``backward_into``
on that cache.  These fresh-buffer calls are the reference that reused
buffers are checked against: the same ufunc and BLAS calls run on the same
values, so they give the same bits.

``adam_step`` updates its ``params`` and ``state`` in place, and
``soft_update`` its ``target``; no other function here writes to an
argument.  Fixed elementwise formulas, applied in a fixed order, keep
gradient checks and cross-run determinism exact.  Supported activations:
relu, tanh, identity.
"""

from __future__ import annotations

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


def count_params(layer_sizes) -> int:
    """The number of weights and biases of a net with these layer sizes."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]))


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

    ``values`` holds the input the last ``forward_into`` was given, then
    each layer's output, batch-major, and ``preacts`` each layer's
    pre-activation.  ``inputs`` and ``output_gradient`` are
    spare arrays for a caller to assemble a net input or an output gradient
    in, ``grad`` receives ``backward_into``'s parameter gradients, and
    ``scratch`` holds each layer's relu mask, pre-activation gradient and
    input gradient.  Each pass through the buffers overwrites what the one
    before left there.
    """

    def __init__(self, layer_sizes, activations, dtype, n: int):
        self.grad = MlpParams.wrap(np.empty(count_params(layer_sizes), dtype), layer_sizes, activations)
        self.inputs = np.empty((n, layer_sizes[0]), dtype)
        self.output_gradient = np.empty((n, layer_sizes[-1]), dtype)
        self.preacts = [np.empty((n, fan_out), dtype) for fan_out in layer_sizes[1:]]
        # an identity layer's output is its pre-activation, as in ``forward_into``
        self.values = [None, *(z if a == "identity" else np.empty_like(z) for z, a in zip(self.preacts, activations))]
        self.scratch = [
            (
                np.empty((n, fan_out), bool) if act == "relu" else None,
                None if act == "identity" else np.empty((n, fan_out), dtype),
                np.empty((n, fan_in), dtype),
            )
            for fan_in, fan_out, act in zip(layer_sizes, layer_sizes[1:], activations)
        ]


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, LayerBuffers]:
    """Run a batch (n, in_dim) through the net on fresh buffers; they are the cache ``backward`` needs."""
    x = np.asarray(x, dtype=params.flat.dtype)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(f"expected input of shape (n, {params.in_dim}), got {x.shape}")
    cache = LayerBuffers(params.layer_sizes, params.activations, x.dtype, x.shape[0])
    return forward_into(params, cache, x), cache


def forward_into(params: MlpParams, bufs: LayerBuffers, x: np.ndarray) -> np.ndarray:
    """Run a batch (n, in_dim) through the net in ``bufs``; the output is a view into them, valid until reused.

    An identity layer's output is its pre-activation array.
    """
    values, preacts = bufs.values, bufs.preacts
    x = values[0] = np.asarray(x, dtype=params.flat.dtype)
    for i, (layer, act) in enumerate(zip(params.layers, params.activations)):
        z = np.matmul(x, layer.weights.T, out=preacts[i])
        z += layer.bias
        if act == "relu":
            x = np.maximum(z, 0.0, out=values[i + 1])
        elif act == "tanh":
            x = np.tanh(z, out=values[i + 1])
        else:
            x = z
    return x


def backward(params: MlpParams, cache: LayerBuffers, output_gradient: np.ndarray) -> tuple[MlpParams, np.ndarray]:
    """Exact gradients of sum(output * output_gradient) w.r.t. params and input.

    Both live in ``cache``: the parameter gradient is ``cache.grad``, laid
    out like ``params``, and each backward through the cache overwrites them.
    """
    return cache.grad, backward_into(params, cache, output_gradient, input_grad=True)


def input_gradient(params: MlpParams, cache: LayerBuffers, output_gradient: np.ndarray) -> np.ndarray:
    """``backward``'s gradient w.r.t. the input, without the parameter gradients."""
    return backward_into(params, cache, output_gradient, grad=False, input_grad=True)


def backward_into(
    params: MlpParams, bufs: LayerBuffers, output_gradient: np.ndarray, grad: bool = True, input_grad: bool = False
) -> np.ndarray | None:
    """Exact gradients of sum(output * output_gradient), through the last ``forward_into`` on ``bufs``, in them.

    Writes the parameter gradients into ``bufs.grad`` if ``grad``.  Returns
    the input gradient, a view into ``bufs`` valid until their next use, if
    ``input_grad``; else the first layer's input gradient is not computed.
    """
    values, preacts = bufs.values, bufs.preacts
    g = np.asarray(output_gradient, dtype=params.flat.dtype)
    if g.shape != preacts[-1].shape:
        raise ValueError(f"output gradient shape {g.shape} != output shape {preacts[-1].shape}")
    for i in reversed(range(len(params.layers))):
        mask, gz, g_in = bufs.scratch[i]
        act = params.activations[i]
        if act == "relu":
            gz = np.multiply(g, np.greater(preacts[i], 0.0, out=mask), out=gz)
        elif act == "tanh":
            gz = np.square(values[i + 1], out=gz)  # tanh' = 1 - tanh^2, from the cached tanh
            np.subtract(1.0, gz, out=gz)
            np.multiply(g, gz, out=gz)
        else:
            gz = g
        if grad:
            np.matmul(gz.T, values[i], out=bufs.grad.layers[i].weights)
            np.add.reduce(gz, axis=0, out=bufs.grad.layers[i].bias)
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
    count = count_params(layer_sizes)
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
