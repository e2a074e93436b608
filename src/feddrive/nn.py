"""Dense feed-forward networks with hand-written reverse-mode gradients and Adam.

A network's parameters are one contiguous vector, ``MlpParams.flat``, and its
``layers`` are weight/bias views into it.  That vector's dtype is the net's
dtype: ``forward`` casts its input to it, and gradients, Adam moments and
copies are made in it.  Nets built from layers (``init_params``,
``MlpParams(layers=...)``, ``mlp_from_parts``) are float64; ``cast_params``
gives a copy in another dtype.
``adam_step`` updates its ``params`` and ``state`` in place; no other function
here writes to an argument.  Fixed elementwise formulas, applied in a fixed
order, keep gradient checks and cross-run determinism exact.  Supported
activations: relu, tanh, identity.
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

    def __post_init__(self):
        parts = [a for layer in self.layers for a in (np.ravel(layer.weights), layer.bias)]
        self._bind(np.concatenate(parts, dtype=np.float64), self.layer_sizes)

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

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.in_dim, *(layer.weights.shape[0] for layer in self.layers))

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


def forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run a batch (n, in_dim) through the net; cache is sufficient for backward."""
    x = np.asarray(x, dtype=params.flat.dtype)
    if x.ndim != 2 or x.shape[1] != params.in_dim:
        raise ValueError(f"expected input of shape (n, {params.in_dim}), got {x.shape}")
    values, preacts = [x], []
    for layer, act in zip(params.layers, params.activations):
        z = x @ layer.weights.T
        z += layer.bias
        preacts.append(z)
        if act == "relu":
            x = np.maximum(z, 0.0)
        elif act == "tanh":
            x = np.tanh(z)
        else:
            x = z
        values.append(x)
    return x, ForwardCache(values=tuple(values), preacts=tuple(preacts))


def backward(params: MlpParams, cache: ForwardCache, output_gradient: np.ndarray) -> tuple[MlpParams, np.ndarray]:
    """Exact gradients of sum(output * output_gradient) w.r.t. params and input.

    The parameter gradient is a new ``MlpParams`` laid out like ``params``.
    """
    grad = MlpParams.wrap(np.empty_like(params.flat), params.layer_sizes, params.activations)
    return grad, _backpropagate(params, cache, output_gradient, grad)


def input_gradient(params: MlpParams, cache: ForwardCache, output_gradient: np.ndarray) -> np.ndarray:
    """``backward``'s gradient w.r.t. the input, without the parameter gradients."""
    return _backpropagate(params, cache, output_gradient, None)


def _backpropagate(params: MlpParams, cache: ForwardCache, output_gradient: np.ndarray, grad: MlpParams | None) -> np.ndarray:
    """Input gradient; also writes the parameter gradients into ``grad`` unless it is None."""
    g = np.asarray(output_gradient, dtype=params.flat.dtype)
    if g.shape != cache.preacts[-1].shape:
        raise ValueError(f"output gradient shape {g.shape} != output shape {cache.preacts[-1].shape}")
    for i in reversed(range(len(params.layers))):
        act = params.activations[i]
        if act == "relu":
            gz = g * (cache.preacts[i] > 0.0)
        elif act == "tanh":
            gz = g * (1.0 - cache.values[i + 1] ** 2)  # tanh' from the cached tanh
        else:
            gz = g
        if grad is not None:
            np.matmul(gz.T, cache.values[i], out=grad.layers[i].weights)
            np.sum(gz, axis=0, out=grad.layers[i].bias)
        g = gz @ params.layers[i].weights
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
    if not np.all(np.isfinite(grads.flat)):
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
