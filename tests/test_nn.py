import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feddrive import nn
from feddrive.container import ContainerError, load_container, save_container


def small_net(seed=0, sizes=(6, 8, 1), acts=("relu", "tanh")):
    return nn.init_params(list(sizes), list(acts), seed=seed)


# --------------------------------------------------------------------- init


def test_init_deterministic():
    a = nn.init_params([6, 400, 300, 1], ["relu", "relu", "tanh"], seed=5)
    b = nn.init_params([6, 400, 300, 1], ["relu", "relu", "tanh"], seed=5)
    assert np.array_equal(nn.flatten_params(a), nn.flatten_params(b))
    c = nn.init_params([6, 400, 300, 1], ["relu", "relu", "tanh"], seed=6)
    assert not np.array_equal(nn.flatten_params(a), nn.flatten_params(c))


def test_init_biases_zero():
    p = nn.init_params([2, 3], ["identity"], seed=0)
    assert np.array_equal(p.layers[0].bias, np.zeros(3))


def test_init_weight_bounds():
    p = nn.init_params([16, 8], ["relu"], seed=1)
    assert np.all(np.abs(p.layers[0].weights) <= 1.0 / 4.0)


def test_default_architecture_param_count():
    # 6*400+400 + 400*300+300 + 300*1+1
    p = nn.init_params([6, 400, 300, 1], ["relu", "relu", "tanh"], seed=0)
    assert p.param_count == 123_401
    assert nn.flatten_params(p).shape == (123_401,)
    assert p.layer_sizes == (6, 400, 300, 1)


@pytest.mark.parametrize(
    "sizes,acts",
    [([6], ["relu"]), ([6, 4], ["relu", "tanh"]), ([6, 4], ["softplus"]), ([6, 0, 1], ["relu", "tanh"])],
)
def test_init_validation(sizes, acts):
    with pytest.raises(ValueError):
        nn.init_params(sizes, acts, seed=0)


# ------------------------------------------------------------------ forward


def test_forward_zero_net():
    p = small_net(sizes=(3, 2), acts=("identity",))
    zero = nn.unflatten_params(p, np.zeros(p.param_count))
    y, _ = nn.forward(zero, np.ones((4, 3)))
    assert np.array_equal(y, np.zeros((4, 2)))


def test_forward_affine_identity():
    p = nn.MlpParams(
        layers=(nn.LayerParams(weights=np.array([[2.0]]), bias=np.array([1.0])),),
        activations=("identity",),
    )
    y, _ = nn.forward(p, np.array([[3.0]]))
    assert y[0, 0] == 7.0


def test_forward_relu():
    p = nn.MlpParams(
        layers=(nn.LayerParams(weights=np.eye(2), bias=np.zeros(2)),),
        activations=("relu",),
    )
    y, _ = nn.forward(p, np.array([[-1.0, 2.0]]))
    assert np.array_equal(y, np.array([[0.0, 2.0]]))


def test_forward_width_mismatch():
    with pytest.raises(ValueError, match="shape"):
        nn.forward(small_net(), np.ones((2, 5)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_tanh_head_bounded(seed):
    p = small_net(seed=seed)
    rng = np.random.default_rng(seed)
    y, _ = nn.forward(p, rng.normal(scale=10.0, size=(8, 6)))
    assert np.all(np.abs(y) <= 1.0)


# ----------------------------------------------------------------- backward


def fd_gradient(params, x, g_out, h=1e-5):
    """Central finite differences of sum(forward(params, x) * g_out)."""
    flat = nn.flatten_params(params)
    out = np.zeros_like(flat)
    for i in range(len(flat)):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        yu, _ = nn.forward(nn.unflatten_params(params, up), x)
        yd, _ = nn.forward(nn.unflatten_params(params, dn), x)
        out[i] = float(((yu - yd) * g_out).sum()) / (2 * h)
    return out


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)


ARCHITECTURES = [
    ((6, 8, 1), ("relu", "tanh")),
    ((7, 5, 1), ("relu", "identity")),  # critic-style concatenated input width
    ((4, 6, 3), ("tanh", "identity")),
    ((5, 4, 3, 2), ("identity", "tanh", "relu")),
    ((3, 2), ("relu",)),
    ((3, 2), ("tanh",)),
    ((3, 2), ("identity",)),
]


@pytest.mark.parametrize("sizes,acts", ARCHITECTURES)
def test_gradient_check(sizes, acts):
    p = small_net(seed=11, sizes=sizes, acts=acts)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, sizes[0]))
    g_out = rng.normal(size=(5, sizes[-1]))
    _, cache = nn.forward(p, x)
    grads, _ = nn.backward(p, cache, g_out)
    assert np.max(rel_err(nn.flatten_params(grads), fd_gradient(p, x, g_out))) < 1e-4


def test_backward_zero_output_gradient():
    p = small_net()
    x = np.random.default_rng(0).normal(size=(3, 6))
    _, cache = nn.forward(p, x)
    grads, g_in = nn.backward(p, cache, np.zeros((3, 1)))
    assert np.array_equal(nn.flatten_params(grads), np.zeros(p.param_count))
    assert np.array_equal(g_in, np.zeros((3, 6)))


def test_backward_identity_closed_form():
    # single identity layer: dL/dW = g x^T, dL/db = g
    p = nn.MlpParams(
        layers=(nn.LayerParams(weights=np.zeros((2, 3)), bias=np.zeros(2)),),
        activations=("identity",),
    )
    x = np.array([[1.0, 2.0, 3.0]])
    g = np.array([[4.0, 5.0]])
    _, cache = nn.forward(p, x)
    grad, g_in = nn.backward(p, cache, g)
    grads = grad.layers
    assert np.array_equal(grads[0].weights, g.T @ x)
    assert np.array_equal(grads[0].bias, g[0])
    assert np.array_equal(g_in, g @ p.layers[0].weights)


def test_backward_input_gradient_vs_fd():
    p = small_net(seed=3, sizes=(4, 5, 2), acts=("tanh", "identity"))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    g_out = rng.normal(size=(3, 2))
    _, cache = nn.forward(p, x)
    _, g_in = nn.backward(p, cache, g_out)
    h = 1e-6
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            up, dn = x.copy(), x.copy()
            up[i, j] += h
            dn[i, j] -= h
            yu, _ = nn.forward(p, up)
            yd, _ = nn.forward(p, dn)
            fd[i, j] = float(((yu - yd) * g_out).sum()) / (2 * h)
    assert np.max(rel_err(g_in, fd)) < 1e-4


@pytest.mark.parametrize("sizes, acts", [((7, 16, 12, 1), ("relu", "relu", "identity")), ((4, 5, 2), ("tanh", "identity"))])
def test_input_gradient_is_backwards_input_gradient(sizes, acts):
    p = small_net(seed=5, sizes=sizes, acts=acts)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(9, sizes[0]))
    g_out = rng.normal(size=(9, sizes[-1]))
    _, g_in = nn.backward(p, nn.forward(p, x)[1], g_out)
    _, cache = nn.forward(p, x)  # a cache of its own: the gradients live in the cache they came from
    assert np.array_equal(nn.input_gradient(p, cache, g_out), g_in)  # same bits
    with pytest.raises(ValueError, match="output gradient shape"):
        nn.input_gradient(p, cache, g_out[:, :0])


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("sizes,acts", ARCHITECTURES)
def test_buffered_passes_equal_allocating(sizes, acts, n, dtype):
    p = nn.cast_params(small_net(seed=11, sizes=sizes, acts=acts), dtype)
    bufs = nn.LayerBuffers(p.layer_sizes, p.activations, dtype, n)
    for i, act in enumerate(acts):  # an activation gets its own output array
        assert (bufs.values[i + 1] is bufs.preacts[i]) == (act == "identity")
    rng = np.random.default_rng(7)
    for _ in range(2):  # the second pass reuses what the first wrote
        x = rng.normal(size=(n, sizes[0])).astype(dtype)
        g_out = rng.normal(size=(n, sizes[-1])).astype(dtype)
        out, cache = nn.forward(p, x)
        grads, g_in = nn.backward(p, cache, g_out)
        assert same_bytes(nn.forward_into(p, bufs, x), out)
        assert all(map(same_bytes, bufs.values, cache.values))
        assert all(map(same_bytes, bufs.preacts, cache.preacts))
        assert nn.backward_into(p, bufs, g_out) is None
        assert same_bytes(bufs.grad.flat, grads.flat)
        bufs.grad.flat.fill(np.nan)
        g_in_only = nn.backward_into(p, bufs, g_out, grad=False, input_grad=True)
        assert same_bytes(g_in_only, nn.input_gradient(p, cache, g_out))
        assert np.isnan(bufs.grad.flat).all()  # grad=False leaves the parameter gradients alone
        assert same_bytes(nn.backward_into(p, bufs, g_out, grad=True, input_grad=True), g_in)
        assert same_bytes(bufs.grad.flat, grads.flat)


def matmul_reference(params, x, g_out):
    """The layer core's arithmetic with every product through ``np.matmul``: output, parameter and input gradient."""
    values, preacts = [x], []
    for layer, act in zip(params.layers, params.activations):
        z = np.matmul(values[-1], layer.weights.T)
        z += layer.bias
        preacts.append(z)
        values.append(np.maximum(z, 0.0) if act == "relu" else np.tanh(z) if act == "tanh" else z)
    grads, g = [], g_out
    for i in reversed(range(len(params.layers))):
        act = params.activations[i]
        if act == "relu":
            gz = g * (preacts[i] > 0.0)
        elif act == "tanh":
            gz = g * (1.0 - np.square(values[i + 1]))
        else:
            gz = g
        grads[:0] = [np.matmul(gz.T, values[i]).ravel(), np.add.reduce(gz, axis=0)]
        g = np.matmul(gz, params.layers[i].weights)
    return values[-1], np.concatenate(grads), g


SHIPPED_PAPER_NETS = [
    ((6, 400, 300, 1), ("relu", "relu", "tanh")),  # actor
    ((7, 400, 300, 1), ("relu", "relu", "identity")),  # critic
]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "sizes,acts,n",
    [(*arch, n) for arch in ARCHITECTURES for n in (1, 5)] + [(*arch, n) for arch in SHIPPED_PAPER_NETS for n in (1, 64)],
)
def test_layer_core_equals_matmul_reference(sizes, acts, n, dtype):
    p = nn.cast_params(small_net(seed=13, sizes=sizes, acts=acts), dtype)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(n, sizes[0])).astype(dtype)
    g_out = rng.normal(size=(n, sizes[-1])).astype(dtype)
    x.flat[::3], x.flat[1::3] = 0.0, -0.0  # signed zeros reach every product
    g_out.flat[::2] = -0.0
    bufs = nn.LayerBuffers(p.layer_sizes, p.activations, dtype, n)
    out = nn.forward_into(p, bufs, x)
    g_in = nn.backward_into(p, bufs, g_out, input_grad=True)
    ref_out, ref_grad, ref_g_in = matmul_reference(p, x, g_out)
    assert same_bytes(out, ref_out)
    assert same_bytes(bufs.grad.flat, ref_grad)
    assert same_bytes(g_in, ref_g_in)


def test_one_by_one_product_keeps_minus_zero_where_matmul_drops_it():
    # np.dot takes a scalar path for a 1x1 by 1x1 product, which gives IEEE 1 * -0.0 = -0.0;
    # np.matmul's loop adds the product to a +0.0 start and gives +0.0.  Only a layer with
    # one input and one output at batch 1 multiplies 1x1 by 1x1; no shipped net has one
    # (their inputs are 6 and 7 wide, and updates run at batch 64).
    p = nn.MlpParams(layers=(nn.LayerParams(weights=np.array([[2.0]]), bias=np.zeros(1)),), activations=("identity",))
    x, g_out = np.array([[-0.0]]), np.array([[1.0]])
    bufs = nn.LayerBuffers(p.layer_sizes, p.activations, np.float64, 1)
    nn.forward_into(p, bufs, x)
    nn.backward_into(p, bufs, g_out)
    _, ref_grad, _ = matmul_reference(p, x, g_out)
    assert np.signbit(bufs.grad.layers[0].weights[0, 0]) and not np.signbit(ref_grad[0])
    assert bufs.grad.flat[0] == ref_grad[0]  # equal values, opposite signs of zero


# --------------------------------------------------------------------- adam


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_net_dtype_follows_flat(dtype):
    p = nn.cast_params(small_net(), dtype)
    assert p.flat.dtype == dtype and all(layer.weights.dtype == dtype for layer in p.layers)
    x = np.random.default_rng(0).normal(size=(3, 6)).astype(np.float32 if dtype == np.float64 else np.float64)
    out, cache = nn.forward(p, x)  # the input is cast to the net's dtype
    assert out.dtype == dtype and all(v.dtype == dtype for v in cache.values + cache.preacts)
    grads, gx = nn.backward(p, cache, np.ones((3, 1)))
    assert grads.flat.dtype == gx.dtype == nn.input_gradient(p, cache, np.ones((3, 1))).dtype == dtype
    state = nn.init_adam(p)
    nn.adam_step(p, grads, state, lr=1e-3)
    assert p.flat.dtype == state.m.dtype == state.v.dtype == dtype
    assert nn.unflatten_params(p, np.zeros(p.param_count)).flat.dtype == dtype


def test_adam_zero_gradient_noop():
    p = small_net()
    p2 = nn.unflatten_params(p, p.flat)  # stepped in place; p keeps the start
    state2 = nn.init_adam(p2)
    zero = nn.unflatten_params(p, np.zeros(p.param_count))
    nn.adam_step(p2, zero, state2, lr=0.1)
    assert np.array_equal(nn.flatten_params(p), nn.flatten_params(p2))
    assert state2.t == 1


def test_adam_two_steps_match_hand_recurrence():
    # scalar parameter, constant gradient, the fixed betas and eps
    beta1, beta2, eps, lr, g = 0.9, 0.999, 1e-8, 0.01, 0.7
    theta, m, v = 1.5, 0.0, 0.0
    for t in (1, 2):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        theta -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)

    p = nn.MlpParams(
        layers=(nn.LayerParams(weights=np.array([[1.5]]), bias=np.zeros(1)),),
        activations=("identity",),
    )
    grads = nn.MlpParams(
        layers=(nn.LayerParams(weights=np.array([[g]]), bias=np.zeros(1)),),
        activations=("identity",),
    )
    state = nn.init_adam(p)
    for _ in range(2):
        nn.adam_step(p, grads, state, lr=lr)
    assert p.layers[0].weights[0, 0] == pytest.approx(theta, abs=1e-15)
    assert state.t == 2


def test_adam_rejects_non_finite_gradient():
    p = small_net()
    state = nn.init_adam(p)
    state.m[:], state.v[:], state.t = 0.25, 0.5, 3
    before = nn.flatten_params(p)
    bad = nn.unflatten_params(p, np.full(p.param_count, np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        nn.adam_step(p, bad, state, lr=0.1)
    # the check runs before anything is written
    assert np.array_equal(p.flat, before)
    assert np.all(state.m == 0.25) and np.all(state.v == 0.5) and state.t == 3


def count_subnormal(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).smallest_normal)))


def test_adam_keeps_moments_out_of_the_subnormal_range_and_parameters_keep_their_bits():
    # one nonzero gradient, then zeros: each m entry shrinks by beta1 per step and, left alone,
    # is subnormal from about step 750 and underflows to 0 after about step 900
    p = nn.cast_params(small_net(seed=4), np.float32)
    state = nn.init_adam(p)
    grads = nn.unflatten_params(p, np.random.default_rng(3).normal(scale=1e-2, size=p.param_count))
    b1, b2, eps, lr = nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS, 5e-4
    theta, m, v = p.flat.copy(), np.zeros_like(p.flat), np.zeros_like(p.flat)
    reference_subnormal_steps = 0
    for t in range(1, 1601):
        nn.adam_step(p, grads, state, lr)
        assert count_subnormal(state.m) == count_subnormal(state.v) == 0, t
        # the guard-free recurrence: adam_step's float32 operations, in its order
        g = grads.flat
        m = m * b1 + g * (1.0 - b1)
        v = v * b2 + (g * (1.0 - b2)) * g
        theta = theta - ((m / (1.0 - b1**t)) * lr) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        reference_subnormal_steps += count_subnormal(m) > 0
        grads.flat[:] = 0.0
    assert reference_subnormal_steps > 100  # without the guard, m is subnormal for that long
    assert same_bytes(p.flat, theta)


# -------------------------------------------------------- flatten/unflatten


@given(st.integers(0, 2**32 - 1), st.sampled_from([(3, 4, 2), (6, 8, 8, 1), (2, 2)]))
@settings(max_examples=30, deadline=None)
def test_flatten_roundtrip(seed, sizes):
    acts = ["relu"] * (len(sizes) - 2) + ["tanh"]
    p = nn.init_params(list(sizes), acts, seed=seed)
    q = nn.unflatten_params(p, nn.flatten_params(p))
    assert np.array_equal(nn.flatten_params(p), nn.flatten_params(q))
    for a, b in zip(p.layers, q.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.bias, b.bias)


def test_unflatten_wrong_length():
    p = small_net()
    with pytest.raises(ValueError, match="length"):
        nn.unflatten_params(p, np.zeros(p.param_count + 1))


def test_flatten_order_stable():
    p = nn.MlpParams(
        layers=(
            nn.LayerParams(weights=np.array([[1.0, 2.0], [3.0, 4.0]]), bias=np.array([5.0, 6.0])),
            nn.LayerParams(weights=np.array([[7.0, 8.0]]), bias=np.array([9.0])),
        ),
        activations=("relu", "identity"),
    )
    assert np.array_equal(nn.flatten_params(p), np.arange(1.0, 10.0))


# ------------------------------------------------------------- flat vector


def assert_layers_view_flat(p):
    assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
    for layer in p.layers:
        assert np.shares_memory(layer.weights, p.flat)
        assert np.shares_memory(layer.bias, p.flat)


def test_every_construction_path_backs_layers_with_flat():
    p = small_net()
    head = p.layers[-1]
    replaced = dataclasses.replace(
        p, layers=p.layers[:-1] + (nn.LayerParams(weights=head.weights, bias=head.bias + 1.0),)
    )
    rebuilt = nn.MlpParams(layers=p.layers, activations=p.activations)
    copied = nn.unflatten_params(p, p.flat)
    _, cache = nn.forward(p, np.ones((2, 6)))
    grad, _ = nn.backward(p, cache, np.ones((2, 1)))
    for q in (p, replaced, rebuilt, copied, grad):
        assert_layers_view_flat(q)
        assert q.layer_sizes == p.layer_sizes
    # packing, unflattening and flattening copy; nothing aliases p
    for q in (replaced, rebuilt, copied, grad):
        assert not np.shares_memory(q.flat, p.flat)
    assert not np.shares_memory(nn.flatten_params(p), p.flat)
    assert np.array_equal(replaced.layers[-1].bias, head.bias + 1.0)


def test_adam_step_updates_buffers_in_place():
    p = small_net(seed=1)
    state = nn.init_adam(p)
    flat, m, v = p.flat, state.m, state.v
    _, cache = nn.forward(p, np.ones((3, 6)))
    grad, _ = nn.backward(p, cache, np.ones((3, 1)))
    before = nn.flatten_params(p)
    nn.adam_step(p, grad, state, lr=0.1)
    assert p.flat is flat and state.m is m and state.v is v
    assert state.t == 1
    assert not np.array_equal(p.flat, before)
    assert_layers_view_flat(p)


# -------------------------------------------------------------- checkpoints


def save_net(path, params):
    net = {"layer_sizes": list(params.layer_sizes), "activations": list(params.activations)}
    save_container(path, {"params": params.flat}, {"net": net})


def test_checkpoint_bytes_deterministic(tmp_path):
    p = small_net(seed=2)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_net(a, p)
    save_net(b, p)
    assert a.read_bytes() == b.read_bytes()


def test_truncated_checkpoint_rejected(tmp_path):
    path = tmp_path / "net.ckpt"
    save_net(path, small_net())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 40])
    with pytest.raises(ContainerError, match="truncated"):
        load_container(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "net.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ContainerError, match="magic"):
        load_container(path)


def test_unsupported_version_rejected(tmp_path):
    import json
    import struct

    path = tmp_path / "net.ckpt"
    header = json.dumps({"format_version": 99, "arrays": [], "meta": {}}).encode()
    path.write_bytes(b"FDCKPT1\n" + struct.pack("<I", len(header)) + header)
    with pytest.raises(ContainerError, match="version"):
        load_container(path)


@pytest.mark.parametrize(
    "header",
    [
        {"format_version": 1, "meta": {}},
        {"format_version": 1, "arrays": {}, "meta": {}},
        {"format_version": 1, "arrays": [{"name": "x"}], "meta": {}},
        {"format_version": 1, "arrays": []},
    ],
)
def test_malformed_header_rejected(tmp_path, header):
    import json
    import struct

    path = tmp_path / "net.ckpt"
    blob = json.dumps(header).encode()
    path.write_bytes(b"FDCKPT1\n" + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ContainerError, match="array|meta"):
        load_container(path)


@pytest.mark.parametrize("header", [b"\xff\xfe{}", b"{not json"], ids=["not-utf8", "not-json"])
def test_corrupt_header_rejected(tmp_path, header):
    import struct

    path = tmp_path / "net.ckpt"
    path.write_bytes(b"FDCKPT1\n" + struct.pack("<I", len(header)) + header)
    with pytest.raises(ContainerError, match=rf"{path.name}: corrupt header"):
        load_container(path)


def test_container_roundtrip(tmp_path):
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 2, 3], dtype=np.int64)}
    meta = {"note": "hello", "n": 3}
    path = tmp_path / "c.ckpt"
    save_container(path, arrays, meta)
    arrays2, meta2 = load_container(path)
    assert meta2 == meta
    assert np.array_equal(arrays2["a"], arrays["a"])
    assert arrays2["b"].dtype == np.int64


def test_container_normalizes_layout_on_save(tmp_path):
    # big-endian, non-contiguous, empty and bool arrays are stored as little-endian C-order bytes
    grid = np.arange(24.0).reshape(4, 6)
    arrays = {
        "be": np.arange(6, dtype=">f8").reshape(2, 3),
        "strided": grid[:, ::2],
        "empty": np.zeros((0, 3)),
        "flags": np.array([True, False, True]),
    }
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_container(a, arrays, {})
    save_container(b, {k: np.ascontiguousarray(v, dtype=v.dtype.newbyteorder("<")) for k, v in arrays.items()}, {})
    assert a.read_bytes() == b.read_bytes()
    loaded, _ = load_container(a)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype.newbyteorder("<") and np.array_equal(loaded[name], arr), name


@pytest.mark.parametrize(
    "change",
    [
        {"offset": -16}, {"nbytes": -8}, {"nbytes": 40}, {"shape": [3, 3]}, {"shape": [-2, -3]},
        {"dtype": "|O"}, {"dtype": "<U2"},  # 8-byte items, so only the kind is at fault
    ],
    ids=["negative-offset", "negative-nbytes", "short-nbytes", "long-shape", "negative-shape", "object", "unicode"],
)
def test_bad_array_entry_rejected(tmp_path, change):
    import json
    import struct

    path = tmp_path / "net.ckpt"
    entry = {"name": "w", "dtype": "<f8", "shape": [2, 3], "offset": 16, "nbytes": 48, **change}
    header = json.dumps({"format_version": 1, "arrays": [entry], "meta": {}}).encode()
    path.write_bytes(b"FDCKPT1\n" + struct.pack("<I", len(header)) + header + bytes(64))
    with pytest.raises(ContainerError, match=rf"{path.name}: array 'w'"):
        load_container(path)
