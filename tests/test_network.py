"""MLP forward/backward, parameter packing, checkpoint format."""

import tracemalloc

import numpy as np
import pytest

from demplast.network import (CHECKPOINT_MAGIC, Network, NetworkError,
                              flatten_params, init_network,
                              normalization_from_box, param_count,
                              unflatten_params)
from demplast.tensor import LONG_ARRAY


def test_param_count_values():
    assert param_count((3, 100, 200, 400, 200, 100, 3)) == 201603
    assert param_count((3, 3)) == 12


def test_init_deterministic():
    a = init_network((3, 16, 3), seed=42)
    b = init_network((3, 16, 3), seed=42)
    c = init_network((3, 16, 3), seed=43)
    np.testing.assert_array_equal(a.get_params(), b.get_params())
    assert not np.array_equal(a.get_params(), c.get_params())


def test_init_shapes_and_bounds():
    net = init_network((3, 8, 5, 3), seed=0)
    assert net.widths == (3, 8, 5, 3)
    assert net.n_params == param_count((3, 8, 5, 3))
    for w, b_ in zip(net.weights, net.biases):
        # weights are stored (fan_out, fan_in)
        limit = np.sqrt(6.0 / (w.shape[1] + w.shape[0]))
        assert np.all(np.abs(w) <= limit)
        np.testing.assert_array_equal(b_, 0.0)


def test_requires_three_in_three_out():
    with pytest.raises(NetworkError):
        init_network((2, 4, 3))
    with pytest.raises(NetworkError):
        init_network((3, 4, 2))
    with pytest.raises(NetworkError):
        init_network((3,))


def test_zero_output_layer():
    net = init_network((3, 16, 3), seed=1, zero_output_layer=True)
    coords = np.random.default_rng(0).standard_normal((10, 3))
    np.testing.assert_array_equal(net.forward(coords), np.zeros((10, 3)))


def test_forward_linear_net():
    """A single layer (weights stored (out, in)) is exactly x W^T + b."""
    net = init_network((3, 3), seed=0)
    W = np.arange(9.0).reshape(3, 3) * 0.1
    b = np.array([1.0, -2.0, 0.5])
    net.weights[0][:] = W
    net.biases[0][:] = b
    x = np.random.default_rng(1).standard_normal((7, 3))
    np.testing.assert_allclose(net.forward(x), x @ W.T + b, rtol=1e-14)


def test_input_normalization_applied():
    shift, scale = normalization_from_box([0.0, 0.0, 0.0], [2.0, 4.0, 1.0])
    net = init_network((3, 3), seed=0, input_shift=shift, input_scale=scale)
    net.weights[0][:] = np.eye(3)
    net.biases[0][:] = 0.0
    # box corners map to the corners of [-1, 1]^3
    np.testing.assert_allclose(net.forward(np.array([[0.0, 0.0, 0.0]])),
                               [[-1.0, -1.0, -1.0]], atol=1e-14)
    np.testing.assert_allclose(net.forward(np.array([[2.0, 4.0, 1.0]])),
                               [[1.0, 1.0, 1.0]], atol=1e-14)
    np.testing.assert_allclose(net.forward(np.array([[1.0, 2.0, 0.5]])),
                               [[0.0, 0.0, 0.0]], atol=1e-14)


def test_normalization_degenerate_axis():
    # a flat axis maps to constant zero rather than dividing by zero
    shift, scale = normalization_from_box([0.0, 0.0, 0.5], [1.0, 1.0, 0.5])
    assert np.all(np.isfinite(scale)) and scale[2] == 0.0
    net = init_network((3, 4, 3), seed=0, input_shift=shift,
                       input_scale=scale)
    out = net.forward(np.array([[0.3, 0.3, 0.5]]))
    assert np.all(np.isfinite(out))


def test_flatten_round_trip():
    net = init_network((3, 5, 4, 3), seed=7)
    flat = flatten_params(net.weights, net.biases)
    weights, biases = unflatten_params(flat, net.widths)
    for a, b in zip(weights, net.weights):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(biases, net.biases):
        np.testing.assert_array_equal(a, b)


def test_get_set_params():
    net = init_network((3, 6, 3), seed=3)
    p = net.get_params()
    q = np.linspace(-1, 1, p.size)
    net.set_params(q)
    np.testing.assert_array_equal(net.get_params(), q)
    with pytest.raises(NetworkError):
        net.set_params(np.zeros(p.size + 1))
    with pytest.raises(NetworkError):
        net.set_params(np.zeros(p.size - 1))
    np.testing.assert_array_equal(net.get_params(), q)


def test_params_are_copied_in_and_out():
    """get_params returns a copy and set_params copies its input: writing
    to either array afterwards leaves the network as it was."""
    rng = np.random.default_rng(6)
    net = init_network((3, 8, 8, 3), seed=5)
    coords = rng.standard_normal((9, 3))
    q = rng.standard_normal(net.n_params)
    net.set_params(q)
    kept_params, kept_out = q.copy(), net.forward(coords).copy()
    q[:] = 0.0
    out = net.get_params()
    np.testing.assert_array_equal(out, kept_params)
    out[:] = 1.0
    np.testing.assert_array_equal(net.get_params(), kept_params)
    assert net.forward(coords).tobytes() == kept_out.tobytes()


def test_params_match_flatten_reference():
    """The stored vector and its layer views agree bit for bit with
    flatten_params/unflatten_params, the forms get_params and set_params
    used before the network kept one flat vector."""
    rng = np.random.default_rng(7)
    net = init_network((3, 5, 4, 3), seed=8)
    assert net.get_params().tobytes() == \
        flatten_params(net.weights, net.biases).tobytes()
    q = rng.standard_normal(net.n_params)
    net.set_params(q)
    weights, biases = unflatten_params(q, net.widths)
    for a, b in zip(weights + biases, net.weights + net.biases):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    # writing through a layer view reaches the flat vector
    net.biases[0][:] = 2.5
    np.testing.assert_array_equal(unflatten_params(
        net.get_params(), net.widths)[1][0], 2.5)


def test_forward_output_survives_set_params():
    rng = np.random.default_rng(8)
    net = init_network((3, 8, 8, 3), seed=2)
    coords = rng.standard_normal((11, 3))
    out = net.forward(coords)
    kept = out.copy()
    net.set_params(rng.standard_normal(net.n_params))
    net.forward(coords)
    np.testing.assert_array_equal(out, kept)


def test_backward_matches_fd():
    rng = np.random.default_rng(4)
    net = init_network((3, 10, 7, 3), seed=4)
    coords = rng.standard_normal((20, 3))
    upstream = rng.standard_normal((20, 3))

    def scalar(params):
        net.set_params(params)
        return float((net.forward(coords) * upstream).sum())

    p0 = net.get_params()
    scalar(p0)
    grad = net.backward(upstream)
    assert grad.shape == p0.shape

    h = 1e-6
    idx = rng.choice(p0.size, size=40, replace=False)
    for i in idx:
        pp, pm = p0.copy(), p0.copy()
        pp[i] += h
        pm[i] -= h
        fd = (scalar(pp) - scalar(pm)) / (2 * h)
        assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(fd)), f"param {i}"


def test_backward_requires_forward():
    net = init_network((3, 4, 3), seed=0)
    with pytest.raises(NetworkError):
        net.backward(np.zeros((5, 3)))


def reference_forward(net, coords):
    """The plain allocating forward pass, feature-major with each bias
    folded into its GEMM: the (fan_in + 1, n) input of every layer, with a
    last row of ones, and the (n, 3) output.  Every input is C-ordered, as
    the network's buffers are, since BLAS may round differently when an
    operand's layout differs."""
    ones = np.ones((1, coords.shape[0]))
    x = (coords - net.input_shift) * net.input_scale
    a = np.ascontiguousarray(np.vstack([x.T, ones]))
    acts = [a]
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        a = np.vstack([np.tanh(np.hstack([w, b[:, None]]) @ a), ones])
        acts.append(a)
    wb = np.hstack([net.weights[-1], net.biases[-1][:, None]])
    return acts, (wb @ a).T


def reference_backward(net, acts, upstream):
    """The plain allocating reverse pass over reference_forward's acts:
    delta @ a^T gives each layer's [dW | db]."""
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    delta = upstream.T
    for l in range(len(net.weights) - 1, -1, -1):
        g = delta @ acts[l].T
        grads_w[l], grads_b[l] = g[:, :-1], g[:, -1]
        if l > 0:
            h = acts[l][:-1]
            delta = (net.weights[l].T @ delta) * (1.0 - h ** 2)
    return flatten_params(grads_w, grads_b)


def row_major_forward(net, coords):
    """The (n, width) formula with a separate bias add: the activations of
    every layer."""
    a = (coords - net.input_shift) * net.input_scale
    acts = [a]
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w.T + b
        a = z if i == last else np.tanh(z)
        acts.append(a)
    return acts


def row_major_backward(net, acts, upstream):
    """The (n, width) reverse pass over row_major_forward's acts, with the
    bias gradient as a column sum."""
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    delta = upstream
    for l in range(len(net.weights) - 1, -1, -1):
        grads_w[l] = delta.T @ acts[l]
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ net.weights[l]) * (1.0 - acts[l] ** 2)
    return flatten_params(grads_w, grads_b)


def _random_net(widths, rng):
    net = init_network(widths, seed=2, input_shift=rng.standard_normal(3),
                       input_scale=rng.uniform(0.5, 2.0, 3))
    net.set_params(rng.standard_normal(net.n_params))
    return net


@pytest.mark.parametrize("widths", [(3, 10, 7, 3), (3, 32, 32, 3), (3, 3)])
def test_passes_bitwise_equal_to_allocating_reference(widths):
    """Buffer reuse changes no bit, also when the row count changes
    between calls and for a network without hidden layers."""
    rng = np.random.default_rng(9)
    net = _random_net(widths, rng)
    for n in (20, 5, 20):
        coords = rng.standard_normal((n, 3))
        upstream = rng.standard_normal((n, 3))
        acts, want_out = reference_forward(net, coords)
        want = reference_backward(net, acts, upstream)
        out = net.forward(coords)
        assert out.shape == (n, 3)
        assert out.tobytes() == want_out.tobytes()
        assert net.backward(upstream).tobytes() == want.tobytes()


def transposed_reference_backward(net, acts, upstream):
    """reference_backward with each [dW | db] formed as the transpose of
    a @ delta^T, the form of the reverse pass above ``LONG_ARRAY`` rows."""
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.weights)
    delta = upstream.T
    for l in range(len(net.weights) - 1, -1, -1):
        g = (acts[l] @ delta.T).T
        grads_w[l], grads_b[l] = g[:, :-1], g[:, -1]
        if l > 0:
            h = acts[l][:-1]
            delta = (net.weights[l].T @ delta) * (1.0 - h ** 2)
    return flatten_params(grads_w, grads_b)


@pytest.mark.parametrize("widths", [(3, 10, 7, 3), (3, 32, 32, 3), (3, 3)])
def test_long_passes_bitwise_equal_to_transposed_reference(widths):
    """Above ``LONG_ARRAY`` rows the reverse pass forms each layer's
    gradient as a @ delta^T, with the tanh derivative in several row
    blocks; that gives the bits of the plain allocating form of the same
    products, also after a pass below the threshold and back."""
    rng = np.random.default_rng(12)
    net = _random_net(widths, rng)
    for n in (LONG_ARRAY + 1, 6000, 2 * LONG_ARRAY + 5):
        coords = rng.standard_normal((n, 3))
        upstream = rng.standard_normal((n, 3))
        acts, want_out = reference_forward(net, coords)
        backward = reference_backward if n <= LONG_ARRAY \
            else transposed_reference_backward
        assert net.forward(coords).tobytes() == want_out.tobytes()
        assert net.backward(upstream).tobytes() == \
            backward(net, acts, upstream).tobytes()


@pytest.mark.parametrize("widths", [(3, 10, 7, 3), (3, 32, 32, 3), (3, 3)])
@pytest.mark.parametrize("n", [7, 300, 6000, LONG_ARRAY, LONG_ARRAY + 1])
def test_passes_match_row_major_formula(widths, n):
    """The feature-major passes agree with the (n, width) formula with a
    separate bias add to rounding, on both sides of the sizes where the
    BLAS kernels change and of ``LONG_ARRAY``, where the reverse pass
    changes form."""
    rng = np.random.default_rng(10)
    net = _random_net(widths, rng)
    coords = rng.standard_normal((n, 3))
    upstream = rng.standard_normal((n, 3))
    acts = row_major_forward(net, coords)
    want = row_major_backward(net, acts, upstream)
    np.testing.assert_allclose(net.forward(coords), acts[-1], rtol=1e-12,
                               atol=1e-12 * np.abs(acts[-1]).max())
    np.testing.assert_allclose(net.backward(upstream), want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("part", ["weights", "biases"])
def test_writes_through_layer_views_reach_next_forward(part):
    """A write through ``weights`` or ``biases`` after a forward pass
    shows in the next forward and backward: no stale copy of [W | b]."""
    rng = np.random.default_rng(11)
    net = _random_net((3, 8, 6, 3), rng)
    coords = rng.standard_normal((9, 3))
    upstream = rng.standard_normal((9, 3))
    before = net.forward(coords)
    for l, view in enumerate(getattr(net, part)):
        view[...] = rng.standard_normal(view.shape)
        out = net.forward(coords)
        assert not np.array_equal(out, before), f"{part}[{l}]"
        acts, want_out = reference_forward(net, coords)
        assert out.tobytes() == want_out.tobytes()
        assert net.backward(upstream).tobytes() == \
            reference_backward(net, acts, upstream).tobytes()
        before = out


def test_forward_result_survives_later_calls():
    rng = np.random.default_rng(3)
    net = init_network((3, 8, 8, 3), seed=1)
    net.set_params(rng.standard_normal(net.n_params))
    x1, x2 = rng.standard_normal((2, 12, 3))
    first = net.forward(x1)
    kept = first.copy()
    net.forward(x2)
    net.backward(rng.standard_normal((12, 3)))
    np.testing.assert_array_equal(first, kept)


def test_backward_consumes_forward():
    net = init_network((3, 4, 3), seed=0)
    coords = np.random.default_rng(0).standard_normal((6, 3))
    net.forward(coords)
    net.backward(np.ones((6, 3)))
    with pytest.raises(NetworkError):
        net.backward(np.ones((6, 3)))
    net.forward(coords)
    net.backward(np.ones((6, 3)))


def test_passes_allocate_no_activation_sized_temporaries():
    """After a warm-up call, a forward plus backward pass at n rows peaks
    below one (n, 32) array of traced allocations: the hidden activations,
    the tanh derivative and delta @ W all live in reused buffers, below
    and above ``LONG_ARRAY`` rows."""
    rng = np.random.default_rng(1)
    net = init_network((3, 32, 32, 3), seed=0)
    for n in (2000, 2 * LONG_ARRAY + 1):
        coords = rng.standard_normal((n, 3))
        upstream = rng.standard_normal((n, 3))
        net.forward(coords)
        net.backward(upstream)
        tracemalloc.start()
        try:
            net.forward(coords)
            net.backward(upstream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 32 * 8, \
            f"{n} rows: traced peak {peak / (n * 32 * 8):.2f} arrays"


def test_checkpoint_round_trip(tmp_path):
    net = init_network((3, 9, 3), seed=11,
                       input_shift=np.array([0.5, 0.5, 0.5]),
                       input_scale=np.array([2.0, 2.0, 2.0]))
    net.set_params(np.random.default_rng(5).standard_normal(net.n_params))
    path = tmp_path / "net.ckpt"
    net.save(path)
    with open(path, "rb") as fh:
        first = fh.readline().decode("ascii").strip()
    assert first == CHECKPOINT_MAGIC
    back = Network.load(path)
    assert back.widths == net.widths
    np.testing.assert_array_equal(back.get_params(), net.get_params())
    np.testing.assert_array_equal(back.input_shift, net.input_shift)
    np.testing.assert_array_equal(back.input_scale, net.input_scale)
    # loading then saving again is byte-identical
    path2 = tmp_path / "net2.ckpt"
    back.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint\n")
    with pytest.raises(NetworkError):
        Network.load(path)


def test_checkpoint_rejects_truncated(tmp_path):
    net = init_network((3, 9, 3), seed=0)
    path = tmp_path / "net.ckpt"
    net.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(NetworkError):
        Network.load(path)
