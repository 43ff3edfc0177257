"""Dense-net kernel: forward/backward correctness, tying, Adam, checkpoints."""

import numpy as np
import pytest

from jmml.errors import NumericalError, ShapeError
from jmml.losses import grad_check
from jmml.net import BLOCK, Adam, DenseLayer, DenseNet, Param, zero_grads
from jmml.serialize import load_checkpoint, save_checkpoint


def _mse_backprop(net, x, target):
    acts = net.forward(x)
    diff = acts[-1] - target
    value = float(np.mean(diff**2))
    net.backward(acts, 2.0 * diff / diff.size)
    return value


def test_dense_layer_relu_forward():
    w = Param(np.array([[1.0, -1.0], [2.0, 0.5]]))
    b = Param(np.array([0.0, 1.0]))
    layer = DenseLayer(w, b, "relu")
    out = layer.forward(np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(out, [[3.0, 0.5]])


def test_net_backward_matches_fd():
    rng = np.random.default_rng(0)
    net = DenseNet.build([4, 6, 3], ["relu", "linear"], rng)
    x = rng.standard_normal((5, 4))
    target = rng.standard_normal((5, 3))
    params = net.params()

    def fn():
        zero_grads(params)
        value = _mse_backprop(net, x, target)
        return value, [p.grad.copy() for p in params]

    assert grad_check(fn, [p.value for p in params]) < 1e-6


def test_input_gradient_matches_fd():
    rng = np.random.default_rng(1)
    net = DenseNet.build([3, 5, 2], ["relu", "linear"], rng)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 2))

    def fn():
        zero_grads(net.params())
        acts = net.forward(x)
        diff = acts[-1] - target
        g = net.backward(acts, 2.0 * diff / diff.size)
        return float(np.mean(diff**2)), [g]

    assert grad_check(fn, [x]) < 1e-6


def test_weight_tying_shares_value_and_grad():
    # one layer object placed in two nets: one value, one gradient accumulator
    rng = np.random.default_rng(2)
    layer = DenseLayer.create(3, 3, "relu", rng)
    first, second = DenseNet([layer]), DenseNet([layer, DenseLayer.create(3, 2, "linear", rng)])
    assert second.params()[:2] == first.params() == [layer.w, layer.b]
    x = rng.standard_normal((2, 3))
    out = layer.forward(x)
    first.backward([x, out], np.ones_like(out))
    g1 = layer.w.grad.copy()
    second.layers[0].backward(x, out, np.ones_like(out))
    # second accumulation doubles the shared gradient
    np.testing.assert_allclose(layer.w.grad, 2.0 * g1)


def test_params_deduplicates_tied_layers():
    rng = np.random.default_rng(3)
    shared = DenseLayer.create(4, 4, "relu", rng)
    net = DenseNet([shared, shared])
    assert len(net.params()) == 2  # one w, one b
    # first-seen order survives the dedup
    other = DenseLayer.create(4, 4, "relu", rng)
    net = DenseNet([other, shared, other, shared])
    assert [id(p) for p in net.params()] == [id(p) for p in (other.w, other.b, shared.w, shared.b)]


def test_adam_decreases_quadratic():
    p = Param(np.array([5.0, -3.0]))
    opt = Adam(lr=0.1)
    for _ in range(200):
        p.zero_grad()
        p.grad += 2.0 * p.value
        opt.step([p])
    assert np.abs(p.value).max() < 0.1
    assert opt.steps_taken(p) == 200


def test_adam_rejects_nan_grad():
    p = Param(np.zeros(2))
    p.grad[0] = np.nan
    with pytest.raises(NumericalError):
        Adam().step([p])


def test_adam_tied_param_steps_once_per_call():
    # one state per Param object: listing a Param twice in one step is the
    # caller's bug and is rejected before anything moves
    p = Param(np.ones(2))
    opt = Adam(lr=0.01)
    p.grad += 1.0
    opt.step([p])
    assert opt.steps_taken(p) == 1
    before = p.value.copy()
    with pytest.raises(ValueError, match="twice"):
        opt.step([p, Param(np.ones(3)), p])
    assert opt.steps_taken(p) == 1
    np.testing.assert_array_equal(p.value, before)


def _textbook_adam(params, grads, steps, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    """Whole-array Adam, the formula the blocked update must reproduce bit for bit."""
    values = [p.copy() for p in params]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        for i, g in enumerate(grads[t - 1]):
            ms[i] = b1 * ms[i] + (1.0 - b1) * g
            vs[i] = b2 * vs[i] + (1.0 - b2) * g**2
            m_hat = ms[i] / (1.0 - b1**t)
            v_hat = vs[i] / (1.0 - b2**t)
            values[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return values, ms, vs


def test_adam_blocked_update_matches_textbook_bits():
    rng = np.random.default_rng(6)
    shapes = [(1,), (BLOCK - 1,), (BLOCK,), (BLOCK + 1,), (int(2.5 * BLOCK),), (300, 250)]
    init = [rng.standard_normal(s) for s in shapes]
    steps = 5
    grads = [[rng.standard_normal(s) * 10.0 ** rng.integers(-8, 3) for s in shapes] for _ in range(steps)]
    params = [Param(x.copy()) for x in init]
    opt = Adam(lr=0.01)
    for step_grads in grads:
        for p, g in zip(params, step_grads):
            p.grad[...] = g
        opt.step(params)
    values, ms, vs = _textbook_adam(init, grads, steps)
    for p, value, m, v in zip(params, values, ms, vs):
        assert opt.steps_taken(p) == steps
        np.testing.assert_array_equal(p.value, value)
        np.testing.assert_array_equal(opt.state_for(p)["m"], m)
        np.testing.assert_array_equal(opt.state_for(p)["v"], v)


def test_adam_nan_grad_moves_no_param():
    first, second = Param(np.ones(3), name="first"), Param(np.ones(4), name="second")
    opt = Adam(lr=0.01)
    first.grad += 1.0
    second.grad += 2.0
    opt.step([first, second])
    before = [
        (p.value.copy(), opt.state_for(p)["m"].copy(), opt.state_for(p)["v"].copy())
        for p in (first, second)
    ]
    second.grad[1] = np.nan
    with pytest.raises(NumericalError, match="second"):
        opt.step([first, second])
    for p, (value, m, v) in zip((first, second), before):
        assert opt.steps_taken(p) == 1
        np.testing.assert_array_equal(p.value, value)
        np.testing.assert_array_equal(opt.state_for(p)["m"], m)
        np.testing.assert_array_equal(opt.state_for(p)["v"], v)


def test_adam_moves_param_built_from_non_contiguous_array():
    p = Param(np.ones((3, 4)).T)
    assert p.value.flags.c_contiguous and p.value.shape == (4, 3)
    p.grad += 1.0
    Adam(lr=0.1).step([p])
    assert (p.value < 1.0).all()


def test_shape_validation():
    rng = np.random.default_rng(4)
    with pytest.raises(ShapeError):
        DenseNet.build([3, 4], ["relu", "relu"], rng)
    net = DenseNet.build([3, 4, 2], ["relu", "linear"], rng)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((2, 5)))
    with pytest.raises(ShapeError):
        net.forward(np.zeros(3))  # a batch is a matrix, even of one row
    with pytest.raises(ShapeError):
        DenseNet([net.layers[1], net.layers[0]])
    with pytest.raises(ShapeError):
        DenseLayer(Param(np.zeros((3, 4))), Param(np.zeros(3)))
    with pytest.raises(ValueError, match="activation"):
        DenseLayer(Param(np.zeros((3, 4))), Param(np.zeros(4)), "tanh")


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    shared = DenseLayer.create(4, 4, "relu", rng)
    net = DenseNet([DenseLayer.create(3, 4, "relu", rng), shared, shared])
    path = tmp_path / "ckpt.json"
    save_checkpoint(path, "test", net)
    net2 = load_checkpoint(path, "test", ())
    for p, q in zip(net.params(), net2.params()):
        np.testing.assert_array_equal(p.value, q.value)  # bit-exact
    # tying survives: layers 1 and 2 still share Params
    assert net2.layers[1].w is net2.layers[2].w


def test_checkpoint_rejects_wrong_kind(tmp_path):
    path = tmp_path / "x.json"
    save_checkpoint(path, "alpha", [])
    with pytest.raises(ValueError):
        load_checkpoint(path, "beta", ())
