"""Dense-net kernel: forward/backward correctness, tying, Adam, checkpoints."""

import tracemalloc

import numpy as np
import pytest

from jmml.errors import NumericalError, ShapeError
from jmml.losses import grad_check
from jmml.net import BLOCK, Adam, DenseLayer, DenseNet, Param, glorot_uniform, zero_grads
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
    grads = rng.standard_normal((2, *out.shape))
    for _ in range(2):  # a pass after zero_grads starts the sum over
        zero_grads(second.params())
        first.backward([x, out], grads[0])
        second.layers[0].backward(x, out, grads[1])
        # the first use writes the stale gradient, the second adds to it:
        # the same values as accumulating both from zeros
        w_sum, b_sum = np.zeros((3, 3)), np.zeros(3)
        for g in grads:
            g = np.where(out > 0.0, g, 0.0)
            w_sum += x.T @ g
            b_sum += g.sum(axis=0)
        np.testing.assert_array_equal(layer.w.grad, w_sum)
        np.testing.assert_array_equal(layer.b.grad, b_sum)


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
        assert not p.grad.any()  # a stale gradient reads as zeros
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
    # one more param, with zero values of either sign, takes exact zeros of
    # either sign and grads that square to zero, each element a new mix per step
    specials = np.tile([0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-200, 1.0], 9)
    init.append(np.tile([0.0, -0.0, 1.0, -1e-300, 3.0], 13)[: specials.size])
    for t, step_grads in enumerate(grads):
        step_grads.append(np.roll(specials, t))
    params = [Param(x.copy()) for x in init]
    opt = Adam(lr=0.01)
    for t, step_grads in enumerate(grads, 1):
        for p, g in zip(params, step_grads):
            p.grad[...] = g
        opt.step(params)
        # after every step, so a zero's sign cannot be lost to a later step
        values, ms, vs = _textbook_adam(init, grads, t)
        for p, value, m, v in zip(params, values, ms, vs):
            assert opt.steps_taken(p) == t
            np.testing.assert_array_equal(p.value.view(np.uint64), value.view(np.uint64))
            np.testing.assert_array_equal(opt.state_for(p)["m"].view(np.uint64), m.view(np.uint64))
            np.testing.assert_array_equal(opt.state_for(p)["v"].view(np.uint64), v.view(np.uint64))


def test_training_step_allocates_no_weight_sized_temporary():
    rng = np.random.default_rng(7)
    layer = DenseLayer.create(1024, 1024, "relu", rng)
    params = [layer.w, layer.b]
    x = rng.standard_normal((8, 1024))
    out = layer.forward(x)
    grad_out = rng.standard_normal(out.shape)
    opt = Adam()

    def step():
        zero_grads(params)
        layer.backward(x, out, grad_out)
        opt.step(params)

    step()  # the warm-up step allocates the moments
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < layer.w.value.nbytes / 4


def test_take_grad_moves_the_array_and_leaves_both_stale():
    rng = np.random.default_rng(8)
    first = Param(rng.standard_normal((3, 2)), name="first")
    second = Param(rng.standard_normal((3, 2)), name="second")
    g1, g2, g3 = rng.standard_normal((3, 3, 2))
    first.add_grad(np.positive, g1)
    array = first.grad
    second.take_grad(first)
    assert first._grad is None  # the source keeps no array
    # both are stale: the first write to the moved array replaces first's numbers
    second.add_grad(np.positive, g2)
    assert second.grad is array
    np.testing.assert_array_equal(array, g2)
    # the source reads zeros from an array of its own, and writes only there
    assert not first.grad.any() and first.grad is not array
    first.add_grad(np.positive, g3)
    np.testing.assert_array_equal(first.grad, g3)
    np.testing.assert_array_equal(second.grad, g2)


def test_take_grad_needs_equal_shapes():
    p, q = Param(np.zeros((2, 3)), name="p"), Param(np.zeros((3, 2)), name="q")
    with pytest.raises(ShapeError, match=r"p \(2, 3\) cannot take .* q \(3, 2\)"):
        p.take_grad(q)


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


@pytest.mark.parametrize("shape", [(1, 1), (5, 3), (64, 128), (88, 176), (832, 1664)])
def test_glorot_draw_equals_uniform_bits_and_generator_state(shape):
    rng, ref = np.random.default_rng(21), np.random.default_rng(21)
    limit = np.sqrt(6.0 / sum(shape))
    w = glorot_uniform(rng, *shape)
    np.testing.assert_array_equal(w.view(np.uint64), ref.uniform(-limit, limit, size=shape).view(np.uint64))
    assert rng.random() == ref.random()


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
