"""Joint emotion-class learning: tying, gradients, training schedule,
embedding contracts and checkpointing."""

import tracemalloc

import numpy as np
import pytest

from jmml.errors import DegenerateVector, EmptyClassError, ShapeError
from jmml.jecl import (
    block_loss,
    build_jecl,
    embed,
    embed_blocks,
    latent_width,
    load_jecl,
    save_jecl,
    TrainTrace,
    train_jecl,
)
from jmml.losses import grad_check, loss_cosine_kld
from jmml.net import Adam, DenseLayer, DenseNet, Param, glorot_uniform, unique_params, zero_grads


def _two_class_data(n=20, d=6, seed=0):
    rng = np.random.default_rng(seed)
    return {
        1: rng.standard_normal((n, d)) + 1.0,
        2: rng.standard_normal((n, d)) - 1.0,
    }


def test_latent_width_per_setup():
    assert latent_width("setup1", 10) == 10
    assert latent_width("setup2", 10) == 5
    assert latent_width("setup3", 10) == 20
    with pytest.raises(ValueError):
        latent_width("setup9", 10)


def test_build_dimensions_default_setup3():
    model = build_jecl(input_dim=6, num_classes=2)
    assert model.input_dim == 6
    assert model.num_classes == 2
    b = model.blocks[0]
    # encoder 2N, latent 4N, decoder 2N, then the branch's half of the
    # 4N -> N fuse layer; the halves share one bias
    assert [l.out_dim for l in b.ind_branch.layers] == [12, 24, 12, 6]
    assert [l.out_dim for l in b.sim_branch.layers] == [12, 24, 12, 6]
    ind_fuse, sim_fuse = b.ind_branch.layers[-1], b.sim_branch.layers[-1]
    assert ind_fuse.w.value.shape == sim_fuse.w.value.shape == (12, 6)
    assert ind_fuse.activation == sim_fuse.activation == "linear"
    assert ind_fuse.b is sim_fuse.b and ind_fuse.w is not sim_fuse.w
    # the shared fuse bias is one private param, listed once
    assert sum(p is ind_fuse.b for p in b.private_params()) == 1


def test_similarity_latent_is_shared_object():
    model = build_jecl(input_dim=5, num_classes=3, seed=1)
    layers = [b.sim_branch.layers[1] for b in model.blocks]
    assert layers[0].w is layers[1].w is layers[2].w
    assert layers[0].b is layers[1].b is layers[2].b
    # independent branches are private
    assert model.blocks[0].ind_branch.layers[1].w is not model.blocks[1].ind_branch.layers[1].w


def test_shared_params_excluded_from_private():
    model = build_jecl(input_dim=4, num_classes=2)
    b = model.blocks[0]
    shared = b.shared_params()
    assert all(not any(p is q for q in shared) for p in b.private_params())


def test_block_loss_gradients_match_fd():
    model = build_jecl(input_dim=4, num_classes=2, hidden=5, seed=2)
    block = model.blocks[0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4))
    block.centroid = x.mean(axis=0)
    params = block.private_params() + block.shared_params()

    def fn():
        zero_grads(params)
        value = block_loss(block, x, kld_weight=0.5, backward=True)
        return value, [p.grad.copy() for p in params]

    assert grad_check(fn, [p.value for p in params]) < 1e-4


def test_forward_fused_is_sum_of_branch_readouts():
    model = build_jecl(input_dim=4, num_classes=2, seed=4)
    x = np.random.default_rng(5).standard_normal((3, 4))
    block = model.blocks[0]
    cache = block.forward(x)
    ind_fuse, sim_fuse = block.ind_branch.layers[-1], block.sim_branch.layers[-1]
    b = ind_fuse.b.value
    np.testing.assert_allclose(cache["fused"], cache["rec_ind"] + cache["rec_sim"] - b, atol=1e-12)
    # fused equals the full fuse layer on the concatenated decoder outputs
    full = np.hstack([cache["ind_acts"][-2], cache["sim_acts"][-2]])
    w = np.vstack([ind_fuse.w.value, sim_fuse.w.value])
    np.testing.assert_allclose(cache["fused"], full @ w + b, atol=1e-12)


def _sliced_fuse_build(input_dim, num_classes, setup, hidden, seed):
    """Initial values of the original layout, drawn in its order: branches
    that stop at their decoders, and one (2h, N) fuse layer per block."""
    rng = np.random.default_rng(seed)
    h = 2 * input_dim if hidden is None else hidden
    lat = latent_width(setup, h)
    shared = glorot_uniform(rng, h, lat)
    blocks = []
    for _ in range(num_classes):
        ind = [glorot_uniform(rng, a, b) for a, b in ((input_dim, h), (h, lat), (lat, h))]
        sim = [glorot_uniform(rng, input_dim, h), shared, glorot_uniform(rng, lat, h)]
        blocks.append((ind, sim, glorot_uniform(rng, 2 * h, input_dim)))
    return blocks


def _sliced_fuse_pass(ind, sim, fuse, x, centroid, kld_weight):
    """The original block forward/backward: one fuse layer read out once per
    branch by slicing its weight rows by hand.  Returns the reconstructions,
    the fused embedding and the loss."""
    ind_acts = ind.forward(x)
    sim_acts = sim.forward(x)
    d_ind, d_sim = ind_acts[-1], sim_acts[-1]
    h = d_ind.shape[1]
    w, b = fuse.w.value, fuse.b.value
    rec_ind = d_ind @ w[:h] + b
    rec_sim = d_sim @ w[h:] + b
    fused = rec_ind + rec_sim - b
    rep_ind = loss_cosine_kld(rec_ind, x, centroid, kld_weight)
    rep_sim = loss_cosine_kld(rec_sim, x, centroid, kld_weight)
    g_ind, g_sim = rep_ind.grads[0], rep_sim.grads[0]
    fuse.w.grad[:h] += d_ind.T @ g_ind
    fuse.w.grad[h:] += d_sim.T @ g_sim
    fuse.b.grad += g_ind.sum(axis=0) + g_sim.sum(axis=0)
    ind.backward(ind_acts, g_ind @ w[:h].T)
    sim.backward(sim_acts, g_sim @ w[h:].T)
    return rec_ind, rec_sim, fused, rep_ind.value + rep_sim.value


@pytest.mark.parametrize("setup, hidden", [
    ("setup1", None), ("setup2", None), ("setup3", None), ("setup2", 9), ("setup3", 7),
])
def test_branch_nets_match_sliced_fuse_reference_bit_for_bit(setup, hidden):
    model = build_jecl(input_dim=8, num_classes=3, setup=setup, hidden=hidden, seed=21)
    reference = _sliced_fuse_build(8, 3, setup, hidden, seed=21)
    rng = np.random.default_rng(22)
    for block, (ind_w, sim_w, fuse_w) in zip(model.blocks, reference):
        ind_layers, sim_layers = block.ind_branch.layers, block.sim_branch.layers
        ind_fuse, sim_fuse = ind_layers[-1], sim_layers[-1]
        # the same draws: every layer's weight, the fuse weight split by rows
        for layer, w in zip(ind_layers[:-1] + sim_layers[:-1], ind_w + sim_w):
            np.testing.assert_array_equal(layer.w.value, w)
        np.testing.assert_array_equal(np.vstack([ind_fuse.w.value, sim_fuse.w.value]), fuse_w)

        # the reference runs on copies of the block's layers, so the two
        # accumulate their gradients apart
        def copy(layer):
            return DenseLayer(Param(layer.w.value.copy()), Param(layer.b.value.copy()), layer.activation)

        ref_ind = DenseNet([copy(l) for l in ind_layers[:-1]])
        ref_sim = DenseNet([copy(l) for l in sim_layers[:-1]])
        ref_fuse = DenseLayer(Param(fuse_w), Param(ind_fuse.b.value.copy()), "linear")
        x = rng.standard_normal((6, 8))
        block.centroid = x.mean(axis=0)
        params = block.private_params() + block.shared_params()
        zero_grads(params)
        cache = block.forward(x)
        loss = block_loss(block, x, kld_weight=0.5, backward=True)
        rec_ind, rec_sim, fused, ref_loss = _sliced_fuse_pass(
            ref_ind, ref_sim, ref_fuse, x, block.centroid, 0.5)
        np.testing.assert_array_equal(cache["rec_ind"], rec_ind)
        np.testing.assert_array_equal(cache["rec_sim"], rec_sim)
        np.testing.assert_array_equal(cache["fused"], fused)
        assert loss == ref_loss
        h = ind_fuse.in_dim
        for layer, ref in zip(ind_layers[:-1] + sim_layers[:-1], ref_ind.layers + ref_sim.layers):
            np.testing.assert_array_equal(layer.w.grad, ref.w.grad)
            np.testing.assert_array_equal(layer.b.grad, ref.b.grad)
        np.testing.assert_array_equal(ind_fuse.w.grad, ref_fuse.w.grad[:h])
        np.testing.assert_array_equal(sim_fuse.w.grad, ref_fuse.w.grad[h:])
        np.testing.assert_array_equal(ind_fuse.b.grad, ref_fuse.b.grad)


def test_training_reduces_loss():
    model = build_jecl(input_dim=6, num_classes=2, seed=6)
    trace = train_jecl(model, _two_class_data(seed=6), epochs=60, lr=1e-3, seed=6)
    assert model.trained
    assert trace.total[-1] < trace.total[0]


def test_alternating_schedule_step_counts():
    # per epoch the shared latent steps once per block; private params once
    model = build_jecl(input_dim=5, num_classes=2, seed=7)
    trace = train_jecl(model, _two_class_data(d=5, seed=7), epochs=10, val_frac=0.0, seed=7)
    n_epochs = len(trace.total)
    assert trace.steps["shared"] == 2 * n_epochs
    assert trace.steps["private"] == {1: n_epochs, 2: n_epochs}


def test_centroids_frozen_during_training():
    model = build_jecl(input_dim=5, num_classes=2, seed=8)
    data = _two_class_data(d=5, seed=8)
    train_jecl(model, data, epochs=5, seed=8)
    frozen = [b.centroid.copy() for b in model.blocks]
    train_jecl(model, data, epochs=5, seed=8)
    for b, c in zip(model.blocks, frozen):
        np.testing.assert_array_equal(b.centroid, c)


def test_early_stopping_respects_patience():
    model = build_jecl(input_dim=4, num_classes=2, seed=9)
    trace = train_jecl(model, _two_class_data(n=30, d=4, seed=9),
                       epochs=500, patience=5, seed=9)
    assert len(trace.total) < 500


def test_early_stopping_restores_every_block_to_best_epoch():
    data = _two_class_data(n=30, d=4, seed=17)
    model = build_jecl(input_dim=4, num_classes=2, seed=17)
    trace = train_jecl(model, data, epochs=300, lr=1e-2, patience=3, seed=17)
    best = int(np.argmin(trace.validation))
    assert best < len(trace.total) - 1  # it stopped past its best epoch
    reference = build_jecl(input_dim=4, num_classes=2, seed=17)
    train_jecl(reference, data, epochs=best + 1, lr=1e-2, patience=10**6, seed=17)
    for block, ref in zip(model.blocks, reference.blocks):
        for p, q in zip(block.private_params() + block.shared_params(),
                        ref.private_params() + ref.shared_params()):
            np.testing.assert_array_equal(p.value, q.value)


def _reference_train(model, samples_by_class, epochs, lr, val_frac, patience, seed):
    """``train_jecl`` written out plainly: every Param keeps its own gradient
    buffer, each turn zeroes only its block, and early stopping copies the
    params at every improvement and restores the copy at the end."""
    rng = np.random.default_rng(seed)
    train_sets, val_sets = {}, {}
    for cid in sorted(samples_by_class):
        x = samples_by_class[cid]
        order = rng.permutation(x.shape[0])
        n_val = int(round(val_frac * x.shape[0]))
        val_sets[cid], train_sets[cid] = x[order[:n_val]], x[order[n_val:]]
    for block in model.blocks:
        block.centroid = train_sets[block.class_id].mean(axis=0)
    opt = Adam(lr=lr)
    trace = TrainTrace()
    all_params = unique_params(p for b in model.blocks for p in b.private_params() + b.shared_params())
    best_val, best_state, stale = np.inf, None, 0
    for _ in range(epochs):
        losses = {}
        for block in model.blocks:
            params = block.private_params() + block.shared_params()
            zero_grads(params)
            losses[block.class_id] = block_loss(block, train_sets[block.class_id],
                                                model.kld_weight, backward=True)
            opt.step(params)
        trace.per_block.append(losses)
        trace.total.append(sum(losses.values()))
        val = sum(block_loss(b, val_sets[b.class_id], model.kld_weight) for b in model.blocks)
        trace.validation.append(val)
        if val < best_val - 1e-12:
            best_val, best_state, stale = val, [p.value.copy() for p in all_params], 0
        else:
            stale += 1
            if stale >= patience:
                break
    for p, saved in zip(all_params, best_state):
        p.value[...] = saved
    trace.steps = {
        "shared": opt.steps_taken(model.blocks[0].shared_params()[0]),
        "private": {b.class_id: opt.steps_taken(b.private_params()[0]) for b in model.blocks},
    }
    return trace


def _assert_same_params(model, reference):
    for block, ref in zip(model.blocks, reference.blocks):
        for p, q in zip(block.private_params() + block.shared_params(),
                        ref.private_params() + ref.shared_params()):
            np.testing.assert_array_equal(p.value, q.value)


def test_shared_gradient_buffers_match_separate_buffers_bit_for_bit():
    rng = np.random.default_rng(23)
    data = {c: rng.standard_normal((20, 5)) + c for c in (1, 2, 3)}
    model = build_jecl(input_dim=5, num_classes=3, seed=23)
    reference = build_jecl(input_dim=5, num_classes=3, seed=23)
    trace = train_jecl(model, data, epochs=80, lr=1e-2, patience=4, seed=23)
    ref_trace = _reference_train(reference, data, epochs=80, lr=1e-2, val_frac=0.1,
                                 patience=4, seed=23)
    assert int(np.argmin(trace.validation)) < len(trace.total) - 1  # it restored
    _assert_same_params(model, reference)
    assert trace == ref_trace  # losses, validation and step counts, bit for bit
    # the reference's blocks kept their own gradients
    assert all(p.grad.any() for b in reference.blocks for p in b.private_params())


def test_only_the_last_trained_block_holds_private_gradient_arrays():
    rng = np.random.default_rng(24)
    model = build_jecl(input_dim=5, num_classes=3, seed=24)
    train_jecl(model, {c: rng.standard_normal((20, 5)) + c for c in (1, 2, 3)}, epochs=3, seed=24)
    *earlier, last = model.blocks
    assert all(p._grad is None for b in earlier for p in b.private_params())
    assert all(p._grad is not None for p in last.private_params() + last.shared_params())


def test_trained_blocks_never_see_each_others_gradients():
    model = build_jecl(input_dim=5, num_classes=2, seed=24)
    data = _two_class_data(d=5, seed=24)
    train_jecl(model, data, epochs=2, seed=24)  # hands the arrays round the blocks
    first, second = model.blocks
    zero_grads([p for b in model.blocks for p in b.private_params() + b.shared_params()])
    block_loss(first, data[1], backward=True)
    live = [p.grad.copy() for p in first.private_params()]
    block_loss(second, data[2], backward=True)
    for p, g in zip(first.private_params(), live):
        np.testing.assert_array_equal(p.grad, g)


def test_jecl_training_holds_one_blocks_private_gradients():
    """tracemalloc peak of building and training a two-class model: the
    values, Adam's two moments, the early-stop snapshot, one block's private
    gradients and the shared latent's, plus 10% for the passes."""
    rng = np.random.default_rng(25)
    data = {c: rng.standard_normal((30, 96)) + c for c in (1, 2)}
    tracemalloc.start()
    try:
        model = build_jecl(input_dim=96, num_classes=2, seed=25)
        train_jecl(model, data, epochs=6, seed=25)  # takes an early-stop snapshot
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    def nbytes(params):
        return sum(p.value.nbytes for p in params)

    block = model.blocks[0]
    values = nbytes(unique_params(p for b in model.blocks for p in b.private_params() + b.shared_params()))
    bound = 4 * values + nbytes(block.private_params()) + nbytes(block.shared_params())
    assert peak < 1.1 * bound


def test_early_stopping_best_epoch_last_keeps_its_params():
    data = _two_class_data(n=30, d=4, seed=17)
    model = build_jecl(input_dim=4, num_classes=2, seed=17)
    trace = train_jecl(model, data, epochs=300, lr=1e-2, patience=3, seed=17)
    best = int(np.argmin(trace.validation))
    # trained for exactly the best epoch's count, its last epoch is its best
    # and an earlier one improved too, so a snapshot of that one exists
    last = build_jecl(input_dim=4, num_classes=2, seed=17)
    last_trace = train_jecl(last, data, epochs=best + 1, lr=1e-2, patience=3, seed=17)
    assert len(last_trace.total) == best + 1 and best > 0
    assert int(np.argmin(last_trace.validation)) == best
    _assert_same_params(last, model)
    reference = build_jecl(input_dim=4, num_classes=2, seed=17)
    _reference_train(reference, data, epochs=best + 1, lr=1e-2, val_frac=0.1, patience=3, seed=17)
    _assert_same_params(last, reference)


def test_missing_class_rejected():
    model = build_jecl(input_dim=4, num_classes=2)
    with pytest.raises(EmptyClassError):
        train_jecl(model, {1: np.zeros((3, 4))}, epochs=1)


def test_dead_branch_error_names_block_and_branch():
    # too narrow to keep a ReLU unit alive on every row: a zero reconstruction
    model = build_jecl(6, 3, setup="setup2", hidden=7, seed=1)
    rng = np.random.default_rng(0)
    with pytest.raises(DegenerateVector, match=r"^block 1 sim branch: cosine similarity undefined"):
        train_jecl(model, {c: rng.standard_normal((30, 6)) + c for c in (1, 2, 3)}, epochs=50)


def test_dim_mismatch_rejected():
    model = build_jecl(input_dim=4, num_classes=2)
    with pytest.raises(ShapeError):
        train_jecl(model, {1: np.zeros((3, 5)), 2: np.zeros((3, 5))}, epochs=1)


def test_embed_shapes_and_routing():
    model = build_jecl(input_dim=6, num_classes=3, seed=10)
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 6))
    out = embed(model, x)
    assert out.shape == (4, 3, 6)
    single = embed(model, x[0])
    assert single.shape == (3, 6)
    np.testing.assert_allclose(single, out[0], atol=1e-12)
    blocks = embed_blocks(model, x)
    assert len(blocks) == 3 and blocks[0].shape == (4, 6)
    np.testing.assert_array_equal(blocks[1], out[:, 1, :])


def test_embed_uses_no_labels():
    # identical inputs embed identically regardless of any class context
    model = build_jecl(input_dim=4, num_classes=2, seed=12)
    x = np.random.default_rng(13).standard_normal(4)
    np.testing.assert_array_equal(embed(model, x), embed(model, x))


def test_checkpoint_roundtrip_preserves_tying(tmp_path):
    model = build_jecl(input_dim=5, num_classes=2, seed=14)
    train_jecl(model, _two_class_data(d=5, seed=14), epochs=3, seed=14)
    path = tmp_path / "jecl.json"
    save_jecl(model, path)
    loaded = load_jecl(path)
    assert loaded.setup == model.setup and loaded.trained
    lat = [b.sim_branch.layers[1] for b in loaded.blocks]
    assert lat[0].w is lat[1].w  # tying survives the round trip
    x = np.random.default_rng(15).standard_normal((3, 5))
    np.testing.assert_array_equal(embed(loaded, x), embed(model, x))


def test_tied_latent_exact_equality_across_blocks():
    # after training, every block reports the same shared-latent array
    model = build_jecl(input_dim=5, num_classes=2, seed=16)
    train_jecl(model, _two_class_data(d=5, seed=16), epochs=10, seed=16)
    w0 = model.blocks[0].shared_params()[0].value
    w1 = model.blocks[1].shared_params()[0].value
    assert w0 is w1
    np.testing.assert_array_equal(w0, w1)
