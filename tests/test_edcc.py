"""Cross-modal autoencoder: objective gradients, training, single-modality
inference purity, and checkpointing."""

import numpy as np
import pytest

from jmml.edcc import (
    MinMaxScaler,
    build_edcc,
    canonical_correlation,
    classifier_features,
    infer_single,
    load_edcc,
    objective,
    save_edcc,
    train_edcc,
)
from jmml.errors import PairingError, RangeError, ShapeError, UnsupportedConfiguration
from jmml.losses import grad_check, loss_cca
from jmml.net import zero_grads


def _paired_data(n=40, d1=5, d2=4, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 3))
    x1 = 1.0 / (1.0 + np.exp(-z @ rng.standard_normal((3, d1))))
    x2 = 1.0 / (1.0 + np.exp(-z @ rng.standard_normal((3, d2))))
    return x1, x2


def test_build_shapes():
    model = build_edcc((5, 4), projection_dim=3, seed=0)
    m0, m1 = model.modalities
    assert m0.encoder.input_dim == 5 and m1.encoder.input_dim == 4
    assert m0.projection.out_dim == 3
    assert m0.s_head.out_dim == 5 and m0.x_head.out_dim == 4
    assert m1.s_head.out_dim == 4 and m1.x_head.out_dim == 5


def test_three_modalities_unsupported():
    with pytest.raises(UnsupportedConfiguration):
        build_edcc((5, 4, 3))


def test_minmax_scaler_maps_to_unit_interval():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 4)) * 10.0
    scaler = MinMaxScaler.fit(x)
    s = scaler.transform(x)
    assert s.min() == pytest.approx(0.0) and s.max() == pytest.approx(1.0)
    # out-of-range new data clips
    clipped = scaler.transform(x * 5.0)
    assert clipped.min() >= 0.0 and clipped.max() <= 1.0


def test_constant_column_scaler_safe():
    x = np.ones((5, 2))
    s = MinMaxScaler.fit(x).transform(x)
    assert np.isfinite(s).all()


def test_objective_additivity():
    # total objective decomposes exactly into its three weighted terms
    model = build_edcc((5, 4), hidden=6, projection_dim=2, seed=2)
    x1, x2 = _paired_data(seed=2)
    full = objective(model, x1, x2, cca_w=0.7, srec_w=1.3, xrec_w=0.4)
    cca_only = objective(model, x1, x2, cca_w=0.7, srec_w=0.0, xrec_w=0.0)
    rec_only = objective(model, x1, x2, cca_w=0.0, srec_w=1.3, xrec_w=0.4)
    assert full.total == pytest.approx(cca_only.cca + rec_only.srec + rec_only.xrec, abs=1e-12)


def test_objective_gradients_match_fd():
    # linearize the trunks and condition the heads so the check sits away
    # from the ReLU kinks and the BCE clamp boundary (both are genuine
    # non-differentiabilities where finite differences are meaningless);
    # the ReLU backward itself is finite-difference-verified in test_net.
    model = build_edcc((4, 3), hidden=4, projection_dim=2, seed=3)
    for nets in model.modalities:
        for layer in nets.encoder.layers + nets.decoder.layers:
            layer.activation = "linear"
        for head in (nets.s_head, nets.x_head):
            head.w.value *= 0.01
            head.b.value[...] = 0.5
    x1, x2 = _paired_data(n=25, d1=4, d2=3, seed=3)
    params = model.params()

    def fn():
        zero_grads(params)
        rec = objective(model, x1, x2, cca_w=1.0, srec_w=1.0, xrec_w=1.0,
                        reg=1e-2, backward=True)
        return rec.total, [p.grad.copy() for p in params]

    assert grad_check(fn, [p.value for p in params]) < 1e-4


def test_training_improves_objective_and_correlation():
    model = build_edcc((5, 4), hidden=8, projection_dim=2, seed=4)
    x1, x2 = _paired_data(n=60, seed=4)
    corr_before = canonical_correlation(model, x1, x2, reg=1e-3)
    trace = train_edcc(model, x1, x2, epochs=30, batch_size=16, lr=1e-3, reg=1e-3, seed=4)
    assert model.trained
    assert trace[-1].total < trace[0].total
    corr_after = canonical_correlation(model, x1, x2, reg=1e-3)
    assert corr_after > corr_before


def test_canonical_correlation_is_the_cca_loss_per_component():
    model = build_edcc((5, 4), hidden=8, projection_dim=2, seed=4)
    x1, x2 = _paired_data(n=60, seed=4)
    train_edcc(model, x1, x2, epochs=2, batch_size=16, reg=1e-3, seed=4)
    proj1, proj2 = (infer_single(model, m, x).projection for m, x in enumerate((x1, x2)))
    assert canonical_correlation(model, x1, x2, reg=1e-3) == -loss_cca(proj1, proj2, 1e-3).value / 2


def test_train_validates_inputs():
    model = build_edcc((5, 4), seed=5)
    x1, x2 = _paired_data(seed=5)
    with pytest.raises(PairingError):
        train_edcc(model, x1[:10], x2, epochs=1)
    with pytest.raises(RangeError):
        train_edcc(model, x1 * 10.0, x2, epochs=1)
    with pytest.raises(ShapeError):
        train_edcc(model, x1[:, :3], x2[:, :3], epochs=1)


def test_cca_step_needs_more_paired_rows_than_components():
    model = build_edcc((5, 4), projection_dim=3, seed=5)
    x1, x2 = _paired_data(n=3, seed=5)
    before = [p.value.copy() for p in model.params()]
    with pytest.raises(ShapeError, match="^3 paired rows .* 3 components; it needs at least 4$"):
        train_edcc(model, x1, x2, epochs=1)
    for p, value in zip(model.params(), before):  # rejected before any training
        np.testing.assert_array_equal(p.value, value)
    train_edcc(model, x1, x2, epochs=1, cca_w=0.0)  # no CCA step, no such bound


def test_infer_single_touches_one_modality_only():
    # corrupting modality 1's weights must not change modality 0's inference
    model = build_edcc((5, 4), hidden=6, seed=6)
    x1, _ = _paired_data(seed=6)
    before = infer_single(model, 0, x1)
    for p in model.modalities[1].params():
        p.value[...] = 123.456
    after = infer_single(model, 0, x1)
    np.testing.assert_array_equal(before.s_rec, after.s_rec)
    np.testing.assert_array_equal(before.x_rec, after.x_rec)
    np.testing.assert_array_equal(before.projection, after.projection)


def test_infer_single_vector_matches_batch():
    model = build_edcc((5, 4), seed=7)
    x1, _ = _paired_data(seed=7)
    batch = infer_single(model, 0, x1[:3])
    single = infer_single(model, 0, x1[0])
    np.testing.assert_allclose(single.s_rec, batch.s_rec[0], atol=1e-12)
    np.testing.assert_allclose(single.x_rec, batch.x_rec[0], atol=1e-12)


def test_infer_single_validates():
    model = build_edcc((5, 4), seed=8)
    with pytest.raises(ValueError):
        infer_single(model, 2, np.zeros(5))
    with pytest.raises(ShapeError):
        infer_single(model, 0, np.zeros(4))
    with pytest.raises(RangeError):
        infer_single(model, 0, np.full(5, 2.0))


def test_classifier_features_concatenate_input_and_self_rec():
    model = build_edcc((5, 4), seed=9)
    x1, _ = _paired_data(seed=9)
    feats = classifier_features(model, 0, x1)
    assert feats.shape == (x1.shape[0], 10)
    np.testing.assert_array_equal(feats[:, :5], x1)
    np.testing.assert_array_equal(feats[:, 5:], infer_single(model, 0, x1).s_rec)


def test_checkpoint_roundtrip(tmp_path):
    model = build_edcc((5, 4), hidden=6, projection_dim=2, seed=10)
    x1, x2 = _paired_data(n=30, seed=10)
    model.scalers = [MinMaxScaler.fit(x1 * 3.0), MinMaxScaler.fit(x2 * 3.0)]
    train_edcc(model, x1, x2, epochs=3, seed=10)
    path = tmp_path / "edcc.json"
    save_edcc(model, path)
    loaded = load_edcc(path)
    assert loaded.trained and loaded.input_dims == (5, 4)
    np.testing.assert_array_equal(loaded.scalers[0].mins, model.scalers[0].mins)
    r0 = infer_single(model, 0, x1)
    r1 = infer_single(loaded, 0, x1)
    np.testing.assert_array_equal(r0.s_rec, r1.s_rec)  # bit-exact round trip
    np.testing.assert_array_equal(r0.x_rec, r1.x_rec)
