"""Label plumbing, splits, oversampling, pairing and the synthetic corpus."""

import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmml.config import from_dict
from jmml.errors import EmptyClassError, LabelError, RangeError, SingleClassError
from jmml.forest import NEG, POS
from jmml.pipeline import (
    Dataset,
    SplitSpec,
    SynthSpec,
    audit_no_leakage,
    binarize_rating,
    cv_select,
    kfold,
    mco_oversample,
    pair_by_label,
    relabel_categorical,
    resample_to_size,
    stratified_split,
    synth_bimodal,
)


# ---------------------------------------------------------------------------
# labels


def test_binarize_threshold_convention():
    assert binarize_rating(4.5) == POS  # '+' at the threshold itself
    assert binarize_rating(4.4999) == NEG
    assert binarize_rating(9.0) == POS
    assert binarize_rating(1.0) == NEG


def test_binarize_range_checked():
    for bad in (0.5, 9.5, -1.0):
        with pytest.raises(RangeError):
            binarize_rating(bad)


def test_relabel_categorical_table():
    assert relabel_categorical("Anger") == ("valence", NEG)
    assert relabel_categorical("Happy") == ("valence", POS)
    assert relabel_categorical("Sad") == ("arousal", NEG)
    assert relabel_categorical("Neutral") == ("arousal", POS)
    with pytest.raises(LabelError):
        relabel_categorical("Disgust")


# ---------------------------------------------------------------------------
# dataset and splits


def _dataset(n_pos=40, n_neg=40, d=3, seed=0):
    rng = np.random.default_rng(seed)
    n = n_pos + n_neg
    return Dataset(
        rng.standard_normal((n, d)),
        np.array([POS] * n_pos + [NEG] * n_neg),
        np.array([f"s{i}" for i in range(n)]),
    )


def test_split_is_partition():
    ds = _dataset()
    train, val, test = stratified_split(ds, SplitSpec(seed=1))
    all_ids = np.concatenate([train.ids, val.ids, test.ids])
    assert sorted(all_ids) == sorted(ds.ids)
    assert len(set(all_ids)) == len(ds)


def test_split_fractions_and_stratification():
    ds = _dataset(n_pos=50, n_neg=30)
    train, val, test = stratified_split(ds, SplitSpec(seed=2))
    assert len(test) == round(0.2 * 50) + round(0.2 * 30)
    # per-class ratios preserved within one sample
    for label, total in ((POS, 50), (NEG, 30)):
        n_test = int(np.sum(test.y == label))
        assert abs(n_test - 0.2 * total) <= 1


def test_split_deterministic_per_seed():
    ds = _dataset()
    a = stratified_split(ds, SplitSpec(seed=3))
    b = stratified_split(ds, SplitSpec(seed=3))
    c = stratified_split(ds, SplitSpec(seed=4))
    np.testing.assert_array_equal(a[0].ids, b[0].ids)
    assert not np.array_equal(a[0].ids, c[0].ids)


def test_split_small_class_rejected():
    ds = _dataset(n_pos=5, n_neg=40)
    with pytest.raises(EmptyClassError, match="class \\+ has 5 samples"):
        stratified_split(ds)


def test_split_spec_fractions_validated():
    with pytest.raises(ValueError):
        SplitSpec(train_frac=0.8, test_frac=0.3)


# ---------------------------------------------------------------------------
# oversampling / resampling / pairing


def test_mco_balances_classes():
    ds = _dataset(n_pos=50, n_neg=20)
    out = mco_oversample(ds, seed=0)
    assert int(np.sum(out.y == POS)) == int(np.sum(out.y == NEG)) == 50
    # duplicates come only from the minority class
    assert set(out.ids) == set(ds.ids)


def test_mco_balanced_input_untouched():
    ds = _dataset(n_pos=30, n_neg=30)
    assert mco_oversample(ds) is ds


def test_mco_requires_both_classes():
    ds = _dataset(n_pos=10, n_neg=0)
    with pytest.raises(SingleClassError):
        mco_oversample(ds)


def test_resample_exact_counts():
    ds = _dataset(n_pos=40, n_neg=40)
    out = resample_to_size(ds, 100, seed=1)
    assert len(out) == 100
    out2 = resample_to_size(ds, 30, seed=1)
    assert len(out2) == 30


def test_resample_808_from_472():
    # growing a 472-sample pool to 808 preserves balance
    ds = _dataset(n_pos=236, n_neg=236, seed=5)
    out = resample_to_size(ds, 808, seed=2)
    assert len(out) == 808
    assert int(np.sum(out.y == POS)) == 404


def test_pair_by_label_shapes_and_alignment():
    a = _dataset(n_pos=30, n_neg=20, d=4, seed=6)
    b = _dataset(n_pos=10, n_neg=25, d=3, seed=7)
    xa, xb, labels = pair_by_label(a, b, seed=0)
    assert xa.shape == (max(30, 10) + max(20, 25), 4)
    assert xb.shape == (xa.shape[0], 3)
    assert int(np.sum(labels == POS)) == 30 and int(np.sum(labels == NEG)) == 25


def test_pair_by_label_missing_class():
    a = _dataset(n_pos=10, n_neg=0)
    b = _dataset(n_pos=10, n_neg=10)
    with pytest.raises(SingleClassError):
        pair_by_label(a, b)


def test_kfold_partitions_one_permutation():
    splits = kfold(23, 5, np.random.default_rng(4))
    order = np.random.default_rng(4).permutation(23)
    np.testing.assert_array_equal(np.concatenate([test for _train, test in splits]), order)
    assert [test.size for _train, test in splits] == [5, 5, 5, 4, 4]
    for f, (train, test) in enumerate(splits):
        others = [t for g, (_tr, t) in enumerate(splits) if g != f]
        np.testing.assert_array_equal(train, np.concatenate(others))
        assert np.intersect1d(train, test).size == 0


def test_cv_select_mean_loss_margin_and_skipped_folds():
    def loss(cand, _train, test):
        if cand == "skip" or (cand == "b" and test.size == 3):
            return None  # every fold of "skip"; the two 3-row folds of "b"
        return {"a": 2.0, "b": 1.0, "c": 1.0 - 1e-13, "d": 0.5 * test.size}[cand]

    # "c" beats "b" by less than 1e-12; "d" averages 1.25 over all four folds
    assert cv_select(["a", "skip", "b", "c", "d"], 10, 4, 0, loss) == "b"
    assert cv_select(["skip", "d"], 10, 4, 0, loss) == "d"
    assert cv_select(["skip"], 10, 4, 0, loss) is None


def test_cv_select_uses_kfold_splits():
    seen = []
    cv_select([0], 23, 5, 4, lambda _c, train, test: seen.append((train, test)) or 0.0)
    assert len(seen) == 5
    for (tr, te), (tr_ref, te_ref) in zip(seen, kfold(23, 5, np.random.default_rng(4))):
        np.testing.assert_array_equal(tr, tr_ref)
        np.testing.assert_array_equal(te, te_ref)


def test_audit_no_leakage():
    ds = _dataset()
    train, _val, test = stratified_split(ds, SplitSpec(seed=8))
    assert audit_no_leakage(mco_oversample(train), test)
    assert not audit_no_leakage(ds, test)


# ---------------------------------------------------------------------------
# synthetic corpus


def test_synth_shapes_and_labels():
    spec = SynthSpec(n_per_class=50, latent_dim=4, dims=(16, 12), seed=0)
    ds1, ds2 = synth_bimodal(spec)
    assert ds1.x.shape == (100, 16) and ds2.x.shape == (100, 12)
    np.testing.assert_array_equal(ds1.y, ds2.y)
    assert int(np.sum(ds1.y == POS)) == 50
    assert ds1.modality == "eeg" and ds2.modality == "speech"


def test_synth_deterministic_per_spec():
    spec = SynthSpec(n_per_class=20, seed=3)
    a1, a2 = synth_bimodal(spec)
    b1, b2 = synth_bimodal(spec)
    np.testing.assert_array_equal(a1.x, b1.x)
    np.testing.assert_array_equal(a2.x, b2.x)
    c1, _c2 = synth_bimodal(SynthSpec(n_per_class=20, seed=4))
    assert not np.array_equal(a1.x, c1.x)


def test_synth_classes_separable_at_low_noise():
    spec = SynthSpec(n_per_class=100, dims=(16, 12), noise=0.1, seed=5, class_separation=3.0)
    ds1, _ = synth_bimodal(spec)
    mu_pos = ds1.x[ds1.y == POS].mean(axis=0)
    mu_neg = ds1.x[ds1.y == NEG].mean(axis=0)
    within = ds1.x[ds1.y == POS].std(axis=0).mean()
    assert np.linalg.norm(mu_pos - mu_neg) > within


def test_synth_spec_roundtrip():
    spec = SynthSpec(n_per_class=7, dims=(8, 6), noise=0.5, seed=9)
    assert from_dict(SynthSpec, json.loads(json.dumps(asdict(spec)))) == spec


def test_synth_dims_validated():
    with pytest.raises(ValueError):
        synth_bimodal(SynthSpec(latent_dim=10, dims=(4, 4)))


@settings(max_examples=20, deadline=None)
@given(rating=st.floats(1.0, 9.0))
def test_binarize_total_function_property(rating):
    assert binarize_rating(rating) in (POS, NEG)
