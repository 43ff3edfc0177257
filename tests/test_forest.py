"""Random forest and metrics: determinism, tie rules, metric oracles."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from jmml import forest
from jmml.config import ExperimentConfig
from jmml.errors import NumericalError, ShapeError, SingleClassError
from jmml.forest import NEG, POS, RandomForest, _grow, evaluate, fit_rf, grid_search, predict
from jmml.pipeline import cv_select, mco_oversample, stratified_split, synth_bimodal


def _blobs(n=60, d=4, seed=0, sep=2.0):
    rng = np.random.default_rng(seed)
    x = np.vstack([
        rng.standard_normal((n // 2, d)) + sep,
        rng.standard_normal((n // 2, d)) - sep,
    ])
    y = np.array([POS] * (n // 2) + [NEG] * (n // 2))
    return x, y


def test_fit_predict_separable():
    x, y = _blobs(sep=3.0)
    forest = fit_rf(x, y, n_estimators=20, max_depth=4, seed=0)
    assert (predict(forest, x) == y).mean() > 0.95


def _same_trees(f1, f2):
    fields = ("feature", "threshold", "left", "right", "counts", "trees")
    return all(np.array_equal(getattr(f1, k), getattr(f2, k)) for k in fields)


def test_determinism_equal_node_arrays():
    x, y = _blobs(seed=1)
    f1 = fit_rf(x, y, n_estimators=10, max_depth=4, seed=7)
    f2 = fit_rf(x, y, n_estimators=10, max_depth=4, seed=7)
    assert _same_trees(f1, f2)


def test_different_seed_differs():
    x, y = _blobs(seed=2)
    f1 = fit_rf(x, y, n_estimators=10, max_depth=4, seed=0)
    f2 = fit_rf(x, y, n_estimators=10, max_depth=4, seed=1)
    assert not _same_trees(f1, f2)


def test_single_class_rejected():
    x = np.random.default_rng(0).standard_normal((10, 3))
    with pytest.raises(SingleClassError):
        fit_rf(x, np.array([POS] * 10))


def test_zero_trees_rejected():
    x, y = _blobs()
    with pytest.raises(ValueError):
        fit_rf(x, y, n_estimators=0)
    # grid search scores its tree counts from prefixes of one fit, so it
    # must reject a count of 0 itself
    with pytest.raises(ValueError, match="at least 1 tree"):
        grid_search(x, y, estimator_grid=(0, 5), depth_grid=(2,), folds=3)


def test_bad_labels_rejected():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        fit_rf(x, np.array(["a", "b", "a", "b"]))


def test_predict_feature_dim_checked():
    x, y = _blobs()
    forest = fit_rf(x, y, n_estimators=5, seed=0)
    with pytest.raises(ShapeError):
        predict(forest, np.zeros((2, 7)))


def test_vote_tie_goes_positive():
    # two stump "trees" voting oppositely: the tie must resolve to '+'
    x, y = _blobs(seed=3)
    forest = fit_rf(x, y, n_estimators=2, max_depth=1, seed=0)
    votes_by_tree = [_ref_votes(_as_nested(forest, root), x) for root in forest.trees]
    ties = np.sum(votes_by_tree, axis=0) == 1
    if ties.any():
        assert np.all(predict(forest, x)[ties] == POS)


def _grown(x, y01, copies, rngs, max_depth):
    """The forest ``_grow`` builds, one tree per generator."""
    return RandomForest(*_grow(x, y01, copies, rngs, max_depth), np.arange(len(rngs)), x.shape[1])


def _one_tree(x, y01, max_depth, rng):
    """A one-tree forest grown over every row of ``x`` once."""
    return _grown(x, y01, [np.ones(len(y01), dtype=np.intp)], [rng], max_depth)


def test_leaf_tie_goes_positive():
    # a depth-0 tree is one leaf; 3 '+' and 3 '-' make it exactly tied
    tree = _one_tree(np.zeros((6, 1)), np.array([1, 1, 1, 0, 0, 0]), 0, np.random.default_rng(0))
    np.testing.assert_array_equal(tree.counts, [[3, 3]])
    assert predict(tree, np.zeros((1, 1)))[0] == POS


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_features_rejected(bad):
    x, y = _blobs()
    x_bad = x.copy()
    x_bad[3, 1] = bad
    with pytest.raises(NumericalError):
        fit_rf(x_bad, y, n_estimators=3, seed=0)
    forest = fit_rf(x, y, n_estimators=3, seed=0)
    with pytest.raises(NumericalError):
        predict(forest, np.full((1, x.shape[1]), bad))
    with pytest.raises(NumericalError):
        predict(forest, x_bad)


# ---------------------------------------------------------------------------
# reference: the pre-vectorisation split loop and nested-dict trees


def _ref_best_split(x, y, rng):
    n, d = x.shape
    n_try = max(1, int(np.sqrt(d)))
    feats = rng.choice(d, size=n_try, replace=False)
    best = None
    best_score = np.inf
    for feat in feats:
        vals = x[:, feat]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[order]
        pos_left = np.cumsum(sy)[:-1]
        n_left = np.arange(1, n)
        valid = sv[1:] != sv[:-1]
        if not valid.any():
            continue
        pos_right = pos_left[-1] + sy[-1] - pos_left
        n_right = n - n_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini = n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)
        gini = np.where(valid, gini, np.inf)
        i = int(np.argmin(gini))
        if gini[i] < best_score:
            best_score = gini[i]
            best = (int(feat), float((sv[i] + sv[i + 1]) / 2.0))
    return best


def _ref_grow(x, y, depth, max_depth, rng):
    n_pos = int(y.sum())
    counts = (len(y) - n_pos, n_pos)
    if depth >= max_depth or len(y) < 2 or n_pos in (0, len(y)):
        return {"leaf": counts}
    split = _ref_best_split(x, y, rng)
    if split is None:
        return {"leaf": counts}
    feat, thr = split
    mask = x[:, feat] <= thr
    return {
        "feature": feat,
        "threshold": thr,
        "left": _ref_grow(x[mask], y[mask], depth + 1, max_depth, rng),
        "right": _ref_grow(x[~mask], y[~mask], depth + 1, max_depth, rng),
    }


def _ref_votes(root, x):
    out = np.empty(x.shape[0], dtype=np.int64)
    for i, row in enumerate(x):
        node = root
        while "leaf" not in node:
            node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
        neg, pos = node["leaf"]
        out[i] = 1 if pos >= neg else 0
    return out


def _as_nested(forest, i):
    """The tree rooted at node ``i`` of ``forest``'s table as nested dicts."""
    if forest.left[i] == i:
        assert forest.right[i] == i and forest.threshold[i] == np.inf
        return {"leaf": tuple(int(c) for c in forest.counts[i])}
    return {
        "feature": int(forest.feature[i]),
        "threshold": float(forest.threshold[i]),
        "left": _as_nested(forest, forest.left[i]),
        "right": _as_nested(forest, forest.right[i]),
    }


def _tree_depth(root):
    if "leaf" in root:
        return 0
    return 1 + max(_tree_depth(root["left"]), _tree_depth(root["right"]))


def _random_case(seed):
    """Small-integer features (many ties); columns after the first may be
    constant.  n = 2 and d = 1 come up among the shapes."""
    rng = np.random.default_rng(seed)
    n = (2, 3, 7, 40, 120)[seed % 5]
    d = (1, 2, 5, 16)[seed % 4]
    x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    x[:, 1:][:, rng.random(d - 1) < 0.3] = 1.5
    y = rng.integers(0, 2, size=n)
    y[0], y[-1] = 0, 1
    return x, y, 1 + seed % 9


@pytest.mark.parametrize("seed", range(16))
def test_tree_matches_reference(seed):
    x, y, max_depth = _random_case(seed)
    rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = _ref_grow(x, y, 0, max_depth, rng_ref)
    tree = _one_tree(x, y, max_depth, rng_new)
    assert _as_nested(tree, 0) == ref
    assert tree.depth == _tree_depth(ref)
    assert rng_new.random() == rng_ref.random()  # same draws, same order
    x_test = np.random.default_rng(seed + 100).integers(-2, 9, size=(30, x.shape[1])) / 2.0
    expected = np.where(_ref_votes(ref, x_test) == 1, POS, NEG)
    np.testing.assert_array_equal(predict(tree, x_test), expected)


@pytest.mark.parametrize("seed", range(6))
def test_forest_matches_reference(seed):
    x, y, max_depth = _random_case(seed + 3)
    labels = np.where(y == 1, POS, NEG)
    forest = fit_rf(x, labels, n_estimators=7, max_depth=max_depth, seed=seed)
    refs = []
    for ss in np.random.SeedSequence(seed).spawn(7):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, len(y), size=len(y))
        refs.append(_ref_grow(x[idx], y[idx], 0, max_depth, rng))
    assert [_as_nested(forest, root) for root in forest.trees] == refs
    x_test = np.random.default_rng(seed).integers(-2, 9, size=(25, x.shape[1])) / 2.0
    ref_votes = np.sum([_ref_votes(r, x_test) for r in refs], axis=0)
    expected = np.where(ref_votes * 2 >= len(refs), POS, NEG)
    batch = predict(forest, x_test)
    np.testing.assert_array_equal(batch, expected)
    for i, row in enumerate(x_test):
        assert predict(forest, row)[0] == batch[i]


def _ref_forest(x, y01, n_estimators, max_depth, seed):
    """What ``fit_rf`` must grow, one recursive reference fit per tree, and
    each tree's generator as that fit leaves it."""
    refs, rngs = [], []
    for ss in np.random.SeedSequence(seed).spawn(n_estimators):
        rng = np.random.default_rng(ss)
        idx = rng.integers(0, len(y01), size=len(y01))
        refs.append(_ref_grow(x[idx], y01[idx], 0, max_depth, rng))
        rngs.append(rng)
    return refs, rngs


def _check_lockstep(x, y01, n_estimators, max_depth, seed):
    """``fit_rf`` and the lockstep grower it calls match the reference tree
    by tree, and leave every tree's generator where the reference does."""
    refs, ref_rngs = _ref_forest(x, y01, n_estimators, max_depth, seed)
    labels = np.where(y01 == 1, POS, NEG)
    forest = fit_rf(x, labels, n_estimators=n_estimators, max_depth=max_depth, seed=seed)
    assert [_as_nested(forest, root) for root in forest.trees] == refs
    assert forest.depth == max(_tree_depth(r) for r in refs)
    # the same growth with the generators in hand, to check their end state
    n = len(y01)
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n_estimators)]
    grown = _grown(x, y01, [np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs],
                   rngs, max_depth)
    assert [_as_nested(grown, root) for root in grown.trees] == refs
    assert [rng.random() for rng in rngs] == [rng.random() for rng in ref_rngs]
    return forest


def test_lockstep_trees_finishing_at_different_steps():
    # three positives in 24 rows: some bootstraps miss them all, so those
    # trees are a single leaf while the rest grow to the depth limit
    rng = np.random.default_rng(28)
    x = rng.standard_normal((24, 3))
    y01 = np.zeros(24, dtype=np.int64)
    y01[[3, 11, 19]] = 1
    forest = _check_lockstep(x, y01, n_estimators=9, max_depth=6, seed=28)
    depths = [_tree_depth(_as_nested(forest, root)) for root in forest.trees]
    assert min(depths) == 0 and forest.depth == 6


@pytest.mark.parametrize("n_estimators,max_depth,n,d", [
    (1, 8, 40, 5),    # one tree
    (4, 0, 40, 5),    # every tree is its root leaf: no feature draws at all
    (6, 3, 2, 3),     # two samples
    (6, 8, 40, 1),    # one feature, so every node draws it
])
def test_lockstep_edge_shapes(n_estimators, max_depth, n, d):
    rng = np.random.default_rng(n * 10 + d)
    x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    y01 = rng.integers(0, 2, size=n)
    y01[0], y01[-1] = 0, 1
    _check_lockstep(x, y01, n_estimators, max_depth, seed=n_estimators + max_depth)


def _default_baseline_pools():
    """The two training pools ``run_experiment`` classifies in the baseline
    setup of the default config, seed 0 (720 x 64 and 720 x 32)."""
    config = ExperimentConfig()
    split = replace(config.split, seed=config.seed)
    return [mco_oversample(stratified_split(ds, split)[0], seed=config.seed + 1)
            for ds in synth_bimodal(config.synth, config.dimension)]


def test_lockstep_matches_reference_on_default_baseline_features():
    for pool in _default_baseline_pools():
        y01 = (pool.y == POS).astype(np.int64)
        refs, _ = _ref_forest(pool.x, y01, n_estimators=8, max_depth=8, seed=8)
        forest = fit_rf(pool.x, pool.y, n_estimators=8, max_depth=8, seed=8)
        assert [_as_nested(forest, root) for root in forest.trees] == refs


def test_fit_scratch_memory_is_capped():
    # 300 trees on 720 x 64: scoring every tree's node at once would take
    # hundreds of MB of scratch; the chunk cap keeps the fit near its output
    rng = np.random.default_rng(0)
    x = rng.standard_normal((720, 64))
    y = np.where(x[:, :4].sum(axis=1) + rng.standard_normal(720) > 0, POS, NEG)
    tracemalloc.start()
    try:
        fit_rf(x, y, n_estimators=300, max_depth=8, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# metrics


def test_evaluate_confusion_and_accuracy_oracle():
    y_true = np.array([POS, POS, POS, NEG, NEG, NEG])
    y_pred = np.array([POS, POS, NEG, NEG, POS, NEG])
    rep = evaluate(y_true, y_pred)
    np.testing.assert_array_equal(rep.confusion, [[2, 1], [1, 2]])
    assert rep.accuracy == pytest.approx(100.0 * 4 / 6)
    # tp, fn, fp and tn all differ, so no two counts can trade places unseen
    y_true = np.array([POS] * 4 + [NEG] * 6)
    y_pred = np.array([POS, POS, POS, NEG] + [POS, POS, NEG, NEG, NEG, NEG])
    rep = evaluate(y_true, y_pred, average="positive")
    np.testing.assert_array_equal(rep.confusion, [[3, 1], [2, 4]])
    assert rep.accuracy == pytest.approx(100.0 * 7 / 10)
    assert rep.f1 == pytest.approx(100.0 * 2 * 3 / (2 * 3 + 2 + 1))


def test_f1_macro_weighted_positive():
    # tp=2 fn=1 fp=1 tn=2: f1_pos = f1_neg = 2*2/(4+1+1)
    y_true = np.array([POS, POS, POS, NEG, NEG, NEG])
    y_pred = np.array([POS, POS, NEG, NEG, POS, NEG])
    f1_each = 100.0 * 4 / 6
    for avg in ("macro", "weighted", "positive"):
        assert evaluate(y_true, y_pred, average=avg).f1 == pytest.approx(f1_each)


def test_f1_macro_differs_from_positive_when_imbalanced():
    y_true = np.array([POS] * 8 + [NEG] * 2)
    y_pred = np.array([POS] * 10)
    rep_macro = evaluate(y_true, y_pred, average="macro")
    rep_pos = evaluate(y_true, y_pred, average="positive")
    # f1_pos = 2*8/(16+2) ; f1_neg = 0
    assert rep_pos.f1 == pytest.approx(100.0 * 16 / 18)
    assert rep_macro.f1 == pytest.approx(rep_pos.f1 / 2.0)


def test_f1_zero_denominator_is_zero():
    rep = evaluate(np.array([NEG, NEG]), np.array([NEG, NEG]), average="positive")
    assert rep.f1 == 0.0
    assert rep.accuracy == 100.0


def test_evaluate_unknown_average():
    with pytest.raises(ValueError):
        evaluate(np.array([POS]), np.array([POS]), average="micro")


def test_grid_search_returns_grid_member():
    x, y = _blobs(n=50, seed=4)
    n_est, depth = grid_search(x, y, estimator_grid=(5, 10), depth_grid=(2, 4), folds=3, seed=0)
    assert n_est in (5, 10) and depth in (2, 4)


def test_grid_search_tie_prefers_smaller():
    # perfectly separable data: every config scores 100, so the tie rule
    # must pick the smallest (n_estimators, depth)
    x, y = _blobs(n=40, seed=5, sep=50.0)
    n_est, depth = grid_search(x, y, estimator_grid=(5, 20), depth_grid=(2, 8), folds=4, seed=0)
    assert (n_est, depth) == (5, 2)


def test_grid_search_without_a_two_class_fold_raises():
    # two samples in two folds: every fold trains on one class only
    with pytest.raises(SingleClassError):
        grid_search(np.arange(2.0)[:, None], np.array([POS, NEG]), (2,), (2,), folds=2)


def test_evaluate_without_labels_is_a_shape_error():
    with pytest.raises(ShapeError, match="no labels"):
        evaluate([], [])


def test_grid_search_with_more_folds_than_rows_is_a_shape_error(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("grid search fitted a forest before checking its folds")

    monkeypatch.setattr(forest, "fit_rf", no_fit)
    x, y = _blobs(n=6, seed=6)
    with pytest.raises(ShapeError, match=r"grid search.*n=6.*folds=8"):
        grid_search(x, y, (2, 4), (2,), folds=8)


def _grid_search_cases():
    rng = np.random.default_rng(16)
    x = rng.standard_normal((40, 5))
    skewed = np.where(x[:, 0] + rng.standard_normal(40) > 1.0, POS, NEG)
    lone = np.array([NEG] + [POS] * 8)
    sep_x, sep_y = _blobs(n=24, seed=17, sep=50.0)
    return {
        # 11 of 40 rows are '+': macro F1 moves with the tree count
        "imbalanced": (x, skewed, (3, 12, 7), (1, 6, 3), 4),
        # the fold that tests the lone '-' row trains on '+' alone and is skipped
        "one_class_fold": (x[:9], lone, (2, 5), (2, 4), 3),
        # every size scores 100 on every fold: the smallest must win
        "tie": (sep_x, sep_y, (4, 9), (1, 3), 4),
    }


def _grid_search_by_refit(x, y, estimator_grid, depth_grid, folds, seed, f1s):
    """The per-size refit loop: a fresh forest for every (size, fold)."""
    def neg_f1(size, train_idx, test_idx):
        if len(np.unique(y[train_idx])) < 2:
            f1s.append(None)
        else:
            rf = fit_rf(x[train_idx], y[train_idx], *size, seed=seed)
            f1s.append(-evaluate(y[test_idx], predict(rf, x[test_idx])).f1)
        return f1s[-1]

    sizes = [(n_est, depth) for n_est in sorted(estimator_grid) for depth in sorted(depth_grid)]
    return cv_select(sizes, len(y), folds, seed, neg_f1)


@pytest.mark.parametrize("case", list(_grid_search_cases()))
def test_grid_search_fold_scores_equal_a_refit_per_size(monkeypatch, case):
    # one fit per (fold, depth) must score every tree count bit for bit as
    # a fresh fit of that many trees does
    x, y, estimator_grid, depth_grid, folds = _grid_search_cases()[case]
    f1s, ref_f1s, fit_sizes = [], [], []

    def recording_cv_select(candidates, n, folds, seed, loss):
        def recorded(size, train_idx, test_idx):
            f1s.append(loss(size, train_idx, test_idx))
            return f1s[-1]
        return cv_select(candidates, n, folds, seed, recorded)

    def recording_fit(x, y, n_estimators, max_depth, seed):
        fit_sizes.append((n_estimators, max_depth))
        return fit_rf(x, y, n_estimators, max_depth, seed=seed)

    ref_best = _grid_search_by_refit(x, y, estimator_grid, depth_grid, folds, 3, ref_f1s)
    with monkeypatch.context() as patch:
        patch.setattr(forest, "cv_select", recording_cv_select)
        patch.setattr(forest, "fit_rf", recording_fit)
        best = grid_search(x, y, estimator_grid, depth_grid, folds=folds, seed=3)
    assert f1s == ref_f1s and best == ref_best
    assert (case == "one_class_fold") == (None in f1s)
    if case == "tie":
        assert set(f1s) == {-100.0} and best == (min(estimator_grid), min(depth_grid))
    # one fit per two-class fold and depth, at the largest tree count
    two_class_folds = folds - f1s[:folds].count(None)  # the first candidate's folds
    assert sorted(fit_sizes) == [(max(estimator_grid), d) for d in sorted(depth_grid) for _ in range(two_class_folds)]
