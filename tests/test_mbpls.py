"""Multiblock PLS against an independent classical NIPALS oracle plus
algebraic invariants of the multiblock decomposition."""

import warnings

import numpy as np
import pytest

from jmml import mbpls
from jmml.errors import NumericalError, ShapeError
from jmml.jecl import build_jecl, save_jecl
from jmml.mbpls import (
    explained_target_variance,
    fit,
    load_mbpls,
    predict,
    save_mbpls,
    tune_lv,
)
from jmml.pipeline import cv_select


def classical_pls2(x, y, n_components, max_iter=2000, tol=1e-12, return_weights=False):
    """Reference single-block PLS2 (NIPALS, unit-norm weights, no scaling).

    Written from the textbook algorithm, independent of the library code:
    w from the dominant direction of X'Y, t = Xw, p = X't/t't, q = Y't/t't,
    deflate both, regression via the rotation W(P'W)^{-1}Q'.  Returns
    (beta, T), plus W with ``return_weights`` (criterion 3 unpacks two).
    """
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    ws, ps, qs, ts = [], [], [], []
    for _ in range(n_components):
        u = yc[:, int(np.argmax(yc.var(axis=0)))].copy()
        w_old = None
        for _ in range(max_iter):
            w = xc.T @ u
            w /= np.linalg.norm(w)
            t = xc @ w
            q = yc.T @ t / (t @ t)
            u = yc @ q / (q @ q)
            if w_old is not None and np.linalg.norm(w - w_old) < tol:
                break
            w_old = w
        t = xc @ w
        p = xc.T @ t / (t @ t)
        q = yc.T @ t / (t @ t)
        xc = xc - np.outer(t, p)
        yc = yc - np.outer(t, q)
        ws.append(w)
        ps.append(p)
        qs.append(q)
        ts.append(t)
    w_mat = np.column_stack(ws)
    p_mat = np.column_stack(ps)
    q_mat = np.column_stack(qs)
    beta = w_mat @ np.linalg.inv(p_mat.T @ w_mat) @ q_mat.T
    if return_weights:
        return beta, np.column_stack(ts), w_mat
    return beta, np.column_stack(ts)


def _random_problem(seed, n=40, p=7, q=3, rank=4):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    coef = rng.standard_normal((p, q))
    y = x[:, :rank] @ coef[:rank] + 0.1 * rng.standard_normal((n, q))
    return x, y


def test_single_block_matches_classical_oracle():
    # tall (n > p) and wide (n < p) blocks
    shapes = [(seed, 40, 7) for seed in range(20)] + [(seed, 12, 30) for seed in range(20, 30)]
    for seed, n, p in shapes:
        x, y = _random_problem(seed, n=n, p=p)
        k = 5
        model = fit([x], y, k)
        beta_ref, t_ref, w_ref = classical_pls2(x, y, k, return_weights=True)
        np.testing.assert_allclose(model.beta, beta_ref, atol=1e-8)
        # weights and scores carry the sign NIPALS reaches from its start
        np.testing.assert_allclose(model.weights, w_ref, atol=1e-8)
        np.testing.assert_allclose(model.super_scores, t_ref, atol=1e-7)


def test_single_block_predictions_match_oracle():
    for seed in range(5):
        x, y = _random_problem(seed + 100)
        model = fit([x], y, 4)
        beta_ref, _ = classical_pls2(x, y, 4)
        pred_ref = (x - x.mean(axis=0)) @ beta_ref + y.mean(axis=0)
        np.testing.assert_allclose(predict(model, [x]), pred_ref, atol=1e-8)


def test_full_rank_recovers_least_squares():
    # with K = p the PLS solution spans the full column space
    x, y = _random_problem(7, n=60, p=5, q=2, rank=5)
    model = fit([x], y, 5)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    beta_ls = np.linalg.lstsq(xc, yc, rcond=None)[0]
    np.testing.assert_allclose(model.beta, beta_ls, atol=1e-6)


def test_importance_columns_sum_to_one():
    rng = np.random.default_rng(1)
    blocks = [rng.standard_normal((30, 4)), rng.standard_normal((30, 6))]
    y = blocks[0] @ rng.standard_normal((4, 2)) + 0.1 * rng.standard_normal((30, 2))
    model = fit(blocks, y, 3)
    assert model.importance.shape == (2, 3)
    np.testing.assert_allclose(model.importance.sum(axis=0), 1.0, atol=1e-12)
    assert np.all(model.importance >= 0.0)


def test_importance_tracks_the_informative_block():
    rng = np.random.default_rng(2)
    signal = rng.standard_normal((50, 4))
    noise = 0.01 * rng.standard_normal((50, 4))
    y = signal @ rng.standard_normal((4, 2))
    model = fit([signal, noise], y, 2)
    assert model.importance[0, 0] > 0.95


def test_rotation_identity():
    # T_s = Xc R must hold exactly for the multiblock effective weights
    rng = np.random.default_rng(3)
    blocks = [rng.standard_normal((40, 5)), rng.standard_normal((40, 3))]
    y = np.hstack(blocks) @ rng.standard_normal((8, 2)) + 0.05 * rng.standard_normal((40, 2))
    model = fit(blocks, y, 4)
    xc = np.hstack([b - b.mean(axis=0) for b in blocks])
    rot = model.weights_eff @ np.linalg.inv(model.loadings.T @ model.weights_eff)
    np.testing.assert_allclose(xc @ rot, model.super_scores, atol=1e-8)


def test_super_scores_orthogonal():
    rng = np.random.default_rng(4)
    blocks = [rng.standard_normal((35, 6))]
    y = blocks[0] @ rng.standard_normal((6, 2))
    model = fit(blocks, y, 4)
    gram = model.super_scores.T @ model.super_scores
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() < 1e-8


def test_residual_decreases_with_components():
    x, y = _random_problem(5)
    norms = [fit([x], y, k).residual_norm for k in (1, 3, 5)]
    assert norms[0] > norms[1] > norms[2]


def test_rank_exhaustion_warns_and_reduces():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((20, 2))
    x = np.hstack([base, base])  # rank 2 in 4 columns
    y = base @ rng.standard_normal((2, 1))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = fit([x], y, 4)
    assert model.n_components < 4
    assert any("rank" in str(w.message) or "degenerate" in str(w.message) for w in caught)


def test_shape_errors():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((10, 3))
    y = rng.standard_normal((10, 1))
    with pytest.raises(ShapeError):
        fit([x, rng.standard_normal((9, 2))], y, 1)
    model = fit([x], y, 2)
    with pytest.raises(ShapeError):
        predict(model, [rng.standard_normal((5, 4))])
    with pytest.raises(ValueError):
        fit([x], y, 100)


def test_non_finite_input_raises():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((15, 4))
    y = rng.standard_normal((15, 2))
    model = fit([x], y, 2)
    for bad in (np.nan, np.inf, -np.inf):
        x_bad = x.copy()
        x_bad[3, 1] = bad
        y_bad = y.copy()
        y_bad[0, 0] = bad
        with pytest.raises(NumericalError):
            fit([x, x_bad], y, 2)
        with pytest.raises(NumericalError):
            fit([x], y_bad, 2)
        with pytest.raises(NumericalError):
            predict(model, [x_bad])


def test_explained_variance_reasonable():
    x, y = _random_problem(9, rank=3)
    model = fit([x], y, 4)
    ev = explained_target_variance(model, [x], y)
    assert 0.9 < ev <= 1.0


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(10)
    blocks = [rng.standard_normal((25, 4)), rng.standard_normal((25, 3))]
    y = np.hstack(blocks) @ rng.standard_normal((7, 2))
    model = fit(blocks, y, 3)
    path = tmp_path / "model.json"
    save_mbpls(model, path)
    loaded = load_mbpls(path)
    np.testing.assert_array_equal(loaded.beta, model.beta)
    np.testing.assert_array_equal(loaded.importance, model.importance)
    assert loaded.block_dims == model.block_dims
    np.testing.assert_array_equal(predict(loaded, blocks), predict(model, blocks))


def test_load_rejects_other_checkpoint_kinds(tmp_path):
    path = tmp_path / "jecl.json"
    save_jecl(build_jecl(input_dim=4, num_classes=2), path)
    with pytest.raises(ValueError):
        load_mbpls(path)


def test_tune_lv_matches_manual_cv():
    # tune_lv must return the grid value minimizing mean CV MSE
    x, y = _random_problem(11, n=60, p=10, q=2, rank=3)
    grid = [1, 2, 3, 5, 8]
    best = tune_lv([x], y, lv_grid=grid, folds=4, seed=0)
    rng = np.random.default_rng(0)
    order = rng.permutation(60)
    fold_ids = np.array_split(order, 4)
    errs = {}
    for k in grid:
        per_fold = []
        for f in range(4):
            test_idx = fold_ids[f]
            train_idx = np.concatenate([fold_ids[g] for g in range(4) if g != f])
            model = fit([x[train_idx]], y[train_idx], k)
            per_fold.append(np.mean((y[test_idx] - predict(model, [x[test_idx]])) ** 2))
        errs[k] = float(np.mean(per_fold))
    assert best == min(errs, key=errs.get)


def test_tune_lv_clips_grid_to_rank():
    x, y = _random_problem(12, n=20, p=4, q=1)
    best = tune_lv([x], y, lv_grid=[40, 60], folds=5, seed=0)
    assert best <= 4


def test_tune_lv_raises_when_folds_admit_no_lv_count():
    # n = 2 in two folds leaves one training sample: the rank clip empties
    # the grid, which must raise rather than hand None to fit
    x, y = _random_problem(13, n=2, p=3, q=1)
    with pytest.raises(ShapeError, match=r"tune_lv.*n=2.*folds=2"):
        tune_lv([x], y, [2, 4], folds=2)


def _tune_lv_cases():
    x, y = _random_problem(14, n=60, p=10, q=2, rank=3)
    rng = np.random.default_rng(15)
    base = rng.standard_normal((36, 3))
    wide = rng.standard_normal((30, 24))
    return {
        # full rank, two blocks, a grid that holds 1
        "full_rank": ([x[:, :6], x[:, 6:]], y, [1, 2, 3, 5, 8], 4),
        # rank 3 in 6 columns: every fold's fit stops at 3 LVs, below 4 and 6
        "rank_deficient": ([base, base @ rng.standard_normal((3, 3))],
                           base @ rng.standard_normal((3, 2)), [1, 2, 4, 6], 5),
        # more columns than rows, many LV counts
        "wide": ([wide[:, :10], wide[:, 10:]], wide[:, :3] @ rng.standard_normal((3, 2)),
                 list(range(1, 20, 3)), 5),
        # more folds than rows: two test parts are empty, so no K scores
        "empty_test_folds": ([x[:5, :3]], y[:5], [1, 2], 7),
    }


def _tune_lv_by_refit(blocks, y, lv_grid, folds, seed, losses):
    """The per-K refit loop: a fresh K-LV fit for every (K, fold)."""
    n = len(y)
    rank_cap = min(n - (n // folds + 1) - 1, sum(b.shape[1] for b in blocks))
    grid = sorted({min(k, rank_cap) for k in lv_grid if min(k, rank_cap) >= 1})

    def mse(k, train_idx, test_idx):
        model = fit([b[train_idx] for b in blocks], y[train_idx], k)
        losses.append(np.mean((y[test_idx] - predict(model, [b[test_idx] for b in blocks])) ** 2))
        return losses[-1]

    return cv_select(grid, n, folds, seed, mse)


@pytest.mark.parametrize("case", list(_tune_lv_cases()))
def test_tune_lv_fold_losses_equal_a_refit_per_lv_count(monkeypatch, case):
    # one fit per fold must score every K bit for bit as a fresh K-LV fit does
    blocks, y, grid, folds = _tune_lv_cases()[case]
    losses, ref_losses, fit_ks, grids = [], [], [], []

    def recording_cv_select(candidates, n, folds, seed, loss):
        grids.append(candidates)

        def recorded(k, train_idx, test_idx):
            losses.append(loss(k, train_idx, test_idx))
            return losses[-1]
        return cv_select(candidates, n, folds, seed, recorded)

    def recording_fit(blocks, target, n_components):
        fit_ks.append(n_components)
        return fit(blocks, target, n_components)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # rank runs out; empty parts score NaN
        ref_best = _tune_lv_by_refit(blocks, y, grid, folds, 2, ref_losses)
        with monkeypatch.context() as patch:
            patch.setattr(mbpls, "cv_select", recording_cv_select)
            patch.setattr(mbpls, "fit", recording_fit)
            try:
                best = tune_lv(blocks, y, grid, folds=folds, seed=2)
            except ShapeError:
                best = None
    np.testing.assert_array_equal(losses, ref_losses)
    assert best == ref_best and (best is None) == (case == "empty_test_folds")
    # one fit per fold at the largest clipped K; the two folds with empty
    # test parts train on the same rows, so they share one
    assert fit_ks == [grids[0][-1]] * (folds - (case == "empty_test_folds"))
