"""Multiblock partial least squares.

Fits C input blocks against a multivariate target by pulling latent
variables (LVs) one at a time, each maximizing covariance with the target.
An LV's unit-norm stacked weights are the dominant left singular vector of
X^T Y on the deflated blocks, which equals the multiblock NIPALS weight
(Westerhuis, Kourti & MacGregor 1998); the sign is the one NIPALS converges
to from its usual start.  Each LV also yields block importances (squared
block-weight norms), a super score combining the block scores, target
loadings, and a deflation of every block against the super score.  Blocks
and target are centered (not scaled); offsets live in the model.  NaN or
inf in the blocks or the target raises ``NumericalError``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ShapeError
from .pipeline import cv_select
from .serialize import load_checkpoint, save_checkpoint


@dataclass
class MbplsModel:
    n_components: int
    block_dims: list
    x_means: list            # per-block column means
    y_mean: np.ndarray
    weights: np.ndarray      # stacked unit-norm block weights, (p, K)
    weights_eff: np.ndarray  # effective weights s.t. t_sk = X_deflated w, (p, K)
    loadings: np.ndarray     # stacked block loadings P, (p, K)
    target_loadings: np.ndarray  # V, (q, K)
    super_scores: np.ndarray     # T_s at train time, (n, K)
    importance: np.ndarray       # (C, K), rows of i_jk summing to 1 per LV
    beta: np.ndarray             # (p, q) regression map on centered data
    residual_norm: float         # ||target - T_s V^T||_F at fit time


def _finite(a, stage, what):
    if not np.isfinite(a).all():
        raise NumericalError(f"mbpls {stage}: NaN or inf in the {what}")
    return a


def _stack_blocks(blocks):
    mats = [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in blocks]
    n = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != n:
            raise ShapeError("all blocks must share the sample count")
    return mats


def fit(blocks, target, n_components):
    """Fit an MBPLS model of ``n_components`` LVs.

    ``blocks`` is a list of (n, N_j) matrices, ``target`` an (n, q) matrix
    with the same sample count.  If an LV cannot be extracted (rank
    exhausted), the component count is reduced with a warning.
    """
    mats = [_finite(m, "fit", "blocks") for m in _stack_blocks(blocks)]
    y = _finite(np.atleast_2d(np.asarray(target, dtype=np.float64)), "fit", "target")
    n = y.shape[0]
    if mats[0].shape[0] != n:
        raise ShapeError("target sample count does not match blocks")
    dims = [m.shape[1] for m in mats]
    p_total = sum(dims)
    if n_components > min(n - 1, p_total):
        raise ValueError(f"n_components {n_components} exceeds min(samples-1, total dim)")

    x_means = [m.mean(axis=0) for m in mats]
    y_mean = y.mean(axis=0)
    xc = [m - mu for m, mu in zip(mats, x_means)]
    yc = y - y_mean
    edges = np.cumsum([0] + dims)

    w_cols, w_eff_cols, p_cols, v_cols = [], [], [], []
    t_cols, imp_rows = [], []
    x_def = np.hstack(xc)
    y_def = yc.copy()
    for _k in range(n_components):
        w, ok = _dominant_weight(x_def, y_def)
        if not ok:
            warnings.warn(
                f"rank exhausted after {len(w_cols)} of {n_components} LVs; reducing component count",
                RuntimeWarning,
            )
            break
        # block split: importances and super score from block scores
        imp = np.empty(len(dims))
        t_super = np.zeros(n)
        w_eff = np.zeros_like(w)
        for j in range(len(dims)):
            wj = w[edges[j]:edges[j + 1]]
            nrm = np.linalg.norm(wj)
            imp[j] = nrm**2
            if nrm > 0.0:
                t_block = x_def[:, edges[j]:edges[j + 1]] @ (wj / nrm)
                t_super += imp[j] * t_block
                w_eff[edges[j]:edges[j + 1]] = imp[j] * wj / nrm
        tt = t_super @ t_super
        if tt <= 0.0:
            warnings.warn(
                f"degenerate super score after {len(w_cols)} LVs; reducing component count",
                RuntimeWarning,
            )
            break
        v = y_def.T @ t_super / tt
        p_vec = x_def.T @ t_super / tt
        x_def -= np.outer(t_super, p_vec)
        y_def -= np.outer(t_super, v)

        w_cols.append(w)
        w_eff_cols.append(w_eff)
        p_cols.append(p_vec)
        v_cols.append(v)
        t_cols.append(t_super)
        imp_rows.append(imp / imp.sum())

    if not w_cols:
        raise ValueError("no latent variable could be extracted (zero-variance data)")
    w_mat = np.column_stack(w_cols)
    w_eff_mat = np.column_stack(w_eff_cols)
    p_mat = np.column_stack(p_cols)
    v_mat = np.column_stack(v_cols)
    t_mat = np.column_stack(t_cols)
    resid = yc - t_mat @ v_mat.T
    return MbplsModel(
        n_components=len(w_cols),
        block_dims=dims,
        x_means=x_means,
        y_mean=y_mean,
        weights=w_mat,
        weights_eff=w_eff_mat,
        loadings=p_mat,
        target_loadings=v_mat,
        super_scores=t_mat,
        importance=np.column_stack(imp_rows),
        beta=_beta(w_eff_mat, p_mat, v_mat),
        residual_norm=float(np.linalg.norm(resid)),
    )


def _beta(w_eff, loadings, target_loadings):
    """Regression map of the LVs given, from the rotation T_s = Xc R with
    R = W_eff (P^T W_eff)^{-1}: beta = R V^T."""
    return (w_eff @ np.linalg.inv(loadings.T @ w_eff)) @ target_loadings.T


def _dominant_weight(x, y):
    """Unit-norm dominant left singular vector of X^T Y.

    With the thin QR X^T = Q R it is Q times the dominant left singular
    vector of R Y, so the SVD runs on at most min(n, p) rows.  The sign
    points w along X^T y_j for the highest-variance target column j, the
    direction the NIPALS power iteration starts from.
    """
    col_var = y.var(axis=0)
    if not np.any(col_var > 0.0) or not np.any(x.var(axis=0) > 1e-14):
        return None, False
    q, r = np.linalg.qr(x.T)
    ry = r @ y
    u, s, _ = np.linalg.svd(ry, full_matrices=False)
    if s[0] <= 1e-14:
        return None, False
    u0 = u[:, 0]
    if u0 @ ry[:, int(np.argmax(col_var))] < 0.0:
        u0 = -u0
    return q @ u0, True


def predict(model, blocks):
    """Predict the target for new blocks: centered concatenation times beta
    plus the target mean."""
    mats = _stack_blocks(blocks)
    if [m.shape[1] for m in mats] != model.block_dims:
        raise ShapeError(f"block dims {[m.shape[1] for m in mats]} != {model.block_dims}")
    xc = _finite(np.hstack([m - mu for m, mu in zip(mats, model.x_means)]), "predict", "blocks")
    return xc @ model.beta + model.y_mean


def explained_target_variance(model, blocks, target):
    y = np.atleast_2d(np.asarray(target, dtype=np.float64))
    pred = predict(model, blocks)
    total = np.sum((y - y.mean(axis=0)) ** 2)
    return 1.0 - np.sum((y - pred) ** 2) / total


def save_mbpls(model, path):
    """Write ``model`` as a ``"mbpls"`` checkpoint (bit-exact round trip)."""
    save_checkpoint(path, "mbpls", model)


def load_mbpls(path):
    return load_checkpoint(path, "mbpls", (MbplsModel,))


def tune_lv(blocks, target, lv_grid, folds=5, seed=0):
    """Pick the LV count in ``lv_grid`` minimizing cross-validated prediction error.

    Grid values are clipped to what the fold sizes and data rank admit.
    Ties break to the smallest K.  Raises ``ShapeError`` when the fold
    sizes admit no LV count.  Each fold is fitted once, at the largest K:
    a K-LV fit is the first K LVs of any larger fit.
    """
    mats = _stack_blocks(blocks)
    y = np.atleast_2d(np.asarray(target, dtype=np.float64))
    n = y.shape[0]
    p_total = sum(m.shape[1] for m in mats)
    rank_cap = min(n - (n // folds + 1) - 1, p_total)
    grid = sorted({min(k, rank_cap) for k in lv_grid if min(k, rank_cap) >= 1})
    fold_fits = {}  # keyed by a fold's training rows, which alone fix its fit

    def mse(k, train_idx, test_idx):
        key = train_idx.tobytes()
        if key not in fold_fits:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                fold_fits[key] = fit([m[train_idx] for m in mats], y[train_idx], grid[-1])
        model = fold_fits[key]
        # the first k LVs (a slice stops where the fit did), copied C-contiguous
        # as fit's are: a strided view can change the last bit of beta
        lvs = (model.weights_eff, model.loadings, model.target_loadings)
        model = replace(model, beta=_beta(*(np.ascontiguousarray(a[:, :k]) for a in lvs)))
        return np.mean((y[test_idx] - predict(model, [m[test_idx] for m in mats])) ** 2)

    best_k = cv_select(grid, n, folds, seed, mse)
    if best_k is None:
        raise ShapeError(f"mbpls tune_lv: n={n} samples in folds={folds} admit no LV count")
    return best_k
