"""Random-forest classifier for the final stage, plus evaluation metrics.

Binary labels are the strings '+' and '-'.  Trees split on Gini impurity
over floor(sqrt(d)) randomly chosen features per node; each tree sees a
bootstrap sample of the training set.  Everything is deterministic per
seed (per-tree seeds are spawned from the forest seed, so a parallel fit
would reproduce the serial one).

A tree is a set of flat node arrays (feature, threshold, left, right,
class counts) in depth-first, left-first order.  A leaf points to itself
on both sides and has threshold +inf, so a walk that reaches it stays
there.  The split search scores all sampled features of a node in one
vectorised pass.  A fitted forest also holds its trees concatenated into
one set of arrays; ``predict`` walks every (row, tree) pair through them
together, one level per step, for as many steps as the deepest leaf.
Feature values must be finite: ``fit_rf`` and ``predict`` raise
``NumericalError`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ShapeError, SingleClassError
from .pipeline import NEG, POS, cv_select


@dataclass
class EvalReport:
    accuracy: float          # percent
    f1: float                # percent
    confusion: np.ndarray    # rows true [+, -], cols predicted [+, -]

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "f1": self.f1,
            "confusion": self.confusion.tolist(),
        }


class DecisionTree:
    """CART-style tree stored as flat node arrays; leaves hold class counts."""

    def __init__(self, max_depth):
        self.max_depth = max_depth
        self.feature = None      # split feature per node (0 at leaves)
        self.threshold = None    # go left when x[feature] <= threshold; +inf at leaves
        self.left = None         # child node indices; a leaf points to itself
        self.right = None
        self.counts = None       # (n_nodes, 2) class counts (neg, pos) reaching each node
        self.depth = None        # depth of the deepest leaf

    def fit(self, x, y01, rng):
        nodes = []
        xt = np.ascontiguousarray(x.T)  # one row per feature: node samples gather contiguously
        self.depth = self._grow(xt, np.arange(len(y01)), y01, 0, rng, nodes)
        feature, threshold, left, right, neg, pos = zip(*nodes)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=np.float64)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.counts = np.column_stack([neg, pos]).astype(np.int64)
        return self

    def _grow(self, xt, rows, y, depth, rng, nodes):
        """Append the nodes of the subtree over samples ``rows`` (labels ``y``)
        to ``nodes``; return its deepest leaf's depth."""
        node = len(nodes)
        n_pos = int(y.sum())
        nodes.append([0, np.inf, node, node, len(y) - n_pos, n_pos])
        if depth >= self.max_depth or len(y) < 2 or n_pos in (0, len(y)):
            return depth
        split = self._best_split(xt, rows, y, rng)
        if split is None:
            return depth
        feat, thr = split
        mask = xt[feat, rows] <= thr
        nodes[node][:3] = feat, thr, node + 1
        left_depth = self._grow(xt, rows[mask], y[mask], depth + 1, rng, nodes)
        nodes[node][3] = len(nodes)
        right_depth = self._grow(xt, rows[~mask], y[~mask], depth + 1, rng, nodes)
        return max(left_depth, right_depth)

    def _best_split(self, xt, rows, y, rng):
        """(feature, threshold) of the lowest weighted Gini over the sampled
        features, or None when every sampled feature is constant on ``rows``.
        Ties go to the first sampled feature that reaches the minimum."""
        d, n = xt.shape[0], len(rows)
        n_try = max(1, int(np.sqrt(d)))
        feats = rng.choice(d, size=n_try, replace=False)
        tried = np.arange(n_try)[:, None]
        vals = xt[feats[:, None], rows]
        # Any sort kind gives the same split: reordering equal values changes
        # the running class counts only between equal values, and those
        # positions are masked out below.
        order = np.argsort(vals, axis=1)
        sv = vals[tried, order]
        sy = y[order]
        pos_left = np.cumsum(sy, axis=1)[:, :-1]
        n_left = np.arange(1, n)
        valid = sv[:, 1:] != sv[:, :-1]
        pos_right = pos_left[:, -1:] + sy[:, -1:] - pos_left
        n_right = n - n_left
        p_l = pos_left / n_left
        p_r = pos_right / n_right
        gini = n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)
        gini = np.where(valid, gini, np.inf)
        at = np.argmin(gini, axis=1)
        j = int(np.argmin(gini[tried[:, 0], at]))
        i = at[j]
        if not valid[j, i]:
            return None
        return int(feats[j]), float((sv[j, i] + sv[j, i + 1]) / 2.0)

    def predict_pos_votes(self, x):
        """Per-sample 0/1 vote (leaf majority, ties to the positive class)."""
        return _walk(x, self.feature, self.threshold, self.left, self.right, self.counts,
                     np.zeros(1, dtype=np.intp), self.depth)[:, 0]


def _walk(x, feature, threshold, left, right, counts, roots, steps):
    """(n_rows, n_trees) 0/1 leaf votes, ties to the positive class.  Every
    (row, tree) pair descends one level per step from ``roots``; a pair that
    reaches a leaf early stays there."""
    n, d = x.shape
    flat = x.ravel()
    offset = (np.arange(n) * d)[:, None]
    node = np.repeat(roots[None, :], n, axis=0)
    for _ in range(steps):
        go_left = flat[offset + feature[node]] <= threshold[node]
        node = np.where(go_left, left[node], right[node])
    leaf = counts[node]
    return (leaf[..., 1] >= leaf[..., 0]).astype(np.int64)


@dataclass
class RandomForest:
    trees: list
    n_estimators: int
    max_depth: int
    seed: int
    n_features: int
    # every tree's nodes concatenated, child indices shifted to match
    _nodes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = [len(t.feature) for t in self.trees]
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
        self._nodes = (
            np.concatenate([t.feature for t in self.trees]),
            np.concatenate([t.threshold for t in self.trees]),
            np.concatenate([t.left + r for t, r in zip(self.trees, roots)]),
            np.concatenate([t.right + r for t, r in zip(self.trees, roots)]),
            np.concatenate([t.counts for t in self.trees]),
            roots,
            max(t.depth for t in self.trees),
        )


def _encode_labels(y):
    y = np.asarray(y)
    bad = set(np.unique(y)) - {POS, NEG}
    if bad:
        raise ValueError(f"labels must be '+'/'-', got {sorted(bad)}")
    return (y == POS).astype(np.int64)


def _finite_features(x, stage):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if not np.isfinite(x).all():
        raise NumericalError(f"{stage}: features contain NaN or inf")
    return x


def fit_rf(x, y, n_estimators=100, max_depth=8, seed=0):
    """Fit a bootstrap forest; deterministic per seed."""
    x = _finite_features(x, "forest fit")
    y01 = _encode_labels(y)
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if n_estimators < 1:
        raise ValueError("need at least 1 tree")
    if len(np.unique(y01)) < 2:
        raise SingleClassError("training data contains a single class")
    seeds = np.random.SeedSequence(seed).spawn(n_estimators)
    trees = []
    n = x.shape[0]
    for i in range(n_estimators):
        rng = np.random.default_rng(seeds[i])
        idx = rng.integers(0, n, size=n)
        trees.append(DecisionTree(max_depth).fit(x[idx], y01[idx], rng))
    return RandomForest(trees, n_estimators, max_depth, seed, x.shape[1])


def predict(forest, x):
    """Majority vote over trees; exact ties go to '+'."""
    x = _finite_features(x, "forest predict")
    if x.shape[1] != forest.n_features:
        raise ShapeError(f"feature dim {x.shape[1]} != {forest.n_features}")
    votes = _walk(x, *forest._nodes).sum(axis=1)
    pos = votes * 2 >= len(forest.trees)
    return np.where(pos, POS, NEG)


def _f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 0.0 if denom == 0 else 2 * tp / denom


def evaluate(y_true, y_pred, average="macro"):
    """Accuracy and F1 in percent, plus the confusion matrix.

    ``average``: 'macro' (default), 'weighted' or 'positive'.
    """
    t = _encode_labels(y_true)
    p = _encode_labels(y_pred)
    if t.shape != p.shape:
        raise ShapeError("y_true and y_pred lengths differ")
    tp = int(np.sum((t == 1) & (p == 1)))
    fn = int(np.sum((t == 1) & (p == 0)))
    fp = int(np.sum((t == 0) & (p == 1)))
    tn = int(np.sum((t == 0) & (p == 0)))
    confusion = np.array([[tp, fn], [fp, tn]])
    accuracy = 100.0 * (tp + tn) / t.size
    f1_pos = _f1(tp, fp, fn)
    f1_neg = _f1(tn, fn, fp)
    if average == "macro":
        f1 = (f1_pos + f1_neg) / 2.0
    elif average == "weighted":
        n_pos, n_neg = tp + fn, fp + tn
        f1 = (f1_pos * n_pos + f1_neg * n_neg) / t.size
    elif average == "positive":
        f1 = f1_pos
    else:
        raise ValueError(f"unknown average {average!r}")
    return EvalReport(accuracy, 100.0 * f1, confusion)


def grid_search(x, y, estimator_grid=(50, 100, 200), depth_grid=(4, 8, 16), folds=5, seed=0):
    """Best (n_estimators, max_depth) by mean cross-validated macro F1.

    Ties break to fewer trees, then shallower depth.  Raises
    ``SingleClassError`` when no fold's training part holds both classes.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y)

    def neg_f1(size, train_idx, test_idx):
        if len(np.unique(y[train_idx])) < 2:
            return None
        forest = fit_rf(x[train_idx], y[train_idx], *size, seed=seed)
        return -evaluate(y[test_idx], predict(forest, x[test_idx])).f1

    sizes = [(n_est, depth) for n_est in sorted(estimator_grid) for depth in sorted(depth_grid)]
    best = cv_select(sizes, x.shape[0], folds, seed, neg_f1)
    if best is None:
        raise SingleClassError("forest grid search: no fold's training part holds both classes")
    return best
