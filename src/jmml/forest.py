"""Random-forest classifier for the final stage, plus evaluation metrics.

Binary labels are the strings '+' and '-'.  Trees split on Gini impurity
over floor(sqrt(d)) randomly chosen features per node; each tree sees a
bootstrap sample of the training set.  Everything is deterministic per
seed (per-tree seeds are spawned from the forest seed, so a parallel fit
would reproduce the serial one).

A fitted forest is one node table: flat arrays (feature, threshold, left,
right, class counts) shared by all its trees, with tree i's root at node
i.  A leaf points to itself on both sides and has threshold +inf, so a
walk that reaches it stays there.  ``predict`` walks every (row, tree)
pair through the table together, one level per step, for as many steps
as the deepest leaf.

A forest's trees grow in lockstep.  Each tree keeps a depth-first stack
and draws from its own generator, so on each step every unfinished tree
takes its next splittable node and draws that node's features in the same
order as a recursive fit would; then one segmented pass scores all those
nodes together.  Every feature is ranked once per fit, so one integer sort
of (segment, rank) keys orders every (node, sampled feature) segment, and
running class counts with per-segment offsets give each Gini.  A bootstrap
sample is held as distinct rows with copy counts.  Each tree is
bit-identical to a one-node-at-a-time fit.  Nodes are scored in chunks of
at most ``CHUNK`` elements (nodes x sampled features x distinct rows), so
scratch memory does not grow with the number of trees.

Feature values must be finite: ``fit_rf`` and ``predict`` raise
``NumericalError`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


# Most scored elements (nodes x sampled features x distinct node rows) in
# one pass; a step's nodes are scored in chunks of at most this many, so
# scratch memory stays flat however many trees grow together.  A single
# larger node is scored alone.
CHUNK = 1 << 16


def _grow(x, y01, copies, rngs, max_depth):
    """Grow one tree per generator in ``rngs``, in lockstep, into one node
    table: tree i over ``c[j]`` copies of each row j of ``x``, where ``c``
    is the i-th array that ``copies`` yields (a bootstrap sample as
    counts), drawing its features from ``rngs[i]``.  Returns the table's
    feature, threshold, left, right and counts arrays and the depth of the
    deepest leaf; tree i's root is node i.

    Each tree walks its nodes depth first from its own stack.  On each step
    every live tree pops nodes, settling leaves, until it reaches one it can
    split, and draws that node's features; then all those nodes are scored
    together (``_split``).  A tree's draws come in the same order as in a
    recursive depth-first fit, so it is the same tree."""
    n, d = x.shape
    n_try = max(1, int(np.sqrt(d)))
    xt = np.ascontiguousarray(x.T)  # one row per feature: node samples gather contiguously
    # Rank every feature once over the n training rows.  ``flat_rank[f*n + i]``
    # is f*n plus row i's rank in feature f, an index into the presorted
    # values and labels of feature f.
    order = np.argsort(xt, axis=1)
    flat_rank = np.empty((d, n), dtype=np.intp)
    np.put_along_axis(flat_rank, order, np.arange(d)[:, None] * n + np.arange(n), axis=1)
    sorted_x = np.take_along_axis(xt, order, axis=1).ravel()
    sorted_y = y01[order].ravel().astype(np.float64)  # labels as exact float counts

    # every tree's nodes in one flat list of six values per node: feature,
    # threshold, left, right, neg, pos
    nodes = []
    depth = 0
    # per tree: (rows, copies, depth, neg, pos, the parent's child link to
    # this node as an index into ``nodes``, or -1 at the root)
    stacks = []
    for c in copies:
        rows = np.flatnonzero(c)
        c = c[rows]
        pos = int(c @ y01[rows])
        stacks.append([(rows, c, 0, int(c.sum()) - pos, pos, -1)])
    # Sort-key widths: rank, then copy count.  A chunk holds under 2**16
    # segments, so a key needs about 16 + log2(d*n) + log2(copies) bits.
    bits = (int(flat_rank.size).bit_length(), int(max(s[0][1].max() for s in stacks)).bit_length())
    data = (n_try, xt, y01, flat_rank.ravel(), sorted_x, sorted_y, np.arange(max(CHUNK, n_try * n)), bits)
    live = range(len(stacks))  # the first step pops every tree's root: tree i's is node i
    while live:
        batch, still = [], []
        for i in live:
            stack = stacks[i]
            while stack:
                rows, c, level, neg, pos, link = stack.pop()
                node = len(nodes) // 6
                nodes.extend((0, np.inf, node, node, neg, pos))
                if link >= 0:
                    nodes[link] = node
                depth = max(depth, level)
                if level < max_depth and neg and pos:
                    feats = rngs[i].choice(d, size=n_try, replace=False)
                    batch.append((i, node, rows, c, level, neg, pos, feats))
                    still.append(i)
                    break
        live = still
        chunks, size = [], CHUNK
        for item in batch:
            elements = n_try * len(item[2])
            if size + elements > CHUNK:
                chunks.append([])
                size = 0
            chunks[-1].append(item)
            size += elements
        del batch
        while chunks:  # each chunk's inputs are released as soon as it is split
            _split(chunks.pop(), data, nodes, stacks)
    table = np.array(nodes, dtype=np.float64).reshape(-1, 6)  # integers here are far below 2**53
    return (table[:, 0].astype(np.intp), table[:, 1].copy(), table[:, 2].astype(np.intp),
            table[:, 3].astype(np.intp), table[:, 4:].astype(np.int64), depth)


def _split(chunk, data, nodes, stacks):
    """Score every (node, sampled feature) segment of ``chunk`` in one pass,
    split the nodes that have a valid split, and push their children.

    A node's split is the lowest weighted Gini over its sampled features;
    ties go to the first sampled feature, then the first position.  A node
    whose sampled features are all constant on its rows stays a leaf."""
    n_try, xt, y01, flat_rank, sorted_x, sorted_y, index, (rank_bits, copy_bits) = data
    tree, node, rows, copies, level, node_neg, node_pos, feats = zip(*chunk)
    k = len(chunk)
    m = np.array([len(r) for r in rows])
    rows = np.concatenate(rows)
    copies = np.concatenate(copies)
    feats = np.concatenate(feats)              # segments are node-major
    seg_len = np.repeat(m, n_try)
    seg_end = np.cumsum(seg_len)
    seg_start = seg_end - seg_len
    size = int(seg_end[-1])
    # Sort every segment's rows by their rank in the segment's feature at
    # once, in one integer key: segment number, then rank, then the row's
    # copy count, which rides along below the rank.
    row_at = index[:size] - np.repeat(seg_start - np.repeat(np.cumsum(m) - m, n_try), seg_len)
    key = rows[row_at]
    key += np.repeat(feats * xt.shape[1], seg_len)
    key = flat_rank[key]
    key <<= copy_bits
    key |= copies[row_at]
    key |= np.repeat(np.arange(k * n_try) << (rank_bits + copy_bits), seg_len)
    key.sort()
    w = (key & ((1 << copy_bits) - 1)).astype(np.float64)
    key >>= copy_bits
    key &= (1 << rank_bits) - 1
    sv = sorted_x[key]
    sy = sorted_y[key]
    del key, row_at
    # Running sample and class counts restart at each segment.  Any order
    # among equal values gives the same split: it changes the counts only
    # between equal values, and those positions are masked out below.  The
    # counts are exact integers held as floats, so the Gini below is the
    # same expression on the same values as with integer counts.
    sy *= w
    pos_left = np.cumsum(sy)
    pos_left -= np.repeat(pos_left[seg_start] - sy[seg_start], seg_len)
    n_left = np.cumsum(w)
    n_left -= np.repeat(n_left[seg_start] - w[seg_start], seg_len)
    del sy, w
    pos_right = np.repeat(np.array(node_pos, dtype=np.float64), n_try * m)
    pos_right -= pos_left
    n_right = np.repeat(np.add(node_neg, node_pos, dtype=np.float64), n_try * m)
    n_right -= n_left
    with np.errstate(divide="ignore", invalid="ignore"):  # a segment's last position has n_right = 0
        pos_left /= n_left    # p_l
        pos_right /= n_right  # p_r
    # gini = n_left * 2 * p_l * (1 - p_l) + n_right * 2 * p_r * (1 - p_r)
    n_left *= 2
    n_left *= pos_left
    np.subtract(1, pos_left, out=pos_left)
    n_left *= pos_left
    n_right *= 2
    n_right *= pos_right
    np.subtract(1, pos_right, out=pos_right)
    n_right *= pos_right
    gini = n_left
    gini += n_right
    invalid = np.empty(size, dtype=bool)
    np.equal(sv[1:], sv[:-1], out=invalid[:-1])
    invalid[seg_end - 1] = True
    np.putmask(gini, invalid, np.inf)
    # First minimum of each node's (n_try x m) block.
    node_start = seg_start[::n_try]
    best = np.minimum.reduceat(gini, node_start)
    hits = np.flatnonzero(gini == np.repeat(best, n_try * m))
    at = hits[np.searchsorted(hits, node_start)]
    split = best < np.inf
    at = at[split]
    feature = np.zeros(k, dtype=np.intp)
    threshold = np.full(k, np.inf)
    feature[split] = feats[np.searchsorted(seg_end, at, side="right")]
    threshold[split] = (sv[at] + sv[at + 1]) / 2.0

    # Partition every node's rows at once: a stable sort by (node, side).
    row_node = np.repeat(np.arange(k), m)
    side = 2 * row_node + (xt[feature[row_node], rows] > threshold[row_node])
    distinct = np.bincount(side, minlength=2 * k)
    neg = np.bincount(side, copies * (1 - y01[rows]), minlength=2 * k).astype(np.int64).tolist()
    pos = np.bincount(side, copies * y01[rows], minlength=2 * k).astype(np.int64).tolist()
    order = np.argsort(side, kind="stable")
    rows, copies = rows[order], copies[order]
    end = np.cumsum(distinct).tolist()
    distinct = distinct.tolist()
    feature, threshold = feature.tolist(), threshold.tolist()
    for j in np.flatnonzero(split).tolist():
        stack, at_node, below = stacks[tree[j]], node[j], level[j] + 1
        nodes[6 * at_node:6 * at_node + 2] = feature[j], threshold[j]
        # The right child may wait many steps on the stack, so it gets its own
        # copy rather than pinning this chunk's arrays; the left child is
        # popped on the tree's next step.  Each child links itself into this
        # node's left or right slot when it is popped.
        r = 2 * j + 1
        part = slice(end[r] - distinct[r], end[r])
        stack.append((rows[part].copy(), copies[part].copy(), below, neg[r], pos[r], 6 * at_node + 3))
        part = slice(end[r - 1] - distinct[r - 1], end[r - 1])
        stack.append((rows[part], copies[part], below, neg[r - 1], pos[r - 1], 6 * at_node + 2))


@dataclass
class RandomForest:
    """A fitted forest: one node table holding every tree."""
    feature: np.ndarray      # split feature per node (0 at leaves)
    threshold: np.ndarray    # go left when x[feature] <= threshold; +inf at leaves
    left: np.ndarray         # child node indices; a leaf points to itself
    right: np.ndarray
    counts: np.ndarray       # (n_nodes, 2) class counts (neg, pos) reaching each node
    depth: int               # depth of the deepest leaf
    trees: np.ndarray        # each tree's root node
    n_features: int


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
    n = x.shape[0]
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n_estimators)]
    copies = (np.bincount(rng.integers(0, n, size=n), minlength=n) for rng in rngs)
    return RandomForest(*_grow(x, y01, copies, rngs, max_depth), np.arange(n_estimators), x.shape[1])


def predict(forest, x):
    """Majority vote over trees; exact ties go to '+'."""
    x = _finite_features(x, "forest predict")
    if x.shape[1] != forest.n_features:
        raise ShapeError(f"feature dim {x.shape[1]} != {forest.n_features}")
    # Every (row, tree) pair descends one level per step from the tree's
    # root; a pair that reaches a leaf early stays there.
    n, d = x.shape
    flat = x.ravel()
    offset = (np.arange(n) * d)[:, None]
    node = np.repeat(forest.trees[None, :], n, axis=0)
    for _ in range(forest.depth):
        go_left = flat[offset + forest.feature[node]] <= forest.threshold[node]
        node = np.where(go_left, forest.left[node], forest.right[node])
    leaf = forest.counts[node]
    votes = (leaf[..., 1] >= leaf[..., 0]).sum(axis=1)  # leaf ties vote '+'
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
    if t.size == 0:
        raise ShapeError("evaluate: no labels to score")
    tn, fp, fn, tp = np.bincount(2 * t + p, minlength=4).tolist()
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
    ``ShapeError`` unless 2 <= folds <= n, and ``SingleClassError`` when no
    fold's training part holds both classes.  Each (fold, depth) is fitted
    once, at the largest tree count: tree i draws from child i of the
    forest seed's ``SeedSequence``, so a k-tree fit is the first k trees
    of any larger one.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y)
    n = x.shape[0]
    if not 2 <= folds <= n:
        raise ShapeError(f"forest grid search: n={n} samples cannot fill folds={folds}")
    counts = sorted(estimator_grid)
    if min(counts, default=0) < 1:
        raise ValueError("need at least 1 tree")
    fold_votes = {}  # keyed by a fold's training rows and the depth, which alone fix its fit

    def neg_f1(size, train_idx, test_idx):
        if len(np.unique(y[train_idx])) < 2:
            return None
        key = train_idx.tobytes(), size[1]
        if key not in fold_votes:
            rf = fit_rf(x[train_idx], y[train_idx], counts[-1], size[1], seed=seed)
            # a prefix keeps the whole table's depth; its walks only idle at leaves
            fold_votes[key] = {k: predict(replace(rf, trees=rf.trees[:k]), x[test_idx]) for k in counts}
        return -evaluate(y[test_idx], fold_votes[key][size[0]]).f1

    sizes = [(n_est, depth) for n_est in counts for depth in sorted(depth_grid)]
    best = cv_select(sizes, n, folds, seed, neg_f1)
    if best is None:
        raise SingleClassError("forest grid search: no fold's training part holds both classes")
    return best
