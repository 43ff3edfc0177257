"""Label handling, splits, oversampling and synthetic bimodal data.

Labels live on the valence/arousal axes with '+'/'-' polarity.  Ratings
on the 1-9 self-assessment scale binarize at 4.5; categorical speech
emotions map onto the axes (Anger -> V-, Happy -> V+, Sad -> A-,
Neutral -> A+).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyClassError, LabelError, RangeError, SingleClassError

POS, NEG = "+", "-"

RATING_THRESHOLD = 4.5

CATEGORY_MAP = {
    "Anger": ("valence", NEG),
    "Happy": ("valence", POS),
    "Sad": ("arousal", NEG),
    "Neutral": ("arousal", POS),
}


def binarize_rating(rating, threshold=RATING_THRESHOLD):
    """'+' iff rating >= threshold, on the 1-9 self-assessment scale."""
    if not 1.0 <= rating <= 9.0:
        raise RangeError(f"rating {rating} outside [1, 9]")
    return POS if rating >= threshold else NEG


def relabel_categorical(emotion):
    """Map a categorical speech emotion to (dimension, polarity)."""
    try:
        return CATEGORY_MAP[emotion]
    except KeyError:
        raise LabelError(f"unknown emotion category {emotion!r}") from None


@dataclass
class Dataset:
    """Feature matrix with polarity labels and stable sample identifiers."""

    x: np.ndarray
    y: np.ndarray            # '+' / '-'
    ids: np.ndarray          # opaque string identifiers
    modality: str = "eeg"
    dimension: str = "valence"

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.y = np.asarray(self.y)
        self.ids = np.asarray(self.ids)
        if not (self.x.shape[0] == self.y.size == self.ids.size):
            raise ValueError("x, y and ids must agree on sample count")

    def __len__(self):
        return self.x.shape[0]

    @property
    def dim(self):
        return self.x.shape[1]

    def subset(self, idx):
        return replace(self, x=self.x[idx], y=self.y[idx], ids=self.ids[idx])

    def class_indices(self):
        return {label: np.flatnonzero(self.y == label) for label in (POS, NEG)}


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float = 0.8
    test_frac: float = 0.2
    val_frac_of_train: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if abs(self.train_frac + self.test_frac - 1.0) > 1e-12:
            raise ValueError("train_frac + test_frac must equal 1")


def stratified_split(dataset, spec=SplitSpec()):
    """Deterministic stratified (train, val, test) split.

    Per-class proportions are preserved within one sample; the three
    parts are disjoint and their union is the input.  Oversampling must
    happen after this split, never before.
    """
    rng = np.random.default_rng(spec.seed)
    train_idx, val_idx, test_idx = [], [], []
    for label, idx in dataset.class_indices().items():
        if idx.size < 10:
            raise EmptyClassError(f"class {label} has {idx.size} samples; need >= 10")
        order = idx[rng.permutation(idx.size)]
        n_test = int(round(spec.test_frac * idx.size))
        n_val = int(round(spec.val_frac_of_train * (idx.size - n_test)))
        test_idx.append(order[:n_test])
        val_idx.append(order[n_test:n_test + n_val])
        train_idx.append(order[n_test + n_val:])
    return (
        dataset.subset(np.sort(np.concatenate(train_idx))),
        dataset.subset(np.sort(np.concatenate(val_idx))),
        dataset.subset(np.sort(np.concatenate(test_idx))),
    )


def mco_oversample(dataset, seed=0):
    """Minority-class oversampling: duplicate minority samples (with
    replacement, seeded) until class counts are equal."""
    by_class = dataset.class_indices()
    counts = {label: idx.size for label, idx in by_class.items()}
    if min(counts.values()) == 0:
        raise SingleClassError("both classes must be present to oversample")
    n_max = max(counts.values())
    rng = np.random.default_rng(seed)
    extra = []
    for label, idx in by_class.items():
        if idx.size < n_max:
            extra.append(rng.choice(idx, size=n_max - idx.size, replace=True))
    if not extra:
        return dataset
    idx_all = np.concatenate([np.arange(len(dataset))] + extra)
    return dataset.subset(idx_all)


def kfold(n, folds, rng):
    """``folds`` (train, test) index pairs over one ``rng.permutation(n)``.

    The permutation is cut by ``np.array_split``; each fold's training part
    is the other folds concatenated in order.
    """
    parts = np.array_split(rng.permutation(n), folds)
    return [(np.concatenate(parts[:f] + parts[f + 1:]), test) for f, test in enumerate(parts)]


def cv_select(candidates, n, folds, seed, loss):
    """The candidate with the lowest mean ``loss(candidate, train_idx, test_idx)``
    over ``kfold(n, folds, np.random.default_rng(seed))``.

    A fold whose loss is None is skipped.  A later candidate must win by
    more than 1e-12, so ties go to the earliest.  None if no fold scored.
    """
    splits = kfold(n, folds, np.random.default_rng(seed))
    best, best_loss = None, np.inf
    for cand in candidates:
        scores = [s for s in (loss(cand, tr, te) for tr, te in splits) if s is not None]
        if scores and (mean := float(np.mean(scores))) < best_loss - 1e-12:
            best, best_loss = cand, mean
    return best


def resample_to_size(dataset, n, seed=0):
    """Stratified seeded resample (with replacement when growing) to ``n``
    samples, preserving class proportions as closely as possible."""
    rng = np.random.default_rng(seed)
    by_class = dataset.class_indices()
    total = len(dataset)
    picks = []
    for label, idx in by_class.items():
        target = int(round(n * idx.size / total))
        picks.append(rng.choice(idx, size=target, replace=target > idx.size))
    return dataset.subset(np.concatenate(picks))


def pair_by_label(ds_a, ds_b, seed=0):
    """Index-paired matrices drawing same-label samples from two datasets.

    For each label the pairing uses the larger class count; the smaller
    side is resampled with replacement.  Returns (x_a, x_b, labels).
    """
    rng = np.random.default_rng(seed)
    rows_a, rows_b, labels = [], [], []
    idx_a = ds_a.class_indices()
    idx_b = ds_b.class_indices()
    for label in (POS, NEG):
        a, b = idx_a[label], idx_b[label]
        if a.size == 0 or b.size == 0:
            raise SingleClassError(f"label {label} missing from one modality")
        n = max(a.size, b.size)
        pa = rng.permutation(a) if a.size == n else rng.choice(a, size=n, replace=True)
        pb = rng.permutation(b) if b.size == n else rng.choice(b, size=n, replace=True)
        rows_a.append(ds_a.x[pa])
        rows_b.append(ds_b.x[pb])
        labels.extend([label] * n)
    return np.vstack(rows_a), np.vstack(rows_b), np.asarray(labels)


@dataclass(frozen=True)
class SynthSpec:
    """Generator parameters for the class-conditioned bimodal benchmark."""

    n_per_class: int = 500
    latent_dim: int = 6
    dims: tuple = (64, 32)
    noise: float = 1.0
    seed: int = 0
    class_separation: float = 1.6
    # per-modality multipliers on the base noise scale: the second
    # (speech-analog) modality is observed through a noisier channel,
    # mirroring the strong-EEG / weak-speech asymmetry the cross-modal
    # stage is meant to exploit
    modality_noise: tuple = (1.0, 1.5)


def synth_bimodal(spec=SynthSpec(), dimension="valence"):
    """Two labeled datasets sharing a class-conditioned latent.

    Each class draws latent vectors around an antipodal class mean; each
    modality observes a fixed random tanh map of the latent plus Gaussian
    noise of the requested scale.  Labels are shared across modalities
    and everything is a pure function of the spec.
    """
    if min(spec.dims) < spec.latent_dim:
        raise ValueError("modality dims must be >= latent_dim")
    rng = np.random.default_rng(spec.seed)
    direction = rng.standard_normal(spec.latent_dim)
    direction *= spec.class_separation / (2.0 * np.linalg.norm(direction))
    n = spec.n_per_class
    z = np.vstack(
        [
            rng.standard_normal((n, spec.latent_dim)) + direction,
            rng.standard_normal((n, spec.latent_dim)) - direction,
        ]
    )
    labels = np.array([POS] * n + [NEG] * n)
    datasets = []
    for m, dim in enumerate(spec.dims):
        w1 = rng.standard_normal((spec.latent_dim, 2 * dim)) / np.sqrt(spec.latent_dim)
        b1 = rng.standard_normal(2 * dim) * 0.5
        w2 = rng.standard_normal((2 * dim, dim)) / np.sqrt(2 * dim)
        clean = np.tanh(z @ w1 + b1) @ w2
        sigma = spec.noise * spec.modality_noise[m] * clean.std()
        noisy = clean + sigma * rng.standard_normal(clean.shape)
        ids = np.array([f"m{m + 1}-{i:05d}" for i in range(2 * n)])
        datasets.append(
            Dataset(noisy, labels.copy(), ids, modality=("eeg", "speech")[m], dimension=dimension)
        )
    return datasets[0], datasets[1]


def audit_no_leakage(train_like, test):
    """True iff no test identifier appears in the (possibly oversampled)
    training-side dataset."""
    return not (set(test.ids.tolist()) & set(train_like.ids.tolist()))
