"""The four-setup experiment runner.

Setups (each evaluated per modality with a random-forest final stage):

* ``baseline``       — raw features.
* ``jec_ssl``        — per-class joint embeddings projected back onto the
                       feature space by multiblock PLS.
* ``baseline_edcc``  — raw features through the cross-modal autoencoder;
                       classifier input is [input, self-reconstruction].
* ``jmml``           — the full chain: jec_ssl representation into the
                       cross-modal autoencoder.

A full run emits one report row per (setup, modality): eight rows.  The
whole run is a pure function of (config, data); sub-seeds for the split,
oversampling, model inits and the forest all derive from ``config.seed``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import edcc, forest, jecl, mbpls
from .config import ExperimentConfig
from .edcc import MinMaxScaler
from .errors import DegenerateVector, JmmlError
from .forest import NEG, POS
from .io import read_feature_csv
from .pipeline import mco_oversample, pair_by_label, resample_to_size, stratified_split, synth_bimodal

BAR = "X̄"


@dataclass
class ReportRow:
    setup: str
    modality: int            # 1 or 2
    input_desc: str
    accuracy: float
    f1: float

    def to_dict(self):
        return {
            "setup": self.setup,
            "modality": self.modality,
            "input": self.input_desc,
            "accuracy": round(self.accuracy, 4),
            "f1": round(self.f1, 4),
        }


def input_descriptor(setup, modality):
    m = modality
    return {
        "baseline": f"X_{m}",
        "jec_ssl": f"X'_{m}",
        "baseline_edcc": f"[X_{m}, {BAR}^{m}_{m}]",
        "jmml": f"[X'_{m}, {BAR}'^{m}_{m}]",
    }[setup]


def _load_datasets(config):
    if config.synth is not None:
        return synth_bimodal(config.synth, config.dimension)
    if not (config.modality1_csv and config.modality2_csv):
        raise JmmlError("config needs either synth parameters or two feature CSVs")
    return (
        read_feature_csv(config.modality1_csv, "eeg", config.dimension),
        read_feature_csv(config.modality2_csv, "speech", config.dimension),
    )


@contextmanager
def _stage(name):
    """Tag any library error with its pipeline stage; the error keeps its type."""
    try:
        yield
    except JmmlError as err:
        err.args = (f"[stage={name}] {err}",)
        raise


def fit_jecl(x, y, jecl_cfg, seed):
    """Build and train the per-class joint embedding blocks on ``x``
    (class 1 = '+', class 2 = '-'); returns (model, trace)."""
    model = jecl.build_jecl(
        x.shape[1], 2, setup=jecl_cfg.setup, hidden=jecl_cfg.hidden,
        kld_weight=jecl_cfg.kld_weight, seed=seed,
    )
    trace = jecl.train_jecl(
        model, {1: x[y == POS], 2: x[y == NEG]}, epochs=jecl_cfg.epochs, lr=jecl_cfg.lr,
        val_frac=jecl_cfg.val_frac, patience=jecl_cfg.patience, seed=seed,
    )
    return model, trace


def fit_cross_modal(pairs, scale_sets, edcc_cfg, seed):
    """Build and train the cross-modal autoencoder; returns (model, trace).

    ``pairs`` is (x1_paired, x2_paired, labels) in raw feature space, with
    ``labels`` None for index-paired data; each modality's [0,1] scaler is
    fitted on ``scale_sets[m]`` and stored on the model.
    """
    scalers = [MinMaxScaler.fit(x) for x in scale_sets]
    model = edcc.build_edcc(
        (scale_sets[0].shape[1], scale_sets[1].shape[1]), setup=edcc_cfg.setup,
        hidden=edcc_cfg.hidden, projection_dim=edcc_cfg.projection_dim, seed=seed,
    )
    model.scalers = scalers
    trace = edcc.train_edcc(
        model, scalers[0].transform(pairs[0]), scalers[1].transform(pairs[1]),
        epochs=edcc_cfg.epochs, batch_size=edcc_cfg.batch_size, lr=edcc_cfg.lr,
        cca_w=edcc_cfg.cca_w, srec_w=edcc_cfg.srec_w, xrec_w=edcc_cfg.xrec_w, reg=edcc_cfg.reg,
        labels=pairs[2], seed=seed,
    )
    return model, trace


def fit_pls(blocks, target, mbpls_cfg, modality, seed):
    """MBPLS stage: the LV count is tuned or taken from the config (a pair
    is indexed by ``modality``), clipped to min(n - 1, total block dim)."""
    if mbpls_cfg.tune:
        k = mbpls.tune_lv(blocks, target, mbpls_cfg.lv_grid, folds=mbpls_cfg.folds, seed=seed)
    else:
        k = mbpls_cfg.n_components
        if np.iterable(k):
            k = k[modality]
    k = min(k, len(target) - 1, sum(b.shape[1] for b in blocks))
    return mbpls.fit(blocks, target, k)


def classify(train_x, train_y, test_x, test_y, rf_cfg, seed):
    """Random-forest stage: fit at the configured (or grid-searched) size,
    evaluate on the test rows; returns the ``EvalReport``."""
    if rf_cfg.grid_search:
        n_est, depth = forest.grid_search(
            train_x, train_y, rf_cfg.estimator_grid, rf_cfg.depth_grid,
            folds=rf_cfg.folds, seed=seed + 7,
        )
    else:
        n_est, depth = rf_cfg.n_estimators, rf_cfg.max_depth
    clf = forest.fit_rf(train_x, train_y, n_est, depth, seed=seed + 8)
    return forest.evaluate(test_y, forest.predict(clf, test_x), average=rf_cfg.f1_average)


def split_pool(dataset, split_spec, seed):
    """Stratified split at ``seed``, training part oversampled at
    ``seed + 1``; returns (pool, test)."""
    train, _val, test = stratified_split(dataset, replace(split_spec, seed=seed))
    return mco_oversample(train, seed=seed + 1), test


def _jec_ssl(feats, pools, config, seed):
    """Per modality m (at ``seed + m``): standardize, train the JECL blocks
    and project their embeddings back onto the feature space by MBPLS."""
    out = []
    for m, ((train_x, test_x), pool) in enumerate(zip(feats, pools)):
        mean, std = train_x.mean(axis=0), train_x.std(axis=0)
        std[std == 0.0] = 1.0
        xs_train = (train_x - mean) / std
        model, _trace = fit_jecl(xs_train, pool.y, config.jecl, seed + m)
        blocks_train = jecl.embed_blocks(model, xs_train)
        pls = fit_pls(blocks_train, xs_train, config.mbpls, m, seed + m)
        blocks_test = jecl.embed_blocks(model, (test_x - mean) / std)
        out.append((mbpls.predict(pls, blocks_train), mbpls.predict(pls, blocks_test)))
    return out


def _check_spread(pools):
    """Each pool needs a feature with a nonzero std, as ``_jec_ssl``
    computes it: otherwise every standardized row has zero norm, and
    JECL's cosine terms have no direction to score."""
    for m, pool in enumerate(pools):
        if not pool.x.std(axis=0).any():
            cause = "is constant" if np.ptp(pool.x, axis=0).max() == 0 else "has a std that underflows to 0"
            raise DegenerateVector(f"modality {m + 1} ({pool.modality}): every feature {cause} "
                                   f"over its {len(pool)} training rows")


def _label_paired(pools, config):
    """Whether the cross-modal stages pair rows by label, not by index.

    The synthetic corpus is parallel (both modalities observe the same
    latent row for row), so its pools pair by index while their labels
    agree.  CSV corpora share only their labels; there pairs are drawn by
    label at ``config.seed + 5`` and re-drawn every training epoch.
    """
    return config.synth is None or not np.array_equal(pools[0].y, pools[1].y)


def _check_paired_rows(pools, config):
    """The CCA step's row check, made on the row count the cross-modal
    stages will pair (by label: the larger class count per label)."""
    if _label_paired(pools, config):
        n = sum(max(np.count_nonzero(pool.y == label) for pool in pools) for label in (POS, NEG))
    else:
        n = len(pools[0])
    edcc._check_cca_rows(n, config.edcc.projection_dim)


def _cross_modal(feats, pools, config, seed):
    """The cross-modal autoencoder on ``feats``; per modality the
    [input, self-reconstruction] matrices."""
    (tr1, _te1), (tr2, _te2) = feats
    if _label_paired(pools, config):
        pairs = pair_by_label(replace(pools[0], x=tr1), replace(pools[1], x=tr2),
                              seed=config.seed + 5)
    else:
        pairs = tr1, tr2, None
    model, _trace = fit_cross_modal(pairs, (tr1, tr2), config.edcc, seed)
    return [tuple(edcc.classifier_features(model, m, x) for x in feats[m]) for m in range(2)]


# Derived setups in SETUP_CHAIN order: (stage function, the setup whose
# per-modality (train, test) features it reads, seed offset).
STAGES = {
    "jec_ssl": (_jec_ssl, "baseline", 2),
    "baseline_edcc": (_cross_modal, "baseline", 3),
    "jmml": (_cross_modal, "jec_ssl", 4),
}


def run_experiment(config: ExperimentConfig):
    """Execute the configured setups and return the report rows."""
    seed = config.seed
    with _stage("data"):
        datasets = _load_datasets(config)
    with _stage("split"):
        (pool1, test1), (pool2, test2) = (split_pool(ds, config.split, seed) for ds in datasets)
        if len(pool2) != len(pool1):
            pool2 = resample_to_size(pool2, len(pool1), seed=seed + 6)
    pools, tests = (pool1, pool2), (test1, test2)
    setups = config.setups()

    needed = set(setups)  # the asked-for setups and every setup they read
    for name in reversed(STAGES):
        if name in needed:
            needed.add(STAGES[name][1])
    cross_modal = [name for name in STAGES if name in needed and STAGES[name][0] is _cross_modal]
    if cross_modal and config.edcc.cca_w != 0.0:  # fail before any stage trains
        with _stage(cross_modal[0]):
            _check_paired_rows(pools, config)
    if "jec_ssl" in needed:
        with _stage("jec_ssl"):
            _check_spread(pools)
    feats = {"baseline": [(pool.x, test.x) for pool, test in zip(pools, tests)]}
    for name, (stage_fn, source, offset) in STAGES.items():
        if name in needed:
            with _stage(name):
                feats[name] = stage_fn(feats[source], pools, config, seed + offset)

    rows = []
    for setup in setups:
        for m in range(2):
            with _stage(f"classify:{setup}:m{m + 1}"):
                train_feats, test_feats = feats[setup][m]
                report = classify(train_feats, pools[m].y, test_feats, tests[m].y, config.rf, seed)
            rows.append(
                ReportRow(setup, m + 1, input_descriptor(setup, m + 1), report.accuracy, report.f1)
            )
    return rows


def rows_to_json(rows):
    return json.dumps([r.to_dict() for r in rows], indent=2, sort_keys=True)


def render_table(rows, dimension="valence"):
    """Text table with the modality-1 and modality-2 columns side by side."""
    by_setup = {}
    for r in rows:
        by_setup.setdefault(r.setup, {})[r.modality] = r
    lines = [
        f"{dimension.capitalize()}",
        f"{'Experiment Setup':<16} | {'Input (1)':<16} {'Acc':>6} {'F1':>6} | "
        f"{'Input (2)':<16} {'Acc':>6} {'F1':>6}",
        "-" * 80,
    ]
    for setup, mods in by_setup.items():
        r1, r2 = mods.get(1), mods.get(2)
        lines.append(
            f"{setup:<16} | "
            f"{(r1.input_desc if r1 else '-'): <16} "
            f"{(f'{r1.accuracy:.1f}' if r1 else '-'):>6} "
            f"{(f'{r1.f1:.1f}' if r1 else '-'):>6} | "
            f"{(r2.input_desc if r2 else '-'): <16} "
            f"{(f'{r2.accuracy:.1f}' if r2 else '-'):>6} "
            f"{(f'{r2.f1:.1f}' if r2 else '-'):>6}"
        )
    return "\n".join(lines)
