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
from .errors import JmmlError
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


class _Standardizer:
    def __init__(self, x):
        self.mean = x.mean(axis=0)
        self.std = x.std(axis=0)
        self.std[self.std == 0.0] = 1.0

    def __call__(self, x):
        return (x - self.mean) / self.std


@contextmanager
def _stage(name):
    """Tag any library error with the pipeline stage it came from."""
    try:
        yield
    except JmmlError as err:
        raise JmmlError(f"[stage={name}] {err}") from err


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


def jec_ssl_transform(train_x, train_y, test_x, config, seed, modality=0):
    """Fit the intra-modal chain on training data; return transformed
    (train, test) feature matrices."""
    scaler = _Standardizer(train_x)
    xs_train = scaler(train_x)
    xs_test = scaler(test_x)
    model, _trace = fit_jecl(xs_train, train_y, config.jecl, seed)
    blocks_train = jecl.embed_blocks(model, xs_train)
    blocks_test = jecl.embed_blocks(model, xs_test)
    n, d = xs_train.shape
    if config.mbpls.tune:
        k = mbpls.tune_lv(blocks_train, xs_train, config.mbpls.lv_grid,
                          folds=config.mbpls.folds, seed=seed)
    else:
        k_cfg = config.mbpls.n_components
        if np.iterable(k_cfg):
            k_cfg = k_cfg[modality]
        k = min(k_cfg, n - 1, 2 * d)
    pls = mbpls.fit(blocks_train, xs_train, k)
    return mbpls.predict(pls, blocks_train), mbpls.predict(pls, blocks_test)


def cross_modal_features(pairs, train_sets, test_sets, config, seed):
    """Train the cross-modal autoencoder (scalers fitted on ``train_sets``)
    and return per-modality [input, self-reconstruction] feature matrices.

    ``pairs`` is as for ``fit_cross_modal``; ``train_sets``/``test_sets``
    are per-modality raw matrices.
    """
    model, _trace = fit_cross_modal(pairs, train_sets, config.edcc, seed)
    out = []
    for m in range(2):
        feats = [edcc.classifier_features(model, m, x) for x in (train_sets[m], test_sets[m])]
        out.append(tuple(feats))
    return out


def run_experiment(config: ExperimentConfig):
    """Execute the configured setups and return the report rows."""
    seed = config.seed
    with _stage("data"):
        ds1, ds2 = _load_datasets(config)
    with _stage("split"):
        split = replace(config.split, seed=seed)
        train1, _val1, test1 = stratified_split(ds1, split)
        train2, _val2, test2 = stratified_split(ds2, split)
        pool1 = mco_oversample(train1, seed=seed + 1)
        pool2 = mco_oversample(train2, seed=seed + 1)
        if len(pool2) != len(pool1):
            pool2 = resample_to_size(pool2, len(pool1), seed=seed + 6)
    pools = (pool1, pool2)
    tests = (test1, test2)
    setups = config.setups()

    reps = {"baseline": [(pool.x, test.x) for pool, test in zip(pools, tests)]}

    if {"jec_ssl", "jmml"} & set(setups):
        with _stage("jec_ssl"):
            reps["jec_ssl"] = [
                jec_ssl_transform(pools[m].x, pools[m].y, tests[m].x, config, seed + 2 + m, m)
                for m in range(2)
            ]

    # The synthetic corpus is parallel (both modalities observe the same
    # latent row for row), so cross-modal pairs go by index.  CSV corpora
    # share only their labels; there pairs are drawn by label and re-drawn
    # every training epoch.
    parallel = config.synth is not None and np.array_equal(pool1.y, pool2.y)

    def make_pairs(a, b):
        if parallel:
            return a.x, b.x, None
        return pair_by_label(a, b, seed=seed + 5)

    if "baseline_edcc" in setups:
        with _stage("baseline_edcc"):
            pairs = make_pairs(pool1, pool2)
            train_sets = [pools[m].x for m in range(2)]
            test_sets = [tests[m].x for m in range(2)]
            reps["baseline_edcc"] = cross_modal_features(
                pairs, train_sets, test_sets, config, seed + 3
            )

    if "jmml" in setups:
        with _stage("jmml"):
            tr1, te1 = reps["jec_ssl"][0]
            tr2, te2 = reps["jec_ssl"][1]
            p1 = replace(pool1, x=tr1)
            p2 = replace(pool2, x=tr2)
            pairs = make_pairs(p1, p2)
            reps["jmml"] = cross_modal_features(pairs, (tr1, tr2), (te1, te2), config, seed + 4)

    rows = []
    for setup in setups:
        for m in range(2):
            with _stage(f"classify:{setup}:m{m + 1}"):
                train_feats, test_feats = reps[setup][m]
                rf_cfg = config.rf
                if rf_cfg.grid_search:
                    n_est, depth = forest.grid_search(
                        train_feats, pools[m].y, rf_cfg.estimator_grid, rf_cfg.depth_grid,
                        folds=rf_cfg.folds, seed=seed + 7,
                    )
                else:
                    n_est, depth = rf_cfg.n_estimators, rf_cfg.max_depth
                clf = forest.fit_rf(train_feats, pools[m].y, n_est, depth, seed=seed + 8)
                pred = forest.predict(clf, test_feats)
                report = forest.evaluate(tests[m].y, pred, average=rf_cfg.f1_average)
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
