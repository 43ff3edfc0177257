"""The benchmark's workloads.

Each workload generates its inputs from the seed in its constructor
(untimed), sets up in ``setup`` (timed as set-up), readies operation
``i``'s inputs in ``prepare`` (untimed), runs one timed operation in
``op`` and checks that operation's output in ``check``.  The training
workloads make ``variants`` inputs from seed ``s``; variant ``j`` has
config seed ``s * variants + j``.

* ``synth_default`` -- the north-star traffic: ``run_experiment`` on the
  built-in synthetic corpus, with epochs and trees cut so a run holds
  several operations.  ``forest.fit`` is the largest layer.
* ``eeg_wide`` -- the real-data path: raw 32-channel EEG trials through
  ``biomarkers.extract_trial`` (416 features), feature CSVs written and
  read back by ``io``, then ``run_experiment`` at the default widths
  (hidden = 2N).  Adam far outweighs the forest, and it is the only
  workload that runs ``biomarkers`` and ``io``.
* ``serve_rows`` -- the deployed chain: models trained and round-tripped
  through checkpoints in set-up, then single-row requests from one
  closed-loop client.  Inference only: ``forest.predict`` dominates and no
  weights are written.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from jmml import biomarkers, edcc, experiment, forest, io, jecl, mbpls, pipeline
from jmml.config import SETUP_CHAIN, EdccConfig, ExperimentConfig, JeclConfig, RfConfig
from jmml.forest import NEG, POS

ROW_KEYS = {"setup", "modality", "input", "accuracy", "f1"}
EXPECTED_ROWS = [(setup, m) for setup in SETUP_CHAIN for m in (1, 2)]


class CheckFailed(Exception):
    """An operation returned output that fails the benchmark's checks."""


def rows_digest(rows):
    return hashlib.sha256(experiment.rows_to_json(rows).encode()).hexdigest()


def check_rows(rows):
    """Eight rows in report order with the documented schema and values."""
    dicts = [r.to_dict() for r in rows]
    if [(d["setup"], d["modality"]) for d in dicts] != EXPECTED_ROWS:
        raise CheckFailed(f"unexpected rows {[(d['setup'], d['modality']) for d in dicts]}")
    for d in dicts:
        if set(d) != ROW_KEYS:
            raise CheckFailed(f"row keys {sorted(d)} != {sorted(ROW_KEYS)}")
        if d["input"] != experiment.input_descriptor(d["setup"], d["modality"]):
            raise CheckFailed(f"bad input descriptor {d['input']!r}")
        for key in ("accuracy", "f1"):
            if not (math.isfinite(d[key]) and 0.0 <= d[key] <= 100.0):
                raise CheckFailed(f"{d['setup']} m{d['modality']} {key}={d[key]}")


class _ExperimentWorkload:
    """An operation is one ``run_experiment`` on one of ``variants`` inputs
    made from the seed; operation ``i`` uses variant ``i % variants``.
    Every repeat of a variant must give that variant's report digest, and
    ``f1_mean`` is the mean over the variants, so a run's F1 rests on more
    samples than one input holds."""

    setup_reps = 1
    warmup_ops = 1
    variants = 1

    def __init__(self):
        self.digests = {}
        self.f1 = {}

    @property
    def digest(self):
        return dict(sorted(self.digests.items()))

    @property
    def f1_mean(self):
        return float(np.mean(list(self.f1.values())))

    def setup(self):
        return None

    def prepare(self, i):
        pass

    def after_setup(self, state):
        pass

    def check(self, out):
        j, rows = out
        check_rows(rows)
        digest = rows_digest(rows)
        if j not in self.digests:
            self.digests[j] = digest
            self.f1[j] = float(np.mean([r.f1 for r in rows]))
        elif digest != self.digests[j]:
            raise CheckFailed(f"variant {j}: report digest {digest[:12]} != first operation's "
                              f"{self.digests[j][:12]}")

    def final_check(self, state):
        pass


class SynthDefault(_ExperimentWorkload):
    name = "synth_default"
    variants = 2

    def __init__(self, seed, workdir):
        super().__init__()
        self.configs = [
            ExperimentConfig(
                seed=seed * self.variants + j,
                jecl=JeclConfig(epochs=4, patience=4),
                edcc=EdccConfig(epochs=2),
                rf=RfConfig(n_estimators=8),
            )
            for j in range(self.variants)
        ]

    def op(self, i, state):
        j = i % self.variants
        return j, experiment.run_experiment(self.configs[j])


# Synthetic EEG: DEAP-shaped trials (32 channels, 60 s at 128 Hz) of pink
# background noise; on a fixed subset of channels a 10.5 Hz rhythm whose
# amplitude shifts with the class, jittered per trial.  Where the class
# signal sits (channels, speech direction) is fixed; the seed draws the
# trials and speech rows, so F1 varies across seeds only by sampling.
LAYOUT_SEED = 20250324
EEG_RATE = 128.0
EEG_CHANNELS = 32
EEG_SAMPLES = 7680
EEG_ACTIVE_CHANNELS = 12
EEG_EFFECT = 0.18
EEG_JITTER = 0.15
SPEECH_DIM = 88
SPEECH_SEPARATION = 3.5


def eeg_trials(rng, per_class):
    """Trial signals in float32, to halve what the stored inputs hold, and
    their labels."""
    active = np.random.default_rng(LAYOUT_SEED).choice(EEG_CHANNELS, EEG_ACTIVE_CHANNELS,
                                                       replace=False)
    freqs = np.fft.rfftfreq(EEG_SAMPLES, 1.0 / EEG_RATE)
    pink = 1.0 / np.sqrt(np.maximum(freqs, 0.5))
    t = np.arange(EEG_SAMPLES) / EEG_RATE
    trials, labels = [], []
    for i in range(2 * per_class):
        sign = 1.0 if i % 2 == 0 else -1.0
        white = rng.standard_normal((EEG_CHANNELS, EEG_SAMPLES))
        x = np.fft.irfft(np.fft.rfft(white, axis=1) * pink, n=EEG_SAMPLES, axis=1)
        gain = 1.0 + sign * EEG_EFFECT + EEG_JITTER * rng.standard_normal()
        phase = rng.uniform(0.0, 2.0 * np.pi, size=(EEG_ACTIVE_CHANNELS, 1))
        x[active] += 0.3 * gain * np.sin(2.0 * np.pi * 10.5 * t + phase)
        trials.append(x.astype(np.float32))
        labels.append(POS if sign > 0 else NEG)
    return trials, np.array(labels)


def speech_analog(rng, n):
    """An 88-d eGeMAPS-sized modality with its own samples and ids, sharing
    only the label set with the EEG trials."""
    y = np.array([POS if i % 2 == 0 else NEG for i in range(n)])
    direction = np.random.default_rng(LAYOUT_SEED + 1).standard_normal(SPEECH_DIM)
    direction *= SPEECH_SEPARATION / (2.0 * np.linalg.norm(direction))
    sign = np.where(y == POS, 1.0, -1.0)[:, None]
    x = rng.standard_normal((n, SPEECH_DIM)) + sign * direction
    ids = np.array([f"spk-{i:04d}" for i in range(n)])
    return pipeline.Dataset(x, y, ids, modality="speech", dimension="valence")


class EegWide(_ExperimentWorkload):
    name = "eeg_wide"
    # Four inputs of 24 trials per class: an operation stays short, and
    # f1_mean, averaged over the four, had a quartile spread of 0.044 over
    # seeds 0-9, against 0.103 for three inputs of 32 and 0.159 for three
    # of 16 (where the EEG test split held six trials).
    variants = 4
    per_class = 24
    # More speech rows than EEG trials: they are cheap, steady the
    # speech-side F1, and the runner resamples them to the EEG pool size
    # before pairing, so the cross-modal stage does the same work.
    speech_per_class = 200

    def __init__(self, seed, workdir):
        super().__init__()
        self.inputs = []
        for j in range(self.variants):
            rng = np.random.default_rng(seed * self.variants + j)
            trials, labels = eeg_trials(rng, self.per_class)
            self.inputs.append((trials, labels, speech_analog(rng, 2 * self.speech_per_class)))
        self.eeg_csv = workdir / "eeg.csv"
        self.speech_csv = workdir / "speech.csv"
        self.configs = [
            ExperimentConfig(
                seed=seed * self.variants + j,
                synth=None,
                modality1_csv=str(self.eeg_csv),
                modality2_csv=str(self.speech_csv),
                jecl=JeclConfig(epochs=2, patience=2),
                edcc=EdccConfig(epochs=1),
                rf=RfConfig(n_estimators=8),
            )
            for j in range(self.variants)
        ]

    def prepare(self, i):
        """Untimed: the trials of operation ``i``'s variant as the program
        takes them."""
        signals, labels, speech = self.inputs[i % self.variants]
        trials = [biomarkers.EegTrial(x, EEG_RATE, f"eeg-{k:04d}") for k, x in enumerate(signals)]
        self.current = trials, labels, speech

    def op(self, i, state):
        j = i % self.variants
        trials, labels, speech = self.current
        feats = np.stack([biomarkers.extract_trial(t).values for t in trials])
        expected = biomarkers.FeatureSelection().output_dim(EEG_CHANNELS)
        if feats.shape != (len(trials), expected):
            raise CheckFailed(f"feature matrix {feats.shape}, expected width {expected}")
        ids = np.array([t.trial_id for t in trials])
        io.write_feature_csv(self.eeg_csv, pipeline.Dataset(feats, labels, ids))
        io.write_feature_csv(self.speech_csv, speech)
        return j, experiment.run_experiment(self.configs[j])


# Serving chain hyperparameters: the experiment's defaults, with epochs and
# trees cut so that three set-ups fit in one run.
SERVE_JECL_EPOCHS = 8
SERVE_EDCC_EPOCHS = 3
SERVE_TREES = 30


@dataclass
class ModalityChain:
    """Everything one modality's requests touch."""

    mean: np.ndarray
    std: np.ndarray
    jecl: object
    pls: object
    rf: object


@dataclass
class Served:
    chains: list
    cae: object
    tests: list              # per-modality test Dataset (the request rows)
    cae_path: object         # the cross-modal model's checkpoint


def request(served, m, row):
    """One single-row request through modality ``m``'s deployed chain."""
    chain = served.chains[m]
    xs = (row[None, :] - chain.mean) / chain.std
    blocks = jecl.embed_blocks(chain.jecl, xs)
    rep = mbpls.predict(chain.pls, blocks)
    feats = edcc.classifier_features(served.cae, m, rep)
    return forest.predict(chain.rf, feats)[0]


def predict_batch(served, m, cae=None):
    chain = served.chains[m]
    xs = (served.tests[m].x - chain.mean) / chain.std
    rep = mbpls.predict(chain.pls, jecl.embed_blocks(chain.jecl, xs))
    return forest.predict(chain.rf, edcc.classifier_features(cae or served.cae, m, rep))


class ServeRows:
    name = "serve_rows"
    setup_reps = 3
    warmup_ops = 500
    variants = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.config = ExperimentConfig(seed=seed)
        self.datasets = pipeline.synth_bimodal(self.config.synth)
        self.batch_pred = None
        self.digest = None
        self.f1_mean = None

    def setup(self):
        """Train the jmml chain on the default split, round-trip it through
        checkpoints and serve from the reloaded models."""
        cfg, seed = self.config, self.seed
        split = replace(cfg.split, seed=seed)
        pools, tests = [], []
        for ds in self.datasets:
            train, _val, test = pipeline.stratified_split(ds, split)
            pools.append(pipeline.mco_oversample(train, seed=seed + 1))
            tests.append(test)
        chains, reps = [], []
        for m, pool in enumerate(pools):
            mean = pool.x.mean(axis=0)
            std = pool.x.std(axis=0)
            std[std == 0.0] = 1.0
            xs = (pool.x - mean) / std
            model = jecl.build_jecl(pool.dim, 2, setup=cfg.jecl.setup, seed=seed + 2 + m)
            jecl.train_jecl(model, {1: xs[pool.y == POS], 2: xs[pool.y == NEG]},
                            epochs=SERVE_JECL_EPOCHS, lr=cfg.jecl.lr, val_frac=cfg.jecl.val_frac,
                            patience=SERVE_JECL_EPOCHS, seed=seed + 2 + m)
            blocks = jecl.embed_blocks(model, xs)
            k = min(cfg.mbpls.n_components[m], len(pool) - 1, 2 * pool.dim)
            pls = mbpls.fit(blocks, xs, k)
            reps.append(mbpls.predict(pls, blocks))
            chains.append(ModalityChain(mean, std, model, pls, None))

        cae = edcc.build_edcc((reps[0].shape[1], reps[1].shape[1]), setup=cfg.edcc.setup,
                              projection_dim=cfg.edcc.projection_dim, seed=seed + 4)
        cae.scalers = [edcc.MinMaxScaler.fit(r) for r in reps]
        edcc.train_edcc(cae, cae.scalers[0].transform(reps[0]), cae.scalers[1].transform(reps[1]),
                        epochs=SERVE_EDCC_EPOCHS, batch_size=cfg.edcc.batch_size, lr=cfg.edcc.lr,
                        cca_w=cfg.edcc.cca_w, srec_w=cfg.edcc.srec_w, xrec_w=cfg.edcc.xrec_w,
                        reg=cfg.edcc.reg, seed=seed + 4)
        for m, chain in enumerate(chains):
            feats = edcc.classifier_features(cae, m, reps[m])
            chain.rf = forest.fit_rf(feats, pools[m].y, SERVE_TREES, cfg.rf.max_depth, seed=seed + 8)

        cae_path = self.workdir / "edcc.json"
        edcc.save_edcc(cae, cae_path)
        cae = edcc.load_edcc(cae_path)
        for m, chain in enumerate(chains):
            jecl.save_jecl(chain.jecl, self.workdir / f"jecl{m}.json")
            mbpls.save_mbpls(chain.pls, self.workdir / f"mbpls{m}.json")
            chain.jecl = jecl.load_jecl(self.workdir / f"jecl{m}.json")
            chain.pls = mbpls.load_mbpls(self.workdir / f"mbpls{m}.json")
        return Served(chains, cae, tests, cae_path)

    def after_setup(self, served):
        """Batch predictions for the request rows; every set-up of one seed
        must give the same ones."""
        preds = [predict_batch(served, m) for m in (0, 1)]
        digest = hashlib.sha256(b"".join(p.astype("U1").tobytes() for p in preds)).hexdigest()
        if self.digest is None:
            self.batch_pred, self.digest = preds, digest
            self.f1_mean = float(np.mean([
                forest.evaluate(served.tests[m].y, preds[m]).f1 for m in (0, 1)
            ]))
        elif digest != self.digest:
            raise CheckFailed("set-ups of one seed disagree on batch predictions")

    def prepare(self, i):
        pass

    def op(self, i, served):
        m = i % 2
        j = (i // 2) % len(served.tests[m])
        return m, j, request(served, m, served.tests[m].x[j])

    def check(self, out):
        m, j, pred = out
        if pred != self.batch_pred[m][j]:
            raise CheckFailed(f"modality {m + 1} row {j}: single-row {pred} != batch {self.batch_pred[m][j]}")

    def final_check(self, served):
        """Missing-modality guarantee on the served chain: with the other
        modality's cross-modal weights overwritten by NaN, a modality's
        predictions do not move."""
        for m in (0, 1):
            cae = edcc.load_edcc(served.cae_path)
            for p in cae.modalities[1 - m].params():
                p.value[...] = np.nan
            if not np.array_equal(predict_batch(served, m, cae), self.batch_pred[m]):
                raise CheckFailed(f"modality {m + 1} predictions changed with modality {2 - m} NaN")


WORKLOADS = {w.name: w for w in (SynthDefault, EegWide, ServeRows)}
