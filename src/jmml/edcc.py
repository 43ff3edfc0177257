"""Cross-modal autoencoder with CCA-coupled encoders.

Two modalities, each with an encoder (three ReLU hidden layers, a linear
20-unit projection head off the penultimate layer) and a decoder (three
ReLU hidden layers feeding two linear heads: a self-reconstruction of the
own modality and a cross-reconstruction of the other one).

Objective: minus the canonical-correlation sum of the two projection
heads, plus binary cross-entropy for both self heads and both cross
heads.  The CCA term is computed once per epoch on the full training
projections (a mini-batch of 32 is rank-deficient for 20 components);
the reconstruction terms run on mini-batches.

Inference touches exactly one modality's weights, so predictions are
unchanged whether or not the other modality's data exists anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PairingError, RangeError, ShapeError, UnsupportedConfiguration
from .jecl import latent_width
from .losses import loss_bce, loss_cca
from .net import Adam, DenseLayer, DenseNet, zero_grads
from .serialize import load_checkpoint, save_checkpoint


@dataclass
class MinMaxScaler:
    """Per-feature min-max map onto [0, 1]; transform clips new data."""

    mins: np.ndarray
    ranges: np.ndarray

    @classmethod
    def fit(cls, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        mins = x.min(axis=0)
        ranges = x.max(axis=0) - mins
        ranges[ranges == 0.0] = 1.0
        return cls(mins, ranges)

    def transform(self, x):
        return np.clip((np.asarray(x, dtype=np.float64) - self.mins) / self.ranges, 0.0, 1.0)


@dataclass
class ModalityNets:
    encoder: DenseNet          # trunk: input -> 3 hidden relu, penultimate out
    projection: DenseLayer     # penultimate -> 20, linear
    decoder: DenseNet          # penultimate -> 3 hidden relu
    s_head: DenseLayer         # decoder out -> own dim, linear
    x_head: DenseLayer         # decoder out -> other dim, linear

    def params(self):
        return (
            self.encoder.params()
            + [self.projection.w, self.projection.b]
            + self.decoder.params()
            + [self.s_head.w, self.s_head.b, self.x_head.w, self.x_head.b]
        )

    def encoder_params(self):
        return self.encoder.params() + [self.projection.w, self.projection.b]


@dataclass
class EdccCaeModel:
    modalities: list                 # two ModalityNets
    input_dims: tuple
    projection_dim: int
    scalers: list = field(default_factory=lambda: [None, None])
    trained: bool = False

    def params(self):
        return self.modalities[0].params() + self.modalities[1].params()


@dataclass
class InferenceResult:
    """Single-modality forward pass outputs."""

    s_rec: np.ndarray
    x_rec: np.ndarray
    encoded: np.ndarray
    projection: np.ndarray


@dataclass
class EpochRecord:
    cca: float
    srec: float
    xrec: float

    @property
    def total(self):
        return self.cca + self.srec + self.xrec


def build_edcc(input_dims, setup="setup3", hidden=None, projection_dim=20, seed=0):
    """Build the two-modality model.

    Hidden widths follow the same setup scheme as the emotion blocks:
    encoder/decoder width ``hidden`` (default 2 * input dim, which is also
    the penultimate width), middle layer per setup.
    """
    if len(input_dims) != 2:
        raise UnsupportedConfiguration("exactly two modalities are supported")
    if any(d < 1 for d in input_dims):
        raise ValueError("input dims must be >= 1")
    rng = np.random.default_rng(seed)
    mods = []
    for m, dim in enumerate(input_dims):
        other = input_dims[1 - m]
        h = 2 * dim if hidden is None else hidden
        mid = latent_width(setup, h)
        encoder = DenseNet.build([dim, h, mid, h], ["relu"] * 3, rng, name=f"m{m}.enc")
        projection = DenseLayer.create(h, projection_dim, "linear", rng, name=f"m{m}.proj")
        decoder = DenseNet.build([h, h, mid, h], ["relu"] * 3, rng, name=f"m{m}.dec")
        s_head = DenseLayer.create(h, dim, "linear", rng, name=f"m{m}.srec")
        x_head = DenseLayer.create(h, other, "linear", rng, name=f"m{m}.xrec")
        mods.append(ModalityNets(encoder, projection, decoder, s_head, x_head))
    return EdccCaeModel(mods, tuple(input_dims), projection_dim)


def _check_unit_range(x, what):
    if x.min() < 0.0 or x.max() > 1.0:
        raise RangeError(f"{what} must be scaled to [0, 1] (BCE domain)")


def _encode(nets, x):
    acts = nets.encoder.forward(x)
    proj = nets.projection.forward(acts[-1])
    return acts, proj


def _decode(nets, penult):
    dec_acts = nets.decoder.forward(penult)
    s_pred = nets.s_head.forward(dec_acts[-1])
    x_pred = nets.x_head.forward(dec_acts[-1])
    return dec_acts, s_pred, x_pred


def _cca_pass(model, x1, x2, reg, weight, backward):
    caches, projs = [], []
    for nets, x in zip(model.modalities, (x1, x2)):
        acts, proj = _encode(nets, x)
        caches.append(acts)
        projs.append(proj)
    rep = loss_cca(projs[0], projs[1], reg)
    if backward:
        for nets, acts, proj, grad in zip(model.modalities, caches, projs, rep.grads):
            g_pen = nets.projection.backward(acts[-1], proj, weight * grad)
            nets.encoder.backward(acts, g_pen)
    return weight * rep.value


def _recon_pass(model, x1, x2, srec_w, xrec_w, backward):
    data = (x1, x2)
    srec_total = 0.0
    xrec_total = 0.0
    for m, nets in enumerate(model.modalities):
        own, other = data[m], data[1 - m]
        acts = nets.encoder.forward(own)
        dec_acts, s_pred, x_pred = _decode(nets, acts[-1])
        s_rep = loss_bce(s_pred, own)
        x_rep = loss_bce(x_pred, other)
        srec_total += srec_w * s_rep.value
        xrec_total += xrec_w * x_rep.value
        if backward:
            out = dec_acts[-1]
            g_out = nets.s_head.backward(out, s_pred, srec_w * s_rep.grads[0])
            g_out += nets.x_head.backward(out, x_pred, xrec_w * x_rep.grads[0])
            g_pen = nets.decoder.backward(dec_acts, g_out)
            nets.encoder.backward(acts, g_pen)
    return srec_total, xrec_total


def objective(model, x1, x2, cca_w=1.0, srec_w=1.0, xrec_w=1.0, reg=1e-4, backward=False):
    """Full objective on one batch (CCA and reconstruction together).

    Returns an :class:`EpochRecord`; with ``backward=True`` gradients are
    accumulated into the model params.  Used for gradient verification
    and the additivity contract; training itself phases the CCA term per
    epoch.
    """
    cca = _cca_pass(model, x1, x2, reg, cca_w, backward) if cca_w != 0.0 else 0.0
    srec, xrec = _recon_pass(model, x1, x2, srec_w, xrec_w, backward)
    return EpochRecord(cca, srec, xrec)


def train_edcc(
    model,
    data_1,
    data_2,
    epochs=100,
    batch_size=32,
    lr=1e-3,
    cca_w=1.0,
    srec_w=1.0,
    xrec_w=1.0,
    reg=1e-4,
    labels=None,
    seed=0,
):
    """Train on index-paired modality matrices scaled to [0, 1].

    Per epoch: one full-batch step on the CCA term (projection heads need
    batch statistics), then shuffled mini-batch steps on the weighted
    reconstruction terms.  Returns the per-epoch loss trace.

    With ``labels`` given (one label per paired row), the modality-2 rows
    are re-paired within each label group at every epoch.  Non-parallel
    corpora share only their labels, so any fixed pairing is arbitrary;
    re-drawing it each epoch stops the CCA and cross-reconstruction terms
    from memorizing one arbitrary draw and leaves them only the per-class
    structure to learn.
    """
    x1 = np.atleast_2d(np.asarray(data_1, dtype=np.float64))
    x2 = np.atleast_2d(np.asarray(data_2, dtype=np.float64))
    if x1.shape[0] != x2.shape[0]:
        raise PairingError(f"sample counts differ: {x1.shape[0]} vs {x2.shape[0]}")
    if x1.shape[1] != model.input_dims[0] or x2.shape[1] != model.input_dims[1]:
        raise ShapeError("modality dims do not match the model")
    _check_unit_range(x1, "modality-1 data")
    _check_unit_range(x2, "modality-2 data")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape[0] != x1.shape[0]:
            raise PairingError(f"label count {labels.shape[0]} != sample count {x1.shape[0]}")
        groups = [np.flatnonzero(labels == lab) for lab in np.unique(labels)]

    rng = np.random.default_rng(seed)
    opt = Adam(lr=lr)
    enc_params = model.modalities[0].encoder_params() + model.modalities[1].encoder_params()
    all_params = model.params()
    n = x1.shape[0]
    trace = []
    for _epoch in range(epochs):
        if labels is not None:
            x2 = x2.copy()
            for idx in groups:
                x2[idx] = x2[idx[rng.permutation(idx.size)]]
        cca_term = 0.0
        if cca_w != 0.0:
            zero_grads(enc_params)
            cca_term = _cca_pass(model, x1, x2, reg, cca_w, backward=True)
            opt.step(enc_params)

        order = rng.permutation(n)
        srec_term = 0.0
        xrec_term = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            zero_grads(all_params)
            srec, xrec = _recon_pass(model, x1[idx], x2[idx], srec_w, xrec_w, backward=True)
            opt.step(all_params)
            srec_term += srec * idx.size
            xrec_term += xrec * idx.size
        trace.append(EpochRecord(cca_term, srec_term / n, xrec_term / n))
    model.trained = True
    return trace


def infer_single(model, modality, x):
    """Forward one sample (or batch) of a single modality.

    Touches only that modality's weights; the result is a pure function
    of (model, modality, x).
    """
    if modality not in (0, 1):
        raise ValueError("modality must be 0 or 1")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != model.input_dims[modality]:
        raise ShapeError(f"dim {x2.shape[1]} != modality-{modality} dim {model.input_dims[modality]}")
    _check_unit_range(x2, f"modality-{modality} input")
    nets = model.modalities[modality]
    acts, proj = _encode(nets, x2)
    _dec_acts, s_pred, x_pred = _decode(nets, acts[-1])
    if single:
        return InferenceResult(s_pred[0], x_pred[0], acts[-1][0], proj[0])
    return InferenceResult(s_pred, x_pred, acts[-1], proj)


def classifier_features(model, modality, x):
    """Concatenate the input representation with its self-reconstruction.

    ``x`` is the unscaled representation; when the model carries fitted
    scalers the forward pass runs on the scaled copy, but the concatenated
    left half stays unscaled (the scaler's clipping saturates test-set
    tails and should not degrade the classifier's view of the input).
    """
    x = np.asarray(x, dtype=np.float64)
    scaler = model.scalers[modality]
    result = infer_single(model, modality, x if scaler is None else scaler.transform(x))
    return np.concatenate([x, result.s_rec], axis=-1)


def canonical_correlation(model, x1, x2, reg=1e-4):
    """Mean canonical correlation of the two projection heads on data."""
    _acts1, proj1 = _encode(model.modalities[0], np.atleast_2d(x1))
    _acts2, proj2 = _encode(model.modalities[1], np.atleast_2d(x2))
    rep = loss_cca(proj1, proj2, reg)
    return -rep.value / model.projection_dim


def save_edcc(model, path):
    save_checkpoint(path, "edcc-cae", model)


def load_edcc(path):
    return load_checkpoint(path, "edcc-cae", (EdccCaeModel, ModalityNets, MinMaxScaler))
