"""Joint emotion-class learning.

One autoencoder block per emotion class, each with an independent branch
and a similarity branch.  The similarity-branch latent layer is a single
weight-tied parameter pair shared by every block, so class-shared
structure is learnt jointly while the rest of each block stays private.

Branch layout (default "setup3" with hidden width 2N): encoder 2N relu,
latent 4N relu, decoder 2N relu.  The two decoder outputs feed a linear
fuse layer of N units whose output is the block's joint embedding.

Each branch is one plain :class:`DenseNet` that ends in its own half of
the fuse weight; the two halves share one fuse bias ``b``.  A branch's
output is then the fuse layer read out with the other branch's half
zeroed, an N-dim reconstruction, and the joint embedding is the full fuse
layer, ``rec_ind + rec_sim - b``.  Training scores each reconstruction
against the input with cosine + KLD and sums the two terms, which trains
both branches and the fuse read-out while keeping the per-branch
decomposition explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVector, EmptyClassError, ShapeError
from .losses import loss_cosine_kld
from .net import Adam, DenseLayer, DenseNet, Param, glorot_uniform, unique_params, zero_grads
from .serialize import load_checkpoint, save_checkpoint

SETUPS = ("setup1", "setup2", "setup3")


def latent_width(setup, hidden):
    if setup == "setup1":
        return hidden
    if setup == "setup2":
        return max(1, hidden // 2)
    if setup == "setup3":
        return 2 * hidden
    raise ValueError(f"unknown setup {setup!r}; expected one of {SETUPS}")


@dataclass
class EmotionBlock:
    """Independent and similarity branches, each ending in its half of the
    linear fuse read-out; both halves share the fuse bias."""

    class_id: int
    ind_branch: DenseNet
    sim_branch: DenseNet
    centroid: np.ndarray | None = None

    @property
    def input_dim(self):
        return self.ind_branch.input_dim

    def private_params(self):
        shared = {id(p) for p in self.shared_params()}
        return unique_params(
            p for net in (self.ind_branch, self.sim_branch) for p in net.params()
            if id(p) not in shared
        )

    def shared_params(self):
        # similarity latent layer (index 1 of the sim branch)
        layer = self.sim_branch.layers[1]
        return [layer.w, layer.b]

    def forward(self, x):
        """Forward pass caching everything needed for loss and embedding."""
        x = np.atleast_2d(x)
        ind_acts = self.ind_branch.forward(x)
        sim_acts = self.sim_branch.forward(x)
        rec_ind, rec_sim = ind_acts[-1], sim_acts[-1]
        # each read-out added the shared fuse bias; the full layer adds it once
        fused = rec_ind + rec_sim - self.ind_branch.layers[-1].b.value
        return {
            "ind_acts": ind_acts,
            "sim_acts": sim_acts,
            "rec_ind": rec_ind,
            "rec_sim": rec_sim,
            "fused": fused,
        }

    def backward(self, cache, grad_rec_ind, grad_rec_sim):
        """Accumulate grads from the two branch-reconstruction gradients."""
        self.ind_branch.backward(cache["ind_acts"], grad_rec_ind)
        self.sim_branch.backward(cache["sim_acts"], grad_rec_sim)


@dataclass
class JeclModel:
    blocks: list
    setup: str
    kld_weight: float = 1.0
    trained: bool = False

    @property
    def input_dim(self):
        return self.blocks[0].input_dim

    @property
    def num_classes(self):
        return len(self.blocks)


@dataclass
class TrainTrace:
    """Per-epoch training record."""

    total: list = field(default_factory=list)
    per_block: list = field(default_factory=list)
    validation: list = field(default_factory=list)
    steps: dict = field(default_factory=dict)


def build_jecl(input_dim, num_classes, setup="setup3", hidden=None, kld_weight=1.0, seed=0):
    """Construct a model of ``num_classes`` blocks with one tied similarity
    latent layer.

    ``hidden`` is the encoder/decoder width (default 2 * input_dim); the
    latent width follows the setup (same / half / double).
    """
    if input_dim < 1 or num_classes < 2:
        raise ValueError("need input_dim >= 1 and num_classes >= 2")
    rng = np.random.default_rng(seed)
    h = 2 * input_dim if hidden is None else hidden
    lat = latent_width(setup, h)
    shared_latent = DenseLayer.create(h, lat, "relu", rng, name="sim_latent")
    blocks = []
    for class_id in range(1, num_classes + 1):
        name = f"b{class_id}"
        ind = DenseNet.build([input_dim, h, lat, h], ["relu", "relu", "relu"], rng, name=f"{name}.ind")
        sim_enc = DenseLayer.create(input_dim, h, "relu", rng, name=f"{name}.sim.enc")
        sim_dec = DenseLayer.create(lat, h, "relu", rng, name=f"{name}.sim.dec")
        # one (2h, N) fuse layer, its weight rows split between the branches
        fuse_w = glorot_uniform(rng, 2 * h, input_dim)
        fuse_b = Param(np.zeros(input_dim), name=f"{name}.fuse.b")
        ind_fuse = DenseLayer(Param(fuse_w[:h].copy(), name=f"{name}.fuse.ind.w"), fuse_b, "linear")
        sim_fuse = DenseLayer(Param(fuse_w[h:].copy(), name=f"{name}.fuse.sim.w"), fuse_b, "linear")
        blocks.append(EmotionBlock(
            class_id,
            DenseNet([*ind.layers, ind_fuse]),
            DenseNet([sim_enc, shared_latent, sim_dec, sim_fuse]),
        ))
    return JeclModel(blocks, setup=setup, kld_weight=kld_weight)


def block_loss(block, x, kld_weight=1.0, backward=False):
    """Composite reconstruction loss of one block on a batch.

    Returns the scalar loss; with ``backward=True`` also accumulates
    gradients into the block's params.
    """
    cache = block.forward(x)
    x2 = np.atleast_2d(x)
    reps = []
    for branch in ("ind", "sim"):
        try:
            reps.append(loss_cosine_kld(cache[f"rec_{branch}"], x2, block.centroid, kld_weight))
        except DegenerateVector as err:  # e.g. every ReLU unit of the branch dead on a row
            err.args = (f"block {block.class_id} {branch} branch: {err}",)
            raise
    if backward:
        block.backward(cache, reps[0].grads[0], reps[1].grads[0])
    return reps[0].value + reps[1].value


def train_jecl(
    model,
    samples_by_class,
    epochs=500,
    lr=1e-3,
    val_frac=0.1,
    patience=20,
    seed=0,
):
    """Train all blocks with the alternating per-class schedule.

    Per epoch each block takes one full-batch optimizer step on its own
    class's samples; the tied similarity latent is stepped at every
    block's turn, private weights only on their own turn.  Since only the
    current block's gradients are live, each block's private params take
    the gradient arrays of the block before it (:meth:`Param.take_grad`).
    Class centroids are frozen from the initial class means.  Early
    stopping watches the summed validation loss with the given patience
    and leaves the params of the best epoch.
    """
    rng = np.random.default_rng(seed)
    class_ids = sorted(b.class_id for b in model.blocks)
    if sorted(samples_by_class) != class_ids:
        raise EmptyClassError(f"need samples for every class in {class_ids}")
    train_sets, val_sets = {}, {}
    for cid in class_ids:
        x = np.atleast_2d(np.asarray(samples_by_class[cid], dtype=np.float64))
        if x.shape[0] < 1:
            raise EmptyClassError(f"class {cid} has no samples")
        if x.shape[1] != model.input_dim:
            raise ShapeError(f"class {cid}: dim {x.shape[1]} != {model.input_dim}")
        n_val = int(round(val_frac * x.shape[0])) if x.shape[0] > 1 else 0
        order = rng.permutation(x.shape[0])
        val_sets[cid] = x[order[:n_val]]
        train_sets[cid] = x[order[n_val:]]

    blocks = {b.class_id: b for b in model.blocks}
    for cid in class_ids:
        if blocks[cid].centroid is None:
            blocks[cid].centroid = train_sets[cid].mean(axis=0)

    opt = Adam(lr=lr)
    trace = TrainTrace()
    all_params = unique_params(p for b in model.blocks for p in b.private_params() + b.shared_params())
    best_val = np.inf
    best_state = None  # one buffer per param, allocated at the first snapshot
    stale = 0
    private = {cid: blocks[cid].private_params() for cid in class_ids}
    last = class_ids[-1]  # the block that trained just before the current one
    for epoch in range(epochs):
        block_losses = {}
        for cid in class_ids:
            block = blocks[cid]
            for p, q in zip(private[cid], private[last], strict=True):
                p.take_grad(q)
            last = cid
            params = private[cid] + block.shared_params()
            zero_grads(params)
            block_losses[cid] = block_loss(block, train_sets[cid], model.kld_weight, backward=True)
            opt.step(params)
        trace.per_block.append(block_losses)
        trace.total.append(sum(block_losses.values()))

        if any(v.shape[0] for v in val_sets.values()):
            val = sum(
                block_loss(blocks[cid], val_sets[cid], model.kld_weight)
                for cid in class_ids
                if val_sets[cid].shape[0]
            )
            trace.validation.append(val)
            if val < best_val - 1e-12:
                best_val = val
                stale = 0
                if epoch + 1 < epochs:  # the last epoch's params stay as they are
                    if best_state is None:
                        best_state = [np.empty_like(p.value) for p in all_params]
                    for saved, p in zip(best_state, all_params):
                        np.copyto(saved, p.value)
            else:
                stale += 1
                if stale >= patience:
                    break

    if stale and best_state is not None:  # the last epoch run was not the best
        for p, saved in zip(all_params, best_state):
            np.copyto(p.value, saved)
    trace.steps = {
        "shared": opt.steps_taken(model.blocks[0].shared_params()[0]),
        "private": {
            cid: opt.steps_taken(blocks[cid].private_params()[0]) for cid in class_ids
        },
    }
    model.trained = True
    return trace


def embed(model, x):
    """Joint embedding of ``x``: one N-dim vector per block, class order.

    Every sample is routed through all blocks; no label is consumed.
    Returns shape (C, N) for a vector input, (batch, C, N) for a matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    outs = np.stack(embed_blocks(model, x), axis=1)
    return outs[0] if x.ndim == 1 else outs


def embed_blocks(model, x):
    """Per-block embeddings as a list of C (batch, N) matrices — the input
    block layout the multiblock regression stage consumes."""
    x2 = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x2.shape[1] != model.input_dim:
        raise ShapeError(f"input dim {x2.shape[1]} != {model.input_dim}")
    return [b.forward(x2)["fused"] for b in model.blocks]


def save_jecl(model, path):
    save_checkpoint(path, "jecl", model)


def load_jecl(path):
    return load_checkpoint(path, "jecl", (JeclModel, EmotionBlock))
