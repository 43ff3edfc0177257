"""Cross-modal autoencoder: train on paired data, infer from one modality.

Demonstrates the missing-modality guarantee — inference touches only one
modality's weights — and the [input, self-reconstruction] classifier
features.
"""

import numpy as np

from jmml.edcc import (
    MinMaxScaler,
    build_edcc,
    canonical_correlation,
    classifier_features,
    infer_single,
    train_edcc,
)
from jmml.pipeline import SynthSpec, pair_by_label, synth_bimodal

ds1, ds2 = synth_bimodal(SynthSpec(n_per_class=200, dims=(32, 20), seed=2))
scalers = [MinMaxScaler.fit(ds1.x), MinMaxScaler.fit(ds2.x)]
x1, x2, labels = pair_by_label(ds1, ds2, seed=2)
x1, x2 = scalers[0].transform(x1), scalers[1].transform(x2)

model = build_edcc((32, 20), seed=2)
print(f"correlation before training: {canonical_correlation(model, x1, x2):.3f}")
trace = train_edcc(model, x1, x2, epochs=20, labels=labels, seed=2)
print(f"correlation after  training: {canonical_correlation(model, x1, x2):.3f}")
print(f"loss {trace[0].total:.3f} -> {trace[-1].total:.3f}")

# Inference with modality 2 entirely absent: corrupt its weights to prove
# the single-modality path never reads them.
probe = x1[:5]
before = infer_single(model, 0, probe)
for p in model.modalities[1].params():
    p.value[...] = np.nan
after = infer_single(model, 0, probe)
print(f"identical without modality 2: "
      f"{np.array_equal(before.s_rec, after.s_rec) and np.array_equal(before.x_rec, after.x_rec)}")

feats = classifier_features(model, 0, probe)
print(f"classifier features per sample: {feats.shape[1]} "
      f"(input 32 + self-reconstruction 32)")
