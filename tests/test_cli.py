"""End-to-end CLI verb coverage through main()."""

import json

import numpy as np
import pytest

from jmml import edcc, jecl
from jmml.biomarkers import EegTrial
from jmml.cli import main
from jmml.config import load_config
from jmml.io import read_feature_csv, write_feature_csv, write_trials
from jmml.pipeline import SynthSpec, pair_by_label, synth_bimodal


@pytest.fixture
def synth_csvs(tmp_path):
    ds1, ds2 = synth_bimodal(SynthSpec(n_per_class=40, latent_dim=4, dims=(10, 8), seed=0))
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_feature_csv(p1, ds1)
    write_feature_csv(p2, ds2)
    return str(p1), str(p2)


def test_synth_verb(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    spec_out = tmp_path / "spec.json"
    rc = main([
        "synth", "--out1", str(out1), "--out2", str(out2),
        "--spec-out", str(spec_out), "--n-per-class", "20",
        "--d1", "8", "--d2", "6", "--seed", "1",
    ])
    assert rc == 0
    ds = read_feature_csv(out1)
    assert len(ds) == 40 and ds.dim == 8
    spec = json.loads(spec_out.read_text())
    assert spec["n_per_class"] == 20


def test_extract_verb(tmp_path, capsys):
    rng = np.random.default_rng(0)
    trials = [EegTrial(rng.standard_normal((2, 512)), 128.0, f"t{i}") for i in range(4)]
    labels = ["V+", "V-", "V+", "V-"]
    container = tmp_path / "trials.eegt"
    write_trials(container, trials, labels)
    out = tmp_path / "features.csv"
    rc = main(["extract", str(container), str(out)])
    assert rc == 0
    ds = read_feature_csv(out)
    assert len(ds) == 4 and ds.dim == 2 * 13


def test_train_jecl_and_fit_mbpls_verbs(tmp_path, synth_csvs, capsys):
    p1, _p2 = synth_csvs
    model_path = tmp_path / "jecl.json"
    rc = main([
        "train-jecl", "--features", p1, "--modality", "eeg",
        "--seed", "0", "--out", str(model_path),
    ])
    assert rc == 0 and model_path.exists()
    pls_path = tmp_path / "mbpls.json"
    rc = main([
        "fit-mbpls", "--jecl", str(model_path), "--features", p1,
        "--components", "6", "--out", str(pls_path),
    ])
    assert rc == 0 and pls_path.exists()


def test_train_jecl_checkpoint_pins_config_mapping(tmp_path, synth_csvs, capsys):
    # Every JeclConfig field must reach build_jecl/train_jecl under its own
    # keyword, on the CSV's raw (unstandardized) features.
    p1, _p2 = synth_csvs
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("jecl: {setup: setup2, hidden: 16, kld_weight: 0.5, epochs: 12,"
                   " lr: 0.02, val_frac: 0.2, patience: 2}\n")
    out = tmp_path / "jecl.json"
    rc = main([
        "train-jecl", "--features", p1, "--modality", "eeg",
        "--config", str(cfg), "--seed", "4", "--out", str(out),
    ])
    assert rc == 0

    ds = read_feature_csv(p1, modality="eeg")
    direct = jecl.build_jecl(ds.dim, 2, setup="setup2", hidden=16, kld_weight=0.5, seed=4)
    trace = jecl.train_jecl(direct, {1: ds.x[ds.y == "+"], 2: ds.x[ds.y == "-"]},
                            epochs=12, lr=0.02, val_frac=0.2, patience=2, seed=4)
    assert len(trace.total) == 11  # patience, not the epoch cap, ends the run
    ref = tmp_path / "direct.json"
    jecl.save_jecl(direct, ref)
    assert out.read_bytes() == ref.read_bytes()


def test_train_jmml_verb(tmp_path, synth_csvs, capsys):
    p1, p2 = synth_csvs
    out = tmp_path / "edcc.json"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("edcc:\n  epochs: 3\n")
    rc = main([
        "train-jmml", "--features1", p1, "--features2", p2,
        "--config", str(cfg), "--seed", "0", "--out", str(out),
    ])
    assert rc == 0 and out.exists()


def test_train_jmml_repairs_within_labels(tmp_path, synth_csvs, capsys):
    # The CSV corpora share only their labels, so train-jmml must hand the
    # pairing labels to train_edcc, as run_experiment does, and re-pair
    # within each label every epoch.
    p1, p2 = synth_csvs
    out = tmp_path / "edcc.json"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("edcc:\n  epochs: 3\n")
    rc = main([
        "train-jmml", "--features1", p1, "--features2", p2,
        "--config", str(cfg), "--seed", "1", "--out", str(out),
    ])
    assert rc == 0

    ec = load_config(str(cfg)).edcc
    ds1, ds2 = read_feature_csv(p1, modality="eeg"), read_feature_csv(p2, modality="speech")
    scalers = [edcc.MinMaxScaler.fit(ds.x) for ds in (ds1, ds2)]
    x1, x2, labels = pair_by_label(ds1, ds2, seed=1)
    direct = edcc.build_edcc((ds1.dim, ds2.dim), setup=ec.setup, hidden=ec.hidden,
                             projection_dim=ec.projection_dim, seed=1)
    edcc.train_edcc(
        direct, scalers[0].transform(x1), scalers[1].transform(x2),
        epochs=ec.epochs, batch_size=ec.batch_size, lr=ec.lr, cca_w=ec.cca_w,
        srec_w=ec.srec_w, xrec_w=ec.xrec_w, reg=ec.reg, labels=labels, seed=1,
    )
    saved = edcc.load_edcc(out).params()
    assert len(saved) == len(direct.params())
    for a, b in zip(saved, direct.params()):
        np.testing.assert_array_equal(a.value, b.value)


def test_evaluate_verb(synth_csvs, capsys):
    p1, _ = synth_csvs
    rc = main(["evaluate", "--features", p1, "--n-estimators", "10", "--max-depth", "4"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert {"accuracy", "f1", "confusion"} <= set(report)


def test_run_verb(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "setup: baseline\n"
        "synth: {n_per_class: 30, latent_dim: 4, dims: [8, 6], noise: 1.0,"
        " seed: 0, class_separation: 2.0}\n"
        "rf: {n_estimators: 10, max_depth: 4}\n"
    )
    out = tmp_path / "report.json"
    rc = main(["run", "--config", str(cfg), "--out", str(out), "--table"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 2
    assert "Experiment Setup" in capsys.readouterr().out


def test_error_exit_code(tmp_path, capsys):
    rc = main(["extract", str(tmp_path / "missing.eegt"), str(tmp_path / "out.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
