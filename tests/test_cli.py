"""End-to-end CLI verb coverage through main()."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from jmml import edcc, jecl, mbpls
from jmml.biomarkers import EegTrial, FeatureSelection, extract_trial
from jmml.cli import build_parser, cmd_extract, main
from jmml.config import ExperimentConfig, load_config
from jmml.errors import LabelError
from jmml.experiment import classify, rows_to_json, run_experiment
from jmml.io import read_feature_csv, trim_pretrial, write_feature_csv, write_trials
from jmml.pipeline import (
    SynthSpec,
    mco_oversample,
    pair_by_label,
    stratified_split,
    synth_bimodal,
)


@pytest.fixture
def synth_csvs(tmp_path):
    ds1, ds2 = synth_bimodal(SynthSpec(n_per_class=40, latent_dim=4, dims=(10, 8), seed=0))
    p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_feature_csv(p1, ds1)
    write_feature_csv(p2, ds2)
    return str(p1), str(p2)


def test_synth_verb(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("synth: {n_per_class: 20, dims: [8, 6], seed: 1}\n")
    rc = main(["synth", "--config", str(cfg), "--out1", str(out1), "--out2", str(out2)])
    assert rc == 0
    ds = read_feature_csv(out1)
    assert len(ds) == 40 and ds.dim == 8


@pytest.mark.parametrize("yaml_text", [
    None,  # no config: the default SynthSpec
    "dimension: arousal\n"
    "synth: {n_per_class: 25, latent_dim: 3, dims: [7, 5], noise: 0.5, seed: 9,"
    " class_separation: 2.5, modality_noise: [0.3, 2.0]}\n",
])
def test_synth_verb_writes_the_configured_corpus(tmp_path, capsys, yaml_text):
    args = ["synth", "--out1", str(tmp_path / "a.csv"), "--out2", str(tmp_path / "b.csv")]
    if yaml_text is not None:
        (tmp_path / "cfg.yaml").write_text(yaml_text)
        args += ["--config", str(tmp_path / "cfg.yaml")]
    assert main(args) == 0
    config = load_config(str(tmp_path / "cfg.yaml")) if yaml_text else ExperimentConfig()
    for name, ref in zip(("a.csv", "b.csv"), synth_bimodal(config.synth, config.dimension)):
        back = read_feature_csv(tmp_path / name, ref.modality)
        np.testing.assert_array_equal(back.x, ref.x)
        np.testing.assert_array_equal(back.y, ref.y)
        np.testing.assert_array_equal(back.ids, ref.ids)
        assert back.dimension == config.dimension


def test_synth_verb_rejects_a_config_without_synth_section(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("synth: null\n")
    rc = main(["synth", "--config", str(cfg), "--out1", str(tmp_path / "a.csv"),
               "--out2", str(tmp_path / "b.csv")])
    assert rc == 1
    assert "synth section is null" in capsys.readouterr().err
    assert not (tmp_path / "a.csv").exists()


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


@pytest.mark.parametrize("labels,message", [
    (["V+", "A-", "V-"], "trial 't1': label 'A-' is on the arousal axis, the first trial's on valence"),
    (["V+", "V-", "Q?"], "trial 't2': bad label 'Q\\?'"),
])
def test_extract_verb_refuses_a_label_it_cannot_keep(tmp_path, capsys, labels, message):
    rng = np.random.default_rng(0)
    trials = [EegTrial(rng.standard_normal((2, 512)), 128.0, f"t{i}") for i in range(3)]
    container, out = tmp_path / "trials.eegt", tmp_path / "features.csv"
    write_trials(container, trials, labels)
    with pytest.raises(LabelError, match=message):
        cmd_extract(build_parser().parse_args(["extract", str(container), str(out)]))
    assert main(["extract", str(container), str(out)]) == 1
    assert re.search(message, capsys.readouterr().err) and not out.exists()


def test_extract_verb_trims_the_pretrial_window(tmp_path, capsys):
    rng = np.random.default_rng(1)
    trials = [EegTrial(rng.standard_normal((2, 1024)), 128.0, f"t{i}") for i in range(2)]
    container, out = tmp_path / "trials.eegt", tmp_path / "features.csv"
    write_trials(container, trials, ["V+", "V-"])
    assert main(["extract", str(container), str(out), "--trim"]) == 0
    selection = FeatureSelection()
    expected = [extract_trial(trim_pretrial(t), selection, k_max=8).values for t in trials]
    np.testing.assert_array_equal(read_feature_csv(out).x, expected)


def test_extract_verb_refuses_an_empty_container(tmp_path, capsys):
    container = tmp_path / "trials.eegt"
    write_trials(container, [], [])
    assert main(["extract", str(container), str(tmp_path / "features.csv")]) == 1
    assert capsys.readouterr().err == f"error: {container}: container holds no trials\n"


def test_run_verb_names_a_short_feature_row(tmp_path, capsys):
    ds1, ds2 = synth_bimodal(SynthSpec(n_per_class=20, latent_dim=3, dims=(6, 5), seed=0))
    paths = [tmp_path / "m1.csv", tmp_path / "m2.csv"]
    write_feature_csv(paths[0], ds1)
    write_feature_csv(paths[1], ds2)
    lines = paths[1].read_text().splitlines(True)
    lines[5] = lines[5].rsplit(",", 1)[0] + "\n"
    paths[1].write_text("".join(lines))
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"synth: null\nmodality1_csv: {paths[0]}\nmodality2_csv: {paths[1]}\n")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == (f"error: [stage=data] {paths[1]}: row id {str(ds2.ids[4])!r} "
                                       "has 6 columns, the header 7\n")


def test_train_jecl_and_fit_mbpls_verbs(tmp_path, synth_csvs, capsys):
    p1, _p2 = synth_csvs
    model_path = tmp_path / "jecl.json"
    rc = main([
        "train-jecl", "--features", p1,
        "--seed", "0", "--out", str(model_path),
    ])
    assert rc == 0 and model_path.exists()
    pls_path = tmp_path / "mbpls.json"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("mbpls: {n_components: 6}\n")
    rc = main([
        "fit-mbpls", "--jecl", str(model_path), "--features", p1,
        "--config", str(cfg), "--out", str(pls_path),
    ])
    assert rc == 0 and pls_path.exists()


def test_fit_mbpls_takes_the_modality_s_lv_count(tmp_path, synth_csvs, capsys):
    _p1, p2 = synth_csvs
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("jecl: {epochs: 3}\nmbpls: {n_components: [40, 6]}\n")
    model_path, pls_path = tmp_path / "jecl.json", tmp_path / "mbpls.json"
    assert main(["train-jecl", "--features", p2, "--config", str(cfg),
                 "--out", str(model_path)]) == 0
    assert main(["fit-mbpls", "--jecl", str(model_path), "--features", p2, "--modality", "speech",
                 "--config", str(cfg), "--out", str(pls_path)]) == 0
    assert mbpls.load_mbpls(pls_path).n_components == 6


def test_train_jecl_checkpoint_pins_config_mapping(tmp_path, synth_csvs, capsys):
    # Every JeclConfig field must reach build_jecl/train_jecl under its own
    # keyword, on the CSV's raw (unstandardized) features.
    p1, _p2 = synth_csvs
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("jecl: {setup: setup2, hidden: 16, kld_weight: 0.5, epochs: 12,"
                   " lr: 0.02, val_frac: 0.2, patience: 2}\n")
    out = tmp_path / "jecl.json"
    rc = main([
        "train-jecl", "--features", p1,
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


def test_evaluate_verb(tmp_path, synth_csvs, capsys):
    p1, _ = synth_csvs
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("rf: {n_estimators: 10, max_depth: 4}\n")
    rc = main(["evaluate", "--features", p1, "--config", str(cfg)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert {"accuracy", "f1", "confusion"} <= set(report)


def test_evaluate_verb_matches_the_classify_stage(tmp_path, synth_csvs, capsys):
    # the verb is the experiment's forest stage on one oversampled split
    _p1, p2 = synth_csvs
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("split: {test_frac: 0.3, train_frac: 0.7}\n"
                   "rf: {grid_search: true, estimator_grid: [4, 8], depth_grid: [2, 3],"
                   " folds: 3, f1_average: weighted}\n")
    rc = main(["evaluate", "--features", p2, "--config", str(cfg), "--seed", "3"])
    assert rc == 0
    config = load_config(str(cfg))
    ds = read_feature_csv(p2, "speech")
    train, _val, test = stratified_split(ds, replace(config.split, seed=3))
    train = mco_oversample(train, seed=4)
    report = classify(train.x, train.y, test.x, test.y, config.rf, 3)
    assert capsys.readouterr().out == json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.fixture
def two_axis_csv(tmp_path):
    """One feature CSV holding a valence corpus and an arousal corpus."""
    spec = SynthSpec(n_per_class=30, latent_dim=4, dims=(10, 8), seed=0)
    valence, _ = synth_bimodal(spec, "valence")
    arousal, _ = synth_bimodal(replace(spec, seed=1), "arousal")
    paths = [tmp_path / "valence.csv", tmp_path / "arousal.csv"]
    write_feature_csv(paths[0], valence)
    write_feature_csv(paths[1], arousal)
    both = tmp_path / "both.csv"
    lines = paths[0].read_text().splitlines(True) + paths[1].read_text().splitlines(True)[1:]
    both.write_text("".join(lines))
    return str(both)


def _evaluate_expected(path, dimension, config, seed=0):
    ds = read_feature_csv(path, "eeg", dimension)
    train, _val, test = stratified_split(ds, replace(config.split, seed=seed))
    train = mco_oversample(train, seed=seed + 1)
    return json.dumps(classify(train.x, train.y, test.x, test.y, config.rf, seed).to_dict(), indent=2)


def test_csv_verbs_read_the_config_dimension(tmp_path, two_axis_csv, capsys):
    # without --dimension the verb reads the axis `jmml run` would read
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("dimension: arousal\nrf: {n_estimators: 6, max_depth: 3}\n")
    assert main(["evaluate", "--features", two_axis_csv, "--config", str(cfg)]) == 0
    config = load_config(str(cfg))
    arousal = _evaluate_expected(two_axis_csv, "arousal", config)
    assert capsys.readouterr().out == arousal + "\n"
    # the flag overrides the config
    assert main(["evaluate", "--features", two_axis_csv, "--config", str(cfg),
                 "--dimension", "valence"]) == 0
    valence = _evaluate_expected(two_axis_csv, "valence", config)
    assert valence != arousal
    assert capsys.readouterr().out == valence + "\n"
    # with neither, a two-axis file is still refused
    assert main(["evaluate", "--features", two_axis_csv]) == 1
    assert "mixes axes" in capsys.readouterr().err


@pytest.fixture
def run_yaml(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "setup: baseline\n"
        "synth: {n_per_class: 30, latent_dim: 4, dims: [8, 6], noise: 1.0,"
        " seed: 0, class_separation: 2.0}\n"
        "rf: {n_estimators: 10, max_depth: 4}\n"
    )
    return str(cfg)


def test_run_verb(tmp_path, run_yaml, capsys):
    out = tmp_path / "report.json"
    rc = main(["run", "--config", run_yaml, "--out", str(out), "--table"])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc) == 2
    assert "Experiment Setup" in capsys.readouterr().out


def test_run_verb_seed_overrides_the_config_seed(tmp_path, run_yaml, capsys):
    out = tmp_path / "report.json"
    assert main(["run", "--config", run_yaml, "--seed", "3", "--out", str(out)]) == 0
    config = load_config(run_yaml)
    assert out.read_text() == rows_to_json(run_experiment(replace(config, seed=3)))
    assert out.read_text() != rows_to_json(run_experiment(config))


def test_run_verb_prints_the_report_without_out(run_yaml, capsys):
    assert main(["run", "--config", run_yaml]) == 0
    assert capsys.readouterr().out == rows_to_json(run_experiment(load_config(run_yaml))) + "\n"


def test_error_exit_code(tmp_path, capsys):
    rc = main(["extract", str(tmp_path / "missing.eegt"), str(tmp_path / "out.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
