"""File formats and configuration round trips."""

import csv
import io

import numpy as np
import pytest

from jmml.biomarkers import EegTrial
from jmml.config import ExperimentConfig, JeclConfig, MbplsConfig, load_config, save_config
from jmml.errors import LabelError
from jmml.io import (
    format_label,
    parse_label,
    read_feature_csv,
    read_trials,
    read_trials_csv,
    trim_pretrial,
    write_feature_csv,
    write_trials,
)
from jmml.pipeline import Dataset, SynthSpec


def test_label_codec():
    assert format_label("valence", "+") == "V+"
    assert format_label("arousal", "-") == "A-"
    assert parse_label("V+") == ("valence", "+")
    assert parse_label("A-") == ("arousal", "-")
    for bad in ("B+", "V", "V?", "VV+"):
        with pytest.raises(LabelError):
            parse_label(bad)


def _dataset(seed=0, n=12, d=5, dimension="valence"):
    rng = np.random.default_rng(seed)
    y = np.array(["+", "-"] * (n // 2))
    ids = np.array([f"t{i}" for i in range(n)])
    return Dataset(rng.standard_normal((n, d)), y, ids, "eeg", dimension)


def test_feature_csv_roundtrip_bit_exact(tmp_path):
    ds = _dataset()
    path = tmp_path / "f.csv"
    write_feature_csv(path, ds)
    back = read_feature_csv(path)
    np.testing.assert_array_equal(back.x, ds.x)  # repr round trip is exact
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.ids, ds.ids)
    assert back.dimension == "valence"


def test_feature_csv_bytes_match_per_scalar_repr(tmp_path):
    # the writer formats whole rows; the bytes equal repr(float(v)) per numpy scalar
    ds = _dataset(n=4, d=6)
    ds.x[0] = [-0.0, 5e-324, 1e308, 0.1, -1e-300, 2.0 / 3.0]
    path = tmp_path / "f.csv"
    write_feature_csv(path, ds)
    expected = io.StringIO(newline="")
    w = csv.writer(expected)
    w.writerow(["id", "label"] + [f"f{i}" for i in range(ds.dim)])
    for sid, label, row in zip(ds.ids, ds.y, ds.x):
        w.writerow([sid, format_label(ds.dimension, label)] + [repr(float(v)) for v in row])
    assert path.read_bytes() == expected.getvalue().encode()
    back = read_feature_csv(path)
    np.testing.assert_array_equal(back.x, ds.x)
    assert np.signbit(back.x[0, 0])


def test_feature_csv_dimension_filter(tmp_path):
    a = _dataset(dimension="valence")
    b = _dataset(seed=1, dimension="arousal")
    path = tmp_path / "mixed.csv"
    write_feature_csv(path, a)
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "a", newline="") as fh:
        w = csv.writer(fh)
        for sid, label, row in zip(b.ids, b.y, b.x):
            w.writerow([sid + "x", f"A{label}"] + [repr(float(v)) for v in row])
    with pytest.raises(ValueError):
        read_feature_csv(path)  # mixed axes need an explicit dimension
    only_v = read_feature_csv(path, dimension="valence")
    assert len(only_v) == len(a)
    only_a = read_feature_csv(path, dimension="arousal")
    assert len(only_a) == len(b)
    assert len(lines) == len(a) + 1


def test_trial_container_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    trials = [
        EegTrial(rng.standard_normal((3, 64)), 128.0, "trial-a"),
        EegTrial(rng.standard_normal((2, 32)), 256.0, "trial-b"),
    ]
    labels = ["V+", "A-"]
    path = tmp_path / "trials.eegt"
    write_trials(path, trials, labels)
    back, back_labels = read_trials(path)
    assert back_labels == labels
    for orig, new in zip(trials, back):
        np.testing.assert_array_equal(orig.channels, new.channels)
        assert orig.sample_rate == new.sample_rate
        assert orig.trial_id == new.trial_id


def test_trial_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.eegt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_trials(path)


def test_trials_csv_roundtrip(tmp_path):
    path = tmp_path / "trials.csv"
    rows = [
        "trial_id,label,sample_rate,channel,s0,s1,s2,s3",
        "t1,V+,128.0,0,0.1,0.2,0.3,0.4",
        "t1,V+,128.0,1,1.0,1.1,1.2,1.3",
        "t2,A-,64.0,0,5.0,6.0,7.0,8.0",
    ]
    path.write_text("\n".join(rows) + "\n")
    trials, labels = read_trials_csv(path)
    assert labels == ["V+", "A-"]
    assert trials[0].channels.shape == (2, 4)
    assert trials[1].sample_rate == 64.0
    np.testing.assert_allclose(trials[0].channels[1], [1.0, 1.1, 1.2, 1.3])


def test_trim_pretrial_window():
    trial = EegTrial(np.arange(2 * 128 * 70, dtype=float).reshape(2, -1), 128.0, "t")
    trimmed = trim_pretrial(trial)
    assert trimmed.channels.shape == (2, 128 * 60)
    # first kept sample is at exactly 3 s
    assert trimmed.channels[0, 0] == 3 * 128


def test_config_yaml_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        seed=17,
        dimension="arousal",
        synth=SynthSpec(n_per_class=30, seed=17),
    )
    path = tmp_path / "cfg.yaml"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg


def test_config_defaults_from_empty_yaml(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == ExperimentConfig()
    assert cfg.setups() == ["baseline", "jec_ssl", "baseline_edcc", "jmml"]


def test_config_partial_sections_keep_defaults(tmp_path):
    path = tmp_path / "partial.yaml"
    path.write_text("synth: {n_per_class: 30}\nmbpls: {n_components: [40, 6]}\n")
    cfg = load_config(path)
    assert cfg.synth == SynthSpec(n_per_class=30)
    assert cfg.mbpls == MbplsConfig(n_components=(40, 6))
    assert isinstance(cfg.mbpls.n_components, tuple)
    assert cfg.jecl == JeclConfig() and cfg.split == ExperimentConfig().split


def test_config_lv_grid_from_yaml_list(tmp_path):
    path = tmp_path / "grid.yaml"
    path.write_text("mbpls: {tune: true, lv_grid: [4, 8, 16]}\n")
    cfg = load_config(path)
    assert cfg.mbpls == MbplsConfig(tune=True, lv_grid=(4, 8, 16))
    assert MbplsConfig().lv_grid == tuple(range(40, 121, 2))
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_null_synth_section(tmp_path):
    path = tmp_path / "csv.yaml"
    path.write_text("synth: null\n")
    assert load_config(path).synth is None


def test_config_unknown_key_raises(tmp_path):
    path = tmp_path / "typo.yaml"
    path.write_text("jecl: {epoch: 5}\n")
    with pytest.raises(TypeError):
        load_config(path)


def test_config_single_setup_selection():
    cfg = ExperimentConfig(setup="jmml")
    assert cfg.setups() == ["jmml"]
    with pytest.raises(ValueError):
        ExperimentConfig(setup="nope").setups()
