"""File formats and configuration round trips."""

import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jmml.biomarkers import EegTrial
from jmml.config import ExperimentConfig, JeclConfig, MbplsConfig, load_config, save_config
from jmml.errors import LabelError, NumericalError, RangeError, ShapeError
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


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_feature_csv_rejects_non_finite_values(tmp_path, bad):
    ds = _dataset(n=6, d=3)
    path = tmp_path / "f.csv"
    write_feature_csv(path, ds)
    lines = path.read_text().splitlines()
    for i in (3, 5):  # data rows 2 and 4
        cells = lines[i].split(",")
        cells[-1] = bad
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(NumericalError, match=f"f.csv: non-finite feature value in row id '{ds.ids[2]}'"):
        read_feature_csv(path)


def _edit_row(path, i, edit):
    """Rewrite data row ``i`` of a CSV as ``edit(cells)``."""
    lines = path.read_text().splitlines()
    lines[i + 1] = ",".join(edit(lines[i + 1].split(",")))
    path.write_text("\n".join(lines) + "\n")


def test_feature_csv_short_row_is_a_shape_error(tmp_path):
    ds = _dataset(n=6, d=3)
    path = tmp_path / "f.csv"
    write_feature_csv(path, ds)
    _edit_row(path, 3, lambda cells: cells[:-1])
    with pytest.raises(ShapeError, match="f.csv: row id 't3' has 4 columns, the header 5"):
        read_feature_csv(path)


def test_feature_csv_unparsable_cell_is_a_numerical_error(tmp_path):
    ds = _dataset(n=6, d=3)
    path = tmp_path / "f.csv"
    write_feature_csv(path, ds)
    _edit_row(path, 2, lambda cells: cells[:3] + ["abc"] + cells[4:])
    with pytest.raises(NumericalError, match="f.csv: row id 't2': could not convert string to float: 'abc'"):
        read_feature_csv(path)


def test_feature_csv_bad_label_names_file_and_row(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("id,label,f0\nr0,V+,1.0\nr1,X+,2.0\n")
    with pytest.raises(LabelError, match="f.csv: row id 'r1': bad label 'X\\+'"):
        read_feature_csv(path)


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


def test_truncated_trial_container_is_a_shape_error(tmp_path):
    rng = np.random.default_rng(3)
    trials = [EegTrial(rng.standard_normal((2, 16)), 128.0, f"t{i}") for i in range(3)]
    path = tmp_path / "trials.eegt"
    write_trials(path, trials, ["V+", "V-", "V+"])
    full = path.read_bytes()
    trial_size = (len(full) - 12) // 3
    for size, where in [(10, "its trial count"), (12 + trial_size + 5, "trial 1"), (len(full) - 1, "trial 2")]:
        path.write_bytes(full[:size])
        with pytest.raises(ShapeError, match=f"trials.eegt: container is truncated in {where}$"):
            read_trials(path)


def test_read_trials_tells_the_containers_apart(tmp_path):
    rng = np.random.default_rng(4)
    trials = [EegTrial(rng.standard_normal((2, 4)), 64.0, "t1")]
    binary, text = tmp_path / "trials.eegt", tmp_path / "trials.csv"
    write_trials(binary, trials, ["A-"])
    text.write_text("trial_id,label,sample_rate,channel,s0,s1,s2,s3\n" + "".join(
        f"t1,A-,64.0,{c}," + ",".join(map(repr, row.tolist())) + "\n"
        for c, row in enumerate(trials[0].channels)))
    for path in (binary, text):
        back, labels = read_trials(path)
        assert labels == ["A-"] and back[0].trial_id == "t1" and back[0].sample_rate == 64.0
        np.testing.assert_array_equal(back[0].channels, trials[0].channels)


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


@pytest.mark.parametrize("row, error, match", [
    ("t2,A-,64.0,1,5.0,abc,7.0,8.0", NumericalError, "trial 't2': could not convert string to float: 'abc'"),
    ("t3,A-,fast,0,5.0,6.0,7.0,8.0", NumericalError, "trial 't3': could not convert string to float: 'fast'"),
    ("t2,A-,64.0,1,5.0,6.0,7.0", ShapeError, r"trial 't2' has channel rows of \[3, 4\] samples"),
    ("t2,A-,64.0,1,5.0,nan,7.0,-inf", NumericalError, "trial 't2': non-finite samples in channel 1"),
    *[(f"t3,A-,{rate},0,5.0,6.0,7.0,8.0", RangeError,
       f"trial 't3': sample rate {float(rate)} Hz is not positive and finite")
      for rate in ("nan", "inf", "-inf", "0.0")],
])
def test_trials_csv_malformed_trial_names_file_and_trial(tmp_path, row, error, match):
    path = tmp_path / "trials.csv"
    rows = [
        "trial_id,label,sample_rate,channel,s0,s1,s2,s3",
        "t1,V+,128.0,0,0.1,0.2,0.3,0.4",
        "t2,A-,64.0,0,5.0,6.0,7.0,8.0",
        row,
    ]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(error, match="trials.csv: " + match):
        read_trials(path)


@pytest.mark.parametrize("row, error, match", [
    ("t1,A-,64.0,1,1.0,1.1", LabelError, "has rows labelled 'V+' and 'A-'"),
    ("t1,V+,64.0,1,1.0,1.1", RangeError, "has rows sampled at 128.0 and 64.0 Hz"),
])
def test_trials_csv_rows_of_one_trial_must_agree(tmp_path, row, error, match):
    path = tmp_path / "trials.csv"
    path.write_text("trial_id,label,sample_rate,channel,s0,s1\nt1,V+,128.0,0,0.1,0.2\n" + row + "\n")
    with pytest.raises(error, match=re.escape(f"trials.csv: trial 't1' {match}")):
        read_trials(path)


@pytest.mark.parametrize("rate", [np.nan, np.inf, 0.0])
def test_binary_trials_rate_not_positive_and_finite_names_file_and_trial(tmp_path, rate):
    trial = EegTrial(np.zeros((2, 4)), 64.0, "t1")
    trial.sample_rate = rate  # as a corrupt or foreign writer would leave it
    path = tmp_path / "trials.eegt"
    write_trials(path, [trial], ["V+"])
    with pytest.raises(RangeError, match=re.escape(
            f"trials.eegt: trial 't1': sample rate {rate} Hz is not positive and finite")):
        read_trials(path)


def test_binary_trials_non_finite_sample_names_file_trial_and_channel(tmp_path):
    trial = EegTrial(np.zeros((3, 4)), 64.0, "t1")
    trial.channels[1, 2] = np.nan  # as a corrupt or foreign writer would leave it
    path = tmp_path / "trials.eegt"
    write_trials(path, [EegTrial(np.zeros((2, 4)), 64.0, "t0"), trial], ["V+", "V-"])
    with pytest.raises(NumericalError, match=re.escape(
            "trials.eegt: trial 't1': non-finite samples in channel 1")):
        read_trials(path)


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


def test_import_jmml_leaves_yaml_unimported():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, jmml; sys.exit('yaml' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0


def test_config_single_setup_selection():
    cfg = ExperimentConfig(setup="jmml")
    assert cfg.setups() == ["jmml"]
    with pytest.raises(ValueError):
        ExperimentConfig(setup="nope").setups()
