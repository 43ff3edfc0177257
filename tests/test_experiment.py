"""Experiment runner: report schema, determinism, descriptors, stage tags."""

import json
from dataclasses import replace

import numpy as np
import pytest

from jmml import experiment, mbpls
from jmml.config import (
    SETUP_CHAIN,
    EdccConfig,
    ExperimentConfig,
    JeclConfig,
    MbplsConfig,
    RfConfig,
)
from jmml.errors import DegenerateVector, EmptyClassError, JmmlError, NumericalError, ShapeError
from jmml.experiment import (
    input_descriptor,
    render_table,
    rows_to_json,
    run_experiment,
)
from jmml.io import write_feature_csv
from jmml.pipeline import SynthSpec, synth_bimodal


def _small_config(seed=0, setup="all"):
    return ExperimentConfig(
        setup=setup,
        seed=seed,
        synth=SynthSpec(n_per_class=60, latent_dim=4, dims=(14, 10), noise=1.0, seed=0),
        jecl=JeclConfig(epochs=15),
        edcc=EdccConfig(epochs=5),
        mbpls=MbplsConfig(n_components=8),
        rf=RfConfig(n_estimators=20, max_depth=5),
    )


def test_input_descriptors():
    assert input_descriptor("baseline", 1) == "X_1"
    assert input_descriptor("jec_ssl", 2) == "X'_2"
    assert input_descriptor("baseline_edcc", 1) == "[X_1, X̄^1_1]"
    assert input_descriptor("jmml", 2) == "[X'_2, X̄'^2_2]"


def test_full_run_emits_eight_rows():
    rows = run_experiment(_small_config())
    assert len(rows) == 8
    combos = {(r.setup, r.modality) for r in rows}
    assert combos == {
        (s, m)
        for s in ("baseline", "jec_ssl", "baseline_edcc", "jmml")
        for m in (1, 2)
    }
    for r in rows:
        assert 0.0 <= r.accuracy <= 100.0
        assert 0.0 <= r.f1 <= 100.0
        assert r.input_desc == input_descriptor(r.setup, r.modality)


def test_report_json_schema_and_determinism():
    payload1 = rows_to_json(run_experiment(_small_config(seed=5)))
    payload2 = rows_to_json(run_experiment(_small_config(seed=5)))
    assert payload1 == payload2  # byte-identical for the same seed
    doc = json.loads(payload1)
    assert len(doc) == 8
    assert set(doc[0]) == {"setup", "modality", "input", "accuracy", "f1"}


def test_different_seed_changes_report():
    p1 = rows_to_json(run_experiment(_small_config(seed=1, setup="baseline")))
    p2 = rows_to_json(run_experiment(_small_config(seed=2, setup="baseline")))
    assert p1 != p2


def test_single_setup_run():
    rows = run_experiment(_small_config(setup="baseline"))
    assert len(rows) == 2
    assert all(r.setup == "baseline" for r in rows)


def test_render_table_contains_descriptors():
    rows = run_experiment(_small_config(setup="baseline"))
    table = render_table(rows)
    assert "X_1" in table and "X_2" in table and "Valence" in table


def test_stage_tag_on_error():
    cfg = _small_config()
    cfg = ExperimentConfig(**{**cfg.__dict__, "synth": None})  # no data source
    with pytest.raises(JmmlError) as exc:
        run_experiment(cfg)
    assert "[stage=data]" in str(exc.value)


def test_stage_tag_keeps_the_error_type(tmp_path):
    # a NaN in a feature CSV fails at load time as the typed error, tagged
    paths = []
    for m, ds in enumerate(synth_bimodal(SynthSpec(n_per_class=20, latent_dim=3, dims=(6, 5)))):
        if m == 1:
            ds.x[7, 2] = np.nan
        paths.append(tmp_path / f"m{m + 1}.csv")
        write_feature_csv(paths[-1], ds)
    cfg = replace(_small_config(), synth=None, modality1_csv=str(paths[0]),
                  modality2_csv=str(paths[1]))
    with pytest.raises(NumericalError, match=r"^\[stage=data\] .*m2.csv: non-finite .* 'm2-00007'"):
        run_experiment(cfg)


def test_too_small_class_is_a_tagged_empty_class_error():
    cfg = replace(_small_config(), synth=SynthSpec(n_per_class=5, latent_dim=4, dims=(14, 10)))
    with pytest.raises(EmptyClassError, match=r"^\[stage=split\] class \+ has 5 samples"):
        run_experiment(cfg)


def test_too_few_paired_rows_for_the_cca_step_is_a_tagged_shape_error():
    # passes the split's class-count check, but 18 paired rows cannot fit
    # 20 canonical components
    cfg = ExperimentConfig(seed=0, synth=SynthSpec(n_per_class=12), jecl=JeclConfig(epochs=2),
                           edcc=EdccConfig(epochs=1), rf=RfConfig(n_estimators=4))
    with pytest.raises(ShapeError, match=r"^\[stage=baseline_edcc\] 18 paired rows .* 20 components"):
        run_experiment(cfg)


def test_too_few_paired_rows_fail_before_any_stage_trains(monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("the jec_ssl stage trained before the paired-row check")

    monkeypatch.setattr(experiment, "fit_jecl", no_training)
    cfg = ExperimentConfig(seed=0, synth=SynthSpec(n_per_class=12), jecl=JeclConfig(epochs=2),
                           edcc=EdccConfig(epochs=1), rf=RfConfig(n_estimators=4))
    with pytest.raises(ShapeError, match=r"^\[stage=baseline_edcc\] 18 paired rows .* 20 components"):
        run_experiment(cfg)
    # a jmml-only run tags its own cross-modal stage
    with pytest.raises(ShapeError, match=r"^\[stage=jmml\] 18 paired rows"):
        run_experiment(replace(cfg, setup="jmml"))


def test_fit_pls_tunes_the_lv_count_when_asked():
    rng = np.random.default_rng(0)
    blocks = [rng.standard_normal((40, 5)), rng.standard_normal((40, 4))]
    target = np.hstack(blocks)[:, :3] @ rng.standard_normal((3, 2)) + 0.1 * rng.standard_normal((40, 2))
    cfg = MbplsConfig(n_components=8, tune=True, lv_grid=(1, 3, 6, 60), folds=4)
    pls = experiment.fit_pls(blocks, target, cfg, 0, seed=5)
    k = mbpls.tune_lv(blocks, target, cfg.lv_grid, folds=4, seed=5)
    assert pls.n_components == k != cfg.n_components
    np.testing.assert_array_equal(pls.beta, mbpls.fit(blocks, target, k).beta)


def test_jmml_reuses_jec_ssl_representations():
    # a jmml-only run still trains the jec_ssl stage; rows stay consistent
    rows = run_experiment(_small_config(setup="jmml"))
    assert [r.setup for r in rows] == ["jmml", "jmml"]
    assert rows[0].modality == 1 and rows[1].modality == 2


def _label_paired_csv_config(tmp_path, m2_x=None):
    # modality 2 keeps a different subset of rows, so its pool differs in
    # size and order and the cross-modal stages pair rows by label;
    # ``m2_x`` maps its feature matrix before it is written
    ds1, ds2 = synth_bimodal(SynthSpec(n_per_class=50, latent_dim=4, dims=(12, 8), seed=3))
    ds2 = ds2.subset(list(range(0, len(ds2), 3)) + list(range(1, len(ds2), 2)))
    if m2_x is not None:
        ds2 = replace(ds2, x=m2_x(ds2.x))
    paths = [tmp_path / "m1.csv", tmp_path / "m2.csv"]
    for path, ds in zip(paths, (ds1, ds2)):
        write_feature_csv(path, ds)
    return replace(_small_config(), synth=None, modality1_csv=str(paths[0]),
                   modality2_csv=str(paths[1]))


@pytest.mark.parametrize("m2_x, cause", [
    (np.ones_like, "is constant"),
    (lambda x: x * 1e-300, "has a std that underflows to 0"),
], ids=["constant", "underflowing"])
def test_a_modality_without_spread_fails_before_any_stage_trains(tmp_path, monkeypatch, m2_x, cause):
    # standardized, every row of such a modality has zero norm, which the
    # JECL cosine terms cannot score
    def no_training(*args, **kwargs):
        raise AssertionError("a JECL stage trained before the spread check")

    monkeypatch.setattr(experiment, "fit_jecl", no_training)
    cfg = _label_paired_csv_config(tmp_path, m2_x)
    with pytest.raises(DegenerateVector, match=rf"^\[stage=jec_ssl\] modality 2 \(speech\): every feature {cause}"):
        run_experiment(cfg)
    assert len(run_experiment(replace(cfg, setup="baseline"))) == 2


@pytest.mark.parametrize("corpus", ["index_paired_synth", "label_paired_csv"])
def test_each_setup_alone_gives_its_rows_of_a_full_run(tmp_path, corpus):
    # every stage draws from its own seed, so running a setup alone (with
    # only the stages it reads) cannot change its rows
    cfg = _small_config() if corpus == "index_paired_synth" else _label_paired_csv_config(tmp_path)
    full = run_experiment(cfg)
    for setup in SETUP_CHAIN:
        alone = run_experiment(replace(cfg, setup=setup))
        assert rows_to_json(alone) == rows_to_json([r for r in full if r.setup == setup])
