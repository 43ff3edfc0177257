"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/tracing.py`` patches pipeline functions on ``jmml.experiment``
only where that module holds them by name, so an orchestration refactor
that drops such an import would silently lose spans in traced runs.
"""

import importlib.util
from pathlib import Path

from jmml import experiment
from jmml.config import EdccConfig, ExperimentConfig, JeclConfig, MbplsConfig, RfConfig
from jmml.pipeline import SynthSpec

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_pipeline_entry_point():
    tracing = _load_tracing()
    originals = {name: getattr(experiment, name) for name in tracing.PIPELINE_FUNCS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, fn in originals.items():
            assert getattr(experiment, name) is not fn, name
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(experiment, name) is fn, name


def test_traced_run_records_every_stage_span():
    # a stage called around the tracer's patch points would record no calls
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    config = ExperimentConfig(
        synth=SynthSpec(n_per_class=20, latent_dim=3, dims=(6, 5)),
        jecl=JeclConfig(epochs=2), mbpls=MbplsConfig(n_components=4),
        edcc=EdccConfig(epochs=1), rf=RfConfig(n_estimators=3, max_depth=3),
    )
    tracer.install()
    try:
        rows = experiment.run_experiment(config)
    finally:
        tracer.uninstall()
    assert len(rows) == 8
    calls = {layer: agg[2] for layer, agg in tracer.agg["setup"].items()}
    assert calls.get("forest.fit") == 8  # one forest per (setup, modality)
    assert tracer.counts["setup"]["forest.fit.trees"] == 8 * 3  # len(forest.trees) per fit
    assert calls.get("mbpls.fit") == 2  # one projection per modality
    assert calls.get("jecl.train") == 2
    assert calls.get("edcc.train") == 2  # baseline_edcc and jmml
