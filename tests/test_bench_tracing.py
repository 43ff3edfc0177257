"""The benchmark's tracer still finds every entry point it wraps.

``perfbench/tracing.py`` patches pipeline functions on ``jmml.experiment``
only where that module holds them by name, so an orchestration refactor
that drops such an import would silently lose spans in traced runs.
"""

import importlib.util
from pathlib import Path

from jmml import experiment

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
