"""Experiment configuration: one YAML file covering every hyperparameter.

Defaults: batch size 32, rating threshold 4.5, 80/20 split with 10%
validation, expanded latent setup with doubled hidden width, 20-unit
projection heads.  Every value can be overridden from a YAML file.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .pipeline import SplitSpec, SynthSpec

SETUP_CHAIN = ("baseline", "jec_ssl", "baseline_edcc", "jmml")


@dataclass
class JeclConfig:
    setup: str = "setup3"
    hidden: int | None = None        # None -> 2 * input dim
    kld_weight: float = 1.0
    epochs: int = 200
    lr: float = 1e-3
    val_frac: float = 0.1
    patience: int = 20


@dataclass
class MbplsConfig:
    # LV count; a (modality-1, modality-2) pair tunes each modality's
    # chain separately.  Clipped to data rank at fit time.
    n_components: int | tuple = (48, 8)
    tune: bool = False
    lv_grid: tuple = tuple(range(40, 121, 2))
    folds: int = 5


@dataclass
class EdccConfig:
    setup: str = "setup3"
    hidden: int | None = None
    projection_dim: int = 20
    epochs: int = 80
    batch_size: int = 32
    lr: float = 1e-3
    # the cross-modal terms carry the class signal between modalities;
    # up-weighting them (and relaxing the self term) keeps the trunk from
    # collapsing into a plain per-modality autoencoder
    cca_w: float = 5.0
    srec_w: float = 0.5
    xrec_w: float = 5.0
    reg: float = 1e-4


@dataclass
class RfConfig:
    n_estimators: int = 300
    max_depth: int = 8
    grid_search: bool = False
    estimator_grid: tuple = (50, 100, 200)
    depth_grid: tuple = (4, 8, 16)
    folds: int = 5
    f1_average: str = "macro"


@dataclass
class ExperimentConfig:
    """Everything a full run needs.  Data comes either from the synthetic
    generator (``synth`` set) or from two feature CSVs."""

    setup: str = "all"               # 'all' or one of SETUP_CHAIN
    seed: int = 0
    dimension: str = "valence"
    modality1_csv: str | None = None
    modality2_csv: str | None = None
    synth: SynthSpec | None = field(default_factory=SynthSpec)
    split: SplitSpec = field(default_factory=SplitSpec)
    jecl: JeclConfig = field(default_factory=JeclConfig)
    mbpls: MbplsConfig = field(default_factory=MbplsConfig)
    edcc: EdccConfig = field(default_factory=EdccConfig)
    rf: RfConfig = field(default_factory=RfConfig)

    def setups(self):
        if self.setup == "all":
            return list(SETUP_CHAIN)
        if self.setup not in SETUP_CHAIN:
            raise ValueError(f"unknown setup {self.setup!r}")
        return [self.setup]


def from_dict(cls, d):
    """Build dataclass ``cls`` from a (possibly partial) plain dict.

    Omitted fields keep their defaults; a dict under a dataclass-valued
    default becomes that dataclass, a list under a tuple-valued default a
    tuple.  Unknown keys reach ``cls(**...)`` and raise ``TypeError``.
    """
    kwargs = dict(d)
    for f in fields(cls):
        if f.name not in kwargs:
            continue
        default = f.default_factory() if f.default_factory is not MISSING else f.default
        value = kwargs[f.name]
        if is_dataclass(default) and isinstance(value, dict):
            kwargs[f.name] = from_dict(type(default), value)
        elif isinstance(default, tuple) and isinstance(value, list):
            kwargs[f.name] = tuple(value)
    return cls(**kwargs)


def load_config(path):
    import yaml  # imported on first use: ``import jmml`` stays without it

    with open(path) as fh:
        return from_dict(ExperimentConfig, yaml.safe_load(fh) or {})


def save_config(config, path):
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(asdict(config), fh, sort_keys=False)
