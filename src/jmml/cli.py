"""Command-line entry points.

Verbs: extract, synth, train-jecl, fit-mbpls, train-jmml, evaluate, run.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import biomarkers, edcc, io, jecl, mbpls
from .config import ExperimentConfig, load_config
from .errors import JmmlError, LabelError, ShapeError
from .experiment import (classify, fit_cross_modal, fit_jecl, fit_pls, render_table,
                         rows_to_json, run_experiment, split_pool)
from .pipeline import Dataset, pair_by_label, synth_bimodal


def _config(args):
    """The verb's ``--config`` YAML, or the defaults without one."""
    return load_config(args.config) if args.config else ExperimentConfig()


def _read_features(path, args, config):
    """Read a feature CSV's rows on one axis: ``--dimension``, else the
    ``--config`` YAML's ``dimension`` (the axis ``jmml run`` reads), else
    the file's only axis."""
    dimension = args.dimension or (config.dimension if args.config else None)
    return io.read_feature_csv(path, dimension=dimension)


def _trial_labels(trials, labels):
    """The axis of the first trial's label and every trial's polarity; a
    bad label, or one on another axis, raises ``LabelError`` naming its
    trial."""
    parsed = []
    for trial, label in zip(trials, labels):
        try:
            parsed.append(io.parse_label(label))
        except LabelError as err:
            raise LabelError(f"trial {trial.trial_id!r}: {err}") from None
        if parsed[-1][0] != parsed[0][0]:
            raise LabelError(f"trial {trial.trial_id!r}: label {label!r} is on the "
                             f"{parsed[-1][0]} axis, the first trial's on {parsed[0][0]}")
    return parsed[0][0], [pol for _dim, pol in parsed]


def cmd_extract(args):
    trials, labels = io.read_trials(args.trials)
    if not trials:
        raise ShapeError(f"{args.trials}: container holds no trials")
    dim, polarities = _trial_labels(trials, labels)
    if args.trim:
        trials = [io.trim_pretrial(t) for t in trials]
    selection = biomarkers.FeatureSelection()
    rows, ids = [], []
    for trial in trials:
        rows.append(biomarkers.extract_trial(trial, selection, k_max=args.k_max).values)
        ids.append(trial.trial_id)
    dataset = Dataset(np.array(rows), np.array(polarities), np.array(ids), "eeg", dim)
    io.write_feature_csv(args.out, dataset)
    print(f"wrote {len(rows)} trials x {dataset.dim} features to {args.out}")


def cmd_synth(args):
    config = _config(args)
    if config.synth is None:
        raise JmmlError("synth: the config's synth section is null")
    ds1, ds2 = synth_bimodal(config.synth, config.dimension)
    io.write_feature_csv(args.out1, ds1)
    io.write_feature_csv(args.out2, ds2)
    print(f"wrote {len(ds1)} + {len(ds2)} samples to {args.out1}, {args.out2}")


def cmd_train_jecl(args):
    config = _config(args)
    ds = _read_features(args.features, args, config)
    model, trace = fit_jecl(ds.x, ds.y, config.jecl, args.seed)
    jecl.save_jecl(model, args.out)
    print(f"trained {len(trace.total)} epochs; final loss {trace.total[-1]:.4f}; saved {args.out}")


def cmd_fit_mbpls(args):
    config = _config(args)
    model = jecl.load_jecl(args.jecl)
    ds = _read_features(args.features, args, config)
    modality = ("eeg", "speech").index(args.modality)
    pls = fit_pls(jecl.embed_blocks(model, ds.x), ds.x, config.mbpls, modality, args.seed)
    mbpls.save_mbpls(pls, args.out)
    print(f"fitted {pls.n_components} LVs; residual {pls.residual_norm:.4f}; saved {args.out}")


def cmd_train_jmml(args):
    config = _config(args)
    ds1 = _read_features(args.features1, args, config)
    ds2 = _read_features(args.features2, args, config)
    pairs = pair_by_label(ds1, ds2, seed=args.seed)
    model, trace = fit_cross_modal(pairs, (ds1.x, ds2.x), config.edcc, args.seed)
    edcc.save_edcc(model, args.out)
    print(f"trained {len(trace)} epochs; final total loss {trace[-1].total:.4f}; saved {args.out}")


def cmd_evaluate(args):
    config = _config(args)
    ds = _read_features(args.features, args, config)
    pool, test = split_pool(ds, config.split, args.seed)
    report = classify(pool.x, pool.y, test.x, test.y, config.rf, args.seed)
    print(json.dumps(report.to_dict(), indent=2))


def cmd_run(args):
    config = _config(args)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    rows = run_experiment(config)
    payload = rows_to_json(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        print(f"wrote report to {args.out}")
    else:
        print(payload)
    if args.table:
        print(render_table(rows, config.dimension))


def build_parser():
    parser = argparse.ArgumentParser(prog="jmml", description="Two-step joint multi-modal emotion learning")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags of every verb that fits or evaluates a stage on a feature CSV
    stage = argparse.ArgumentParser(add_help=False)
    stage.add_argument("--config", default=None)
    stage.add_argument("--dimension", default=None)
    stage.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("extract", help="EEG biomarker extraction from a trial container")
    p.add_argument("trials", help="binary (.eegt) or CSV trial container")
    p.add_argument("out")
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--trim", action="store_true", help="drop the 3s pre-trial window, keep 3-63s")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("synth", help="generate the synthetic bimodal benchmark")
    p.add_argument("--out1", default="modality1.csv")
    p.add_argument("--out2", default="modality2.csv")
    p.add_argument("--config", default=None, help="YAML whose synth section and dimension are written")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-jecl", parents=[stage], help="train per-class joint emotion blocks")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_jecl)

    p = sub.add_parser("fit-mbpls", parents=[stage],
                       help="fit the multiblock projection on block embeddings")
    p.add_argument("--jecl", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--modality", choices=("eeg", "speech"), default="eeg")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_mbpls)

    p = sub.add_parser("train-jmml", parents=[stage], help="train the cross-modal autoencoder")
    p.add_argument("--features1", required=True)
    p.add_argument("--features2", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_jmml)

    p = sub.add_parser("evaluate", parents=[stage], help="random-forest evaluation of a feature CSV")
    p.add_argument("--features", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("run", help="run the full four-setup experiment")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as err:  # surface library errors as clean CLI failures
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
