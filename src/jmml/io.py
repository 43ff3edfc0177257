"""File formats: feature CSVs and EEG trial containers.

Feature CSV
-----------
Header ``id,label,f0,...,f{d-1}``; one row per sample.  Labels are
``V+``, ``V-``, ``A+``, ``A-`` (valence/arousal axis plus polarity).

Binary trial container (``.eegt``)
----------------------------------
Little-endian:

* magic ``JMMLEEG1`` (8 bytes), then uint32 trial count;
* per trial: uint16 id length + UTF-8 id, uint16 label length + UTF-8
  label, float64 sample rate, uint32 channel count, uint32 samples per
  channel, then channel-major float64 samples.

CSV trial container
-------------------
Header ``trial_id,label,sample_rate,channel,s0,...``; one row per
channel, rows of a trial grouped by id in file order.  ``read_trials``
reads either container: a file that does not start with the binary magic
is read as CSV.
"""

from __future__ import annotations

import csv
import struct

import numpy as np

from .biomarkers import EegTrial
from .errors import LabelError, NumericalError, RangeError, ShapeError
from .pipeline import Dataset

MAGIC = b"JMMLEEG1"

_DIM_CODE = {"valence": "V", "arousal": "A"}
_CODE_DIM = {"V": "valence", "A": "arousal"}


def format_label(dimension, polarity):
    return f"{_DIM_CODE[dimension]}{polarity}"


def parse_label(label):
    """Split 'V+' style labels into (dimension, polarity)."""
    if len(label) != 2 or label[0] not in _CODE_DIM or label[1] not in "+-":
        raise LabelError(f"bad label {label!r}; expected V+/V-/A+/A-")
    return _CODE_DIM[label[0]], label[1]


def write_feature_csv(path, dataset):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label"] + [f"f{i}" for i in range(dataset.dim)])
        for sid, label, row in zip(dataset.ids, dataset.y, dataset.x):
            writer.writerow([sid, format_label(dataset.dimension, label), *map(repr, row.tolist())])


def read_feature_csv(path, modality="eeg", dimension=None):
    """Load a feature CSV as a :class:`Dataset`.

    ``dimension`` filters rows to one axis; None keeps all rows but
    requires the file to be single-axis.  A row whose column count differs
    from the header's raises ``ShapeError``; an unparsable, NaN or inf
    value raises ``NumericalError``, and a bad label ``LabelError``.  Each
    names the file and the row id.
    """
    ids, labels, rows, dims = [], [], [], set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:2] != ["id", "label"]:
            raise ValueError(f"{path}: header must start with id,label")
        for rec in reader:
            if len(rec) != len(header):
                raise ShapeError(f"{path}: row id {rec[0] if rec else ''!r} has {len(rec)} "
                                 f"columns, the header {len(header)}")
            try:
                dim, pol = parse_label(rec[1])
            except LabelError as err:
                raise LabelError(f"{path}: row id {rec[0]!r}: {err}") from None
            if dimension is not None and dim != dimension:
                continue
            ids.append(rec[0])
            labels.append(pol)
            dims.add(dim)
            try:
                rows.append(list(map(float, rec[2:])))
            except ValueError as err:
                raise NumericalError(f"{path}: row id {rec[0]!r}: {err}") from None
    if not rows:
        raise ValueError(f"{path}: no rows" + (f" for dimension {dimension}" if dimension else ""))
    if dimension is None:
        if len(dims) > 1:
            raise ValueError(f"{path}: mixes axes {sorted(dims)}; pass dimension=")
        dimension = dims.pop()
    x = np.array(rows)
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise NumericalError(f"{path}: non-finite feature value in row id {ids[np.argmax(bad)]!r}")
    return Dataset(x, np.array(labels), np.array(ids), modality, dimension)


def write_trials(path, trials, labels):
    """Write the binary trial container."""
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(trials)))
        for trial, label in zip(trials, labels):
            tid = trial.trial_id.encode()
            lab = label.encode()
            fh.write(struct.pack("<H", len(tid)) + tid)
            fh.write(struct.pack("<H", len(lab)) + lab)
            n_ch, n_s = trial.channels.shape
            fh.write(struct.pack("<dII", trial.sample_rate, n_ch, n_s))
            fh.write(np.ascontiguousarray(trial.channels, dtype="<f8").tobytes())


def _sample_rate(path, tid, rate):
    """``rate`` if it is positive and finite, else ``RangeError`` naming the
    file and the trial."""
    if not 0.0 < rate < np.inf:
        raise RangeError(f"{path}: trial {tid!r}: sample rate {rate} Hz is not positive and finite")
    return rate


def _trial(path, channels, rate, tid):
    """The trial of file ``path``; a non-finite sample raises
    ``NumericalError`` naming the file, the trial and the channel."""
    try:
        return EegTrial(channels, rate, tid)
    except ValueError as err:
        raise NumericalError(f"{path}: {err}") from None


def read_trials(path):
    """Read a trial container, binary if it starts with the binary magic,
    else CSV; returns (trials, labels).  A binary container that ends early
    raises ``ShapeError`` naming the trial it ends in, a sample rate that is
    not positive and finite ``RangeError`` naming the trial, and a
    non-finite sample ``NumericalError`` naming the trial and channel."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            return read_trials_csv(path)
        index = None  # the trial being read

        def take(size):
            data = fh.read(size)
            if len(data) != size:
                where = "its trial count" if index is None else f"trial {index}"
                raise ShapeError(f"{path}: container is truncated in {where}")
            return data

        (count,) = struct.unpack("<I", take(4))
        trials, labels = [], []
        for index in range(count):
            (id_len,) = struct.unpack("<H", take(2))
            tid = take(id_len).decode()
            (lab_len,) = struct.unpack("<H", take(2))
            label = take(lab_len).decode()
            rate, n_ch, n_s = struct.unpack("<dII", take(16))
            data = np.frombuffer(take(8 * n_ch * n_s), dtype="<f8").reshape(n_ch, n_s)
            trials.append(_trial(path, data.copy(), _sample_rate(path, tid, rate), tid))
            labels.append(label)
    return trials, labels


def read_trials_csv(path):
    """Read the CSV trial container; returns (trials, labels).  A
    non-numeric sample or sample rate, or a non-finite sample (naming its
    channel), raises ``NumericalError``, channel rows of different lengths
    within a trial ``ShapeError``, a sample rate that is not positive and
    finite, or rows of one trial with different sample rates,
    ``RangeError``, and rows with different labels ``LabelError``; each
    names the file and the trial."""
    groups = {}  # trial id -> its label, rate and channel rows, in file order
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:4] != ["trial_id", "label", "sample_rate", "channel"]:
            raise ValueError(f"{path}: header must start with trial_id,label,sample_rate,channel")
        for rec in reader:
            tid = rec[0]
            try:
                rate = _sample_rate(path, tid, float(rec[2]))
                if tid not in groups:
                    groups[tid] = {"label": rec[1], "rate": rate, "channels": []}
                groups[tid]["channels"].append([float(v) for v in rec[4:]])
            except ValueError as err:
                raise NumericalError(f"{path}: trial {tid!r}: {err}") from None
            if rec[1] != groups[tid]["label"]:
                raise LabelError(f"{path}: trial {tid!r} has rows labelled "
                                 f"{groups[tid]['label']!r} and {rec[1]!r}")
            if rate != groups[tid]["rate"]:
                raise RangeError(f"{path}: trial {tid!r} has rows sampled at "
                                 f"{groups[tid]['rate']} and {rate} Hz")
    for tid, group in groups.items():
        lengths = sorted({len(row) for row in group["channels"]})
        if len(lengths) > 1:
            raise ShapeError(f"{path}: trial {tid!r} has channel rows of {lengths} samples")
    trials = [_trial(path, np.array(g["channels"]), g["rate"], tid) for tid, g in groups.items()]
    return trials, [g["label"] for g in groups.values()]


def trim_pretrial(trial, pre_seconds=3.0, total_seconds=63.0):
    """Keep samples in [pre_seconds, total_seconds) — drops the pre-trial
    baseline window from a recording."""
    start = int(pre_seconds * trial.sample_rate)
    stop = int(total_seconds * trial.sample_rate)
    return EegTrial(trial.channels[:, start:stop], trial.sample_rate, trial.trial_id)
